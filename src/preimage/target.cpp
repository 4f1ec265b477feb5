#include "preimage/target.hpp"

#include "allsat/projection.hpp"
#include "base/log.hpp"
#include "bdd/bdd.hpp"
#include "cnf/cnf.hpp"

namespace presat {

StateSet StateSet::fromCube(int numStateBits, LitVec cube) {
  for (Lit l : cube) {
    PRESAT_CHECK(l.var() >= 0 && l.var() < numStateBits) << "cube literal out of state range";
  }
  StateSet s;
  s.numStateBits = numStateBits;
  s.cubes.push_back(std::move(cube));
  return s;
}

StateSet StateSet::fromMinterm(int numStateBits, uint64_t minterm) {
  PRESAT_CHECK(numStateBits <= 64);
  LitVec cube;
  cube.reserve(static_cast<size_t>(numStateBits));
  for (int i = 0; i < numStateBits; ++i) {
    cube.push_back(mkLit(static_cast<Var>(i), ((minterm >> i) & 1) == 0));
  }
  return fromCube(numStateBits, std::move(cube));
}

BigUint StateSet::countStates() const {
  return countCubeUnionMinterms(cubes, numStateBits);
}

bool StateSet::contains(const std::vector<bool>& state) const {
  PRESAT_CHECK(state.size() == static_cast<size_t>(numStateBits));
  for (const LitVec& cube : cubes) {
    bool covered = true;
    for (Lit l : cube) {
      if (state[static_cast<size_t>(l.var())] == l.sign()) {
        covered = false;
        break;
      }
    }
    if (covered) return true;
  }
  return false;
}

uint32_t StateSet::toBdd(BddManager& mgr) const {
  return cubesToBdd(mgr, cubes);
}

std::string StateSet::toString() const {
  if (cubes.empty()) return "0";
  std::string out;
  for (size_t i = 0; i < cubes.size(); ++i) {
    if (i) out += " + ";
    if (cubes[i].empty()) {
      out += "1";
      continue;
    }
    for (Lit l : cubes[i]) {
      out += l.sign() ? "~s" : "s";
      out += std::to_string(l.var());
      out += ".";
    }
    out.pop_back();
  }
  return out;
}

bool sameStates(const StateSet& a, const StateSet& b) {
  PRESAT_CHECK(a.numStateBits == b.numStateBits);
  BddManager mgr(a.numStateBits);
  return a.toBdd(mgr) == b.toBdd(mgr);
}

void addStateSetClauses(Cnf& cnf, const StateSet& set, const LitVec& bitLits, Lit guard) {
  PRESAT_CHECK(bitLits.size() == static_cast<size_t>(set.numStateBits));
  auto bitLit = [&bitLits](Lit l) {
    Lit bit = bitLits[static_cast<size_t>(l.var())];
    return l.sign() ? ~bit : bit;
  };
  auto guarded = [guard](Clause clause) {
    if (guard != kUndefLit) clause.push_back(~guard);
    return clause;
  };
  if (set.cubes.size() == 1) {
    for (Lit l : set.cubes[0]) cnf.addClause(guarded({bitLit(l)}));
    return;
  }
  Clause atLeastOne;
  for (const LitVec& cube : set.cubes) {
    Lit sel = mkLit(cnf.newVar());
    atLeastOne.push_back(sel);
    for (Lit l : cube) cnf.addBinary(~sel, bitLit(l));
  }
  cnf.addClause(guarded(std::move(atLeastOne)));
}

}  // namespace presat
