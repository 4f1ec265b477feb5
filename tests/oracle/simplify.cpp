#include "oracle/simplify.hpp"

#include <algorithm>

#include "base/log.hpp"

namespace presat {

namespace {

// Sorts, deduplicates, and detects tautology. Returns false if the clause is
// a tautology (contains l and ~l) and should be dropped.
bool cleanClause(Clause& c) {
  std::sort(c.begin(), c.end());
  c.erase(std::unique(c.begin(), c.end()), c.end());
  for (size_t i = 1; i < c.size(); ++i) {
    if (c[i].var() == c[i - 1].var()) return false;
  }
  return true;
}

}  // namespace

std::optional<std::vector<lbool>> propagateUnits(const Cnf& input) {
  std::vector<lbool> value(static_cast<size_t>(input.numVars()), l_Undef);
  bool changed = true;
  while (changed) {
    changed = false;
    for (const Clause& c : input.clauses()) {
      Lit unassigned = kUndefLit;
      int numUnassigned = 0;
      bool sat = false;
      for (Lit l : c) {
        lbool v = value[static_cast<size_t>(l.var())];
        if (v.isUndef()) {
          ++numUnassigned;
          unassigned = l;
        } else if (v.isTrue() != l.sign()) {
          sat = true;
          break;
        }
      }
      if (sat) continue;
      if (numUnassigned == 0) return std::nullopt;  // conflict
      if (numUnassigned == 1) {
        value[static_cast<size_t>(unassigned.var())] = lbool(!unassigned.sign());
        changed = true;
      }
    }
  }
  return value;
}

SimplifyResult simplify(const Cnf& input) {
  SimplifyResult result;
  result.simplified = Cnf(input.numVars());
  auto forced = propagateUnits(input);
  if (!forced) {
    result.unsat = true;
    result.forced.assign(static_cast<size_t>(input.numVars()), l_Undef);
    return result;
  }
  result.forced = *forced;
  for (Clause c : input.clauses()) {
    if (!cleanClause(c)) continue;  // tautology
    Clause reduced;
    bool sat = false;
    for (Lit l : c) {
      lbool v = result.forced[static_cast<size_t>(l.var())];
      if (v.isUndef()) {
        reduced.push_back(l);
      } else if (v.isTrue() != l.sign()) {
        sat = true;
        break;
      }
    }
    if (sat) continue;
    // A clause fully falsified by forced values would have made propagation
    // report a conflict, so `reduced` is non-empty here; re-adding forced
    // units keeps the formula equisatisfiable with the original.
    PRESAT_CHECK(!reduced.empty());
    result.simplified.addClause(std::move(reduced));
  }
  // Preserve forced assignments as unit clauses so the simplified formula is
  // logically equivalent (not just equisatisfiable) over the variable space.
  for (Var v = 0; v < input.numVars(); ++v) {
    lbool val = result.forced[static_cast<size_t>(v)];
    if (!val.isUndef()) result.simplified.addUnit(mkLit(v, val.isFalse()));
  }
  return result;
}

}  // namespace presat
