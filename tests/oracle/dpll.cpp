#include "oracle/dpll.hpp"

#include "base/log.hpp"
#include "oracle/simplify.hpp"

namespace presat {

namespace {

// Recursive DPLL over a partial assignment with naive unit propagation.
bool dpllRecurse(const Cnf& cnf, std::vector<lbool>& value) {
  // Unit propagation to fixpoint.
  std::vector<Var> propagated;
  bool changed = true;
  while (changed) {
    changed = false;
    for (const Clause& c : cnf.clauses()) {
      Lit unassigned = kUndefLit;
      int numUnassigned = 0;
      bool sat = false;
      for (Lit l : c) {
        lbool v = value[static_cast<size_t>(l.var())];
        if (v.isUndef()) {
          ++numUnassigned;
          unassigned = l;
          if (numUnassigned > 1) break;
        } else if (v.isTrue() != l.sign()) {
          sat = true;
          break;
        }
      }
      if (sat || numUnassigned > 1) continue;
      if (numUnassigned == 0) {
        for (Var v : propagated) value[static_cast<size_t>(v)] = l_Undef;
        return false;  // conflict
      }
      value[static_cast<size_t>(unassigned.var())] = lbool(!unassigned.sign());
      propagated.push_back(unassigned.var());
      changed = true;
    }
  }
  // Pick an unassigned variable occurring in an unsatisfied clause.
  Var branch = kNullVar;
  bool allSat = true;
  for (const Clause& c : cnf.clauses()) {
    bool sat = false;
    Lit firstUnassigned = kUndefLit;
    for (Lit l : c) {
      lbool v = value[static_cast<size_t>(l.var())];
      if (v.isUndef()) {
        if (firstUnassigned == kUndefLit) firstUnassigned = l;
      } else if (v.isTrue() != l.sign()) {
        sat = true;
        break;
      }
    }
    if (!sat) {
      allSat = false;
      PRESAT_DCHECK(firstUnassigned != kUndefLit);  // else propagation missed a conflict
      branch = firstUnassigned.var();
      break;
    }
  }
  if (allSat) return true;
  for (bool phase : {true, false}) {
    value[static_cast<size_t>(branch)] = lbool(phase);
    if (dpllRecurse(cnf, value)) return true;
  }
  value[static_cast<size_t>(branch)] = l_Undef;
  for (Var v : propagated) value[static_cast<size_t>(v)] = l_Undef;
  return false;
}

}  // namespace

std::optional<std::vector<bool>> dpllSolve(const Cnf& cnf) {
  std::vector<lbool> value(static_cast<size_t>(cnf.numVars()), l_Undef);
  for (const Clause& c : cnf.clauses()) {
    if (c.empty()) return std::nullopt;
  }
  if (!dpllRecurse(cnf, value)) return std::nullopt;
  std::vector<bool> model(static_cast<size_t>(cnf.numVars()), false);
  for (Var v = 0; v < cnf.numVars(); ++v) {
    model[static_cast<size_t>(v)] = value[static_cast<size_t>(v)].isTrue();
  }
  PRESAT_DCHECK(cnf.evaluate(model));
  return model;
}

bool dpllIsSat(const Cnf& cnf) { return dpllSolve(cnf).has_value(); }

std::set<uint64_t> bruteForceProjectedSolutions(const Cnf& cnf,
                                                const std::vector<Var>& projection) {
  PRESAT_CHECK(projection.size() <= 24) << "brute force projection too large";
  std::set<uint64_t> result;
  for (uint64_t bits = 0; bits < (1ull << projection.size()); ++bits) {
    // Constrain the projection vars and ask DPLL for an extension.
    Cnf constrained = cnf;
    for (size_t i = 0; i < projection.size(); ++i) {
      bool v = (bits >> i) & 1;
      constrained.addUnit(mkLit(projection[i], !v));
    }
    if (dpllIsSat(constrained)) result.insert(bits);
  }
  return result;
}

uint64_t bruteForceModelCount(const Cnf& cnf) {
  PRESAT_CHECK(cnf.numVars() <= 24) << "brute force model count too large";
  uint64_t count = 0;
  std::vector<bool> assignment(static_cast<size_t>(cnf.numVars()), false);
  for (uint64_t bits = 0; bits < (1ull << cnf.numVars()); ++bits) {
    for (Var v = 0; v < cnf.numVars(); ++v)
      assignment[static_cast<size_t>(v)] = (bits >> v) & 1;
    if (cnf.evaluate(assignment)) ++count;
  }
  return count;
}

}  // namespace presat
