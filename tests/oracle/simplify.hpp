// Reference simplifier for tests: duplicate-literal and tautology removal
// plus unit propagation to fixpoint. The DPLL oracle (oracle/dpll.hpp)
// propagates with it; the production preprocessing pass is cnf/preprocess.
#pragma once

#include <optional>
#include <vector>

#include "cnf/cnf.hpp"

namespace presat {

struct SimplifyResult {
  bool unsat = false;          // formula is trivially UNSAT
  Cnf simplified;              // same variable space as the input
  std::vector<lbool> forced;   // values forced by unit propagation, per var
};

SimplifyResult simplify(const Cnf& input);

// Propagates units only, returning per-variable forced values, or nullopt on
// an immediate conflict.
std::optional<std::vector<lbool>> propagateUnits(const Cnf& input);

}  // namespace presat
