// One-shot CNF preprocessing: pure-literal elimination, subsumption, and
// dense variable remapping.
//
// Run once per parsed circuit, before any (possibly pooled) enumeration over
// the formula. The pass computes a reduced CNF over a dense internal
// variable space plus the two maps between the spaces, so
// every consumer downstream of the solver — models, cubes, audits, the BDD
// oracle — keeps seeing ORIGINAL variable numbering while the CDCL inner
// loop runs on the smaller remapped formula.
//
// Contract (the reason this is safe under incremental clause addition):
//   - `frozen` variables are never eliminated and are always present in the
//     internal space, even when no remaining clause mentions them. Callers
//     freeze every variable that later clauses, projections, assumptions, or
//     lifters may mention — projection scopes at the engine level; state and
//     next-state-root variables at the circuit level (target cubes add
//     clauses over next-state roots and fresh selector variables).
//   - Pure-literal elimination only fires on NON-frozen variables, so the
//     model sets of the original and reduced formulas project identically
//     onto any subset of frozen variables, and that equivalence survives
//     adding clauses over frozen ∪ fresh variables to both sides.
//   - The remap is monotone in the original variable order, so translating a
//     projection vector elementwise preserves its index space: cubes emitted
//     in the projected index space need no translation at all.
#pragma once

#include <cstdint>
#include <vector>

#include "base/check.hpp"
#include "base/types.hpp"
#include "cnf/cnf.hpp"

namespace presat {

class Governor;

struct PreprocessStats {
  uint64_t varsBefore = 0;
  uint64_t varsAfter = 0;
  uint64_t clausesBefore = 0;
  uint64_t clausesAfter = 0;
  uint64_t pureLiterals = 0;      // non-frozen vars eliminated as pure
  uint64_t subsumedClauses = 0;   // clauses removed by subsumption (incl. duplicates)
  uint64_t tautologies = 0;       // clauses dropped as tautological
  uint64_t identityFallback = 0;  // 1 iff the pass degraded to the identity map
};

// A reduced CNF plus the maps between the original and internal spaces.
struct PreprocessedCnf {
  Cnf cnf;  // internal (dense) variable space

  // toInternal[origVar] = internal var, or kNullVar if eliminated.
  std::vector<Var> toInternal;
  // toOriginal[internalVar] = original var (total, strictly increasing).
  std::vector<Var> toOriginal;

  // Original-space literals fixed by pure-literal elimination. Any internal
  // model extends to an original model by adding exactly these.
  LitVec forcedLits;

  PreprocessStats stats;

  Var internalVar(Var orig) const {
    PRESAT_CHECK(orig >= 0 && static_cast<size_t>(orig) < toInternal.size())
        << "internalVar(x" << orig << ") out of range";
    return toInternal[static_cast<size_t>(orig)];
  }

  // Translates an original-space literal; the variable must be mapped
  // (always true for frozen variables).
  Lit internalLit(Lit orig) const {
    Var v = internalVar(orig.var());
    PRESAT_CHECK(v != kNullVar) << "internalLit(" << toString(orig)
                                << "): variable was eliminated (not frozen?)";
    return mkLit(v, orig.sign());
  }

  // Translates a projection scope elementwise; every variable must be mapped
  // (frozen). Index i keeps naming the same variable, so cubes over the
  // projected index space need no translation.
  std::vector<Var> internalVars(const std::vector<Var>& orig) const {
    std::vector<Var> out;
    out.reserve(orig.size());
    for (Var v : orig) out.push_back(internalLit(mkLit(v)).var());
    return out;
  }
};

// Preprocesses `cnf`, never eliminating a variable in `frozen`. `governor`
// is only used by the cnf.preprocess fault-injection site (may be null).
// Deterministic: output depends only on (cnf, frozen).
PreprocessedCnf preprocessCnf(const Cnf& cnf, const std::vector<Var>& frozen,
                              Governor* governor = nullptr);

class Metrics;

// Serializes the pass stats under the canonical preprocess.* counter names
// (registered in tools/metrics_registry.json).
void exportPreprocessMetrics(const PreprocessStats& stats, Metrics& m);

}  // namespace presat
