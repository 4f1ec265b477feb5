// Blocking-clause all-SAT: the classical baseline the paper improves on.
//
// Repeated CDCL solving; after each model the solution is blocked by one
// clause and the solver is called again. Without a lifter every model is
// blocked as a full projected minterm (pairwise-disjoint cover, one solver
// call and one clause per projected minterm). With a lifter each model is
// first grown into a solution cube over the projection scope and the whole
// cube is blocked at once, cutting the solver calls from #minterms to roughly
// #cubes — but the clause database still grows with every solution. The
// solver keeps each model's trail (sat/solver.hpp): the blocking clause
// backjumps to its assertion level and the next search resumes from there,
// instead of re-deriving the next solution from level 0.
#pragma once

#include <functional>

#include "allsat/projection.hpp"
#include "cnf/cnf.hpp"

namespace presat {

// Maps a full model of the CNF to a solution cube over the same formula's
// variables. Contract: every literal's variable is in the projection scope,
// the literal agrees with the model, and every projected assignment covered
// by the returned cube is extendable to a model (that is what makes blocking
// the whole cube sound). An empty callback means "no lifting" (full projected
// minterm).
using ModelLifter = std::function<LitVec(const std::vector<lbool>& model)>;

// Enumerates all assignments to `projection` extendable to a model of `cnf`,
// exactly as given: callers that want the formula preprocessed run
// preprocessCnf (cnf/preprocess.hpp) once themselves. The engine label is
// "minterm-blocking" without a lifter (the cover is then pairwise disjoint)
// and "cube-blocking" with one (cubes may overlap; the count goes through a
// BDD). With options.parallel.jobs >= 1 minterm blocking splits
// (parallel/parallel_allsat.hpp); cube blocking stays serial, so its cover is
// the same at every `jobs`.
AllSatResult blockingAllSat(const Cnf& cnf, const std::vector<Var>& projection,
                            const ModelLifter& lifter = {}, const AllSatOptions& options = {});

}  // namespace presat
