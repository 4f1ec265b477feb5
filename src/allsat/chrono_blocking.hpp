// Blocking-clause-free all-SAT via chronological backtracking.
//
// The classical baseline (allsat/blocking.hpp) stores every found solution
// as a clause, so the clause database — and each propagation — grows with the
// solution count. This engine never adds a blocking clause: after each model
// it emits a disjoint cube (the scope-decision prefix, widened by the
// prefix-closed implicant shrinking pass in allsat/lifting) and then flips
// the deepest scope decision of the emitted prefix as a reason-less
// pseudo-decision, continuing the search in the untouched half of the space.
// Conflict-driven backjumping is clamped at the deepest flipped level, so
// already-emitted regions are never revisited. See "Disjoint Partial
// Enumeration without Blocking Clauses" (Spallitta, Sebastiani, Biere) and
// DESIGN.md for the trail invariants.
//
// Output contract: the emitted cubes are PAIRWISE DISJOINT and their union is
// exactly the projected solution set (src/check/audit_chrono.cpp proves both
// against a BDD oracle), so the result is directly comparable to the other
// engines and countable without a BDD.
#pragma once

#include <vector>

#include "allsat/projection.hpp"
#include "base/types.hpp"
#include "cnf/cnf.hpp"

namespace presat {

// Enumerates the projection of the solution set of `cnf` onto `projection`
// with zero blocking clauses. `projection` must not list a variable twice.
// Parallel dispatch lives in src/parallel/parallel_allsat.cpp, like the other
// CNF engines.
AllSatResult chronoAllSat(const Cnf& cnf, const std::vector<Var>& projection,
                          const AllSatOptions& options);

}  // namespace presat
