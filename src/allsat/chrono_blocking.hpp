// Blocking-clause-free all-SAT via chronological backtracking.
//
// The classical baseline (allsat/blocking.hpp) stores every found solution
// as a clause, so the clause database — and each propagation — grows with the
// solution count. This engine never adds a blocking clause: after each model
// it emits a disjoint cube (the shortest sound scope-decision prefix) and
// then flips the deepest scope decision of the emitted prefix as a
// reason-less pseudo-decision, continuing the search in the untouched half
// of the space. Over a circuit encoding a CircuitWidener (allsat/lifting)
// picks the prefix by ternary simulation of the netlist; over a raw CNF the
// prefix-closed implicant scan of allsat/lifting does.
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

class CircuitWidener;

// Enumerates the projection of the solution set of `cnf`, exactly as given,
// onto `projection` with zero blocking clauses. `projection` must not list a
// variable twice. `widener` (may be null) speaks `cnf`'s variables and then
// chooses every emitted prefix and the deferred scope tier.
AllSatResult chronoAllSat(const Cnf& cnf, const std::vector<Var>& projection,
                          const AllSatOptions& options,
                          const CircuitWidener* widener = nullptr);

}  // namespace presat
