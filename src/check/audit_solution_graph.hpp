// Deep structural + semantic validation of a SolutionGraph.
//
// The node-array checks run once; the root checks (child range, root
// literal hygiene, path repeats from the root, cube soundness, and cubes vs
// BDD when the caller reports no cover) run once per root of a multi-root
// graph, with the root's index in the detail. The per-root passes read
// tables built once over the node array (and one BDD pass shared by all
// roots, or none when the caller hands in the root BDDs it already built),
// so auditing an R-root graph costs one node-array pass plus R root passes,
// not R whole-graph audits.
//
// Structural invariants (always checked):
//
//   graph.child-range   every branch child (every root's included) is
//                       kSuccess, kFail, or a valid node index
//   graph.acyclic       the child relation is a DAG (general DFS — does not
//                       assume the engine's children-before-parents layout)
//   graph.dead-node     no stored node has both branches kFail (the engine
//                       collapses those to kFail at the parent)
//   graph.branch.lits   no branch assigns the same projected variable twice;
//                       literals are within the projected index space when
//                       its size is known
//   graph.path.repeat   no root-to-SUCCESS path assigns a projected variable
//                       twice (exact polynomial check over the DAG via
//                       per-node below-variable sets — never enumerates)
//
// Semantic invariants (need the projection width / original problem):
//
//   graph.count.cubes-vs-bdd  the caller's reported cover, when given,
//                       has the union of every root's BDD as its union;
//                       without one, each root's enumerated path cubes
//                       have that root's BDD as their union (skipped when
//                       a cover exceeds the cap)
//   graph.cube.unsat    every sampled path cube is sound for the original
//                       circuit problem: the cube's source assignments (plus
//                       random completions of the unassigned projection
//                       sources) admit an input assignment satisfying the
//                       objectives — checked by SAT on the Tseitin encoding.
//                       Cubes promise ∀state ∃input, so plain ternary
//                       simulation is NOT sufficient here.
//
// auditNogood checks one conflict-learning nogood of the success-driven
// engine on its own:
//
//   graph.nogood.sat    the nogood's (node, value) literals cannot all hold
//                       in an evaluation of the netlist that meets the
//                       objectives of the root it was learned under — one
//                       SAT call on the Tseitin encoding of their cone, with
//                       every literal and objective as a unit, is UNSAT
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "allsat/lifting.hpp"
#include "base/types.hpp"
#include "check/audit.hpp"

namespace presat {

class BddManager;
class SolutionGraph;
struct CircuitAllSatProblem;

struct SolutionGraphAuditOptions {
  // The problem each root was solved for (problems[i] for root i; one entry
  // per root). Enables graph.cube.unsat and fixes the projection width. May
  // be empty: structural checks still run, semantic ones are skipped.
  std::span<const CircuitAllSatProblem> problems;
  // Projection width when `problems` is empty (-1 = infer an upper bound
  // from the literals, which still enables graph.count.cubes-vs-bdd).
  int numProjectionVars = -1;
  // The cover the caller reported for the whole graph: any cube list whose
  // union is the union of every root's path set, as well-formed cubes over
  // the projected index space. Null: the BDD cross-check enumerates each
  // root's paths itself.
  const std::vector<LitVec>* cover = nullptr;
  // Each root's BDD (one entry per root) in `bddManager` over the projected
  // index space, for a caller that already built them: the cross-check then
  // reuses them instead of converting the graph again. Both or neither;
  // when absent the audit builds its own manager and root BDDs.
  BddManager* bddManager = nullptr;
  std::span<const uint32_t> rootBdds;
  // Cap on cubes per cover for the BDD cross-check (0 disables it; the
  // check is skipped, not failed, when a cover exceeds the cap).
  uint64_t maxEnumeratedCubes = 4096;
  // Cap on per-cube SAT soundness checks per root (0 disables
  // graph.cube.unsat).
  uint64_t maxCubeSatChecks = 256;
  // Random minterm completions tested per sampled cube (the ∀state part).
  int completionsPerCube = 2;
  uint64_t randomSeed = 0x9e3779b97f4a7c15ull;
};

AuditResult auditSolutionGraph(const SolutionGraph& graph,
                               const SolutionGraphAuditOptions& options = {});

// graph.nogood.sat for one nogood (see above). The engine leaves out the
// literals its root's objectives fix, so the objectives are part of the check.
AuditResult auditNogood(const Netlist& netlist, const NodeCube& objectives,
                        const NodeCube& nogood);

}  // namespace presat
