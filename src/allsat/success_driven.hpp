// Success-driven all-solutions SAT over circuit structure — the paper's
// primary contribution.
//
// The engine enumerates every assignment of the projection sources (e.g.
// present-state variables) under which the objectives (required node values,
// e.g. a target next-state cube) are satisfiable, WITHOUT blocking clauses:
//
//  * Search is backward justification over the netlist: a gate with a
//    required value either forces its fanins (AND=1 forces all fanins to 1),
//    or opens a binary decision on one fanin. Only nodes inside the
//    transitive fanin cones of unjustified gates are ever assigned.
//  * A leaf where the justification frontier is empty is a SUCCESS: the
//    sources assigned so far form a solution cube; every completion of the
//    unassigned sources works. This yields cube-level solutions for free.
//  * Success-driven learning: each subproblem is identified by its
//    justification frontier plus the values on its justification cut — the
//    nodes reachable from the frontier through frontier gates and
//    unassigned nodes. Assignment is backward-only and a justified gate is
//    never re-examined, so the subsearch reads nothing beyond that cut: the
//    key is exact. Solved subproblems are memoized and their solution
//    sub-DAGs shared, so equivalent subproblems are never re-solved and the
//    result is a compact SolutionGraph instead of an exponential cube list.
//  * One engine can answer several objective sets over the same netlist and
//    projection (a multi-cube preimage target): each becomes one root of a
//    shared graph, and the memo carries over between them — its key never
//    mentions the objectives, so a hit on another root's entry is exact.
//  * The graph is the engine's store, not its cover. The graph's
//    root-to-SUCCESS paths may overlap, so the cover is read off the graph's
//    reduced ordered BDD instead: its paths are pairwise disjoint and depend
//    only on the solution set, so the cover equals the BDD engine's and does
//    not depend on the branch order or the worker count.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "allsat/lifting.hpp"
#include "allsat/projection.hpp"
#include "allsat/solution_graph.hpp"
#include "circuit/netlist.hpp"

namespace presat {

class BddManager;

struct CircuitAllSatProblem {
  const Netlist* netlist = nullptr;
  // Required (node, value) pairs that every solution must satisfy.
  NodeCube objectives;
  // Source nodes (inputs / DFF outputs) defining the projection scope;
  // projected index i corresponds to projectionSources[i].
  std::vector<NodeId> projectionSources;
};

struct SuccessDrivenResult {
  // The cover is one cover of the union of all roots: the paths of the
  // graph's BDD (readSuccessDrivenCover), so it is disjoint and canonical,
  // and maxCubes caps it as a whole. mintermCount counts that union. The
  // per-root answers live in the graph.
  AllSatResult summary;
  // Root i answers problem i.
  SolutionGraph graph;
};

// With options.parallel.jobs >= 1 the engine splits each problem into
// guiding cubes (parallel/parallel_allsat.hpp); the cover, count and graph
// semantics are those of the serial run.
SuccessDrivenResult successDrivenAllSat(const CircuitAllSatProblem& problem,
                                        const AllSatOptions& options = {});

// One engine for several problems that share a netlist and projection
// sources and differ only in their objectives. Tables, memo and graph are
// shared; root i of the graph answers problems[i]. The cover is the one
// cover of the union of every problem's solutions.
SuccessDrivenResult successDrivenAllSat(std::span<const CircuitAllSatProblem> problems,
                                        const AllSatOptions& options = {});

// The success-driven cover of `set`, a solution graph's BDD in `mgr` over
// the projected index space: its paths (BddManager::enumerateCubes), the
// same cover the BDD preimage engine reads off the same set, then the
// optional compress pass. Sets summary.cubes and summary.mintermCount;
// past options.maxCubes the cover stops at the cap, the outcome combines
// with Outcome::kCubeCap, and the call returns true.
bool readSuccessDrivenCover(BddManager& mgr, uint32_t set, const AllSatOptions& options,
                            AllSatResult& summary);

}  // namespace presat
