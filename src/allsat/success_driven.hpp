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
//    justification frontier plus the values of its live nodes — the
//    assigned nodes that are frontier gates or feed an unjustified gate of
//    the objectives' cone. That covers the justification cut (the nodes
//    reachable from the frontier through frontier gates and unassigned
//    nodes); assignment is backward-only and a justified gate is never
//    re-examined, so the subsearch's solutions depend on nothing beyond
//    that cut: the key is exact. It is kept up to date as nodes are assigned and justified,
//    so a probe costs no walk. Solved subproblems are memoized and their
//    solution sub-DAGs shared, so equivalent subproblems are never re-solved
//    and the result is a compact SolutionGraph instead of an exponential
//    cube list.
//  * Conflict learning: a failed branch is analysed, as in CDCL, to the
//    first UIP of its depth over the reasons of its assignments (the gate
//    whose examine() forced a value, or the nogood that implied it). The
//    result is a nogood, a set of node values no evaluation of the netlist
//    makes true together under the root's objectives, watched on two
//    literals; once one literal is left open, the node gets the opposite
//    value. The search does not backjump, so a nogood that is unit while
//    its other watch stays true is remembered and implied at the entry of
//    each search state. A nogood removes only evaluations that do not
//    exist, so no state's solution set changes and the memo key stays
//    exact. The store holds one root's nogoods and runs at every
//    successLearning setting.
//  * One engine can answer several objective sets over the same netlist and
//    projection (a multi-cube preimage target): each becomes one root of a
//    shared graph, and the memo carries over between them — its key never
//    mentions the objectives, so a hit on another root's entry is exact.
//  * Branch order: a controlled AND-family gate is justified through the
//    undecided fanin with the lowest SCOAP controllability for the
//    controlling value (inputs cost 1, state bits 100), so the search
//    justifies through inputs, which the projection drops, before it pins
//    state bits. A branch that fixes no projection source and leads to a
//    subgraph covering every completion answers the whole search node
//    (projected subsumption): no node is built, and the other branch is
//    not searched.
//  * The graph is the engine's store, not its cover. The graph's
//    root-to-SUCCESS paths may overlap and follow the branch order, so the
//    cover is the ISOP of the graph's BDD instead (BddManager::isop, as the
//    BDD preimage engine's cover is): prime, irredundant cubes that depend
//    only on the solution set, so the cover equals the BDD engine's and does
//    not depend on the branch order. The count comes from the same BDD.
//  * The engine never splits: it keeps no clause database that grows with
//    every solution, so a cube-and-conquer split (src/parallel/) has nothing
//    to divide, and it runs serially at every options.parallel.jobs. Its
//    cover, count, graph and metrics are the same for every `jobs`.
#pragma once

#include <span>
#include <vector>

#include "allsat/lifting.hpp"
#include "allsat/projection.hpp"
#include "allsat/solution_graph.hpp"
#include "circuit/netlist.hpp"

namespace presat {

struct CircuitAllSatProblem {
  const Netlist* netlist = nullptr;
  // Required (node, value) pairs that every solution must satisfy.
  NodeCube objectives;
  // Source nodes (inputs / DFF outputs) defining the projection scope;
  // projected index i corresponds to projectionSources[i].
  std::vector<NodeId> projectionSources;
};

struct SuccessDrivenResult {
  // The cover is one cover of the union of all roots: the ISOP of the
  // graph's BDD, so it is prime, irredundant and canonical (its cubes may
  // overlap), and maxCubes caps it as a whole. mintermCount counts the union
  // of the cubes returned (finishCover).
  // The per-root answers live in the graph.
  AllSatResult summary;
  // Root i answers problem i.
  SolutionGraph graph;
};

SuccessDrivenResult successDrivenAllSat(const CircuitAllSatProblem& problem,
                                        const AllSatOptions& options = {});

// One engine for several problems that share a netlist and projection
// sources and differ only in their objectives. Tables, memo and graph are
// shared; root i of the graph answers problems[i]. The cover is the one
// cover of the union of every problem's solutions.
SuccessDrivenResult successDrivenAllSat(std::span<const CircuitAllSatProblem> problems,
                                        const AllSatOptions& options = {});

}  // namespace presat
