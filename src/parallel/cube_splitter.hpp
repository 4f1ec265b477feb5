// Guiding-cube splitter: derives 2^depth pairwise-disjoint cubes over the
// projection scope that partition the search space for cube-and-conquer.
//
// The split variables are chosen by a lookahead score, not blindly: for a
// circuit problem the candidates are ranked by how much of the objectives'
// justification cone they influence (fanout degree inside the transitive
// fanin cone of the objectives, with a depth bonus for sources feeding the
// frontier-near layers); for a CNF problem the proxy is clause-occurrence
// count. Variables outside the objectives' support would split the space
// without constraining either half — the fallback to balanced low-index
// splitting only triggers when fewer scored candidates exist than the depth
// needs (tiny projections, constant cones).
//
// Disjointness and coverage hold by construction: the 2^depth cubes are
// exactly the assignments of the chosen split variables, enumerated in
// binary order (cube index bit j = value of splitVars[j]). Every consumer
// relies on that order being deterministic — the merge layer reassembles
// results by cube index, which is what makes the parallel result independent
// of worker count and scheduling.
#pragma once

#include <vector>

#include "allsat/projection.hpp"
#include "cnf/cnf.hpp"

namespace presat {

struct CircuitAllSatProblem;

struct SplitPlan {
  // Chosen split variables in the projected index space; bit j of a cube's
  // index gives the polarity of splitVars[j] in that cube.
  std::vector<Var> splitVars;
  // 2^|splitVars| guiding cubes (projected index space), pairwise disjoint,
  // jointly covering the full projected space, in binary index order.
  std::vector<LitVec> cubes;
};

// Resolves a requested split depth: auto (-1) becomes
// ParallelOptions::kDefaultSplitDepth, then clamps to the projection width.
// The engines always split at the default depth. Outside the planners and
// the tests, its only caller is the benchmark harness's `parallel.split`
// probe (perfbench/harness.cpp).
int resolveSplitDepth(int requested, size_t numProjectionVars);

// Circuit split with justification-cone lookahead scoring. No engine calls
// it. Outside the tests, its only caller is the benchmark harness's
// `parallel.split` probe (perfbench/harness.cpp); it can go when that probe
// does.
SplitPlan planCircuitSplit(const CircuitAllSatProblem& problem, int splitDepth);

// CNF split with occurrence-count scoring.
SplitPlan planCnfSplit(const Cnf& cnf, const std::vector<Var>& projection, int splitDepth);

// Expands `splitVars` into the 2^k guiding cubes in binary index order.
// Exposed for the merge layer's tests; the planners call it internally.
std::vector<LitVec> enumerateGuideCubes(const std::vector<Var>& splitVars);

}  // namespace presat
