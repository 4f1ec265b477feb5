// Guiding-cube splitter: derives 2^depth pairwise-disjoint cubes over a
// circuit problem's projection scope, the cubes a cube-and-conquer search
// would solve one by one.
//
// No engine splits: every engine enumerates serially. What remains here is
// kept for the benchmark harness's `parallel.split` probe
// (perfbench/harness.cpp) and its tests, and goes when that probe does.
//
// The split variables are ranked by how much of the objectives'
// justification cone they influence (fanout degree inside the transitive
// fanin cone of the objectives, weighted by the level of the fanout gate).
// Variables outside the objectives' support score 0 and are only chosen when
// fewer scored candidates exist than the depth needs. The 2^depth cubes are
// exactly the assignments of the chosen split variables, enumerated in
// binary order (cube index bit j = value of splitVars[j]), so they are
// pairwise disjoint and jointly cover the projected space.
#pragma once

#include <vector>

#include "allsat/projection.hpp"

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

// Resolves a requested split depth: auto (-1) becomes 4, then clamps to the
// projection width.
int resolveSplitDepth(int requested, size_t numProjectionVars);

// Circuit split with justification-cone lookahead scoring.
SplitPlan planCircuitSplit(const CircuitAllSatProblem& problem, int splitDepth);

// Expands `splitVars` into the 2^k guiding cubes in binary index order.
std::vector<LitVec> enumerateGuideCubes(const std::vector<Var>& splitVars);

}  // namespace presat
