// Guiding-cube splitter tests (src/parallel/cube_splitter.*): the split
// plan partitions the projected space, clamps its depth to the projection
// width, and is deterministic. No engine splits; the benchmark harness's
// `parallel.split` probe is the planner's one caller.
#include <gtest/gtest.h>

#include <vector>

#include "allsat/success_driven.hpp"
#include "gen/generators.hpp"
#include "parallel/cube_splitter.hpp"
#include "preimage/transition_system.hpp"

namespace presat {
namespace {

TEST(CubeSplitter, GuideCubesPartitionTheSpace) {
  std::vector<Var> splitVars = {0, 2, 3};
  std::vector<LitVec> cubes = enumerateGuideCubes(splitVars);
  ASSERT_EQ(cubes.size(), 8u);
  // Over a 4-variable projected space, every minterm lands in exactly one
  // guiding cube — disjointness and coverage in one sweep.
  for (uint64_t minterm = 0; minterm < 16; ++minterm) {
    int covers = 0;
    for (const LitVec& cube : cubes) {
      if (cubeCoversMinterm(cube, minterm)) ++covers;
    }
    EXPECT_EQ(covers, 1) << "minterm " << minterm;
  }
}

TEST(CubeSplitter, ResolvesAndClampsDepth) {
  EXPECT_EQ(resolveSplitDepth(-1, 100), 4);
  EXPECT_EQ(resolveSplitDepth(-1, 2), 2);
  EXPECT_EQ(resolveSplitDepth(6, 3), 3);
  EXPECT_EQ(resolveSplitDepth(0, 8), 0);
}

TEST(CubeSplitter, CircuitPlanIsDeterministic) {
  Netlist nl = makeGrayCounter(3);
  TransitionSystem ts(nl);
  CircuitAllSatProblem problem;
  problem.netlist = &nl;
  problem.projectionSources = ts.stateNodes();
  problem.objectives = {{ts.nextStateRoot(0), true}};
  SplitPlan a = planCircuitSplit(problem, -1);
  SplitPlan b = planCircuitSplit(problem, -1);
  EXPECT_EQ(a.splitVars, b.splitVars);
  EXPECT_EQ(a.cubes, b.cubes);
  // Auto depth clamps to the 3-bit projection: 8 subcubes.
  EXPECT_EQ(a.splitVars.size(), 3u);
  EXPECT_EQ(a.cubes.size(), 8u);
}

}  // namespace
}  // namespace presat
