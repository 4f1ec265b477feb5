// Backward reachability tests: depth semantics, fixpoint detection, and
// cross-method agreement against explicit graph search on the state space.
#include <gtest/gtest.h>

#include <queue>
#include <set>
#include <string>
#include <vector>

#include "base/rng.hpp"
#include "gen/generators.hpp"
#include "gen/iscas.hpp"
#include "gen/random_circuit.hpp"
#include "preimage/reachability.hpp"

namespace presat {
namespace {

// Explicit BFS over the reversed state graph. With `layers`, also records
// how many states each depth discovers, including the empty layer that ends
// the search before maxDepth.
std::set<uint64_t> bfsBackward(const TransitionSystem& ts, const std::set<uint64_t>& target,
                               int maxDepth, std::vector<size_t>* layers = nullptr) {
  int n = ts.numStateBits();
  int m = ts.numInputs();
  EXPECT_LE(n + m, 18);
  // Forward edges.
  std::vector<std::set<uint64_t>> predecessors(1ull << n);
  for (uint64_t s = 0; s < (1ull << n); ++s) {
    std::vector<bool> state(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) state[static_cast<size_t>(i)] = (s >> i) & 1;
    for (uint64_t x = 0; x < (1ull << m); ++x) {
      std::vector<bool> inputs(static_cast<size_t>(m));
      for (int i = 0; i < m; ++i) inputs[static_cast<size_t>(i)] = (x >> i) & 1;
      std::vector<bool> next = ts.step(state, inputs);
      uint64_t t = 0;
      for (int i = 0; i < n; ++i) {
        if (next[static_cast<size_t>(i)]) t |= 1ull << i;
      }
      predecessors[t].insert(s);
    }
  }
  std::set<uint64_t> reached = target;
  std::set<uint64_t> frontier = target;
  for (int d = 0; d < maxDepth && !frontier.empty(); ++d) {
    std::set<uint64_t> next;
    for (uint64_t t : frontier) {
      for (uint64_t p : predecessors[t]) {
        if (!reached.count(p)) next.insert(p);
      }
    }
    reached.insert(next.begin(), next.end());
    if (layers != nullptr) layers->push_back(next.size());
    frontier = std::move(next);
  }
  return reached;
}

std::set<uint64_t> toMinterms(const StateSet& set) {
  std::set<uint64_t> result;
  for (uint64_t s = 0; s < (1ull << set.numStateBits); ++s) {
    std::vector<bool> state(static_cast<size_t>(set.numStateBits));
    for (int i = 0; i < set.numStateBits; ++i) state[static_cast<size_t>(i)] = (s >> i) & 1;
    if (set.contains(state)) result.insert(s);
  }
  return result;
}

TEST(Reachability, CounterBackwardFromZero) {
  // Backward reachability from state 0: depth k adds state 2^n - k (counting
  // down predecessors) while every state self-loops with en=0.
  Netlist nl = makeCounter(4);
  TransitionSystem ts(nl);
  StateSet target = StateSet::fromMinterm(4, 0);
  ReachabilityResult r =
      backwardReach(ts, target, 3, PreimageMethod::kSuccessDriven);
  ASSERT_EQ(r.steps.size(), 3u);
  EXPECT_EQ(r.steps[0].totalStates.toU64(), 2u);  // {0, 15}
  EXPECT_EQ(r.steps[1].totalStates.toU64(), 3u);  // + {14}
  EXPECT_EQ(r.steps[2].totalStates.toU64(), 4u);  // + {13}
  EXPECT_EQ(r.steps[2].newStates.toU64(), 1u);
  EXPECT_FALSE(r.fixpoint);
}

TEST(Reachability, CounterClosesAtFullDepth) {
  Netlist nl = makeCounter(3);
  TransitionSystem ts(nl);
  StateSet target = StateSet::fromMinterm(3, 0);
  ReachabilityResult r = backwardReach(ts, target, 20, PreimageMethod::kBdd);
  EXPECT_TRUE(r.fixpoint);
  // 7 productive steps close the 8-state ring, plus one empty step that
  // certifies the fixpoint.
  EXPECT_EQ(r.steps.size(), 8u);
  EXPECT_EQ(r.steps.back().newStates.toU64(), 0u);
  EXPECT_EQ(toMinterms(r.reached).size(), 8u);
}

TEST(Reachability, FixpointOnClosedSet) {
  // The whole space is trivially closed under preimage.
  Netlist nl = makeCounter(3);
  TransitionSystem ts(nl);
  ReachabilityResult r = backwardReach(ts, StateSet::all(3), 5, PreimageMethod::kBdd);
  EXPECT_TRUE(r.fixpoint);
  ASSERT_GE(r.steps.size(), 1u);
  EXPECT_EQ(r.steps[0].newStates.toU64(), 0u);
}

class ReachabilityFuzz : public ::testing::TestWithParam<int> {};

TEST_P(ReachabilityFuzz, MatchesExplicitBfs) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 211 + 3);
  for (int iter = 0; iter < 6; ++iter) {
    RandomCircuitParams params;
    params.seed = rng.next();
    params.numInputs = 2;
    params.numDffs = static_cast<int>(rng.range(2, 4));
    params.numGates = static_cast<int>(rng.range(10, 30));
    Netlist nl = makeRandomSequential(params);
    TransitionSystem ts(nl);

    uint64_t targetState = rng.below(1ull << ts.numStateBits());
    StateSet target = StateSet::fromMinterm(ts.numStateBits(), targetState);
    int depth = static_cast<int>(rng.range(1, 4));
    std::vector<size_t> layers;
    std::set<uint64_t> expected = bfsBackward(ts, {targetState}, depth, &layers);

    for (PreimageMethod method : kAllPreimageMethods) {
      const std::string where = std::string(preimageMethodName(method)) + " group " +
                                std::to_string(GetParam()) + " iter " +
                                std::to_string(iter) + " depth " + std::to_string(depth);
      ReachabilityResult r = backwardReach(ts, target, depth, method);
      EXPECT_EQ(toMinterms(r.reached), expected) << where;
      // One step per BFS layer, each discovering exactly that layer.
      ASSERT_EQ(r.steps.size(), layers.size()) << where;
      for (size_t i = 0; i < layers.size(); ++i) {
        EXPECT_EQ(r.steps[i].newStates.toU64(), layers[i]) << where << " step " << i + 1;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReachabilityFuzz, ::testing::Range(0, 6));

TEST(Reachability, S27FullBackwardClosure) {
  Netlist nl = makeS27();
  TransitionSystem ts(nl);
  StateSet target = StateSet::fromMinterm(3, 0b000);
  ReachabilityResult sat = backwardReach(ts, target, 10, PreimageMethod::kSuccessDriven);
  ReachabilityResult bdd = backwardReach(ts, target, 10, PreimageMethod::kBdd);
  EXPECT_TRUE(sameStates(sat.reached, bdd.reached));
  EXPECT_EQ(sat.fixpoint, bdd.fixpoint);
  std::set<uint64_t> expected = bfsBackward(ts, {0}, 10);
  EXPECT_EQ(toMinterms(sat.reached), expected);
}

TEST(Reachability, StepsRecordMonotoneTotals) {
  Netlist nl = makeTrafficLight();
  TransitionSystem ts(nl);
  StateSet target = StateSet::fromCube(4, {mkLit(0), mkLit(1)});  // farm yellow
  ReachabilityResult r = backwardReach(ts, target, 6, PreimageMethod::kCubeBlockingLifted);
  BigUint prev(0);
  for (const ReachabilityStep& step : r.steps) {
    EXPECT_GE(step.totalStates, prev);
    prev = step.totalStates;
  }
}

TEST(Reachability, FrontierIsTheIntervalIsop) {
  // A step queries isop(fresh, reached) wherever it has fewer cubes than
  // fresh's BDD paths. On this LFSR the 13 steps to the fixpoint query 34
  // cubes in all; the BDD paths of the same frontiers are 59 cubes. The
  // figure is the same for every engine: the sweep's set algebra alone
  // picks the cubes.
  Netlist nl = makeLfsr(8);
  TransitionSystem ts(nl);
  StateSet target = StateSet::fromCube(8, {mkLit(0), ~mkLit(3)});
  for (PreimageMethod method : kAllPreimageMethods) {
    ReachabilityResult r = backwardReach(ts, target, 300, method);
    EXPECT_TRUE(r.fixpoint) << preimageMethodName(method);
    EXPECT_EQ(r.steps.size(), 13u) << preimageMethodName(method);
    size_t cubes = 0;
    for (const ReachabilityStep& step : r.steps) cubes += step.frontierCubes;
    EXPECT_EQ(cubes, 34u) << preimageMethodName(method);
  }
}

TEST(Reachability, SingleStateFrontiersAreQueriedExactly) {
  // Swept back from 0, every frontier of a counter is one state. Its ISOP
  // over [fresh, reached] is one cube too, but a wider one that also covers
  // reached states, so the sweep queries the state itself: minterm blocking
  // then finds exactly its two predecessors (itself with the enable low,
  // and the state before it).
  Netlist nl = makeCounter(4);
  TransitionSystem ts(nl);
  ReachabilityResult r =
      backwardReach(ts, StateSet::fromMinterm(4, 0), 6, PreimageMethod::kMintermBlocking);
  ASSERT_EQ(r.steps.size(), 6u);
  for (const ReachabilityStep& step : r.steps) {
    EXPECT_EQ(step.frontierCubes, 1u) << "depth " << step.depth;
    EXPECT_EQ(step.stats.blockingClauses, 2u) << "depth " << step.depth;
  }
}

}  // namespace
}  // namespace presat
