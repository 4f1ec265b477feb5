// Preimage engine tests: every method must compute the identical state
// set, checked against each other and against explicit transition-relation
// enumeration.
#include <gtest/gtest.h>

#include <set>

#include "base/rng.hpp"
#include "bdd/bdd.hpp"
#include "gen/generators.hpp"
#include "gen/iscas.hpp"
#include "gen/random_circuit.hpp"
#include "preimage/bdd_preimage.hpp"
#include "preimage/preimage.hpp"
#include "preimage/target.hpp"
#include "preimage/transition_system.hpp"

namespace presat {
namespace {

// Reference: enumerate all (state, input) pairs, collect states that step
// into the target.
std::set<uint64_t> bruteForcePreimage(const TransitionSystem& ts, const StateSet& target) {
  int n = ts.numStateBits();
  int m = ts.numInputs();
  EXPECT_LE(n + m, 20);
  std::set<uint64_t> result;
  for (uint64_t s = 0; s < (1ull << n); ++s) {
    std::vector<bool> state(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) state[static_cast<size_t>(i)] = (s >> i) & 1;
    for (uint64_t x = 0; x < (1ull << m); ++x) {
      std::vector<bool> inputs(static_cast<size_t>(m));
      for (int i = 0; i < m; ++i) inputs[static_cast<size_t>(i)] = (x >> i) & 1;
      if (target.contains(ts.step(state, inputs))) {
        result.insert(s);
        break;
      }
    }
  }
  return result;
}

std::set<uint64_t> stateSetMinterms(const StateSet& set) {
  EXPECT_LE(set.numStateBits, 20);
  std::set<uint64_t> result;
  for (uint64_t s = 0; s < (1ull << set.numStateBits); ++s) {
    std::vector<bool> state(static_cast<size_t>(set.numStateBits));
    for (int i = 0; i < set.numStateBits; ++i) state[static_cast<size_t>(i)] = (s >> i) & 1;
    if (set.contains(state)) result.insert(s);
  }
  return result;
}

TEST(StateSet, Basics) {
  StateSet s = StateSet::fromMinterm(3, 0b101);
  EXPECT_EQ(s.countStates().toU64(), 1u);
  EXPECT_TRUE(s.contains({true, false, true}));
  EXPECT_FALSE(s.contains({true, true, true}));
  StateSet all = StateSet::all(3);
  EXPECT_EQ(all.countStates().toU64(), 8u);
  StateSet none = StateSet::none(3);
  EXPECT_TRUE(none.empty());
  EXPECT_EQ(none.toString(), "0");
  EXPECT_TRUE(sameStates(all, StateSet::fromCube(3, {})));
  EXPECT_FALSE(sameStates(all, s));
}

TEST(TransitionSystem, CounterSteps) {
  Netlist nl = makeCounter(4);
  TransitionSystem ts(nl);
  EXPECT_EQ(ts.numStateBits(), 4);
  EXPECT_EQ(ts.numInputs(), 1);
  // 0101 + en -> 0110 (state vector is LSB-first).
  std::vector<bool> next = ts.step({true, false, true, false}, {true});
  EXPECT_EQ(next, (std::vector<bool>{false, true, true, false}));
  // Disabled: hold.
  next = ts.step({true, false, true, false}, {false});
  EXPECT_EQ(next, (std::vector<bool>{true, false, true, false}));
  // Wraparound.
  next = ts.step({true, true, true, true}, {true});
  EXPECT_EQ(next, (std::vector<bool>{false, false, false, false}));
}

TEST(Preimage, CounterSingleStateAllMethods) {
  Netlist nl = makeCounter(4);
  TransitionSystem ts(nl);
  // Preimage of state 6: {5 (count up), 6 (hold)}.
  StateSet target = StateSet::fromMinterm(4, 6);
  for (PreimageMethod method : kAllPreimageMethods) {
    PreimageResult r = computePreimage(ts, target, method);
    EXPECT_TRUE(r.complete);
    EXPECT_EQ(r.stateCount.toU64(), 2u) << preimageMethodName(method);
    EXPECT_EQ(stateSetMinterms(r.states), (std::set<uint64_t>{5, 6}))
        << preimageMethodName(method);
  }
}

TEST(Preimage, CounterWrapState) {
  Netlist nl = makeCounter(3);
  TransitionSystem ts(nl);
  StateSet target = StateSet::fromMinterm(3, 0);
  PreimageResult r = computePreimage(ts, target, PreimageMethod::kSuccessDriven);
  EXPECT_EQ(stateSetMinterms(r.states), (std::set<uint64_t>{7, 0}));
}

TEST(Preimage, EmptyTargetGivesEmptyPreimage) {
  Netlist nl = makeCounter(3);
  TransitionSystem ts(nl);
  StateSet target = StateSet::none(3);
  for (PreimageMethod method : kAllPreimageMethods) {
    PreimageResult r = computePreimage(ts, target, method);
    EXPECT_TRUE(r.states.empty()) << preimageMethodName(method);
    EXPECT_TRUE(r.stateCount.isZero()) << preimageMethodName(method);
  }
}

TEST(Preimage, FullTargetGivesFullPreimage) {
  Netlist nl = makeCounter(3);
  TransitionSystem ts(nl);
  StateSet target = StateSet::all(3);
  for (PreimageMethod method : kAllPreimageMethods) {
    PreimageResult r = computePreimage(ts, target, method);
    EXPECT_EQ(r.stateCount.toU64(), 8u) << preimageMethodName(method);
  }
}

TEST(Preimage, MultiCubeTarget) {
  Netlist nl = makeCounter(4);
  TransitionSystem ts(nl);
  StateSet target;
  target.numStateBits = 4;
  target.cubes.push_back({mkLit(0), mkLit(1)});    // next in {3, 7, 11, 15}
  target.cubes.push_back({~mkLit(2), ~mkLit(3)});  // next in {0, 1, 2, 3}
  std::set<uint64_t> expected = bruteForcePreimage(ts, target);
  for (PreimageMethod method : kAllPreimageMethods) {
    PreimageResult r = computePreimage(ts, target, method);
    EXPECT_EQ(stateSetMinterms(r.states), expected) << preimageMethodName(method);
    EXPECT_EQ(r.stateCount.toU64(), expected.size()) << preimageMethodName(method);
  }
}

TEST(Preimage, S27AllMethodsAgree) {
  Netlist nl = makeS27();
  TransitionSystem ts(nl);
  Rng rng(107);
  for (int trial = 0; trial < 12; ++trial) {
    LitVec cube;
    for (int i = 0; i < 3; ++i) {
      if (rng.chance(2, 3)) cube.push_back(mkLit(static_cast<Var>(i), rng.flip()));
    }
    StateSet target = StateSet::fromCube(3, cube);
    std::set<uint64_t> expected = bruteForcePreimage(ts, target);
    for (PreimageMethod method : kAllPreimageMethods) {
      PreimageResult r = computePreimage(ts, target, method);
      ASSERT_TRUE(r.complete);
      EXPECT_EQ(stateSetMinterms(r.states), expected)
          << preimageMethodName(method) << " trial " << trial;
      EXPECT_EQ(r.stateCount.toU64(), expected.size()) << preimageMethodName(method);
    }
  }
}

class PreimageFuzz : public ::testing::TestWithParam<int> {};

TEST_P(PreimageFuzz, AllMethodsMatchBruteForce) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 53 + 29);
  for (int iter = 0; iter < 10; ++iter) {
    RandomCircuitParams params;
    params.seed = rng.next();
    params.numInputs = static_cast<int>(rng.range(1, 3));
    params.numDffs = static_cast<int>(rng.range(2, 5));
    params.numGates = static_cast<int>(rng.range(10, 35));
    Netlist nl = makeRandomSequential(params);
    TransitionSystem ts(nl);

    LitVec cube;
    for (int i = 0; i < ts.numStateBits(); ++i) {
      if (rng.chance(1, 2)) cube.push_back(mkLit(static_cast<Var>(i), rng.flip()));
    }
    StateSet target = StateSet::fromCube(ts.numStateBits(), cube);
    std::set<uint64_t> expected = bruteForcePreimage(ts, target);
    for (PreimageMethod method : kAllPreimageMethods) {
      PreimageResult r = computePreimage(ts, target, method);
      ASSERT_TRUE(r.complete);
      ASSERT_EQ(stateSetMinterms(r.states), expected)
          << preimageMethodName(method) << " group " << GetParam() << " iter " << iter;
      EXPECT_EQ(r.stateCount.toU64(), expected.size());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PreimageFuzz, ::testing::Range(0, 8));

// MUX-heavy circuits (the random generator emits none): LFSRs exercise the
// engines' MUX justification/encoding paths with random targets.
TEST(Preimage, LfsrRandomTargetsAllMethods) {
  Netlist nl = makeLfsr(6);
  TransitionSystem ts(nl);
  Rng rng(907);
  for (int trial = 0; trial < 10; ++trial) {
    LitVec cube;
    for (int i = 0; i < 6; ++i) {
      if (rng.chance(1, 2)) cube.push_back(mkLit(static_cast<Var>(i), rng.flip()));
    }
    StateSet target = StateSet::fromCube(6, cube);
    std::set<uint64_t> expected = bruteForcePreimage(ts, target);
    for (PreimageMethod method : kAllPreimageMethods) {
      PreimageResult r = computePreimage(ts, target, method);
      ASSERT_EQ(stateSetMinterms(r.states), expected)
          << preimageMethodName(method) << " trial " << trial;
    }
  }
}

TEST(Preimage, MultiCubeTargetsOnTrafficLight) {
  Netlist nl = makeTrafficLight();
  TransitionSystem ts(nl);
  Rng rng(911);
  for (int trial = 0; trial < 8; ++trial) {
    StateSet target;
    target.numStateBits = 4;
    int numCubes = static_cast<int>(rng.range(2, 4));
    for (int c = 0; c < numCubes; ++c) {
      LitVec cube;
      for (int i = 0; i < 4; ++i) {
        if (rng.chance(1, 2)) cube.push_back(mkLit(static_cast<Var>(i), rng.flip()));
      }
      target.cubes.push_back(std::move(cube));
    }
    std::set<uint64_t> expected = bruteForcePreimage(ts, target);
    for (PreimageMethod method : kAllPreimageMethods) {
      PreimageResult r = computePreimage(ts, target, method);
      ASSERT_EQ(stateSetMinterms(r.states), expected)
          << preimageMethodName(method) << " trial " << trial;
      EXPECT_EQ(r.stateCount.toU64(), expected.size());
    }
  }
}

TEST(Preimage, ArbiterOneHotTarget) {
  Netlist nl = makeRoundRobinArbiter(3);
  TransitionSystem ts(nl);
  // Target: pointer at client 0 (one-hot 001).
  StateSet target = StateSet::fromMinterm(3, 0b001);
  std::set<uint64_t> expected = bruteForcePreimage(ts, target);
  for (PreimageMethod method : kAllPreimageMethods) {
    PreimageResult r = computePreimage(ts, target, method);
    EXPECT_EQ(stateSetMinterms(r.states), expected) << preimageMethodName(method);
  }
}

TEST(Preimage, TrafficLightStateChange) {
  Netlist nl = makeTrafficLight();
  TransitionSystem ts(nl);
  // Target: highway yellow (s1=0, s0=1) with timer reset (t1=t0=0).
  // State order: s1, s0, t1, t0 (DFF creation order).
  StateSet target = StateSet::fromCube(4, {~mkLit(0), mkLit(1), ~mkLit(2), ~mkLit(3)});
  std::set<uint64_t> expected = bruteForcePreimage(ts, target);
  EXPECT_FALSE(expected.empty());
  for (PreimageMethod method : kAllPreimageMethods) {
    PreimageResult r = computePreimage(ts, target, method);
    EXPECT_EQ(stateSetMinterms(r.states), expected) << preimageMethodName(method);
  }
}

TEST(BddTransition, DeltaFunctionsMatchSimulation) {
  Netlist nl = makeS27();
  TransitionSystem ts(nl);
  BddTransition transition(ts);
  BddManager& mgr = transition.manager();
  Rng rng(113);
  for (int trial = 0; trial < 100; ++trial) {
    std::vector<bool> state(3), inputs(4);
    uint64_t bits = rng.next();
    for (int i = 0; i < 3; ++i) state[static_cast<size_t>(i)] = (bits >> i) & 1;
    for (int i = 0; i < 4; ++i) inputs[static_cast<size_t>(i)] = (bits >> (3 + i)) & 1;
    std::vector<bool> next = ts.step(state, inputs);
    for (int i = 0; i < 3; ++i) {
      BddRef f = transition.delta(i);
      // Evaluate the BDD under (state, inputs).
      while (!mgr.isConstant(f)) {
        Var v = mgr.topVar(f);
        bool val = v < 3 ? state[static_cast<size_t>(v)] : inputs[static_cast<size_t>(v - 3)];
        f = val ? mgr.high(f) : mgr.low(f);
      }
      EXPECT_EQ(f == BddManager::kTrue, next[static_cast<size_t>(i)]);
    }
  }
}

TEST(Preimage, PresimplifyGivesIdenticalResults) {
  Rng rng(503);
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    RandomCircuitParams params;
    params.seed = seed * 1001;
    params.numInputs = 3;
    params.numDffs = 4;
    params.numGates = 40;
    Netlist nl = makeRandomSequential(params);
    TransitionSystem ts(nl);
    LitVec cube;
    for (int i = 0; i < 4; ++i) {
      if (rng.chance(1, 2)) cube.push_back(mkLit(static_cast<Var>(i), rng.flip()));
    }
    StateSet target = StateSet::fromCube(4, cube);
    PreimageOptions plain;
    PreimageOptions swept;
    swept.presimplify = true;
    for (PreimageMethod method :
         {PreimageMethod::kSuccessDriven, PreimageMethod::kCubeBlockingLifted,
          PreimageMethod::kBdd}) {
      PreimageResult a = computePreimage(ts, target, method, plain);
      PreimageResult b = computePreimage(ts, target, method, swept);
      EXPECT_EQ(a.stateCount, b.stateCount) << preimageMethodName(method) << " seed " << seed;
      EXPECT_TRUE(sameStates(a.states, b.states)) << preimageMethodName(method);
    }
  }
}

TEST(Preimage, SuccessDrivenReportsGraphs) {
  Netlist nl = makeCounter(6);
  TransitionSystem ts(nl);
  StateSet target = StateSet::fromMinterm(6, 33);
  PreimageResult r = computePreimage(ts, target, PreimageMethod::kSuccessDriven);
  ASSERT_EQ(r.graph.numRoots(), 1u);
  EXPECT_GT(r.stats.graphNodes, 0u);
  EXPECT_EQ(r.graph.countPaths().toU64(), r.states.cubes.size());

  // A multi-cube target: one root per cube, in target order, over one node
  // array.
  StateSet multi = StateSet::fromMinterm(6, 33);
  multi.cubes.push_back(StateSet::fromMinterm(6, 12).cubes[0]);
  multi.cubes.push_back({mkLit(5)});
  PreimageResult m = computePreimage(ts, multi, PreimageMethod::kSuccessDriven);
  ASSERT_EQ(m.graph.numRoots(), 3u);
  EXPECT_EQ(m.stats.graphNodes, m.graph.numNodes());
  EXPECT_EQ(m.graph.countPaths().toU64(), m.states.cubes.size());
  BddManager mgr(6);
  EXPECT_EQ(mgr.satCount(m.graph.toBdd(mgr)), m.stateCount);

  // The parallel path appends one merged cube-and-conquer graph per cube.
  PreimageOptions jobs;
  jobs.allsat.parallel.jobs = 2;
  PreimageResult p = computePreimage(ts, multi, PreimageMethod::kSuccessDriven, jobs);
  ASSERT_EQ(p.graph.numRoots(), 3u);
  EXPECT_EQ(p.graph.countPaths().toU64(), p.states.cubes.size());
  EXPECT_EQ(p.stateCount, m.stateCount);
}

}  // namespace
}  // namespace presat
