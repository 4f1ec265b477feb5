// Safety checking and BMC: backward fixpoint and forward time-frame
// expansion, two independent reachability engines that must agree with each
// other and with explicit state-graph search.
#include <gtest/gtest.h>

#include <queue>
#include <set>
#include <string>
#include <tuple>

#include "base/rng.hpp"
#include "gen/generators.hpp"
#include "gen/iscas.hpp"
#include "gen/random_circuit.hpp"
#include "preimage/bmc.hpp"
#include "preimage/safety.hpp"

namespace presat {
namespace {

uint64_t toBits(const std::vector<bool>& v) {
  uint64_t bits = 0;
  for (size_t i = 0; i < v.size(); ++i) {
    if (v[i]) bits |= 1ull << i;
  }
  return bits;
}

// Explicit forward BFS distance from any init state to any target state;
// -1 if unreachable.
int bfsDistance(const TransitionSystem& ts, const StateSet& init, const StateSet& target) {
  int n = ts.numStateBits();
  int m = ts.numInputs();
  EXPECT_LE(n + m, 18);
  std::queue<std::pair<uint64_t, int>> queue;
  std::set<uint64_t> seen;
  for (uint64_t s = 0; s < (1ull << n); ++s) {
    std::vector<bool> state(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) state[static_cast<size_t>(i)] = (s >> i) & 1;
    if (init.contains(state)) {
      queue.push({s, 0});
      seen.insert(s);
    }
  }
  while (!queue.empty()) {
    auto [s, d] = queue.front();
    queue.pop();
    std::vector<bool> state(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) state[static_cast<size_t>(i)] = (s >> i) & 1;
    if (target.contains(state)) return d;
    for (uint64_t x = 0; x < (1ull << m); ++x) {
      std::vector<bool> inputs(static_cast<size_t>(m));
      for (int i = 0; i < m; ++i) inputs[static_cast<size_t>(i)] = (x >> i) & 1;
      uint64_t t = toBits(ts.step(state, inputs));
      if (seen.insert(t).second) queue.push({t, d + 1});
    }
  }
  return -1;
}

void expectValidTrace(const TransitionSystem& ts, const StateSet& init, const StateSet& target,
                      const std::vector<std::vector<bool>>& states,
                      const std::vector<std::vector<bool>>& inputs) {
  ASSERT_FALSE(states.empty());
  ASSERT_EQ(states.size(), inputs.size() + 1);
  EXPECT_TRUE(init.contains(states.front()));
  EXPECT_TRUE(target.contains(states.back()));
  for (size_t t = 0; t < inputs.size(); ++t) {
    EXPECT_EQ(ts.step(states[t], inputs[t]), states[t + 1]) << "transition " << t;
  }
}

// --- BMC ----------------------------------------------------------------------

TEST(Bmc, CounterMinimalDepth) {
  Netlist nl = makeCounter(4);
  TransitionSystem ts(nl);
  // 3 -> 4 -> 5 -> 6 -> 7 and 2 -> 3 -> 4 -> 5 -> 6, each under a bound
  // with frames to spare.
  for (auto [from, to, bound] : {std::tuple{3u, 7u, 10}, std::tuple{2u, 6u, 8}}) {
    StateSet init = StateSet::fromMinterm(4, from);
    StateSet target = StateSet::fromMinterm(4, to);
    BmcResult r = boundedReach(ts, init, target, bound);
    ASSERT_TRUE(r.reachable) << from << " -> " << to;
    EXPECT_EQ(r.depth, 4);
    EXPECT_EQ(r.satCalls, 5u);
    expectValidTrace(ts, init, target, r.traceStates, r.traceInputs);
  }
}

TEST(Bmc, TargetEqualsInitIsDepthZero) {
  Netlist nl = makeCounter(3);
  TransitionSystem ts(nl);
  BmcResult r = boundedReach(ts, StateSet::fromMinterm(3, 5), StateSet::fromMinterm(3, 5), 4);
  ASSERT_TRUE(r.reachable);
  EXPECT_EQ(r.depth, 0);
  EXPECT_EQ(r.traceStates.size(), 1u);
}

TEST(Bmc, DepthZeroHitIgnoresTheBound) {
  // Frames are added one depth at a time, so a hit at depth 0 costs one
  // frame and one SAT call however deep the bound reaches.
  Netlist nl = makeCounter(2);
  TransitionSystem ts(nl);
  StateSet init = StateSet::fromMinterm(2, 0);
  StateSet target = StateSet::fromCube(2, {~mkLit(0)});
  BmcResult r = boundedReach(ts, init, target, 100000);
  ASSERT_TRUE(r.reachable);
  EXPECT_EQ(r.depth, 0);
  EXPECT_EQ(r.satCalls, 1u);
  expectValidTrace(ts, init, target, r.traceStates, r.traceInputs);
}

TEST(Bmc, UnreachableWithinBound) {
  Netlist nl = makeCounter(4);
  TransitionSystem ts(nl);
  // Counting from 0 to 12 needs 12 steps; bound of 5 must fail.
  BmcResult r = boundedReach(ts, StateSet::fromMinterm(4, 0), StateSet::fromMinterm(4, 12), 5);
  EXPECT_FALSE(r.reachable);
  EXPECT_EQ(r.satCalls, 6u);
}

class BmcFuzz : public ::testing::TestWithParam<int> {};

TEST_P(BmcFuzz, DepthMatchesExplicitBfs) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 307 + 17);
  for (int iter = 0; iter < 6; ++iter) {
    RandomCircuitParams params;
    params.seed = rng.next();
    params.numInputs = 2;
    params.numDffs = static_cast<int>(rng.range(2, 4));
    params.numGates = static_cast<int>(rng.range(10, 30));
    Netlist nl = makeRandomSequential(params);
    TransitionSystem ts(nl);
    int n = ts.numStateBits();
    StateSet init = StateSet::fromMinterm(n, rng.below(1ull << n));
    StateSet target = StateSet::fromMinterm(n, rng.below(1ull << n));
    int expected = bfsDistance(ts, init, target);
    const int bound = 8;
    BmcResult r = boundedReach(ts, init, target, bound);
    if (expected >= 0 && expected <= bound) {
      ASSERT_TRUE(r.reachable) << "group " << GetParam() << " iter " << iter;
      EXPECT_EQ(r.depth, expected);
      expectValidTrace(ts, init, target, r.traceStates, r.traceInputs);
    } else {
      EXPECT_FALSE(r.reachable);
    }
  }
}

TEST_P(BmcFuzz, ThreeBitCircuitsMatchExplicitBfs) {
  Rng rng(401 + static_cast<uint64_t>(GetParam()));
  for (int iter = 0; iter < 2; ++iter) {
    RandomCircuitParams params;
    params.seed = rng.next();
    params.numInputs = 2;
    params.numDffs = 3;
    params.numGates = static_cast<int>(rng.range(10, 25));
    Netlist nl = makeRandomSequential(params);
    TransitionSystem ts(nl);
    StateSet init = StateSet::fromMinterm(3, rng.below(8));
    StateSet target = StateSet::fromMinterm(3, rng.below(8));
    int expected = bfsDistance(ts, init, target);
    const int bound = 6;
    BmcResult r = boundedReach(ts, init, target, bound);
    ASSERT_EQ(r.reachable, expected >= 0 && expected <= bound)
        << "group " << GetParam() << " iter " << iter;
    if (r.reachable) {
      EXPECT_EQ(r.depth, expected);
      expectValidTrace(ts, init, target, r.traceStates, r.traceInputs);
    } else {
      EXPECT_EQ(r.satCalls, static_cast<uint64_t>(bound) + 1);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BmcFuzz, ::testing::Range(0, 6));

// --- safety -------------------------------------------------------------------

TEST(Safety, CounterCanOverflow) {
  Netlist nl = makeCounter(4);
  TransitionSystem ts(nl);
  // "The counter never wraps to 0 from 15" — false, with a 15-step cex from 1.
  SafetyResult r = checkSafety(ts, StateSet::fromMinterm(4, 1), StateSet::fromMinterm(4, 0));
  EXPECT_EQ(r.status, SafetyStatus::kUnsafe);
  EXPECT_EQ(r.depth, 15);
  expectValidTrace(ts, StateSet::fromMinterm(4, 1), StateSet::fromMinterm(4, 0), r.traceStates,
                   r.traceInputs);
}

TEST(Safety, ShiftRegisterSafeProperty) {
  // A shift register never reaches 1111 from 0000 without feeding ones; with
  // input free it's reachable, so pick a truly safe property: the arbiter's
  // one-hot pointer never becomes all-zero.
  Netlist nl = makeRoundRobinArbiter(3);
  TransitionSystem ts(nl);
  StateSet init = StateSet::fromMinterm(3, 0b001);
  StateSet bad = StateSet::fromMinterm(3, 0b000);
  SafetyResult r = checkSafety(ts, init, bad);
  EXPECT_EQ(r.status, SafetyStatus::kSafe);
  EXPECT_TRUE(r.traceStates.empty());
}

TEST(Safety, DepthBoundYieldsUnknown) {
  Netlist nl = makeCounter(6);
  TransitionSystem ts(nl);
  SafetyOptions options;
  options.maxDepth = 3;
  SafetyResult r = checkSafety(ts, StateSet::fromMinterm(6, 0), StateSet::fromMinterm(6, 32),
                               options);
  EXPECT_EQ(r.status, SafetyStatus::kUnknown);
}

TEST(Safety, AgreesWithBmcOnS27) {
  Netlist nl = makeS27();
  TransitionSystem ts(nl);
  Rng rng(131);
  for (int trial = 0; trial < 10; ++trial) {
    StateSet init = StateSet::fromMinterm(3, rng.below(8));
    StateSet bad = StateSet::fromMinterm(3, rng.below(8));
    SafetyResult safety = checkSafety(ts, init, bad);
    BmcResult bmc = boundedReach(ts, init, bad, 10);
    if (safety.status == SafetyStatus::kUnsafe) {
      ASSERT_TRUE(bmc.reachable) << "trial " << trial;
      EXPECT_EQ(bmc.depth, safety.depth) << "trial " << trial;
      expectValidTrace(ts, init, bad, safety.traceStates, safety.traceInputs);
    } else {
      EXPECT_EQ(safety.status, SafetyStatus::kSafe);
      EXPECT_FALSE(bmc.reachable);
    }
  }
}

class SafetyMethodSweep : public ::testing::TestWithParam<PreimageMethod> {};

TEST_P(SafetyMethodSweep, SameVerdictEveryEngine) {
  Netlist nl = makeTrafficLight();
  TransitionSystem ts(nl);
  StateSet init = StateSet::fromMinterm(4, 0);  // highway green, timer 0
  StateSet farmGreen = StateSet::fromCube(4, {mkLit(0), ~mkLit(1)});
  SafetyOptions options;
  options.method = GetParam();
  SafetyResult r = checkSafety(ts, init, farmGreen, options);
  // The farm light eventually turns green when cars arrive: UNSAFE, and the
  // minimal trace passes HG -> HY -> FG with full timer waits.
  EXPECT_EQ(r.status, SafetyStatus::kUnsafe);
  EXPECT_EQ(r.depth, 8);
  expectValidTrace(ts, init, farmGreen, r.traceStates, r.traceInputs);
}

INSTANTIATE_TEST_SUITE_P(Methods, SafetyMethodSweep,
                         ::testing::ValuesIn(kAllPreimageMethods),
                         [](const ::testing::TestParamInfo<PreimageMethod>& info) {
                           std::string name = preimageMethodName(info.param);
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

// On BmcFuzz's random circuits every engine's verdict and depth must match
// explicit forward search from the initial state, and every UNSAFE trace
// must replay.
class SafetyFuzz : public ::testing::TestWithParam<int> {};

TEST_P(SafetyFuzz, VerdictMatchesExplicitBfsEveryEngine) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 307 + 17);
  for (int iter = 0; iter < 6; ++iter) {
    RandomCircuitParams params;
    params.seed = rng.next();
    params.numInputs = 2;
    params.numDffs = static_cast<int>(rng.range(2, 4));
    params.numGates = static_cast<int>(rng.range(10, 30));
    Netlist nl = makeRandomSequential(params);
    TransitionSystem ts(nl);
    int n = ts.numStateBits();
    StateSet init = StateSet::fromMinterm(n, rng.below(1ull << n));
    StateSet bad = StateSet::fromMinterm(n, rng.below(1ull << n));
    int expected = bfsDistance(ts, init, bad);
    for (PreimageMethod method : kAllPreimageMethods) {
      SafetyOptions options;
      options.method = method;
      SafetyResult r = checkSafety(ts, init, bad, options);
      SCOPED_TRACE(std::string(preimageMethodName(method)) + " group " +
                   std::to_string(GetParam()) + " iter " + std::to_string(iter));
      if (expected >= 0) {
        ASSERT_EQ(r.status, SafetyStatus::kUnsafe);
        EXPECT_EQ(r.depth, expected);
        expectValidTrace(ts, init, bad, r.traceStates, r.traceInputs);
      } else {
        EXPECT_EQ(r.status, SafetyStatus::kSafe);
        EXPECT_TRUE(r.traceStates.empty());
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SafetyFuzz, ::testing::Range(0, 6));

TEST(Safety, FindTransitionIntoWitness) {
  Netlist nl = makeCounter(4);
  TransitionSystem ts(nl);
  const CircuitEncoding enc = encodeTransition(ts);
  std::vector<bool> inputs, next;
  ASSERT_TRUE(findTransitionInto(ts, enc, {true, false, false, false},
                                 StateSet::fromMinterm(4, 2), &inputs, &next));
  EXPECT_EQ(inputs, std::vector<bool>{true});
  EXPECT_EQ(toBits(next), 2u);
  EXPECT_FALSE(findTransitionInto(ts, enc, {false, false, false, false},
                                  StateSet::fromMinterm(4, 9), &inputs, &next));
  // A union target and the empty set go through the same encoding.
  StateSet twoOrNine = StateSet::fromMinterm(4, 2);
  twoOrNine.cubes.push_back(StateSet::fromMinterm(4, 9).cubes[0]);
  ASSERT_TRUE(findTransitionInto(ts, enc, {true, false, false, false}, twoOrNine, &inputs, &next));
  EXPECT_EQ(toBits(next), 2u);
  EXPECT_FALSE(findTransitionInto(ts, enc, {true, false, false, false}, StateSet::none(4),
                                  &inputs, &next));
}

// --- combination lock (generator + end-to-end) ---------------------------------

TEST(CombinationLock, StepSemantics) {
  Netlist nl = makeCombinationLock({2, 1, 3}, 2);
  TransitionSystem ts(nl);
  ASSERT_EQ(ts.numStateBits(), 2);
  ASSERT_EQ(ts.numInputs(), 2);
  auto sym = [](int v) { return std::vector<bool>{(v & 1) != 0, (v & 2) != 0}; };
  std::vector<bool> s(2, false);  // progress 0
  s = ts.step(s, sym(2));
  EXPECT_EQ(toBits(s), 1u);  // correct first digit
  s = ts.step(s, sym(3));
  EXPECT_EQ(toBits(s), 0u);  // wrong digit resets
  s = ts.step(s, sym(2));
  s = ts.step(s, sym(1));
  s = ts.step(s, sym(3));
  EXPECT_EQ(toBits(s), 3u);  // open
  s = ts.step(s, sym(0));
  EXPECT_EQ(toBits(s), 3u);  // absorbing
}

TEST(CombinationLock, BackwardTraceRecoversSecret) {
  const std::vector<int> secret{1, 3, 0, 2};
  Netlist nl = makeCombinationLock(secret, 2);
  TransitionSystem ts(nl);
  int n = ts.numStateBits();
  StateSet locked = StateSet::fromMinterm(n, 0);
  StateSet open = StateSet::fromMinterm(n, secret.size());
  SafetyResult r = checkSafety(ts, locked, open);
  ASSERT_EQ(r.status, SafetyStatus::kUnsafe);
  ASSERT_EQ(r.depth, static_cast<int>(secret.size()));
  for (size_t i = 0; i < secret.size(); ++i) {
    int symbol = 0;
    for (size_t b = 0; b < r.traceInputs[i].size(); ++b) {
      if (r.traceInputs[i][b]) symbol |= 1 << b;
    }
    EXPECT_EQ(symbol, secret[i]) << "digit " << i;
  }
}

}  // namespace
}  // namespace presat
