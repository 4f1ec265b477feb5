// Preimage engine tests: every method must compute the identical state
// set, checked against each other and against explicit transition-relation
// enumeration.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <set>
#include <string>

#include "base/log.hpp"
#include "base/rng.hpp"
#include "bdd/bdd.hpp"
#include "check/audit_solution_graph.hpp"
#include "gen/generators.hpp"
#include "gen/iscas.hpp"
#include "gen/random_circuit.hpp"
#include "preimage/bdd_preimage.hpp"
#include "preimage/image.hpp"
#include "preimage/preimage.hpp"
#include "preimage/target.hpp"
#include "preimage/transition_system.hpp"
#include "test_util.hpp"
#include "../bench/bench_util.hpp"

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

// Logic outside the next-state cones takes no part in any transition, so the
// BDD engines do not build it: a dangling tree over every state and input
// bit leaves the covers, the counts and the manager size unchanged.
TEST(BddTransition, IgnoresLogicOutsideNextStateCones) {
  Netlist plain = makeCounter(6);
  Netlist padded = plain;
  std::vector<NodeId> sources = padded.dffs();
  sources.insert(sources.end(), padded.inputs().begin(), padded.inputs().end());
  NodeId parity = sources.front();
  NodeId mesh = sources.front();
  for (size_t i = 1; i < sources.size(); ++i) {
    parity = padded.mkXor(parity, sources[i]);
    mesh = padded.mkOr(padded.mkAnd(mesh, sources[i]), padded.mkAnd(padded.mkNot(mesh), parity));
  }
  padded.markOutput(padded.mkXor(parity, mesh), "dangling");

  TransitionSystem a(plain);
  TransitionSystem b(padded);
  const StateSet target = StateSet::fromCube(6, {mkLit(0), mkLit(3, true)});
  PreimageResult preA = computePreimage(a, target, PreimageMethod::kBdd);
  PreimageResult preB = computePreimage(b, target, PreimageMethod::kBdd);
  EXPECT_EQ(preA.states.cubes, preB.states.cubes);
  EXPECT_EQ(preA.stateCount, preB.stateCount);
  EXPECT_EQ(preA.metrics.counter("bdd.nodes"), preB.metrics.counter("bdd.nodes"));

  ImageResult imgA = computeImage(a, target, ImageMethod::kBdd);
  ImageResult imgB = computeImage(b, target, ImageMethod::kBdd);
  EXPECT_EQ(imgA.states.cubes, imgB.states.cubes);
  EXPECT_EQ(imgA.stateCount, imgB.stateCount);
}

// Every kBdd preimage and image cover on a seeded random corpus, folded into
// one FNV-1a digest pinned to the value the engines produced when the test
// was written. BDD covers are canonical in the variable order, so a change to
// the BDD any next-state function gets moves the digest. Re-pin it only for
// a change that is meant to alter what the symbolic engines produce. It was
// re-pinned when the covers became the ISOP of the BDD instead of its paths;
// each cover is asserted to be the ISOP of its own union, counted exactly.
TEST(Preimage, BddCoversMatchPinnedDigest) {
  uint64_t digest = 0xcbf29ce484222325ull;
  auto mix = [&digest](uint64_t word) {
    for (int i = 0; i < 8; ++i) {
      digest ^= (word >> (8 * i)) & 0xff;
      digest *= 0x100000001b3ull;
    }
  };
  auto mixCover = [&mix](const StateSet& states, const BigUint& count) {
    BddManager mgr(states.numStateBits);
    const BddRef set = cubesToBdd(mgr, states.cubes);
    EXPECT_EQ(states.cubes, mgr.isop(set, set));
    EXPECT_EQ(count, mgr.satCount(set));
    mix(states.cubes.size());
    for (const LitVec& cube : states.cubes) {
      mix(cube.size());
      for (Lit l : cube) mix(static_cast<uint32_t>(l.code()));
    }
    for (char c : count.toDecimal()) mix(static_cast<uint8_t>(c));
  };
  Rng rng(1901);
  for (int i = 0; i < 300; ++i) {
    RandomCircuitParams params;
    params.seed = rng.next();
    params.numInputs = static_cast<int>(rng.range(1, 4));
    params.numDffs = static_cast<int>(rng.range(3, 10));
    params.numGates = static_cast<int>(rng.range(20, 200));
    Netlist nl = makeRandomSequential(params);
    TransitionSystem ts(nl);
    LitVec cube;
    for (int b = 0; b < ts.numStateBits(); ++b) {
      if (rng.chance(1, 2)) cube.push_back(mkLit(static_cast<Var>(b), rng.flip()));
    }
    const StateSet target = StateSet::fromCube(ts.numStateBits(), cube);
    PreimageResult pre = computePreimage(ts, target, PreimageMethod::kBdd);
    ASSERT_TRUE(pre.complete) << "circuit " << i;
    mixCover(pre.states, pre.stateCount);
    ImageResult img = computeImage(ts, target, ImageMethod::kBdd);
    mixCover(img.states, img.stateCount);
  }
  EXPECT_EQ(digest, 0xc9192c409e36904aull) << std::hex << digest;
}

TEST(Preimage, SuccessDrivenReportsGraphs) {
  Netlist nl = makeCounter(6);
  TransitionSystem ts(nl);
  StateSet target = StateSet::fromMinterm(6, 33);
  PreimageResult r = computePreimage(ts, target, PreimageMethod::kSuccessDriven);
  ASSERT_EQ(r.graph.numRoots(), 1u);
  EXPECT_GT(r.stats.graphNodes, 0u);
  EXPECT_EQ(r.states.cubes, testutil::graphBddCover(r.graph, 6));

  // A multi-cube target: one root per cube, in target order, over one node
  // array.
  StateSet multi = StateSet::fromMinterm(6, 33);
  multi.cubes.push_back(StateSet::fromMinterm(6, 12).cubes[0]);
  multi.cubes.push_back({mkLit(5)});
  PreimageResult m = computePreimage(ts, multi, PreimageMethod::kSuccessDriven);
  ASSERT_EQ(m.graph.numRoots(), 3u);
  EXPECT_EQ(m.stats.graphNodes, m.graph.numNodes());
  EXPECT_EQ(m.states.cubes, testutil::graphBddCover(m.graph, 6));
  BddManager mgr(6);
  EXPECT_EQ(mgr.satCount(m.graph.toBdd(mgr)), m.stateCount);
}

// A generator suite for the cover-epilogue tests: one target each.
struct CapCase {
  Netlist nl;
  StateSet target;
};

std::vector<CapCase> capSuite() {
  std::vector<CapCase> cases;
  cases.push_back({makeCounter(5), StateSet::fromCube(5, {mkLit(4)})});
  cases.push_back({makeGrayCounter(5), StateSet::fromCube(5, {mkLit(0), mkLit(3, true)})});
  cases.push_back({makeLfsr(6), StateSet::fromCube(6, {mkLit(0), mkLit(2, true)})});
  cases.push_back({makeShiftRegister(6), StateSet::fromCube(6, {mkLit(5)})});
  cases.push_back({makeRoundRobinArbiter(3), StateSet::fromCube(3, {mkLit(0)})});
  cases.push_back({makeAccumulator(4), StateSet::fromCube(4, {mkLit(1, true), mkLit(3)})});
  cases.push_back({makeTrafficLight(), StateSet::all(4)});
  return cases;
}

// Every engine's cover leaves through finishCover, so the BDD engine honours
// maxCubes like the SAT engines: on lfsr:6 / 1x0xxx (3 ISOP cubes, 28 states)
// a cap of 2 returns the first two cubes with outcome cube-cap, counted as
// the 22 states they cover (the cubes overlap: their sizes sum to 24), for
// the BDD engine and success-driven alike.
TEST(Preimage, BddAndSuccessDrivenHonourTheCubeCap) {
  Netlist nl = makeLfsr(6);
  TransitionSystem ts(nl);
  const StateSet target = StateSet::fromCube(6, {mkLit(0), mkLit(2, true)});
  PreimageOptions capped;
  capped.allsat.maxCubes = 2;
  PreimageResult bdd = computePreimage(ts, target, PreimageMethod::kBdd, capped);
  PreimageResult sd = computePreimage(ts, target, PreimageMethod::kSuccessDriven, capped);
  PreimageResult all = computePreimage(ts, target, PreimageMethod::kBdd);
  ASSERT_EQ(all.states.cubes.size(), 3u);
  EXPECT_EQ(all.outcome, Outcome::kComplete);
  BddManager mgr(6);
  const BddRef set = cubesToBdd(mgr, all.states.cubes);
  EXPECT_EQ(all.states.cubes, mgr.isop(set, set));
  EXPECT_EQ(all.stateCount.toU64(), 28u);
  for (const PreimageResult* r : {&bdd, &sd}) {
    EXPECT_EQ(r->outcome, Outcome::kCubeCap);
    EXPECT_FALSE(r->complete);
    EXPECT_EQ(r->states.cubes,
              std::vector<LitVec>(all.states.cubes.begin(), all.states.cubes.begin() + 2));
    EXPECT_EQ(r->stateCount.toU64(), 22u);
    EXPECT_EQ(r->metrics.label("outcome"), "cube-cap");
  }
  // A cap at the cover's size is exact exhaustion, not a cut.
  capped.allsat.maxCubes = 3;
  EXPECT_EQ(computePreimage(ts, target, PreimageMethod::kBdd, capped).outcome,
            Outcome::kComplete);
}

// The BDD engine leaves through the shared epilogue, so its compressed
// cover is success-driven's cube for cube. Both covers are ISOPs already:
// compress leaves them as they are and writes no merge witness into the
// certificate.
TEST(Preimage, BddCompressedCoverEqualsSuccessDriven) {
  for (const CapCase& c : capSuite()) {
    TransitionSystem ts(c.nl);
    PreimageOptions options;
    options.allsat.compress = true;
    options.emitCertificate = true;
    PreimageResult bdd = computePreimage(ts, c.target, PreimageMethod::kBdd, options);
    PreimageResult sd = computePreimage(ts, c.target, PreimageMethod::kSuccessDriven, options);
    EXPECT_EQ(bdd.states.cubes, sd.states.cubes);
    EXPECT_EQ(bdd.stateCount, sd.stateCount);
    PreimageResult plain = computePreimage(ts, c.target, PreimageMethod::kBdd);
    EXPECT_EQ(bdd.states.cubes, plain.states.cubes);
    EXPECT_EQ(bdd.stateCount, plain.stateCount);
    for (const PreimageResult* r : {&bdd, &sd}) {
      EXPECT_EQ(r->metrics.counter("compress.cubes_in"), r->states.cubes.size());
      EXPECT_EQ(r->metrics.counter("compress.cubes_out"), r->states.cubes.size());
      EXPECT_EQ(r->certificate.find("\nw "), std::string::npos);
      EXPECT_NE(r->certificate.find(" compress=1 disjoint=0 "), std::string::npos);
    }
  }
  // lfsr:6 / 1x0xxx: 6 BDD paths; the ISOP has 3.
  Netlist nl = makeLfsr(6);
  TransitionSystem lfsr(nl);
  PreimageOptions compress;
  compress.allsat.compress = true;
  EXPECT_EQ(computePreimage(lfsr, StateSet::fromCube(6, {mkLit(0), mkLit(2, true)}),
                            PreimageMethod::kBdd, compress)
                .states.cubes.size(),
            3u);
}

// For every engine, at every cap, on the generator suite: stateCount is the
// union of the returned cubes, and a cut cover reports cube-cap.
TEST(Preimage, CappedCountIsTheUnionOfTheReturnedCubes) {
  for (const CapCase& c : capSuite()) {
    TransitionSystem ts(c.nl);
    ASSERT_EQ(c.target.numStateBits, ts.numStateBits());
    for (PreimageMethod method : kAllPreimageMethods) {
      const BigUint full = computePreimage(ts, c.target, method).stateCount;
      for (uint64_t cap : {1, 2, 3}) {
        PreimageOptions options;
        options.allsat.maxCubes = cap;
        PreimageResult r = computePreimage(ts, c.target, method, options);
        SCOPED_TRACE(std::string(preimageMethodName(method)) + " cap " + std::to_string(cap));
        EXPECT_LE(r.states.cubes.size(), cap);
        EXPECT_EQ(r.stateCount, countCubeUnionMinterms(r.states.cubes, ts.numStateBits()));
        if (r.outcome == Outcome::kComplete) {
          EXPECT_EQ(r.stateCount, full);
        } else {
          EXPECT_EQ(r.outcome, Outcome::kCubeCap);
          EXPECT_EQ(r.states.cubes.size(), cap);
        }
      }
    }
  }
}

// sd and kBdd return the ISOP of the preimage they hold: on the generator
// suite and 200 random circuits both covers are the same list, whose union
// is the set lifted cube blocking finds, whose count is that union's, whose
// every cube is prime (no literal can go) and needed (no cube can go).
TEST(Preimage, SuccessDrivenAndBddReturnOnePrimeIrredundantCover) {
  std::vector<CapCase> cases = capSuite();
  Rng rng(3607);
  for (int i = 0; i < 200; ++i) {
    RandomCircuitParams params;
    params.seed = rng.next();
    params.numInputs = static_cast<int>(rng.range(1, 4));
    params.numDffs = static_cast<int>(rng.range(3, 10));
    params.numGates = static_cast<int>(rng.range(20, 200));
    Netlist nl = makeRandomSequential(params);
    StateSet target;
    target.numStateBits = params.numDffs;
    for (int c = static_cast<int>(rng.range(1, 3)); c > 0; --c) {
      LitVec cube;
      for (int b = 0; b < params.numDffs; ++b) {
        if (rng.chance(1, 2)) cube.push_back(mkLit(static_cast<Var>(b), rng.flip()));
      }
      target.cubes.push_back(cube);
    }
    cases.push_back({std::move(nl), std::move(target)});
  }
  for (size_t i = 0; i < cases.size(); ++i) {
    SCOPED_TRACE("case " + std::to_string(i));
    TransitionSystem ts(cases[i].nl);
    const StateSet& target = cases[i].target;
    const PreimageResult bdd = computePreimage(ts, target, PreimageMethod::kBdd);
    const std::vector<LitVec>& cover = bdd.states.cubes;
    const PreimageResult sd = computePreimage(ts, target, PreimageMethod::kSuccessDriven);
    EXPECT_EQ(sd.states.cubes, cover);
    EXPECT_EQ(sd.stateCount, bdd.stateCount);
    BddManager mgr(ts.numStateBits());
    const BddRef set = cubesToBdd(mgr, cover);
    const PreimageResult cb = computePreimage(ts, target, PreimageMethod::kCubeBlockingLifted);
    EXPECT_EQ(set, cubesToBdd(mgr, cb.states.cubes));
    EXPECT_EQ(bdd.stateCount, mgr.satCount(set));
    for (size_t c = 0; c < cover.size(); ++c) {
      std::vector<LitVec> others = cover;
      others.erase(others.begin() + static_cast<std::ptrdiff_t>(c));
      EXPECT_NE(cubesToBdd(mgr, others), set) << "cube " << c << " is redundant";
      for (size_t l = 0; l < cover[c].size(); ++l) {
        LitVec wider = cover[c];
        wider.erase(wider.begin() + static_cast<std::ptrdiff_t>(l));
        EXPECT_NE(mgr.bddOr(set, mgr.cube(wider)), set) << "cube " << c << " is not prime";
      }
    }
  }
}

// A random netlist with every gate type the engine justifies through:
// AND/OR families of 2-3 fanins, XOR/XNOR of 2-3, MUX, BUF and NOT, and now
// and then a repeated fanin.
Netlist makeMixedRandom(Rng& rng, int inputs, int dffs, int gates) {
  Netlist nl;
  std::vector<NodeId> pool;
  std::vector<NodeId> state;
  for (int i = 0; i < inputs; ++i) pool.push_back(nl.addInput(numbered("i", i)));
  for (int i = 0; i < dffs; ++i) {
    state.push_back(nl.addDff(numbered("s", i)));
    pool.push_back(state.back());
  }
  static constexpr GateType kTypes[] = {GateType::kAnd, GateType::kNand, GateType::kOr,
                                        GateType::kNor, GateType::kXor, GateType::kXnor,
                                        GateType::kMux, GateType::kBuf, GateType::kNot};
  for (int g = 0; g < gates; ++g) {
    const GateType type = kTypes[rng.below(std::size(kTypes))];
    size_t arity = 2 + rng.below(2);
    if (type == GateType::kMux) arity = 3;
    if (type == GateType::kBuf || type == GateType::kNot) arity = 1;
    std::vector<NodeId> fanins;
    for (size_t k = 0; k < arity; ++k) {
      const bool repeat = k > 0 && rng.chance(1, 12);
      fanins.push_back(repeat ? fanins[rng.below(k)] : pool[rng.below(pool.size())]);
    }
    pool.push_back(nl.addGate(type, std::move(fanins), numbered("g", g)));
  }
  for (size_t i = 0; i < state.size(); ++i) {
    nl.connectDffData(state[i], pool[pool.size() - 1 - rng.below(std::min<size_t>(pool.size(), 8))]);
  }
  nl.validate();
  return nl;
}

// Conflict learning prunes, it never changes an answer: on the generator
// suite and 200 random circuits (half of them with MUX, BUF and repeated
// fanins) sd's cover and count are kBdd's, with and without success-driven
// learning, while memoCheckExact checks every memo hit
// against the exact cut key and the maintained key against a recomputed one.
TEST(Preimage, SuccessDrivenConflictLearningKeepsTheAnswer) {
  std::vector<CapCase> cases = capSuite();
  Rng rng(4421);
  for (int i = 0; i < 200; ++i) {
    const int inputs = static_cast<int>(rng.range(1, 6));
    const int dffs = static_cast<int>(rng.range(3, 16));
    const int gates = static_cast<int>(rng.range(20, 160));
    Netlist nl;
    if (i % 2 == 0) {
      RandomCircuitParams params;
      params.seed = rng.next();
      params.numInputs = inputs;
      params.numDffs = dffs;
      params.numGates = gates;
      nl = makeRandomSequential(params);
    } else {
      nl = makeMixedRandom(rng, inputs, dffs, gates);
    }
    StateSet target;
    target.numStateBits = dffs;
    for (int c = static_cast<int>(rng.range(1, 3)); c > 0; --c) {
      LitVec cube;
      for (int b = 0; b < dffs; ++b) {
        if (rng.chance(1, 2)) cube.push_back(mkLit(static_cast<Var>(b), rng.flip()));
      }
      target.cubes.push_back(cube);
    }
    cases.push_back({std::move(nl), std::move(target)});
  }
  uint64_t nogoods = 0;
  uint64_t implied = 0;
  for (size_t i = 0; i < cases.size(); ++i) {
    SCOPED_TRACE("case " + std::to_string(i));
    TransitionSystem ts(cases[i].nl);
    ASSERT_LE(ts.numStateBits() + ts.numInputs(), 22);
    const PreimageResult bdd = computePreimage(ts, cases[i].target, PreimageMethod::kBdd);
    for (bool learning : {true, false}) {
      PreimageOptions options;
      options.allsat.successLearning = learning;
      options.allsat.memoCheckExact = true;
      const PreimageResult sd =
          computePreimage(ts, cases[i].target, PreimageMethod::kSuccessDriven, options);
      EXPECT_EQ(sd.states.cubes, bdd.states.cubes) << "learning " << learning;
      EXPECT_EQ(sd.stateCount, bdd.stateCount) << "learning " << learning;
      nogoods += sd.metrics.counter("sd.nogoods");
      implied += sd.metrics.counter("sd.nogood_implied");
    }
  }
  // The suite exercises the nogoods, not only the gate-level search.
  EXPECT_GT(nogoods, 0u);
  EXPECT_GT(implied, 0u);
}

// A nogood can imply a node no frontier gate reaches through unassigned
// nodes, so a state's subgraph can name a state bit that another path to the
// same memo key has assigned already, outside its key. Reusing it there
// would give a path that assigns the bit twice (graph.path.repeat), though
// the count stays right: the engine searches such a hit again. This
// rand16x240-shaped circuit and target hit the repeat before it did.
TEST(Preimage, SuccessDrivenMemoHitNeverAssignsASourceTwice) {
  RandomCircuitParams params;
  params.numInputs = 6;
  params.numDffs = 16;
  params.numGates = 240;
  params.seed = 6722059717400994120ull;
  Netlist nl = makeRandomSequential(params);
  TransitionSystem ts(nl);
  const StateSet target = StateSet::fromCube(
      16, {~mkLit(0), mkLit(1), mkLit(2), mkLit(3), mkLit(4), mkLit(5)});
  PreimageOptions options;
  options.allsat.memoCheckExact = true;
  const PreimageResult sd = computePreimage(ts, target, PreimageMethod::kSuccessDriven, options);
  const PreimageResult bdd = computePreimage(ts, target, PreimageMethod::kBdd);
  EXPECT_GT(sd.metrics.counter("sd.nogood_implied"), 0u);
  SolutionGraphAuditOptions audit;
  audit.numProjectionVars = 16;
  const AuditResult result = auditSolutionGraph(sd.graph, audit);
  EXPECT_TRUE(result.ok()) << result.toString();
  EXPECT_EQ(sd.states.cubes, bdd.states.cubes);
  EXPECT_EQ(sd.stateCount.toU64(), 24288u);
}

// Table 1's rand16x240 row: before conflict learning sd made 7 758
// decisions and hit 2 292 conflicts on it; nogoods cut that to 2 183 and
// 65. The cover stays kBdd's.
TEST(Preimage, SuccessDrivenLearnsFromConflictsOnRand16x240) {
  const std::vector<benchutil::BenchCase> suite = benchutil::standardSuite();
  auto it = std::find_if(suite.begin(), suite.end(),
                         [](const benchutil::BenchCase& c) { return c.name == "rand16x240"; });
  ASSERT_NE(it, suite.end());
  TransitionSystem ts(it->netlist);
  const PreimageResult sd = computePreimage(ts, it->target, PreimageMethod::kSuccessDriven);
  const PreimageResult bdd = computePreimage(ts, it->target, PreimageMethod::kBdd);
  EXPECT_LE(sd.stats.decisions, 4000u);
  EXPECT_LE(sd.stats.conflicts, 600u);
  EXPECT_GT(sd.metrics.counter("sd.nogoods"), 0u);
  EXPECT_GT(sd.metrics.counter("sd.nogood_implied"), 0u);
  EXPECT_EQ(sd.states.cubes, bdd.states.cubes);
  EXPECT_EQ(sd.stateCount, bdd.stateCount);
}

// With project + compress, the cover the caller receives (projected,
// compressed) passes the cheap solution-graph audit against the engine's
// graph, and the count is exact.
TEST(Preimage, SuccessDrivenProjectCompressCoverPassesAuditAndCountsExactly) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    RandomCircuitParams params;
    params.numInputs = 4;
    params.numDffs = 8;
    params.numGates = 60;
    params.seed = seed;
    Netlist nl = makeRandomSequential(params);
    TransitionSystem ts(nl);
    const int n = ts.numStateBits();
    for (const LitVec& cube : {LitVec{mkLit(0)}, LitVec{~mkLit(1), mkLit(2)}}) {
      StateSet target = StateSet::fromCube(n, cube);
      PreimageOptions options;
      options.allsat.project = true;
      options.allsat.compress = true;
      PreimageResult r = computePreimage(ts, target, PreimageMethod::kSuccessDriven, options);
      PreimageResult oracle = computePreimage(ts, target, PreimageMethod::kBdd, {});
      EXPECT_EQ(r.stateCount, oracle.stateCount) << "seed " << seed;
      EXPECT_TRUE(sameStates(r.states, oracle.states)) << "seed " << seed;

      SolutionGraphAuditOptions audit;
      audit.numProjectionVars = n;
      audit.maxCubeSatChecks = 0;
      audit.cover = &r.states.cubes;
      AuditResult a = auditSolutionGraph(r.graph, audit);
      EXPECT_TRUE(a.ok()) << "seed " << seed << ": " << a.toString();
    }
  }
}

// maxCubes caps the one cover of the union. Each half of this target (next
// bit 0 of an 8-bit Gray counter is 1, or 0) has a preimage of several
// cubes, but the union is every state: one empty cube, which fits a cap of
// 1.
TEST(Preimage, SuccessDrivenMaxCubesCapsTheUnionCover) {
  const int n = 8;
  Netlist nl = makeGrayCounter(n);
  TransitionSystem ts(nl);
  StateSet target = StateSet::fromCube(n, {mkLit(0)});
  target.cubes.push_back({~mkLit(0)});
  PreimageOptions options;
  options.allsat.maxCubes = 1;
  PreimageResult r = computePreimage(ts, target, PreimageMethod::kSuccessDriven, options);
  EXPECT_EQ(r.outcome, Outcome::kComplete);
  EXPECT_EQ(r.states.cubes, std::vector<LitVec>{LitVec{}});
  EXPECT_EQ(r.stateCount, BigUint(1u << n));

  options.allsat.maxCubes = 0;
  StateSet half = StateSet::fromCube(n, {mkLit(0)});
  PreimageResult full = computePreimage(ts, half, PreimageMethod::kSuccessDriven, options);
  options.allsat.maxCubes = 1;
  PreimageResult capped = computePreimage(ts, half, PreimageMethod::kSuccessDriven, options);
  ASSERT_GT(full.states.cubes.size(), 1u);
  EXPECT_EQ(capped.outcome, Outcome::kCubeCap);
  EXPECT_EQ(capped.states.cubes,
            std::vector<LitVec>(full.states.cubes.begin(), full.states.cubes.begin() + 1));
}

}  // namespace
}  // namespace presat
