// Forward image tests, differentially against
// explicit transition enumeration and against the preimage engines (Galois
// connection: s' ∈ Img(F) iff Pre({s'}) ∩ F ≠ ∅).
#include <gtest/gtest.h>

#include <set>

#include "base/rng.hpp"
#include "bdd/bdd.hpp"
#include "gen/generators.hpp"
#include "gen/iscas.hpp"
#include "gen/random_circuit.hpp"
#include "preimage/image.hpp"
#include "preimage/preimage.hpp"

namespace presat {
namespace {

std::set<uint64_t> bruteForceImage(const TransitionSystem& ts, const StateSet& from) {
  int n = ts.numStateBits();
  int m = ts.numInputs();
  EXPECT_LE(n + m, 18);
  std::set<uint64_t> result;
  for (uint64_t s = 0; s < (1ull << n); ++s) {
    std::vector<bool> state(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) state[static_cast<size_t>(i)] = (s >> i) & 1;
    if (!from.contains(state)) continue;
    for (uint64_t x = 0; x < (1ull << m); ++x) {
      std::vector<bool> inputs(static_cast<size_t>(m));
      for (int i = 0; i < m; ++i) inputs[static_cast<size_t>(i)] = (x >> i) & 1;
      std::vector<bool> next = ts.step(state, inputs);
      uint64_t t = 0;
      for (int i = 0; i < n; ++i) {
        if (next[static_cast<size_t>(i)]) t |= 1ull << i;
      }
      result.insert(t);
    }
  }
  return result;
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

TEST(Image, CounterStepsForward) {
  Netlist nl = makeCounter(4);
  TransitionSystem ts(nl);
  StateSet from = StateSet::fromMinterm(4, 6);
  for (ImageMethod method : kAllImageMethods) {
    ImageResult r = computeImage(ts, from, method);
    EXPECT_EQ(toMinterms(r.states), (std::set<uint64_t>{6, 7})) << imageMethodName(method);
    EXPECT_EQ(r.stateCount.toU64(), 2u);
  }
}

TEST(Image, EmptyFromGivesEmptyImage) {
  Netlist nl = makeCounter(3);
  TransitionSystem ts(nl);
  for (ImageMethod method : kAllImageMethods) {
    ImageResult r = computeImage(ts, StateSet::none(3), method);
    EXPECT_TRUE(r.states.empty()) << imageMethodName(method);
  }
}

TEST(Image, AccumulatorCoversEverythingFromAnyState) {
  // With a free addend input, one accumulator step reaches every state.
  Netlist nl = makeAccumulator(4);
  TransitionSystem ts(nl);
  ImageResult r = computeImage(ts, StateSet::fromMinterm(4, 9), ImageMethod::kBdd);
  EXPECT_EQ(r.stateCount.toU64(), 16u);
}

// Two state bits driven by one node: the all-SAT projection lists that
// node's variable twice, and both positions must still be enumerated.
TEST(Image, SharedNextStateDriver) {
  Netlist nl;
  NodeId x = nl.addInput("x");
  NodeId s0 = nl.addDff("s0");
  NodeId s1 = nl.addDff("s1");
  NodeId s2 = nl.addDff("s2");
  NodeId g = nl.mkAnd(x, s2, "g");
  nl.connectDffData(s0, g);
  nl.connectDffData(s1, g);
  nl.connectDffData(s2, nl.mkNot(s0, "n"));
  nl.validate();
  TransitionSystem ts(nl);
  StateSet from = StateSet::fromCube(3, {});
  std::set<uint64_t> expected = bruteForceImage(ts, from);
  for (ImageMethod method : kAllImageMethods) {
    ImageResult r = computeImage(ts, from, method);
    EXPECT_EQ(toMinterms(r.states), expected) << imageMethodName(method);
    EXPECT_EQ(r.stateCount.toU64(), expected.size()) << imageMethodName(method);
  }
}

class ImageFuzz : public ::testing::TestWithParam<int> {};

TEST_P(ImageFuzz, AllMethodsMatchBruteForce) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 409 + 31);
  for (int iter = 0; iter < 8; ++iter) {
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
    StateSet from = StateSet::fromCube(ts.numStateBits(), cube);
    std::set<uint64_t> expected = bruteForceImage(ts, from);
    for (ImageMethod method : kAllImageMethods) {
      ImageResult r = computeImage(ts, from, method);
      ASSERT_EQ(toMinterms(r.states), expected)
          << imageMethodName(method) << " group " << GetParam() << " iter " << iter;
      EXPECT_EQ(r.stateCount.toU64(), expected.size());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ImageFuzz, ::testing::Range(0, 6));

// Galois connection between image and preimage: t ∈ Img(F) iff F ∩ Pre({t}) ≠ ∅.
TEST(Image, GaloisConnectionWithPreimage) {
  Netlist nl = makeS27();
  TransitionSystem ts(nl);
  Rng rng(139);
  for (int trial = 0; trial < 8; ++trial) {
    StateSet from = StateSet::fromMinterm(3, rng.below(8));
    ImageResult img = computeImage(ts, from, ImageMethod::kMintermBlocking);
    for (uint64_t t = 0; t < 8; ++t) {
      StateSet single = StateSet::fromMinterm(3, t);
      PreimageResult pre = computePreimage(ts, single, PreimageMethod::kSuccessDriven);
      bool inImage = img.states.contains(
          {(t & 1) != 0, (t & 2) != 0, (t & 4) != 0});
      BddManager mgr(3);
      bool preMeetsFrom =
          mgr.bddAnd(pre.states.toBdd(mgr), from.toBdd(mgr)) != BddManager::kFalse;
      EXPECT_EQ(inImage, preMeetsFrom) << "trial " << trial << " state " << t;
    }
  }
}

}  // namespace
}  // namespace presat
