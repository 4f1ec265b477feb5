// Projection-layer tests: the hardened cube primitives (src/allsat/
// projection), the ISOP cover shrinking behind `compress` (compressCubes and
// finishCover), and the projected-native chrono enumeration mode — each
// checked against brute-force or reference-implementation oracles.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <set>
#include <string>
#include <vector>

#include "allsat/chrono_blocking.hpp"
#include "allsat/compress.hpp"
#include "allsat/projection.hpp"
#include "base/rng.hpp"
#include "check/audit_chrono.hpp"
#include "gen/generators.hpp"
#include "govern/faults.hpp"
#include "govern/governor.hpp"
#include "preimage/preimage.hpp"
#include "preimage/transition_system.hpp"
#include "oracle/dpll.hpp"
#include "test_util.hpp"
#include "../bench/bench_util.hpp"

namespace presat {
namespace {

// Random well-formed cube over `vars` variables: each variable independently
// absent, positive, or negative. `biasDisjoint` pins variable 0 so the set
// splits into two guaranteed-disjoint halves about half the time — without it
// nearly every random pair overlaps and the disjoint verdict is never fuzzed.
LitVec randomCube(Rng& rng, int vars, bool pinFirst, bool firstSign) {
  LitVec cube;
  for (Var v = 0; v < vars; ++v) {
    if (v == 0 && pinFirst) {
      cube.push_back(mkLit(v, firstSign));
      continue;
    }
    uint64_t roll = rng.range(0, 3);
    if (roll == 1) cube.push_back(mkLit(v, false));
    if (roll == 2) cube.push_back(mkLit(v, true));
  }
  return cube;
}

std::set<uint64_t> unionMinterms(const std::vector<LitVec>& cubes, int vars) {
  std::set<uint64_t> out;
  for (uint64_t bits = 0; bits < (1ull << vars); ++bits) {
    for (const LitVec& cube : cubes) {
      if (cubeCoversMinterm(cube, bits)) {
        out.insert(bits);
        break;
      }
    }
  }
  return out;
}

// --- hardened primitives ------------------------------------------------------

TEST(ProjectionDeath, CubeCoversMintermRejectsVarBeyondMintermSpace) {
  // A 64-bit minterm cannot represent variable 64: before the fix the shift
  // 1ull << 64 was UB and returned an arbitrary verdict.
  LitVec cube = {mkLit(static_cast<Var>(64), false)};
  EXPECT_DEATH(cubeCoversMinterm(cube, 0), "outside the 64-bit minterm space");
}

TEST(ProjectionDeath, CountDisjointRejectsOutOfRangeVariable) {
  // Cube mentions variable 3 but the projected space has only 3 variables
  // (0..2): before the hardening the count silently went negative-width.
  std::vector<LitVec> cubes = {{mkLit(3, false)}};
  EXPECT_DEATH(countDisjointCubeMinterms(cubes, 3), "");
}

TEST(ProjectionDeath, CountDisjointRejectsDuplicatedVariable) {
  // x1 & x1 is not a well-formed cube; counting it as width-2 would halve
  // the contribution it actually denotes.
  std::vector<LitVec> cubes = {{mkLit(1, false), mkLit(1, false)}};
  EXPECT_DEATH(countDisjointCubeMinterms(cubes, 3), "");
}

TEST(Projection, CountDisjointAcceptsFullRangeCubes) {
  std::vector<LitVec> cubes = {{mkLit(0, false)}, {mkLit(0, true), mkLit(2, false)}};
  EXPECT_EQ(countDisjointCubeMinterms(cubes, 3).toU64(), 4u + 2u);
}

// Verdict-equality fuzz: the cofactor divide-and-conquer disjointness check
// must agree with the quadratic reference scan on every random cube set,
// including sets engineered to be disjoint.
TEST(ProjectionProperty, DisjointnessCheckMatchesNaiveReference) {
  Rng rng(2024);
  int sawDisjoint = 0;
  int sawOverlap = 0;
  for (int iter = 0; iter < 400; ++iter) {
    int vars = static_cast<int>(rng.range(1, 10));
    size_t count = rng.range(0, 12);
    bool biasDisjoint = rng.flip();
    std::vector<LitVec> cubes;
    for (size_t i = 0; i < count; ++i) {
      cubes.push_back(randomCube(rng, vars, biasDisjoint, rng.flip()));
    }
    bool fast = cubesPairwiseDisjoint(cubes);
    bool naive = cubesPairwiseDisjointNaive(cubes);
    EXPECT_EQ(fast, naive) << "iter " << iter;
    (fast ? sawDisjoint : sawOverlap) += 1;
  }
  // Both verdicts must actually be exercised for the fuzz to mean anything.
  EXPECT_GT(sawDisjoint, 20);
  EXPECT_GT(sawOverlap, 20);
}

// --- compression: the ISOP of the cover's union ------------------------------

TEST(Compress, MergesComplementaryPair) {
  // (x0 & x1) | (x0 & ~x1) = x0.
  std::vector<LitVec> cubes = {{mkLit(0, false), mkLit(1, false)},
                               {mkLit(0, false), mkLit(1, true)}};
  CompressStats stats = compressCubes(cubes);
  ASSERT_EQ(cubes.size(), 1u);
  EXPECT_EQ(cubes[0], LitVec{mkLit(0, false)});
  EXPECT_EQ(stats.cubesIn, 2u);
  EXPECT_EQ(stats.cubesOut, 1u);
}

TEST(Compress, CollapsesFullSpaceToEmptyCube) {
  // All 8 minterms over 3 variables merge down to the single empty cube.
  std::vector<LitVec> cubes;
  for (uint64_t bits = 0; bits < 8; ++bits) {
    LitVec cube;
    for (Var v = 0; v < 3; ++v) cube.push_back(mkLit(v, ((bits >> v) & 1) == 0));
    cubes.push_back(cube);
  }
  compressCubes(cubes);
  ASSERT_EQ(cubes.size(), 1u);
  EXPECT_TRUE(cubes[0].empty());
}

// The compression contract: union preserved exactly, an irredundant cover
// (every cube holds a minterm no other cube does), and byte-identical output
// on a repeated run (the parallel determinism contract leans on this). On
// these 200 seeded covers the ISOP also never has more cubes than chrono's
// disjoint cover in; that is an observation about these inputs, not part of
// the contract (an ISOP can outgrow a disjoint cover of the same set, see
// IsopOutgrowingTheCapIsCutAgain).
TEST(CompressProperty, PreservesUnionAndIsDeterministic) {
  Rng rng(4711);
  for (int iter = 0; iter < 200; ++iter) {
    int vars = static_cast<int>(rng.range(1, 9));
    Cnf cnf = testutil::randomCnf(rng, vars, static_cast<int>(rng.range(0, 14)));
    std::vector<Var> projection;
    for (Var v = 0; v < vars; ++v) projection.push_back(v);
    // Chrono's disjoint cover of a random formula is the natural input
    // distribution: real covers, not arbitrary cube soup.
    AllSatResult r = chronoAllSat(cnf, projection, {});
    ASSERT_TRUE(r.complete);

    std::vector<LitVec> compressed = r.cubes;
    CompressStats stats = compressCubes(compressed);
    EXPECT_LE(compressed.size(), r.cubes.size()) << "iter " << iter;
    EXPECT_EQ(stats.cubesOut, compressed.size()) << "iter " << iter;
    for (size_t i = 0; i < compressed.size(); ++i) {
      std::vector<LitVec> others = compressed;
      others.erase(others.begin() + static_cast<std::ptrdiff_t>(i));
      EXPECT_NE(unionMinterms(others, vars), unionMinterms(compressed, vars))
          << "iter " << iter << ": cube " << i << " is redundant";
    }
    EXPECT_EQ(unionMinterms(compressed, vars), unionMinterms(r.cubes, vars))
        << "iter " << iter;
    EXPECT_EQ(countCubeUnionMinterms(compressed, vars), r.mintermCount) << "iter " << iter;

    std::vector<LitVec> again = r.cubes;
    compressCubes(again);
    EXPECT_EQ(again, compressed) << "iter " << iter;
  }
}

// An overlapping cover with duplicates and a subsumed cube (what lifted cube
// blocking can return) leaves as an irredundant cover of the same union: no
// cube twice, and no cube inside another.
TEST(CompressProperty, OverlappingCoverLosesDuplicatesAndSubsumedCubes) {
  Rng rng(1299);
  for (int iter = 0; iter < 120; ++iter) {
    int vars = static_cast<int>(rng.range(1, 8));
    std::vector<LitVec> cubes;
    size_t count = rng.range(1, 10);
    for (size_t i = 0; i < count; ++i) {
      cubes.push_back(randomCube(rng, vars, false, false));
    }
    // Salt with guaranteed duplicates and a subsumed copy-with-extra-literal.
    cubes.push_back(cubes[0]);
    LitVec narrowed = cubes[0];
    if (narrowed.size() < static_cast<size_t>(vars)) {
      for (Var v = 0; v < vars; ++v) {
        bool used = false;
        for (Lit l : narrowed) used |= l.var() == v;
        if (!used) {
          narrowed.push_back(mkLit(v, rng.flip()));
          break;
        }
      }
    }
    cubes.push_back(narrowed);

    std::set<uint64_t> before = unionMinterms(cubes, vars);
    compressCubes(cubes);
    EXPECT_EQ(unionMinterms(cubes, vars), before) << "iter " << iter;
    for (size_t i = 0; i < cubes.size(); ++i) {
      for (size_t j = 0; j < cubes.size(); ++j) {
        if (i == j) continue;
        std::set<uint64_t> inner = unionMinterms({cubes[i]}, vars);
        std::set<uint64_t> outer = unionMinterms({cubes[j]}, vars);
        EXPECT_FALSE(std::includes(outer.begin(), outer.end(), inner.begin(), inner.end()))
            << "iter " << iter << ": cube " << i << " lies inside cube " << j;
      }
    }
  }
}

TEST(Compress, GovernorTripKeepsTheCover) {
  // A one-byte memory ceiling trips at the scratch BDD's first node; the
  // cover comes back as it went in.
  std::vector<LitVec> cubes;
  for (uint64_t bits = 0; bits < 8; ++bits) {
    LitVec cube;
    for (Var v = 0; v < 3; ++v) cube.push_back(mkLit(v, ((bits >> v) & 1) == 0));
    cubes.push_back(cube);
  }
  Budget budget;
  budget.memLimitBytes = 1;
  Governor governor(budget);
  std::vector<LitVec> governed = cubes;
  compressCubes(governed, &governor);
  EXPECT_TRUE(governor.tripped());
  EXPECT_EQ(governed, cubes);
}

// A trip inside finishCover's shrink keeps the engine's unshrunk cover with
// its exact count, and the engine's own outcome: the union is the same.
TEST(Compress, TripInsideTheEpilogueKeepsTheUnshrunkCoverAndCount) {
  Cnf cnf(4);
  cnf.addBinary(mkLit(0), mkLit(1));
  cnf.addBinary(~mkLit(2), mkLit(3));
  const std::vector<Var> projection = {0, 1, 2, 3};
  AllSatResult plain = chronoAllSat(cnf, projection, {});
  ASSERT_TRUE(plain.complete);

  AllSatResult governed;
  governed.cubes = plain.cubes;
  Budget budget;
  budget.memLimitBytes = 1;
  Governor governor(budget);
  AllSatOptions options;
  options.compress = true;
  options.governor = &governor;
  finishCover(governed, options, 4, CoverKind::kDisjoint, "chrono", Timer());
  EXPECT_TRUE(governor.tripped());
  EXPECT_EQ(governed.cubes, plain.cubes);
  EXPECT_EQ(governed.mintermCount, plain.mintermCount);
  EXPECT_TRUE(governed.complete);
  EXPECT_EQ(governed.metrics.counter("compress.cubes_out"), plain.cubes.size());

  // Lifted-style overlapping cubes under `project`: counted through the BDD
  // union all the same.
  AllSatResult overlapping;
  overlapping.cubes = {{mkLit(0)}, {mkLit(0), mkLit(1)}, {mkLit(1)}};
  Governor tripped(budget);
  options.compress = false;
  options.project = true;
  options.governor = &tripped;
  finishCover(overlapping, options, 4, CoverKind::kOverlapping, "cube-blocking", Timer());
  EXPECT_EQ(overlapping.cubes.size(), 3u);
  EXPECT_EQ(overlapping.mintermCount, BigUint(12u));
}

// An ISOP can have more cubes than the cover it replaces: this 3-cube
// cover's ISOP has 4. Under a cap of 3 the epilogue cuts the ISOP again,
// reports the cap and counts the kept cubes, as kBdd does with its own ISOP.
TEST(Compress, IsopOutgrowingTheCapIsCutAgain) {
  const std::vector<LitVec> cover = {{mkLit(0, true), mkLit(1, true), mkLit(3, false)},
                                     {mkLit(0, false), mkLit(1, true), mkLit(2, true)},
                                     {mkLit(1, false), mkLit(3, true)}};
  std::vector<LitVec> isop = cover;
  compressCubes(isop);
  ASSERT_EQ(isop.size(), 4u);

  AllSatResult r;
  r.cubes = cover;
  AllSatOptions options;
  options.compress = true;
  options.maxCubes = 3;
  finishCover(r, options, 4, CoverKind::kOverlapping, "cube-blocking", Timer());
  EXPECT_EQ(r.cubes, std::vector<LitVec>(isop.begin(), isop.begin() + 3));
  EXPECT_EQ(r.outcome, Outcome::kCubeCap);
  EXPECT_FALSE(r.complete);
  EXPECT_EQ(r.mintermCount, countCubeUnionMinterms(r.cubes, 4));
}

#if defined(PRESAT_FAULTS)
// The same trip, injected at the post-pass BDD's first node through a whole
// preimage query: chrono's enumeration builds no governed BDD, so the fault
// lands in finishCover, and the certificate of the unshrunk cover still
// claims no disjointness (the query asked for `compress`).
TEST(Compress, BddAllocFaultInThePostPassKeepsTheUnshrunkCover) {
  Netlist nl = makeLfsr(5);
  TransitionSystem ts(nl);
  StateSet target = StateSet::fromCube(5, {mkLit(0), ~mkLit(2)});
  PreimageResult plain = computePreimage(ts, target, PreimageMethod::kChrono, {});

  Budget budget;
  budget.deadlineSeconds = 600;
  Governor governor(budget);
  PreimageOptions options;
  options.allsat.compress = true;
  options.allsat.governor = &governor;
  options.emitCertificate = true;
  faults::armFault("bdd.alloc", 1);
  PreimageResult r = computePreimage(ts, target, PreimageMethod::kChrono, options);
  const bool fired = faults::faultFired();
  faults::disarmFaults();
  ASSERT_TRUE(fired);
  EXPECT_EQ(r.states.cubes, plain.states.cubes);
  EXPECT_EQ(r.stateCount, plain.stateCount);
  EXPECT_TRUE(r.complete);
  EXPECT_NE(r.certificate.find(" compress=1 disjoint=0 "), std::string::npos);
}
#endif

// --- projected-native chrono --------------------------------------------------

// The projected contract on random CNFs: projected chrono emits disjoint
// cubes covering exactly the brute-force projected solution set, and
// compressed, the same set's ISOP. On these 150 seeded formulas that ISOP
// is never larger than the plain (lift-after-enumeration) cover; an ISOP can
// have more cubes than a disjoint cover, so that check holds for these
// inputs, not by construction.
TEST(ProjectedChronoProperty, MatchesBruteForceWithSmallerCover) {
  Rng rng(613);
  for (int iter = 0; iter < 150; ++iter) {
    int vars = static_cast<int>(rng.range(2, 9));
    Cnf cnf = testutil::randomCnf(rng, vars, static_cast<int>(rng.range(1, 16)));
    std::vector<Var> projection;
    for (Var v = 0; v < vars; ++v) {
      if (rng.chance(1, 2)) projection.push_back(v);
    }
    std::set<uint64_t> expected = bruteForceProjectedSolutions(cnf, projection);

    AllSatOptions projOpts;
    projOpts.project = true;
    AllSatResult projected = chronoAllSat(cnf, projection, projOpts);
    ASSERT_TRUE(projected.complete);
    EXPECT_TRUE(cubesPairwiseDisjoint(projected.cubes)) << "iter " << iter;
    ChronoAuditOptions auditOptions;
    auditOptions.diagPrefix = "proj";
    AuditResult audit =
        auditChronoCubes(cnf, projection, projected.cubes, projected.complete, auditOptions);
    EXPECT_TRUE(audit.ok()) << "iter " << iter << "\n" << audit.toString();

    projOpts.compress = true;
    AllSatResult proj = chronoAllSat(cnf, projection, projOpts);
    ASSERT_TRUE(proj.complete);
    EXPECT_EQ(unionMinterms(proj.cubes, static_cast<int>(projection.size())), expected)
        << "iter " << iter;
    EXPECT_EQ(proj.mintermCount.toU64(), expected.size()) << "iter " << iter;
    std::vector<LitVec> isop = projected.cubes;
    compressCubes(isop);
    EXPECT_EQ(proj.cubes.size(), isop.size()) << "iter " << iter;

    AllSatResult plain = chronoAllSat(cnf, projection, {});
    ASSERT_TRUE(plain.complete);
    EXPECT_EQ(plain.mintermCount, proj.mintermCount) << "iter " << iter;
    EXPECT_LE(proj.cubes.size(), plain.cubes.size()) << "iter " << iter;
  }
}

std::vector<std::string> canonicalCubes(const std::vector<LitVec>& cubes, int width) {
  std::vector<std::string> out;
  out.reserve(cubes.size());
  for (const LitVec& cube : cubes) {
    std::string s(static_cast<size_t>(width), 'x');
    for (Lit l : cube) s[static_cast<size_t>(l.var())] = l.sign() ? '0' : '1';
    out.push_back(std::move(s));
  }
  return out;
}

// Generator-suite equivalence: projected+compressed chrono preimages are
// the BDD engine's cover cube for cube on every circuit and bit-identical at
// jobs=1 vs jobs=8. On this fixed suite they also use no more cubes than the
// plain chrono enumeration, which an ISOP does not promise in general.
TEST(ProjectedChronoPreimage, MatchesBddOracleOnGeneratorSuite) {
  struct Fixture {
    std::string name;
    Netlist nl;
    StateSet target;
  };
  std::vector<Fixture> suite;
  auto addGenerator = [&suite](const char* name, Netlist nl) {
    StateSet target = StateSet::fromCube(static_cast<int>(nl.dffs().size()), {mkLit(0)});
    suite.push_back({name, std::move(nl), std::move(target)});
  };
  addGenerator("counter:4", makeCounter(4));
  addGenerator("gray:3", makeGrayCounter(3));
  addGenerator("lfsr:4", makeLfsr(4));
  addGenerator("arbiter:3", makeRoundRobinArbiter(3));
  addGenerator("traffic", makeTrafficLight());
  addGenerator("lock", makeCombinationLock({1, 2, 3}, 2));
  // Random logic, where the circuit widening and its deferred scope tier
  // change the cover most.
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    Netlist nl = benchutil::randomBench(5, 12, 150, seed);
    StateSet target = benchutil::reachableCube(nl, 4, 500 + seed);
    suite.push_back({"rand12x150:" + std::to_string(seed), std::move(nl), std::move(target)});
  }

  for (const Fixture& fixture : suite) {
    TransitionSystem ts(fixture.nl);
    const int n = ts.numStateBits();
    const StateSet& target = fixture.target;

    PreimageResult bdd = computePreimage(ts, target, PreimageMethod::kBdd, {});
    PreimageResult plain = computePreimage(ts, target, PreimageMethod::kChrono, {});

    PreimageOptions projOpts;
    projOpts.allsat.project = true;
    projOpts.allsat.compress = true;
    PreimageResult proj = computePreimage(ts, target, PreimageMethod::kChrono, projOpts);

    EXPECT_TRUE(proj.complete) << fixture.name;
    EXPECT_EQ(proj.stateCount, bdd.stateCount) << fixture.name;
    EXPECT_EQ(proj.states.cubes, bdd.states.cubes) << fixture.name;
    EXPECT_LE(proj.states.cubes.size(), plain.states.cubes.size()) << fixture.name;

    PreimageOptions one = projOpts;
    one.allsat.parallel.jobs = 1;
    PreimageOptions eight = projOpts;
    eight.allsat.parallel.jobs = 8;
    PreimageResult r1 = computePreimage(ts, target, PreimageMethod::kChrono, one);
    PreimageResult r8 = computePreimage(ts, target, PreimageMethod::kChrono, eight);
    EXPECT_EQ(canonicalCubes(r1.states.cubes, n), canonicalCubes(r8.states.cubes, n))
        << fixture.name;
    EXPECT_EQ(r1.stateCount, bdd.stateCount) << fixture.name;
    EXPECT_EQ(r1.states.cubes, bdd.states.cubes) << fixture.name;
  }
}

TEST(ProjectedChronoDeath, CorruptedCoverFailsProjDisjoint) {
  Cnf cnf(3);
  cnf.addBinary(mkLit(0), mkLit(1));
  std::vector<Var> projection = {0, 1, 2};
  AllSatOptions projOpts;
  projOpts.project = true;
  AllSatResult r = chronoAllSat(cnf, projection, projOpts);
  ChronoAuditOptions auditOptions;
  auditOptions.diagPrefix = "proj";
  ASSERT_TRUE(auditChronoCubes(cnf, projection, r.cubes, r.complete, auditOptions).ok());
  corruptChronoCubesForTest(r.cubes, ChronoCorruption::kDuplicateCube);
  EXPECT_DEATH(PRESAT_CHECK_AUDIT(
                   auditChronoCubes(cnf, projection, r.cubes, r.complete, auditOptions)),
               "proj\\.disjoint");
}

}  // namespace
}  // namespace presat
