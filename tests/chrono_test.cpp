// Chronological-backtracking enumeration tests (src/allsat/chrono_blocking):
// the engine must match every other engine's projected solution set exactly,
// emit pairwise-disjoint cubes, and — the property that motivates it — keep
// the clause database flat no matter how many solutions it enumerates.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "allsat/blocking.hpp"
#include "allsat/chrono_blocking.hpp"
#include "allsat/projection.hpp"
#include "allsat/success_driven.hpp"
#include "base/rng.hpp"
#include "check/audit_chrono.hpp"
#include "circuit/from_cnf.hpp"
#include "gen/generators.hpp"
#include "parallel/parallel_allsat.hpp"
#include "preimage/preimage.hpp"
#include "preimage/target.hpp"
#include "preimage/transition_system.hpp"
#include "oracle/dpll.hpp"
#include "test_util.hpp"

namespace presat {
namespace {

// Runs the success-driven engine on a CNF via circuit conversion, projecting
// onto the given scope (the same route presat_cli's --method sd takes).
BigUint successDrivenCnfCount(const Cnf& cnf, const std::vector<Var>& projection) {
  CnfCircuit circuit = cnfToCircuit(cnf);
  CircuitAllSatProblem problem;
  problem.netlist = &circuit.netlist;
  problem.objectives = {{circuit.root, true}};
  for (Var v : projection) {
    problem.projectionSources.push_back(circuit.varNode[static_cast<size_t>(v)]);
  }
  return successDrivenAllSat(problem).summary.mintermCount;
}

std::set<uint64_t> cubesToMinterms(const std::vector<LitVec>& cubes, size_t projSize) {
  std::set<uint64_t> result;
  EXPECT_LE(projSize, 20u);
  for (uint64_t bits = 0; bits < (1ull << projSize); ++bits) {
    for (const LitVec& cube : cubes) {
      if (cubeCoversMinterm(cube, bits)) {
        result.insert(bits);
        break;
      }
    }
  }
  return result;
}

TEST(Chrono, SimpleFormula) {
  Cnf cnf(3);
  cnf.addBinary(mkLit(0), mkLit(1));  // x0 | x1
  AllSatResult r = chronoAllSat(cnf, {0, 1}, {});
  EXPECT_TRUE(r.complete);
  EXPECT_EQ(r.mintermCount.toU64(), 3u);
  EXPECT_TRUE(cubesPairwiseDisjoint(r.cubes));
  EXPECT_EQ(r.stats.blockingClauses, 0u);
  EXPECT_EQ(r.metrics.label("engine"), "chrono");
}

TEST(Chrono, UnsatFormula) {
  Cnf cnf(2);
  cnf.addUnit(mkLit(0));
  cnf.addUnit(~mkLit(0));
  AllSatResult r = chronoAllSat(cnf, {0, 1}, {});
  EXPECT_TRUE(r.complete);
  EXPECT_TRUE(r.cubes.empty());
  EXPECT_TRUE(r.mintermCount.isZero());
}

TEST(Chrono, EmptyProjection) {
  Cnf cnf(2);
  cnf.addBinary(mkLit(0), mkLit(1));
  AllSatResult r = chronoAllSat(cnf, {}, {});
  EXPECT_TRUE(r.complete);
  EXPECT_EQ(r.cubes.size(), 1u);
  EXPECT_EQ(r.mintermCount.toU64(), 1u);
}

TEST(Chrono, MaxCubesCap) {
  Cnf cnf(4);  // no constraints: 16 solutions
  AllSatOptions opts;
  opts.maxCubes = 5;
  // With shrinking the whole space is one empty cube; disable it so the
  // enumeration is minterm-grained and actually runs into the cap.
  opts.chronoShrink = false;
  AllSatResult r = chronoAllSat(cnf, {0, 1, 2, 3}, opts);
  EXPECT_FALSE(r.complete);
  EXPECT_EQ(r.cubes.size(), 5u);
  EXPECT_TRUE(cubesPairwiseDisjoint(r.cubes));
}

TEST(Chrono, ShrinkCollapsesUnconstrainedSpace) {
  Cnf cnf(4);  // no constraints: one empty cube covers all 16 minterms
  AllSatResult r = chronoAllSat(cnf, {0, 1, 2, 3}, {});
  EXPECT_TRUE(r.complete);
  EXPECT_EQ(r.cubes.size(), 1u);
  EXPECT_TRUE(r.cubes[0].empty());
  EXPECT_EQ(r.mintermCount.toU64(), 16u);
}

TEST(Chrono, ConflictBudgetGivesPartialResult) {
  Cnf cnf = testutil::pigeonhole(7);  // UNSAT, resolution-hard
  AllSatOptions opts;
  opts.conflictBudget = 10;
  AllSatResult r = chronoAllSat(cnf, {0, 1, 2, 3, 4, 5}, opts);
  EXPECT_FALSE(r.complete);
  EXPECT_EQ(r.outcome, Outcome::kConflicts);
  EXPECT_EQ(r.metrics.label("outcome"), "conflicts");
  // The formula is UNSAT, so a sound partial answer has no cubes at all.
  EXPECT_TRUE(r.cubes.empty());
  EXPECT_TRUE(r.mintermCount.isZero());
  // With a budget far above the refutation cost the same run completes.
  opts.conflictBudget = 1u << 20;
  AllSatResult full = chronoAllSat(cnf, {0, 1, 2, 3, 4, 5}, opts);
  EXPECT_TRUE(full.complete);
  EXPECT_EQ(full.outcome, Outcome::kComplete);
  EXPECT_TRUE(full.mintermCount.isZero());
}

// Satisfiable formulas under a starvation-level budget: whatever cube prefix
// the engine managed to emit must be a sound under-approximation — pairwise
// disjoint, a subset of the brute-force solution set, count a lower bound —
// with the reason code distinguishing partial from complete.
TEST(ChronoProperty, ConflictBudgetPartialsAreSoundUnderApproximations) {
  Rng rng(57);
  int sawPartial = 0;
  for (int iter = 0; iter < 80; ++iter) {
    int vars = static_cast<int>(rng.range(3, 9));
    Cnf cnf = testutil::randomCnf(rng, vars, static_cast<int>(rng.range(4, 24)));
    std::vector<Var> projection;
    for (Var v = 0; v < vars; ++v) projection.push_back(v);
    std::set<uint64_t> exact = bruteForceProjectedSolutions(cnf, projection);

    AllSatOptions opts;
    opts.conflictBudget = 1 + rng.range(0, 2);
    opts.chronoShrink = false;  // minterm-grained enumeration so the budget bites
    AllSatResult r = chronoAllSat(cnf, projection, opts);

    std::set<uint64_t> got = cubesToMinterms(r.cubes, projection.size());
    EXPECT_TRUE(cubesPairwiseDisjoint(r.cubes)) << "iter " << iter;
    for (uint64_t m : got) EXPECT_TRUE(exact.count(m)) << "iter " << iter << " minterm " << m;
    EXPECT_LE(r.mintermCount.toU64(), exact.size()) << "iter " << iter;
    if (r.complete) {
      EXPECT_EQ(r.outcome, Outcome::kComplete) << "iter " << iter;
      EXPECT_EQ(got, exact) << "iter " << iter;
    } else {
      EXPECT_EQ(r.outcome, Outcome::kConflicts) << "iter " << iter;
      ++sawPartial;
    }
  }
  // The budget is tight enough that the partial path is genuinely exercised.
  EXPECT_GT(sawPartial, 0);
}

// Cross-engine equivalence fuzz: chrono must agree with minterm blocking,
// cube blocking, and the brute-force reference on random CNFs under random
// projection scopes — and additionally emit disjoint cubes and pass the
// BDD-oracle coverage audit.
TEST(ChronoProperty, MatchesBruteForceAndOtherEngines) {
  Rng rng(83);
  for (int iter = 0; iter < 120; ++iter) {
    int vars = static_cast<int>(rng.range(2, 9));
    Cnf cnf = testutil::randomCnf(rng, vars, static_cast<int>(rng.range(1, 18)));
    std::vector<Var> projection;
    for (Var v = 0; v < vars; ++v) {
      if (rng.chance(1, 2)) projection.push_back(v);
    }
    std::set<uint64_t> expected = bruteForceProjectedSolutions(cnf, projection);

    AllSatResult r = chronoAllSat(cnf, projection, {});
    ASSERT_TRUE(r.complete);
    EXPECT_EQ(cubesToMinterms(r.cubes, projection.size()), expected) << "iter " << iter;
    EXPECT_EQ(r.mintermCount.toU64(), expected.size()) << "iter " << iter;
    EXPECT_TRUE(cubesPairwiseDisjoint(r.cubes)) << "iter " << iter;
    EXPECT_EQ(r.stats.blockingClauses, 0u);

    AllSatResult minterm = blockingAllSat(cnf, projection);
    EXPECT_EQ(r.mintermCount, minterm.mintermCount) << "iter " << iter;
    EXPECT_EQ(r.mintermCount, successDrivenCnfCount(cnf, projection)) << "iter " << iter;

    AuditResult audit = auditChronoCubes(cnf, projection, r.cubes, r.complete);
    EXPECT_TRUE(audit.ok()) << "iter " << iter << "\n" << audit.toString();
  }
}

// Ablation: with implicant shrinking disabled the engine emits narrower
// (decision-prefix-only) cubes, but the enumerated set must be unchanged.
TEST(ChronoProperty, ShrinkDisabledStillExact) {
  Rng rng(91);
  for (int iter = 0; iter < 60; ++iter) {
    int vars = static_cast<int>(rng.range(2, 8));
    Cnf cnf = testutil::randomCnf(rng, vars, static_cast<int>(rng.range(1, 14)));
    std::vector<Var> projection;
    for (Var v = 0; v < vars; ++v) projection.push_back(v);

    AllSatOptions noShrink;
    noShrink.chronoShrink = false;
    AllSatResult plain = chronoAllSat(cnf, projection, noShrink);
    AllSatResult shrunk = chronoAllSat(cnf, projection, {});
    ASSERT_TRUE(plain.complete);
    ASSERT_TRUE(shrunk.complete);
    EXPECT_EQ(plain.mintermCount, shrunk.mintermCount) << "iter " << iter;
    EXPECT_EQ(cubesToMinterms(plain.cubes, projection.size()),
              cubesToMinterms(shrunk.cubes, projection.size()));
    EXPECT_TRUE(cubesPairwiseDisjoint(plain.cubes));
    // Shrinking can only widen cubes, never add enumeration steps.
    EXPECT_LE(shrunk.cubes.size(), plain.cubes.size());
  }
}

// THE property the engine exists for: the clause database never grows with
// the solution count. (x0 | x1) over n variables has 3 * 2^(n-2) solutions,
// yet chrono stores exactly that one clause at every n, while the minterm
// engine's database scales with the enumeration.
TEST(ChronoProperty, ClauseDatabaseStaysFlatAsSolutionsGrow) {
  for (int n = 4; n <= 10; ++n) {
    Cnf cnf(n);
    cnf.addBinary(mkLit(0), mkLit(1));
    std::vector<Var> projection;
    for (Var v = 0; v < n; ++v) projection.push_back(v);

    AllSatResult chrono = chronoAllSat(cnf, projection, {});
    ASSERT_TRUE(chrono.complete);
    EXPECT_EQ(chrono.mintermCount.toU64(), 3ull << (n - 2));
    EXPECT_EQ(chrono.stats.blockingClauses, 0u);
    EXPECT_EQ(chrono.stats.dbClausesPeak, 1u) << "n=" << n;
    EXPECT_EQ(chrono.metrics.counter("sat.db_clauses"), 1u);

    AllSatResult minterm = blockingAllSat(cnf, projection);
    EXPECT_EQ(minterm.mintermCount, chrono.mintermCount);
    // One blocking clause per projected minterm: peak >= solution count.
    EXPECT_GE(minterm.stats.dbClausesPeak, minterm.mintermCount.toU64());
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

// Generator-suite preimage equivalence: kChrono agrees with the success-driven
// and BDD engines on every circuit, serially and in parallel, and --jobs N is
// bit-identical for every N >= 1.
TEST(ChronoPreimage, MatchesOtherEnginesOnGeneratorSuite) {
  struct Fixture {
    const char* name;
    Netlist nl;
  };
  std::vector<Fixture> suite;
  suite.push_back({"counter:4", makeCounter(4)});
  suite.push_back({"gray:3", makeGrayCounter(3)});
  suite.push_back({"lfsr:4", makeLfsr(4)});
  suite.push_back({"arbiter:3", makeRoundRobinArbiter(3)});
  suite.push_back({"traffic", makeTrafficLight()});
  suite.push_back({"lock", makeCombinationLock({1, 2, 3}, 2)});

  for (const Fixture& fixture : suite) {
    TransitionSystem ts(fixture.nl);
    const int n = ts.numStateBits();
    StateSet target = StateSet::fromCube(n, {mkLit(0)});

    PreimageResult sd = computePreimage(ts, target, PreimageMethod::kSuccessDriven, {});
    PreimageResult bdd = computePreimage(ts, target, PreimageMethod::kBdd, {});
    PreimageResult serial = computePreimage(ts, target, PreimageMethod::kChrono, {});

    EXPECT_EQ(serial.stateCount, sd.stateCount) << fixture.name;
    EXPECT_EQ(serial.stateCount, bdd.stateCount) << fixture.name;
    EXPECT_TRUE(serial.complete) << fixture.name;
    EXPECT_TRUE(cubesPairwiseDisjoint(serial.states.cubes)) << fixture.name;
    EXPECT_TRUE(sameStates(serial.states, bdd.states)) << fixture.name;

    PreimageOptions one;
    one.allsat.parallel.jobs = 1;
    PreimageOptions four;
    four.allsat.parallel.jobs = 4;
    PreimageResult r1 = computePreimage(ts, target, PreimageMethod::kChrono, one);
    PreimageResult r4 = computePreimage(ts, target, PreimageMethod::kChrono, four);

    // Parallel shards partition the space, so the cube LIST differs from the
    // serial run — but jobs=1 vs jobs=4 must be bit-identical, and both must
    // denote the same state set with the same exact count.
    EXPECT_EQ(canonicalCubes(r1.states.cubes, n), canonicalCubes(r4.states.cubes, n))
        << fixture.name;
    EXPECT_EQ(r1.stateCount, r4.stateCount) << fixture.name;
    EXPECT_EQ(r1.stateCount, serial.stateCount) << fixture.name;
    EXPECT_TRUE(cubesPairwiseDisjoint(r1.states.cubes)) << fixture.name;
    EXPECT_TRUE(sameStates(r1.states, bdd.states)) << fixture.name;

    // The no-clause-growth property survives the parallel front-end: the
    // merged peak is the max across shards, each of which is flat.
    EXPECT_EQ(r1.stats.blockingClauses, 0u) << fixture.name;
    EXPECT_EQ(r1.stats.dbClausesPeak, r4.stats.dbClausesPeak) << fixture.name;
  }
}

// --- corruption death tests ---------------------------------------------------

TEST(ChronoAuditDeath, OverlappingCubesFailDisjointness) {
  Cnf cnf(3);
  cnf.addBinary(mkLit(0), mkLit(1));
  std::vector<Var> projection = {0, 1, 2};
  AllSatResult r = chronoAllSat(cnf, projection, {});
  ASSERT_TRUE(auditChronoCubes(cnf, projection, r.cubes, r.complete).ok());
  corruptChronoCubesForTest(r.cubes, ChronoCorruption::kDuplicateCube);
  EXPECT_DEATH(PRESAT_CHECK_AUDIT(auditChronoCubes(cnf, projection, r.cubes, r.complete)),
               "chrono\\.disjoint");
}

TEST(ChronoAuditDeath, DroppedCubeFailsCoverage) {
  Cnf cnf(3);
  cnf.addBinary(mkLit(0), mkLit(1));
  std::vector<Var> projection = {0, 1, 2};
  AllSatResult r = chronoAllSat(cnf, projection, {});
  ASSERT_GE(r.cubes.size(), 1u);
  corruptChronoCubesForTest(r.cubes, ChronoCorruption::kDropCube);
  EXPECT_DEATH(PRESAT_CHECK_AUDIT(auditChronoCubes(cnf, projection, r.cubes, r.complete)),
               "chrono\\.cover");
}

}  // namespace
}  // namespace presat
