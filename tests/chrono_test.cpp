// Chronological-backtracking enumeration tests (src/allsat/chrono_blocking):
// the engine must match every other engine's projected solution set exactly,
// emit pairwise-disjoint cubes, and — the property that motivates it — keep
// the clause database flat no matter how many solutions it enumerates.
#include <gtest/gtest.h>

#include <algorithm>
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
#include "govern/governor.hpp"
#include "preimage/preimage.hpp"
#include "preimage/target.hpp"
#include "preimage/transition_system.hpp"
#include "oracle/dpll.hpp"
#include "test_util.hpp"
#include "../bench/bench_util.hpp"

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
  // 8 isolated solutions: shrinking cannot widen them, so the enumeration is
  // minterm-grained and actually runs into the cap.
  Cnf cnf = testutil::oddParity(4);
  AllSatOptions opts;
  opts.maxCubes = 5;
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
  Budget budget;
  budget.conflictLimit = 10;
  Governor governor(budget);
  AllSatOptions opts;
  opts.governor = &governor;
  AllSatResult r = chronoAllSat(cnf, {0, 1, 2, 3, 4, 5}, opts);
  EXPECT_FALSE(r.complete);
  EXPECT_EQ(r.outcome, Outcome::kConflicts);
  EXPECT_EQ(r.metrics.label("outcome"), "conflicts");
  // The formula is UNSAT, so a sound partial answer has no cubes at all.
  EXPECT_TRUE(r.cubes.empty());
  EXPECT_TRUE(r.mintermCount.isZero());
  // With a budget far above the refutation cost the same run completes.
  budget.conflictLimit = 1u << 20;
  Governor roomy(budget);
  opts.governor = &roomy;
  AllSatResult full = chronoAllSat(cnf, {0, 1, 2, 3, 4, 5}, opts);
  EXPECT_TRUE(full.complete);
  EXPECT_EQ(full.outcome, Outcome::kComplete);
  EXPECT_TRUE(full.mintermCount.isZero());
}

// Satisfiable formulas under a starvation-level conflict cap: whatever cube
// prefix the engine managed to emit must be a sound under-approximation —
// pairwise disjoint, a subset of the brute-force solution set, count a lower
// bound — with the reason code distinguishing partial from complete.
TEST(ChronoProperty, ConflictBudgetPartialsAreSoundUnderApproximations) {
  Rng rng(57);
  int sawPartial = 0;
  for (int iter = 0; iter < 80; ++iter) {
    int vars = static_cast<int>(rng.range(3, 9));
    Cnf cnf = testutil::randomCnf(rng, vars, static_cast<int>(rng.range(4, 24)));
    std::vector<Var> projection;
    for (Var v = 0; v < vars; ++v) projection.push_back(v);
    std::set<uint64_t> exact = bruteForceProjectedSolutions(cnf, projection);

    Budget budget;
    budget.conflictLimit = 1 + rng.range(0, 2);
    Governor governor(budget);
    AllSatOptions opts;
    opts.governor = &governor;
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
// and BDD engines on every circuit, and never splits, so --jobs N returns the
// serial cover cube for cube. The random circuits are where the circuit
// widening drops the most scope literals.
TEST(ChronoPreimage, MatchesOtherEnginesOnGeneratorSuite) {
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
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    Netlist nl = benchutil::randomBench(5, 12, 150, seed);
    StateSet target = benchutil::reachableCube(nl, 4, 500 + seed);
    suite.push_back({"rand12x150:" + std::to_string(seed), std::move(nl), std::move(target)});
  }

  for (const Fixture& fixture : suite) {
    TransitionSystem ts(fixture.nl);
    const int n = ts.numStateBits();
    const StateSet& target = fixture.target;

    PreimageResult sd = computePreimage(ts, target, PreimageMethod::kSuccessDriven, {});
    PreimageResult bdd = computePreimage(ts, target, PreimageMethod::kBdd, {});
    PreimageResult serial = computePreimage(ts, target, PreimageMethod::kChrono, {});

    EXPECT_EQ(serial.stateCount, sd.stateCount) << fixture.name;
    EXPECT_EQ(serial.stateCount, bdd.stateCount) << fixture.name;
    EXPECT_TRUE(serial.complete) << fixture.name;
    EXPECT_TRUE(cubesPairwiseDisjoint(serial.states.cubes)) << fixture.name;
    EXPECT_TRUE(sameStates(serial.states, bdd.states)) << fixture.name;

    for (int jobs : {1, 4}) {
      PreimageOptions options;
      options.allsat.parallel.jobs = jobs;
      PreimageResult r = computePreimage(ts, target, PreimageMethod::kChrono, options);
      EXPECT_EQ(canonicalCubes(r.states.cubes, n), canonicalCubes(serial.states.cubes, n))
          << fixture.name << " jobs=" << jobs;
      EXPECT_EQ(r.stateCount, serial.stateCount) << fixture.name << " jobs=" << jobs;
      EXPECT_TRUE(r.guides.empty()) << fixture.name << " jobs=" << jobs;
      EXPECT_EQ(r.stats.blockingClauses, 0u) << fixture.name << " jobs=" << jobs;
      EXPECT_EQ(r.stats.dbClausesPeak, serial.stats.dbClausesPeak)
          << fixture.name << " jobs=" << jobs;
    }
  }
}

// Circuit widening is what makes chrono's covers cube-sized on random logic:
// the CNF-level prefix scan it replaced emitted one cube per state on these
// Table 1 rows (rand16x240: 60 288 states; lfsr12: 512).
TEST(ChronoPreimage, WideningShrinksRandomCovers) {
  struct Bound {
    const char* name;
    size_t plainCubes;
    size_t projectedCubes;
  };
  const Bound bounds[] = {{"rand16x240", 2000, 160}, {"lfsr12", 16, 16}};
  const std::vector<benchutil::BenchCase> suite = benchutil::standardSuite();
  for (const Bound& bound : bounds) {
    auto it = std::find_if(suite.begin(), suite.end(), [&bound](const benchutil::BenchCase& c) {
      return c.name == bound.name;
    });
    ASSERT_NE(it, suite.end()) << bound.name;
    TransitionSystem ts(it->netlist);
    PreimageResult bdd = computePreimage(ts, it->target, PreimageMethod::kBdd);
    PreimageResult plain = computePreimage(ts, it->target, PreimageMethod::kChrono);
    PreimageOptions projOpts;
    projOpts.allsat.project = true;
    projOpts.allsat.compress = true;
    PreimageResult proj = computePreimage(ts, it->target, PreimageMethod::kChrono, projOpts);

    EXPECT_EQ(plain.stateCount, bdd.stateCount) << bound.name;
    EXPECT_EQ(proj.stateCount, bdd.stateCount) << bound.name;
    EXPECT_LE(plain.states.cubes.size(), bound.plainCubes) << bound.name;
    EXPECT_LE(proj.states.cubes.size(), bound.projectedCubes) << bound.name;
    EXPECT_GT(plain.stats.widenSims, 0u) << bound.name;
    EXPECT_EQ(plain.metrics.counter("chrono.widen_sims"), plain.stats.widenSims) << bound.name;
  }
}

// Each scope position is one cube position, so a repeated scope variable
// would be counted once per position: chrono refuses it at every `jobs`.
// Blocking keeps accepting repeats (image projects onto
// repeated variables), where the repeated position simply mirrors the first.
TEST(ChronoDeath, RepeatedScopeVariableIsRejected) {
  Cnf cnf(3);
  cnf.addBinary(mkLit(0), mkLit(1));
  const std::vector<Var> scope{0, 1, 0, 2};
  EXPECT_DEATH(chronoAllSat(cnf, scope, {}), "chrono scope lists x0 twice");
  AllSatOptions parallel;
  parallel.parallel.jobs = 2;
  EXPECT_DEATH(chronoAllSat(cnf, scope, parallel), "chrono scope lists x0 twice");
}

TEST(Chrono, BlockingStillAcceptsARepeatedScopeVariable) {
  Cnf cnf(3);
  cnf.addBinary(mkLit(0), mkLit(1));
  AllSatResult repeated = blockingAllSat(cnf, {0, 1, 0, 2});
  ASSERT_TRUE(repeated.complete);
  EXPECT_EQ(repeated.mintermCount.toU64(), 6u);
  for (const LitVec& cube : repeated.cubes) {
    ASSERT_EQ(cube.size(), 4u);
    EXPECT_EQ(cube[0].sign(), cube[2].sign());
  }
  EXPECT_EQ(repeated.mintermCount, chronoAllSat(cnf, {0, 1, 2}, {}).mintermCount);
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
