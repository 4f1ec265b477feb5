// Arena clause storage, LBD-tiered retention, and the shared preprocessing
// pass: compaction fuzz against a shadow map, determinism of the retention
// policy (same formula => bit-identical search),
// compaction during an active chronological enumeration session, and
// preprocess-then-solve equivalence against brute force.
#include <gtest/gtest.h>

#include <set>

#include "allsat/blocking.hpp"
#include "allsat/chrono_blocking.hpp"
#include "allsat/projection.hpp"
#include "base/rng.hpp"
#include "check/audit_solver.hpp"
#include "cnf/preprocess.hpp"
#include "sat/clause_arena.hpp"
#include "oracle/dpll.hpp"
#include "sat/solver.hpp"
#include "test_util.hpp"

namespace presat {
namespace {

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

// ---------------------------------------------------------------------------
// Arena compaction fuzz: random alloc / free / compact cycles, with every
// live clause mirrored in a shadow vector. After each compaction the arena
// must reproduce the shadow exactly — literals, learnt flag, used bit, LBD,
// and activity — and an aliased second ref must follow the forwarding ref to
// the same relocated address.

struct ShadowClause {
  LitVec lits;
  bool learnt = false;
  bool used = false;
  uint32_t lbd = 0;
  float activity = 0.0f;
  bool alive = false;
};

void checkAgainstShadow(const ClauseArena& arena, const std::vector<ClauseRef>& refs,
                        const std::vector<ShadowClause>& shadow) {
  for (size_t i = 0; i < shadow.size(); ++i) {
    if (!shadow[i].alive) continue;
    ClauseRef r = refs[i];
    ASSERT_FALSE(arena.dead(r)) << "live clause " << i << " marked dead";
    ASSERT_EQ(arena.size(r), shadow[i].lits.size()) << "clause " << i;
    EXPECT_EQ(arena.learnt(r), shadow[i].learnt) << "clause " << i;
    EXPECT_EQ(arena.used(r), shadow[i].used) << "clause " << i;
    for (size_t k = 0; k < shadow[i].lits.size(); ++k) {
      EXPECT_EQ(arena.lit(r, static_cast<uint32_t>(k)), shadow[i].lits[k])
          << "clause " << i << " lit " << k;
    }
    if (shadow[i].learnt) {
      EXPECT_EQ(arena.lbd(r), shadow[i].lbd) << "clause " << i;
      EXPECT_EQ(arena.activity(r), shadow[i].activity) << "clause " << i;
    }
  }
}

TEST(ClauseArena, CompactionFuzzVsShadowMap) {
  Rng rng(20260808);
  for (int round = 0; round < 10; ++round) {
    ClauseArena arena;
    std::vector<ClauseRef> refs;
    std::vector<ShadowClause> shadow;
    size_t liveCount = 0;

    for (int step = 0; step < 3000; ++step) {
      uint64_t action = rng.below(100);
      if (action < 55 || liveCount == 0) {
        ShadowClause sc;
        sc.alive = true;
        sc.learnt = rng.flip();
        int len = static_cast<int>(rng.range(1, 8));
        for (int k = 0; k < len; ++k) {
          sc.lits.push_back(mkLit(static_cast<Var>(rng.below(64)), rng.flip()));
        }
        ClauseRef r = arena.alloc(sc.lits.data(), static_cast<uint32_t>(sc.lits.size()),
                                  sc.learnt);
        if (sc.learnt) {
          sc.lbd = static_cast<uint32_t>(rng.below(30));
          sc.activity = static_cast<float>(rng.below(1000)) * 0.5f;
          arena.setLbd(r, sc.lbd);
          arena.setActivity(r, sc.activity);
        }
        if (rng.flip()) {
          sc.used = true;
          arena.setUsed(r, true);
        }
        refs.push_back(r);
        shadow.push_back(sc);
        ++liveCount;
      } else if (action < 90) {
        size_t i = rng.below(shadow.size());
        if (shadow[i].alive) {
          arena.free(refs[i]);
          shadow[i].alive = false;
          --liveCount;
        }
      } else {
        // Compact: relocate every live ref, plus an aliased copy of each to
        // prove the forwarding path resolves to the same new address.
        std::vector<ClauseRef> aliases = refs;
        ClauseArena to;
        to.reserveWords(arena.sizeWords() - arena.wastedWords());
        for (size_t i = 0; i < refs.size(); ++i) {
          if (shadow[i].alive) arena.reloc(refs[i], to);
        }
        for (size_t i = 0; i < aliases.size(); ++i) {
          if (shadow[i].alive) {
            arena.reloc(aliases[i], to);
            EXPECT_EQ(aliases[i], refs[i]) << "forwarding diverged for clause " << i;
          }
        }
        arena = std::move(to);
        EXPECT_EQ(arena.wastedWords(), 0u);
        checkAgainstShadow(arena, refs, shadow);
      }
    }
    // Final compaction + verification so every round ends with a full check.
    ClauseArena to;
    for (size_t i = 0; i < refs.size(); ++i) {
      if (shadow[i].alive) arena.reloc(refs[i], to);
    }
    arena = std::move(to);
    checkAgainstShadow(arena, refs, shadow);
  }
}

// ---------------------------------------------------------------------------
// LBD retention determinism: the reduceDB policy (glue immortality, used-bit
// second chance, lbd/activity/insertion-order tie-breaks) must be a pure
// function of the formula — two fresh solvers on the same input produce
// bit-identical search statistics, including after arena compactions.

TEST(LbdRetention, SearchIsDeterministic) {
  // PHP(9,8): UNSAT with enough conflicts to trigger reduceDB sweeps and
  // (via deletions) arena compactions.
  Cnf hard = testutil::pigeonhole(8);

  SolverStats first;
  for (int run = 0; run < 2; ++run) {
    Solver s;
    s.addCnf(hard);
    EXPECT_TRUE(s.solve().isFalse());
    const SolverStats& st = s.stats();
    EXPECT_GT(st.reduceDBs, 0u) << "instance too easy to exercise retention";
    EXPECT_GT(st.deletedClauses, 0u);
    if (run == 0) {
      first = st;
    } else {
      EXPECT_EQ(st.decisions, first.decisions);
      EXPECT_EQ(st.propagations, first.propagations);
      EXPECT_EQ(st.conflicts, first.conflicts);
      EXPECT_EQ(st.restarts, first.restarts);
      EXPECT_EQ(st.learntClauses, first.learntClauses);
      EXPECT_EQ(st.deletedClauses, first.deletedClauses);
      EXPECT_EQ(st.reduceDBs, first.reduceDBs);
      EXPECT_EQ(st.arenaCompactions, first.arenaCompactions);
    }
  }
}

TEST(LbdRetention, RandomSatInstancesStayCorrect) {
  Rng rng(4242);
  for (int iter = 0; iter < 40; ++iter) {
    int vars = static_cast<int>(rng.range(20, 60));
    Cnf cnf = testutil::randomCnf(rng, vars, vars * 3);
    Solver s;
    s.addCnf(cnf);
    lbool verdict = s.solve();
    ASSERT_FALSE(verdict.isUndef());
    EXPECT_EQ(verdict.isTrue(), dpllIsSat(cnf)) << "iter " << iter;
    if (verdict.isTrue()) {
      for (const Clause& c : cnf.clauses()) {
        bool sat = false;
        for (Lit l : c) sat = sat || s.modelValue(l);
        EXPECT_TRUE(sat) << "iter " << iter;
      }
    }
    EXPECT_TRUE(auditSolver(s).ok());
  }
}

// ---------------------------------------------------------------------------
// Compaction during an active chronological enumeration session: reason_
// refs of trail literals and the synthetic enumUnitReasons_ are compaction
// roots, so a stop-the-world collection between models must leave the
// session consistent (clean audit) and the final solution set exact.

TEST(ChronoEnumeration, CompactionMidSessionPreservesReasons) {
  Rng rng(9001);
  for (int iter = 0; iter < 30; ++iter) {
    int vars = static_cast<int>(rng.range(4, 12));
    Cnf cnf = testutil::randomCnf(rng, vars, static_cast<int>(rng.range(4, 30)));
    std::vector<Var> scope;
    for (Var v = 0; v < vars; ++v) scope.push_back(v);
    std::set<uint64_t> expected = bruteForceProjectedSolutions(cnf, scope);

    Solver s;
    s.addCnf(cnf);
    std::set<uint64_t> got;
    size_t models = 0;
    s.beginEnumeration(scope);
    while (s.enumerateNextModel().isTrue()) {
      ++models;
      uint64_t bits = 0;
      for (size_t i = 0; i < scope.size(); ++i) {
        if (s.modelValue(scope[i])) bits |= 1ull << i;
      }
      got.insert(bits);
      // Force a compaction with the enumeration trail live, then audit:
      // every reason ref (including the clamped-level unit reasons) must
      // have been relocated consistently.
      compactSolverForTest(s);
      AuditResult audit = auditSolver(s);
      EXPECT_TRUE(audit.ok()) << audit.toString();
      if (!s.flipToNextRegion(s.scopePrefixLength())) break;
    }
    s.endEnumeration();
    EXPECT_EQ(got, expected) << "iter " << iter;
    EXPECT_EQ(models, expected.size()) << "duplicate regions, iter " << iter;
    EXPECT_GE(s.stats().arenaCompactions, models);
    EXPECT_TRUE(auditSolver(s).ok());
  }
}

// ---------------------------------------------------------------------------
// Preprocessing: equivalence and structural guarantees.

TEST(Preprocess, PureLiteralElimination) {
  // x0 occurs only positively and is not frozen: both clauses are satisfied
  // by the forced pure literal, and the remaining vars become unconstrained.
  Cnf cnf(3);
  cnf.addBinary(mkLit(0), mkLit(1));
  cnf.addBinary(mkLit(0), ~mkLit(2));
  PreprocessedCnf pre = preprocessCnf(cnf, /*frozen=*/{});
  EXPECT_GE(pre.stats.pureLiterals, 1u);
  EXPECT_EQ(pre.cnf.numClauses(), 0u);
  // originalModel must extend any internal model into a genuine model of the
  // ORIGINAL formula: forced pure polarities satisfy every removed clause.
  std::vector<lbool> original = testutil::originalModel(
      pre, std::vector<lbool>(static_cast<size_t>(pre.cnf.numVars()), lbool(false)));
  ASSERT_EQ(original.size(), 3u);
  for (const Clause& c : cnf.clauses()) {
    bool sat = false;
    for (Lit l : c) sat = sat || (original[static_cast<size_t>(l.var())] ^ l.sign()).isTrue();
    EXPECT_TRUE(sat);
  }
}

TEST(Preprocess, FrozenVarsSurvivePureElimination) {
  Cnf cnf(2);
  cnf.addBinary(mkLit(0), mkLit(1));  // both pure positive
  PreprocessedCnf pre = preprocessCnf(cnf, /*frozen=*/{0, 1});
  EXPECT_EQ(pre.cnf.numVars(), 2);
  EXPECT_EQ(pre.cnf.numClauses(), 1u);
  EXPECT_EQ(pre.internalVar(0), 0);
  EXPECT_EQ(pre.internalVar(1), 1);
}

TEST(Preprocess, SubsumptionRemovesSupersets) {
  Cnf cnf(3);
  cnf.addBinary(mkLit(0), mkLit(1));
  cnf.addClause({mkLit(0), mkLit(1), mkLit(2)});
  cnf.addClause({~mkLit(0), ~mkLit(1), ~mkLit(2)});
  PreprocessedCnf pre = preprocessCnf(cnf, /*frozen=*/{0, 1, 2});
  EXPECT_EQ(pre.stats.subsumedClauses, 1u);
  EXPECT_EQ(pre.cnf.numClauses(), 2u);
}

TEST(Preprocess, RemapIsMonotoneAndInvertible) {
  Rng rng(515);
  for (int iter = 0; iter < 50; ++iter) {
    int vars = static_cast<int>(rng.range(3, 14));
    Cnf cnf = testutil::randomCnf(rng, vars, static_cast<int>(rng.range(2, 20)));
    std::vector<Var> frozen;
    for (Var v = 0; v < vars; ++v) {
      if (rng.chance(1, 3)) frozen.push_back(v);
    }
    PreprocessedCnf pre = preprocessCnf(cnf, frozen);
    // toOriginal is strictly increasing (monotone dense remap)...
    for (size_t i = 1; i < pre.toOriginal.size(); ++i) {
      EXPECT_LT(pre.toOriginal[i - 1], pre.toOriginal[i]);
    }
    // ...and inverse to internalVar on every kept var; frozen vars are kept.
    for (size_t i = 0; i < pre.toOriginal.size(); ++i) {
      EXPECT_EQ(pre.internalVar(pre.toOriginal[i]), static_cast<Var>(i));
    }
    for (Var v : frozen) EXPECT_NE(pre.internalVar(v), kNullVar);
  }
}

TEST(Preprocess, ThenSolveMatchesBruteForce) {
  Rng rng(321);
  for (int iter = 0; iter < 120; ++iter) {
    int vars = static_cast<int>(rng.range(2, 10));
    Cnf cnf = testutil::randomCnf(rng, vars, static_cast<int>(rng.range(1, 20)));
    std::vector<Var> projection;
    for (Var v = 0; v < vars; ++v) {
      if (rng.chance(1, 2)) projection.push_back(v);
    }
    std::set<uint64_t> expected = bruteForceProjectedSolutions(cnf, projection);

    // Both serial CNF engines on the preprocessed formula, over the scope
    // translated index by index: their cubes need no translation back.
    PreprocessedCnf pre = preprocessCnf(cnf, projection);
    const std::vector<Var> internal = pre.internalVars(projection);
    AllSatResult minterm = blockingAllSat(pre.cnf, internal);
    ASSERT_TRUE(minterm.complete);
    EXPECT_EQ(cubesToMinterms(minterm.cubes, projection.size()), expected)
        << "minterm, iter " << iter;
    EXPECT_EQ(minterm.mintermCount.toU64(), expected.size());
    EXPECT_TRUE(cubesPairwiseDisjoint(minterm.cubes));

    AllSatResult chrono = chronoAllSat(pre.cnf, internal, AllSatOptions{});
    ASSERT_TRUE(chrono.complete);
    EXPECT_EQ(cubesToMinterms(chrono.cubes, projection.size()), expected)
        << "chrono, iter " << iter;

    // Preprocessing must be observable-equal to the raw engine: the
    // projected index space is the same in both formulas.
    AllSatResult mintermRaw = blockingAllSat(cnf, projection);
    EXPECT_EQ(mintermRaw.mintermCount, minterm.mintermCount);
    EXPECT_EQ(cubesToMinterms(mintermRaw.cubes, projection.size()),
              cubesToMinterms(minterm.cubes, projection.size()));
  }
}

TEST(Preprocess, MetricsAreExported) {
  Cnf cnf(3);
  cnf.addBinary(mkLit(0), mkLit(1));
  cnf.addBinary(mkLit(0), ~mkLit(2));
  PreprocessedCnf pre = preprocessCnf(cnf, {0});
  AllSatResult r = blockingAllSat(pre.cnf, pre.internalVars({0}));
  ASSERT_TRUE(r.complete);
  EXPECT_EQ(r.mintermCount.toU64(), 2u);
  exportPreprocessMetrics(pre.stats, r.metrics);
  EXPECT_EQ(r.metrics.counter("preprocess.vars_before"), 3u);
  EXPECT_GE(r.metrics.counter("preprocess.pure_literals"), 1u);
  EXPECT_LE(r.metrics.counter("preprocess.vars_after"),
            r.metrics.counter("preprocess.vars_before"));
}

// ---------------------------------------------------------------------------
// Minterm blocking and chrono on a preprocessed formula enumerate exactly
// the brute-force projected solution set of the original formula.

TEST(PreprocessedEnumeration, MatchesBruteForce) {
  Rng rng(777);
  for (int iter = 0; iter < 12; ++iter) {
    int vars = static_cast<int>(rng.range(4, 11));
    Cnf cnf = testutil::randomCnf(rng, vars, static_cast<int>(rng.range(3, 24)));
    std::vector<Var> projection;
    for (Var v = 0; v < vars; ++v) {
      if (rng.chance(2, 3)) projection.push_back(v);
    }
    if (projection.empty()) projection.push_back(0);
    std::set<uint64_t> expected = bruteForceProjectedSolutions(cnf, projection);
    PreprocessedCnf pre = preprocessCnf(cnf, projection);
    const std::vector<Var> internal = pre.internalVars(projection);

    for (bool chrono : {false, true}) {
      AllSatResult r =
          chrono ? chronoAllSat(pre.cnf, internal, {}) : blockingAllSat(pre.cnf, internal);
      ASSERT_TRUE(r.complete);
      EXPECT_EQ(r.mintermCount.toU64(), expected.size()) << "chrono " << chrono << ", iter " << iter;
      EXPECT_EQ(cubesToMinterms(r.cubes, projection.size()), expected)
          << "chrono " << chrono << ", iter " << iter;
    }
  }
}

}  // namespace
}  // namespace presat
