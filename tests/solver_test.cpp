// CDCL solver tests: unit behaviour, assumptions, incrementality, and
// large-scale differential fuzzing against the reference DPLL solver.
#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "base/rng.hpp"
#include "check/audit_solver.hpp"
#include "cnf/cnf.hpp"
#include "cnf/dimacs.hpp"
#include "govern/governor.hpp"
#include "oracle/dpll.hpp"
#include "sat/proof.hpp"
#include "sat/solver.hpp"
#include "test_util.hpp"

namespace presat {
namespace {

TEST(Solver, EmptyFormulaIsSat) {
  Solver s;
  EXPECT_TRUE(s.solve().isTrue());
}

TEST(Solver, SingleUnit) {
  Solver s;
  Var v = s.newVar();
  s.addClause({mkLit(v)});
  ASSERT_TRUE(s.solve().isTrue());
  EXPECT_TRUE(s.modelValue(v));
}

TEST(Solver, ContradictoryUnitsAreUnsat) {
  Solver s;
  Var v = s.newVar();
  EXPECT_TRUE(s.addClause({mkLit(v)}));
  EXPECT_FALSE(s.addClause({~mkLit(v)}));
  EXPECT_FALSE(s.okay());
  EXPECT_TRUE(s.solve().isFalse());
}

TEST(Solver, SimpleImplicationChain) {
  Solver s;
  const int n = 50;
  for (int i = 0; i < n; ++i) s.newVar();
  s.addClause({mkLit(0)});
  for (int i = 0; i + 1 < n; ++i) s.addClause({~mkLit(i), mkLit(i + 1)});
  ASSERT_TRUE(s.solve().isTrue());
  for (int i = 0; i < n; ++i) EXPECT_TRUE(s.modelValue(static_cast<Var>(i)));
}

TEST(Solver, TautologyIsIgnored) {
  Solver s;
  Var v = s.newVar();
  s.newVar();
  EXPECT_TRUE(s.addClause({mkLit(v), ~mkLit(v)}));
  EXPECT_TRUE(s.solve().isTrue());
}

TEST(Solver, PigeonholeUnsat) {
  for (int holes : {2, 3, 4, 5}) {
    Solver s;
    Cnf php = testutil::pigeonhole(holes);
    s.addCnf(php);
    EXPECT_TRUE(s.solve().isFalse()) << "PHP(" << holes + 1 << "," << holes << ")";
  }
}

TEST(Solver, PigeonholeExactFitSat) {
  // n pigeons in n holes is satisfiable; encode by dropping one pigeon.
  int holes = 4;
  Cnf php = testutil::pigeonhole(holes);
  // Remove pigeon 0's clauses by forcing it out of every hole is wrong; build
  // a fresh exact-fit instance instead.
  Cnf cnf(holes * holes);
  auto var = [&](int p, int h) { return static_cast<Var>(p * holes + h); };
  for (int p = 0; p < holes; ++p) {
    Clause c;
    for (int h = 0; h < holes; ++h) c.push_back(mkLit(var(p, h)));
    cnf.addClause(c);
  }
  for (int h = 0; h < holes; ++h) {
    for (int p = 0; p < holes; ++p) {
      for (int q = p + 1; q < holes; ++q) cnf.addBinary(~mkLit(var(p, h)), ~mkLit(var(q, h)));
    }
  }
  Solver s;
  s.addCnf(cnf);
  ASSERT_TRUE(s.solve().isTrue());
  (void)php;
}

TEST(Solver, ModelSatisfiesFormula) {
  Rng rng(23);
  for (int iter = 0; iter < 100; ++iter) {
    Cnf cnf = testutil::randomCnf(rng, 20, 60);
    Solver s;
    if (!s.addCnf(cnf)) continue;
    if (!s.solve().isTrue()) continue;
    std::vector<bool> model(static_cast<size_t>(cnf.numVars()));
    for (Var v = 0; v < cnf.numVars(); ++v) model[static_cast<size_t>(v)] = s.modelValue(v);
    EXPECT_TRUE(cnf.evaluate(model)) << "iter " << iter;
  }
}

TEST(Solver, AssumptionsBasic) {
  Solver s;
  Var a = s.newVar();
  Var b = s.newVar();
  s.addClause({~mkLit(a), mkLit(b)});
  ASSERT_TRUE(s.solve({mkLit(a)}).isTrue());
  EXPECT_TRUE(s.modelValue(a));
  EXPECT_TRUE(s.modelValue(b));
  ASSERT_TRUE(s.solve({mkLit(a), ~mkLit(b)}).isFalse());
  // The solver must stay reusable after an assumption failure.
  ASSERT_TRUE(s.solve({~mkLit(a)}).isTrue());
  EXPECT_FALSE(s.modelValue(a));
}

TEST(Solver, IncrementalAddAfterSolve) {
  Solver s;
  Var a = s.newVar();
  Var b = s.newVar();
  s.addClause({mkLit(a), mkLit(b)});
  ASSERT_TRUE(s.solve().isTrue());
  // Block both variables' current values repeatedly: enumerates all 3 models.
  int models = 0;
  Solver s2;
  s2.newVar();
  s2.newVar();
  s2.addClause({mkLit(0), mkLit(1)});
  while (s2.solve().isTrue()) {
    ++models;
    LitVec block;
    for (Var v : {Var(0), Var(1)}) block.push_back(mkLit(v, s2.modelValue(v)));
    if (!s2.addClause(block)) break;
    ASSERT_LE(models, 3);
  }
  EXPECT_EQ(models, 3);
}

TEST(Solver, ConflictBudgetReturnsUndef) {
  Solver s;
  Cnf php = testutil::pigeonhole(7);  // hard enough to exceed a tiny budget
  s.addCnf(php);
  Budget budget;
  budget.conflictLimit = 5;
  Governor governor(budget);
  s.setGovernor(&governor);
  EXPECT_TRUE(s.solve().isUndef());
  EXPECT_EQ(governor.reason(), Outcome::kConflicts);
  // Detaching the governor solves it.
  s.setGovernor(nullptr);
  EXPECT_TRUE(s.solve().isFalse());
}

// modelValue() must refuse to fabricate a value: reading before any model
// exists, or reading an entry the search never assigned, is a caller bug.
TEST(SolverDeathTest, ModelValueBeforeSolveAborts) {
  Solver s;
  Var v = s.newVar();
  EXPECT_DEATH((void)s.modelValue(v), "without a model");
}

TEST(SolverDeathTest, ModelValueOnUnassignedEntryAborts) {
  Solver s;
  Var a = s.newVar();
  Var b = s.newVar();
  s.addClause({mkLit(a), mkLit(b)});
  // Projected-witness enumeration stops once the scope {a} satisfies every
  // clause, leaving b unassigned in the partial model.
  s.beginEnumeration({a}, /*projectedWitness=*/true);
  ASSERT_TRUE(s.enumerateNextModel().isTrue());
  ASSERT_TRUE(s.model()[static_cast<size_t>(b)].isUndef());
  EXPECT_DEATH((void)s.modelValue(b), "unassigned model entry");
  s.endEnumeration();
}

// Deferred scope variables are decided only once the rest of the scope is
// assigned, so every model, flipped regions included, stamps them at the
// deepest prefix levels.
TEST(Solver, DeferredScopeIsDecidedLast) {
  Solver s;
  for (int i = 0; i < 4; ++i) s.newVar();
  s.beginEnumeration({0, 1, 2, 3}, /*projectedWitness=*/false, /*deferred=*/{0, 2});
  int models = 0;
  while (s.enumerateNextModel().isTrue()) {
    ++models;
    ASSERT_EQ(s.scopePrefixLength(), 4);
    EXPECT_LT(std::max(s.levelOf(1), s.levelOf(3)), std::min(s.levelOf(0), s.levelOf(2)))
        << "model " << models;
    if (!s.flipToNextRegion(s.currentDecisionLevel())) break;
  }
  s.endEnumeration();
  EXPECT_EQ(models, 16);
}

TEST(SolverDeathTest, DeferredVariableOutsideScopeAborts) {
  Solver s;
  s.newVar();
  s.newVar();
  EXPECT_DEATH(s.beginEnumeration({0}, /*projectedWitness=*/false, /*deferred=*/{1}),
               "deferred variable x1 is not in the enumeration scope");
}

// An enumeration session has no proof hooks: the certificate proves a cover
// complete by replaying it through solve(), so a log attached to a session
// is a caller bug.
TEST(SolverDeath, EnumerationWithProofLogAborts) {
  Solver s;
  s.newVar();
  ProofLog log;
  s.setProofLog(&log);
  EXPECT_DEATH(s.beginEnumeration({0}), "beginEnumeration\\(\\) with a proof log attached");
}

// The central correctness test: the CDCL solver and the reference DPLL agree
// on SAT/UNSAT across thousands of random instances around the phase
// transition.
class SolverFuzz : public ::testing::TestWithParam<int> {};

TEST_P(SolverFuzz, AgreesWithDpll) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 977 + 13);
  for (int iter = 0; iter < 300; ++iter) {
    int vars = static_cast<int>(rng.range(1, 14));
    int clauses = static_cast<int>(rng.range(1, vars * 5));
    Cnf cnf = testutil::randomCnf(rng, vars, clauses);
    bool expected = dpllIsSat(cnf);
    Solver s;
    bool loaded = s.addCnf(cnf);
    bool actual = loaded && s.solve().isTrue();
    {
      // Deep structural audit of the solver state after every solve.
      AuditResult audit = auditSolver(s);
      ASSERT_TRUE(audit.ok()) << audit.toString();
    }
    ASSERT_EQ(actual, expected) << "seed-group " << GetParam() << " iter " << iter << "\n"
                                << toDimacsString(cnf);
    if (actual) {
      std::vector<bool> model(static_cast<size_t>(vars));
      for (Var v = 0; v < vars; ++v) model[static_cast<size_t>(v)] = s.modelValue(v);
      EXPECT_TRUE(cnf.evaluate(model));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SolverFuzz, ::testing::Range(0, 10));

// Stress: hard instances near the 3-SAT phase transition exercise restarts,
// clause deletion, and activity rescaling; results must be stable under a
// renaming of the variables (which changes the whole search) and models must
// check out.
TEST(SolverStress, PhaseTransitionStability) {
  Rng rng(701);
  for (int inst = 0; inst < 8; ++inst) {
    const int vars = 120;
    Cnf cnf(vars);
    for (int i = 0; i < static_cast<int>(vars * 4.2); ++i) {
      Clause c;
      while (c.size() < 3) {
        Lit l = mkLit(static_cast<Var>(rng.below(vars)), rng.flip());
        bool dup = false;
        for (Lit e : c) dup = dup || e.var() == l.var();
        if (!dup) c.push_back(l);
      }
      cnf.addClause(c);
    }
    Solver first;
    first.addCnf(cnf);
    lbool a = first.solve();
    // Variable v becomes perm[v] with its polarity flipped.
    std::vector<Var> perm(static_cast<size_t>(vars));
    for (Var v = 0; v < vars; ++v) perm[static_cast<size_t>(v)] = v;
    for (size_t i = perm.size() - 1; i > 0; --i) std::swap(perm[i], perm[rng.below(i + 1)]);
    Cnf renamed(vars);
    for (const Clause& c : cnf.clauses()) {
      Clause r;
      for (Lit l : c) r.push_back(mkLit(perm[static_cast<size_t>(l.var())], !l.sign()));
      renamed.addClause(r);
    }
    Solver second;
    second.addCnf(renamed);
    lbool b = second.solve();
    ASSERT_FALSE(a.isUndef());
    ASSERT_FALSE(b.isUndef());
    EXPECT_EQ(a.isTrue(), b.isTrue()) << "instance " << inst;
    if (first.solve().isTrue()) {
      std::vector<bool> model(static_cast<size_t>(vars));
      for (Var v = 0; v < vars; ++v) model[static_cast<size_t>(v)] = first.modelValue(v);
      EXPECT_TRUE(cnf.evaluate(model));
    }
    if (second.solve().isTrue()) {
      std::vector<bool> model(static_cast<size_t>(vars));
      for (Var v = 0; v < vars; ++v) {
        model[static_cast<size_t>(v)] = !second.modelValue(perm[static_cast<size_t>(v)]);
      }
      EXPECT_TRUE(cnf.evaluate(model));
    }
  }
}

TEST(SolverStress, ManyIncrementalBlocksStayConsistent) {
  // Enumerate a few hundred models with blocking clauses and confirm the
  // final UNSAT is genuine by re-solving the accumulated formula fresh.
  Rng rng(703);
  Cnf cnf = testutil::randomCnf(rng, 9, 12);
  Solver incremental;
  incremental.addCnf(cnf);
  Cnf accumulated = cnf;
  int models = 0;
  while (incremental.solve().isTrue()) {
    LitVec block;
    for (Var v = 0; v < 9; ++v) block.push_back(mkLit(v, incremental.modelValue(v)));
    accumulated.addClause(block);
    ASSERT_LE(++models, 512);
    // addClause may detect UNSAT immediately once the last model is blocked.
    if (!incremental.addClause(block)) break;
    // The enumeration loop is exactly where watch/trail corruption would
    // accumulate — deep-audit the solver after every blocking clause.
    AuditResult audit = auditSolver(incremental);
    ASSERT_TRUE(audit.ok()) << "after model " << models << ":\n" << audit.toString();
  }
  Solver fresh;
  fresh.addCnf(accumulated);
  EXPECT_TRUE(fresh.solve().isFalse());
  EXPECT_EQ(models, static_cast<int>(bruteForceModelCount(cnf)));
}

// Repeated solving with assumptions agrees with solving a copy with the
// assumptions added as units.
TEST(SolverProperty, AssumptionsMatchUnitCopies) {
  Rng rng(101);
  for (int iter = 0; iter < 150; ++iter) {
    int vars = static_cast<int>(rng.range(2, 10));
    Cnf cnf = testutil::randomCnf(rng, vars, static_cast<int>(rng.range(1, 25)));
    Solver incremental;
    if (!incremental.addCnf(cnf)) {
      // Root-level UNSAT: any assumption set must also be UNSAT.
      EXPECT_TRUE(incremental.solve({mkLit(0)}).isFalse());
      continue;
    }
    for (int q = 0; q < 5; ++q) {
      LitVec assumptions;
      for (Var v = 0; v < vars; ++v) {
        if (rng.chance(1, 3)) assumptions.push_back(mkLit(v, rng.flip()));
      }
      Cnf withUnits = cnf;
      for (Lit l : assumptions) withUnits.addUnit(l);
      bool expected = dpllIsSat(withUnits);
      lbool got = incremental.solve(assumptions);
      ASSERT_FALSE(got.isUndef());
      EXPECT_EQ(got.isTrue(), expected) << "iter " << iter << " query " << q;
    }
  }
}

// Regression: the learnt-DB limit used to be initialized once and then grown
// on every restart of every incremental call, so after a few dozen calls the
// limit outran the database and reduceDB never fired again — learnt clauses
// accumulated without bound across a long enumeration run. The limit is now
// recomputed per solve() call. The workload is a hard satisfiable 3-SAT
// instance queried under many random assumption sets: its learnts are never
// satisfied at level 0, so only reduceDB can keep the database bounded.
TEST(SolverRegression, ReduceDbKeepsFiringAcrossIncrementalSolves) {
  Rng rng(404);
  const int vars = 150;
  Solver s;
  for (int i = 0; i < vars; ++i) s.newVar();
  int added = 0;
  while (added < static_cast<int>(vars * 4.0)) {
    Clause c;
    while (c.size() < 3) {
      Lit l = mkLit(static_cast<Var>(rng.below(vars)), rng.flip());
      bool dup = false;
      for (Lit e : c) dup = dup || e.var() == l.var();
      if (!dup) c.push_back(l);
    }
    ASSERT_TRUE(s.addClause(c));
    ++added;
  }
  for (int q = 0; q < 100; ++q) {
    LitVec assumptions;
    for (int k = 0; k < 12; ++k) {
      assumptions.push_back(mkLit(static_cast<Var>(rng.below(vars)), rng.flip()));
    }
    ASSERT_FALSE(s.solve(assumptions).isUndef());
  }
  EXPECT_GT(s.stats().conflicts, 1000u);  // the workload must actually be hard
  EXPECT_GE(s.stats().reduceDBs, 1u);
  EXPECT_GT(s.stats().deletedClauses, 0u);
  // The per-call limit is max(numOriginal/3, 1000) = 1000 here (plus modest
  // in-call growth). Without the fix the database holds every conflict's
  // clause — far above this bound.
  EXPECT_LT(s.numLearnts(), 1500u);
}

}  // namespace
}  // namespace presat
