// Tests for the src/check/ audit subsystem: clean structures audit clean, and
// each deliberate corruption fires exactly the named diagnostic it targets.
// The death tests additionally prove the PRESAT_CHECK_AUDIT wiring aborts
// with the invariant name in the message.
#include <gtest/gtest.h>

#include "allsat/success_driven.hpp"
#include "base/rng.hpp"
#include "bdd/bdd.hpp"
#include "check/audit_bdd.hpp"
#include "check/audit_netlist.hpp"
#include "check/audit_solution_graph.hpp"
#include "check/audit_solver.hpp"
#include "gen/generators.hpp"
#include "sat/solver.hpp"
#include "test_util.hpp"

namespace presat {
namespace {

// --- solver -------------------------------------------------------------------

// Builds a solver with learnt clauses, a populated trail, and live watch
// lists: pigeonhole forces conflicts, the trailing unit keeps the trail
// non-empty at level 0 after the final solve.
void setupBusySolver(Solver& s) {
  s.addCnf(testutil::pigeonhole(3));
  Var extra = s.newVar();
  s.addClause({mkLit(extra)});
  EXPECT_TRUE(s.solve({mkLit(extra)}).isFalse());
}

TEST(AuditSolver, CleanSolverPasses) {
  Solver s;
  setupBusySolver(s);
  AuditResult r = auditSolver(s);
  EXPECT_TRUE(r.ok()) << r.toString();
}

TEST(AuditSolver, CleanRandomInstancesPass) {
  Rng rng(71);
  for (int iter = 0; iter < 20; ++iter) {
    Solver s;
    if (!s.addCnf(testutil::randomCnf(rng, 12, 40))) continue;
    (void)s.solve();
    AuditResult r = auditSolver(s);
    EXPECT_TRUE(r.ok()) << r.toString();
  }
}

TEST(AuditSolver, DetectsSwappedWatchedLiteral) {
  Solver s;
  setupBusySolver(s);
  corruptSolverForTest(s, SolverCorruption::kSwapWatchedLiteral);
  EXPECT_TRUE(auditSolver(s).has("solver.watch.pair"));
}

TEST(AuditSolver, DetectsDroppedWatcher) {
  Solver s;
  setupBusySolver(s);
  corruptSolverForTest(s, SolverCorruption::kDropWatcher);
  EXPECT_TRUE(auditSolver(s).has("solver.watch.pair"));
}

TEST(AuditSolver, DetectsLearntCountDrift) {
  Solver s;
  setupBusySolver(s);
  corruptSolverForTest(s, SolverCorruption::kLearntCountDrift);
  EXPECT_TRUE(auditSolver(s).has("solver.learnt.count"));
}

TEST(AuditSolver, DetectsTrailLevelSkew) {
  Solver s;
  setupBusySolver(s);
  corruptSolverForTest(s, SolverCorruption::kTrailLevelSkew);
  EXPECT_TRUE(auditSolver(s).has("solver.trail.level"));
}

TEST(AuditSolver, DetectsReasonFirstLiteral) {
  // {x, y} then the unit {~x}: propagation implies y with reason {x, y},
  // stored with lits[0] == y. The corruption swaps the watched pair in
  // place, so only the reason invariant can fire.
  Solver s;
  Var x = s.newVar();
  Var y = s.newVar();
  s.addClause({mkLit(x), mkLit(y)});
  s.addClause({~mkLit(x)});
  ASSERT_TRUE(s.solve().isTrue());
  ASSERT_TRUE(auditSolver(s).ok());
  corruptSolverForTest(s, SolverCorruption::kReasonFirstLiteral);
  AuditResult r = auditSolver(s);
  EXPECT_TRUE(r.has("solver.reason.implied")) << r.toString();
  EXPECT_FALSE(r.has("solver.watch.pair")) << r.toString();
}

TEST(AuditSolverDeathTest, CheckAuditAbortsWithInvariantName) {
  Solver s;
  setupBusySolver(s);
  corruptSolverForTest(s, SolverCorruption::kDropWatcher);
  EXPECT_DEATH(PRESAT_CHECK_AUDIT(auditSolver(s)), "solver\\.watch\\.pair");
}

// --- netlist ------------------------------------------------------------------

TEST(AuditNetlist, CleanGeneratorsPass) {
  for (const Netlist& nl :
       {makeCounter(4), makeGrayCounter(3), makeTrafficLight(), makeRoundRobinArbiter(3)}) {
    AuditResult r = auditNetlist(nl);
    EXPECT_TRUE(r.ok()) << r.toString();
  }
}

TEST(AuditNetlist, DetectsSelfLoop) {
  Netlist nl = makeCounter(4);
  corruptNetlistForTest(nl, NetlistCorruption::kSelfLoop);
  EXPECT_TRUE(auditNetlist(nl).has("netlist.acyclic"));
}

TEST(AuditNetlist, DetectsArityViolation) {
  Netlist nl = makeCounter(4);
  corruptNetlistForTest(nl, NetlistCorruption::kArity);
  EXPECT_TRUE(auditNetlist(nl).has("netlist.arity"));
}

TEST(AuditNetlist, DetectsDisconnectedDffData) {
  Netlist nl = makeCounter(4);
  corruptNetlistForTest(nl, NetlistCorruption::kDffData);
  EXPECT_TRUE(auditNetlist(nl).has("netlist.dff.data"));
}

TEST(AuditNetlist, DetectsNameMapSkew) {
  Netlist nl = makeCounter(4);
  corruptNetlistForTest(nl, NetlistCorruption::kNameMapSkew);
  EXPECT_TRUE(auditNetlist(nl).has("netlist.name.map"));
}

TEST(AuditNetlistDeathTest, CheckAuditAbortsWithInvariantName) {
  Netlist nl = makeCounter(4);
  corruptNetlistForTest(nl, NetlistCorruption::kSelfLoop);
  EXPECT_DEATH(PRESAT_CHECK_AUDIT(auditNetlist(nl)), "netlist\\.acyclic");
}

// --- BDD ----------------------------------------------------------------------

// A manager with interior nodes on every variable and a warm ITE cache.
void setupBusyBdd(BddManager& mgr) {
  BddRef f = mgr.constant(false);
  for (Var v = 0; v < 4; ++v) f = mgr.bddXor(f, mgr.variable(v));
  BddRef g = mgr.bddAnd(mgr.variable(0), mgr.bddOr(mgr.variable(2), mgr.bddNot(mgr.variable(3))));
  (void)mgr.ite(f, g, mgr.bddNot(g));
}

TEST(AuditBdd, CleanManagerPasses) {
  BddManager mgr(4);
  setupBusyBdd(mgr);
  AuditResult r = auditBdd(mgr);
  EXPECT_TRUE(r.ok()) << r.toString();
}

TEST(AuditBdd, DetectsOrderViolation) {
  BddManager mgr(4);
  setupBusyBdd(mgr);
  corruptBddForTest(mgr, BddCorruption::kOrderViolation);
  EXPECT_TRUE(auditBdd(mgr).has("bdd.ordering"));
}

TEST(AuditBdd, DetectsRedundantNode) {
  BddManager mgr(4);
  setupBusyBdd(mgr);
  corruptBddForTest(mgr, BddCorruption::kRedundantNode);
  EXPECT_TRUE(auditBdd(mgr).has("bdd.reduced"));
}

TEST(AuditBdd, DetectsUniqueTableDrift) {
  BddManager mgr(4);
  setupBusyBdd(mgr);
  corruptBddForTest(mgr, BddCorruption::kUniqueTableDrift);
  AuditResult r = auditBdd(mgr);
  EXPECT_TRUE(r.has("bdd.unique.balance") || r.has("bdd.unique.canonical")) << r.toString();
}

TEST(AuditBddDeathTest, CheckAuditAbortsWithInvariantName) {
  BddManager mgr(4);
  setupBusyBdd(mgr);
  corruptBddForTest(mgr, BddCorruption::kRedundantNode);
  EXPECT_DEATH(PRESAT_CHECK_AUDIT(auditBdd(mgr)), "bdd\\.reduced");
}

// --- solution graph -----------------------------------------------------------

TEST(AuditSolutionGraph, CleanEngineOutputPasses) {
  Netlist nl = makeCounter(3);
  CircuitAllSatProblem p;
  p.netlist = &nl;
  p.objectives = {{nl.dffData(nl.dffs()[0]), true}};
  for (NodeId d : nl.dffs()) p.projectionSources.push_back(d);
  SuccessDrivenResult result = successDrivenAllSat(p);
  SolutionGraphAuditOptions options;
  options.problems = {&p, 1};
  AuditResult r = auditSolutionGraph(result.graph, options);
  EXPECT_TRUE(r.ok()) << r.toString();
}

// The graph corruptions are built directly through the public SolutionGraph
// API: there is no corruption hook because every invariant is reachable from
// the outside.
TEST(AuditSolutionGraph, DetectsChildOutOfRange) {
  SolutionGraph g;
  g.setRoot(5, {});  // only terminals and indices < numNodes() are valid
  EXPECT_TRUE(auditSolutionGraph(g).has("graph.child-range"));
}

TEST(AuditSolutionGraph, DetectsCycle) {
  SolutionGraph g;
  SolutionGraph::Node n;
  n.branch[0] = {0, {mkLit(0)}};  // points back at itself
  n.branch[1] = {SolutionGraph::kSuccess, {~mkLit(0)}};
  int id = g.addNode(n);
  g.setRoot(id, {});
  EXPECT_TRUE(auditSolutionGraph(g).has("graph.acyclic"));
}

TEST(AuditSolutionGraph, DetectsDeadNode) {
  SolutionGraph g;
  SolutionGraph::Node n;
  n.branch[0] = {SolutionGraph::kFail, {mkLit(0)}};
  n.branch[1] = {SolutionGraph::kFail, {~mkLit(0)}};
  int id = g.addNode(n);
  g.setRoot(id, {});
  EXPECT_TRUE(auditSolutionGraph(g).has("graph.dead-node"));
}

TEST(AuditSolutionGraph, DetectsDuplicateVarOnBranch) {
  SolutionGraph g;
  SolutionGraph::Node n;
  n.branch[0] = {SolutionGraph::kSuccess, {mkLit(0), ~mkLit(0)}};
  n.branch[1] = {SolutionGraph::kSuccess, {mkLit(1)}};
  int id = g.addNode(n);
  g.setRoot(id, {});
  EXPECT_TRUE(auditSolutionGraph(g).has("graph.branch.lits"));
}

TEST(AuditSolutionGraph, DetectsVarRepeatAlongPath) {
  // Root fixes x0, then a SUCCESS branch fixes x0 again: legal per branch,
  // illegal along the root-to-SUCCESS path.
  SolutionGraph g;
  SolutionGraph::Node n;
  n.branch[0] = {SolutionGraph::kSuccess, {mkLit(0)}};
  n.branch[1] = {SolutionGraph::kSuccess, {mkLit(1)}};
  int id = g.addNode(n);
  g.setRoot(id, {mkLit(0)});
  SolutionGraphAuditOptions options;
  options.numProjectionVars = 2;
  EXPECT_TRUE(auditSolutionGraph(g, options).has("graph.path.repeat"));
}

TEST(AuditSolutionGraph, CrossChecksCubesAgainstBdd) {
  // A structurally fine graph whose repeat-free paths must round-trip
  // through enumerateCubes and toBdd to the same union.
  SolutionGraph g;
  SolutionGraph::Node inner;
  inner.branch[0] = {SolutionGraph::kSuccess, {mkLit(1)}};
  inner.branch[1] = {SolutionGraph::kSuccess, {~mkLit(1), mkLit(2)}};
  int id = g.addNode(inner);
  g.setRoot(id, {mkLit(0)});
  SolutionGraphAuditOptions options;
  options.numProjectionVars = 3;
  AuditResult r = auditSolutionGraph(g, options);
  EXPECT_TRUE(r.ok()) << r.toString();
}

TEST(AuditSolutionGraphDeathTest, CheckAuditAbortsWithInvariantName) {
  SolutionGraph g;
  g.setRoot(7, {});
  EXPECT_DEATH(PRESAT_CHECK_AUDIT(auditSolutionGraph(g)), "graph\\.child-range");
}

// A conflict-learning nogood is a set of node values no evaluation makes
// true together under its root's objectives. On g = AND(a, b) with the
// objective g = 1, {b = 0} is one (only with the objective), {g = 1, a = 0}
// one on its own; the forged {a = 1, b = 1} holds when g = 1.
TEST(AuditNogood, SoundNogoodsPassAndAForgedOneIsReported) {
  Netlist nl;
  NodeId a = nl.addInput("a");
  NodeId b = nl.addInput("b");
  NodeId g = nl.mkAnd(a, b, "g");
  nl.markOutput(g, "g");
  const NodeCube objectives = {{g, true}};
  EXPECT_TRUE(auditNogood(nl, objectives, {{b, false}}).ok());
  EXPECT_TRUE(auditNogood(nl, {}, {{g, true}, {a, false}}).ok());
  EXPECT_FALSE(auditNogood(nl, {}, {{b, false}}).ok());
  AuditResult forged = auditNogood(nl, objectives, {{a, true}, {b, true}});
  EXPECT_TRUE(forged.has("graph.nogood.sat")) << forged.toString();
}

// Multi-root graphs: the node-array checks run once, the root checks for
// every root. Root 0 is sound in each corruption below; only root 1 breaks.
SolutionGraph twoRootGraph() {
  SolutionGraph g;
  SolutionGraph::Node n;
  n.branch[0] = {SolutionGraph::kSuccess, {mkLit(1)}};
  n.branch[1] = {SolutionGraph::kSuccess, {~mkLit(1)}};
  int id = g.addNode(n);
  g.addRoot(id, {mkLit(0)});
  g.addRoot(id, {~mkLit(0)});
  return g;
}

TEST(AuditSolutionGraph, CleanMultiRootGraphPasses) {
  SolutionGraph g = twoRootGraph();
  SolutionGraphAuditOptions options;
  options.numProjectionVars = 2;
  AuditResult r = auditSolutionGraph(g, options);
  EXPECT_TRUE(r.ok()) << r.toString();
}

TEST(AuditSolutionGraphDeathTest, NonFirstRootChildOutOfRange) {
  SolutionGraph g = twoRootGraph();
  g.addRoot(9, {});
  EXPECT_DEATH(PRESAT_CHECK_AUDIT(auditSolutionGraph(g)), "graph\\.child-range");
}

TEST(AuditSolutionGraphDeathTest, NonFirstRootRepeatsVarBelowIt) {
  SolutionGraph g;
  SolutionGraph::Node n;
  n.branch[0] = {SolutionGraph::kSuccess, {mkLit(1)}};
  n.branch[1] = {SolutionGraph::kSuccess, {~mkLit(1)}};
  int id = g.addNode(n);
  g.addRoot(id, {mkLit(0)});
  g.addRoot(id, {mkLit(1)});  // x1 is assigned again on both paths below
  SolutionGraphAuditOptions options;
  options.numProjectionVars = 2;
  EXPECT_DEATH(PRESAT_CHECK_AUDIT(auditSolutionGraph(g, options)), "graph\\.path\\.repeat");
}

TEST(AuditSolutionGraphDeathTest, NonFirstRootCoverDisagreesWithBdd) {
  SolutionGraph g = twoRootGraph();
  // The reported cover is root 0's paths alone: it misses root 1's ~x0 half
  // of the union.
  const std::vector<LitVec> cover = g.enumerateRootCubes(0);
  SolutionGraphAuditOptions options;
  options.numProjectionVars = 2;
  options.cover = &cover;
  EXPECT_DEATH(PRESAT_CHECK_AUDIT(auditSolutionGraph(g, options)),
               "graph\\.count\\.cubes-vs-bdd");
}

// The same root-1 corruption, audited against root BDDs the caller already
// built in its own manager: same verdict, same diagnostic.
TEST(AuditSolutionGraph, SuppliedRootBddsGiveTheSameDiagnostic) {
  SolutionGraph g = twoRootGraph();
  const std::vector<LitVec> cover = g.enumerateRootCubes(0);
  SolutionGraphAuditOptions options;
  options.numProjectionVars = 2;
  options.cover = &cover;
  const AuditResult own = auditSolutionGraph(g, options);

  BddManager mgr(2);
  const std::vector<BddRef> rootBdds = g.rootBdds(mgr);
  options.bddManager = &mgr;
  options.rootBdds = rootBdds;
  const AuditResult supplied = auditSolutionGraph(g, options);
  EXPECT_TRUE(supplied.has("graph.count.cubes-vs-bdd")) << supplied.toString();
  EXPECT_EQ(supplied.toString(), own.toString());
}

TEST(AuditSolutionGraphDeathTest, NonFirstRootCoverDisagreesWithSuppliedBdds) {
  SolutionGraph g = twoRootGraph();
  const std::vector<LitVec> cover = g.enumerateRootCubes(0);
  BddManager mgr(2);
  const std::vector<BddRef> rootBdds = g.rootBdds(mgr);
  SolutionGraphAuditOptions options;
  options.numProjectionVars = 2;
  options.cover = &cover;
  options.bddManager = &mgr;
  options.rootBdds = rootBdds;
  EXPECT_DEATH(PRESAT_CHECK_AUDIT(auditSolutionGraph(g, options)),
               "graph\\.count\\.cubes-vs-bdd");
}

TEST(AuditSolutionGraphDeathTest, SuppliedRootBddsNeedOnePerRoot) {
  SolutionGraph g = twoRootGraph();
  BddManager mgr(2);
  std::vector<BddRef> rootBdds = g.rootBdds(mgr);
  rootBdds.pop_back();
  SolutionGraphAuditOptions options;
  options.numProjectionVars = 2;
  options.bddManager = &mgr;
  options.rootBdds = rootBdds;
  EXPECT_DEATH((void)auditSolutionGraph(g, options), "one BDD per root");
}

}  // namespace
}  // namespace presat
