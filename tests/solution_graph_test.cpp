// SolutionGraph tests: counting, measure, enumeration, BDD conversion, and
// sharing behaviour on hand-built DAGs.
#include <gtest/gtest.h>

#include "allsat/solution_graph.hpp"
#include "bdd/bdd.hpp"

namespace presat {
namespace {

// Graph with a single decision on projection var 0: both branches succeed.
SolutionGraph bothBranchesSucceed() {
  SolutionGraph g;
  SolutionGraph::Node n;
  n.decisionId = 0;
  n.branch[0] = {SolutionGraph::kSuccess, {mkLit(0)}};
  n.branch[1] = {SolutionGraph::kSuccess, {~mkLit(0)}};
  g.setRoot(g.addNode(n), {});
  return g;
}

TEST(SolutionGraph, EmptyFailGraph) {
  SolutionGraph g;
  g.setRoot(SolutionGraph::kFail, {});
  EXPECT_EQ(g.countPaths(), BigUint(0));
  EXPECT_TRUE(g.enumerateCubes().empty());
  BddManager mgr(2);
  EXPECT_EQ(g.toBdd(mgr), BddManager::kFalse);
}

TEST(SolutionGraph, TrivialSuccess) {
  SolutionGraph g;
  g.setRoot(SolutionGraph::kSuccess, {mkLit(1)});
  EXPECT_EQ(g.countPaths(), BigUint(1));
  auto cubes = g.enumerateCubes();
  ASSERT_EQ(cubes.size(), 1u);
  EXPECT_EQ(cubes[0], LitVec{mkLit(1)});
  BddManager mgr(3);
  EXPECT_EQ(mgr.satCount(g.toBdd(mgr)).toU64(), 4u);  // 1 fixed of 3 vars
}

TEST(SolutionGraph, TwoBranchFullCover) {
  SolutionGraph g = bothBranchesSucceed();
  EXPECT_EQ(g.countPaths(), BigUint(2));
  EXPECT_EQ(g.numLiveEdges(), 3u);  // root edge + 2 branches
  EXPECT_EQ(g.numStoredLiterals(), 2u);
  BddManager mgr(1);
  EXPECT_EQ(g.toBdd(mgr), BddManager::kTrue);
  auto cubes = g.enumerateCubes();
  ASSERT_EQ(cubes.size(), 2u);
}

TEST(SolutionGraph, SharedChildCountsTwice) {
  SolutionGraph g;
  // Child: decision on var 1, only the positive branch succeeds.
  SolutionGraph::Node child;
  child.decisionId = 1;
  child.branch[0] = {SolutionGraph::kSuccess, {mkLit(1)}};
  child.branch[1] = {SolutionGraph::kFail, {}};
  int c = g.addNode(child);
  // Parent decision on var 0; both branches share the child (success-driven
  // learning hit).
  SolutionGraph::Node parent;
  parent.decisionId = 0;
  parent.branch[0] = {c, {mkLit(0)}};
  parent.branch[1] = {c, {~mkLit(0)}};
  g.setRoot(g.addNode(parent), {});

  EXPECT_EQ(g.countPaths(), BigUint(2));
  EXPECT_EQ(g.numNodes(), 2u);  // sharing: child stored once
  auto cubes = g.enumerateCubes();
  ASSERT_EQ(cubes.size(), 2u);
  // Union = (x0 & x1) | (~x0 & x1) = x1.
  BddManager mgr(2);
  EXPECT_EQ(g.toBdd(mgr), mgr.variable(1));
  EXPECT_EQ(mgr.satCount(g.toBdd(mgr)).toU64(), 2u);
}

TEST(SolutionGraph, OverlappingPathsCountOnceInTheUnion) {
  SolutionGraph g;
  // Decision on a NON-projection quantity: both branches yield the SAME
  // projected cube {p0}.
  SolutionGraph::Node n;
  n.decisionId = 42;
  n.branch[0] = {SolutionGraph::kSuccess, {mkLit(0)}};
  n.branch[1] = {SolutionGraph::kSuccess, {mkLit(0)}};
  g.setRoot(g.addNode(n), {});
  EXPECT_EQ(g.countPaths(), BigUint(2));
  BddManager mgr(1);
  // Union is just p0: 1 minterm out of 2.
  EXPECT_EQ(mgr.satCount(g.toBdd(mgr)).toU64(), 1u);
}

TEST(SolutionGraph, EnumerationLimit) {
  SolutionGraph g = bothBranchesSucceed();
  auto cubes = g.enumerateCubes(1);
  EXPECT_EQ(cubes.size(), 1u);
}

TEST(SolutionGraph, RootLitsPrefixAllCubes) {
  SolutionGraph g;
  SolutionGraph::Node n;
  n.decisionId = 2;
  n.branch[0] = {SolutionGraph::kSuccess, {mkLit(2)}};
  n.branch[1] = {SolutionGraph::kSuccess, {~mkLit(2)}};
  g.setRoot(g.addNode(n), {mkLit(0), ~mkLit(1)});
  for (const LitVec& cube : g.enumerateCubes()) {
    ASSERT_GE(cube.size(), 3u);
    EXPECT_EQ(cube[0], mkLit(0));
    EXPECT_EQ(cube[1], ~mkLit(1));
  }
}

// Two roots over one node array: whole-graph queries cover both roots in
// root order, per-root queries only their own; append re-indexes children.
TEST(SolutionGraph, MultiRootQueriesAndAppend) {
  SolutionGraph g = bothBranchesSucceed();  // root 0: x0 | ~x0
  g.addRoot(SolutionGraph::kSuccess, {mkLit(1)});
  ASSERT_EQ(g.numRoots(), 2u);
  EXPECT_EQ(g.countPaths(), BigUint(3));
  EXPECT_EQ(g.enumerateCubes(), (std::vector<LitVec>{{mkLit(0)}, {~mkLit(0)}, {mkLit(1)}}));
  EXPECT_EQ(g.enumerateRootCubes(1), (std::vector<LitVec>{{mkLit(1)}}));
  EXPECT_EQ(g.enumerateCubes(2).size(), 2u);
  BddManager mgr(2);
  std::vector<BddRef> roots = g.rootBdds(mgr);
  ASSERT_EQ(roots.size(), 2u);
  EXPECT_EQ(roots[0], BddManager::kTrue);
  EXPECT_EQ(roots[1], mgr.variable(1));
  EXPECT_EQ(g.toBdd(mgr), BddManager::kTrue);

  SolutionGraph merged = bothBranchesSucceed();
  merged.append(g);
  ASSERT_EQ(merged.numRoots(), 3u);
  EXPECT_EQ(merged.numNodes(), 2u);
  EXPECT_EQ(merged.root(1).child, 1);  // g's node 0, moved past merged's own
  EXPECT_EQ(merged.countPaths(), BigUint(5));

  merged.setRoot(SolutionGraph::kFail, {});  // back to one root
  EXPECT_EQ(merged.numRoots(), 1u);
  EXPECT_EQ(merged.countPaths(), BigUint(0));
}

TEST(SolutionGraph, DotExportMentionsNodes) {
  SolutionGraph g = bothBranchesSucceed();
  std::string dot = g.toDot();
  EXPECT_NE(dot.find("SUCCESS"), std::string::npos);
  EXPECT_NE(dot.find("n0"), std::string::npos);
}

}  // namespace
}  // namespace presat
