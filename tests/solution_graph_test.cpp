// SolutionGraph tests: measure, path enumeration, BDD conversion, and
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

// Root-to-SUCCESS paths over every root (paths, not distinct cubes).
size_t numPaths(const SolutionGraph& g) {
  size_t n = 0;
  for (size_t r = 0; r < g.numRoots(); ++r) n += g.enumerateRootCubes(r).size();
  return n;
}

TEST(SolutionGraph, EmptyFailGraph) {
  SolutionGraph g;
  g.setRoot(SolutionGraph::kFail, {});
  EXPECT_TRUE(g.enumerateRootCubes(0).empty());
  BddManager mgr(2);
  EXPECT_EQ(g.toBdd(mgr), BddManager::kFalse);
}

TEST(SolutionGraph, TrivialSuccess) {
  SolutionGraph g;
  g.setRoot(SolutionGraph::kSuccess, {mkLit(1)});
  auto cubes = g.enumerateRootCubes(0);
  ASSERT_EQ(cubes.size(), 1u);
  EXPECT_EQ(cubes[0], LitVec{mkLit(1)});
  BddManager mgr(3);
  EXPECT_EQ(mgr.satCount(g.toBdd(mgr)).toU64(), 4u);  // 1 fixed of 3 vars
}

TEST(SolutionGraph, TwoBranchFullCover) {
  SolutionGraph g = bothBranchesSucceed();
  EXPECT_EQ(g.numLiveEdges(), 3u);  // root edge + 2 branches
  EXPECT_EQ(g.numStoredLiterals(), 2u);
  BddManager mgr(1);
  EXPECT_EQ(g.toBdd(mgr), BddManager::kTrue);
  auto cubes = g.enumerateRootCubes(0);
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

  EXPECT_EQ(g.numNodes(), 2u);  // sharing: child stored once
  auto cubes = g.enumerateRootCubes(0);
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
  EXPECT_EQ(g.enumerateRootCubes(0), (std::vector<LitVec>{{mkLit(0)}, {mkLit(0)}}));
  BddManager mgr(1);
  // Union is just p0: 1 minterm out of 2.
  EXPECT_EQ(mgr.satCount(g.toBdd(mgr)).toU64(), 1u);
}

TEST(SolutionGraph, EnumerationLimit) {
  SolutionGraph g = bothBranchesSucceed();
  auto cubes = g.enumerateRootCubes(0, 1);
  EXPECT_EQ(cubes.size(), 1u);
}

TEST(SolutionGraph, RootLitsPrefixAllCubes) {
  SolutionGraph g;
  SolutionGraph::Node n;
  n.decisionId = 2;
  n.branch[0] = {SolutionGraph::kSuccess, {mkLit(2)}};
  n.branch[1] = {SolutionGraph::kSuccess, {~mkLit(2)}};
  g.setRoot(g.addNode(n), {mkLit(0), ~mkLit(1)});
  for (const LitVec& cube : g.enumerateRootCubes(0)) {
    ASSERT_GE(cube.size(), 3u);
    EXPECT_EQ(cube[0], mkLit(0));
    EXPECT_EQ(cube[1], ~mkLit(1));
  }
}

// Two roots over one node array: the whole-graph BDD covers both roots,
// per-root queries only their own; setRoot goes back to one root.
TEST(SolutionGraph, MultiRootQueries) {
  SolutionGraph g = bothBranchesSucceed();  // root 0: x0 | ~x0
  g.addRoot(SolutionGraph::kSuccess, {mkLit(1)});
  ASSERT_EQ(g.numRoots(), 2u);
  EXPECT_EQ(g.enumerateRootCubes(0), (std::vector<LitVec>{{mkLit(0)}, {~mkLit(0)}}));
  EXPECT_EQ(g.enumerateRootCubes(1), (std::vector<LitVec>{{mkLit(1)}}));
  EXPECT_EQ(g.enumerateRootCubes(0, 1).size(), 1u);
  BddManager mgr(2);
  std::vector<BddRef> roots = g.rootBdds(mgr);
  ASSERT_EQ(roots.size(), 2u);
  EXPECT_EQ(roots[0], BddManager::kTrue);
  EXPECT_EQ(roots[1], mgr.variable(1));
  EXPECT_EQ(g.toBdd(mgr), BddManager::kTrue);
  EXPECT_EQ(numPaths(g), 3u);

  g.setRoot(SolutionGraph::kFail, {});  // back to one root
  EXPECT_EQ(g.numRoots(), 1u);
  EXPECT_EQ(numPaths(g), 0u);
}

}  // namespace
}  // namespace presat
