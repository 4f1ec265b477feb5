// Compact DAG storage of an all-solutions enumeration — the paper's
// alternative to a blocking-clause list.
//
// The graph mirrors the shape of the success-driven search: each internal
// node is a binary decision; each branch records the projection literals that
// became newly assigned on that branch (the decision itself if it hit a
// projection source, plus implied source assignments) and points to a child
// subgraph, the SUCCESS terminal, or the FAIL terminal. A root-to-SUCCESS
// path concatenates its branch literals into one solution cube. Memoized
// (success-driven-learned) subsearches appear as shared children, which is
// exactly where the exponential compression over an explicit cube list comes
// from.
//
// A graph may have several roots, one per objective set solved by the same
// engine (the cubes of a multi-cube preimage target): the node array and
// every shared subgraph are stored once, and each root is an entry branch
// into it. Whole-graph queries (paths, cubes, BDD) cover the union of all
// roots, in root order.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "base/biguint.hpp"
#include "base/types.hpp"

namespace presat {

class BddManager;

class SolutionGraph {
 public:
  // Child slot values: >= 0 index into nodes(), or one of the terminals.
  static constexpr int kSuccess = -1;
  static constexpr int kFail = -2;

  struct Branch {
    int child = kFail;
    // Projection literals (projected index space) newly fixed on this branch.
    LitVec newLits;
  };

  struct Node {
    // The circuit node / variable the search branched on (diagnostics only).
    uint32_t decisionId = 0;
    Branch branch[2];
  };

  int addNode(const Node& node) {
    nodes_.push_back(node);
    return static_cast<int>(nodes_.size()) - 1;
  }

  // A root is itself a branch: literals implied before the first decision
  // lead to the top decision node (or directly to a terminal). setRoot
  // makes the graph single-rooted; addRoot appends one more root.
  void setRoot(int child, LitVec impliedLits) {
    roots_.clear();
    addRoot(child, std::move(impliedLits));
  }
  void addRoot(int child, LitVec impliedLits) {
    roots_.push_back(Branch{child, std::move(impliedLits)});
  }
  size_t numRoots() const { return roots_.size(); }
  const Branch& root(size_t i) const { return roots_[i]; }

  // Appends `other` as further roots: its nodes are copied after this
  // graph's and its children re-indexed.
  void append(const SolutionGraph& other);

  size_t numNodes() const { return nodes_.size(); }
  const Node& node(int index) const { return nodes_[static_cast<size_t>(index)]; }
  // Branches that do not lead to kFail.
  size_t numLiveEdges() const;
  // Total literals stored on live branches (the memory-footprint metric
  // compared against blocking-clause literals).
  size_t numStoredLiterals() const;

  // Number of root-to-SUCCESS paths. Paths, not distinct cubes: two paths may
  // carry the same cube (DAG-linear dynamic program, never enumerates).
  BigUint countPaths() const;

  // Explicit solution cubes, one per root-to-SUCCESS path (0 = no limit).
  std::vector<LitVec> enumerateCubes(uint64_t limit = 0) const;
  // The same for the paths from root `r` alone.
  std::vector<LitVec> enumerateRootCubes(size_t r, uint64_t limit = 0) const;

  // Union of all path cubes as a BDD over the projected index space — the
  // exact semantics of the graph, used for counting and cross-engine checks.
  uint32_t toBdd(BddManager& mgr) const;
  // One BDD per root, from one pass that shares every subgraph's BDD.
  std::vector<uint32_t> rootBdds(BddManager& mgr) const;

  std::string toDot() const;

 private:
  bool appendPathCubes(const Branch& root, uint64_t limit, std::vector<LitVec>& cubes) const;

  std::vector<Branch> roots_;
  std::vector<Node> nodes_;
};

}  // namespace presat
