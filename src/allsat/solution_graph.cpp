#include "allsat/solution_graph.hpp"

#include "base/log.hpp"
#include "bdd/bdd.hpp"

namespace presat {

size_t SolutionGraph::numLiveEdges() const {
  size_t n = 0;
  for (const Branch& r : roots_) {
    if (r.child != kFail) ++n;
  }
  for (const Node& node : nodes_) {
    for (const Branch& b : node.branch) {
      if (b.child != kFail) ++n;
    }
  }
  return n;
}

size_t SolutionGraph::numStoredLiterals() const {
  size_t n = 0;
  for (const Branch& r : roots_) {
    if (r.child != kFail) n += r.newLits.size();
  }
  for (const Node& node : nodes_) {
    for (const Branch& b : node.branch) {
      if (b.child != kFail) n += b.newLits.size();
    }
  }
  return n;
}

std::vector<LitVec> SolutionGraph::enumerateRootCubes(size_t r, uint64_t limit) const {
  std::vector<LitVec> cubes;
  const Branch& root = roots_[r];
  if (root.child == kFail) return cubes;
  LitVec path = root.newLits;
  // Returns false once the limit is reached.
  auto rec = [&](auto&& self, int index) -> bool {
    if (index == kFail) return true;
    if (index == kSuccess) {
      cubes.push_back(path);
      return limit == 0 || cubes.size() < limit;
    }
    const Node& n = nodes_[static_cast<size_t>(index)];
    for (const Branch& b : n.branch) {
      size_t before = path.size();
      path.insert(path.end(), b.newLits.begin(), b.newLits.end());
      bool keepGoing = self(self, b.child);
      path.resize(before);
      if (!keepGoing) return false;
    }
    return true;
  };
  rec(rec, root.child);
  return cubes;
}

std::vector<uint32_t> SolutionGraph::rootBdds(BddManager& mgr) const {
  constexpr BddRef kUnset = ~BddRef{0};
  std::vector<BddRef> memo(nodes_.size(), kUnset);
  auto rec = [&](auto&& self, int index) -> BddRef {
    if (index == kSuccess) return BddManager::kTrue;
    if (index == kFail) return BddManager::kFalse;
    BddRef& slot = memo[static_cast<size_t>(index)];
    if (slot != kUnset) return slot;
    const Node& n = nodes_[static_cast<size_t>(index)];
    BddRef acc = BddManager::kFalse;
    for (const Branch& b : n.branch) {
      BddRef child = self(self, b.child);
      if (child == BddManager::kFalse) continue;
      acc = mgr.bddOr(acc, mgr.bddAnd(mgr.cube(b.newLits), child));
    }
    slot = acc;
    return acc;
  };
  std::vector<BddRef> bdds;
  bdds.reserve(roots_.size());
  for (const Branch& r : roots_) bdds.push_back(mgr.bddAnd(mgr.cube(r.newLits), rec(rec, r.child)));
  return bdds;
}

uint32_t SolutionGraph::toBdd(BddManager& mgr) const {
  BddRef u = BddManager::kFalse;
  for (BddRef r : rootBdds(mgr)) u = mgr.bddOr(u, r);
  return u;
}

}  // namespace presat
