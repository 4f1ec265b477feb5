#include "allsat/solution_graph.hpp"

#include <sstream>

#include "base/log.hpp"
#include "bdd/bdd.hpp"

namespace presat {

void SolutionGraph::append(const SolutionGraph& other) {
  const int base = static_cast<int>(nodes_.size());
  auto translate = [base](int child) { return child >= 0 ? child + base : child; };
  for (Node node : other.nodes_) {
    for (Branch& b : node.branch) b.child = translate(b.child);
    nodes_.push_back(std::move(node));
  }
  for (const Branch& r : other.roots_) addRoot(translate(r.child), r.newLits);
}

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

BigUint SolutionGraph::countPaths() const {
  std::vector<BigUint> memo(nodes_.size());
  std::vector<bool> done(nodes_.size(), false);
  auto rec = [&](auto&& self, int index) -> BigUint {
    if (index == kSuccess) return BigUint(1);
    if (index == kFail) return BigUint(0);
    size_t i = static_cast<size_t>(index);
    if (done[i]) return memo[i];
    BigUint total = self(self, nodes_[i].branch[0].child) + self(self, nodes_[i].branch[1].child);
    memo[i] = total;
    done[i] = true;
    return total;
  };
  BigUint total(0);
  for (const Branch& r : roots_) total += rec(rec, r.child);
  return total;
}

// Appends the path cubes below `root` until `cubes` holds `limit` (0 = no
// limit); false once the limit is reached.
bool SolutionGraph::appendPathCubes(const Branch& root, uint64_t limit,
                                    std::vector<LitVec>& cubes) const {
  if (root.child == kFail) return true;
  if (limit != 0 && cubes.size() >= limit) return false;
  LitVec path = root.newLits;
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
  return rec(rec, root.child);
}

std::vector<LitVec> SolutionGraph::enumerateCubes(uint64_t limit) const {
  std::vector<LitVec> cubes;
  for (const Branch& r : roots_) {
    if (!appendPathCubes(r, limit, cubes)) break;
  }
  return cubes;
}

std::vector<LitVec> SolutionGraph::enumerateRootCubes(size_t r, uint64_t limit) const {
  std::vector<LitVec> cubes;
  appendPathCubes(roots_[r], limit, cubes);
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

std::string SolutionGraph::toDot() const {
  std::ostringstream out;
  out << "digraph solutions {\n";
  out << "  success [label=\"SUCCESS\", shape=box];\n";
  auto target = [&](int child) -> std::string {
    if (child == kSuccess) return "success";
    PRESAT_DCHECK(child >= 0);
    return "n" + std::to_string(child);
  };
  auto litsLabel = [](const LitVec& lits) {
    std::string s;
    for (Lit l : lits) {
      if (!s.empty()) s += " ";
      s += (l.sign() ? "~p" : "p") + std::to_string(l.var());
    }
    return s;
  };
  for (size_t r = 0; r < roots_.size(); ++r) {
    if (roots_[r].child == kFail) continue;
    out << "  root" << r << " [shape=point];\n";
    out << "  root" << r << " -> " << target(roots_[r].child) << " [label=\""
        << litsLabel(roots_[r].newLits) << "\"];\n";
  }
  for (size_t i = 0; i < nodes_.size(); ++i) {
    out << "  n" << i << " [label=\"d" << nodes_[i].decisionId << "\"];\n";
    for (int b = 0; b < 2; ++b) {
      const Branch& br = nodes_[i].branch[b];
      if (br.child == kFail) continue;
      out << "  n" << i << " -> " << target(br.child) << " [label=\"" << litsLabel(br.newLits)
          << "\"" << (b == 0 ? ", style=dashed" : "") << "];\n";
    }
  }
  out << "}\n";
  return out.str();
}

}  // namespace presat
