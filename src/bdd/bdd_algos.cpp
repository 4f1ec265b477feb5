// Quantification, composition, counting, and enumeration algorithms.
#include <algorithm>
#include <utility>
#include <vector>

#include "base/log.hpp"
#include "bdd/bdd.hpp"

namespace presat {

namespace {

// Memo for one pass over a BDD, keyed by an interior node ref or by a pair
// of refs packed as (first << 32 | second): open addressing (a key is never
// 0, since a single key is an interior ref >= 2 and a pair's first ref is
// never kFalse, so 0 marks an empty slot) grown at load 1/2, so its size
// follows what the pass visits, not the manager's node count.
template <typename T, typename Key = BddRef>
class RefMemo {
 public:
  const T* find(Key f) const {
    for (size_t i = home(f);; i = (i + 1) & mask()) {
      if (keys_[i] == f) return &values_[i];
      if (keys_[i] == 0) return nullptr;
    }
  }
  void insert(Key f, T value) {
    if (2 * (size_ + 1) > keys_.size()) grow();
    size_t i = home(f);
    while (keys_[i] != 0) i = (i + 1) & mask();
    keys_[i] = f;
    values_[i] = std::move(value);
    ++size_;
  }

 private:
  size_t mask() const { return keys_.size() - 1; }
  size_t home(Key f) const {
    // Folding the high half in first lets both refs of a pair reach the
    // masked-off low bits; a single ref hashes as it is.
    uint64_t k = f;
    k ^= k >> 32;
    return static_cast<size_t>((k * 0x9e3779b97f4a7c15ull) >> 32) & mask();
  }
  void grow() {
    std::vector<Key> keys(2 * keys_.size(), 0);
    std::vector<T> values(keys.size());
    keys.swap(keys_);
    values.swap(values_);
    for (size_t i = 0; i < keys.size(); ++i) {
      if (keys[i] == 0) continue;
      size_t j = home(keys[i]);
      while (keys_[j] != 0) j = (j + 1) & mask();
      keys_[j] = keys[i];
      values_[j] = std::move(values[i]);
    }
  }

  std::vector<Key> keys_ = std::vector<Key>(64, 0);
  std::vector<T> values_ = std::vector<T>(64);
  size_t size_ = 0;
};

inline uint64_t refPair(BddRef a, BddRef b) { return (uint64_t{a} << 32) | b; }

}  // namespace

BddRef BddManager::exists(BddRef f, const std::vector<Var>& vars) {
  if (vars.empty() || isConstant(f)) return f;
  std::vector<bool> quantified(static_cast<size_t>(numVars_), false);
  for (Var v : vars) {
    PRESAT_CHECK(v >= 0 && v < numVars_);
    quantified[static_cast<size_t>(v)] = true;
  }
  RefMemo<BddRef> memo;
  // Iterative-friendly recursion via explicit lambda (depth <= numVars_).
  auto rec = [&](auto&& self, BddRef g) -> BddRef {
    if (isConstant(g)) return g;
    if (const BddRef* hit = memo.find(g)) return *hit;
    // Copy by value: the recursive calls below allocate (bddOr/mkNode), which
    // can grow the node pool and invalidate references into it.
    const Node n = node(g);
    BddRef lo = self(self, n.lo);
    BddRef hi = self(self, n.hi);
    BddRef result = quantified[static_cast<size_t>(n.var)] ? bddOr(lo, hi)
                                                           : mkNode(n.var, lo, hi);
    memo.insert(g, result);
    return result;
  };
  return rec(rec, f);
}

BddRef BddManager::andExists(BddRef f, BddRef g, const std::vector<Var>& vars) {
  std::vector<bool> quantified(static_cast<size_t>(numVars_), false);
  for (Var v : vars) {
    PRESAT_CHECK(v >= 0 && v < numVars_);
    quantified[static_cast<size_t>(v)] = true;
  }
  RefMemo<BddRef, uint64_t> memo;
  auto rec = [&](auto&& self, BddRef a, BddRef b) -> BddRef {
    if (a == kFalse || b == kFalse) return kFalse;
    if (a == kTrue && b == kTrue) return kTrue;
    if (a > b) std::swap(a, b);  // AND is commutative: canonicalize the key
    const uint64_t key = refPair(a, b);  // a != kFalse
    if (const BddRef* hit = memo.find(key)) return *hit;
    Var v = numVars_;
    if (!isConstant(a)) v = std::min(v, node(a).var);
    if (!isConstant(b)) v = std::min(v, node(b).var);
    auto cof = [&](BddRef x, bool hi) -> BddRef {
      if (isConstant(x) || node(x).var != v) return x;
      return hi ? node(x).hi : node(x).lo;
    };
    BddRef lo = self(self, cof(a, false), cof(b, false));
    BddRef result;
    if (quantified[static_cast<size_t>(v)]) {
      // Early termination: once the low branch is TRUE the disjunction is.
      result = lo == kTrue ? kTrue : bddOr(lo, self(self, cof(a, true), cof(b, true)));
    } else {
      result = mkNode(v, lo, self(self, cof(a, true), cof(b, true)));
    }
    memo.insert(key, result);
    return result;
  };
  return rec(rec, f, g);
}

BddRef BddManager::composeVector(BddRef f, const std::vector<BddRef>& substitution) {
  PRESAT_CHECK(substitution.size() == static_cast<size_t>(numVars_))
      << "composeVector needs one entry per variable";
  RefMemo<BddRef> memo;
  auto rec = [&](auto&& self, BddRef g) -> BddRef {
    if (isConstant(g)) return g;
    if (const BddRef* hit = memo.find(g)) return *hit;
    // Copy by value: ite() in the recursion can reallocate the node pool.
    const Node n = node(g);
    BddRef lo = self(self, n.lo);
    BddRef hi = self(self, n.hi);
    BddRef replacement = substitution[static_cast<size_t>(n.var)];
    BddRef result = (replacement == kNoSubstitution)
                        ? ite(variable(n.var), hi, lo)
                        : ite(replacement, hi, lo);
    memo.insert(g, result);
    return result;
  };
  return rec(rec, f);
}

BigUint BddManager::satCount(BddRef f) {
  // count(g) = number of assignments of variables var(g)..numVars-1 that
  // satisfy g; the root is then scaled by 2^var(root). Terminals carry
  // var == numVars. Below 64 variables every count fits a uint64_t.
  const auto countAs = [this, f](auto zero) {
    using Count = decltype(zero);
    RefMemo<Count> memo;
    auto rec = [&](auto&& self, BddRef g) -> Count {
      if (g == kFalse) return Count(0);
      if (g == kTrue) return Count(1);
      if (const Count* hit = memo.find(g)) return *hit;
      const Node& n = node(g);
      Count lo = self(self, n.lo);
      lo <<= static_cast<uint32_t>(node(n.lo).var - n.var - 1);
      Count hi = self(self, n.hi);
      hi <<= static_cast<uint32_t>(node(n.hi).var - n.var - 1);
      lo += hi;
      memo.insert(g, lo);
      return lo;
    };
    Count count = rec(rec, f);
    count <<= static_cast<uint32_t>(node(f).var);
    return count;
  };
  if (numVars_ < 64) return BigUint(countAs(uint64_t{0}));
  return countAs(BigUint(0));
}

std::vector<LitVec> BddManager::enumerateCubes(BddRef f, uint64_t limit) {
  std::vector<LitVec> cubes;
  LitVec path;
  // Returns false once the limit is reached.
  auto rec = [&](auto&& self, BddRef g) -> bool {
    if (g == kFalse) return true;
    if (g == kTrue) {
      cubes.push_back(path);
      return limit == 0 || cubes.size() < limit;
    }
    const Node& n = node(g);
    path.push_back(mkLit(n.var, /*negated=*/true));
    const bool more = self(self, n.lo);
    path.back() = mkLit(n.var, /*negated=*/false);
    const bool keepGoing = more && self(self, n.hi);
    path.pop_back();
    return keepGoing;
  };
  rec(rec, f);
  return cubes;
}

std::vector<LitVec> BddManager::isop(BddRef lower, BddRef upper) {
  // Each call's cube list is a node of a cover tree: tree 0 has no cubes,
  // tree 1 is the one empty cube, and a split on `var` lists ~var ∧ (neg's
  // cubes), then var ∧ (pos's cubes), then rest's cubes. Subresults are
  // shared through the memo, so the tree is a DAG and no level copies a cube
  // list; the cubes are written out in one pass at the end.
  struct Split {
    Var var;
    uint32_t neg, pos, rest;
  };
  struct Cover {
    BddRef bdd = kFalse;  // the cover as a function
    uint32_t tree = 0;
  };
  constexpr uint32_t kNoCubes = 0;
  constexpr uint32_t kEmptyCube = 1;
  std::vector<Split> splits(2);  // slots 0 and 1 stand for the two leaves
  RefMemo<Cover, uint64_t> memo;
  auto rec = [&](auto&& self, BddRef l, BddRef u) -> Cover {
    if (l == kFalse) return {kFalse, kNoCubes};
    if (u == kTrue) return {kTrue, kEmptyCube};
    PRESAT_CHECK(u != kFalse) << "isop needs lower <= upper";
    const uint64_t key = refPair(l, u);  // l != kFalse
    if (const Cover* hit = memo.find(key)) return *hit;
    // Copy by value: the recursion allocates and can move the node pool.
    const Node nl = node(l);
    const Node nu = node(u);
    const Var v = std::min(nl.var, nu.var);
    const BddRef l0 = nl.var == v ? nl.lo : l;
    const BddRef l1 = nl.var == v ? nl.hi : l;
    const BddRef u0 = nu.var == v ? nu.lo : u;
    const BddRef u1 = nu.var == v ? nu.hi : u;
    // Cubes that need ~v (v): the part of l0 (l1) outside u1 (u0).
    const Cover c0 = self(self, ite(u1, kFalse, l0), u0);
    const Cover c1 = self(self, ite(u0, kFalse, l1), u1);
    // What is left is covered by cubes free of v, inside both cofactors.
    const BddRef rest = bddOr(ite(c0.bdd, kFalse, l0), ite(c1.bdd, kFalse, l1));
    const Cover cs = self(self, rest, bddAnd(u0, u1));
    Cover result;
    result.bdd = mkNode(v, bddOr(c0.bdd, cs.bdd), bddOr(c1.bdd, cs.bdd));
    if (c0.tree == kNoCubes && c1.tree == kNoCubes) {
      result.tree = cs.tree;
    } else {
      result.tree = static_cast<uint32_t>(splits.size());
      splits.push_back({v, c0.tree, c1.tree, cs.tree});
    }
    memo.insert(key, result);
    return result;
  };
  const uint32_t root = rec(rec, lower, upper).tree;

  std::vector<LitVec> cubes;
  LitVec path;
  auto emit = [&](auto&& self, uint32_t tree) -> void {
    if (tree == kNoCubes) return;
    if (tree == kEmptyCube) {
      cubes.push_back(path);
      return;
    }
    const Split& s = splits[tree];
    path.push_back(mkLit(s.var, /*negated=*/true));
    self(self, s.neg);
    path.back() = mkLit(s.var, /*negated=*/false);
    self(self, s.pos);
    path.pop_back();
    self(self, s.rest);
  };
  emit(emit, root);
  return cubes;
}

}  // namespace presat
