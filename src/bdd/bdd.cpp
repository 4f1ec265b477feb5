#include "bdd/bdd.hpp"

#include <algorithm>

#include "base/log.hpp"
#include "govern/faults.hpp"

namespace presat {

namespace {

// Node-pool footprint per node: the node triple itself. The unique and the
// computed table are charged separately, slot by slot, when they grow.
constexpr uint64_t kBddNodeBytes = 3 * sizeof(uint32_t);
// Initial slots of both tables (power of two).
constexpr size_t kInitialSlots = 256;
// The computed table follows the node count up to this many entries
// (16 bytes each); past it, colliding results overwrite each other.
constexpr size_t kMaxCacheSlots = size_t{1} << 20;

// 64-bit finalizer (MurmurHash3 fmix64 shape): every input bit reaches the
// low bits the tables mask off.
inline uint64_t mix64(uint64_t h) {
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdull;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ull;
  h ^= h >> 33;
  return h;
}

inline uint64_t hash3(uint64_t a, uint32_t b, uint32_t c) {
  return mix64(((static_cast<uint64_t>(b) << 32) | c) ^ (a * 0x9e3779b97f4a7c15ull));
}

}  // namespace

BddManager::BddManager(int numVars)
    : numVars_(numVars), unique_(kInitialSlots, 0), cache_(kInitialSlots, CacheEntry{}) {
  PRESAT_CHECK(numVars >= 0);
  static_assert(sizeof(Node) == kBddNodeBytes);
  nodes_.push_back({static_cast<Var>(numVars_), kFalse, kFalse});  // 0 = false
  nodes_.push_back({static_cast<Var>(numVars_), kTrue, kTrue});    // 1 = true
}

void BddManager::setGovernor(Governor* governor) {
  governor_ = governor;
  poolLedger_.attach(governor);
  poolLedger_.charge(nodes_.size() * kBddNodeBytes + unique_.size() * sizeof(BddRef) +
                     cache_.size() * sizeof(CacheEntry));
}

size_t BddManager::uniqueHome(Var var, BddRef lo, BddRef hi) const {
  return static_cast<size_t>(hash3(static_cast<uint64_t>(var), lo, hi)) & (unique_.size() - 1);
}

BddRef BddManager::uniqueFind(Var var, BddRef lo, BddRef hi, size_t& slot) const {
  const size_t mask = unique_.size() - 1;
  for (slot = uniqueHome(var, lo, hi);; slot = (slot + 1) & mask) {
    const BddRef ref = unique_[slot];
    if (ref == 0) return 0;
    const Node& n = nodes_[ref];
    if (n.var == var && n.lo == lo && n.hi == hi) return ref;
  }
}

size_t BddManager::cacheSlot(BddRef f, BddRef g, BddRef h) const {
  return static_cast<size_t>(hash3(f, g, h)) & (cache_.size() - 1);
}

void BddManager::growUnique() {
  // No keys are stored: every interior node re-enters from the node array.
  const size_t oldSlots = unique_.size();
  unique_.assign(2 * oldSlots, 0);
  const size_t mask = unique_.size() - 1;
  for (BddRef f = 2; f < nodes_.size(); ++f) {
    const Node& n = nodes_[f];
    size_t slot = uniqueHome(n.var, n.lo, n.hi);
    while (unique_[slot] != 0) slot = (slot + 1) & mask;
    unique_[slot] = f;
  }
  poolLedger_.charge(oldSlots * sizeof(BddRef));
}

void BddManager::growCache() {
  std::vector<CacheEntry> old(2 * cache_.size(), CacheEntry{});
  old.swap(cache_);
  for (const CacheEntry& e : old) {
    if (e.f != kFalse) cache_[cacheSlot(e.f, e.g, e.h)] = e;
  }
  poolLedger_.charge(old.size() * sizeof(CacheEntry));
}

BddRef BddManager::mkNode(Var var, BddRef lo, BddRef hi) {
  if (lo == hi) return lo;  // reduction rule
  size_t slot = 0;
  if (BddRef found = uniqueFind(var, lo, hi, slot); found != 0) return found;
  if (governor_ != nullptr) {
    // Injected node-pool exhaustion, then the cooperative checkpoint: a
    // governed manager is the one place that unwinds by exception, because
    // the recursive apply cannot represent "partial node" in its return.
    // Nothing is inserted yet, so a throw leaves both tables consistent.
    if (faults::maybeFail("bdd.alloc")) governor_->trip(Outcome::kMemory);
    poolLedger_.charge(kBddNodeBytes);
    Outcome outcome = governor_->poll();
    if (outcome != Outcome::kComplete) throw GovernorStop{outcome};
  }
  BddRef ref = static_cast<BddRef>(nodes_.size());
  nodes_.push_back({var, lo, hi});
  unique_[slot] = ref;
  if (2 * ++uniqueEntries_ > unique_.size()) growUnique();
  if (nodes_.size() > cache_.size() && cache_.size() < kMaxCacheSlots) growCache();
  return ref;
}

BddRef BddManager::variable(Var v) {
  PRESAT_CHECK(v >= 0 && v < numVars_) << "BDD variable out of range: " << v;
  return mkNode(v, kFalse, kTrue);
}

BddRef BddManager::literal(Var v, bool phase) {
  PRESAT_CHECK(v >= 0 && v < numVars_) << "BDD variable out of range: " << v;
  return phase ? mkNode(v, kFalse, kTrue) : mkNode(v, kTrue, kFalse);
}

BddRef BddManager::cube(const LitVec& lits) {
  // Build bottom-up in descending variable order so each mkNode call is O(1).
  LitVec sorted = lits;
  std::sort(sorted.begin(), sorted.end(),
            [](Lit a, Lit b) { return a.var() < b.var(); });
  for (size_t i = 1; i < sorted.size(); ++i) {
    PRESAT_CHECK(sorted[i].var() != sorted[i - 1].var() || sorted[i] == sorted[i - 1])
        << "contradictory cube";
  }
  sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
  BddRef acc = kTrue;
  for (size_t i = sorted.size(); i-- > 0;) {
    Lit l = sorted[i];
    acc = l.sign() ? mkNode(l.var(), acc, kFalse) : mkNode(l.var(), kFalse, acc);
  }
  return acc;
}

Var BddManager::topVar(BddRef f) const {
  PRESAT_DCHECK(!isConstant(f));
  return node(f).var;
}

BddRef BddManager::low(BddRef f) const {
  PRESAT_DCHECK(!isConstant(f));
  return node(f).lo;
}

BddRef BddManager::high(BddRef f) const {
  PRESAT_DCHECK(!isConstant(f));
  return node(f).hi;
}

BddRef BddManager::ite(BddRef f, BddRef g, BddRef h) {
  // Terminal cases.
  if (f == kTrue) return g;
  if (f == kFalse) return h;
  if (g == h) return g;
  if (g == kTrue && h == kFalse) return f;

  const CacheEntry& hit = cache_[cacheSlot(f, g, h)];
  if (hit.f == f && hit.g == g && hit.h == h) return hit.result;

  // Split on the smallest top variable among the operands (terminals carry
  // var == numVars, past every interior variable).
  const Node nf = node(f);
  const Node ng = node(g);
  const Node nh = node(h);
  const Var v = std::min({nf.var, ng.var, nh.var});
  const BddRef lo = ite(nf.var == v ? nf.lo : f, ng.var == v ? ng.lo : g, nh.var == v ? nh.lo : h);
  const BddRef hi = ite(nf.var == v ? nf.hi : f, ng.var == v ? ng.hi : g, nh.var == v ? nh.hi : h);
  const BddRef result = mkNode(v, lo, hi);
  // Re-index: the recursion may have grown the table.
  cache_[cacheSlot(f, g, h)] = {f, g, h, result};
  return result;
}

BddRef BddManager::restrict1(BddRef f, Var v, bool value) {
  if (isConstant(f)) return f;
  Var top = node(f).var;
  if (top > v) return f;
  if (top == v) return value ? node(f).hi : node(f).lo;
  // Simple recursion without cache: restrict1 is only used on small BDDs
  // (target cubes, tests).
  return mkNode(top, restrict1(node(f).lo, v, value), restrict1(node(f).hi, v, value));
}

}  // namespace presat
