#include "serve/cache.hpp"

#include <algorithm>

#include "base/check.hpp"

namespace presat::serve {

namespace {

inline uint64_t mix(uint64_t h, uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  return h;
}

uint64_t hashString(uint64_t h, const std::string& s) {
  for (char c : s) h = mix(h, static_cast<unsigned char>(c));
  return mix(h, s.size());
}

}  // namespace

size_t CacheKeyHash::operator()(const CacheKey& k) const {
  uint64_t h = mix(0x73657276ull, k.circuitHash);
  h = hashString(h, k.target);
  h = hashString(h, k.method);
  h = mix(h, (k.project ? 2u : 0u) | (k.compress ? 1u : 0u));
  return static_cast<size_t>(h);
}

// Lifecycle: an entry is created in-flight by the leader's acquire(); it
// becomes ready (publish of a complete cover), or is torn down (abandon /
// publish of a partial). Followers blocked in acquire() pin the entry via
// `followers` until the last one has copied the payload out.
struct ServeCache::Entry {
  bool ready = false;
  bool abandoned = false;
  CachedCover payload;
  uint64_t bytes = 0;
  uint64_t lastTouch = 0;
  int followers = 0;
};

ServeCache::ServeCache(uint64_t maxBytes, Governor* governor) : maxBytes_(maxBytes) {
  MutexLock lock(mu_);
  ledger_.attach(governor);
}

ServeCache::~ServeCache() {
  MutexLock lock(mu_);
  ledger_.attach(nullptr);
}

uint64_t ServeCache::entryBytes(const CacheKey& key, const CachedCover& payload) const {
  uint64_t b = 96;  // entry + table-slot overhead
  b += key.target.size() + key.method.size();
  b += payload.cubes.size() * (sizeof(LitVec) + 8);
  for (const LitVec& cube : payload.cubes) b += cube.size() * sizeof(Lit);
  b += payload.cert.size();
  return b;
}

namespace {

// A hit's copy of the cached payload. The certificate (tens of KB on the
// serve shape) is copied only for a request that asked for one.
void copyPayload(const CachedCover& from, bool withCert, CachedCover& to) {
  to.cubes = from.cubes;
  to.count = from.count;
  to.outcome = from.outcome;
  to.width = from.width;
  if (withCert) to.cert = from.cert;
}

}  // namespace

CacheLookup ServeCache::acquire(const CacheKey& key, CachedCover& payload, bool withCert) {
  MutexLock lock(mu_);
  if (!enabled()) {
    ++misses_;
    return CacheLookup::kMiss;
  }
  auto it = table_.find(key);
  if (it == table_.end()) {
    table_.emplace(key, std::make_unique<Entry>());  // in-flight marker
    ++misses_;
    return CacheLookup::kMiss;
  }
  Entry& e = *it->second;
  if (e.ready) {
    e.lastTouch = ++clock_;
    copyPayload(e.payload, withCert, payload);
    ++hits_;
    return CacheLookup::kHit;
  }
  // In-flight: become a follower of the leader computing this key.
  ++e.followers;
  while (!e.ready && !e.abandoned) ready_.wait(mu_);
  copyPayload(e.payload, withCert, payload);
  --e.followers;
  if (e.abandoned && e.followers == 0) table_.erase(key);
  ++dedups_;
  return CacheLookup::kDedup;
}

void ServeCache::publish(const CacheKey& key, const CachedCover& payload) {
  if (payload.outcome != Outcome::kComplete) {
    // A partial cover is budget-specific: hand it to followers, don't retain.
    abandon(key, payload);
    return;
  }
  {
    MutexLock lock(mu_);
    if (!enabled()) return;
    auto it = table_.find(key);
    if (it == table_.end()) return;  // entry shed between acquire and publish
    Entry& e = *it->second;
    PRESAT_CHECK(!e.ready) << "serve cache: double publish for one key";
    e.ready = true;
    e.payload = payload;
    e.bytes = entryBytes(key, payload);
    e.lastTouch = ++clock_;
    bytes_ += e.bytes;
    ledger_.charge(e.bytes);
    ++inserts_;
  }
  ready_.notifyAll();
  if (bytes() > maxBytes_) shed(maxBytes_ / 2);
}

void ServeCache::abandon(const CacheKey& key, const CachedCover& partial) {
  {
    MutexLock lock(mu_);
    if (!enabled()) return;
    auto it = table_.find(key);
    if (it == table_.end()) return;
    Entry& e = *it->second;
    PRESAT_CHECK(!e.ready) << "serve cache: abandon after publish";
    e.abandoned = true;
    e.payload = partial;
    if (e.followers == 0) {
      table_.erase(it);
    }
  }
  ready_.notifyAll();
}

void ServeCache::refresh(const CacheKey& key, const CachedCover& payload) {
  if (payload.outcome != Outcome::kComplete) return;  // partials are never retained
  {
    MutexLock lock(mu_);
    if (!enabled()) return;
    auto it = table_.find(key);
    if (it == table_.end() || !it->second->ready) return;
    Entry& e = *it->second;
    bytes_ -= e.bytes;
    ledger_.release(e.bytes);
    e.payload = payload;
    e.bytes = entryBytes(key, payload);
    e.lastTouch = ++clock_;
    bytes_ += e.bytes;
    ledger_.charge(e.bytes);
  }
  if (bytes() > maxBytes_) shed(maxBytes_ / 2);
}

void ServeCache::evictLocked(const CacheKey& key) {
  auto it = table_.find(key);
  PRESAT_CHECK(it != table_.end());
  Entry& e = *it->second;
  bytes_ -= e.bytes;
  ledger_.release(e.bytes);
  table_.erase(it);
  ++evictions_;
}

size_t ServeCache::shed(uint64_t targetBytes) {
  MutexLock lock(mu_);
  size_t evicted = 0;
  if (bytes_ <= targetBytes) return 0;
  // Generation 1: everything not touched since the previous sweep goes — the
  // second-chance discipline the success-driven memo uses.
  std::vector<std::pair<uint64_t, CacheKey>> survivors;
  std::vector<CacheKey> cold;
  for (const auto& [key, entry] : table_) {
    if (!entry->ready || entry->followers > 0) continue;  // in-flight: pinned
    if (entry->lastTouch <= sweepMark_) {
      cold.push_back(key);
    } else {
      survivors.emplace_back(entry->lastTouch, key);
    }
  }
  for (const CacheKey& key : cold) {
    evictLocked(key);
    ++evicted;
  }
  // Generation 2: strict LRU among the hot survivors until under target.
  std::sort(survivors.begin(), survivors.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  for (const auto& [touch, key] : survivors) {
    if (bytes_ <= targetBytes) break;
    evictLocked(key);
    ++evicted;
  }
  sweepMark_ = clock_;
  return evicted;
}

uint64_t ServeCache::bytes() const {
  MutexLock lock(mu_);
  return bytes_;
}

size_t ServeCache::entries() const {
  MutexLock lock(mu_);
  return table_.size();
}

void ServeCache::exportMetrics(Metrics& m) const {
  MutexLock lock(mu_);
  m.setCounter("serve.cache.hits", hits_);
  m.setCounter("serve.cache.misses", misses_);
  m.setCounter("serve.cache.dedups", dedups_);
  m.setCounter("serve.cache.evictions", evictions_);
  m.setCounter("serve.cache.inserts", inserts_);
  m.setCounter("serve.cache.entries", table_.size());
  m.setCounter("serve.cache.bytes", bytes_);
}

size_t CircuitIdentities::KeyHash::operator()(CircuitSource source) const {
  const size_t h = std::hash<std::string_view>()(source.text);
  return source.generator ? ~h : h;
}

CircuitIdentities::CircuitIdentities(uint64_t maxBytes, Governor* governor)
    : maxBytes_(maxBytes) {
  MutexLock lock(mu_);
  ledger_.attach(governor);
}

CircuitIdentities::~CircuitIdentities() {
  MutexLock lock(mu_);
  ledger_.attach(nullptr);
}

std::optional<CircuitIdentity> CircuitIdentities::find(CircuitSource source) {
  MutexLock lock(mu_);
  auto it = entries_.find(source);
  if (it == entries_.end()) return std::nullopt;
  it->second.lastTouch = ++clock_;
  return it->second.identity;
}

void CircuitIdentities::remember(CircuitSource source, CircuitIdentity identity) {
  MutexLock lock(mu_);
  auto it = entries_.find(source);
  if (it == entries_.end()) {
    // A racing request may have remembered the source first; building is
    // deterministic, so its identity is this one.
    Entry entry;
    entry.identity = identity;
    entry.bytes = 96 + source.text.size();  // entry + table-slot overhead
    bytes_ += entry.bytes;
    ledger_.charge(entry.bytes);
    it = entries_.emplace(Key{source.generator, std::string(source.text)}, entry).first;
  }
  it->second.lastTouch = ++clock_;
  // Self-shed with slack, so a full memo sorts once per eighth of its bytes
  // rather than once per new source.
  if (bytes_ > maxBytes_) shedLocked(maxBytes_ - maxBytes_ / 8);
}

size_t CircuitIdentities::shed(uint64_t targetBytes) {
  MutexLock lock(mu_);
  return shedLocked(targetBytes);
}

size_t CircuitIdentities::shedLocked(uint64_t targetBytes) {
  if (bytes_ <= targetBytes) return 0;
  std::vector<decltype(entries_)::iterator> byAge;
  byAge.reserve(entries_.size());
  for (auto it = entries_.begin(); it != entries_.end(); ++it) byAge.push_back(it);
  std::sort(byAge.begin(), byAge.end(),
            [](auto a, auto b) { return a->second.lastTouch < b->second.lastTouch; });
  size_t evicted = 0;
  for (auto it : byAge) {
    if (bytes_ <= targetBytes) break;
    bytes_ -= it->second.bytes;
    ledger_.release(it->second.bytes);
    entries_.erase(it);
    ++evicted;
  }
  return evicted;
}

size_t CircuitIdentities::entries() const {
  MutexLock lock(mu_);
  return entries_.size();
}

}  // namespace presat::serve
