// Cross-query reuse for the serve layer: the result cache and the memo of
// circuit identities.
//
// ServeCache memoizes finished preimage covers across requests, keyed by
// (circuit structural hash, target cube, method, project/compress flags) —
// everything that determines the answer, and nothing that doesn't (budgets
// are excluded: results are budget-independent when complete, and every
// engine run uses the same jobs = 1). Only COMPLETE
// results are retained: a partial cover is an artifact of one request's
// budget and must not be served to a request that could afford the full
// answer. Concurrent same-key requests dedup to one computation: the first
// becomes the *leader* (kMiss — it must publish() or abandon()), later ones
// block as *followers* and receive the leader's payload when it lands.
//
// Memory: entry bytes are charged to a MemoryLedger (so a server-wide
// governor sees cache pressure in its tracked-byte pool) and bounded by
// maxBytes with generational second-chance eviction — a sweep first drops
// every entry untouched since the previous sweep, then falls back to
// strict LRU if the survivors still exceed the target. shed() is also
// callable from admission control, so memory pressure sheds cache before it
// sheds requests.
//
// CircuitIdentities remembers, per exact circuit source, the identity
// (structural hash, state-bit count) its build produced. That is all a cache
// hit needs, so a hit on a remembered source parses nothing. It holds no
// parsed circuit: every engine run builds and owns its own.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "base/biguint.hpp"
#include "base/metrics.hpp"
#include "base/sync.hpp"
#include "base/thread_annotations.hpp"
#include "base/types.hpp"
#include "govern/budget.hpp"
#include "govern/governor.hpp"

namespace presat::serve {

struct CacheKey {
  uint64_t circuitHash = 0;
  std::string target;
  std::string method;
  bool project = false;
  bool compress = false;

  bool operator==(const CacheKey& o) const = default;
};

struct CacheKeyHash {
  size_t operator()(const CacheKey& k) const;
};

// The cached payload: a finished cover plus its exact count. Bit-identical
// to what the engine produced — the cache stores and returns the cube
// vector verbatim, which is what the hit-equivalence test pins down.
struct CachedCover {
  std::vector<LitVec> cubes;
  BigUint count;
  Outcome outcome = Outcome::kComplete;
  int width = 0;
  // presat-cert-v1 text when the producing request asked for one; cached
  // alongside the cover so a later cert-requesting hit replays it verbatim.
  // Empty when the leader ran without certification (zero-cost default).
  std::string cert;
};

enum class CacheLookup {
  kHit,    // ready entry; payload filled
  kDedup,  // waited on an in-flight leader; payload filled
  kMiss,   // caller is now the leader and MUST publish() or abandon()
};

class ServeCache {
 public:
  // maxBytes = 0 disables caching entirely (every acquire is a kMiss with a
  // no-op publish). `governor` (nullable) receives the byte charges.
  ServeCache(uint64_t maxBytes, Governor* governor);
  ~ServeCache();

  ServeCache(const ServeCache&) = delete;
  ServeCache& operator=(const ServeCache&) = delete;

  // Fills `payload` on a hit or dedup; its `cert` only when `withCert`, so a
  // request that asks for no certificate copies none.
  CacheLookup acquire(const CacheKey& key, CachedCover& payload, bool withCert = true);

  // Leader epilogue: store the finished payload, wake followers. Retains the
  // entry only when payload.outcome == kComplete and caching is enabled.
  void publish(const CacheKey& key, const CachedCover& payload);

  // Leader epilogue for failed/partial runs: wake followers with the partial
  // payload (sound for any budget), drop the entry.
  void abandon(const CacheKey& key, const CachedCover& partial);

  // Replaces a READY entry's payload in place (byte accounting adjusted) —
  // the cert-upgrade path: a cert-requesting request that hit a certless
  // entry recomputes with certification and upgrades the entry so the next
  // hit replays the certificate. No-op when the entry is gone or in flight.
  void refresh(const CacheKey& key, const CachedCover& payload);

  // Generational shed toward `targetBytes` tracked bytes. Returns the number
  // of entries evicted. In-flight entries are never evicted.
  size_t shed(uint64_t targetBytes);

  uint64_t bytes() const;
  size_t entries() const;
  uint64_t maxBytes() const { return maxBytes_; }
  bool enabled() const { return maxBytes_ > 0; }

  // serve.cache.* block.
  void exportMetrics(Metrics& m) const;

 private:
  struct Entry;

  uint64_t entryBytes(const CacheKey& key, const CachedCover& payload) const;
  void evictLocked(const CacheKey& key) REQUIRES(mu_);

  const uint64_t maxBytes_;  // presat-analyze: lockfree(immutable after construction)
  mutable Mutex mu_;
  std::unordered_map<CacheKey, std::unique_ptr<Entry>, CacheKeyHash> table_ GUARDED_BY(mu_);
  MemoryLedger ledger_ GUARDED_BY(mu_);
  uint64_t bytes_ GUARDED_BY(mu_) = 0;
  uint64_t clock_ GUARDED_BY(mu_) = 0;      // LRU touch counter
  uint64_t sweepMark_ GUARDED_BY(mu_) = 0;  // clock at the last sweep
  uint64_t hits_ GUARDED_BY(mu_) = 0;
  uint64_t misses_ GUARDED_BY(mu_) = 0;
  uint64_t dedups_ GUARDED_BY(mu_) = 0;
  uint64_t evictions_ GUARDED_BY(mu_) = 0;
  uint64_t inserts_ GUARDED_BY(mu_) = 0;
  CondVar ready_;  // presat-analyze: lockfree(condition variable, internally synchronized)
};

// What a cache hit needs to know about a circuit: the hash the result
// cache keys by, and the width its target cube is checked against.
struct CircuitIdentity {
  uint64_t structuralHash = 0;
  int numStateBits = 0;
};

// A request's circuit source as CircuitIdentities keys it: a generator spec or the
// exact .bench text, compared byte for byte and viewed in place, so looking
// a source up copies none of its text.
struct CircuitSource {
  bool generator = false;
  std::string_view text;

  bool operator==(const CircuitSource&) const = default;
};

class CircuitIdentities {
 public:
  // Identities are bounded by `maxBytes` (source text plus overhead, charged
  // to `governor`, which may be null); a new source that overflows the bound
  // sheds the least recently used ones. With `maxBytes` 0 no identity
  // outlives its request.
  CircuitIdentities(uint64_t maxBytes, Governor* governor);
  ~CircuitIdentities();

  CircuitIdentities(const CircuitIdentities&) = delete;
  CircuitIdentities& operator=(const CircuitIdentities&) = delete;

  // The identity remembered for `source`, without parsing it; nullopt when
  // it was never remembered or has been shed.
  std::optional<CircuitIdentity> find(CircuitSource source);

  // Remembers the identity a successful build of `source` produced. Callers
  // never remember a source that failed to build, so every repeat of a bad
  // source is built and rejected again.
  void remember(CircuitSource source, CircuitIdentity identity);

  // Evicts the least recently used identities until their bytes are at
  // most `targetBytes`. Returns the number evicted.
  size_t shed(uint64_t targetBytes);

  size_t entries() const;

 private:
  // The owned form of a CircuitSource; the transparent hash and equality
  // let the map be searched by a view.
  struct Key {
    bool generator = false;
    std::string text;
    operator CircuitSource() const { return {generator, text}; }
  };
  struct KeyHash {
    using is_transparent = void;
    size_t operator()(CircuitSource source) const;
  };
  struct KeyEq {
    using is_transparent = void;
    bool operator()(CircuitSource a, CircuitSource b) const { return a == b; }
  };
  struct Entry {
    CircuitIdentity identity;
    uint64_t lastTouch = 0;
    uint64_t bytes = 0;
  };

  size_t shedLocked(uint64_t targetBytes) REQUIRES(mu_);

  const uint64_t maxBytes_;  // presat-analyze: lockfree(immutable after construction)
  mutable Mutex mu_;
  std::unordered_map<Key, Entry, KeyHash, KeyEq> entries_ GUARDED_BY(mu_);
  MemoryLedger ledger_ GUARDED_BY(mu_);
  uint64_t bytes_ GUARDED_BY(mu_) = 0;
  uint64_t clock_ GUARDED_BY(mu_) = 0;
};

}  // namespace presat::serve
