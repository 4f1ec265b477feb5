#include "allsat/compress.hpp"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "allsat/projection.hpp"
#include "base/log.hpp"
#include "base/metrics.hpp"
#include "govern/governor.hpp"

namespace presat {

namespace {

void canonicalizeCube(LitVec& cube) {
  std::sort(cube.begin(), cube.end());
  for (size_t i = 0; i + 1 < cube.size(); ++i) {
    PRESAT_CHECK(cube[i].var() != cube[i + 1].var())
        << "cube mentions x" << cube[i].var() << " twice";
  }
}

// Order-dependent 64-bit combine (splitmix64 finalizer on each value folded
// into an FNV-style accumulator). Cubes are canonical (sorted), so the
// order-dependence is deterministic; collisions are handled by the exact
// comparisons below, never by trusting the hash.
uint64_t mix64(uint64_t h, uint64_t v) {
  v += 0x9e3779b97f4a7c15ULL;
  v = (v ^ (v >> 30)) * 0xbf58476d1ce4e5b9ULL;
  v = (v ^ (v >> 27)) * 0x94d049bb133111ebULL;
  v ^= v >> 31;
  return (h * 0x100000001b3ULL) ^ v;
}

uint64_t cubeHash(const LitVec& cube) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (Lit l : cube) h = mix64(h, static_cast<uint32_t>(l.code()));
  return h;
}

// Hash identifying (cube minus the literal at `skip`, that literal's
// variable): two alive cubes probe to the same key with opposite signs
// exactly when they are wildcard-mergeable. Hashing the codes directly
// (instead of materializing a byte-string key per probe) keeps the round
// allocation-free on the hot path.
uint64_t mergeHash(const LitVec& cube, size_t skip) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (size_t i = 0; i < cube.size(); ++i) {
    if (i == skip) continue;
    h = mix64(h, static_cast<uint32_t>(cube[i].code()));
  }
  h = mix64(h, (1ULL << 32) | static_cast<uint32_t>(cube[skip].var()));
  return h;
}

// Exact equality of the merge keys (a minus position p, a[p].var()) and
// (b minus position q, b[q].var()) — the collision check behind mergeHash.
bool mergeKeyEquals(const LitVec& a, size_t p, const LitVec& b, size_t q) {
  if (a.size() != b.size()) return false;
  if (a[p].var() != b[q].var()) return false;
  for (size_t i = 0, j = 0; i < a.size(); ++i, ++j) {
    if (i == p) ++i;
    if (j == q) ++j;
    if (i >= a.size()) break;
    if (a[i] != b[j]) return false;
  }
  return true;
}

// Approximate resident bytes of one round's hash table: one multimap node
// (hash key, cube index, position, bucket bookkeeping) per literal of every
// cube.
uint64_t roundTableBytes(const std::vector<LitVec>& cubes) {
  uint64_t bytes = 0;
  for (const LitVec& c : cubes) {
    bytes += c.size() * 48;
  }
  return bytes;
}

// Drops exact duplicates in place (first occurrence wins). Returns the
// number dropped.
uint64_t dropDuplicates(std::vector<LitVec>& cubes) {
  std::unordered_multimap<uint64_t, uint32_t> seen;
  seen.reserve(cubes.size() * 2);
  uint64_t dropped = 0;
  size_t out = 0;
  for (size_t i = 0; i < cubes.size(); ++i) {
    uint64_t h = cubeHash(cubes[i]);
    bool duplicate = false;
    auto range = seen.equal_range(h);
    for (auto it = range.first; it != range.second; ++it) {
      if (cubes[static_cast<size_t>(it->second)] == cubes[i]) {
        duplicate = true;
        break;
      }
    }
    if (duplicate) {
      ++dropped;
      continue;
    }
    if (out != i) cubes[out] = std::move(cubes[i]);
    seen.emplace(h, static_cast<uint32_t>(out));
    ++out;
  }
  cubes.resize(out);
  return dropped;
}

// True iff every literal of `inner` appears in `outer` (both sorted):
// `inner` then covers a superset of `outer`'s minterms.
bool cubeSubsumes(const LitVec& inner, const LitVec& outer) {
  size_t j = 0;
  for (Lit l : inner) {
    while (j < outer.size() && outer[j] < l) ++j;
    if (j == outer.size() || outer[j] != l) return false;
  }
  return true;
}

}  // namespace

void exportCompressToMetrics(const CompressStats& stats, Metrics& m) {
  m.setCounter("compress.cubes_in", stats.cubesIn);
  m.setCounter("compress.cubes_out", stats.cubesOut);
  m.setCounter("compress.merges", stats.merges);
  m.setCounter("compress.duplicates", stats.duplicates);
  m.setCounter("compress.subsumed", stats.subsumed);
  m.setCounter("compress.rounds", stats.rounds);
}

CompressStats compressCubes(std::vector<LitVec>& cubes, Governor* governor,
                            std::vector<CompressMergeRecord>* trace) {
  CompressStats stats;
  stats.cubesIn = cubes.size();
  for (LitVec& c : cubes) canonicalizeCube(c);

  MemoryLedger ledger;
  ledger.attach(governor);
  for (;;) {
    // A trip mid-compression is sound: the current cube list is an
    // equivalent cover at every round boundary.
    if (governor != nullptr && governor->poll() != Outcome::kComplete) break;
    ++stats.rounds;
    // Merging overlapping covers can recreate exact duplicates, so dedup
    // every round (a no-op for disjoint inputs, which never produce them).
    stats.duplicates += dropDuplicates(cubes);
    ledger.charge(roundTableBytes(cubes));

    // Greedy one-merge-per-cube round: each cube registers every
    // (cube - literal, variable) key; an opposite-sign partner merges and
    // both parents die for the rest of the round. Only the first cube to
    // probe a key registers it (later non-merging probes are dropped, as
    // with the map-emplace formulation this replaces); the multimap exists
    // to resolve 64-bit hash collisions by exact comparison.
    std::unordered_multimap<uint64_t, std::pair<uint32_t, uint32_t>> table;
    table.reserve(cubes.size() * 4);
    std::vector<uint8_t> dead(cubes.size(), 0);
    std::vector<LitVec> merged;
    uint64_t roundMerges = 0;
    for (size_t i = 0; i < cubes.size(); ++i) {
      for (size_t p = 0; p < cubes[i].size() && !dead[i]; ++p) {
        uint64_t h = mergeHash(cubes[i], p);
        auto range = table.equal_range(h);
        auto it = range.first;
        for (; it != range.second; ++it) {
          if (mergeKeyEquals(cubes[static_cast<size_t>(it->second.first)], it->second.second,
                             cubes[i], p)) {
            break;
          }
        }
        if (it == range.second) {
          table.emplace(h, std::make_pair(static_cast<uint32_t>(i), static_cast<uint32_t>(p)));
          continue;
        }
        auto [j, q] = it->second;
        if (dead[j] || cubes[j][q] != ~cubes[i][p]) continue;
        LitVec wide;
        wide.reserve(cubes[i].size() - 1);
        for (size_t r = 0; r < cubes[i].size(); ++r) {
          if (r != p) wide.push_back(cubes[i][r]);
        }
        dead[i] = dead[j] = 1;
        if (trace != nullptr) trace->push_back({cubes[i][p].var(), wide});
        merged.push_back(std::move(wide));
        ++roundMerges;
      }
    }
    if (roundMerges == 0) break;
    stats.merges += roundMerges;
    std::vector<LitVec> next;
    next.reserve(cubes.size() - roundMerges);
    for (size_t i = 0; i < cubes.size(); ++i) {
      if (!dead[i]) next.push_back(std::move(cubes[i]));
    }
    for (LitVec& c : merged) next.push_back(std::move(c));
    cubes = std::move(next);
  }
  stats.cubesOut = cubes.size();
  return stats;
}

CompressStats dedupCubes(std::vector<LitVec>& cubes) {
  CompressStats stats;
  stats.cubesIn = cubes.size();
  for (LitVec& c : cubes) canonicalizeCube(c);
  stats.duplicates = dropDuplicates(cubes);

  // Subsumption is quadratic, so it only runs on covers small enough for
  // that to be cheap; larger covers keep possibly-subsumed cubes (the union
  // is unaffected either way).
  constexpr size_t kMaxSubsumptionCubes = 4096;
  if (cubes.size() <= kMaxSubsumptionCubes) {
    // Wider cubes (fewer literals) first: a cube can only be subsumed by a
    // strictly-or-equally wider one already kept.
    std::stable_sort(cubes.begin(), cubes.end(), [](const LitVec& a, const LitVec& b) {
      return a.size() < b.size();
    });
    std::vector<LitVec> kept;
    kept.reserve(cubes.size());
    for (LitVec& c : cubes) {
      bool covered = false;
      for (const LitVec& k : kept) {
        if (cubeSubsumes(k, c)) {
          covered = true;
          break;
        }
      }
      if (covered) {
        ++stats.subsumed;
      } else {
        kept.push_back(std::move(c));
      }
    }
    cubes = std::move(kept);
  }
  stats.cubesOut = cubes.size();
  return stats;
}

void applyProjectionPostpass(AllSatResult& result, const AllSatOptions& options, CoverKind kind) {
  if (!options.project && !options.compress) return;
  CompressStats total;
  total.cubesIn = result.cubes.size();
  if (options.project && kind == CoverKind::kOverlapping) {
    CompressStats d = dedupCubes(result.cubes);
    total.duplicates += d.duplicates;
    total.subsumed += d.subsumed;
  }
  if (options.compress && kind != CoverKind::kIsop) {
    CompressStats c = compressCubes(result.cubes, options.governor, options.compressTrace);
    total.merges += c.merges;
    total.duplicates += c.duplicates;
    total.rounds += c.rounds;
  }
  total.cubesOut = result.cubes.size();
  if (options.project) {
    result.metrics.setCounter("proj.cubes", result.cubes.size());
  }
  if (options.compress) {
    exportCompressToMetrics(total, result.metrics);
  }
}

}  // namespace presat
