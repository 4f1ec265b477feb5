// Deterministic merge of per-subcube enumeration results.
//
// Each shard solved the original formula restricted to one guiding cube of
// the split plan (parallel/cube_splitter.hpp). Because the guiding cubes are
// pairwise disjoint and jointly exhaustive, merging is pure bookkeeping with
// no blocking-clause interference between shards: cube lists concatenate in
// shard-index order, and the union stays exact and disjoint because no two
// shards share a minterm.
//
// Everything here is keyed by shard INDEX, never by completion order, so the
// merged result is bit-identical for any worker count or schedule. The
// auditor cross-checks the disjointness assumption through the BDD oracle
// (invariants parallel.guide.disjoint / parallel.shard.guide /
// parallel.shard.disjoint) — it exists because the disjoint power-of-two
// count of the merged cover is silently wrong the moment a shard leaks outside its guiding cube.
#pragma once

#include <vector>

#include "allsat/projection.hpp"
#include "check/audit.hpp"

namespace presat {

// One subcube's solve, in shard-index order.
//
// Cross-thread ownership: shards[i] is written by exactly ONE worker (the one
// that popped task i) while the pool runs, and read only after run()'s join
// barrier — slot i is never shared between two live threads, which is why no
// member here needs a lock or an atomic. The parallel drivers preserve this
// by indexing slots with the task index, never the worker index.
struct ShardOutcome {
  LitVec guide;        // guiding cube, projected index space
  AllSatResult result; // sub-enumeration over the same projection scope
  // False until the shard's task body actually executed. A tripped governor
  // drains the worker pool, so late shards never run; the parallel driver
  // rewrites those slots as empty partial results (guide set, zero cubes,
  // the governor's stop reason) before merging.
  bool ran = false;
};

// Concatenates shard cube lists and adds stats in shard order. `outcome`
// combines via combineOutcomes (most urgent stop reason wins); metrics merge.
// The caller's finishCover then counts the merged cover, derives `complete`
// and re-exports the accumulated stats. Sound only for disjoint shards: a
// partial shard under-enumerates its own region, so the concatenation stays
// a sound under-approximation.
AllSatResult mergeShardSummaries(std::vector<ShardOutcome>& shards);

// BDD cross-check of the disjoint-partition contract:
//   parallel.guide.disjoint  guiding cubes are pairwise disjoint
//   parallel.shard.guide     every shard cube stays inside its guiding cube
//   parallel.shard.disjoint  no two shards' solution sets intersect
AuditResult auditShardPartition(const std::vector<ShardOutcome>& shards,
                                int numProjectionVars);

// Test-only corruption hook for the partition auditor (tests/check_test.cpp).
enum class ShardCorruption : int {
  kForeignCube,  // copies a shard's cube into another shard (overlap)
  kGuideEscape,  // strips the guide literals from a shard cube
};
void corruptShardsForTest(std::vector<ShardOutcome>& shards, ShardCorruption kind);

}  // namespace presat
