// Wildcard cube-set compression (Wild, arXiv 1712.00751 style) and the
// projection post-pass shared by the all-solutions engines.
//
// The core rewrite is the wildcard merge (x & A) | (~x & A) = A: two cubes
// identical except for one opposite-polarity literal collapse into one cube
// with that literal dropped. The merge preserves the cube-set UNION exactly,
// and — because the merged cube covers precisely its two parents — it also
// preserves pairwise disjointness of disjoint inputs. mintermCount therefore
// never needs recomputation after compression.
#pragma once

#include <cstdint>
#include <vector>

#include "base/types.hpp"

namespace presat {

class Governor;
class Metrics;
struct AllSatOptions;
struct AllSatResult;
struct CompressMergeRecord;
enum class CoverKind;

struct CompressStats {
  uint64_t cubesIn = 0;
  uint64_t cubesOut = 0;
  uint64_t merges = 0;      // wildcard pair merges applied
  uint64_t duplicates = 0;  // exact duplicate cubes dropped
  uint64_t subsumed = 0;    // cubes dropped for lying inside a wider cube
  uint64_t rounds = 0;      // merge rounds until fixpoint
};

// Serializes the compress.* counter block (presat_cli --stats json and the
// BENCH_*.json files).
void exportCompressToMetrics(const CompressStats& stats, Metrics& m);

// Wildcard-merges `cubes` in place to a fixpoint (literals end up sorted by
// variable). Union-preserving always; disjointness-preserving for disjoint
// inputs. When `governor` is non-null the working tables are charged to its
// tracked-byte pool and the pass stops early at a trip — sound, since every
// intermediate state is an equivalent cover. Cubes must be well-formed (no
// variable twice). When `trace` is non-null, one CompressMergeRecord is
// appended per merge applied (certificate `w` witness lines).
CompressStats compressCubes(std::vector<LitVec>& cubes, Governor* governor = nullptr,
                            std::vector<CompressMergeRecord>* trace = nullptr);

// Canonical cleanup for possibly-overlapping covers (the project-then-dedup
// mode of the blocking engines): sorts literals, drops
// exact duplicates, and — on covers small enough for the quadratic scan —
// drops cubes subsumed by a wider cube. Union-preserving.
CompressStats dedupCubes(std::vector<LitVec>& cubes);

// Engine epilogue for the projected mode: applies dedupCubes when the
// engine's raw cubes may overlap (CoverKind::kOverlapping) and `project` is
// on, then compressCubes when `compress` is on and the cover is no ISOP, and
// stamps the proj.* / compress.* metrics. Call after the cube set is final
// but before counting or exporting stats; the union (and hence mintermCount)
// is unchanged.
void applyProjectionPostpass(AllSatResult& result, const AllSatOptions& options, CoverKind kind);

}  // namespace presat
