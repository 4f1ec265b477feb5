// Stand-alone cover shrinking, for callers that hold a cover outside an
// engine run. The engines themselves shrink through finishCover
// (allsat/projection.hpp) when `compress` is on; both return the same
// cover: the irredundant sum of products isop(f, f) of the cover's union f,
// the one success-driven and kBdd return. That cover is irredundant, not
// minimum: it can have more cubes than the cover it replaces, even a
// disjoint one, so cubesOut may exceed cubesIn.
#pragma once

#include <cstdint>
#include <vector>

#include "base/types.hpp"

namespace presat {

class Governor;
struct CompressMergeRecord;

struct CompressStats {
  uint64_t cubesIn = 0;
  uint64_t cubesOut = 0;
};

// Replaces `cubes` (projected index space, each variable at most once per
// cube) by the ISOP of their union over variables 0..max var. The scratch
// BDD is charged to `governor` when non-null; a trip keeps `cubes` as they
// were, which is the same union. `trace` is left untouched: an ISOP has no
// merge witnesses.
CompressStats compressCubes(std::vector<LitVec>& cubes, Governor* governor = nullptr,
                            std::vector<CompressMergeRecord>* trace = nullptr);

}  // namespace presat
