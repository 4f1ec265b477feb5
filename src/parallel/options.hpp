// Knobs of the cube-and-conquer parallel enumeration layer (src/parallel/).
//
// This header is dependency-free on purpose: `ParallelOptions` is embedded in
// `AllSatOptions` (allsat/projection.hpp), which every engine consumes, while
// the machinery that interprets it (splitter, worker pool, merge) lives in
// the rest of src/parallel/ and depends on the allsat layer.
#pragma once

namespace presat {

struct ParallelOptions {
  // 0 = serial engines, untouched. >= 1 lets the one engine that splits,
  // minterm blocking, partition the projected space into
  // 2^kDefaultSplitDepth guiding cubes and solve them on this many worker
  // threads. The split does NOT scale with `jobs`, so the RESULT is the same
  // for every jobs >= 1; only wall-clock changes. Lifted cube blocking,
  // chrono and success-driven run serially at every `jobs`.
  int jobs = 0;

  // 16 subcubes — enough slack for 8 workers claiming shards from the shared
  // task cursor without fragmenting small instances. Clamped to the
  // projection width.
  static constexpr int kDefaultSplitDepth = 4;
  // Largest worker count presat_cli passes on.
  static constexpr int kMaxJobs = 64;

  bool enabled() const { return jobs > 0; }
};

}  // namespace presat
