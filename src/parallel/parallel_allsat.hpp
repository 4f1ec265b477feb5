// Cube-and-conquer split path of minterm blocking.
//
// The search space is partitioned into disjoint guiding cubes
// (parallel/cube_splitter.hpp), each subproblem is solved by an independent
// serial minterm-blocking run on a worker pool whose workers claim shards
// from one shared task cursor (parallel/worker_pool.hpp), and the per-shard
// answers are reassembled deterministically (parallel/merge.hpp). Workers
// share NOTHING mutable: each owns its Solver and its CNF copy, and writes a
// private result slot indexed by shard — disjointness is what removes the
// blocking-clause interference that makes naive parallel all-SAT unsound.
//
// Only minterm blocking calls this layer: blockingAllSat without a lifter
// picks it itself when options.parallel.jobs >= 1. Its clause database
// grows with every solution, so each shard holds a sixteenth of it. Lifted
// cube blocking, chrono and the success-driven engine never split: split,
// each ran slower than serial (DESIGN.md "Parallel enumeration" has the
// measurements).
//
// Determinism contract: the split plan depends only on the problem — never
// on `jobs` — and the merge is keyed by shard index, so any jobs >= 1
// produces a bit-identical AllSatResult (cubes, counts). Only wall-clock
// time and the parallel.* pool metrics vary with the worker count.
#pragma once

#include <vector>

#include "allsat/projection.hpp"
#include "cnf/cnf.hpp"

namespace presat {

// Split path of minterm blocking (engine label "minterm-blocking"): every
// shard enumerates the caller's formula plus its guide literals as unit
// clauses over `projection`, serially and uncompressed. Minterm cubes name
// every scope variable, so each keeps its shard's guide and the merged
// cover is disjoint. It leaves through finishCover like every serial one.
AllSatResult parallelMintermAllSat(const Cnf& cnf, const std::vector<Var>& projection,
                                   const AllSatOptions& options);

}  // namespace presat
