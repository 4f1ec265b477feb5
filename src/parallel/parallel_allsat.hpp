// Cube-and-conquer split path of the CNF enumeration engines.
//
// The search space is partitioned into disjoint guiding cubes
// (parallel/cube_splitter.hpp), each subproblem is solved by an independent
// serial engine instance on a work-stealing pool (parallel/worker_pool.hpp),
// and the per-shard answers are reassembled deterministically
// (parallel/merge.hpp). Workers share NOTHING mutable: each owns its Solver
// and its CNF copy, and writes a private result slot indexed by shard —
// disjointness is what removes the blocking-clause interference that makes
// naive parallel all-SAT unsound.
//
// Only the engines call this layer: chronoAllSat and minterm blocking pick
// it themselves when options.parallel.jobs >= 1. Lifted cube blocking and
// the success-driven engine never split: split, both ran slower than serial
// (DESIGN.md "Parallel enumeration" has the measurements).
//
// Determinism contract: the split plan depends only on the problem — never
// on `jobs` — and the merge is keyed by shard index, so any jobs >= 1
// produces a bit-identical AllSatResult (cubes, counts). Only wall-clock
// time and the parallel.* pool metrics vary with the worker count.
#pragma once

#include <functional>
#include <vector>

#include "allsat/projection.hpp"
#include "cnf/cnf.hpp"

namespace presat {

// One shard of a CNF engine: enumerate `sub` (the caller's formula plus the
// shard's guide literals as unit clauses) over the caller's projection with
// the serial per-shard `options`. Its cover must be disjoint and every cube
// must keep the guide literals — true of minterm blocking and of chrono,
// whose guide units are level-0 assignments that every emitted prefix
// contains.
using CnfShardSolver = std::function<AllSatResult(const Cnf& sub, const AllSatOptions& options)>;

// Split path of the CNF engines. The engine label is the caller's to set.
AllSatResult parallelCnfAllSat(const Cnf& cnf, const std::vector<Var>& projection,
                               const AllSatOptions& options, const CnfShardSolver& solveShard);

}  // namespace presat
