// Cube-and-conquer split path of the enumeration engines.
//
// The search space is partitioned into disjoint guiding cubes
// (parallel/cube_splitter.hpp), each subproblem is solved by an independent
// serial engine instance on a work-stealing pool (parallel/worker_pool.hpp),
// and the per-shard answers are reassembled deterministically
// (parallel/merge.hpp). Workers share NOTHING mutable: each owns its Solver /
// justification engine, its CNF copy or objective list, and a private result
// slot indexed by shard — disjointness is what removes the blocking-clause
// interference that makes naive parallel all-SAT unsound.
//
// Only the engines call this layer: successDrivenAllSat, chronoAllSat and
// minterm blocking pick it themselves when options.parallel.jobs >= 1.
// Lifted cube blocking never splits (DESIGN.md "Parallel enumeration").
//
// Determinism contract: the split plan depends only on the problem — never
// on `jobs` — and the merge is keyed by shard index, so any jobs >= 1
// produces a bit-identical AllSatResult (cubes, counts, graph). Only
// wall-clock time and the parallel.* pool metrics vary with the worker count.
#pragma once

#include <functional>
#include <span>
#include <vector>

#include "allsat/projection.hpp"
#include "allsat/success_driven.hpp"
#include "cnf/cnf.hpp"

namespace presat {

// Split path of successDrivenAllSat. Root i of the returned solution graph
// is problems[i]'s shard graphs merged under a split-variable decision tree.
// The cover, its maxCubes cap and the count are read off the merged graph's
// BDD exactly as the serial engine reads them, so they equal the serial
// result for every jobs >= 1.
SuccessDrivenResult parallelSuccessDrivenAllSat(std::span<const CircuitAllSatProblem> problems,
                                                const AllSatOptions& options);

// One shard of a CNF engine: enumerate `sub` (the caller's formula plus the
// shard's guide literals as unit clauses) over the caller's projection with
// the serial per-shard `options`. Its cover must be disjoint and every cube
// must keep the guide literals — true of minterm blocking and of chrono,
// whose guide units are level-0 assignments that every emitted prefix
// contains.
using CnfShardSolver = std::function<AllSatResult(const Cnf& sub, const AllSatOptions& options)>;

// Split path of the CNF engines, on an already preprocessed formula. The
// engine label is the caller's to set.
AllSatResult parallelCnfAllSat(const Cnf& cnf, const std::vector<Var>& projection,
                               const AllSatOptions& options, const CnfShardSolver& solveShard);

}  // namespace presat
