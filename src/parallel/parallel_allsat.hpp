// Cube-and-conquer front-end over the enumeration engines.
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
// Determinism contract: the split plan depends only on the problem and
// ParallelOptions::splitDepth — never on `jobs` — and the merge is keyed by
// shard index, so any jobs >= 1 produces a bit-identical AllSatResult
// (cubes, counts, graph). Only wall-clock time and the parallel.* pool
// metrics vary with the worker count.
#pragma once

#include <span>
#include <vector>

#include "allsat/blocking.hpp"
#include "allsat/projection.hpp"
#include "allsat/success_driven.hpp"
#include "cnf/cnf.hpp"

namespace presat {

class CircuitWidener;

// Parallel counterpart of successDrivenAllSat. Root i of the returned
// solution graph is problems[i]'s shard graphs merged under a split-variable
// decision tree. The cover, its maxCubes cap and the count are read off the
// merged graph's BDD exactly as the serial engine reads them, so they equal
// the serial result for every jobs >= 1.
SuccessDrivenResult parallelSuccessDrivenAllSat(const CircuitAllSatProblem& problem,
                                                const AllSatOptions& options);
SuccessDrivenResult parallelSuccessDrivenAllSat(std::span<const CircuitAllSatProblem> problems,
                                                const AllSatOptions& options);

// Which serial CNF engine solves each subcube.
enum class ParallelCnfEngine {
  kBlocking,  // blockingAllSat; lifts with `lifter` when it is non-empty
  // Chronological backtracking (allsat/chrono_blocking.hpp). The guide
  // literals are unit clauses, i.e. level-0 assignments, so every emitted
  // prefix cube contains them automatically — the engine cannot escape its
  // shard and needs no guide-preserving lifter wrapper.
  kChrono,
};

// Parallel counterpart of blockingAllSat / chronoAllSat. Each shard solves a
// copy of `cnf` with its guiding cube added as unit clauses. `lifter` (may
// be empty; chrono ignores it) is built against the ORIGINAL formula; the shards
// wrap it so every lifted cube keeps its guide literals and stays inside the
// shard's region of the partition. `widener` (may be null; blocking ignores
// it) is chrono's circuit-side argument, shared by every shard as is: guide
// literals are level-0 assignments, which the widening always keeps.
AllSatResult parallelCnfAllSat(const Cnf& cnf, const std::vector<Var>& projection,
                               ParallelCnfEngine engine, const ModelLifter& lifter,
                               const AllSatOptions& options,
                               const CircuitWidener* widener = nullptr);

}  // namespace presat
