#include "parallel/parallel_allsat.hpp"

#include <cstdint>
#include <utility>

#include "allsat/blocking.hpp"
#include "base/check.hpp"
#include "base/sync.hpp"
#include "base/timer.hpp"
#include "govern/faults.hpp"
#include "govern/governor.hpp"
#include "parallel/cube_splitter.hpp"
#include "parallel/merge.hpp"
#include "parallel/worker_pool.hpp"

namespace presat {

namespace {

// Per-shard options: serial minterm blocking (no recursive splitting) that
// hands in its raw disjoint cover; only the merged cover is shrunk.
AllSatOptions shardOptions(const AllSatOptions& options) {
  AllSatOptions inner = options;
  inner.parallel = ParallelOptions{};
  inner.compress = false;
  return inner;
}

// Shard-task prologue: the injected "one worker died" drill cancels the
// shared governor, then a tripped governor skips the body entirely. Returns
// true when the shard should run.
bool beginShard(Governor* governor) {
  if (faults::maybeFail("parallel.shard") && governor != nullptr) {
    governor->trip(Outcome::kCancelled);
  }
  return governor == nullptr || !governor->tripped();
}

// The global cube cap across shards. The pool claims shards in index order
// and the merge concatenates them in that order, so once the finished prefix
// of shards holds more than maxCubes cubes, the trimmed cover is fixed: no
// later shard can add a cube that survives the trim, and the cap is hit.
class ShardPrefixCap {
 public:
  ShardPrefixCap(size_t numShards, uint64_t maxCubes)
      : maxCubes_(maxCubes), cubes_(numShards, kUnfinished) {}

  void finish(size_t shard, size_t cubes) EXCLUDES(mu_) {
    MutexLock lock(mu_);
    cubes_[shard] = cubes;
    while (prefix_ < cubes_.size() && cubes_[prefix_] != kUnfinished) {
      prefixCubes_ += cubes_[prefix_++];
    }
  }
  bool reached() EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return maxCubes_ != 0 && prefixCubes_ > maxCubes_;
  }

 private:
  static constexpr size_t kUnfinished = SIZE_MAX;
  Mutex mu_;
  const uint64_t maxCubes_ GUARDED_BY(mu_);
  std::vector<size_t> cubes_ GUARDED_BY(mu_);  // per shard; kUnfinished until it ran
  size_t prefix_ GUARDED_BY(mu_) = 0;          // shards [0, prefix_) have finished
  uint64_t prefixCubes_ GUARDED_BY(mu_) = 0;
};

// Rewrites shard slots whose task never ran (drained after a trip or the
// cube cap, or skipped by beginShard) as empty partial results — guide
// attached, zero cubes, the stop reason — so merge and audit see the uniform
// shard shape. Returns the number of rewritten shards.
size_t degradeSkippedShards(std::vector<ShardOutcome>& shards, const SplitPlan& plan,
                            Outcome reason) {
  size_t skipped = 0;
  for (size_t i = 0; i < shards.size(); ++i) {
    ShardOutcome& shard = shards[i];
    if (shard.ran) continue;
    ++skipped;
    shard.guide = plan.cubes[i];
    shard.result.complete = false;
    shard.result.outcome = reason;
  }
  return skipped;
}

}  // namespace

AllSatResult parallelMintermAllSat(const Cnf& cnf, const std::vector<Var>& projection,
                                   const AllSatOptions& options) {
  PRESAT_CHECK(options.parallel.enabled()) << "parallel engine called with jobs == 0";
  Timer timer;

  SplitPlan plan = planCnfSplit(cnf, projection, ParallelOptions::kDefaultSplitDepth);
  std::vector<ShardOutcome> shards(plan.cubes.size());
  Governor* governor = options.governor;

  WorkerPool pool(options.parallel.jobs);
  ShardPrefixCap cap(plan.cubes.size(), options.maxCubes);
  auto shardTask = [&](size_t i, int /*worker*/) {
    if (!beginShard(governor)) return;
    shards[i].ran = true;
    // The guide literals, in the formula's variable space, as unit clauses.
    Cnf sub = cnf;
    for (Lit l : plan.cubes[i]) {
      sub.addUnit(mkLit(projection[static_cast<size_t>(l.var())], l.sign()));
    }
    shards[i].guide = plan.cubes[i];
    shards[i].result = blockingAllSat(sub, projection, {}, shardOptions(options));
    cap.finish(i, shards[i].result.cubes.size());
  };
  // The pool's stop predicate: once the shared governor trips or the
  // finished prefix passes the cube cap, workers drain instead of popping
  // further shards.
  auto stop = [governor, &cap] {
    return (governor != nullptr && governor->tripped()) || cap.reached();
  };
  pool.run(plan.cubes.size(), shardTask, stop);
  Outcome stopReason = governor != nullptr && governor->tripped() ? governor->reason()
                       : cap.reached()                             ? Outcome::kCubeCap
                                                                   : Outcome::kCancelled;
  size_t shardsSkipped = degradeSkippedShards(shards, plan, stopReason);

  PRESAT_AUDIT_FULL(PRESAT_CHECK_AUDIT(
      auditShardPartition(shards, static_cast<int>(projection.size()))));

  double cpuSeconds = 0.0;
  for (ShardOutcome& shard : shards) cpuSeconds += shard.result.stats.seconds;
  AllSatResult result = mergeShardSummaries(shards);
  // The split plan is the certificate's cross-shard disjointness argument:
  // every shard enumerated inside its guide cube, and the guides partition
  // the projected space. (A compressed cover's ISOP cubes may cross guide
  // boundaries and overlap; its certificate claims no disjointness, and the
  // checker treats the guides as documentation of the split.)
  result.guides = plan.cubes;

  // maxCubes is a GLOBAL cap but each shard enforced it locally, so the
  // concatenation can exceed it; the epilogue trims it in shard order, which
  // keeps the result deterministic (the shards the cap skipped lie past the
  // trim at every `jobs`). Under `compress` it then replaces the
  // merged cover by the ISOP of its union, which is the same at every job
  // count. It runs after the shard-partition audit on purpose: ISOP cubes
  // need not lie inside one guide, which is sound (the union is unchanged)
  // but would no longer satisfy the per-shard guide shape.
  finishCover(result, options, static_cast<int>(projection.size()), CoverKind::kDisjoint,
              "minterm-blocking", timer);
  pool.exportMetrics(result.metrics);
  result.metrics.setCounter("parallel.shards", shards.size());
  result.metrics.setCounter("parallel.shards_skipped", shardsSkipped);
  // Sum of per-shard solve time: cpu_seconds / time.seconds is the achieved
  // parallel speedup.
  result.metrics.setGauge("parallel.cpu_seconds", cpuSeconds);
  return result;
}

}  // namespace presat
