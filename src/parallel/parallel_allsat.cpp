#include "parallel/parallel_allsat.hpp"

#include <utility>

#include "allsat/compress.hpp"
#include "base/check.hpp"
#include "base/timer.hpp"
#include "govern/faults.hpp"
#include "govern/governor.hpp"
#include "parallel/cube_splitter.hpp"
#include "parallel/merge.hpp"
#include "parallel/worker_pool.hpp"

namespace presat {

namespace {

// Per-shard options: serial inner engines (no recursive splitting).
AllSatOptions shardOptions(const AllSatOptions& options) {
  AllSatOptions inner = options;
  inner.parallel = ParallelOptions{};
  // Concurrent shards would race on a shared compression trace; the merged
  // cover's post-pass traces instead.
  inner.compressTrace = nullptr;
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

// Rewrites shard slots whose task never ran (drained after a trip, or skipped
// by beginShard) as empty partial results — guide attached, zero cubes, the
// governor's stop reason — so merge and audit see the uniform shard shape.
// Returns the number of rewritten shards.
size_t degradeSkippedShards(std::vector<ShardOutcome>& shards, const SplitPlan& plan,
                            const Governor* governor) {
  size_t skipped = 0;
  for (size_t i = 0; i < shards.size(); ++i) {
    ShardOutcome& shard = shards[i];
    if (shard.ran) continue;
    ++skipped;
    shard.guide = plan.cubes[i];
    shard.result.complete = false;
    shard.result.outcome = governor != nullptr && governor->tripped()
                               ? governor->reason()
                               : Outcome::kCancelled;
  }
  return skipped;
}

}  // namespace

AllSatResult parallelCnfAllSat(const Cnf& cnf, const std::vector<Var>& projection,
                               const AllSatOptions& options, const CnfShardSolver& solveShard) {
  PRESAT_CHECK(options.parallel.enabled()) << "parallel engine called with jobs == 0";
  Timer timer;

  SplitPlan plan = planCnfSplit(cnf, projection, ParallelOptions::kDefaultSplitDepth);
  std::vector<ShardOutcome> shards(plan.cubes.size());
  Governor* governor = options.governor;

  WorkerPool pool(options.parallel.jobs);
  auto shardTask = [&](size_t i, int /*worker*/) {
    if (!beginShard(governor)) return;
    shards[i].ran = true;
    // The guide literals, in the formula's variable space, as unit clauses.
    Cnf sub = cnf;
    for (Lit l : plan.cubes[i]) {
      sub.addUnit(mkLit(projection[static_cast<size_t>(l.var())], l.sign()));
    }
    shards[i].guide = plan.cubes[i];
    shards[i].result = solveShard(sub, shardOptions(options));
  };
  // The pool's stop predicate: once the shared governor trips, workers drain
  // instead of popping further shards.
  std::function<bool()> stop;
  if (governor != nullptr) stop = [governor] { return governor->tripped(); };
  pool.run(plan.cubes.size(), shardTask, stop);
  size_t shardsSkipped = degradeSkippedShards(shards, plan, governor);

  PRESAT_AUDIT_FULL(PRESAT_CHECK_AUDIT(
      auditShardPartition(shards, static_cast<int>(projection.size()))));

  double cpuSeconds = 0.0;
  for (ShardOutcome& shard : shards) cpuSeconds += shard.result.stats.seconds;
  AllSatResult result = mergeShardSummaries(shards);
  // The split plan is the certificate's cross-shard disjointness argument:
  // every shard enumerated inside its guide cube, and the guides partition
  // the projected space. (Post-merge compression may still merge across a
  // guide boundary; the checker verifies cube disjointness directly and
  // treats the guides as documentation of the split.)
  result.guides = plan.cubes;

  // maxCubes is a GLOBAL cap but each shard enforced it locally, so the
  // concatenation can exceed it. Trim to the cap (shard order keeps this
  // deterministic) and recount the kept prefix, which is disjoint.
  if (options.maxCubes != 0 && result.cubes.size() > options.maxCubes) {
    result.cubes.resize(options.maxCubes);
    result.outcome = combineOutcomes(result.outcome, Outcome::kCubeCap);
    result.mintermCount =
        countDisjointCubeMinterms(result.cubes, static_cast<int>(projection.size()));
  }

  // Cross-shard epilogue: each shard already projected/compressed its own
  // cover (shardOptions passes the flags through), so shards exchanged
  // compressed covers; this second pass merges wildcard pairs straddling a
  // shard guide. It runs after the shard-partition audit on purpose — a
  // cross-shard merge may erase guide literals, which is sound (the union
  // is unchanged) but would no longer satisfy the per-shard guide shape.
  applyProjectionPostpass(result, options, /*disjointCubes=*/true);

  result.stats.seconds = timer.seconds();
  exportStatsToMetrics(result.stats, result.metrics);
  pool.exportMetrics(result.metrics);
  result.metrics.setCounter("parallel.shards", shards.size());
  result.metrics.setCounter("parallel.shards_skipped", shardsSkipped);
  // Sum of per-shard solve time: cpu_seconds / time.seconds is the achieved
  // parallel speedup.
  result.metrics.setGauge("parallel.cpu_seconds", cpuSeconds);
  finishResult(result, governor);
  return result;
}

}  // namespace presat
