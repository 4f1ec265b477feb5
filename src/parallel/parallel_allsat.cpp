#include "parallel/parallel_allsat.hpp"

#include <utility>

#include "allsat/compress.hpp"
#include "base/log.hpp"
#include "base/timer.hpp"
#include "bdd/bdd.hpp"
#include "check/audit_solution_graph.hpp"
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
  // Certificate plumbing is for the merged result, not the shards: a shard
  // proof would speak the guide-constrained formula, and concurrent shards
  // would race on a shared compression trace. Certificate emitters replay
  // the merged cover post-hoc instead (cert/certificate.hpp).
  inner.proofLog = nullptr;
  inner.compressTrace = nullptr;
  return inner;
}

void exportParallelMetrics(const WorkerPool& pool, size_t numShards, size_t shardsSkipped,
                           double cpuSeconds, Metrics& m) {
  pool.exportMetrics(m);
  m.setCounter("parallel.shards", numShards);
  m.setCounter("parallel.shards_skipped", shardsSkipped);
  // Sum of per-shard solve time: cpu_seconds / time.seconds is the achieved
  // parallel speedup.
  m.setGauge("parallel.cpu_seconds", cpuSeconds);
}

// The pool's stop predicate: once the shared governor trips, workers drain
// instead of popping further shards.
std::function<bool()> governorStop(const Governor* governor) {
  if (governor == nullptr) return nullptr;
  return [governor] { return governor->tripped(); };
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
                            const Governor* governor, bool needGraph) {
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
    if (needGraph) {
      // An empty all-FAIL graph keeps the decision-tree merge well-formed;
      // it contributes no cubes, which is the sound degradation for a shard
      // that never searched.
      shard.graph.setRoot(SolutionGraph::kFail, {});
      shard.hasGraph = true;
    }
  }
  return skipped;
}

}  // namespace

SuccessDrivenResult parallelSuccessDrivenAllSat(std::span<const CircuitAllSatProblem> problems,
                                                const AllSatOptions& options) {
  PRESAT_CHECK(options.parallel.enabled()) << "parallel engine called with jobs == 0";
  const CircuitAllSatProblem& first = problems.front();
  const int numProjectionVars = static_cast<int>(first.projectionSources.size());
  Timer timer;
  Governor* governor = options.governor;
  WorkerPool pool(options.parallel.jobs);

  SuccessDrivenResult result;
  size_t numShards = 0;
  size_t shardsSkipped = 0;
  double cpuSeconds = 0.0;
  for (const CircuitAllSatProblem& problem : problems) {
    SplitPlan plan = planCircuitSplit(problem, ParallelOptions::kDefaultSplitDepth);
    std::vector<ShardOutcome> shards(plan.cubes.size());
    pool.run(
        plan.cubes.size(),
        [&](size_t i, int /*worker*/) {
          if (!beginShard(governor)) return;
          shards[i].ran = true;
          // Workers read the shared netlist and write only their own shard slot.
          CircuitAllSatProblem sub = problem;
          for (Lit l : plan.cubes[i]) {
            sub.objectives.emplace_back(problem.projectionSources[static_cast<size_t>(l.var())],
                                        !l.sign());
          }
          SuccessDrivenResult r = successDrivenAllSat(sub, shardOptions(options));
          // The cap is decided on the whole cover below. A shard's own
          // capped cover only serves the partition audit.
          if (r.summary.outcome == Outcome::kCubeCap) r.summary.outcome = Outcome::kComplete;
          shards[i].guide = plan.cubes[i];
          shards[i].result = std::move(r.summary);
          shards[i].graph = std::move(r.graph);
          shards[i].hasGraph = true;
        },
        governorStop(governor));
    shardsSkipped += degradeSkippedShards(shards, plan, governor, /*needGraph=*/true);

    PRESAT_AUDIT_FULL(PRESAT_CHECK_AUDIT(auditShardPartition(shards, numProjectionVars)));

    // Root i of the result is problem i's shard graphs merged under the
    // split tree.
    result.graph.append(mergeSolutionGraphs(shards, plan.splitVars));
    numShards += shards.size();
    for (ShardOutcome& shard : shards) cpuSeconds += shard.result.stats.seconds;
    AllSatResult merged = mergeShardSummaries(shards);
    result.summary.outcome = combineOutcomes(result.summary.outcome, merged.outcome);
    accumulateStats(result.summary.stats, merged.stats);
    result.summary.metrics.merge(merged.metrics);
    // The guides partition the space only for one problem: another
    // problem's split covers the same space again.
    if (problems.size() == 1) result.summary.guides = std::move(plan.cubes);
  }
  result.summary.stats.graphNodes = result.graph.numNodes();
  result.summary.stats.graphEdges = result.graph.numLiveEdges();

  // The serial engine's cover, cap and count, read off the merged graph's
  // BDD: the same set gives the same BDD, so the result is the serial one
  // whatever the split. Under a tripped governor the merged graph is a
  // pruned (sound) under-approximation, and the trip reason outranks the cap
  // in combineOutcomes.
  BddManager mgr(numProjectionVars);
  const BddRef all = result.graph.toBdd(mgr);
  const bool capped = readSuccessDrivenCover(mgr, all, options, result.summary);

  result.summary.stats.seconds = timer.seconds();
  result.summary.metrics.setLabel("engine", "success-driven");
  exportStatsToMetrics(result.summary.stats, result.summary.metrics);
  exportParallelMetrics(pool, numShards, shardsSkipped, cpuSeconds, result.summary.metrics);
  finishResult(result.summary, governor);

  PRESAT_AUDIT_CHEAP({
    SolutionGraphAuditOptions auditOptions;
    auditOptions.maxCubeSatChecks = 0;
    auditOptions.numProjectionVars = numProjectionVars;
    // The cross-shard check runs on the cover the caller receives; a capped
    // cover is a prefix, so the audit then enumerates the merged graph.
    if (!capped) auditOptions.cover = &result.summary.cubes;
    PRESAT_CHECK_AUDIT(auditSolutionGraph(result.graph, auditOptions));
  });
  return result;
}

AllSatResult parallelCnfAllSat(const Cnf& cnf, const std::vector<Var>& projection,
                               const AllSatOptions& options, const CnfShardSolver& solveShard) {
  PRESAT_CHECK(options.parallel.enabled()) << "parallel engine called with jobs == 0";
  PRESAT_CHECK(!options.preprocess) << "the engine preprocesses once, before the split";
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
  pool.run(plan.cubes.size(), shardTask, governorStop(governor));
  size_t shardsSkipped = degradeSkippedShards(shards, plan, governor, /*needGraph=*/false);

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
  exportParallelMetrics(pool, shards.size(), shardsSkipped, cpuSeconds, result.metrics);
  finishResult(result, governor);
  return result;
}

}  // namespace presat
