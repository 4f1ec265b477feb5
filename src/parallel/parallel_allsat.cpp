#include "parallel/parallel_allsat.hpp"

#include <utility>

#include "allsat/chrono_blocking.hpp"
#include "allsat/compress.hpp"
#include "allsat/preprocess_adapter.hpp"
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

SuccessDrivenResult parallelSuccessDrivenAllSat(const CircuitAllSatProblem& problem,
                                                const AllSatOptions& options) {
  PRESAT_CHECK(problem.netlist != nullptr);
  PRESAT_CHECK(options.parallel.enabled()) << "parallel engine called with jobs == 0";
  Timer timer;

  SplitPlan plan = planCircuitSplit(problem, options.parallel.splitDepth);
  std::vector<ShardOutcome> shards(plan.cubes.size());
  Governor* governor = options.governor;

  WorkerPool pool(options.parallel.jobs);
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
        shards[i].guide = plan.cubes[i];
        shards[i].result = std::move(r.summary);
        shards[i].graph = std::move(r.graph);
        shards[i].hasGraph = true;
      },
      governorStop(governor));
  size_t shardsSkipped = degradeSkippedShards(shards, plan, governor, /*needGraph=*/true);

  PRESAT_AUDIT_FULL(PRESAT_CHECK_AUDIT(
      auditShardPartition(shards, static_cast<int>(problem.projectionSources.size()))));

  SuccessDrivenResult result;
  result.graph = mergeSolutionGraphs(shards, plan.splitVars);
  result.summary.guides = plan.cubes;

  double cpuSeconds = 0.0;
  for (ShardOutcome& shard : shards) cpuSeconds += shard.result.stats.seconds;
  AllSatResult merged = mergeShardSummaries(shards);
  result.summary.mintermCount = std::move(merged.mintermCount);
  result.summary.stats = merged.stats;
  result.summary.stats.graphNodes = result.graph.numNodes();
  result.summary.stats.graphEdges = result.graph.numLiveEdges();
  result.summary.metrics = std::move(merged.metrics);
  result.summary.outcome = merged.outcome;

  // Same enumeration-cap semantics as the serial engine: one probe path past
  // the cap decides the flag. Under a tripped governor the merged graph is a
  // pruned (sound) under-approximation, and the trip reason outranks the cap
  // in combineOutcomes.
  bool capped = false;
  if (options.maxCubes == 0) {
    result.summary.cubes = result.graph.enumerateCubes(0);
  } else {
    uint64_t probe = options.maxCubes == UINT64_MAX ? options.maxCubes : options.maxCubes + 1;
    result.summary.cubes = result.graph.enumerateCubes(probe);
    if (result.summary.cubes.size() > options.maxCubes) {
      capped = true;
      result.summary.cubes.pop_back();
      result.summary.outcome = combineOutcomes(result.summary.outcome, Outcome::kCubeCap);
    }
  }

  // Cross-shard epilogue: the merged decision tree can serialize duplicate
  // or overlapping cubes across shard branches; project-then-dedup and
  // wildcard compression clean the flat cover without touching the graph.
  applyProjectionPostpass(result.summary, options, /*disjointCubes=*/false);

  result.summary.stats.seconds = timer.seconds();
  result.summary.metrics.setLabel("engine", "success-driven");
  exportStatsToMetrics(result.summary.stats, result.summary.metrics);
  exportParallelMetrics(pool, shards.size(), shardsSkipped, cpuSeconds,
                        result.summary.metrics);
  finishResult(result.summary, governor);

  PRESAT_AUDIT_CHEAP({
    SolutionGraphAuditOptions auditOptions;
    auditOptions.maxCubeSatChecks = 0;
    auditOptions.numProjectionVars = static_cast<int>(problem.projectionSources.size());
    // The cross-shard check runs on the cover the caller receives; a capped
    // cover is a prefix, so the audit then enumerates the merged graph.
    if (!capped) auditOptions.rootCovers = std::span(&result.summary.cubes, 1);
    PRESAT_CHECK_AUDIT(auditSolutionGraph(result.graph, auditOptions));
  });
  return result;
}

AllSatResult parallelCnfAllSat(const Cnf& cnf, const std::vector<Var>& projection,
                               ParallelCnfEngine engine, const ModelLifter& lifter,
                               const AllSatOptions& options) {
  PRESAT_CHECK(options.parallel.enabled()) << "parallel engine called with jobs == 0";
  if (options.preprocess) {
    // Preprocess ONCE, before the split: every shard then copies the reduced
    // formula, and because the split plan is a deterministic function of the
    // (internal) formula and splitDepth, jobs=1 vs jobs=N bit-identity holds
    // on the internal space exactly as it did on the original one.
    return runWithPreprocess(
        cnf, projection, lifter, options,
        [engine](const Cnf& c, const std::vector<Var>& p, const ModelLifter& l,
                 const AllSatOptions& o) { return parallelCnfAllSat(c, p, engine, l, o); });
  }
  Timer timer;

  SplitPlan plan = planCnfSplit(cnf, projection, options.parallel.splitDepth);
  std::vector<ShardOutcome> shards(plan.cubes.size());
  Governor* governor = options.governor;

  WorkerPool pool(options.parallel.jobs);
  auto shardTask = [&](size_t i, int /*worker*/) {
    if (!beginShard(governor)) return;
    shards[i].ran = true;
    const LitVec& guide = plan.cubes[i];
    // Guide literals in the original variable space.
    LitVec guideOrig;
    guideOrig.reserve(guide.size());
    for (Lit l : guide) {
      guideOrig.push_back(mkLit(projection[static_cast<size_t>(l.var())], l.sign()));
    }

    Cnf sub = cnf;
    for (Lit l : guideOrig) sub.addUnit(l);

    AllSatResult r;
    if (engine == ParallelCnfEngine::kChrono) {
      // No guide-preserving wrapper needed: the guide units are level-0
      // assignments, and the chrono engine emits every scope literal stamped
      // at or below the emission level — the guide is in every cube.
      r = chronoAllSat(sub, projection, shardOptions(options));
    } else {
      // The shard lifter keeps the guide literals in every lifted cube: the
      // base lifter may drop them as unnecessary for the ORIGINAL formula,
      // but dropping one would let the cube escape this shard's region and
      // double-count against its neighbor.
      ModelLifter shardLifter;
      if (lifter) {
        shardLifter = [&lifter, &guideOrig](const std::vector<lbool>& model) {
          LitVec cube = lifter(model);
          for (Lit g : guideOrig) {
            bool present = false;
            for (Lit l : cube) {
              if (l.var() == g.var()) {
                present = true;
                break;
              }
            }
            if (!present) cube.push_back(g);
          }
          return cube;
        };
      }
      r = blockingAllSat(sub, projection, shardLifter, shardOptions(options));
    }
    shards[i].guide = guide;
    shards[i].result = std::move(r);
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
  // deterministic) and recount: the kept prefix may overlap under lifting.
  if (options.maxCubes != 0 && result.cubes.size() > options.maxCubes) {
    result.cubes.resize(options.maxCubes);
    result.outcome = combineOutcomes(result.outcome, Outcome::kCubeCap);
    result.mintermCount =
        countCubeUnionMinterms(result.cubes, static_cast<int>(projection.size()));
  }

  // Cross-shard epilogue: each shard already projected/compressed its own
  // cover (shardOptions passes the flags through), so shards exchanged
  // compressed covers; this second pass merges wildcard pairs straddling a
  // shard guide. It runs after the shard-partition audit on purpose — a
  // cross-shard merge may erase guide literals, which is sound (the union
  // is unchanged) but would no longer satisfy the per-shard guide shape.
  const bool lifted = engine == ParallelCnfEngine::kBlocking && lifter;
  applyProjectionPostpass(result, options, /*disjointCubes=*/!lifted);

  result.stats.seconds = timer.seconds();
  const char* engineLabel = "chrono";
  if (engine == ParallelCnfEngine::kBlocking) {
    engineLabel = lifted ? "cube-blocking" : "minterm-blocking";
  }
  result.metrics.setLabel("engine", engineLabel);
  exportStatsToMetrics(result.stats, result.metrics);
  exportParallelMetrics(pool, shards.size(), shardsSkipped, cpuSeconds, result.metrics);
  finishResult(result, governor);
  return result;
}

}  // namespace presat
