// Cube-and-conquer parallel enumeration tests (src/parallel/): the split
// plan partitions the projected space, the pool runs every task exactly
// once, and — the load-bearing contract — the merged result is bit-identical
// for every worker count and semantically equal to the serial engines.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <string>
#include <vector>

#include "allsat/blocking.hpp"
#include "allsat/success_driven.hpp"
#include "bdd/bdd.hpp"
#include "check/audit_solution_graph.hpp"
#include "gen/generators.hpp"
#include "gen/random_circuit.hpp"
#include "parallel/cube_splitter.hpp"
#include "parallel/merge.hpp"
#include "parallel/worker_pool.hpp"
#include "preimage/preimage.hpp"
#include "preimage/target.hpp"
#include "preimage/transition_system.hpp"
#include "test_util.hpp"

namespace presat {
namespace {

// --- worker pool --------------------------------------------------------------

TEST(WorkerPool, RunsEveryTaskExactlyOnce) {
  WorkerPool pool(4);
  EXPECT_EQ(pool.numThreads(), 4);
  std::vector<std::atomic<int>> hits(101);
  pool.run(hits.size(), [&hits](size_t task, int worker) {
    EXPECT_GE(worker, 0);
    EXPECT_LT(worker, 4);
    hits[task].fetch_add(1, std::memory_order_relaxed);
  });
  for (const std::atomic<int>& h : hits) EXPECT_EQ(h.load(), 1);
  EXPECT_EQ(pool.stats().tasksRun, hits.size());
}

// A pool wider than its batch starts one worker per task at most, so no
// task ever reports a worker index at or past the task count. Every worker
// records one queue-depth sample per task it runs plus one for the pop that
// finds the batch empty, so the sample count is tasks + workers started.
TEST(WorkerPool, NeverStartsMoreWorkersThanTasks) {
  WorkerPool pool(8);
  std::atomic<int> maxWorker{-1};
  pool.run(3, [&maxWorker](size_t, int worker) {
    int seen = maxWorker.load(std::memory_order_relaxed);
    while (worker > seen && !maxWorker.compare_exchange_weak(seen, worker)) {
    }
  });
  EXPECT_GE(maxWorker.load(), 0);
  EXPECT_LT(maxWorker.load(), 3);
  EXPECT_EQ(pool.stats().tasksRun, 3u);
  EXPECT_EQ(pool.stats().queueDepth.count(), 3u + 3u);
}

TEST(WorkerPool, ClampsThreadCountAndRunsInline) {
  WorkerPool pool(0);
  EXPECT_EQ(pool.numThreads(), 1);
  int sum = 0;
  // workers == 1 runs on the calling thread, so unsynchronized state is fine.
  pool.run(10, [&sum](size_t task, int) { sum += static_cast<int>(task); });
  EXPECT_EQ(sum, 45);
  EXPECT_EQ(pool.stats().steals, 0u);
}

TEST(StealQueue, OwnerPopsFrontThiefStealsBack) {
  StealQueue q;
  q.push(1);
  q.push(2);
  q.push(3);
  size_t task = 0, depth = 0;
  ASSERT_TRUE(q.popOwn(task, depth));
  EXPECT_EQ(task, 1u);  // owner drains FIFO from the front
  EXPECT_EQ(depth, 3u); // depth includes the popped task
  ASSERT_TRUE(q.steal(task));
  EXPECT_EQ(task, 3u);  // thief takes the back (largest remaining chunk)
  ASSERT_TRUE(q.popOwn(task, depth));
  EXPECT_EQ(task, 2u);
  EXPECT_EQ(depth, 1u);
  EXPECT_FALSE(q.popOwn(task, depth));
  EXPECT_EQ(depth, 0u); // depth is reported even on a miss
  EXPECT_FALSE(q.steal(task));
}

TEST(StealQueue, DrainReportsAbandonedTasks) {
  StealQueue q;
  q.push(7);
  q.push(8);
  EXPECT_EQ(q.drain(), 2u);
  EXPECT_EQ(q.drain(), 0u);
  size_t task = 0, depth = 0;
  EXPECT_FALSE(q.popOwn(task, depth));
}

TEST(WorkerPool, ExportsMetrics) {
  WorkerPool pool(2);
  pool.run(8, [](size_t, int) {});
  Metrics m;
  pool.exportMetrics(m);
  EXPECT_EQ(m.counter("parallel.jobs"), 2u);
  EXPECT_EQ(m.counter("parallel.tasks"), 8u);
  ASSERT_NE(m.findHistogram("parallel.task_us"), nullptr);
  EXPECT_EQ(m.findHistogram("parallel.task_us")->count(), 8u);
}

// --- splitter -----------------------------------------------------------------

TEST(CubeSplitter, GuideCubesPartitionTheSpace) {
  std::vector<Var> splitVars = {0, 2, 3};
  std::vector<LitVec> cubes = enumerateGuideCubes(splitVars);
  ASSERT_EQ(cubes.size(), 8u);
  // Over a 4-variable projected space, every minterm lands in exactly one
  // guiding cube — disjointness and coverage in one sweep.
  for (uint64_t minterm = 0; minterm < 16; ++minterm) {
    int covers = 0;
    for (const LitVec& cube : cubes) {
      if (cubeCoversMinterm(cube, minterm)) ++covers;
    }
    EXPECT_EQ(covers, 1) << "minterm " << minterm;
  }
}

TEST(CubeSplitter, ResolvesAndClampsDepth) {
  EXPECT_EQ(resolveSplitDepth(-1, 100), ParallelOptions::kDefaultSplitDepth);
  EXPECT_EQ(resolveSplitDepth(-1, 2), 2);
  EXPECT_EQ(resolveSplitDepth(6, 3), 3);
  EXPECT_EQ(resolveSplitDepth(0, 8), 0);
}

TEST(CubeSplitter, CircuitPlanIsDeterministic) {
  Netlist nl = makeGrayCounter(3);
  TransitionSystem ts(nl);
  CircuitAllSatProblem problem;
  problem.netlist = &nl;
  problem.projectionSources = ts.stateNodes();
  problem.objectives = {{ts.nextStateRoot(0), true}};
  SplitPlan a = planCircuitSplit(problem, -1);
  SplitPlan b = planCircuitSplit(problem, -1);
  EXPECT_EQ(a.splitVars, b.splitVars);
  EXPECT_EQ(a.cubes, b.cubes);
  // Auto depth clamps to the 3-bit projection: 8 subcubes.
  EXPECT_EQ(a.splitVars.size(), 3u);
  EXPECT_EQ(a.cubes.size(), 8u);
}

// --- end-to-end determinism and equivalence -----------------------------------

std::vector<std::string> canonicalCubes(const std::vector<LitVec>& cubes, int width) {
  std::vector<std::string> out;
  out.reserve(cubes.size());
  for (const LitVec& cube : cubes) {
    std::string s(static_cast<size_t>(width), 'x');
    for (Lit l : cube) s[static_cast<size_t>(l.var())] = l.sign() ? '0' : '1';
    out.push_back(std::move(s));
  }
  return out;
}

// The determinism contract: --jobs N is bit-identical for every N >= 1, and
// semantically equal to the serial engine, across the generator suite.
// Lifted cube blocking never splits, so its cover is the serial one at every
// `jobs`, cube for cube.
TEST(ParallelPreimage, ResultIndependentOfWorkerCount) {
  struct Fixture {
    const char* name;
    Netlist nl;
  };
  std::vector<Fixture> suite;
  suite.push_back({"counter:4", makeCounter(4)});
  suite.push_back({"gray:3", makeGrayCounter(3)});
  suite.push_back({"lfsr:4", makeLfsr(4)});
  suite.push_back({"arbiter:3", makeRoundRobinArbiter(3)});
  suite.push_back({"traffic", makeTrafficLight()});
  suite.push_back({"lock", makeCombinationLock({1, 2, 3}, 2)});

  const PreimageMethod methods[] = {
      PreimageMethod::kSuccessDriven, PreimageMethod::kMintermBlocking,
      PreimageMethod::kCubeBlockingLifted, PreimageMethod::kChrono};
  for (const Fixture& fixture : suite) {
    TransitionSystem ts(fixture.nl);
    const int n = ts.numStateBits();
    StateSet target = StateSet::fromCube(n, {mkLit(0)});
    for (PreimageMethod method : methods) {
      PreimageOptions serial;
      PreimageOptions one;
      one.allsat.parallel.jobs = 1;
      PreimageOptions eight;
      eight.allsat.parallel.jobs = 8;

      PreimageResult rs = computePreimage(ts, target, method, serial);
      PreimageResult r1 = computePreimage(ts, target, method, one);
      PreimageResult r8 = computePreimage(ts, target, method, eight);

      // jobs=1 vs jobs=8: bit-identical cube lists and counts.
      EXPECT_EQ(canonicalCubes(r1.states.cubes, n), canonicalCubes(r8.states.cubes, n))
          << fixture.name << " " << preimageMethodName(method);
      EXPECT_EQ(r1.stateCount, r8.stateCount)
          << fixture.name << " " << preimageMethodName(method);
      EXPECT_EQ(r1.complete, r8.complete);

      // parallel vs serial: same solution set and exact count.
      EXPECT_TRUE(sameStates(r1.states, rs.states))
          << fixture.name << " " << preimageMethodName(method);
      EXPECT_EQ(r1.stateCount, rs.stateCount)
          << fixture.name << " " << preimageMethodName(method);

      if (method == PreimageMethod::kCubeBlockingLifted) {
        EXPECT_EQ(r1.states.cubes, rs.states.cubes) << fixture.name;
        EXPECT_EQ(r8.states.cubes, rs.states.cubes) << fixture.name;
        EXPECT_TRUE(r1.guides.empty()) << fixture.name;
      }
    }
  }
}

TEST(ParallelSuccessDriven, MergedGraphMatchesSerialSemantics) {
  Netlist nl = makeLfsr(4);
  TransitionSystem ts(nl);
  CircuitAllSatProblem problem;
  problem.netlist = &nl;
  problem.projectionSources = ts.stateNodes();
  problem.objectives = {{ts.nextStateRoot(0), true}};

  AllSatOptions options;
  options.parallel.jobs = 3;
  SuccessDrivenResult par = successDrivenAllSat(problem, options);
  SuccessDrivenResult ser = successDrivenAllSat(problem, {});

  BddManager mgr(4);
  EXPECT_TRUE(BddManager::equal(par.graph.toBdd(mgr), ser.graph.toBdd(mgr)));
  EXPECT_EQ(par.summary.mintermCount, ser.summary.mintermCount);
  EXPECT_EQ(par.summary.cubes, testutil::graphBddCover(par.graph, 4));
  EXPECT_EQ(par.summary.cubes, ser.summary.cubes);

  // The parallel engine reports its pool alongside the engine stats.
  EXPECT_EQ(par.summary.metrics.label("engine"), "success-driven");
  EXPECT_EQ(par.summary.metrics.counter("parallel.shards"),
            par.summary.metrics.counter("parallel.tasks"));
  EXPECT_GT(par.summary.metrics.counter("parallel.shards"), 1u);
}

// jobs=4 with project + compress: the cover the caller receives (projected,
// compressed, across shard guides) passes the cheap solution-graph audit
// against the merged graph, and the count is exact.
TEST(ParallelSuccessDriven, ProjectCompressCoverPassesAuditAndCountsExactly) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    RandomCircuitParams params;
    params.numInputs = 4;
    params.numDffs = 8;
    params.numGates = 60;
    params.seed = seed;
    Netlist nl = makeRandomSequential(params);
    TransitionSystem ts(nl);
    const int n = ts.numStateBits();
    for (const LitVec& cube : {LitVec{mkLit(0)}, LitVec{~mkLit(1), mkLit(2)}}) {
      StateSet target = StateSet::fromCube(n, cube);
      PreimageOptions options;
      options.allsat.parallel.jobs = 4;
      options.allsat.project = true;
      options.allsat.compress = true;
      PreimageResult r = computePreimage(ts, target, PreimageMethod::kSuccessDriven, options);
      PreimageResult oracle = computePreimage(ts, target, PreimageMethod::kBdd, {});
      EXPECT_EQ(r.stateCount, oracle.stateCount) << "seed " << seed;
      EXPECT_TRUE(sameStates(r.states, oracle.states)) << "seed " << seed;

      SolutionGraphAuditOptions audit;
      audit.numProjectionVars = n;
      audit.maxCubeSatChecks = 0;
      audit.cover = &r.states.cubes;
      AuditResult a = auditSolutionGraph(r.graph, audit);
      EXPECT_TRUE(a.ok()) << "seed " << seed << ": " << a.toString();
    }
  }
}

// maxCubes caps the one cover of the union, at every job count. Each half
// of this target (next bit 0 of an 8-bit Gray counter is 1, or 0) has a
// preimage of several cubes, and so has some shard of each at the default
// split, but the union is every state: one empty cube, which fits a cap of 1.
TEST(ParallelSuccessDriven, MaxCubesCapsTheUnionCover) {
  const int n = 8;
  Netlist nl = makeGrayCounter(n);
  TransitionSystem ts(nl);
  StateSet target = StateSet::fromCube(n, {mkLit(0)});
  target.cubes.push_back({~mkLit(0)});
  for (const LitVec& halfCube : target.cubes) {
    CircuitAllSatProblem problem;
    problem.netlist = &nl;
    problem.projectionSources = ts.stateNodes();
    problem.objectives = {{ts.nextStateRoot(0), !halfCube[0].sign()}};
    PreimageResult pre =
        computePreimage(ts, StateSet::fromCube(n, halfCube), PreimageMethod::kBdd, {});
    BddManager mgr(n);
    const BddRef set = cubesToBdd(mgr, pre.states.cubes);
    size_t widestShard = 0;
    for (const LitVec& guide : planCircuitSplit(problem, -1).cubes) {
      const BddRef shard = mgr.bddAnd(set, cubesToBdd(mgr, {guide}));
      widestShard = std::max(widestShard, mgr.enumerateCubes(shard).size());
    }
    ASSERT_GT(widestShard, 1u) << "the cap must bind some shard of each half";
  }
  for (int jobs : {0, 1, 2}) {
    PreimageOptions options;
    options.allsat.maxCubes = 1;
    options.allsat.parallel.jobs = jobs;
    PreimageResult r = computePreimage(ts, target, PreimageMethod::kSuccessDriven, options);
    EXPECT_EQ(r.outcome, Outcome::kComplete) << "jobs=" << jobs;
    EXPECT_EQ(r.states.cubes, std::vector<LitVec>{LitVec{}}) << "jobs=" << jobs;
    EXPECT_EQ(r.stateCount, BigUint(1u << n)) << "jobs=" << jobs;

    options.allsat.maxCubes = 0;
    StateSet half = StateSet::fromCube(n, {mkLit(0)});
    PreimageResult full = computePreimage(ts, half, PreimageMethod::kSuccessDriven, options);
    options.allsat.maxCubes = 1;
    PreimageResult capped = computePreimage(ts, half, PreimageMethod::kSuccessDriven, options);
    ASSERT_GT(full.states.cubes.size(), 1u) << "jobs=" << jobs;
    EXPECT_EQ(capped.outcome, Outcome::kCubeCap) << "jobs=" << jobs;
    EXPECT_EQ(capped.states.cubes,
              std::vector<LitVec>(full.states.cubes.begin(), full.states.cubes.begin() + 1))
        << "jobs=" << jobs;
  }
}

TEST(ParallelCnf, GlobalMaxCubesCapHolds) {
  // 3 free variables, no constraints: 8 solutions. Each shard respects the
  // cap locally, so only the post-merge trim enforces the global cap.
  Cnf cnf;
  for (int i = 0; i < 3; ++i) cnf.newVar();
  std::vector<Var> projection = {0, 1, 2};
  AllSatOptions options;
  options.maxCubes = 3;
  options.parallel.jobs = 2;
  AllSatResult r = blockingAllSat(cnf, projection, {}, options);
  EXPECT_LE(r.cubes.size(), 3u);
  EXPECT_FALSE(r.complete);
  EXPECT_EQ(r.mintermCount, countCubeUnionMinterms(r.cubes, 3));
}

TEST(ParallelOptionsStruct, SerialByDefault) {
  ParallelOptions options;
  EXPECT_FALSE(options.enabled());
  options.jobs = 1;
  EXPECT_TRUE(options.enabled());
}

}  // namespace
}  // namespace presat
