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
#include "check/audit_solution_graph.hpp"
#include "gen/generators.hpp"
#include "gen/random_circuit.hpp"
#include "parallel/cube_splitter.hpp"
#include "parallel/worker_pool.hpp"
#include "preimage/preimage.hpp"
#include "preimage/target.hpp"
#include "preimage/transition_system.hpp"
#include "test_util.hpp"
#include "../bench/bench_util.hpp"

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
// task ever reports a worker index at or past the task count.
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
}

TEST(WorkerPool, ClampsThreadCountAndRunsInline) {
  WorkerPool pool(0);
  EXPECT_EQ(pool.numThreads(), 1);
  int sum = 0;
  // workers == 1 runs on the calling thread, so unsynchronized state is fine.
  pool.run(10, [&sum](size_t task, int) { sum += static_cast<int>(task); });
  EXPECT_EQ(sum, 45);
}

// A stop predicate that trips after k tasks have finished: no task runs
// twice, every task is either run or counted skipped, and the tasks that
// ran are exactly the claimed prefix of the index range. At one thread the
// predicate is read before every claim, so exactly k run; wider pools may
// have up to one claimed task per worker in flight when it trips.
TEST(WorkerPool, StopAccountsForEveryTask) {
  constexpr size_t kTasks = 40;
  constexpr int kStopAfter = 5;
  for (int threads : {1, 4}) {
    WorkerPool pool(threads);
    std::vector<std::atomic<int>> hits(kTasks);
    std::atomic<int> finished{0};
    pool.run(
        kTasks,
        [&](size_t task, int) {
          hits[task].fetch_add(1, std::memory_order_relaxed);
          finished.fetch_add(1, std::memory_order_relaxed);
        },
        [&finished] { return finished.load(std::memory_order_relaxed) >= kStopAfter; });
    const WorkerPoolStats& s = pool.stats();
    EXPECT_EQ(s.tasksRun + s.tasksSkipped, kTasks) << threads << " threads";
    EXPECT_EQ(s.tasksRun, static_cast<uint64_t>(finished.load())) << threads << " threads";
    EXPECT_GE(s.tasksRun, static_cast<uint64_t>(kStopAfter)) << threads << " threads";
    EXPECT_LE(s.tasksRun, static_cast<uint64_t>(kStopAfter + threads - 1))
        << threads << " threads";
    if (threads == 1) {
      EXPECT_EQ(s.tasksRun, static_cast<uint64_t>(kStopAfter));
    }
    for (size_t t = 0; t < kTasks; ++t) {
      EXPECT_EQ(hits[t].load(), t < s.tasksRun ? 1 : 0) << "task " << t << ", " << threads
                                                        << " threads";
    }
  }
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
// Lifted cube blocking and chrono never split, so their covers are the
// serial ones at every `jobs`, cube for cube, with no guides.
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

      if (method == PreimageMethod::kCubeBlockingLifted || method == PreimageMethod::kChrono) {
        EXPECT_EQ(r1.states.cubes, rs.states.cubes)
            << fixture.name << " " << preimageMethodName(method);
        EXPECT_EQ(r8.states.cubes, rs.states.cubes)
            << fixture.name << " " << preimageMethodName(method);
        EXPECT_TRUE(r1.guides.empty()) << fixture.name << " " << preimageMethodName(method);
        EXPECT_TRUE(r8.guides.empty()) << fixture.name << " " << preimageMethodName(method);
      }
    }
  }
}

// The success-driven engine never splits: at every `jobs` it runs the serial
// engine, so the cover, the count and the graph (its size and every root's
// path cubes) are the jobs=0 ones, and no parallel.* metric appears. The
// graph is where a split would show: a split search on the Table 1
// rand16x240 row builds 7 148 nodes against the serial 4 596.
TEST(ParallelSuccessDriven, EveryJobCountRunsTheSerialEngine) {
  std::vector<benchutil::BenchCase> cases;
  for (benchutil::BenchCase& c : benchutil::standardSuite()) {
    if (c.name == "rand16x240") cases.push_back(std::move(c));
  }
  ASSERT_EQ(cases.size(), 1u);
  auto addGenerator = [&cases](const char* name, Netlist nl) {
    const int n = static_cast<int>(nl.dffs().size());
    cases.push_back({name, std::move(nl), StateSet::fromCube(n, {mkLit(0)})});
  };
  addGenerator("counter:4", makeCounter(4));
  addGenerator("gray:3", makeGrayCounter(3));
  addGenerator("lfsr:4", makeLfsr(4));
  addGenerator("arbiter:3", makeRoundRobinArbiter(3));
  addGenerator("traffic", makeTrafficLight());
  addGenerator("lock", makeCombinationLock({1, 2, 3}, 2));
  for (const benchutil::BenchCase& c : cases) {
    TransitionSystem ts(c.netlist);
    PreimageResult serial = computePreimage(ts, c.target, PreimageMethod::kSuccessDriven, {});
    for (int jobs : {1, 4}) {
      PreimageOptions options;
      options.allsat.parallel.jobs = jobs;
      PreimageResult r = computePreimage(ts, c.target, PreimageMethod::kSuccessDriven, options);
      EXPECT_EQ(r.states.cubes, serial.states.cubes) << c.name << " jobs=" << jobs;
      EXPECT_EQ(r.stateCount, serial.stateCount) << c.name << " jobs=" << jobs;
      EXPECT_EQ(r.graph.numNodes(), serial.graph.numNodes()) << c.name << " jobs=" << jobs;
      ASSERT_EQ(r.graph.numRoots(), serial.graph.numRoots()) << c.name << " jobs=" << jobs;
      for (size_t root = 0; root < r.graph.numRoots(); ++root) {
        EXPECT_EQ(r.graph.enumerateRootCubes(root), serial.graph.enumerateRootCubes(root))
            << c.name << " jobs=" << jobs << " root " << root;
      }
      EXPECT_TRUE(r.guides.empty()) << c.name << " jobs=" << jobs;
      EXPECT_EQ(r.metrics.toJson().find("\"parallel."), std::string::npos)
          << c.name << " jobs=" << jobs;
      EXPECT_EQ(r.metrics.counter("memo.hits"), serial.metrics.counter("memo.hits"))
          << c.name << " jobs=" << jobs;
    }
  }
}

// jobs=4 with project + compress: the cover the caller receives (projected,
// compressed) passes the cheap solution-graph audit against the engine's
// graph, and the count is exact.
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
// preimage of several cubes, but the union is every state: one empty cube,
// which fits a cap of 1.
TEST(ParallelSuccessDriven, MaxCubesCapsTheUnionCover) {
  const int n = 8;
  Netlist nl = makeGrayCounter(n);
  TransitionSystem ts(nl);
  StateSet target = StateSet::fromCube(n, {mkLit(0)});
  target.cubes.push_back({~mkLit(0)});
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

// 10 free variables: 1 024 minterms, 64 in each of the 16 shards. Under a
// cap of 100 the first two shards already hold more than the cap, so the
// pool claims no further shard; the skipped shards report the cap, and the
// trimmed cover, count and outcome are the same at every job count.
TEST(ParallelCnf, CapStopsClaimingShardsPastTheFinishedPrefix) {
  Cnf cnf;
  std::vector<Var> projection;
  for (int i = 0; i < 10; ++i) projection.push_back(cnf.newVar());
  AllSatOptions options;
  options.maxCubes = 100;
  options.parallel.jobs = 1;
  AllSatResult one = blockingAllSat(cnf, projection, {}, options);
  EXPECT_EQ(one.outcome, Outcome::kCubeCap);
  EXPECT_EQ(one.cubes.size(), 100u);
  EXPECT_EQ(one.metrics.counter("parallel.shards"), 16u);
  EXPECT_EQ(one.metrics.counter("parallel.shards_skipped"), 14u);
  for (int jobs : {4, 8}) {
    options.parallel.jobs = jobs;
    AllSatResult r = blockingAllSat(cnf, projection, {}, options);
    EXPECT_EQ(r.cubes, one.cubes) << "jobs=" << jobs;
    EXPECT_EQ(r.mintermCount, one.mintermCount) << "jobs=" << jobs;
    EXPECT_EQ(r.outcome, Outcome::kCubeCap) << "jobs=" << jobs;
  }
}

TEST(ParallelOptionsStruct, SerialByDefault) {
  ParallelOptions options;
  EXPECT_FALSE(options.enabled());
  options.jobs = 1;
  EXPECT_TRUE(options.enabled());
}

}  // namespace
}  // namespace presat
