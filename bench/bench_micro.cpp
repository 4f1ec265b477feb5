// Microbenchmarks (google-benchmark) for the substrates: CDCL solving, BDD
// operations, bit-parallel simulation, .bench parsing, Tseitin encoding, the
// success-driven engine on its best-case structure and on random logic, and
// the lifted-cube and chrono preimage paths on random logic.
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "allsat/projection.hpp"
#include "allsat/success_driven.hpp"
#include "base/log.hpp"
#include "base/rng.hpp"
#include "bench_util.hpp"
#include "bdd/bdd.hpp"
#include "circuit/bench_io.hpp"
#include "circuit/simulator.hpp"
#include "circuit/tseitin.hpp"
#include "gen/generators.hpp"
#include "gen/random_circuit.hpp"
#include "preimage/bmc.hpp"
#include "preimage/preimage.hpp"
#include "sat/solver.hpp"

namespace presat {
namespace {

Cnf random3Sat(Rng& rng, int vars, int clauses) {
  Cnf cnf(vars);
  for (int i = 0; i < clauses; ++i) {
    Clause c;
    while (c.size() < 3) {
      Lit l = mkLit(static_cast<Var>(rng.below(static_cast<uint64_t>(vars))), rng.flip());
      bool dup = false;
      for (Lit e : c) dup = dup || e.var() == l.var();
      if (!dup) c.push_back(l);
    }
    cnf.addClause(c);
  }
  return cnf;
}

void BM_SolverRandom3Sat(benchmark::State& state) {
  const int vars = static_cast<int>(state.range(0));
  const int clauses = static_cast<int>(vars * 4.2);
  uint64_t seed = 1;
  uint64_t conflicts = 0;
  for (auto _ : state) {
    Rng rng(seed++);
    Cnf cnf = random3Sat(rng, vars, clauses);
    Solver solver;
    solver.addCnf(cnf);
    benchmark::DoNotOptimize(solver.solve());
    conflicts += solver.stats().conflicts;
  }
  state.counters["conflicts/iter"] =
      benchmark::Counter(static_cast<double>(conflicts) / state.iterations());
}
BENCHMARK(BM_SolverRandom3Sat)->Arg(50)->Arg(100)->Arg(150);

void BM_SolverPropagationChain(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Solver solver;
  for (int i = 0; i < n; ++i) solver.newVar();
  for (int i = 0; i + 1 < n; ++i) solver.addClause({~mkLit(i), mkLit(i + 1)});
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.solve({mkLit(0)}));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_SolverPropagationChain)->Arg(1000)->Arg(10000);

void BM_BddTransitionBuild(benchmark::State& state) {
  Netlist counter = makeCounter(static_cast<int>(state.range(0)));
  TransitionSystem system(counter);
  for (auto _ : state) {
    PreimageResult r = computePreimage(system, StateSet::fromMinterm(system.numStateBits(), 1),
                                       PreimageMethod::kBdd);
    benchmark::DoNotOptimize(r.states.cubes.size());
  }
}
BENCHMARK(BM_BddTransitionBuild)->Arg(8)->Arg(16)->Arg(24);

void BM_BddParity(benchmark::State& state) {
  const int vars = static_cast<int>(state.range(0));
  for (auto _ : state) {
    BddManager mgr(vars);
    BddRef f = BddManager::kFalse;
    for (Var v = 0; v < vars; ++v) f = mgr.bddXor(f, mgr.variable(v));
    benchmark::DoNotOptimize(mgr.satCount(f));
  }
}
BENCHMARK(BM_BddParity)->Arg(16)->Arg(32)->Arg(64);

// The count/audit primitive: union of a cover's cubes, then its minterm
// count, in a fresh manager per iteration (as every graph count builds one).
// Cubes fix about 18 of the 24 variables, like near-minterm preimage covers.
void BM_BddCubeUnion(benchmark::State& state) {
  constexpr int kVars = 24;
  Rng rng(17);
  std::vector<LitVec> cubes(static_cast<size_t>(state.range(0)));
  for (LitVec& cube : cubes) {
    for (Var v = 0; v < kVars; ++v) {
      if (rng.below(4) != 0) cube.push_back(mkLit(v, rng.flip()));
    }
  }
  size_t nodes = 0;
  for (auto _ : state) {
    BddManager mgr(kVars);
    benchmark::DoNotOptimize(mgr.satCount(cubesToBdd(mgr, cubes)));
    nodes = mgr.numNodes();
  }
  state.counters["nodes"] = benchmark::Counter(static_cast<double>(nodes));
}
BENCHMARK(BM_BddCubeUnion)->Arg(1024)->Arg(4096);

void BM_Simulator64Patterns(benchmark::State& state) {
  RandomCircuitParams params;
  params.numInputs = 8;
  params.numDffs = 16;
  params.numGates = static_cast<int>(state.range(0));
  params.seed = 5;
  Netlist nl = makeRandomSequential(params);
  Simulator sim(nl);
  Rng rng(7);
  for (NodeId id = 0; id < nl.numNodes(); ++id) {
    if (!isCombinational(nl.type(id))) sim.setSource(id, rng.next());
  }
  for (auto _ : state) {
    sim.run();
    benchmark::DoNotOptimize(sim.value(static_cast<NodeId>(nl.numNodes() - 1)));
  }
  state.SetItemsProcessed(state.iterations() * 64);  // patterns per run
}
BENCHMARK(BM_Simulator64Patterns)->Arg(500)->Arg(5000);

void BM_TseitinEncode(benchmark::State& state) {
  RandomCircuitParams params;
  params.numInputs = 8;
  params.numDffs = 16;
  params.numGates = static_cast<int>(state.range(0));
  params.seed = 9;
  Netlist nl = makeRandomSequential(params);
  for (auto _ : state) {
    CircuitEncoding enc = encodeCircuit(nl);
    benchmark::DoNotOptimize(enc.cnf.numClauses());
  }
}
BENCHMARK(BM_TseitinEncode)->Arg(1000)->Arg(10000);

void BM_SuccessDrivenParityTree(benchmark::State& state) {
  const int bits = static_cast<int>(state.range(0));
  Netlist nl;
  std::vector<NodeId> layer, dffs;
  for (int i = 0; i < bits; ++i) layer.push_back(nl.addDff(numbered("s", i)));
  dffs = layer;
  int gid = 0;
  while (layer.size() > 1) {
    std::vector<NodeId> next;
    for (size_t i = 0; i + 1 < layer.size(); i += 2) {
      next.push_back(nl.mkXor(layer[i], layer[i + 1], numbered("x", gid++)));
    }
    if (layer.size() % 2 == 1) next.push_back(layer.back());
    layer = std::move(next);
  }
  for (NodeId d : dffs) nl.connectDffData(d, layer[0]);
  nl.markOutput(layer[0], "parity");

  CircuitAllSatProblem p;
  p.netlist = &nl;
  p.objectives = {{layer[0], false}};
  p.projectionSources = dffs;
  AllSatOptions opts;
  opts.maxCubes = 1;  // representation built fully; enumeration skipped
  for (auto _ : state) {
    SuccessDrivenResult r = successDrivenAllSat(p, opts);
    benchmark::DoNotOptimize(r.summary.stats.graphNodes);
  }
}
BENCHMARK(BM_SuccessDrivenParityTree)->Arg(8)->Arg(16)->Arg(24);

// The Table 1 rand16x240 row: random logic, where most decisions fail fast
// and the memo hits rarely, so the time per decision is the engine's
// bookkeeping (frontier, signature, memo probe). items_per_second reports
// decisions per second.
void BM_SuccessDrivenRandomLogic(benchmark::State& state) {
  Netlist nl = benchutil::randomBench(6, 16, 240, 37);
  StateSet target = benchutil::reachableCube(nl, 5, 103);
  TransitionSystem ts(nl);
  uint64_t decisions = 0;
  for (auto _ : state) {
    PreimageResult r = computePreimage(ts, target, PreimageMethod::kSuccessDriven);
    decisions += r.stats.decisions;
    benchmark::DoNotOptimize(r.stateCount);
  }
  state.SetItemsProcessed(static_cast<int64_t>(decisions));
}
BENCHMARK(BM_SuccessDrivenRandomLogic)->Unit(benchmark::kMillisecond);

// Lifted cube blocking on rand20x400 (the oneshot-cube circuit): one query
// solves, simulates and lifts about a hundred models, so per-model lifting
// cost (simulation, justification) shows here, unlike BM_Simulator64Patterns,
// whose Simulator is built outside the timed loop. items_per_second reports
// lifted models (blocking clauses) per second.
void BM_CubeBlockingLiftedRandomLogic(benchmark::State& state) {
  Netlist nl = benchutil::randomBench(8, 20, 400, 41);
  StateSet target = benchutil::reachableCube(nl, 6, 104);
  TransitionSystem ts(nl);
  uint64_t models = 0;
  for (auto _ : state) {
    PreimageResult r = computePreimage(ts, target, PreimageMethod::kCubeBlockingLifted);
    models += r.stats.blockingClauses;
    benchmark::DoNotOptimize(r.stateCount);
  }
  state.SetItemsProcessed(static_cast<int64_t>(models));
}
BENCHMARK(BM_CubeBlockingLiftedRandomLogic)->Unit(benchmark::kMillisecond);

// A presat_serve cache miss on a rand14x200 circuit, the serve-mixed
// workload's shape: chrono with project+compress, which runs serially at
// every `jobs`, the daemon's jobs = 1 included. The encoding is built
// outside the timed loop, so the loop times the engine alone. Tracks the
// circuit widening's per-model cost next to
// BM_CubeBlockingLiftedRandomLogic's lifting. items_per_second reports
// chrono regions (flips) per second.
void BM_ChronoProjectedRand14x200(benchmark::State& state) {
  Netlist nl = benchutil::randomBench(6, 14, 200, 43);
  StateSet target = benchutil::reachableCube(nl, 6, 105);
  TransitionSystem ts(nl);
  TransitionEncoding te = buildTransitionEncoding(ts);
  PreimageOptions opts;
  opts.encoding = &te;
  opts.allsat.project = true;
  opts.allsat.compress = true;
  uint64_t flips = 0;
  for (auto _ : state) {
    PreimageResult r = computePreimage(ts, target, PreimageMethod::kChrono, opts);
    flips += r.stats.flips;
    benchmark::DoNotOptimize(r.stateCount);
  }
  state.SetItemsProcessed(static_cast<int64_t>(flips));
}
BENCHMARK(BM_ChronoProjectedRand14x200)->Unit(benchmark::kMillisecond);

// Parsing a rand14x200 circuit's .bench text (about 4.7 KB), the circuit the
// serve workload sends: a serve request whose circuit is not pooled pays
// this once. bytes_per_second reports .bench text parsed per second.
void BM_ParseBenchRand14x200(benchmark::State& state) {
  const std::string text = toBenchString(benchutil::randomBench(6, 14, 200, 43));
  for (auto _ : state) {
    Netlist nl = parseBenchString(text);
    benchmark::DoNotOptimize(nl.numNodes());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations() * text.size()));
}
BENCHMARK(BM_ParseBenchRand14x200)->Unit(benchmark::kMicrosecond);

// BMC adds one frame per depth, so its cost follows the depth of the hit,
// not the bound. Arg 0: an 8-bit counter target 11 steps away under a bound
// of 12 (deep hit, the case per-depth re-encoding was slow at). Arg 1: a
// depth-0 hit under a bound of 50 000 (the case unrolling every frame up
// front was slow at).
void BM_Bmc(benchmark::State& state) {
  const bool shallow = state.range(0) != 0;
  Netlist nl = makeCounter(8);
  TransitionSystem system(nl);
  StateSet init = StateSet::fromMinterm(8, 3);
  StateSet target = StateSet::fromMinterm(8, shallow ? 3 : 14);
  const int bound = shallow ? 50000 : 12;
  for (auto _ : state) {
    BmcResult r = boundedReach(system, init, target, bound);
    benchmark::DoNotOptimize(r.depth);
  }
  state.SetLabel(shallow ? "depth 0 of 50000" : "depth 11 of 12");
}
BENCHMARK(BM_Bmc)->Arg(0)->Arg(1);

}  // namespace
}  // namespace presat

BENCHMARK_MAIN();
