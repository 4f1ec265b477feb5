// Table 1 — one-step preimage enumeration across the benchmark suite.
//
// Reconstructs the paper's headline table: for each circuit and a fixed
// target cube, enumerate the complete preimage with every engine and report
// the state count, the number of solution cubes each engine produced, and
// runtime. Expected shape: minterm blocking degrades with the number of
// solutions; lifted cube blocking tracks the cube count; the success-driven
// solver tracks the (much smaller) solution-graph size; the BDD engine is
// fast on small state spaces but carries the transition-function build cost;
// projected chrono with compression returns success-driven's cover, the ISOP
// of the same state set, cube for cube.
//
// The two par columns run minterm blocking, the one engine that splits,
// through the cube-and-conquer path (src/parallel/) at 1 and 8 workers with
// the mt column's cap; their ratio is the achieved parallel speedup (1.0 on
// a single-core host — the work is identical by the determinism contract,
// only the scheduling differs). Every other engine runs serially at every
// worker count, so it has no par runs.
//
// Each ms cell is the best of kRuns runs of that engine on that row, and
// the runs must return the same cover and count.
//
// Usage: bench_table1_preimage [out.jsonl]
//   out.jsonl  append one metrics line per engine and case, from its
//              fastest run (trajectory format)
#include <cstdio>

#include "bench_util.hpp"

using namespace presat;
using namespace presat::benchutil;

namespace {

constexpr int kRuns = 5;

// Runs one engine kRuns times and returns its fastest run. Clears `agree`
// when a run's cover or count differs from the first run's.
PreimageResult fastestRun(const TransitionSystem& system, const StateSet& target,
                          PreimageMethod method, const PreimageOptions& options, bool& agree) {
  PreimageResult best = computePreimage(system, target, method, options);
  for (int run = 1; run < kRuns; ++run) {
    PreimageResult r = computePreimage(system, target, method, options);
    agree = agree && r.states.cubes == best.states.cubes && r.stateCount == best.stateCount;
    if (r.stats.seconds < best.stats.seconds) best = std::move(r);
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string jsonlPath = argc > 1 ? argv[1] : "";

  std::vector<BenchCase> suite = standardSuite();
  // Minterm enumeration is capped: past this many solutions the baseline is
  // reported as timed out at the cap (the blow-up IS the result).
  constexpr uint64_t kMintermCap = 20000;

  std::printf(
      "Table 1: one-step preimage (complete enumeration)\n"
      "%-12s %5s %4s %6s | %12s | %9s %11s | %9s %11s | %9s %11s %9s | %9s %11s %7s | "
      "%9s %11s | %11s %9s | %9s %9s %6s\n",
      "circuit", "dffs", "pi", "gates", "pre-states", "mt-cubes", "mt-ms", "cb-cubes", "cb-ms",
      "sd-cubes", "sd-ms", "sd-graph", "ch-cubes", "ch-ms", "ch-db", "pj-cubes", "pj-ms",
      "bdd-ms", "bdd-nodes", "par1-ms", "par8-ms", "spdup");

  for (BenchCase& c : suite) {
    TransitionSystem system(c.netlist);
    bool agree = true;
    auto run = [&](PreimageMethod method, const PreimageOptions& options = {}) {
      return fastestRun(system, c.target, method, options, agree);
    };

    PreimageOptions mintermOpts;
    mintermOpts.allsat.maxCubes = kMintermCap;
    PreimageResult minterm = run(PreimageMethod::kMintermBlocking, mintermOpts);

    PreimageResult cube = run(PreimageMethod::kCubeBlockingLifted);
    PreimageResult sd = run(PreimageMethod::kSuccessDriven);
    PreimageResult chrono = run(PreimageMethod::kChrono);
    PreimageResult bdd = run(PreimageMethod::kBdd);

    PreimageOptions par1 = mintermOpts;
    par1.allsat.parallel.jobs = 1;
    PreimageOptions par8 = mintermOpts;
    par8.allsat.parallel.jobs = 8;
    PreimageResult mintermPar1 = run(PreimageMethod::kMintermBlocking, par1);
    PreimageResult mintermPar8 = run(PreimageMethod::kMintermBlocking, par8);

    // Certificate-emitting chrono run: same query as `chrono` above but with
    // presat-cert-v1 assembly (witnesses and the replayed proof) on. Its
    // series quantifies the emission overhead; the plain chrono series above
    // doubles as the certificate-off control the 25% regression gate pins
    // down.
    PreimageOptions certOpts;
    certOpts.emitCertificate = true;
    PreimageResult chronoCert = run(PreimageMethod::kChrono, certOpts);

    // Projected-native chrono with compression: same state set as every
    // engine above, but enumerated scope-first with the projected early stop
    // and returned as the ISOP of its union, success-driven's cover.
    PreimageOptions projOpts;
    projOpts.allsat.project = true;
    projOpts.allsat.compress = true;
    PreimageResult proj = run(PreimageMethod::kChrono, projOpts);

    if (!agree) {
      std::printf("RUNS DISAGREE on %s: an engine's %d runs returned different answers\n",
                  c.name.c_str(), kRuns);
      return 1;
    }

    // Sanity: complete engines must agree (minterm may be capped), and the
    // parallel runs must agree with the serial engine AND each other. The
    // minterm shards partition the space, so a par1 cube list differs from
    // the serial one (and under the cap holds other minterms) — but par1 vs
    // par8 must be bit-identical.
    if (cube.stateCount != sd.stateCount || sd.stateCount != bdd.stateCount ||
        (minterm.complete && minterm.stateCount != sd.stateCount) ||
        mintermPar1.complete != minterm.complete ||
        (mintermPar1.complete && mintermPar1.stateCount != sd.stateCount) ||
        mintermPar1.states.cubes != mintermPar8.states.cubes ||
        mintermPar1.stateCount != mintermPar8.stateCount || chrono.stateCount != sd.stateCount ||
        chronoCert.states.cubes != chrono.states.cubes || chronoCert.certificate.empty()) {
      std::printf("ENGINE DISAGREEMENT on %s\n", c.name.c_str());
      return 1;
    }
    // The compressed projected cover must be success-driven's cover cube for
    // cube, with sd's count.
    if (proj.stateCount != sd.stateCount || proj.states.cubes != sd.states.cubes) {
      std::printf("PROJECTED ENGINE DISAGREEMENT on %s\n", c.name.c_str());
      return 1;
    }

    char mtCubes[24];
    if (minterm.complete) {
      std::snprintf(mtCubes, sizeof(mtCubes), "%zu", minterm.states.cubes.size());
    } else {
      std::snprintf(mtCubes, sizeof(mtCubes), ">%llu",
                    static_cast<unsigned long long>(kMintermCap));
    }
    double speedup = mintermPar8.stats.seconds > 0
                         ? mintermPar1.stats.seconds / mintermPar8.stats.seconds
                         : 0.0;
    std::printf(
        "%-12s %5d %4d %6zu | %12s | %9s %11s | %9zu %11s | %9zu %11s %9llu | "
        "%9zu %11s %7llu | %9zu %11s | %11s %9zu | %9s %9s %5.2fx\n",
        c.name.c_str(), system.numStateBits(), system.numInputs(), c.netlist.numGates(),
        sd.stateCount.toDecimal().c_str(), mtCubes, fmtMs(minterm.stats.seconds).c_str(),
        cube.states.cubes.size(), fmtMs(cube.stats.seconds).c_str(), sd.states.cubes.size(),
        fmtMs(sd.stats.seconds).c_str(), static_cast<unsigned long long>(sd.stats.graphNodes),
        chrono.states.cubes.size(), fmtMs(chrono.stats.seconds).c_str(),
        static_cast<unsigned long long>(chrono.stats.dbClausesPeak),
        proj.states.cubes.size(), fmtMs(proj.stats.seconds).c_str(),
        fmtMs(bdd.stats.seconds).c_str(), static_cast<size_t>(bdd.metrics.counter("bdd.nodes")),
        fmtMs(mintermPar1.stats.seconds).c_str(), fmtMs(mintermPar8.stats.seconds).c_str(),
        speedup);

    if (!jsonlPath.empty()) {
      appendMetricsJsonl(jsonlPath, "table1", c.name + "/minterm", minterm.metrics);
      appendMetricsJsonl(jsonlPath, "table1", c.name + "/minterm-par1", mintermPar1.metrics);
      appendMetricsJsonl(jsonlPath, "table1", c.name + "/minterm-par8", mintermPar8.metrics);
      appendMetricsJsonl(jsonlPath, "table1", c.name + "/cube-lifted", cube.metrics);
      appendMetricsJsonl(jsonlPath, "table1", c.name + "/sd", sd.metrics);
      appendMetricsJsonl(jsonlPath, "table1", c.name + "/chrono", chrono.metrics);
      appendMetricsJsonl(jsonlPath, "table1", c.name + "/chrono-cert", chronoCert.metrics);
      appendMetricsJsonl(jsonlPath, "table1", c.name + "/chrono-proj", proj.metrics);
    }
  }
  std::printf(
      "\nmt = minterm blocking (capped at %llu), cb = lifted cube blocking, "
      "sd = success-driven, bdd = symbolic baseline,\n"
      "ch = chronological backtracking (ch-db = peak stored clauses: flat, no "
      "blocking clauses),\n"
      "pj = projected chrono + compression (same state set, sd's ISOP cover "
      "cube for cube),\n"
      "par1/par8 = cube-and-conquer minterm blocking at 1/8 workers, same cap "
      "(spdup = par1/par8 wall time)\n",
      static_cast<unsigned long long>(kMintermCap));
  return 0;
}
