// Table 1 — one-step preimage enumeration across the benchmark suite.
//
// Reconstructs the paper's headline table: for each circuit and a fixed
// target cube, enumerate the complete preimage with every engine and report
// the state count, the number of solution cubes each engine produced, and
// runtime. Expected shape: minterm blocking degrades with the number of
// solutions; lifted cube blocking tracks the cube count; the success-driven
// solver tracks the (much smaller) solution-graph size; the BDD engine is
// fast on small state spaces but carries the transition-function build cost;
// projected chrono with wildcard compression reports the same state set with
// a cover no larger than the uncompressed chrono enumeration.
//
// The two par columns run chrono, an engine that splits, through the
// cube-and-conquer path (src/parallel/) at 1 and 8 workers; their ratio is
// the achieved parallel speedup (1.0 on a single-core host — the work is
// identical by the determinism contract, only the scheduling differs). The
// success-driven engine runs serially at every `jobs`, so its runs at 1 and
// 8 workers only check that its cover stays the serial one.
//
// Usage: bench_table1_preimage [out.jsonl]
//   out.jsonl  append one metrics line per engine run (trajectory format)
#include <cstdio>

#include "bench_util.hpp"

using namespace presat;
using namespace presat::benchutil;

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

    PreimageOptions mintermOpts;
    mintermOpts.allsat.maxCubes = kMintermCap;
    PreimageResult minterm =
        computePreimage(system, c.target, PreimageMethod::kMintermBlocking, mintermOpts);

    PreimageResult cube = computePreimage(system, c.target, PreimageMethod::kCubeBlockingLifted);
    PreimageResult sd = computePreimage(system, c.target, PreimageMethod::kSuccessDriven);
    PreimageResult chrono = computePreimage(system, c.target, PreimageMethod::kChrono);
    PreimageResult bdd = computePreimage(system, c.target, PreimageMethod::kBdd);

    PreimageOptions par1;
    par1.allsat.parallel.jobs = 1;
    PreimageResult sdPar1 =
        computePreimage(system, c.target, PreimageMethod::kSuccessDriven, par1);
    PreimageOptions par8;
    par8.allsat.parallel.jobs = 8;
    PreimageResult sdPar8 =
        computePreimage(system, c.target, PreimageMethod::kSuccessDriven, par8);
    PreimageResult chronoPar1 = computePreimage(system, c.target, PreimageMethod::kChrono, par1);
    PreimageResult chronoPar8 = computePreimage(system, c.target, PreimageMethod::kChrono, par8);

    // Certificate-emitting chrono run: same query as `chrono` above but with
    // presat-cert-v1 assembly (witnesses and the replayed proof) on. Its
    // series quantifies the emission overhead; the plain chrono series above
    // doubles as the certificate-off control the 25% regression gate pins
    // down.
    PreimageOptions certOpts;
    certOpts.emitCertificate = true;
    PreimageResult chronoCert =
        computePreimage(system, c.target, PreimageMethod::kChrono, certOpts);

    // Projected-native chrono with wildcard compression: same state set as
    // every engine above, but enumerated scope-first with the projected
    // early stop and compressed into a (usually much smaller) cover.
    PreimageOptions projOpts;
    projOpts.allsat.project = true;
    projOpts.allsat.compress = true;
    PreimageResult proj = computePreimage(system, c.target, PreimageMethod::kChrono, projOpts);
    PreimageOptions projPar1 = projOpts;
    projPar1.allsat.parallel.jobs = 1;
    PreimageResult projPar1R =
        computePreimage(system, c.target, PreimageMethod::kChrono, projPar1);
    PreimageOptions projPar8 = projOpts;
    projPar8.allsat.parallel.jobs = 8;
    PreimageResult projPar8R =
        computePreimage(system, c.target, PreimageMethod::kChrono, projPar8);

    // Sanity: complete engines must agree (minterm may be capped), and the
    // parallel runs must agree with the serial engine AND each other. The
    // chrono shards partition the space, so its par1 cube list differs from
    // the serial one — but par1 vs par8 must be bit-identical.
    if (cube.stateCount != sd.stateCount || sd.stateCount != bdd.stateCount ||
        (minterm.complete && minterm.stateCount != sd.stateCount) ||
        sdPar1.states.cubes != sd.states.cubes || sdPar8.states.cubes != sd.states.cubes ||
        chrono.stateCount != sd.stateCount ||
        chronoPar1.stateCount != sd.stateCount ||
        chronoPar1.states.cubes != chronoPar8.states.cubes ||
        chronoCert.states.cubes != chrono.states.cubes || chronoCert.certificate.empty()) {
      std::printf("ENGINE DISAGREEMENT on %s\n", c.name.c_str());
      return 1;
    }
    // The compressed projected cover must describe the same state set, never
    // use more cubes than the uncompressed chrono enumeration, and stay
    // bit-identical across worker counts.
    if (proj.stateCount != sd.stateCount || projPar1R.stateCount != sd.stateCount ||
        proj.states.cubes.size() > chrono.states.cubes.size() ||
        projPar1R.states.cubes != projPar8R.states.cubes) {
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
    double speedup = chronoPar8.seconds > 0 ? chronoPar1.seconds / chronoPar8.seconds : 0.0;
    std::printf(
        "%-12s %5d %4d %6zu | %12s | %9s %11s | %9zu %11s | %9zu %11s %9llu | "
        "%9zu %11s %7llu | %9zu %11s | %11s %9zu | %9s %9s %5.2fx\n",
        c.name.c_str(), system.numStateBits(), system.numInputs(), c.netlist.numGates(),
        sd.stateCount.toDecimal().c_str(), mtCubes, fmtMs(minterm.seconds).c_str(),
        cube.states.cubes.size(), fmtMs(cube.seconds).c_str(), sd.states.cubes.size(),
        fmtMs(sd.seconds).c_str(), static_cast<unsigned long long>(sd.stats.graphNodes),
        chrono.states.cubes.size(), fmtMs(chrono.seconds).c_str(),
        static_cast<unsigned long long>(chrono.stats.dbClausesPeak),
        proj.states.cubes.size(), fmtMs(proj.seconds).c_str(), fmtMs(bdd.seconds).c_str(),
        bdd.bddNodes, fmtMs(chronoPar1.seconds).c_str(), fmtMs(chronoPar8.seconds).c_str(),
        speedup);

    if (!jsonlPath.empty()) {
      appendMetricsJsonl(jsonlPath, "table1", c.name + "/minterm", minterm.metrics);
      appendMetricsJsonl(jsonlPath, "table1", c.name + "/cube-lifted", cube.metrics);
      appendMetricsJsonl(jsonlPath, "table1", c.name + "/sd", sd.metrics);
      appendMetricsJsonl(jsonlPath, "table1", c.name + "/chrono", chrono.metrics);
      appendMetricsJsonl(jsonlPath, "table1", c.name + "/chrono-cert", chronoCert.metrics);
      appendMetricsJsonl(jsonlPath, "table1", c.name + "/sd-par1", sdPar1.metrics);
      appendMetricsJsonl(jsonlPath, "table1", c.name + "/sd-par8", sdPar8.metrics);
      appendMetricsJsonl(jsonlPath, "table1", c.name + "/chrono-par1", chronoPar1.metrics);
      appendMetricsJsonl(jsonlPath, "table1", c.name + "/chrono-par8", chronoPar8.metrics);
      appendMetricsJsonl(jsonlPath, "table1", c.name + "/chrono-proj", proj.metrics);
      appendMetricsJsonl(jsonlPath, "table1", c.name + "/chrono-proj-par1", projPar1R.metrics);
      appendMetricsJsonl(jsonlPath, "table1", c.name + "/chrono-proj-par8", projPar8R.metrics);
    }
  }
  std::printf(
      "\nmt = minterm blocking (capped at %llu), cb = lifted cube blocking, "
      "sd = success-driven, bdd = symbolic baseline,\n"
      "ch = chronological backtracking (ch-db = peak stored clauses: flat, no "
      "blocking clauses),\n"
      "pj = projected chrono + wildcard compression (same state set, compressed "
      "disjoint cover),\n"
      "par1/par8 = cube-and-conquer chrono at 1/8 workers "
      "(spdup = par1/par8 wall time)\n",
      static_cast<unsigned long long>(kMintermCap));
  return 0;
}
