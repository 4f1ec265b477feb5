// Figure 3 — ablations of the two design choices DESIGN.md calls out.
//
// (a) Success-driven learning on/off: parity trees are the best case
//     (exponential sharing); random circuits show the typical case; the
//     carry chain shows the worst case (nothing to reuse, pure signature
//     overhead).
// (b) Model lifting on/off in the blocking baseline (blockingAllSat with and
//     without a lifter): solver calls drop from #minterms to #cubes.
#include <cstdio>
#include <string>
#include <vector>

#include "allsat/success_driven.hpp"
#include "base/log.hpp"
#include "bench_util.hpp"

using namespace presat;
using namespace presat::benchutil;

namespace {

Netlist parityTree(int stateBits) {
  Netlist nl;
  std::vector<NodeId> layer, state;
  for (int i = 0; i < stateBits; ++i) layer.push_back(nl.addDff(numbered("s", i)));
  state = layer;
  int gid = 0;
  while (layer.size() > 1) {
    std::vector<NodeId> next;
    for (size_t i = 0; i + 1 < layer.size(); i += 2) {
      next.push_back(nl.mkXor(layer[i], layer[i + 1], numbered("x", gid++)));
    }
    if (layer.size() % 2 == 1) next.push_back(layer.back());
    layer = std::move(next);
  }
  for (NodeId d : state) nl.connectDffData(d, layer[0]);
  nl.markOutput(layer[0], "parity");
  nl.validate();
  return nl;
}

std::string jsonlPath;  // set from argv[1]; empty disables trajectory output

void learningRow(const char* name, const Netlist& nl, const NodeCube& objectives) {
  CircuitAllSatProblem p;
  p.netlist = &nl;
  p.objectives = objectives;
  for (NodeId d : nl.dffs()) p.projectionSources.push_back(d);

  AllSatOptions on;
  AllSatOptions off;
  off.successLearning = false;
  SuccessDrivenResult withL = successDrivenAllSat(p, on);
  SuccessDrivenResult without = successDrivenAllSat(p, off);
  if (withL.summary.mintermCount != without.summary.mintermCount) {
    std::printf("ABLATION DISAGREEMENT on %s\n", name);
    std::exit(1);
  }
  std::printf("%-14s %12s | %10llu %10llu %9.3f | %10llu %10llu %9.3f | %8llu %8llu %9llu\n",
              name, withL.summary.mintermCount.toDecimal().c_str(),
              static_cast<unsigned long long>(withL.summary.stats.decisions),
              static_cast<unsigned long long>(withL.summary.stats.graphNodes),
              withL.summary.stats.seconds * 1e3,
              static_cast<unsigned long long>(without.summary.stats.decisions),
              static_cast<unsigned long long>(without.summary.stats.graphNodes),
              without.summary.stats.seconds * 1e3,
              static_cast<unsigned long long>(withL.summary.stats.memoHits),
              static_cast<unsigned long long>(withL.summary.stats.memoEntries),
              static_cast<unsigned long long>(withL.summary.stats.memoBytes));
  if (!jsonlPath.empty()) {
    appendMetricsJsonl(jsonlPath, "fig3a", name, withL.summary.metrics);
  }
}

}  // namespace

int main(int argc, char** argv) {
  // Optional argv[1]: JSONL trajectory file — one metrics line per fig3a run.
  if (argc > 1) jsonlPath = argv[1];
  std::printf(
      "Figure 3a: success-driven learning ablation\n"
      "%-14s %12s | %32s | %32s | %8s %8s %9s\n"
      "%-14s %12s | %10s %10s %9s | %10s %10s %9s | %8s %8s %9s\n",
      "", "", "learning ON", "learning OFF", "", "", "", "circuit", "solutions", "decisions",
      "graph", "ms", "decisions", "graph", "ms", "hits", "entries", "memoB");

  for (int bits : {8, 12, 16}) {
    Netlist nl = parityTree(bits);
    NodeId root = nl.outputs()[0];
    learningRow(("parity" + std::to_string(bits)).c_str(), nl, {{root, false}});
  }
  for (uint64_t seed : {71u, 72u, 73u}) {
    Netlist nl = randomBench(4, 10, 100, seed);
    NodeCube objectives;
    objectives.emplace_back(nl.dffData(nl.dffs()[0]), true);
    objectives.emplace_back(nl.dffData(nl.dffs()[5]), false);
    learningRow(("rand10x100#" + std::to_string(seed)).c_str(), nl, objectives);
  }
  {
    Netlist nl = makeCounter(14);
    learningRow("carry14", nl, {{nl.dffData(nl.dffs()[13]), false}});
  }

  std::printf(
      "\nFigure 3b: model-lifting ablation (blocking), same suite as Table 1\n"
      "%-12s %12s | %10s %10s | %10s %10s\n",
      "circuit", "pre-states", "lift-calls", "lift-ms", "nolift-calls", "nolift-ms");
  for (BenchCase& c : standardSuite()) {
    TransitionSystem system(c.netlist);
    PreimageOptions capped;
    capped.allsat.maxCubes = 20000;
    PreimageResult lifted =
        computePreimage(system, c.target, PreimageMethod::kCubeBlockingLifted);
    PreimageResult plain =
        computePreimage(system, c.target, PreimageMethod::kMintermBlocking, capped);
    char calls[24];
    if (plain.complete) {
      std::snprintf(calls, sizeof(calls), "%llu",
                    static_cast<unsigned long long>(plain.stats.satCalls));
    } else {
      std::snprintf(calls, sizeof(calls), ">20000");
    }
    std::printf("%-12s %12s | %10llu %10.3f | %10s %10.3f\n", c.name.c_str(),
                lifted.stateCount.toDecimal().c_str(),
                static_cast<unsigned long long>(lifted.stats.satCalls), lifted.stats.seconds * 1e3,
                calls, plain.stats.seconds * 1e3);
    if (!jsonlPath.empty()) {
      appendMetricsJsonl(jsonlPath, "fig3b", c.name + "/lifted", lifted.metrics);
      appendMetricsJsonl(jsonlPath, "fig3b", c.name + "/plain", plain.metrics);
    }
  }
  return 0;
}
