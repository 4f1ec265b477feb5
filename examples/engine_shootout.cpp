// Side-by-side comparison of every preimage engine on a small benchmark
// suite — a miniature of the paper's evaluation, runnable in seconds.
//
//   $ example_engine_shootout
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "gen/generators.hpp"
#include "gen/iscas.hpp"
#include "gen/random_circuit.hpp"
#include "preimage/preimage.hpp"

using namespace presat;

namespace {

struct Case {
  std::string name;
  Netlist netlist;
  StateSet target;
};

// Target: fix the lowest `fixed` state bits to alternating values.
StateSet alternatingCube(int stateBits, int fixed) {
  LitVec cube;
  for (int i = 0; i < fixed && i < stateBits; ++i) {
    cube.push_back(mkLit(static_cast<Var>(i), i % 2 == 1));
  }
  return StateSet::fromCube(stateBits, cube);
}

}  // namespace

int main() {
  std::vector<Case> cases;
  {
    Netlist nl = makeS27();
    cases.push_back({"s27", std::move(nl), alternatingCube(3, 2)});
  }
  {
    Netlist nl = makeCounter(10);
    cases.push_back({"counter10", std::move(nl), alternatingCube(10, 5)});
  }
  {
    Netlist nl = makeGrayCounter(8);
    cases.push_back({"gray8", std::move(nl), alternatingCube(8, 4)});
  }
  {
    Netlist nl = makeLfsr(10);
    cases.push_back({"lfsr10", std::move(nl), alternatingCube(10, 5)});
  }
  {
    RandomCircuitParams params;
    params.numInputs = 4;
    params.numDffs = 10;
    params.numGates = 120;
    params.seed = 2024;
    Netlist nl = makeRandomSequential(params);
    cases.push_back({"rand10x120", std::move(nl), alternatingCube(10, 5)});
  }

  std::printf("%-12s %-22s %12s %9s %11s\n", "circuit", "method", "pre-states", "cubes",
              "time(ms)");
  for (Case& c : cases) {
    TransitionSystem system(c.netlist);
    BigUint reference;
    bool first = true;
    for (PreimageMethod method : kAllPreimageMethods) {
      PreimageResult r = computePreimage(system, c.target, method);
      std::printf("%-12s %-22s %12s %9zu %11.3f\n", first ? c.name.c_str() : "",
                  preimageMethodName(method), r.stateCount.toDecimal().c_str(),
                  r.states.cubes.size(), r.stats.seconds * 1e3);
      if (first) {
        reference = r.stateCount;
      } else if (r.stateCount != reference) {
        std::printf("ENGINE DISAGREEMENT on %s — bug!\n", c.name.c_str());
        return 1;
      }
      first = false;
    }
    std::printf("\n");
  }
  std::printf("all engines agree on every circuit\n");
  return 0;
}
