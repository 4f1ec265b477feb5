// Figure 1 — runtime vs number of preimage solutions (series per method).
//
// The solution count is swept by widening the target cube of a 14-bit
// counter: fixing (14-k) state bits leaves ~2^(k+1) preimage states. The
// expected shape: the minterm-blocking curve grows linearly in the solution
// count (one solver call per state), lifted cube blocking grows with the cube
// count, and the success-driven / BDD curves stay nearly flat because their
// representation size is logarithmic in the state count here.
#include <cstdio>

#include "bench_util.hpp"

using namespace presat;
using namespace presat::benchutil;

int main() {
  const int bits = 14;
  Netlist counter = makeCounter(bits);
  TransitionSystem system(counter);
  constexpr uint64_t kMintermCap = 30000;

  std::printf(
      "Figure 1: runtime vs #solutions (14-bit counter, target cube widened)\n"
      "%4s %12s | %12s %12s %12s %12s | %9s %9s\n",
      "k", "pre-states", "minterm-ms", "cube-ms", "sd-ms", "bdd-ms", "sd-cubes", "sd-graph");

  for (int k = 0; k <= 12; ++k) {
    // Fix the top (bits - k) state bits: target has 2^k states.
    LitVec cube;
    for (int i = k; i < bits; ++i) cube.push_back(mkLit(static_cast<Var>(i), i % 2 == 1));
    StateSet target = StateSet::fromCube(bits, cube);

    PreimageOptions capped;
    capped.allsat.maxCubes = kMintermCap;
    PreimageResult minterm =
        computePreimage(system, target, PreimageMethod::kMintermBlocking, capped);
    PreimageResult cubeEng =
        computePreimage(system, target, PreimageMethod::kCubeBlockingLifted);
    PreimageResult sd = computePreimage(system, target, PreimageMethod::kSuccessDriven);
    PreimageResult bdd = computePreimage(system, target, PreimageMethod::kBdd);

    if (cubeEng.stateCount != sd.stateCount || sd.stateCount != bdd.stateCount) {
      std::printf("ENGINE DISAGREEMENT at k=%d\n", k);
      return 1;
    }
    char mt[24];
    if (minterm.complete) {
      std::snprintf(mt, sizeof(mt), "%s", fmtMs(minterm.stats.seconds).c_str());
    } else {
      std::snprintf(mt, sizeof(mt), ">cap");
    }
    std::printf("%4d %12s | %12s %12s %12s %12s | %9zu %9llu\n", k,
                sd.stateCount.toDecimal().c_str(), mt, fmtMs(cubeEng.stats.seconds).c_str(),
                fmtMs(sd.stats.seconds).c_str(), fmtMs(bdd.stats.seconds).c_str(), sd.states.cubes.size(),
                static_cast<unsigned long long>(sd.stats.graphNodes));
  }
  std::printf("\nminterm capped at %llu enumerated solutions\n",
              static_cast<unsigned long long>(kMintermCap));
  return 0;
}
