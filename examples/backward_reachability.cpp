// Backward reachability on the traffic-light controller: from which states
// can the farm road ever get a green light, and how fast do the SAT and BDD
// preimage engines close the fixpoint?
//
//   $ example_backward_reachability
//
// Demonstrates multi-step use of the preimage engines (the unbounded model
// checking loop the paper targets), with per-depth statistics.
#include <cstdio>

#include "gen/generators.hpp"
#include "preimage/reachability.hpp"

using namespace presat;

namespace {

void report(const char* name, const ReachabilityResult& r) {
  std::printf("%s:\n", name);
  std::printf("  %5s %12s %12s %10s\n", "depth", "new states", "total", "time(ms)");
  for (const ReachabilityStep& step : r.steps) {
    std::printf("  %5d %12s %12s %10.3f\n", step.depth, step.newStates.toDecimal().c_str(),
                step.totalStates.toDecimal().c_str(), step.seconds * 1e3);
  }
  std::printf("  fixpoint: %s, total %.3f ms\n\n", r.fixpoint ? "yes" : "no",
              r.metrics.gauge("time.seconds") * 1e3);
}

}  // namespace

int main() {
  Netlist light = makeTrafficLight();
  TransitionSystem system(light);
  std::printf("traffic-light controller: %d state bits (phase s1 s0, timer t1 t0), %d input\n\n",
              system.numStateBits(), system.numInputs());

  // Target: the farm-green phase (s1=1, s0=0), any timer value.
  StateSet farmGreen = StateSet::fromCube(4, {mkLit(0), ~mkLit(1)});
  std::printf("target: farm road green — %s states\n\n",
              farmGreen.countStates().toDecimal().c_str());

  ReachabilityResult viaSat =
      backwardReach(system, farmGreen, 16, PreimageMethod::kSuccessDriven);
  report("success-driven SAT engine", viaSat);

  ReachabilityResult viaCubes =
      backwardReach(system, farmGreen, 16, PreimageMethod::kCubeBlockingLifted);
  report("lifted cube-blocking engine", viaCubes);

  ReachabilityResult viaBdd = backwardReach(system, farmGreen, 16, PreimageMethod::kBdd);
  report("BDD engine", viaBdd);

  bool agree = sameStates(viaSat.reached, viaBdd.reached) &&
               sameStates(viaCubes.reached, viaBdd.reached);
  std::printf("engines agree on the backward-reachable set: %s\n", agree ? "yes" : "NO (bug!)");
  std::printf("states that can reach farm-green: %s of 16\n",
              viaSat.reached.countStates().toDecimal().c_str());
  return agree ? 0 : 1;
}
