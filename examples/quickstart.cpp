// Quickstart: compute the one-step preimage of a target state set with the
// success-driven all-solutions solver, and cross-check it with the BDD
// engine.
//
//   $ example_quickstart
//
// Walks through the full public API surface: build (or parse) a sequential
// netlist, wrap it as a TransitionSystem, describe a target StateSet, and
// call computePreimage.
#include <cstdio>

#include "gen/generators.hpp"
#include "preimage/preimage.hpp"

using namespace presat;

int main() {
  // An 8-bit binary up-counter with an enable input: 8 state bits, 1 input.
  Netlist counter = makeCounter(8);
  TransitionSystem system(counter);
  std::printf("circuit: 8-bit counter — %d state bits, %d inputs, %zu gates\n",
              system.numStateBits(), system.numInputs(), counter.numGates());

  // Target: all states with the top two bits set (s6 & s7), i.e. 192..255.
  StateSet target = StateSet::fromCube(8, {mkLit(6), mkLit(7)});
  std::printf("target:  %s  (%s states)\n\n", target.toString().c_str(),
              target.countStates().toDecimal().c_str());

  // The paper's engine: justification search + success-driven learning,
  // emitting a compact solution graph.
  PreimageResult sd = computePreimage(system, target, PreimageMethod::kSuccessDriven);
  std::printf("success-driven solver:\n");
  std::printf("  preimage states : %s\n", sd.stateCount.toDecimal().c_str());
  std::printf("  solution cubes  : %zu\n", sd.states.cubes.size());
  std::printf("  graph nodes     : %llu (edges %llu)\n",
              static_cast<unsigned long long>(sd.stats.graphNodes),
              static_cast<unsigned long long>(sd.stats.graphEdges));
  std::printf("  decisions       : %llu, memo hits: %llu\n",
              static_cast<unsigned long long>(sd.stats.decisions),
              static_cast<unsigned long long>(sd.stats.memoHits));
  std::printf("  time            : %.3f ms\n\n", sd.stats.seconds * 1e3);

  // A few of the cubes, in state-variable notation.
  std::printf("  first cubes:\n");
  for (size_t i = 0; i < sd.states.cubes.size() && i < 5; ++i) {
    StateSet one = StateSet::fromCube(8, sd.states.cubes[i]);
    std::printf("    %s\n", one.toString().c_str());
  }
  if (sd.states.cubes.size() > 5) {
    std::printf("    ... %zu more\n", sd.states.cubes.size() - 5);
  }

  // Cross-check with the symbolic baseline.
  PreimageResult bdd = computePreimage(system, target, PreimageMethod::kBdd);
  bool agree = sameStates(sd.states, bdd.states);
  std::printf("\nBDD baseline: %s states in %.3f ms — %s\n",
              bdd.stateCount.toDecimal().c_str(), bdd.stats.seconds * 1e3,
              agree ? "sets agree" : "MISMATCH (bug!)");
  return agree ? 0 : 1;
}
