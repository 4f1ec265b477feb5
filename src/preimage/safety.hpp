// Unbounded safety checking by backward reachability — the model-checking
// loop the paper's preimage engine plugs into.
//
// A property "bad states are never reachable from the initial states" is
// checked by iterating preimages from the bad set: if the backward fixpoint
// closes without touching the initial set, the design is SAFE; if some
// initial state enters the backward cone at depth d, the design is UNSAFE
// and a concrete length-d counterexample trace (states + inputs) is
// extracted by replaying the layered backward sets forward with single SAT
// queries. The backward iteration is backwardReach's own sweep
// (BackwardSweep); only the initial-set hit test, the layers, the trace and
// the verdict are the checker's.
#pragma once

#include <vector>

#include "preimage/preimage.hpp"
#include "preimage/reachability.hpp"

namespace presat {

enum class SafetyStatus {
  kSafe,     // backward fixpoint closed away from the initial states
  kUnsafe,   // counterexample found
  kUnknown,  // depth bound exhausted before closing
};

const char* safetyStatusName(SafetyStatus status);

struct SafetyOptions {
  int maxDepth = 10000;
  PreimageMethod method = PreimageMethod::kSuccessDriven;
  PreimageOptions preimage;
};

struct SafetyResult {
  SafetyStatus status = SafetyStatus::kUnknown;
  // Structured stop reason (govern/budget.hpp). A budget trip mid-iteration
  // degrades the verdict to kUnknown (never to kSafe — closure cannot be
  // claimed from a truncated backward cone); an UNSAFE hit found before the
  // trip stands, because the partial backward sets only ever contain states
  // that genuinely reach the bad set.
  Outcome outcome = Outcome::kComplete;
  // Depth at which the verdict was reached: counterexample length for
  // kUnsafe, closing depth for kSafe.
  int depth = 0;
  // For kUnsafe: states[0] is initial, states.back() is bad;
  // inputs[i] drives states[i] -> states[i+1] (inputs.size() == depth).
  std::vector<std::vector<bool>> traceStates;
  std::vector<std::vector<bool>> traceInputs;
  // Backward-reachable set accumulated up to the verdict.
  StateSet backwardReached;
  double seconds = 0.0;
  // backwardReach's per-depth step records ("step.0001.new_states",
  // "step.0001.algebra_seconds", ...) plus the verdict ("safety.depth",
  // labels engine/status) for presat_cli safety --stats json.
  Metrics metrics;
};

SafetyResult checkSafety(const TransitionSystem& system, const StateSet& initial,
                         const StateSet& bad, const SafetyOptions& options = {});

// Single-transition witness query: is there an input taking `state` into
// `target` in one step? Returns the input vector if so. `enc` is
// encodeTransition(system), built once by the caller and shared by every
// query (the trace extractor asks one per counterexample step).
bool findTransitionInto(const TransitionSystem& system, const CircuitEncoding& enc,
                        const std::vector<bool>& state, const StateSet& target,
                        std::vector<bool>* inputsOut, std::vector<bool>* nextStateOut);

}  // namespace presat
