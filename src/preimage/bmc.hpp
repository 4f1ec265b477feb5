// Bounded model checking by time-frame expansion — the forward companion to
// the backward preimage engines.
//
// boundedReach answers "can `target` be reached from `init` within maxDepth
// transitions?" with one incremental solver: depth k adds one frame (a copy
// of encodeTransition(system) over fresh variables whose state variables are
// the previous frame's next-state-root variables) and one activation-guarded
// query for the target at frame k, so learnt clauses carry over between
// depths and the work grows with the depth reached, not with the bound. The
// witness trace is read off the satisfying model. Tests cross-check it
// against backward reachability and the safety checker: they must agree on
// reachability and on the minimal depth.
#pragma once

#include <vector>

#include "preimage/target.hpp"
#include "preimage/transition_system.hpp"

namespace presat {

struct BmcResult {
  bool reachable = false;
  int depth = -1;  // smallest depth at which target is hit (0 = init ∩ target)
  // Witness when reachable: states[0] ∈ init, states[depth] ∈ target,
  // inputs[t] drives states[t] -> states[t+1].
  std::vector<std::vector<bool>> traceStates;
  std::vector<std::vector<bool>> traceInputs;
  uint64_t satCalls = 0;
  double seconds = 0.0;
};

BmcResult boundedReach(const TransitionSystem& system, const StateSet& init,
                       const StateSet& target, int maxDepth);

}  // namespace presat
