// Forward image computation — the dual of preimage.
//
// Img(F) = { s' | ∃s ∈ F, ∃x. δ(s, x) = s' }: all states reachable from F in
// one transition. Computed either by projected all-SAT (projection scope =
// the next-state function outputs instead of the present-state sources) or
// symbolically. Together with preimage this completes the reachability
// toolbox: forward reachability from reset states, backward reachability
// from bad states, and their intersection for debugging.
#pragma once

#include "allsat/projection.hpp"
#include "preimage/target.hpp"
#include "preimage/transition_system.hpp"

namespace presat {

enum class ImageMethod {
  // Blocking all-SAT over the next-state variables of the shared
  // TransitionEncoding (preimage/preimage.hpp). Minterm-level: lifting a
  // cube over outputs would need a per-cube universality check to stay sound.
  kMintermBlocking,
  kBdd,  // relational product over the transition relation
};

const char* imageMethodName(ImageMethod method);

inline constexpr ImageMethod kAllImageMethods[] = {
    ImageMethod::kMintermBlocking,
    ImageMethod::kBdd,
};

struct ImageResult {
  StateSet states;
  BigUint stateCount;
  bool complete = true;
  AllSatStats stats;
  double seconds = 0.0;
};

ImageResult computeImage(const TransitionSystem& system, const StateSet& from,
                         ImageMethod method, const AllSatOptions& options = {});

// Forward reachability to fixpoint or depth bound (frontier-based). The
// all-SAT method encodes the circuit once and reuses it at every depth.
struct ForwardReachResult {
  StateSet reached;
  bool fixpoint = false;
  int depth = 0;
  double seconds = 0.0;
};

ForwardReachResult forwardReach(const TransitionSystem& system, const StateSet& init,
                                int maxDepth, ImageMethod method,
                                const AllSatOptions& options = {});

}  // namespace presat
