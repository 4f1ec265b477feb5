// Forward image computation — the dual of preimage.
//
// Img(F) = { s' | ∃s ∈ F, ∃x. δ(s, x) = s' }: all states reachable from F in
// one transition. Computed either by projected all-SAT (projection scope =
// the next-state function outputs instead of the present-state sources) or
// symbolically.
#pragma once

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
  double seconds = 0.0;
};

// Runs ungoverned and uncapped: the image is always complete.
ImageResult computeImage(const TransitionSystem& system, const StateSet& from,
                         ImageMethod method);

}  // namespace presat
