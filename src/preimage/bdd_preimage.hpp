// BDD-based preimage computation — the symbolic baseline.
//
// Builds one BDD per next-state function (variable order: state bits first,
// then inputs), then computes Pre(T) = ∃x. T(s' ← δ(s, x)) by vector
// composition followed by input quantification.
#pragma once

#include <vector>

#include "allsat/projection.hpp"
#include "bdd/bdd.hpp"
#include "preimage/target.hpp"
#include "preimage/transition_system.hpp"

namespace presat {

// The BDD preimage engine: Pre(target) over the state bits, returned as the
// ISOP of its BDD — the form of the success-driven engine's cover — counted
// from that BDD and finished by finishCover, so maxCubes, project and
// compress act as they do on every engine. `options.governor` governs the
// node pool; a trip degrades to the EMPTY cover with the trip's outcome,
// since the symbolic recursion has no usable partial answer (still a sound
// under-approximation). The manager size lands in the "bdd.nodes" counter.
AllSatResult bddPreimage(const TransitionSystem& system, const StateSet& target,
                         const AllSatOptions& options);

class BddTransition {
 public:
  // `governor` (optional, not owned) governs the node pool: construction —
  // which builds the per-state-bit function BDDs — and every later query
  // throw GovernorStop once it trips. See BddManager::setGovernor.
  explicit BddTransition(const TransitionSystem& system, Governor* governor = nullptr);

  BddManager& manager() { return mgr_; }
  // BDD variable index of state bit i is i; of input j is numStateBits + j.
  BddRef delta(int stateBit) const { return delta_[static_cast<size_t>(stateBit)]; }

  // One-step preimage of a state-space BDD (support must be state vars).
  BddRef preimage(BddRef target);

 private:
  const TransitionSystem& system_;
  BddManager mgr_;
  std::vector<BddRef> delta_;
  std::vector<Var> inputVars_;
};

// Transition relation TR(s, s', x) = ∏ (s'_i ≡ δ_i(s, x)), built once for
// the symbolic image (preimage/image.hpp).
// Variable order: s at 0..n-1, s' at n..2n-1, inputs at 2n..2n+m-1.
class BddRelationalTransition {
 public:
  explicit BddRelationalTransition(const TransitionSystem& system);

  BddManager& manager() { return mgr_; }
  BddRef relation() const { return relation_; }

  // The ISOP of a state-space BDD (support must be state vars).
  StateSet toStateSet(BddRef stateBdd);
  BigUint countStates(BddRef stateBdd);

 private:
  const TransitionSystem& system_;
  BddManager mgr_;
  BddRef relation_;
};

}  // namespace presat
