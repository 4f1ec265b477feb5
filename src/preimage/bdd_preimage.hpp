// BDD-based preimage computation — the symbolic baseline.
//
// Builds one BDD per next-state function (variable order: state bits first,
// then inputs), then computes Pre(T) = ∃x. T(s' ← δ(s, x)) by vector
// composition followed by input quantification.
#pragma once

#include <memory>
#include <vector>

#include "bdd/bdd.hpp"
#include "preimage/target.hpp"
#include "preimage/transition_system.hpp"

namespace presat {

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
  StateSet preimage(const StateSet& target);

  StateSet toStateSet(BddRef stateBdd);
  BddRef toBdd(const StateSet& set) { return set.toBdd(mgr_); }
  BigUint countStates(BddRef stateBdd);

 private:
  const TransitionSystem& system_;
  BddManager mgr_;
  std::vector<BddRef> delta_;
  std::vector<Var> inputVars_;
};

// Transition-relation variant: builds the monolithic relation
// TR(s, s', x) = ∏ (s'_i ≡ δ_i(s, x)) once, then computes
// Pre(T) = ∃s',x. TR ∧ T[s ← s'] with one relational product per query.
// Variable order: s at 0..n-1, s' at n..2n-1, inputs at 2n..2n+m-1.
class BddRelationalTransition {
 public:
  // `governor` as in BddTransition (here it additionally governs the
  // monolithic transition-relation build).
  explicit BddRelationalTransition(const TransitionSystem& system,
                                   Governor* governor = nullptr);

  BddManager& manager() { return mgr_; }
  BddRef relation() const { return relation_; }

  BddRef preimage(BddRef target);  // target over s variables
  StateSet preimage(const StateSet& target);
  StateSet toStateSet(BddRef stateBdd);
  BigUint countStates(BddRef stateBdd);

 private:
  const TransitionSystem& system_;
  BddManager mgr_;
  BddRef relation_;
  std::vector<Var> quantified_;       // s' ∪ x
  std::vector<BddRef> shiftToPrime_;  // substitution s_i -> s'_i
};

}  // namespace presat
