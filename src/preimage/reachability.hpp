// Multi-step backward reachability by iterated preimage.
//
// Computes R_0 = T, R_{k+1} = R_k ∪ Pre(F_k) until a fixpoint or a depth
// bound, where fresh_k = R_k \ R_{k-1} (fresh_0 = T) are the newly
// discovered states and F_k is any set with fresh_k <= F_k <= R_k. Every such
// F_k gives the same R_{k+1}: Pre(R_{k-1}) <= R_k by induction, so
// Pre(F_k) <= Pre(fresh_k) ∪ Pre(R_{k-1}) <= Pre(fresh_k) ∪ R_k. The sweep
// queries each step with F_k = BddManager::isop(fresh_k, R_k), an
// irredundant cover that uses R_k as its don't-care bound, which usually has
// far fewer cubes than fresh_k's BDD paths (each cube is one more target
// cube for the preimage engine). Where the paths are no more numerous, it
// queries the paths: they are exact, while the ISOP's wider cubes also
// reach into R_k, whose predecessors the engine would enumerate again. Step
// counts, new/total state counts, the reached set and the fixpoint do not
// depend on the choice. Set algebra between steps runs on a persistent
// state-space BDD regardless of which preimage engine is used, so all
// engines are compared on identical iteration structure. backwardReach and
// checkSafety (preimage/safety.hpp) run the one sweep, BackwardSweep below.
#pragma once

#include <functional>
#include <optional>
#include <vector>

#include "bdd/bdd.hpp"
#include "preimage/preimage.hpp"

namespace presat {

struct ReachabilityStep {
  int depth = 0;
  BigUint newStates;       // states discovered at this depth
  BigUint totalStates;     // cumulative
  double seconds = 0.0;    // preimage time for this step
  // BDD set-algebra time for this step (the frontier's cover, union/
  // difference, state counting) — the inter-step cost the preimage engines
  // don't see.
  double algebraSeconds = 0.0;
  AllSatStats stats;       // engine stats for this step
  size_t frontierCubes = 0;  // cubes of the queried set F_k (see above)
};

struct ReachabilityResult {
  StateSet reached;
  bool fixpoint = false;  // true if closed before hitting maxDepth
  // Structured stop reason (govern/budget.hpp). On a partial step the
  // iteration folds that step's sound under-approximation into `reached` and
  // stops: `reached` is then a lower bound on the backward cone and
  // `fixpoint` is forced false (closure cannot be claimed from a truncated
  // frontier).
  Outcome outcome = Outcome::kComplete;
  std::vector<ReachabilityStep> steps;
  // Per-depth step records ("step.0001.new_states", ...), the sweep's
  // "time.preimage_seconds" (sum of steps[i].seconds) and
  // "time.algebra_seconds" (set-algebra total, incl. setup/final sets), and
  // backwardReach's "time.seconds" (the whole iteration, INCLUDING the set
  // algebra) and "reach.steps", for presat_cli reach --stats json.
  Metrics metrics;
};

ReachabilityResult backwardReach(const TransitionSystem& system, const StateSet& target,
                                 int maxDepth, PreimageMethod method,
                                 const PreimageOptions& options = {});

// The backward sweep behind backwardReach and checkSafety. It owns the
// shared transition encoding (CNF engines only), the set-algebra manager,
// and the reached/frontier pair. The governor (if any) also governs the
// manager: node growth counts against the memory budget, and a trip unwinds
// to run()'s guard with `reached` still holding its last consistent value.
class BackwardSweep {
 public:
  // Sees the seed (depth 0) and, after each step, the cumulative set R_depth;
  // returning true stops the sweep. It runs inside run()'s GovernorStop
  // guard, so it may run BDD operations on manager().
  using Visitor = std::function<bool(int depth, BddRef reached)>;

  BackwardSweep(const TransitionSystem& system, PreimageMethod method,
                const PreimageOptions& options);

  // Steps from `target` until the frontier empties, maxDepth steps, a partial
  // step, a governor trip, or `visit` says stop. The result carries the step
  // records, the reached set, the per-step metrics ("step.0001.*") and the
  // preimage/algebra time gauges; the caller adds its own totals and labels.
  ReachabilityResult run(const StateSet& target, int maxDepth, const Visitor& visit = {});

  BddManager& manager() { return mgr_; }

 private:
  const TransitionSystem& system_;
  PreimageMethod method_;
  PreimageOptions options_;
  std::optional<TransitionEncoding> encoding_;
  BddManager mgr_;
};

}  // namespace presat
