#include "preimage/reachability.hpp"

#include <cstdio>
#include <string>

#include "base/log.hpp"
#include "base/timer.hpp"
#include "bdd/bdd.hpp"
#include "govern/governor.hpp"

namespace presat {

namespace {

// Serializes the per-depth records and totals into `result.metrics` under
// the stable names validated by tools/check_json.py stats.
void exportReachMetrics(ReachabilityResult& result, PreimageMethod method,
                        const Governor* governor) {
  Metrics& m = result.metrics;
  for (const ReachabilityStep& step : result.steps) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "step.%04d.", step.depth);
    std::string prefix(buf);
    // Exact counts that overflow u64 degrade to a gauge (same value space
    // the JSON consumer sees for all doubles).
    if (step.newStates.fitsU64()) {
      m.setCounter(prefix + "new_states", step.newStates.toU64());
    } else {
      m.setGauge(prefix + "new_states", step.newStates.toDouble());
    }
    m.setCounter(prefix + "frontier_cubes", step.frontierCubes);
    m.setGauge(prefix + "seconds", step.seconds);
    m.setGauge(prefix + "algebra_seconds", step.algebraSeconds);
  }
  m.setCounter("reach.steps", result.steps.size());
  m.setCounter("reach.fixpoint", result.fixpoint ? 1 : 0);
  m.setGauge("time.seconds", result.totalSeconds);
  m.setGauge("time.preimage_seconds", result.preimageSeconds);
  m.setGauge("time.algebra_seconds", result.algebraSeconds);
  m.setLabel("engine", preimageMethodName(method));
  m.setLabel("outcome", outcomeName(result.outcome));
  if (governor != nullptr) governor->exportMetrics(m);
}

}  // namespace

ReachabilityResult backwardReach(const TransitionSystem& system, const StateSet& target,
                                 int maxDepth, PreimageMethod method,
                                 const PreimageOptions& options) {
  Timer total;
  const int n = system.numStateBits();
  PRESAT_CHECK(target.numStateBits == n);

  ReachabilityResult result;

  // Persistent manager for the set algebra between steps. Every BDD
  // operation runs inside an `algebra` span so totalSeconds decomposes into
  // preimage time + set-algebra time (+ negligible loop overhead). The
  // governor (if any) also governs this manager: set-algebra node growth
  // counts against the memory budget, and a trip unwinds via GovernorStop to
  // the catch below with `reached` still holding its last consistent value.
  Governor* governor = options.allsat.governor;

  // One circuit encoding + preprocessing pass for the whole frontier loop:
  // every depth's CNF query instantiates the same preprocessed base formula.
  std::optional<TransitionEncoding> sharedEncoding;
  PreimageOptions preOptions = options;
  if (options.encoding == nullptr && preimageMethodUsesCnf(method)) {
    sharedEncoding = buildTransitionEncoding(system, governor);
    preOptions.encoding = &*sharedEncoding;
  }

  Timer algebra;
  BddManager mgr(n);
  mgr.setGovernor(governor);
  BddRef reached = BddManager::kFalse;
  BddRef frontier = BddManager::kFalse;
  try {
    reached = target.toBdd(mgr);
    frontier = reached;
    result.algebraSeconds += algebra.seconds();

    for (int depth = 1; depth <= maxDepth; ++depth) {
      if (frontier == BddManager::kFalse) {
        result.fixpoint = true;
        break;
      }
      algebra.reset();
      StateSet frontierSet;
      frontierSet.numStateBits = n;
      frontierSet.cubes = mgr.enumerateCubes(frontier);
      double stepAlgebra = algebra.seconds();

      PreimageResult pre = computePreimage(system, frontierSet, method, preOptions);

      algebra.reset();
      BddRef preBdd = pre.states.toBdd(mgr);
      BddRef fresh = mgr.bddAnd(preBdd, mgr.bddNot(reached));
      reached = mgr.bddOr(reached, preBdd);

      ReachabilityStep step;
      step.depth = depth;
      step.newStates = mgr.satCount(fresh);
      step.totalStates = mgr.satCount(reached);
      step.seconds = pre.seconds;
      step.stats = pre.stats;
      step.frontierCubes = frontierSet.cubes.size();
      stepAlgebra += algebra.seconds();
      step.algebraSeconds = stepAlgebra;
      result.steps.push_back(step);

      result.preimageSeconds += pre.seconds;
      result.algebraSeconds += stepAlgebra;
      frontier = fresh;

      if (pre.outcome != Outcome::kComplete) {
        // Partial step: its cubes are genuine preimage states, so folding
        // them in above was sound, but the frontier is truncated — iterating
        // on it would never converge to the true fixpoint. Stop here with
        // the step's reason and report `reached` as a lower bound.
        result.outcome = pre.outcome;
        break;
      }
    }
  } catch (const GovernorStop& stop) {
    // Set algebra tripped mid-operation. BddRef assignments are atomic at
    // the statement level, so reached/frontier keep the last values that
    // were fully computed; everything below is node-walk only (no mkNode)
    // and cannot throw again.
    result.outcome = stop.reason;
    result.algebraSeconds += algebra.seconds();
  }
  if (result.outcome != Outcome::kComplete) {
    result.fixpoint = false;
  } else if (!result.fixpoint && frontier == BddManager::kFalse) {
    result.fixpoint = true;
  }

  algebra.reset();
  result.reached.numStateBits = n;
  result.reached.cubes = mgr.enumerateCubes(reached);
  result.algebraSeconds += algebra.seconds();

  result.totalSeconds = total.seconds();
  exportReachMetrics(result, method, governor);
  return result;
}

}  // namespace presat
