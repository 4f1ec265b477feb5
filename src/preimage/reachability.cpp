#include "preimage/reachability.hpp"

#include <cstdio>
#include <string>

#include "base/log.hpp"
#include "base/timer.hpp"
#include "govern/governor.hpp"

namespace presat {

namespace {

// Serializes the per-depth records under the stable names validated by
// tools/check_json.py stats.
void exportStepMetrics(const std::vector<ReachabilityStep>& steps, Metrics& m) {
  for (const ReachabilityStep& step : steps) {
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
}

}  // namespace

BackwardSweep::BackwardSweep(const TransitionSystem& system, PreimageMethod method,
                             const PreimageOptions& options)
    : system_(system), method_(method), options_(options), mgr_(system.numStateBits()) {
  Governor* governor = options.allsat.governor;
  // One circuit encoding + preprocessing pass for the whole frontier loop:
  // every depth's CNF query instantiates the same preprocessed base formula.
  if (options.encoding == nullptr && preimageMethodUsesCnf(method)) {
    encoding_ = buildTransitionEncoding(system, governor);
    options_.encoding = &*encoding_;
  }
  mgr_.setGovernor(governor);
}

ReachabilityResult BackwardSweep::run(const StateSet& target, int maxDepth,
                                      const Visitor& visit) {
  const int n = system_.numStateBits();
  PRESAT_CHECK(target.numStateBits == n);

  ReachabilityResult result;
  double preimageSeconds = 0.0;
  double algebraSeconds = 0.0;
  // Every BDD operation of the sweep runs inside an `algebra` span, so the
  // caller's total decomposes into preimage time + set-algebra time (+ the
  // visitor and negligible loop overhead).
  Timer algebra;
  BddRef reached = BddManager::kFalse;
  BddRef frontier = BddManager::kFalse;
  try {
    reached = target.toBdd(mgr_);
    frontier = reached;
    algebraSeconds += algebra.seconds();
    bool stop = visit && visit(0, reached);

    for (int depth = 1; !stop && depth <= maxDepth; ++depth) {
      if (frontier == BddManager::kFalse) {
        result.fixpoint = true;
        break;
      }
      algebra.reset();
      // F_k (see the header): the ISOP of [frontier, reached] unless the
      // frontier's exact paths are no more numerous.
      StateSet frontierSet;
      frontierSet.numStateBits = n;
      frontierSet.cubes = mgr_.isop(frontier, reached);
      std::vector<LitVec> paths = mgr_.enumerateCubes(frontier, frontierSet.cubes.size() + 1);
      if (paths.size() <= frontierSet.cubes.size()) frontierSet.cubes = std::move(paths);
      double stepAlgebra = algebra.seconds();

      PreimageResult pre = computePreimage(system_, frontierSet, method_, options_);

      algebra.reset();
      BddRef preBdd = pre.states.toBdd(mgr_);
      BddRef fresh = mgr_.bddAnd(preBdd, mgr_.bddNot(reached));
      reached = mgr_.bddOr(reached, preBdd);

      ReachabilityStep step;
      step.depth = depth;
      step.newStates = mgr_.satCount(fresh);
      step.totalStates = mgr_.satCount(reached);
      step.seconds = pre.stats.seconds;
      step.stats = pre.stats;
      step.frontierCubes = frontierSet.cubes.size();
      stepAlgebra += algebra.seconds();
      step.algebraSeconds = stepAlgebra;
      result.steps.push_back(step);

      preimageSeconds += step.seconds;
      algebraSeconds += stepAlgebra;
      frontier = fresh;
      stop = visit && visit(depth, reached);

      if (pre.outcome != Outcome::kComplete) {
        // Partial step: its cubes are genuine preimage states, so folding
        // them in above was sound (and the visitor saw them), but the
        // frontier is truncated — iterating on it would never converge to
        // the true fixpoint. Stop here with the step's reason and report
        // `reached` as a lower bound.
        result.outcome = pre.outcome;
        break;
      }
    }
  } catch (const GovernorStop& stop) {
    // Set algebra tripped mid-operation. BddRef assignments are atomic at
    // the statement level, so reached/frontier keep the last values that
    // were fully computed.
    result.outcome = stop.reason;
    algebraSeconds += algebra.seconds();
  }
  if (result.outcome != Outcome::kComplete) {
    result.fixpoint = false;
  } else if (!result.fixpoint && frontier == BddManager::kFalse) {
    result.fixpoint = true;
  }

  algebra.reset();
  result.reached.numStateBits = n;
  try {
    result.reached.cubes = mgr_.isop(reached, reached);
  } catch (const GovernorStop&) {
    // A tripped manager builds no node, which the ISOP needs; the paths of
    // `reached` need none. The set, and hence the outcome, is the same.
    result.reached.cubes = mgr_.enumerateCubes(reached);
  }
  algebraSeconds += algebra.seconds();
  exportStepMetrics(result.steps, result.metrics);
  result.metrics.setGauge("time.preimage_seconds", preimageSeconds);
  result.metrics.setGauge("time.algebra_seconds", algebraSeconds);
  return result;
}

ReachabilityResult backwardReach(const TransitionSystem& system, const StateSet& target,
                                 int maxDepth, PreimageMethod method,
                                 const PreimageOptions& options) {
  Timer total;
  BackwardSweep sweep(system, method, options);
  ReachabilityResult result = sweep.run(target, maxDepth);

  Metrics& m = result.metrics;
  m.setCounter("reach.steps", result.steps.size());
  m.setCounter("reach.fixpoint", result.fixpoint ? 1 : 0);
  m.setGauge("time.seconds", total.seconds());
  m.setLabel("engine", preimageMethodName(method));
  m.setLabel("outcome", outcomeName(result.outcome));
  if (options.allsat.governor != nullptr) options.allsat.governor->exportMetrics(m);
  return result;
}

}  // namespace presat
