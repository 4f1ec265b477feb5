#include "preimage/safety.hpp"

#include "base/log.hpp"
#include "base/timer.hpp"
#include "bdd/bdd.hpp"
#include "govern/governor.hpp"
#include "sat/solver.hpp"

namespace presat {

const char* safetyStatusName(SafetyStatus status) {
  switch (status) {
    case SafetyStatus::kSafe: return "SAFE";
    case SafetyStatus::kUnsafe: return "UNSAFE";
    case SafetyStatus::kUnknown: return "UNKNOWN";
  }
  return "?";
}

bool findTransitionInto(const TransitionSystem& system, const CircuitEncoding& enc,
                        const std::vector<bool>& state, const StateSet& target,
                        std::vector<bool>* inputsOut, std::vector<bool>* nextStateOut) {
  PRESAT_CHECK(state.size() == static_cast<size_t>(system.numStateBits()));
  PRESAT_CHECK(target.numStateBits == system.numStateBits());

  Cnf cnf = enc.cnf;
  // Pin the present state; require the next state to land in the target.
  for (int i = 0; i < system.numStateBits(); ++i) {
    cnf.addUnit(enc.litOf(system.stateNode(i), state[static_cast<size_t>(i)]));
  }
  LitVec roots;
  roots.reserve(static_cast<size_t>(system.numStateBits()));
  for (NodeId r : system.nextStateRoots()) roots.push_back(enc.litOf(r));
  addStateSetClauses(cnf, target, roots);

  Solver solver;
  if (!solver.addCnf(cnf)) return false;
  if (!solver.solve().isTrue()) return false;

  if (inputsOut) {
    inputsOut->assign(static_cast<size_t>(system.numInputs()), false);
    for (int j = 0; j < system.numInputs(); ++j) {
      NodeId in = system.inputNode(j);
      // Inputs outside every next-state cone are unconstrained; default 0.
      (*inputsOut)[static_cast<size_t>(j)] =
          enc.isEncoded(in) && solver.modelValue(enc.varOf(in));
    }
  }
  if (nextStateOut) {
    nextStateOut->assign(static_cast<size_t>(system.numStateBits()), false);
    for (int i = 0; i < system.numStateBits(); ++i) {
      (*nextStateOut)[static_cast<size_t>(i)] = solver.modelValue(roots[static_cast<size_t>(i)]);
    }
  }
  return true;
}

namespace {

// Picks one concrete state out of a non-empty BDD over the state space.
std::vector<bool> pickState(BddManager& mgr, BddRef set, int numStateBits) {
  PRESAT_CHECK(set != BddManager::kFalse);
  std::vector<bool> state(static_cast<size_t>(numStateBits), false);
  BddRef cur = set;
  while (!mgr.isConstant(cur)) {
    Var v = mgr.topVar(cur);
    if (mgr.low(cur) != BddManager::kFalse) {
      state[static_cast<size_t>(v)] = false;
      cur = mgr.low(cur);
    } else {
      state[static_cast<size_t>(v)] = true;
      cur = mgr.high(cur);
    }
  }
  PRESAT_CHECK(cur == BddManager::kTrue);
  return state;
}

}  // namespace

SafetyResult checkSafety(const TransitionSystem& system, const StateSet& initial,
                         const StateSet& bad, const SafetyOptions& options) {
  Timer timer;
  const int n = system.numStateBits();
  PRESAT_CHECK(initial.numStateBits == n && bad.numStateBits == n);

  SafetyResult result;
  // A governor trip inside the sweep (or the hit test it visits) stops it
  // with the reason; the verdict then degrades to kUnknown unless a hit was
  // already found.
  BackwardSweep sweep(system, options.method, options.preimage);
  BddManager& mgr = sweep.manager();
  BddRef initBdd = BddManager::kFalse;
  // Layered backward sets: layers[d] = states reaching bad in <= d steps.
  // The manager never collects garbage, so the refs stay valid.
  std::vector<BddRef> layers;
  int hitDepth = -1;
  ReachabilityResult swept =
      sweep.run(bad, options.maxDepth, [&](int depth, BddRef reached) {
        if (depth == 0) initBdd = initial.toBdd(mgr);
        layers.push_back(reached);
        if (mgr.bddAnd(initBdd, reached) != BddManager::kFalse) hitDepth = depth;
        return hitDepth >= 0;
      });
  const int depth = static_cast<int>(swept.steps.size());
  result.outcome = swept.outcome;
  result.backwardReached = std::move(swept.reached);
  result.metrics = std::move(swept.metrics);

  if (hitDepth >= 0) {
    try {
      result.status = SafetyStatus::kUnsafe;
      // Trace extraction: start at an initial state inside the depth-d cone,
      // then step into strictly shallower layers until the bad set is
      // reached. Only here are layers enumerated into cubes.
      const CircuitEncoding enc = encodeTransition(system);
      std::vector<bool> current =
          pickState(mgr, mgr.bddAnd(initBdd, layers[static_cast<size_t>(hitDepth)]), n);
      result.traceStates.push_back(current);
      for (int layer = hitDepth; layer > 0; --layer) {
        if (bad.contains(current)) break;  // reached bad early
        StateSet shallower;
        shallower.numStateBits = n;
        shallower.cubes = mgr.enumerateCubes(layers[static_cast<size_t>(layer - 1)]);
        std::vector<bool> inputs, next;
        bool found = findTransitionInto(system, enc, current, shallower, &inputs, &next);
        PRESAT_CHECK(found) << "layered backward sets must admit a forward step";
        result.traceInputs.push_back(std::move(inputs));
        current = std::move(next);
        result.traceStates.push_back(current);
      }
      PRESAT_CHECK(bad.contains(result.traceStates.back()))
          << "counterexample does not end in the bad set";
      // The forward replay may reach bad before exhausting the layers.
      result.depth = static_cast<int>(result.traceInputs.size());
    } catch (const GovernorStop& stop) {
      // The budget died between the verdict and its witness. Report the
      // undecided outcome rather than an UNSAFE verdict backed by a broken
      // counterexample.
      result.status = SafetyStatus::kUnknown;
      result.outcome = stop.reason;
      result.traceStates.clear();
      result.traceInputs.clear();
      result.depth = depth;
    }
  } else {
    // A fixpoint is only ever claimed from complete steps.
    result.status = swept.fixpoint ? SafetyStatus::kSafe : SafetyStatus::kUnknown;
    result.depth = depth;
  }
  result.seconds = timer.seconds();
  result.metrics.setCounter("safety.depth", static_cast<uint64_t>(result.depth));
  result.metrics.setCounter("safety.steps", static_cast<uint64_t>(depth));
  result.metrics.setGauge("time.seconds", result.seconds);
  result.metrics.setLabel("engine", preimageMethodName(options.method));
  result.metrics.setLabel("status", safetyStatusName(result.status));
  result.metrics.setLabel("outcome", outcomeName(result.outcome));
  Governor* governor = options.preimage.allsat.governor;
  if (governor != nullptr) governor->exportMetrics(result.metrics);
  return result;
}

}  // namespace presat
