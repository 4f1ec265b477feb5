#include "preimage/safety.hpp"

#include <cstdio>
#include <string>

#include "base/log.hpp"
#include "base/timer.hpp"
#include "bdd/bdd.hpp"
#include "circuit/tseitin.hpp"
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

bool findTransitionInto(const TransitionSystem& system, const std::vector<bool>& state,
                        const StateSet& target, std::vector<bool>* inputsOut,
                        std::vector<bool>* nextStateOut) {
  const Netlist& nl = system.netlist();
  PRESAT_CHECK(state.size() == static_cast<size_t>(system.numStateBits()));
  PRESAT_CHECK(target.numStateBits == system.numStateBits());

  std::vector<NodeId> roots = system.nextStateRoots();
  for (NodeId s : system.stateNodes()) roots.push_back(s);
  CircuitEncoding enc = encodeCircuit(nl, roots);
  Cnf& cnf = enc.cnf;

  // Pin the present state.
  for (int i = 0; i < system.numStateBits(); ++i) {
    cnf.addUnit(enc.litOf(system.stateNode(i), state[static_cast<size_t>(i)]));
  }
  // Require the next state to land in the target union.
  if (target.cubes.empty()) return false;
  Clause atLeastOne;
  for (const LitVec& cube : target.cubes) {
    Lit sel = mkLit(cnf.newVar());
    atLeastOne.push_back(sel);
    for (Lit l : cube) {
      cnf.addBinary(~sel, enc.litOf(system.nextStateRoot(l.var()), !l.sign()));
    }
  }
  cnf.addClause(std::move(atLeastOne));

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
      (*nextStateOut)[static_cast<size_t>(i)] = solver.modelValue(enc.varOf(system.nextStateRoot(i)));
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
  // The governor (if any) also governs the set-algebra manager; a trip
  // unwinds via GovernorStop to the catch below, and the verdict degrades to
  // kUnknown with the backward sets accumulated so far.
  Governor* governor = options.preimage.allsat.governor;

  // One circuit encoding + preprocessing pass for the whole backward sweep.
  std::optional<TransitionEncoding> sharedEncoding;
  SafetyOptions safeOptions = options;
  if (options.preimage.encoding == nullptr && preimageMethodUsesCnf(options.method)) {
    sharedEncoding = buildTransitionEncoding(system, governor);
    safeOptions.preimage.encoding = &*sharedEncoding;
  }

  BddManager mgr(n);
  mgr.setGovernor(governor);
  BddRef initBdd = BddManager::kFalse;
  BddRef reached = BddManager::kFalse;
  BddRef frontier = BddManager::kFalse;

  // Layered backward sets: cumulative[d] = states reaching bad in <= d steps.
  std::vector<StateSet> cumulative;
  auto snapshot = [&](BddRef set) {
    StateSet s;
    s.numStateBits = n;
    s.cubes = mgr.enumerateCubes(set);
    return s;
  };

  int hitDepth = -1;
  int depth = 0;
  try {
    initBdd = initial.toBdd(mgr);
    reached = bad.toBdd(mgr);
    frontier = reached;
    cumulative.push_back(snapshot(reached));
    if (mgr.bddAnd(initBdd, reached) != BddManager::kFalse) hitDepth = 0;

    while (hitDepth < 0 && depth < options.maxDepth) {
      if (frontier == BddManager::kFalse) {
        result.status = SafetyStatus::kSafe;
        result.depth = depth;
        break;
      }
      ++depth;
      StateSet frontierSet = snapshot(frontier);
      PreimageResult pre =
          computePreimage(system, frontierSet, options.method, safeOptions.preimage);
      BddRef preBdd = pre.states.toBdd(mgr);
      frontier = mgr.bddAnd(preBdd, mgr.bddNot(reached));
      reached = mgr.bddOr(reached, preBdd);
      cumulative.push_back(snapshot(reached));
      if (mgr.bddAnd(initBdd, reached) != BddManager::kFalse) hitDepth = depth;

      // Per-depth record, same schema as backwardReach's reach metrics.
      char buf[32];
      std::snprintf(buf, sizeof buf, "step.%04d.", depth);
      std::string prefix(buf);
      BigUint fresh = mgr.satCount(frontier);
      if (fresh.fitsU64()) {
        result.metrics.setCounter(prefix + "new_states", fresh.toU64());
      } else {
        result.metrics.setGauge(prefix + "new_states", fresh.toDouble());
      }
      result.metrics.setCounter(prefix + "frontier_cubes", frontierSet.cubes.size());
      result.metrics.setGauge(prefix + "seconds", pre.seconds);

      if (pre.outcome != Outcome::kComplete) {
        // Partial preimage: the fold above stays sound (every partial cube
        // genuinely reaches bad), and an UNSAFE hit detected through it
        // stands. Without a hit the truncated frontier cannot support a
        // SAFE claim, so stop and leave the verdict kUnknown.
        result.outcome = pre.outcome;
        break;
      }
    }
  } catch (const GovernorStop& stop) {
    // Set algebra tripped: reached/frontier/cumulative keep the last fully
    // computed values; the snapshot below is node-walk only and safe.
    result.outcome = stop.reason;
  }

  result.backwardReached = snapshot(reached);

  if (hitDepth >= 0) {
    try {
      result.status = SafetyStatus::kUnsafe;
      result.depth = hitDepth;
      // Trace extraction: start at an initial state inside the depth-d cone,
      // then step into strictly shallower layers until the bad set is
      // reached.
      std::vector<bool> current = pickState(
          mgr, mgr.bddAnd(initBdd, cumulative[static_cast<size_t>(hitDepth)].toBdd(mgr)), n);
      result.traceStates.push_back(current);
      for (int layer = hitDepth; layer > 0; --layer) {
        if (bad.contains(current)) break;  // reached bad early
        std::vector<bool> inputs, next;
        bool found = findTransitionInto(system, current,
                                        cumulative[static_cast<size_t>(layer - 1)], &inputs, &next);
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
  } else if (result.status != SafetyStatus::kSafe) {
    result.status = SafetyStatus::kUnknown;
    result.depth = depth;
  }
  result.seconds = timer.seconds();
  result.metrics.setCounter("safety.depth", static_cast<uint64_t>(result.depth));
  result.metrics.setCounter("safety.steps", static_cast<uint64_t>(depth));
  result.metrics.setGauge("time.seconds", result.seconds);
  result.metrics.setLabel("engine", preimageMethodName(options.method));
  result.metrics.setLabel("status", safetyStatusName(result.status));
  result.metrics.setLabel("outcome", outcomeName(result.outcome));
  if (governor != nullptr) governor->exportMetrics(result.metrics);
  return result;
}

}  // namespace presat
