#include "preimage/bdd_preimage.hpp"

#include "base/check.hpp"
#include "base/timer.hpp"
#include "circuit/netlist.hpp"

namespace presat {

namespace {

// Node -> BDD over state bit i at variable i and input j at `inputBase` + j,
// built in topological order over the next-state cones only (the cone
// encodeCircuit limits the CNF engines to); logic outside them stays kFalse.
// Both transition builders share it, so they issue the same manager
// operations in the same order.
std::vector<BddRef> buildNodeBdds(BddManager& mgr, const TransitionSystem& system,
                                  Var inputBase) {
  const Netlist& nl = system.netlist();
  std::vector<BddRef> nodeBdd(nl.numNodes(), BddManager::kFalse);
  std::vector<bool> isSource(nl.numNodes(), false);
  std::vector<bool> inCone(nl.numNodes(), false);
  for (NodeId id : nl.coneOf(system.nextStateRoots())) inCone[id] = true;
  for (int i = 0; i < system.numStateBits(); ++i) {
    nodeBdd[system.stateNode(i)] = mgr.variable(static_cast<Var>(i));
    isSource[system.stateNode(i)] = true;
  }
  for (int j = 0; j < system.numInputs(); ++j) {
    nodeBdd[system.inputNode(j)] = mgr.variable(inputBase + j);
    isSource[system.inputNode(j)] = true;
  }
  for (NodeId id : nl.topologicalOrder()) {
    if (!inCone[id]) continue;
    const GateNode& g = nl.node(id);
    switch (g.type) {
      case GateType::kInput:
      case GateType::kDff:
        PRESAT_CHECK(isSource[id]) << "unregistered source node";
        break;
      case GateType::kConst0:
        nodeBdd[id] = BddManager::kFalse;
        break;
      case GateType::kConst1:
        nodeBdd[id] = BddManager::kTrue;
        break;
      case GateType::kBuf:
        nodeBdd[id] = nodeBdd[g.fanins[0]];
        break;
      case GateType::kNot:
        nodeBdd[id] = mgr.bddNot(nodeBdd[g.fanins[0]]);
        break;
      case GateType::kAnd:
      case GateType::kNand: {
        BddRef acc = BddManager::kTrue;
        for (NodeId f : g.fanins) acc = mgr.bddAnd(acc, nodeBdd[f]);
        nodeBdd[id] = g.type == GateType::kNand ? mgr.bddNot(acc) : acc;
        break;
      }
      case GateType::kOr:
      case GateType::kNor: {
        BddRef acc = BddManager::kFalse;
        for (NodeId f : g.fanins) acc = mgr.bddOr(acc, nodeBdd[f]);
        nodeBdd[id] = g.type == GateType::kNor ? mgr.bddNot(acc) : acc;
        break;
      }
      case GateType::kXor:
      case GateType::kXnor: {
        BddRef acc = BddManager::kFalse;
        for (NodeId f : g.fanins) acc = mgr.bddXor(acc, nodeBdd[f]);
        nodeBdd[id] = g.type == GateType::kXnor ? mgr.bddNot(acc) : acc;
        break;
      }
      case GateType::kMux:
        nodeBdd[id] = mgr.ite(nodeBdd[g.fanins[0]], nodeBdd[g.fanins[2]], nodeBdd[g.fanins[1]]);
        break;
      default:
        PRESAT_CHECK(false) << "unhandled gate type";
    }
  }
  return nodeBdd;
}

}  // namespace

BddTransition::BddTransition(const TransitionSystem& system, Governor* governor)
    : system_(system),
      mgr_(system.numStateBits() + system.numInputs()) {
  mgr_.setGovernor(governor);
  const Var inputBase = static_cast<Var>(system.numStateBits());
  std::vector<BddRef> nodeBdd = buildNodeBdds(mgr_, system, inputBase);
  for (int j = 0; j < system.numInputs(); ++j) inputVars_.push_back(inputBase + j);
  delta_.reserve(static_cast<size_t>(system.numStateBits()));
  for (int i = 0; i < system.numStateBits(); ++i) {
    delta_.push_back(nodeBdd[system.nextStateRoot(i)]);
  }
}

BddRef BddTransition::preimage(BddRef target) {
  // Substitute state variable i by delta_i; input variables stay themselves.
  std::vector<BddRef> substitution(static_cast<size_t>(mgr_.numVars()),
                                   BddManager::kNoSubstitution);
  for (int i = 0; i < system_.numStateBits(); ++i) {
    substitution[static_cast<size_t>(i)] = delta_[static_cast<size_t>(i)];
  }
  BddRef shifted = mgr_.composeVector(target, substitution);
  return mgr_.exists(shifted, inputVars_);
}

AllSatResult bddPreimage(const TransitionSystem& system, const StateSet& target,
                         const AllSatOptions& options) {
  Timer timer;
  const int n = system.numStateBits();
  PRESAT_CHECK(target.numStateBits == n);
  AllSatResult result;
  size_t nodes = 0;
  try {
    BddTransition transition(system, options.governor);
    BddManager& mgr = transition.manager();
    const BddRef pre = transition.preimage(target.toBdd(mgr));
    result.cubes = mgr.isop(pre, pre);
    // satCount ranges over the inputs too, and each one doubles it.
    result.mintermCount = mgr.satCount(pre) >> static_cast<uint32_t>(system.numInputs());
    nodes = mgr.numNodes();
  } catch (const GovernorStop& stop) {
    // Mid-apply there is no usable partial BDD; the empty set is the sound
    // under-approximation this engine degrades to.
    result.cubes.clear();
    result.outcome = stop.reason;
  }
  result.metrics.setCounter("bdd.nodes", nodes);
  finishCover(result, options, n, CoverKind::kIsop, "bdd", timer);
  return result;
}

BddRelationalTransition::BddRelationalTransition(const TransitionSystem& system)
    : system_(system),
      mgr_(2 * system.numStateBits() + system.numInputs()) {
  const int n = system.numStateBits();
  std::vector<BddRef> nodeBdd = buildNodeBdds(mgr_, system, static_cast<Var>(2 * n));
  relation_ = BddManager::kTrue;
  for (int i = 0; i < n; ++i) {
    relation_ = mgr_.bddAnd(relation_, mgr_.bddXnor(mgr_.variable(static_cast<Var>(n + i)),
                                                    nodeBdd[system.nextStateRoot(i)]));
  }
}

StateSet BddRelationalTransition::toStateSet(BddRef stateBdd) {
  return {system_.numStateBits(), mgr_.isop(stateBdd, stateBdd)};
}

BigUint BddRelationalTransition::countStates(BddRef stateBdd) {
  // satCount ranges over every manager variable, and the ones outside a state
  // BDD's support each double it.
  BigUint count = mgr_.satCount(stateBdd);
  count >>= static_cast<uint32_t>(mgr_.numVars() - system_.numStateBits());
  return count;
}

}  // namespace presat
