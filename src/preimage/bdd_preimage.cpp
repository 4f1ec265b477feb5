#include "preimage/bdd_preimage.hpp"

#include "base/check.hpp"
#include "circuit/netlist.hpp"

namespace presat {

namespace {

// Node -> BDD over state bit i at variable i and input j at `inputBase` + j,
// built in topological order. Both transition builders share it, so they
// issue the same manager operations in the same order.
std::vector<BddRef> buildNodeBdds(BddManager& mgr, const TransitionSystem& system,
                                  Var inputBase) {
  const Netlist& nl = system.netlist();
  std::vector<BddRef> nodeBdd(nl.numNodes(), BddManager::kFalse);
  std::vector<bool> isSource(nl.numNodes(), false);
  for (int i = 0; i < system.numStateBits(); ++i) {
    nodeBdd[system.stateNode(i)] = mgr.variable(static_cast<Var>(i));
    isSource[system.stateNode(i)] = true;
  }
  for (int j = 0; j < system.numInputs(); ++j) {
    nodeBdd[system.inputNode(j)] = mgr.variable(inputBase + j);
    isSource[system.inputNode(j)] = true;
  }
  for (NodeId id : nl.topologicalOrder()) {
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

// Cubes of a BDD whose support must lie in the state variables 0..n-1.
StateSet stateSetOf(BddManager& mgr, BddRef stateBdd, int numStateBits) {
  StateSet set;
  set.numStateBits = numStateBits;
  set.cubes = mgr.enumerateCubes(stateBdd);
  for (const LitVec& cube : set.cubes) {
    for (Lit l : cube) {
      PRESAT_CHECK(l.var() < numStateBits) << "state BDD has a non-state variable in its support";
    }
  }
  return set;
}

// Model count of a state BDD: satCount ranges over every manager variable,
// and the ones outside a state BDD's support each double it.
BigUint countStatesOf(BddManager& mgr, BddRef stateBdd, int numStateBits) {
  BigUint count = mgr.satCount(stateBdd);
  count >>= static_cast<uint32_t>(mgr.numVars() - numStateBits);
  return count;
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

StateSet BddTransition::preimage(const StateSet& target) {
  PRESAT_CHECK(target.numStateBits == system_.numStateBits());
  return toStateSet(preimage(target.toBdd(mgr_)));
}

StateSet BddTransition::toStateSet(BddRef stateBdd) {
  return stateSetOf(mgr_, stateBdd, system_.numStateBits());
}

BigUint BddTransition::countStates(BddRef stateBdd) {
  return countStatesOf(mgr_, stateBdd, system_.numStateBits());
}

BddRelationalTransition::BddRelationalTransition(const TransitionSystem& system,
                                                 Governor* governor)
    : system_(system),
      mgr_(2 * system.numStateBits() + system.numInputs()) {
  mgr_.setGovernor(governor);
  const int n = system.numStateBits();
  const Var inputBase = static_cast<Var>(2 * n);
  std::vector<BddRef> nodeBdd = buildNodeBdds(mgr_, system, inputBase);
  for (int j = 0; j < system.numInputs(); ++j) quantified_.push_back(inputBase + j);
  relation_ = BddManager::kTrue;
  for (int i = 0; i < n; ++i) {
    Var prime = static_cast<Var>(n + i);
    quantified_.push_back(prime);
    relation_ = mgr_.bddAnd(
        relation_, mgr_.bddXnor(mgr_.variable(prime), nodeBdd[system.nextStateRoot(i)]));
  }
  shiftToPrime_.assign(static_cast<size_t>(mgr_.numVars()), BddManager::kNoSubstitution);
  for (int i = 0; i < n; ++i) {
    shiftToPrime_[static_cast<size_t>(i)] = mgr_.variable(static_cast<Var>(n + i));
  }
}

BddRef BddRelationalTransition::preimage(BddRef target) {
  BddRef primed = mgr_.composeVector(target, shiftToPrime_);
  return mgr_.andExists(relation_, primed, quantified_);
}

StateSet BddRelationalTransition::preimage(const StateSet& target) {
  PRESAT_CHECK(target.numStateBits == system_.numStateBits());
  return toStateSet(preimage(target.toBdd(mgr_)));
}

StateSet BddRelationalTransition::toStateSet(BddRef stateBdd) {
  return stateSetOf(mgr_, stateBdd, system_.numStateBits());
}

BigUint BddRelationalTransition::countStates(BddRef stateBdd) {
  return countStatesOf(mgr_, stateBdd, system_.numStateBits());
}

}  // namespace presat
