#include "circuit/ternary.hpp"

#include "base/log.hpp"

namespace presat {

lbool evalGateTernary(const GateNode& gate, const std::vector<lbool>& values) {
  const std::vector<NodeId>& ins = gate.fanins;
  switch (gate.type) {
    case GateType::kConst0:
      return l_False;
    case GateType::kConst1:
      return l_True;
    case GateType::kInput:
    case GateType::kDff:
      PRESAT_CHECK(false) << "evalGateTernary called on a source node";
      return l_Undef;
    case GateType::kBuf:
      return values[ins[0]];
    case GateType::kNot:
      return values[ins[0]] ^ true;
    case GateType::kAnd:
    case GateType::kNand: {
      bool anyUndef = false;
      bool anyFalse = false;
      for (NodeId f : ins) {
        lbool v = values[f];
        if (v.isFalse()) anyFalse = true;
        if (v.isUndef()) anyUndef = true;
      }
      lbool r = anyFalse ? l_False : (anyUndef ? l_Undef : l_True);
      return gate.type == GateType::kNand ? (r ^ true) : r;
    }
    case GateType::kOr:
    case GateType::kNor: {
      bool anyUndef = false;
      bool anyTrue = false;
      for (NodeId f : ins) {
        lbool v = values[f];
        if (v.isTrue()) anyTrue = true;
        if (v.isUndef()) anyUndef = true;
      }
      lbool r = anyTrue ? l_True : (anyUndef ? l_Undef : l_False);
      return gate.type == GateType::kNor ? (r ^ true) : r;
    }
    case GateType::kXor:
    case GateType::kXnor: {
      bool parity = false;
      for (NodeId f : ins) {
        lbool v = values[f];
        if (v.isUndef()) return l_Undef;
        parity ^= v.isTrue();
      }
      lbool r = lbool(parity);
      return gate.type == GateType::kXnor ? (r ^ true) : r;
    }
    case GateType::kMux: {
      lbool s = values[ins[0]];
      lbool a = values[ins[1]];  // selected when s = 0
      lbool b = values[ins[2]];  // selected when s = 1
      if (s.isFalse()) return a;
      if (s.isTrue()) return b;
      // Select unknown: output known only if both data inputs agree.
      if (!a.isUndef() && a == b) return a;
      return l_Undef;
    }
  }
  return l_Undef;
}

void ternarySimulate(const Netlist& netlist, std::span<const NodeId> order,
                     std::vector<lbool>& values) {
  for (NodeId id : order) {
    const GateNode& g = netlist.node(id);
    if (g.type == GateType::kInput || g.type == GateType::kDff) continue;
    values[id] = evalGateTernary(g, values);
  }
}

}  // namespace presat
