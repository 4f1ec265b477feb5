#include "circuit/simulator.hpp"

#include "base/log.hpp"

namespace presat {

Simulator::Simulator(const Netlist& netlist)
    : netlist_(netlist), values_(netlist.numNodes(), 0) {}

void Simulator::setSource(NodeId id, uint64_t word) {
  PRESAT_DCHECK(!isCombinational(netlist_.type(id)));
  values_[id] = word;
}

void Simulator::run() {
  for (NodeId id : netlist_.topologicalOrder()) {
    const GateNode& g = netlist_.node(id);
    switch (g.type) {
      case GateType::kConst0:
        values_[id] = 0;
        break;
      case GateType::kConst1:
        values_[id] = ~0ull;
        break;
      case GateType::kInput:
      case GateType::kDff:
        break;  // source values set by the caller
      case GateType::kBuf:
        values_[id] = values_[g.fanins[0]];
        break;
      case GateType::kNot:
        values_[id] = ~values_[g.fanins[0]];
        break;
      case GateType::kAnd:
      case GateType::kNand: {
        uint64_t w = ~0ull;
        for (NodeId f : g.fanins) w &= values_[f];
        values_[id] = g.type == GateType::kNand ? ~w : w;
        break;
      }
      case GateType::kOr:
      case GateType::kNor: {
        uint64_t w = 0;
        for (NodeId f : g.fanins) w |= values_[f];
        values_[id] = g.type == GateType::kNor ? ~w : w;
        break;
      }
      case GateType::kXor:
      case GateType::kXnor: {
        uint64_t w = 0;
        for (NodeId f : g.fanins) w ^= values_[f];
        values_[id] = g.type == GateType::kXnor ? ~w : w;
        break;
      }
      case GateType::kMux: {
        uint64_t s = values_[g.fanins[0]];
        values_[id] = (s & values_[g.fanins[2]]) | (~s & values_[g.fanins[1]]);
        break;
      }
    }
  }
}

std::vector<bool> Simulator::evaluateOnce(const Netlist& netlist,
                                          const std::vector<bool>& sourceValues) {
  Simulator sim(netlist);
  for (NodeId id = 0; id < netlist.numNodes(); ++id) {
    if (!isCombinational(netlist.type(id))) {
      sim.setSource(id, sourceValues[id] ? ~0ull : 0ull);
    }
  }
  sim.run();
  std::vector<bool> out(netlist.numNodes());
  for (NodeId id = 0; id < netlist.numNodes(); ++id) out[id] = (sim.value(id) & 1) != 0;
  return out;
}

}  // namespace presat
