#include "circuit/unroll.hpp"

#include <string>

#include "base/log.hpp"
#include "preimage/transition_system.hpp"

namespace presat {

UnrolledCircuit unroll(const TransitionSystem& system, int frames) {
  PRESAT_CHECK(frames >= 0);
  const Netlist& nl = system.netlist();
  UnrolledCircuit out;

  // Frame-0 state = fresh inputs.
  for (int i = 0; i < system.numStateBits(); ++i) {
    out.initialState.push_back(out.netlist.addInput("s" + std::to_string(i) + "@0"));
  }
  out.stateAt.push_back(out.initialState);

  const std::vector<NodeId>& order = nl.topologicalOrder();
  for (int t = 0; t < frames; ++t) {
    std::string suffix = "@" + std::to_string(t);
    // Map from original node id to this frame's copy.
    std::vector<NodeId> copy(nl.numNodes(), kNoNode);
    for (int i = 0; i < system.numStateBits(); ++i) {
      copy[system.stateNode(i)] = out.stateAt[static_cast<size_t>(t)][static_cast<size_t>(i)];
    }
    std::vector<NodeId> inputs;
    for (int j = 0; j < system.numInputs(); ++j) {
      NodeId in = out.netlist.addInput(nl.name(system.inputNode(j)) + suffix);
      copy[system.inputNode(j)] = in;
      inputs.push_back(in);
    }
    out.frameInputs.push_back(std::move(inputs));

    for (NodeId id : order) {
      const GateNode& g = nl.node(id);
      switch (g.type) {
        case GateType::kInput:
        case GateType::kDff:
          continue;  // mapped above
        case GateType::kConst0:
        case GateType::kConst1:
          copy[id] = out.netlist.addConst(g.type == GateType::kConst1,
                                          (g.name.empty() ? "c" + std::to_string(id) : g.name) +
                                              suffix);
          continue;
        default: {
          std::vector<NodeId> fanins;
          fanins.reserve(g.fanins.size());
          for (NodeId f : g.fanins) {
            PRESAT_DCHECK(copy[f] != kNoNode);
            fanins.push_back(copy[f]);
          }
          copy[id] = out.netlist.addGate(
              g.type, std::move(fanins),
              (g.name.empty() ? "n" + std::to_string(id) : g.name) + suffix);
        }
      }
    }
    std::vector<NodeId> nextState;
    for (int i = 0; i < system.numStateBits(); ++i) {
      nextState.push_back(copy[system.nextStateRoot(i)]);
    }
    out.stateAt.push_back(std::move(nextState));
  }
  for (NodeId s : out.stateAt.back()) out.netlist.markOutput(s);
  out.netlist.validate();
  return out;
}

}  // namespace presat
