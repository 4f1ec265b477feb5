// 64-way bit-parallel logic simulator.
//
// Each node carries a 64-bit word: bit k is the node's value under pattern k.
// Used by tests (differential checks against the CNF encoding and the BDD
// package) and by TransitionSystem::step.
#pragma once

#include <cstdint>
#include <vector>

#include "circuit/netlist.hpp"

namespace presat {

class Simulator {
 public:
  explicit Simulator(const Netlist& netlist);

  // Sets the pattern word of a source node (input, DFF output, or constant —
  // constants are overwritten by run()).
  void setSource(NodeId id, uint64_t word);
  // Evaluates all combinational gates in topological order.
  void run();
  uint64_t value(NodeId id) const { return values_[id]; }

  // Single-pattern convenience: evaluates the whole netlist under one
  // assignment of sources (indexed by node id; non-source entries ignored).
  static std::vector<bool> evaluateOnce(const Netlist& netlist,
                                        const std::vector<bool>& sourceValues);

 private:
  const Netlist& netlist_;
  std::vector<uint64_t> values_;
};

}  // namespace presat
