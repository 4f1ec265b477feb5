// View of a sequential netlist as a finite transition system.
//
// State bit i is the i-th DFF output (present state); its next-state function
// is the DFF's data cone over present-state and primary-input nodes. All
// preimage engines speak the *state index space*: literal variable i in a
// state cube refers to state bit i.
#pragma once

#include <vector>

#include "base/types.hpp"
#include "circuit/netlist.hpp"

namespace presat {

class TransitionSystem {
 public:
  explicit TransitionSystem(const Netlist& netlist);

  const Netlist& netlist() const { return *netlist_; }
  int numStateBits() const { return static_cast<int>(stateNodes_.size()); }
  int numInputs() const { return static_cast<int>(inputNodes_.size()); }

  // Present-state source node of bit i.
  NodeId stateNode(int i) const { return stateNodes_[static_cast<size_t>(i)]; }
  // Root of the next-state function of bit i (the DFF's data pin).
  NodeId nextStateRoot(int i) const { return nextRoots_[static_cast<size_t>(i)]; }
  NodeId inputNode(int i) const { return inputNodes_[static_cast<size_t>(i)]; }

  const std::vector<NodeId>& stateNodes() const { return stateNodes_; }
  const std::vector<NodeId>& nextStateRoots() const { return nextRoots_; }

  // Simulates one transition: given present state and input bit vectors
  // (indexed by state/input position), returns the next state.
  std::vector<bool> step(const std::vector<bool>& state, const std::vector<bool>& inputs) const;

 private:
  const Netlist* netlist_;
  std::vector<NodeId> stateNodes_;
  std::vector<NodeId> inputNodes_;
  std::vector<NodeId> nextRoots_;
};

}  // namespace presat
