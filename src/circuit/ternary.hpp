// Three-valued (0/1/X) gate evaluation and forward simulation.
//
// Forward ternary evaluation is the workhorse of model lifting (which inputs
// does this output value actually depend on?), of chrono's circuit-side cube
// widening, and of the justification machinery in the success-driven all-SAT
// engine.
#pragma once

#include <span>
#include <vector>

#include "base/types.hpp"
#include "circuit/netlist.hpp"

namespace presat {

// Evaluates one combinational gate over the three-valued entries of its
// fanins in `values` (indexed by NodeId). Controlling values win: an AND
// with any 0 input is 0 even if other inputs are X.
lbool evalGateTernary(const GateNode& gate, const std::vector<lbool>& values);

// Forward-simulates the nodes of `order` in place over `values` (indexed by
// NodeId). `order` must be topological — netlist.topologicalOrder(), or a
// fanin-closed cone filtered from it. Constants take their value, gates are
// computed from their fanins' entries, and inputs/DFF outputs keep whatever
// the caller stored (l_Undef = X). Gates whose value is not determined
// become X.
void ternarySimulate(const Netlist& netlist, std::span<const NodeId> order,
                     std::vector<lbool>& values);

}  // namespace presat
