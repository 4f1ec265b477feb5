// Deep structural validation of a Netlist.
//
// Unlike Netlist::validate() (which aborts on the first violation), the audit
// reports every violated invariant as a named diagnostic:
//
//   netlist.fanin.range   every fanin id indexes an existing node
//   netlist.arity         per-type fanin arity (NOT/BUF 1, MUX 3, n-ary >= 1,
//                         sources 0)
//   netlist.dff.data      every DFF has exactly one connected data pin
//   netlist.acyclic       the combinational core is a DAG (DFF data edges are
//                         sequential and exempt)
//   netlist.name.map      the name index maps each name to the node carrying
//                         it, bijectively
#pragma once

#include "check/audit.hpp"

namespace presat {

class Netlist;

AuditResult auditNetlist(const Netlist& netlist);

// Test-only corruption hooks (see SolverCorruption for the pattern).
enum class NetlistCorruption : int {
  kSelfLoop,        // point a gate fanin at the gate itself
  kArity,           // give a NOT gate a second fanin
  kDffData,         // disconnect a DFF's data pin
  kNameMapSkew,     // name index entry pointing at the wrong node
};
void corruptNetlistForTest(Netlist& netlist, NetlistCorruption kind);

}  // namespace presat
