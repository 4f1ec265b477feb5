#include "circuit/from_cnf.hpp"

#include <string>

#include "base/log.hpp"

namespace presat {

CnfCircuit cnfToCircuit(const Cnf& cnf) {
  CnfCircuit result;
  Netlist& nl = result.netlist;
  result.varNode.reserve(static_cast<size_t>(cnf.numVars()));
  for (Var v = 0; v < cnf.numVars(); ++v) {
    result.varNode.push_back(nl.addInput(numbered("x", v)));
  }
  std::vector<NodeId> negated(static_cast<size_t>(cnf.numVars()), kNoNode);
  auto litNode = [&](Lit l) -> NodeId {
    NodeId base = result.varNode[static_cast<size_t>(l.var())];
    if (!l.sign()) return base;
    NodeId& inv = negated[static_cast<size_t>(l.var())];
    if (inv == kNoNode) inv = nl.mkNot(base, "nx" + std::to_string(l.var()));
    return inv;
  };

  std::vector<NodeId> clauseNodes;
  clauseNodes.reserve(cnf.numClauses());
  for (size_t i = 0; i < cnf.numClauses(); ++i) {
    const Clause& c = cnf.clause(i);
    if (c.empty()) {
      clauseNodes.push_back(nl.addConst(false, "false" + std::to_string(i)));
      continue;
    }
    std::vector<NodeId> lits;
    lits.reserve(c.size());
    for (Lit l : c) lits.push_back(litNode(l));
    clauseNodes.push_back(lits.size() == 1 ? lits[0]
                                           : nl.addGate(GateType::kOr, std::move(lits),
                                                        numbered("c", i)));
  }
  if (clauseNodes.empty()) {
    result.root = nl.addConst(true, "true");
  } else if (clauseNodes.size() == 1) {
    result.root = clauseNodes[0];
  } else {
    result.root = nl.addGate(GateType::kAnd, std::move(clauseNodes), "root");
  }
  nl.markOutput(result.root, "sat");
  return result;
}

}  // namespace presat
