#include "check/audit_netlist.hpp"

#include <algorithm>
#include <string>
#include <vector>

#include "circuit/netlist.hpp"

namespace presat {

namespace {

std::string describe(const Netlist& nl, NodeId id) {
  std::string s = "node " + std::to_string(id) + " (" + gateTypeName(nl.type(id));
  if (!nl.name(id).empty()) s += " '" + nl.name(id) + "'";
  return s + ")";
}

bool arityOk(GateType type, size_t n) {
  switch (type) {
    case GateType::kConst0:
    case GateType::kConst1:
    case GateType::kInput:
      return n == 0;
    case GateType::kDff:
      return n <= 1;  // == 1 is enforced separately as netlist.dff.data
    case GateType::kBuf:
    case GateType::kNot:
      return n == 1;
    case GateType::kMux:
      return n == 3;
    default:
      return n >= 1;
  }
}

}  // namespace

AuditResult auditNetlist(const Netlist& nl) {
  AuditResult r;
  const NodeId n = static_cast<NodeId>(nl.numNodes());

  // -- fanin ranges, arity, DFF data pins ----------------------------------
  bool rangesOk = true;
  for (NodeId id = 0; id < n; ++id) {
    const GateNode& g = nl.node(id);
    for (NodeId f : g.fanins) {
      if (f >= n) {
        r.fail("netlist.fanin.range",
               describe(nl, id) + " has fanin id " + std::to_string(f) + " out of range");
        rangesOk = false;
      }
    }
    if (!arityOk(g.type, g.fanins.size())) {
      r.fail("netlist.arity", describe(nl, id) + " has " + std::to_string(g.fanins.size()) +
                                  " fanins, which is invalid for its type");
    }
    if (g.type == GateType::kDff && g.fanins.size() != 1) {
      r.fail("netlist.dff.data", describe(nl, id) + " has no connected data pin");
    }
  }
  if (!rangesOk) return r;  // the traversals below would index out of bounds

  // -- combinational acyclicity (Kahn's algorithm, non-aborting) -----------
  {
    std::vector<int> pending(n, 0);
    std::vector<std::vector<NodeId>> outs(n);
    std::vector<NodeId> queue;
    for (NodeId id = 0; id < n; ++id) {
      if (!isCombinational(nl.type(id))) {
        queue.push_back(id);
        continue;
      }
      pending[id] = static_cast<int>(nl.fanins(id).size());
      for (NodeId f : nl.fanins(id)) outs[f].push_back(id);
    }
    size_t settled = queue.size();
    for (size_t head = 0; head < queue.size(); ++head) {
      for (NodeId out : outs[queue[head]]) {
        if (--pending[out] == 0) {
          queue.push_back(out);
          ++settled;
        }
      }
    }
    if (settled != n) {
      for (NodeId id = 0; id < n; ++id) {
        if (isCombinational(nl.type(id)) && pending[id] > 0) {
          r.fail("netlist.acyclic", describe(nl, id) + " is on a combinational cycle");
        }
      }
    }
  }

  // -- name index -----------------------------------------------------------
  for (const auto& [name, id] : nl.byName_) {
    if (id >= n) {
      r.fail("netlist.name.map", "name '" + name + "' maps to out-of-range node " +
                                     std::to_string(id));
    } else if (nl.name(id) != name) {
      r.fail("netlist.name.map", "name '" + name + "' maps to " + describe(nl, id) +
                                     " which carries a different name");
    }
  }
  for (NodeId id = 0; id < n; ++id) {
    if (!nl.name(id).empty() && nl.findByName(nl.name(id)) != id) {
      r.fail("netlist.name.map", describe(nl, id) + " is not reachable through the name index");
    }
  }

  return r;
}

void corruptNetlistForTest(Netlist& nl, NetlistCorruption kind) {
  nl.dropViews();
  switch (kind) {
    case NetlistCorruption::kSelfLoop: {
      NodeId id = 0;
      while (id < nl.numNodes() && !isCombinational(nl.type(id))) ++id;
      PRESAT_CHECK(id < nl.numNodes()) << "corruptNetlistForTest: no combinational gate";
      nl.nodes_[id].fanins[0] = id;
      return;
    }
    case NetlistCorruption::kArity: {
      // A second fanin violates the fixed arity of a NOT gate, or the
      // single-data-pin arity of a DFF (whose fanin edges are sequential,
      // so no other invariant is disturbed).
      NodeId id = 0;
      while (id < nl.numNodes() && nl.type(id) != GateType::kNot) ++id;
      if (id == nl.numNodes()) {
        auto dff = std::find_if(nl.dffs().begin(), nl.dffs().end(),
                                [&nl](NodeId d) { return !nl.nodes_[d].fanins.empty(); });
        PRESAT_CHECK(dff != nl.dffs().end())
            << "corruptNetlistForTest: no NOT gate or connected DFF";
        id = *dff;
      }
      nl.nodes_[id].fanins.push_back(nl.nodes_[id].fanins[0]);
      return;
    }
    case NetlistCorruption::kDffData: {
      PRESAT_CHECK(!nl.dffs().empty()) << "corruptNetlistForTest: no DFF";
      nl.nodes_[nl.dffs().front()].fanins.clear();
      return;
    }
    case NetlistCorruption::kNameMapSkew: {
      for (auto& [name, id] : nl.byName_) {
        id = (id + 1) % static_cast<NodeId>(nl.numNodes());
        return;
      }
      PRESAT_CHECK(false) << "corruptNetlistForTest: empty name index";
    }
  }
  PRESAT_CHECK(false) << "corruptNetlistForTest: unknown corruption kind";
}

}  // namespace presat
