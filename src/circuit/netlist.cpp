#include "circuit/netlist.hpp"

#include <algorithm>

#include "base/log.hpp"

namespace presat {

const char* gateTypeName(GateType t) {
  switch (t) {
    case GateType::kConst0: return "CONST0";
    case GateType::kConst1: return "CONST1";
    case GateType::kInput: return "INPUT";
    case GateType::kDff: return "DFF";
    case GateType::kBuf: return "BUF";
    case GateType::kNot: return "NOT";
    case GateType::kAnd: return "AND";
    case GateType::kNand: return "NAND";
    case GateType::kOr: return "OR";
    case GateType::kNor: return "NOR";
    case GateType::kXor: return "XOR";
    case GateType::kXnor: return "XNOR";
    case GateType::kMux: return "MUX";
  }
  return "?";
}

bool isCombinational(GateType t) {
  switch (t) {
    case GateType::kConst0:
    case GateType::kConst1:
    case GateType::kInput:
    case GateType::kDff:
      return false;
    default:
      return true;
  }
}

namespace {

void checkArity(GateType type, size_t n) {
  switch (type) {
    case GateType::kBuf:
    case GateType::kNot:
      PRESAT_CHECK(n == 1) << gateTypeName(type) << " needs 1 fanin, got " << n;
      break;
    case GateType::kMux:
      PRESAT_CHECK(n == 3) << "MUX needs 3 fanins, got " << n;
      break;
    case GateType::kAnd:
    case GateType::kNand:
    case GateType::kOr:
    case GateType::kNor:
    case GateType::kXor:
    case GateType::kXnor:
      PRESAT_CHECK(n >= 1) << gateTypeName(type) << " needs at least 1 fanin";
      break;
    default:
      PRESAT_CHECK(false) << "addGate called with non-combinational type "
                          << gateTypeName(type);
  }
}

}  // namespace

NodeId Netlist::addNode(GateNode node) {
  dropViews();
  NodeId id = static_cast<NodeId>(nodes_.size());
  if (!node.name.empty()) {
    auto [it, inserted] = byName_.emplace(node.name, id);
    PRESAT_CHECK(inserted) << "duplicate node name: " << node.name;
  }
  nodes_.push_back(std::move(node));
  return id;
}

NodeId Netlist::addInput(const std::string& name) {
  NodeId id = addNode({GateType::kInput, {}, name});
  inputs_.push_back(id);
  return id;
}

NodeId Netlist::addConst(bool value, const std::string& name) {
  return addNode({value ? GateType::kConst1 : GateType::kConst0, {}, name});
}

NodeId Netlist::addGate(GateType type, std::vector<NodeId> fanins, const std::string& name) {
  checkArity(type, fanins.size());
  for (NodeId f : fanins) {
    PRESAT_CHECK(f < nodes_.size()) << "fanin id out of range";
  }
  return addNode({type, std::move(fanins), name});
}

NodeId Netlist::addDff(const std::string& name, NodeId data) {
  NodeId id = addNode({GateType::kDff, {}, name});
  dffs_.push_back(id);
  if (data != kNoNode) connectDffData(id, data);
  return id;
}

void Netlist::connectDffData(NodeId dff, NodeId data) {
  PRESAT_CHECK(dff < nodes_.size() && nodes_[dff].type == GateType::kDff);
  PRESAT_CHECK(data < nodes_.size());
  PRESAT_CHECK(nodes_[dff].fanins.empty()) << "DFF data already connected: " << nodes_[dff].name;
  dropViews();
  nodes_[dff].fanins.push_back(data);
}

void Netlist::markOutput(NodeId node, const std::string& name) {
  PRESAT_CHECK(node < nodes_.size());
  (void)name;
  outputs_.push_back(node);
}

NodeId Netlist::dffData(NodeId dff) const {
  PRESAT_CHECK(nodes_[dff].type == GateType::kDff && !nodes_[dff].fanins.empty())
      << "DFF has no data pin connected";
  return nodes_[dff].fanins[0];
}

size_t Netlist::numGates() const {
  size_t n = 0;
  for (const GateNode& g : nodes_) {
    if (isCombinational(g.type)) ++n;
  }
  return n;
}

NodeId Netlist::findByName(const std::string& name) const {
  auto it = byName_.find(name);
  return it == byName_.end() ? kNoNode : it->second;
}

std::vector<NodeId> Netlist::buildTopologicalOrder() const {
  // Kahn's algorithm over combinational edges only (DFF data edges are
  // sequential and do not constrain the order of the DFF output node).
  const FanoutLists outs = buildFanouts();
  std::vector<int> pending(nodes_.size(), 0);
  std::vector<NodeId> order;
  order.reserve(nodes_.size());
  for (NodeId id = 0; id < nodes_.size(); ++id) {
    if (isCombinational(nodes_[id].type)) {
      pending[id] = static_cast<int>(nodes_[id].fanins.size());
    } else {
      order.push_back(id);
    }
  }
  for (size_t head = 0; head < order.size(); ++head) {
    for (NodeId out : outs[order[head]]) {
      if (isCombinational(nodes_[out].type) && --pending[out] == 0) order.push_back(out);
    }
  }
  PRESAT_CHECK(order.size() == nodes_.size()) << "combinational cycle detected";
  return order;
}

FanoutLists Netlist::buildFanouts() const {
  FanoutLists outs;
  outs.offsets.assign(nodes_.size() + 1, 0);
  for (const GateNode& g : nodes_) {
    for (NodeId f : g.fanins) ++outs.offsets[f + 1];
  }
  for (size_t i = 0; i < nodes_.size(); ++i) outs.offsets[i + 1] += outs.offsets[i];
  outs.edges.resize(outs.offsets.back());
  std::vector<uint32_t> fill(outs.offsets.begin(), outs.offsets.end() - 1);
  for (NodeId id = 0; id < nodes_.size(); ++id) {
    for (NodeId f : nodes_[id].fanins) outs.edges[fill[f]++] = id;
  }
  return outs;
}

std::vector<int> Netlist::levels() const {
  std::vector<int> level(nodes_.size(), 0);
  for (NodeId id : topologicalOrder()) {
    if (!isCombinational(nodes_[id].type)) continue;
    int l = 0;
    for (NodeId f : nodes_[id].fanins) l = std::max(l, level[f] + 1);
    level[id] = l;
  }
  return level;
}

std::vector<NodeId> Netlist::coneOf(const std::vector<NodeId>& roots) const {
  std::vector<bool> visited(nodes_.size(), false);
  std::vector<NodeId> stack = roots;
  std::vector<NodeId> cone;
  while (!stack.empty()) {
    NodeId id = stack.back();
    stack.pop_back();
    if (visited[id]) continue;
    visited[id] = true;
    cone.push_back(id);
    if (isCombinational(nodes_[id].type)) {
      for (NodeId f : nodes_[id].fanins) stack.push_back(f);
    }
  }
  std::sort(cone.begin(), cone.end());
  return cone;
}

namespace {

// splitmix64 finalizer: cheap, well-distributed mixing for the running hash.
inline uint64_t mix64(uint64_t h, uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  uint64_t z = h;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

}  // namespace

uint64_t netlistStructuralHash(const Netlist& netlist) {
  uint64_t h = 0x70726573617476ull;  // arbitrary non-zero seed
  h = mix64(h, netlist.numNodes());
  for (NodeId id = 0; id < netlist.numNodes(); ++id) {
    const GateNode& g = netlist.node(id);
    h = mix64(h, static_cast<uint64_t>(g.type));
    h = mix64(h, g.fanins.size());
    for (NodeId f : g.fanins) h = mix64(h, f);
  }
  // Source/sink ORDER matters: state bit i and output i are positional in
  // the transition-system view, so permuting them changes query semantics.
  for (NodeId id : netlist.inputs()) h = mix64(h, id);
  h = mix64(h, 0x1d);
  for (NodeId id : netlist.dffs()) h = mix64(h, id);
  h = mix64(h, 0x2d);
  for (NodeId id : netlist.outputs()) h = mix64(h, id);
  return h == 0 ? 1 : h;  // reserve 0 as "no hash"
}

void Netlist::validate() const {
  for (NodeId id = 0; id < nodes_.size(); ++id) {
    const GateNode& g = nodes_[id];
    if (g.type == GateType::kDff) {
      PRESAT_CHECK(g.fanins.size() == 1) << "DFF " << g.name << " has no data pin";
    }
    for (NodeId f : g.fanins) PRESAT_CHECK(f < nodes_.size());
  }
  topologicalOrder();  // checks acyclicity
}

}  // namespace presat
