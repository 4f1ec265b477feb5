// Gate-level netlist for combinational and sequential (DFF-based) circuits.
//
// This is the structural substrate for preimage computation: a sequential
// circuit is a combinational core whose sources are primary inputs and DFF
// outputs (present state) and whose DFF data pins define the next-state
// functions. The ISCAS89 `.bench` dialect maps onto this directly.
//
// Node identifiers are dense indices into the node table; the graph only
// grows (nodes are appended, DFF data pins connected once).
//
// The topological order and the fanout lists are cached derived views: each
// is built once per structure, on the first call to topologicalOrder() or
// fanouts() respectively, and then shared by every reader (simulators,
// encoder, all-SAT engines), also across threads. Every structural mutator
// (addInput/addConst/addGate/addDff, connectDffData) drops them, so the
// references those two calls return die on the next mutation, as node()
// references do. A copy of a netlist builds its own views.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "base/types.hpp"

namespace presat {

class AuditResult;
enum class NetlistCorruption : int;

using NodeId = uint32_t;
constexpr NodeId kNoNode = static_cast<NodeId>(-1);

enum class GateType : uint8_t {
  kConst0,
  kConst1,
  kInput,  // primary input
  kDff,    // sequential element; node value = present-state output Q,
           // fanin[0] = next-state data D
  kBuf,
  kNot,
  kAnd,
  kNand,
  kOr,
  kNor,
  kXor,   // n-ary parity
  kXnor,  // n-ary inverted parity
  kMux,   // fanin[0] ? fanin[2] : fanin[1]  (select, data0, data1)
};

const char* gateTypeName(GateType t);
// True for gates whose value is a function of fanins (everything but
// inputs/constants/DFF outputs).
bool isCombinational(GateType t);

struct GateNode {
  GateType type;
  std::vector<NodeId> fanins;
  std::string name;
};

// Fanout lists of every node in one flat array: the fanouts of node n are
// edges[offsets[n] .. offsets[n + 1]), in increasing node id.
struct FanoutLists {
  std::vector<uint32_t> offsets;
  std::vector<NodeId> edges;

  std::span<const NodeId> operator[](NodeId id) const {
    return {edges.data() + offsets[id], edges.data() + offsets[id + 1]};
  }
};

class Netlist {
 public:
  Netlist() = default;

  // --- construction ----------------------------------------------------------
  NodeId addInput(const std::string& name);
  NodeId addConst(bool value, const std::string& name = "");
  // fanin count is validated against the gate type.
  NodeId addGate(GateType type, std::vector<NodeId> fanins, const std::string& name = "");
  // A DFF whose data input can be connected later via connectDffData (the
  // .bench parser needs forward references).
  NodeId addDff(const std::string& name, NodeId data = kNoNode);
  void connectDffData(NodeId dff, NodeId data);
  void markOutput(NodeId node, const std::string& name = "");

  // Convenience constructors for common gates.
  NodeId mkNot(NodeId a, const std::string& name = "") { return addGate(GateType::kNot, {a}, name); }
  NodeId mkAnd(NodeId a, NodeId b, const std::string& name = "") {
    return addGate(GateType::kAnd, {a, b}, name);
  }
  NodeId mkOr(NodeId a, NodeId b, const std::string& name = "") {
    return addGate(GateType::kOr, {a, b}, name);
  }
  NodeId mkXor(NodeId a, NodeId b, const std::string& name = "") {
    return addGate(GateType::kXor, {a, b}, name);
  }
  NodeId mkMux(NodeId sel, NodeId ifFalse, NodeId ifTrue, const std::string& name = "") {
    return addGate(GateType::kMux, {sel, ifFalse, ifTrue}, name);
  }

  // --- inspection --------------------------------------------------------------
  size_t numNodes() const { return nodes_.size(); }
  const GateNode& node(NodeId id) const { return nodes_[id]; }
  GateType type(NodeId id) const { return nodes_[id].type; }
  const std::vector<NodeId>& fanins(NodeId id) const { return nodes_[id].fanins; }
  const std::string& name(NodeId id) const { return nodes_[id].name; }

  const std::vector<NodeId>& inputs() const { return inputs_; }
  const std::vector<NodeId>& dffs() const { return dffs_; }
  const std::vector<NodeId>& outputs() const { return outputs_; }
  NodeId dffData(NodeId dff) const;

  size_t numGates() const;  // combinational gates only

  // Node lookup by name; kNoNode if absent.
  NodeId findByName(const std::string& name) const;

  // --- analyses -----------------------------------------------------------------
  // Topological order of the combinational core (sources first, by Kahn's
  // algorithm). DFF nodes appear as sources; their data fanins are sinks of
  // the order. Cached; see the header comment.
  const std::vector<NodeId>& topologicalOrder() const {
    return order_.get([this] { return buildTopologicalOrder(); });
  }
  // Logic level per node (sources are 0).
  std::vector<int> levels() const;
  // Fanout lists per node. Cached likewise.
  const FanoutLists& fanouts() const {
    return fanouts_.get([this] { return buildFanouts(); });
  }
  // Transitive fanin cone of `roots` (includes roots and sources).
  std::vector<NodeId> coneOf(const std::vector<NodeId>& roots) const;

  // Validates structural invariants (acyclicity, connected DFF data pins,
  // fanin arities). PRESAT_CHECK-fails with a diagnostic on violation.
  void validate() const;

 private:
  // Deep structural validation (src/check/audit_netlist.cpp) also inspects
  // the name index; the corruption hook needs write access.
  friend AuditResult auditNetlist(const Netlist& netlist);
  friend void corruptNetlistForTest(Netlist& netlist, NetlistCorruption kind);

  // One derived view, built on first read and immutable until the next
  // mutation. The slot owns it: a copy starts empty and builds its own, and
  // a move hands it over.
  template <class T>
  class ViewSlot {
   public:
    ViewSlot() = default;
    ViewSlot(const ViewSlot&) {}
    ViewSlot(ViewSlot&& other) noexcept : ptr_(other.ptr_.exchange(nullptr)) {}
    ViewSlot& operator=(const ViewSlot&) {
      reset();
      return *this;
    }
    ViewSlot& operator=(ViewSlot&& other) noexcept {
      if (this != &other) {
        reset();
        ptr_.store(other.ptr_.exchange(nullptr));
      }
      return *this;
    }
    ~ViewSlot() { reset(); }

    // Racing first readers may each build a copy; exactly one is installed,
    // and every reader returns that one.
    template <class Build>
    const T& get(Build build) const {
      if (const T* current = ptr_.load(std::memory_order_acquire)) return *current;
      auto fresh = std::make_unique<const T>(build());
      const T* installed = nullptr;
      if (ptr_.compare_exchange_strong(installed, fresh.get(), std::memory_order_acq_rel,
                                       std::memory_order_acquire)) {
        return *fresh.release();
      }
      return *installed;
    }
    void reset() { std::unique_ptr<const T> dropped(ptr_.exchange(nullptr)); }

   private:
    // presat-analyze: lockfree(publish-once: a reader that finds it empty
    // builds the view and compare-exchanges it in (release), a losing racer
    // frees its copy and adopts the installed one, and every reader loads it
    // with acquire. Only non-const mutators and the destructor reset it, and
    // they never run beside readers)
    mutable std::atomic<const T*> ptr_{nullptr};
  };

  std::vector<NodeId> buildTopologicalOrder() const;
  FanoutLists buildFanouts() const;
  void dropViews() {
    order_.reset();
    fanouts_.reset();
  }
  NodeId addNode(GateNode node);

  std::vector<GateNode> nodes_;
  std::vector<NodeId> inputs_;
  std::vector<NodeId> dffs_;
  std::vector<NodeId> outputs_;
  std::unordered_map<std::string, NodeId> byName_;
  ViewSlot<std::vector<NodeId>> order_;
  ViewSlot<FanoutLists> fanouts_;
};

// Order-sensitive 64-bit structural fingerprint of a netlist: gate types,
// fanin wiring, input/DFF/output order — everything that determines circuit
// *behavior* under the dense-id node numbering — and nothing else (node names
// are ignored, so a renamed copy of a circuit hashes equal). This is the
// cross-query cache key component of the serve layer: two requests whose
// circuits hash equal (plus equal targets/method/flags) may share a cached
// preimage cover, so the hash must change whenever any function the engines
// see could change.
uint64_t netlistStructuralHash(const Netlist& netlist);

}  // namespace presat
