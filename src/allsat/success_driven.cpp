#include "allsat/success_driven.hpp"

#include <bit>
#include <climits>
#include <string>
#include <unordered_map>

#include "allsat/compress.hpp"
#include "base/log.hpp"
#include "base/metrics.hpp"
#include "base/rng.hpp"
#include "base/timer.hpp"
#include "bdd/bdd.hpp"
#include "check/audit_solution_graph.hpp"
#include "circuit/ternary.hpp"
#include "govern/faults.hpp"
#include "govern/governor.hpp"
#include "parallel/parallel_allsat.hpp"

namespace presat {

namespace {

// 128-bit Zobrist signature of a subproblem. Two independent 64-bit lanes:
// the collision probability of two *distinct* subproblems among N memo
// entries is bounded by N^2 / 2^129 (birthday bound over a 128-bit space) —
// at the 2^20-entry default table bound that is < 2^-89, far below the
// hardware soft-error rate. AllSatOptions::memoCheckExact turns on a
// cross-check against the exact key for debug/test runs.
struct Sig128 {
  uint64_t lo = 0;
  uint64_t hi = 0;

  void flip(const Sig128& k) {
    lo ^= k.lo;
    hi ^= k.hi;
  }
  bool operator==(const Sig128&) const = default;
};

struct Sig128Hash {
  size_t operator()(const Sig128& s) const noexcept {
    return static_cast<size_t>(s.lo ^ (s.hi * 0x9e3779b97f4a7c15ull));
  }
};

// The justification frontier: a bitset over topological positions, so the
// lowest gate (the branch order) is a find-first-set, plus one summary bit
// per 64-bit word so that the lookup and the walks skip empty words on large
// netlists.
class Frontier {
 public:
  explicit Frontier(const std::vector<NodeId>& topoOrder)
      : nodeAt_(topoOrder),
        pos_(topoOrder.size()),
        words_((topoOrder.size() + 63) / 64, 0),
        summary_((words_.size() + 63) / 64, 0) {
    for (size_t i = 0; i < topoOrder.size(); ++i) pos_[topoOrder[i]] = static_cast<uint32_t>(i);
  }

  bool contains(NodeId n) const { return (words_[pos_[n] >> 6] & bit(pos_[n])) != 0; }
  bool empty() const { return size_ == 0; }
  size_t size() const { return size_; }

  // `n` must not be in the frontier.
  void insert(NodeId n) {
    const uint32_t w = pos_[n] >> 6;
    if (words_[w] == 0) summary_[w >> 6] |= bit(w);
    words_[w] |= bit(pos_[n]);
    ++size_;
  }
  // `n` must be in the frontier.
  void erase(NodeId n) {
    const uint32_t w = pos_[n] >> 6;
    words_[w] &= ~bit(pos_[n]);
    if (words_[w] == 0) summary_[w >> 6] &= ~bit(w);
    --size_;
  }

  // The frontier gate lowest in topological order; the frontier must not be
  // empty.
  NodeId lowest() const {
    size_t s = 0;
    while (summary_[s] == 0) ++s;
    const size_t w = s * 64 + std::countr_zero(summary_[s]);
    return nodeAt_[w * 64 + std::countr_zero(words_[w])];
  }

  // Calls f(gate) for every frontier gate, in topological order.
  template <typename F>
  void forEach(F&& f) const {
    for (size_t s = 0; s < summary_.size(); ++s) {
      for (uint64_t sw = summary_[s]; sw != 0; sw &= sw - 1) {
        const size_t w = s * 64 + std::countr_zero(sw);
        for (uint64_t bits = words_[w]; bits != 0; bits &= bits - 1) {
          f(nodeAt_[w * 64 + std::countr_zero(bits)]);
        }
      }
    }
  }

 private:
  static uint64_t bit(size_t i) { return uint64_t{1} << (i & 63); }

  std::vector<NodeId> nodeAt_;  // topological position -> node
  std::vector<uint32_t> pos_;   // node -> topological position
  std::vector<uint64_t> words_;
  std::vector<uint64_t> summary_;  // bit w: words_[w] != 0
  size_t size_ = 0;
};

// Learned subproblems: signature -> solution-graph child, with the eviction
// generation of the last touch. Open addressing with linear probing over
// 24-byte slots; the table starts small and doubles at load 1/2. Signatures
// are uniformly random, so the low bits of one lane are the home slot.
class MemoTable {
 public:
  struct Slot {
    Sig128 key;
    int child = kEmpty;  // graph node index or a SolutionGraph terminal
    uint32_t gen = 0;
  };
  static_assert(sizeof(Slot) == 24);

  size_t size() const { return size_; }
  uint64_t bytes() const { return slots_.size() * sizeof(Slot); }

  Slot* find(const Sig128& key) {
    if (slots_.empty()) return nullptr;
    for (size_t i = home(key);; i = (i + 1) & mask()) {
      if (slots_[i].child == kEmpty) return nullptr;
      if (slots_[i].key == key) return &slots_[i];
    }
  }

  // Inserts `key` unless it is present. Returns how many bytes the slot
  // array grew by.
  uint64_t insert(const Sig128& key, int child, uint32_t gen) {
    const uint64_t before = bytes();
    if (2 * (size_ + 1) > slots_.size()) grow();
    size_t i = home(key);
    while (slots_[i].child != kEmpty && !(slots_[i].key == key)) i = (i + 1) & mask();
    if (slots_[i].child == kEmpty) {
      slots_[i] = Slot{key, child, gen};
      ++size_;
    }
    return bytes() - before;
  }

  // Keeps at most `limit` of the entries last touched in generation `gen`,
  // in slot order, and calls dropped(key) for every other entry. The slot
  // array keeps its size.
  template <typename Dropped>
  void retain(uint32_t gen, size_t limit, Dropped&& dropped) {
    std::vector<Slot> kept;
    for (Slot& s : slots_) {
      if (s.child == kEmpty) continue;
      if (kept.size() < limit && s.gen == gen) {
        kept.push_back(s);
      } else {
        dropped(s.key);
      }
      s = Slot{};
    }
    size_ = kept.size();
    for (const Slot& s : kept) place(s);
  }

 private:
  static constexpr int kEmpty = INT_MIN;
  static constexpr size_t kInitialSlots = 64;

  size_t mask() const { return slots_.size() - 1; }
  size_t home(const Sig128& key) const { return static_cast<size_t>(key.lo) & mask(); }
  // Puts an absent key in its first free slot.
  void place(const Slot& s) {
    size_t i = home(s.key);
    while (slots_[i].child != kEmpty) i = (i + 1) & mask();
    slots_[i] = s;
  }
  void grow() {
    std::vector<Slot> old(slots_.empty() ? kInitialSlots : 2 * slots_.size());
    old.swap(slots_);
    for (const Slot& s : old) {
      if (s.child != kEmpty) place(s);
    }
  }

  std::vector<Slot> slots_;
  size_t size_ = 0;
};

// One backward-justification search with success-driven learning, shared by
// every objective set of one call.
class Engine {
 public:
  Engine(const Netlist& nl, const std::vector<NodeId>& projectionSources,
         const AllSatOptions& options)
      : nl_(nl),
        options_(options),
        governor_(options.governor),
        fanouts_(nl_.fanouts()),
        value_(nl_.numNodes(), l_Undef),
        projIndex_(nl_.numNodes(), -1),
        numProjection_(static_cast<int>(projectionSources.size())),
        frontier_(nl_.topologicalOrder()),
        visitStamp_(nl_.numNodes(), 0) {
    for (size_t i = 0; i < projectionSources.size(); ++i) {
      NodeId src = projectionSources[i];
      PRESAT_CHECK(!isCombinational(nl_.type(src)))
          << "projection entries must be source nodes";
      PRESAT_CHECK(projIndex_[src] < 0) << "projection lists node " << src << " twice";
      projIndex_[src] = static_cast<int>(i);
    }
    // Unconditional: assign()/undoTo() maintain frontierSig_ even with
    // learning off, so the ablation path stays identical modulo the memo.
    initZobrist();
    // Constants carry their value from the start and never need
    // justification.
    for (NodeId id = 0; id < nl_.numNodes(); ++id) {
      if (nl_.type(id) == GateType::kConst0) value_[id] = l_False;
      if (nl_.type(id) == GateType::kConst1) value_[id] = l_True;
    }
    graphLedger_.attach(governor_);
    memoLedger_.attach(governor_);
  }

  // Solves every problem as the next root of the shared graph, then reads
  // the cover and the count off the graph's BDD.
  SuccessDrivenResult run(std::span<const CircuitAllSatProblem> problems) {
    Timer timer;
    for (const CircuitAllSatProblem& p : problems) solveRoot(p.objectives);

    SuccessDrivenResult result;
    result.graph = std::move(graph_);
    const SolutionGraph& graph = result.graph;
    stats_.memoEntries = memo_.size();
    stats_.memoBytes = memo_.bytes();
    result.summary.stats = stats_;
    result.summary.stats.graphNodes = graph.numNodes();
    result.summary.stats.graphEdges = graph.numLiveEdges();
    metrics_.setLabel("engine", "success-driven");
    metrics_.setCounter("sig.cone_nodes", sigCutNodes_);
    metrics_.setCounter("sig.bytes", sigCutNodes_ * sizeof(Sig128));
    if (frontierSizes_.count() != 0) metrics_.histogram("frontier.size").merge(frontierSizes_);
    result.summary.metrics = std::move(metrics_);
    // One BDD pass over the graph serves the cover, the count and the audit.
    BddManager mgr(numProjection_);
    const std::vector<BddRef> rootBdds = graph.rootBdds(mgr);
    BddRef all = BddManager::kFalse;
    for (BddRef root : rootBdds) all = mgr.bddOr(all, root);
    const bool capped = readSuccessDrivenCover(mgr, all, options_, result.summary);
    // A governor trip dominates the cap: the pruned branches are the reason
    // the graph (and hence the cover / count) is only a lower bound.
    if (tripped_ && governor_ != nullptr) result.summary.outcome = governor_->reason();
    result.summary.stats.seconds = timer.seconds();
    exportStatsToMetrics(result.summary.stats, result.summary.metrics);
    finishResult(result.summary, governor_);

    // cheap = structural DAG invariants plus the reported cover against the
    // graph's BDD; full additionally replays every sampled path cube through
    // a SAT check against the root's original circuit problem.
    PRESAT_AUDIT_CHEAP({
      SolutionGraphAuditOptions auditOptions;
      auditOptions.maxCubeSatChecks = 0;
      if constexpr (kAuditLevel == AuditLevel::kFull) {
        auditOptions.problems = problems;
        auditOptions.maxCubeSatChecks = 256;
      } else {
        auditOptions.numProjectionVars = numProjection_;
      }
      // A capped cover is a prefix, not the graph's set; the audit then
      // enumerates the graph itself.
      if (!capped) auditOptions.cover = &result.summary.cubes;
      auditOptions.bddManager = &mgr;
      auditOptions.rootBdds = rootBdds;
      PRESAT_CHECK_AUDIT(auditSolutionGraph(graph, auditOptions));
    });
    return result;
  }

 private:
  enum class EventKind : uint8_t { kAssign, kFrontierRemove };
  struct Event {
    EventKind kind;
    NodeId node;
  };

  // Solves one objective set as the next root of the shared graph and
  // returns the engine to the empty assignment for the next one.
  void solveRoot(const NodeCube& objectives) {
    LitVec rootLits;
    curNewProj_ = &rootLits;
    bool consistent = true;
    for (const NodeAssign& obj : objectives) {
      PRESAT_CHECK(obj.first < nl_.numNodes()) << "objective node out of range";
      if (!assign(obj.first, obj.second)) {
        consistent = false;
        break;
      }
    }
    if (consistent) consistent = propagateFixpoint();
    graph_.addRoot(consistent ? solveState() : SolutionGraph::kFail, std::move(rootLits));
    // A conflicting objective leaves the fanout rechecks it queued behind;
    // they belong to this root's assignment, not the next one's.
    pending_.clear();
    undoTo(0);
  }

  // --- assignment & propagation ------------------------------------------------

  bool assign(NodeId n, bool v) {
    lbool cur = value_[n];
    if (!cur.isUndef()) return cur.isTrue() == v;
    value_[n] = lbool(v);
    trail_.push_back({EventKind::kAssign, n});
    if (projIndex_[n] >= 0) {
      curNewProj_->push_back(mkLit(static_cast<Var>(projIndex_[n]), !v));
    }
    if (isCombinational(nl_.type(n))) {
      frontier_.insert(n);
      frontierSig_.flip(zFrontier_[n]);
      pending_.push_back(n);
    }
    for (NodeId fo : fanouts_[n]) {
      if (!value_[fo].isUndef() && frontier_.contains(fo)) pending_.push_back(fo);
    }
    return true;
  }

  void removeFromFrontier(NodeId g) {
    frontier_.erase(g);
    frontierSig_.flip(zFrontier_[g]);
    trail_.push_back({EventKind::kFrontierRemove, g});
  }

  // Examines one frontier gate: justifies it, forces fanins, detects a
  // conflict, or leaves it for branching. Returns false on conflict.
  bool examine(NodeId g) {
    if (!frontier_.contains(g)) return true;
    const GateNode& gate = nl_.node(g);
    bool v = value_[g].isTrue();

    lbool forward = evalGateTernary(gate, value_);
    if (!forward.isUndef()) {
      if (forward.isTrue() != v) return false;  // conflict
      removeFromFrontier(g);
      return true;
    }

    // Forward value unknown: collect forced fanin assignments.
    switch (gate.type) {
      case GateType::kBuf:
        return forceAndRecheck(g, gate.fanins[0], v);
      case GateType::kNot:
        return forceAndRecheck(g, gate.fanins[0], !v);
      case GateType::kAnd:
      case GateType::kNand:
      case GateType::kOr:
      case GateType::kNor: {
        bool ctrlIn = (gate.type == GateType::kOr || gate.type == GateType::kNor);
        bool inverted = (gate.type == GateType::kNand || gate.type == GateType::kNor);
        bool controlledOut = ctrlIn != inverted;
        if (v != controlledOut) {
          // Non-controlled output: every fanin must take the non-controlling
          // value.
          for (NodeId f : gate.fanins) {
            if (value_[f].isUndef() && !assign(f, !ctrlIn)) return false;
          }
          pending_.push_back(g);
          return true;
        }
        // Controlled output: one controlling fanin must exist. Forward eval
        // was undef, so no fanin is controlling yet; if exactly one fanin is
        // unassigned it is forced, otherwise this gate branches.
        int unassigned = 0;
        NodeId last = kNoNode;
        for (NodeId f : gate.fanins) {
          if (value_[f].isUndef()) {
            ++unassigned;
            last = f;
          }
        }
        PRESAT_DCHECK(unassigned > 0);
        if (unassigned == 1) return forceAndRecheck(g, last, ctrlIn);
        return true;  // needs a branch decision
      }
      case GateType::kXor:
      case GateType::kXnor: {
        int unassigned = 0;
        NodeId last = kNoNode;
        bool parity = (gate.type == GateType::kXnor) ? !v : v;
        for (NodeId f : gate.fanins) {
          if (value_[f].isUndef()) {
            ++unassigned;
            last = f;
          } else if (value_[f].isTrue()) {
            parity = !parity;
          }
        }
        PRESAT_DCHECK(unassigned > 0);
        if (unassigned == 1) return forceAndRecheck(g, last, parity);
        return true;  // needs a branch decision
      }
      case GateType::kMux: {
        NodeId sel = gate.fanins[0];
        NodeId d0 = gate.fanins[1];
        NodeId d1 = gate.fanins[2];
        if (!value_[sel].isUndef()) {
          NodeId chosen = value_[sel].isTrue() ? d1 : d0;
          PRESAT_DCHECK(value_[chosen].isUndef());  // else forward eval decided
          return forceAndRecheck(g, chosen, v);
        }
        bool d0Known = !value_[d0].isUndef();
        bool d1Known = !value_[d1].isUndef();
        if (d0Known && d1Known) {
          // Exactly one data input matches (both/neither is decided by the
          // forward evaluation above), so the select is forced.
          bool d1Match = value_[d1].isTrue() == v;
          PRESAT_DCHECK((value_[d0].isTrue() == v) != d1Match);
          return forceAndRecheck(g, sel, d1Match);
        }
        return true;  // select undecided with open data: branch on select
      }
      default:
        PRESAT_CHECK(false) << "examine() on non-combinational node";
        return false;
    }
  }

  bool forceAndRecheck(NodeId g, NodeId fanin, bool v) {
    if (!assign(fanin, v)) return false;
    pending_.push_back(g);
    return true;
  }

  bool propagateFixpoint() {
    while (!pending_.empty()) {
      NodeId g = pending_.back();
      pending_.pop_back();
      if (value_[g].isUndef()) continue;
      if (!examine(g)) {
        pending_.clear();
        return false;
      }
    }
    return true;
  }

  void undoTo(size_t mark) {
    while (trail_.size() > mark) {
      Event e = trail_.back();
      trail_.pop_back();
      if (e.kind == EventKind::kAssign) {
        if (frontier_.contains(e.node)) {
          frontier_.erase(e.node);
          frontierSig_.flip(zFrontier_[e.node]);
        }
        value_[e.node] = l_Undef;
      } else {
        frontier_.insert(e.node);
        frontierSig_.flip(zFrontier_[e.node]);
      }
    }
  }

  // --- decisions ------------------------------------------------------------------

  // Picks the branch node and first value for the lowest frontier gate.
  void pickBranch(NodeId& branchNode, bool& firstValue) const {
    PRESAT_DCHECK(!frontier_.empty());
    NodeId g = frontier_.lowest();
    const GateNode& gate = nl_.node(g);
    bool v = value_[g].isTrue();
    switch (gate.type) {
      case GateType::kAnd:
      case GateType::kNand:
      case GateType::kOr:
      case GateType::kNor: {
        bool ctrlIn = (gate.type == GateType::kOr || gate.type == GateType::kNor);
        for (NodeId f : gate.fanins) {
          if (value_[f].isUndef()) {
            branchNode = f;
            firstValue = ctrlIn;
            return;
          }
        }
        break;
      }
      case GateType::kXor:
      case GateType::kXnor: {
        for (NodeId f : gate.fanins) {
          if (value_[f].isUndef()) {
            branchNode = f;
            firstValue = false;
            return;
          }
        }
        break;
      }
      case GateType::kMux:
        branchNode = gate.fanins[0];
        firstValue = false;
        PRESAT_DCHECK(value_[branchNode].isUndef());
        return;
      default:
        break;
    }
    PRESAT_CHECK(false) << "frontier gate " << gateTypeName(gate.type) << " value " << v
                        << " has no branch candidate (propagation bug)";
  }

  // --- success-driven learning -----------------------------------------------------
  //
  // The subproblem at a search node is determined by the justification
  // frontier plus the values on its justification cut: the nodes reached
  // from the frontier by descending through frontier gates and unassigned
  // nodes, stopping at assigned non-frontier nodes (whose values are still
  // part of the key). That is exactly what a subsearch can read: examine()
  // reads the fanins of frontier gates, and assign() only ever assigns an
  // unassigned fanin, which then joins the frontier and exposes its own
  // fanins. An assigned node outside the frontier is justified or a source,
  // so nothing below it is read again. Two states that agree on the cut
  // therefore run the same subsearch, whatever lies beyond it — the key is
  // exact, and coarser than the whole fanin cone.
  //
  // The memo key is a 128-bit Zobrist signature of that state:
  //
  //  * the frontier-membership component is maintained INCREMENTALLY — every
  //    frontier insert/erase in assign()/removeFromFrontier()/undoTo() XORs
  //    the gate's precomputed key into frontierSig_, so it costs O(1) per
  //    event and nothing at signature time;
  //  * the cut-assignment component is accumulated by an XOR walk over the
  //    cut. It cannot be maintained purely incrementally: when a gate is
  //    justified, nodes may silently leave the cut, so the walk re-derives
  //    it. The walk is allocation-free and sort-free (XOR commutes): a flat
  //    O(cut) scan per search node.

  // Whether the cut walk descends below `n`: through frontier gates and
  // unassigned gates, never below an assigned non-frontier node.
  bool onCutInterior(NodeId n) const {
    return isCombinational(nl_.type(n)) && (value_[n].isUndef() || frontier_.contains(n));
  }

  void initZobrist() {
    // Deterministic keys: the engine must behave identically across runs.
    Rng rng(0xc0ffee5d00d1e5ull);
    zAssign_.resize(nl_.numNodes() * 2);
    zFrontier_.resize(nl_.numNodes());
    for (size_t i = 0; i < zAssign_.size(); ++i) zAssign_[i] = {rng.next(), rng.next()};
    for (size_t i = 0; i < zFrontier_.size(); ++i) zFrontier_[i] = {rng.next(), rng.next()};
  }

  // Hashed signature of (frontier, cut assignment) at the current state.
  Sig128 hashedSignature() {
    if (++stamp_ == 0) {  // stamp wrapped: reset the epoch array once
      std::fill(visitStamp_.begin(), visitStamp_.end(), 0u);
      stamp_ = 1;
    }
    Sig128 sig = frontierSig_;
    frontier_.forEach([this](NodeId g) { scratchStack_.push_back(g); });
    uint64_t cutNodes = 0;
    while (!scratchStack_.empty()) {
      NodeId n = scratchStack_.back();
      scratchStack_.pop_back();
      if (visitStamp_[n] == stamp_) continue;
      visitStamp_[n] = stamp_;
      ++cutNodes;
      lbool v = value_[n];
      if (!v.isUndef()) sig.flip(zAssign_[n * 2 + (v.isTrue() ? 1 : 0)]);
      if (onCutInterior(n)) {
        for (NodeId f : nl_.fanins(n)) scratchStack_.push_back(f);
      }
    }
    sigCutNodes_ += cutNodes;
    return sig;
  }

  // The exact key — frontier + cut assignment serialized into a canonical
  // byte string over the same cut walk. The collision oracle behind
  // AllSatOptions::memoCheckExact.
  std::string exactKey() {
    scratchCone_.clear();
    scratchMark_.assign(nl_.numNodes(), false);
    frontier_.forEach([this](NodeId g) { scratchStack_.push_back(g); });
    while (!scratchStack_.empty()) {
      NodeId n = scratchStack_.back();
      scratchStack_.pop_back();
      if (scratchMark_[n]) continue;
      scratchMark_[n] = true;
      scratchCone_.push_back(n);
      if (onCutInterior(n)) {
        for (NodeId f : nl_.fanins(n)) scratchStack_.push_back(f);
      }
    }
    std::sort(scratchCone_.begin(), scratchCone_.end());
    std::string key;
    key.reserve(scratchCone_.size() * 5);
    for (NodeId n : scratchCone_) {
      lbool v = value_[n];
      if (v.isUndef()) continue;
      uint32_t word = (n << 2) | (v.isTrue() ? 1u : 0u) | (frontier_.contains(n) ? 2u : 0u);
      key.append(reinterpret_cast<const char*>(&word), sizeof(word));
    }
    return key;
  }

  // Frees space in a full memo: drops every entry not touched since the
  // previous sweep, and at most half of the entries survive even when the
  // whole working set is hot (guarantees forward progress).
  void evictMemo() {
    size_t before = memo_.size();
    memo_.retain(memoGen_, before / 2, [this](const Sig128& key) {
      if (options_.memoCheckExact) exactKeys_.erase(key);
    });
    stats_.memoEvictions += before - memo_.size();
    ++memoGen_;
  }

  // --- search -------------------------------------------------------------------------

  int solveState() {
    // Cooperative degradation: once the governor trips, the remaining search
    // fails fast — every un-explored branch records kFail, which prunes the
    // graph to a sound under-approximation of the solution set, and memo
    // insertion is suppressed so no pruned result is ever reused as exact.
    if (!tripped_ && governor_ != nullptr) {
      if (faults::maybeFail("sd.node")) governor_->trip(Outcome::kMemory);
      if (governor_->poll() != Outcome::kComplete) tripped_ = true;
    }
    if (tripped_) return SolutionGraph::kFail;
    if (frontier_.empty()) return SolutionGraph::kSuccess;
    Sig128 key;
    if (options_.successLearning) {
      key = hashedSignature();
      if (MemoTable::Slot* hit = memo_.find(key)) {
        ++stats_.memoHits;
        hit->gen = memoGen_;
        if (options_.memoCheckExact) {
          auto exact = exactKeys_.find(key);
          PRESAT_CHECK(exact != exactKeys_.end() && exact->second == exactKey())
              << "hashed memo collision: 128-bit signature matched a different subproblem";
        }
        return hit->child;
      }
      ++stats_.memoMisses;
    }
    frontierSizes_.record(frontier_.size());

    NodeId branchNode = kNoNode;
    bool firstValue = false;
    pickBranch(branchNode, firstValue);
    ++stats_.decisions;

    SolutionGraph::Node node;
    node.decisionId = branchNode;
    for (int b = 0; b < 2; ++b) {
      bool val = (b == 0) ? firstValue : !firstValue;
      size_t mark = trail_.size();
      LitVec newProj;
      curNewProj_ = &newProj;
      bool consistent = assign(branchNode, val) && propagateFixpoint();
      int child = SolutionGraph::kFail;
      if (consistent) {
        child = solveState();
      } else {
        ++stats_.conflicts;
        if (governor_ != nullptr) governor_->countConflicts(1);
      }
      undoTo(mark);
      node.branch[b].child = child;
      node.branch[b].newLits = std::move(newProj);
    }

    int index;
    if (node.branch[0].child == SolutionGraph::kFail &&
        node.branch[1].child == SolutionGraph::kFail) {
      index = SolutionGraph::kFail;
    } else {
      graphLedger_.charge(
          sizeof(SolutionGraph::Node) +
          (node.branch[0].newLits.capacity() + node.branch[1].newLits.capacity()) *
              sizeof(Lit));
      index = graph_.addNode(node);
    }
    // A node finished under a trip may have had its second branch pruned to
    // kFail — correct as a partial answer, but never reusable as the exact
    // result of this subproblem, so it must not enter the memo.
    if (options_.successLearning && !tripped_) {
      if (options_.maxMemoEntries != 0 && memo_.size() >= options_.maxMemoEntries) evictMemo();
      memoLedger_.charge(memo_.insert(key, index, memoGen_));
      if (options_.memoCheckExact) exactKeys_.emplace(key, exactKey());
    }
    return index;
  }

  const Netlist& nl_;
  AllSatOptions options_;
  Governor* governor_ = nullptr;
  bool tripped_ = false;          // latched locally: fail-fast unwind flag
  MemoryLedger graphLedger_;      // solution-graph bytes
  MemoryLedger memoLedger_;       // memo slot-array bytes, charged as it grows
  const FanoutLists& fanouts_;
  std::vector<lbool> value_;
  std::vector<int> projIndex_;
  int numProjection_;  // projected index space: [0, projectionSources.size())

  Frontier frontier_;  // unjustified gates, ordered by topological position
  std::vector<NodeId> pending_;
  std::vector<Event> trail_;
  LitVec* curNewProj_ = nullptr;

  // Zobrist tables: zAssign_[2n + v] keys "node n assigned value v",
  // zFrontier_[n] keys "node n is an unjustified frontier gate".
  std::vector<Sig128> zAssign_;
  std::vector<Sig128> zFrontier_;
  Sig128 frontierSig_;  // XOR over zFrontier_ of the current frontier set

  MemoTable memo_;
  std::unordered_map<Sig128, std::string, Sig128Hash> exactKeys_;  // memoCheckExact only
  uint32_t memoGen_ = 0;
  uint64_t sigCutNodes_ = 0;

  SolutionGraph graph_;
  AllSatStats stats_;
  Metrics metrics_;
  Histogram frontierSizes_;  // merged into metrics_ once, in run()

  // signature scratch: epoch-stamped visit marks (no O(numNodes) clear per
  // signature) and a reusable DFS stack.
  std::vector<uint32_t> visitStamp_;
  uint32_t stamp_ = 0;
  std::vector<NodeId> scratchStack_;

  // exactKey() scratch (memoCheckExact only)
  std::vector<NodeId> scratchCone_;
  std::vector<bool> scratchMark_;
};

}  // namespace

bool readSuccessDrivenCover(BddManager& mgr, BddRef set, const AllSatOptions& options,
                            AllSatResult& summary) {
  summary.mintermCount = mgr.satCount(set);
  // One path beyond the cap decides completeness.
  const uint64_t probe = options.maxCubes == 0 || options.maxCubes == UINT64_MAX
                             ? options.maxCubes
                             : options.maxCubes + 1;
  summary.cubes = mgr.enumerateCubes(set, probe);
  const bool capped = options.maxCubes != 0 && summary.cubes.size() > options.maxCubes;
  if (capped) {
    summary.cubes.pop_back();
    summary.outcome = combineOutcomes(summary.outcome, Outcome::kCubeCap);
  }
  applyProjectionPostpass(summary, options, /*disjointCubes=*/true);
  return capped;
}

SuccessDrivenResult successDrivenAllSat(const CircuitAllSatProblem& problem,
                                        const AllSatOptions& options) {
  return successDrivenAllSat(std::span(&problem, 1), options);
}

SuccessDrivenResult successDrivenAllSat(std::span<const CircuitAllSatProblem> problems,
                                        const AllSatOptions& options) {
  PRESAT_CHECK(!problems.empty());
  const CircuitAllSatProblem& first = problems.front();
  PRESAT_CHECK(first.netlist != nullptr);
  for (const CircuitAllSatProblem& p : problems) {
    PRESAT_CHECK(p.netlist == first.netlist && p.projectionSources == first.projectionSources)
        << "one engine needs one netlist and one projection";
  }
  if (options.parallel.enabled()) return parallelSuccessDrivenAllSat(problems, options);
  Engine engine(*first.netlist, first.projectionSources, options);
  return engine.run(problems);
}

}  // namespace presat
