#include "allsat/success_driven.hpp"

#include <set>
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
        inFrontier_(nl_.numNodes(), 0),
        projIndex_(nl_.numNodes(), -1),
        numProjection_(static_cast<int>(projectionSources.size())),
        visitStamp_(nl_.numNodes(), 0) {
    std::vector<NodeId> order = nl_.topologicalOrder();
    topoPos_.resize(nl_.numNodes());
    for (size_t i = 0; i < order.size(); ++i) topoPos_[order[i]] = static_cast<uint32_t>(i);
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

  // Solves every problem as the next root of the shared graph, then
  // enumerates, post-processes and counts the covers.
  SuccessDrivenResult run(std::span<const CircuitAllSatProblem> problems) {
    Timer timer;
    for (const CircuitAllSatProblem& p : problems) solveRoot(p.objectives);

    SuccessDrivenResult result;
    result.graph = std::move(graph_);
    const SolutionGraph& graph = result.graph;
    stats_.memoEntries = memo_.size();
    stats_.memoBytes = memoBytes();
    result.summary.stats = stats_;
    result.summary.stats.graphNodes = graph.numNodes();
    result.summary.stats.graphEdges = graph.numLiveEdges();
    // Each root keeps the cap and the projection post-pass of a
    // single-objective run; the compression tallies add up across roots.
    std::vector<std::vector<LitVec>> covers(graph.numRoots());
    bool capped = false;
    for (size_t r = 0; r < graph.numRoots(); ++r) {
      AllSatResult part;
      // One path beyond the cap decides completeness without the full
      // path-count dynamic program over the graph.
      if (options_.maxCubes == 0) {
        part.cubes = graph.enumerateRootCubes(r, 0);
      } else {
        uint64_t probe =
            options_.maxCubes == UINT64_MAX ? options_.maxCubes : options_.maxCubes + 1;
        part.cubes = graph.enumerateRootCubes(r, probe);
        if (part.cubes.size() > options_.maxCubes) {
          capped = true;
          part.cubes.pop_back();
        }
      }
      // Serialized solution-graph cubes can repeat and overlap across
      // branches; the projected/compressed epilogue cleans them up without
      // touching the graph-side BDD count below.
      applyProjectionPostpass(part, options_, /*disjointCubes=*/false);
      metrics_.merge(part.metrics);
      covers[r] = std::move(part.cubes);
    }
    if (capped) result.summary.outcome = Outcome::kCubeCap;
    // A governor trip dominates the cap: the pruned branches are the reason
    // the graph (and hence the cube set / count) is only a lower bound.
    if (tripped_ && governor_ != nullptr) result.summary.outcome = governor_->reason();
    // One BDD pass over the graph serves the count and the audit below.
    BddManager mgr(numProjection_);
    const std::vector<BddRef> rootBdds = graph.rootBdds(mgr);
    BddRef all = BddManager::kFalse;
    for (BddRef root : rootBdds) all = mgr.bddOr(all, root);
    result.summary.mintermCount = mgr.satCount(all);
    result.summary.stats.seconds = timer.seconds();
    metrics_.setLabel("engine", "success-driven");
    exportStatsToMetrics(result.summary.stats, metrics_);
    metrics_.setCounter("sig.cone_nodes", sigCutNodes_);
    metrics_.setCounter("sig.bytes", sigCutNodes_ * sizeof(Sig128));
    if (frontierSizes_.count() != 0) metrics_.histogram("frontier.size").merge(frontierSizes_);
    result.summary.metrics = std::move(metrics_);
    finishResult(result.summary, governor_);

    // cheap = structural DAG invariants plus each root's reported cover
    // against its BDD; full additionally replays every sampled cube through
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
      // A capped cover is a prefix, not the root's set; the audit then
      // enumerates the graph itself.
      if (!capped) auditOptions.rootCovers = covers;
      auditOptions.bddManager = &mgr;
      auditOptions.rootBdds = rootBdds;
      PRESAT_CHECK_AUDIT(auditSolutionGraph(graph, auditOptions));
    });

    size_t total = 0;
    for (const std::vector<LitVec>& cover : covers) total += cover.size();
    result.summary.cubes.reserve(total);
    for (std::vector<LitVec>& cover : covers) {
      for (LitVec& cube : cover) result.summary.cubes.push_back(std::move(cube));
    }
    return result;
  }

 private:
  enum class EventKind : uint8_t { kAssign, kFrontierRemove };
  struct Event {
    EventKind kind;
    NodeId node;
  };

  struct MemoEntry {
    int child;     // graph node index or a SolutionGraph terminal
    uint32_t gen;  // eviction generation of the last touch
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
      inFrontier_[n] = 1;
      frontier_.insert({topoPos_[n], n});
      frontierSig_.flip(zFrontier_[n]);
      pending_.push_back(n);
    }
    for (NodeId fo : fanouts_[n]) {
      if (!value_[fo].isUndef() && inFrontier_[fo]) pending_.push_back(fo);
    }
    return true;
  }

  void removeFromFrontier(NodeId g) {
    inFrontier_[g] = 0;
    frontier_.erase({topoPos_[g], g});
    frontierSig_.flip(zFrontier_[g]);
    trail_.push_back({EventKind::kFrontierRemove, g});
  }

  // Examines one frontier gate: justifies it, forces fanins, detects a
  // conflict, or leaves it for branching. Returns false on conflict.
  bool examine(NodeId g) {
    if (!inFrontier_[g]) return true;
    const GateNode& gate = nl_.node(g);
    bool v = value_[g].isTrue();

    ins_.clear();
    for (NodeId f : gate.fanins) ins_.push_back(value_[f]);
    lbool forward = evalGateTernary(gate.type, ins_);
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
        if (inFrontier_[e.node]) {
          inFrontier_[e.node] = 0;
          frontier_.erase({topoPos_[e.node], e.node});
          frontierSig_.flip(zFrontier_[e.node]);
        }
        value_[e.node] = l_Undef;
      } else {
        inFrontier_[e.node] = 1;
        frontier_.insert({topoPos_[e.node], e.node});
        frontierSig_.flip(zFrontier_[e.node]);
      }
    }
  }

  // --- decisions ------------------------------------------------------------------

  // Picks the branch node and first value for the lowest frontier gate.
  void pickBranch(NodeId& branchNode, bool& firstValue) const {
    PRESAT_DCHECK(!frontier_.empty());
    NodeId g = frontier_.begin()->second;
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
    return isCombinational(nl_.type(n)) && (value_[n].isUndef() || inFrontier_[n]);
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
    for (const auto& [pos, g] : frontier_) {
      (void)pos;
      scratchStack_.push_back(g);
    }
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
    for (const auto& [pos, g] : frontier_) {
      (void)pos;
      scratchStack_.push_back(g);
    }
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
      uint32_t word = (n << 2) | (v.isTrue() ? 1u : 0u) | (inFrontier_[n] ? 2u : 0u);
      key.append(reinterpret_cast<const char*>(&word), sizeof(word));
    }
    return key;
  }

  // Entry payload plus the typical two-pointer unordered_map overhead
  // (bucket slot + node link). An estimate, but a stable one: it scales
  // linearly in entries, which is what the table bound limits.
  static constexpr uint64_t kMemoEntryBytes =
      sizeof(std::pair<const Sig128, MemoEntry>) + 2 * sizeof(void*);

  uint64_t memoBytes() const { return memo_.size() * kMemoEntryBytes; }

  // Frees space in a full memo: drops every entry not touched since the
  // previous sweep, falling back to dropping an arbitrary half when the
  // working set itself fills the table (guarantees forward progress).
  void evictMemo() {
    size_t before = memo_.size();
    for (auto it = memo_.begin(); it != memo_.end();) {
      if (it->second.gen != memoGen_) {
        if (options_.memoCheckExact) exactKeys_.erase(it->first);
        it = memo_.erase(it);
      } else {
        ++it;
      }
    }
    if (memo_.size() > before / 2) {
      size_t target = before / 2;
      for (auto it = memo_.begin(); it != memo_.end() && memo_.size() > target;) {
        if (options_.memoCheckExact) exactKeys_.erase(it->first);
        it = memo_.erase(it);
      }
    }
    stats_.memoEvictions += before - memo_.size();
    memoLedger_.release((before - memo_.size()) * kMemoEntryBytes);
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
      auto it = memo_.find(key);
      if (it != memo_.end()) {
        ++stats_.memoHits;
        it->second.gen = memoGen_;
        if (options_.memoCheckExact) {
          auto exact = exactKeys_.find(key);
          PRESAT_CHECK(exact != exactKeys_.end() && exact->second == exactKey())
              << "hashed memo collision: 128-bit signature matched a different subproblem";
        }
        return it->second.child;
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
      memo_.emplace(key, MemoEntry{index, memoGen_});
      memoLedger_.charge(kMemoEntryBytes);
      if (options_.memoCheckExact) exactKeys_.emplace(key, exactKey());
    }
    return index;
  }

  const Netlist& nl_;
  AllSatOptions options_;
  Governor* governor_ = nullptr;
  bool tripped_ = false;          // latched locally: fail-fast unwind flag
  MemoryLedger graphLedger_;      // solution-graph bytes
  MemoryLedger memoLedger_;       // memo-table bytes
  std::vector<std::vector<NodeId>> fanouts_;
  std::vector<uint32_t> topoPos_;
  std::vector<lbool> value_;
  std::vector<char> inFrontier_;
  std::vector<int> projIndex_;
  int numProjection_;  // projected index space: [0, projectionSources.size())

  std::set<std::pair<uint32_t, NodeId>> frontier_;  // ordered by topo position
  std::vector<NodeId> pending_;
  std::vector<Event> trail_;
  LitVec* curNewProj_ = nullptr;
  std::vector<lbool> ins_;

  // Zobrist tables: zAssign_[2n + v] keys "node n assigned value v",
  // zFrontier_[n] keys "node n is an unjustified frontier gate".
  std::vector<Sig128> zAssign_;
  std::vector<Sig128> zFrontier_;
  Sig128 frontierSig_;  // XOR over zFrontier_ of the current frontier set

  std::unordered_map<Sig128, MemoEntry, Sig128Hash> memo_;
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
  Engine engine(*first.netlist, first.projectionSources, options);
  return engine.run(problems);
}

}  // namespace presat
