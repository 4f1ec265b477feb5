#include "allsat/success_driven.hpp"

#include <algorithm>
#include <bit>
#include <climits>
#include <string>
#include <unordered_map>

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

// Memo entries a success-driven query is sized for up front, per node of
// the objectives' fanin cone. Random circuits store a median of ~7 per cone
// node and backward-reach steps ~1; growth covers the rest.
constexpr size_t kMemoEntriesPerConeNode = 4;

// Learned subproblems: signature -> solution-graph child, with the eviction
// generation of the last touch. Open addressing with linear probing over
// 24-byte slots; the first slot array is allocated at the first insert, at
// the size expect() asked for, and doubles at load 1/2. Signatures are
// uniformly random, so the low bits of one lane are the home slot.
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

  // Sizes the first slot array, allocated at the first insert, for
  // `entries` entries at load 1/2; later growth doubles it as before.
  void expect(size_t entries) {
    firstSlots_ = std::bit_ceil(std::max(kInitialSlots, 2 * entries));
  }

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
    std::vector<Slot> old(slots_.empty() ? firstSlots_ : 2 * slots_.size());
    old.swap(slots_);
    for (const Slot& s : old) {
      if (s.child != kEmpty) place(s);
    }
  }

  std::vector<Slot> slots_;
  size_t size_ = 0;
  size_t firstSlots_ = kInitialSlots;
};

// A nogood literal "node n has value v", packed as 2n + lbool(v).raw(): it
// is true exactly when value_[n].raw() equals its low bit.
using NodeLit = uint32_t;

NodeLit nodeLit(NodeId n, bool v) { return 2 * n + (v ? l_True : l_False).raw(); }
NodeId litNode(NodeLit l) { return l >> 1; }
bool litValue(NodeLit l) { return (l & 1) == l_True.raw(); }

// Under PRESAT_AUDIT=full, the first this many nogoods a query learns are
// each checked by a SAT call (auditNogood).
constexpr uint64_t kNogoodAuditsPerQuery = 64;

// Learned nogoods: sets of node literals that no evaluation of the netlist
// (under the current root's objectives) makes true together, stored flat.
// Each is watched on its first two literals, which are kept not-true where
// the search allows.
class NogoodStore {
 public:
  size_t size() const { return start_.size() - 1; }
  uint64_t bytes() const {
    return (lits_.capacity() + start_.capacity()) * sizeof(uint32_t);
  }
  std::span<NodeLit> operator[](uint32_t c) {
    return {lits_.data() + start_[c], lits_.data() + start_[c + 1]};
  }
  std::span<const NodeLit> operator[](uint32_t c) const {
    return {lits_.data() + start_[c], lits_.data() + start_[c + 1]};
  }
  uint32_t add(std::span<const NodeLit> lits) {
    lits_.insert(lits_.end(), lits.begin(), lits.end());
    start_.push_back(static_cast<uint32_t>(lits_.size()));
    return static_cast<uint32_t>(size() - 1);
  }
  void clear() {
    lits_.clear();
    start_.resize(1);
  }

 private:
  std::vector<NodeLit> lits_;
  std::vector<uint32_t> start_{0};  // nogood c is lits_[start_[c], start_[c + 1])
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
        projWords_((projectionSources.size() + 63) / 64),
        frontier_(nl_.topologicalOrder()),
        why_(nl_.numNodes()) {
    for (size_t i = 0; i < projectionSources.size(); ++i) {
      NodeId src = projectionSources[i];
      PRESAT_CHECK(!isCombinational(nl_.type(src)))
          << "projection entries must be source nodes";
      PRESAT_CHECK(projIndex_[src] < 0) << "projection lists node " << src << " twice";
      projIndex_[src] = static_cast<int>(i);
    }
    // Only the memo reads key_: with learning off no Zobrist table or
    // liveness count exists, and assign()/undoTo() skip the key bookkeeping.
    // The search itself (decisions, graph, covers) does not read the key.
    if (options_.successLearning) {
      initZobrist();
      live_.assign(nl_.numNodes(), 0);
      assignedProj_.assign(projWords_, 0);
    }
    initControllability();
    // Constants carry their value from the start and never need
    // justification.
    for (NodeId id = 0; id < nl_.numNodes(); ++id) {
      if (nl_.type(id) == GateType::kConst0) value_[id] = l_False;
      if (nl_.type(id) == GateType::kConst1) value_[id] = l_True;
    }
    graphLedger_.attach(governor_);
    memoLedger_.attach(governor_);
    nogoodLedger_.attach(governor_);
  }

  // Solves every problem as the next root of the shared graph, then takes
  // the cover (its ISOP) and the count from the graph's BDD.
  SuccessDrivenResult run(std::span<const CircuitAllSatProblem> problems) {
    Timer timer;
    std::vector<NodeId> roots;
    for (const CircuitAllSatProblem& p : problems) {
      for (const NodeAssign& obj : p.objectives) {
        PRESAT_CHECK(obj.first < nl_.numNodes()) << "objective node out of range";
        roots.push_back(obj.first);
      }
    }
    if (options_.successLearning) {
      initLiveness(nl_.coneOf(roots));
      // Start the memo near its final size rather than doubling up to it,
      // and never past what maxMemoEntries allows.
      size_t expected = kMemoEntriesPerConeNode * cone_.size();
      if (options_.maxMemoEntries != 0) expected = std::min(expected, options_.maxMemoEntries);
      memo_.expect(expected);
    }
    for (const CircuitAllSatProblem& p : problems) solveRoot(p.objectives);

    SuccessDrivenResult result;
    result.graph = std::move(graph_);
    const SolutionGraph& graph = result.graph;
    stats_.satCalls = problems.size();  // one justification search per root
    stats_.memoEntries = memo_.size();
    stats_.memoBytes = memo_.bytes();
    result.summary.stats = stats_;
    result.summary.stats.graphNodes = graph.numNodes();
    result.summary.stats.graphEdges = graph.numLiveEdges();
    metrics_.setCounter("sd.subsumed", subsumed_);
    metrics_.setCounter("sd.nogoods", nogoodsStored_);
    metrics_.setCounter("sd.nogood_implied", nogoodImplied_);
    if (frontierSizes_.count() != 0) metrics_.histogram("frontier.size").merge(frontierSizes_);
    result.summary.metrics = std::move(metrics_);
    // One BDD pass over the graph serves the cover and the audit.
    BddManager mgr(numProjection_);
    const std::vector<BddRef> rootBdds = graph.rootBdds(mgr);
    BddRef all = BddManager::kFalse;
    for (BddRef root : rootBdds) all = mgr.bddOr(all, root);
    result.summary.cubes = mgr.isop(all, all);
    result.summary.mintermCount = mgr.satCount(all);
    const bool capped =
        options_.maxCubes != 0 && result.summary.cubes.size() > options_.maxCubes;
    // A governor trip dominates the cap: the pruned branches are the reason
    // the graph (and hence the cover / count) is only a lower bound.
    if (tripped_ && governor_ != nullptr) result.summary.outcome = governor_->reason();
    finishCover(result.summary, options_, numProjection_, CoverKind::kIsop, "success-driven",
                timer);

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
    curObjectives_ = &objectives;
    bool consistent = true;
    for (const NodeAssign& obj : objectives) {
      if (!assign(obj.first, obj.second, kNoReason)) {
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
    clearNogoods();
  }

  // --- assignment & propagation ------------------------------------------------

  // Assigns n = v, forced by `reason` (kNoReason for an objective or a
  // decision), and checks the nogoods watching the new literal. Returns false
  // on a contradiction; a nogood made all true is left in conflict_.
  bool assign(NodeId n, bool v, int reason) {
    lbool cur = value_[n];
    if (!cur.isUndef()) return cur.isTrue() == v;
    value_[n] = lbool(v);
    why_[n] = {depth_, reason};
    if (options_.successLearning && live_[n] > 0) key_.flip(assignKey(n));
    trail_.push_back({EventKind::kAssign, n});
    if (projIndex_[n] >= 0) {
      curNewProj_->push_back(mkLit(static_cast<Var>(projIndex_[n]), !v));
      if (options_.successLearning) setBit(assignedProj_.data(), projIndex_[n]);
    }
    if (isCombinational(nl_.type(n))) {
      enterFrontier(n);
      pending_.push_back(n);
    }
    for (NodeId fo : fanouts_[n]) {
      if (!value_[fo].isUndef() && frontier_.contains(fo)) pending_.push_back(fo);
    }
    return watchHead_.empty() || checkWatches(nodeLit(n, v));
  }

  // A justified gate leaves the frontier and stops holding its fanins live.
  void removeFromFrontier(NodeId g) {
    leaveFrontier(g);
    if (options_.successLearning) {
      for (NodeId f : nl_.fanins(g)) dropLive(f);
    }
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
      if (forward.isTrue() != v) {
        conflict_ = static_cast<int>(g);
        return false;
      }
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
            if (value_[f].isUndef() && !assign(f, !ctrlIn, static_cast<int>(g))) return false;
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
    if (!assign(fanin, v, static_cast<int>(g))) return false;
    pending_.push_back(g);
    return true;
  }

  // Runs the nogood implications, then the gate rechecks, to a fixpoint.
  // On a conflict both queues are emptied and false returned.
  bool propagateFixpoint() {
    for (;;) {
      bool ok = true;
      if (!implied_.empty()) {
        const auto [lit, c] = implied_.back();
        implied_.pop_back();
        const NodeId n = litNode(lit);
        if (value_[n].isUndef()) {
          ++nogoodImplied_;
          ok = assign(n, litValue(lit), nogoodReason(c));
        } else if (!litTrue(lit)) {
          conflict_ = nogoodReason(c);
          ok = false;
        }
      } else if (!pending_.empty()) {
        const NodeId g = pending_.back();
        pending_.pop_back();
        ok = value_[g].isUndef() || examine(g);
      } else {
        return true;
      }
      if (!ok) {
        pending_.clear();
        implied_.clear();
        return false;
      }
    }
  }

  void undoTo(size_t mark) {
    while (trail_.size() > mark) {
      Event e = trail_.back();
      trail_.pop_back();
      if (e.kind == EventKind::kAssign) {
        // An unassigned gate holds its fanins live as the frontier gate did.
        if (frontier_.contains(e.node)) leaveFrontier(e.node);
        if (options_.successLearning) {
          if (live_[e.node] > 0) key_.flip(assignKey(e.node));
          if (projIndex_[e.node] >= 0) clearBit(assignedProj_.data(), projIndex_[e.node]);
        }
        value_[e.node] = l_Undef;
      } else {
        enterFrontier(e.node);
        if (options_.successLearning) {
          for (NodeId f : nl_.fanins(e.node)) addLive(f);
        }
      }
    }
  }

  // --- decisions ------------------------------------------------------------------

  // SCOAP controllability (Goldstein 1979), the cost estimate PODEM and FAN
  // backtrace through: cc_[2n + v] is roughly how many source assignments it
  // takes to justify value v on node n. A state source weighs 100 and an
  // input 1, so justification runs through the inputs, which the projection
  // drops, instead of pinning state bits. Saturates at kUncontrollable.
  static constexpr uint32_t kUncontrollable = UINT32_MAX;
  static constexpr uint32_t kInputCost = 1;
  static constexpr uint32_t kStateCost = 100;

  static uint32_t saturatingAdd(uint32_t a, uint32_t b) {
    return a > kUncontrollable - b ? kUncontrollable : a + b;
  }
  uint32_t controllability(NodeId n, bool v) const { return cc_[n * 2 + (v ? 1 : 0)]; }

  void initControllability() {
    cc_.assign(nl_.numNodes() * 2, 0);
    for (NodeId n : nl_.topologicalOrder()) {
      const GateNode& gate = nl_.node(n);
      uint32_t cost[2] = {0, 0};
      switch (gate.type) {
        case GateType::kConst0:
          cost[1] = kUncontrollable;
          break;
        case GateType::kConst1:
          cost[0] = kUncontrollable;
          break;
        case GateType::kInput:
          cost[0] = cost[1] = kInputCost;
          break;
        case GateType::kDff:
          cost[0] = cost[1] = kStateCost;
          break;
        case GateType::kBuf:
        case GateType::kNot: {
          const bool inverted = gate.type == GateType::kNot;
          cost[0] = controllability(gate.fanins[0], inverted);
          cost[1] = controllability(gate.fanins[0], !inverted);
          break;
        }
        case GateType::kAnd:
        case GateType::kNand:
        case GateType::kOr:
        case GateType::kNor: {
          // The controlled output needs the cheapest controlling fanin; the
          // other output needs every fanin non-controlling.
          const bool ctrlIn = (gate.type == GateType::kOr || gate.type == GateType::kNor);
          const bool inverted = (gate.type == GateType::kNand || gate.type == GateType::kNor);
          uint32_t cheapest = kUncontrollable;
          uint32_t all = 0;
          for (NodeId f : gate.fanins) {
            cheapest = std::min(cheapest, controllability(f, ctrlIn));
            all = saturatingAdd(all, controllability(f, !ctrlIn));
          }
          cost[ctrlIn != inverted] = saturatingAdd(cheapest, 1);
          cost[ctrlIn == inverted] = saturatingAdd(all, 1);
          break;
        }
        case GateType::kXor:
        case GateType::kXnor: {
          uint32_t sum = 1;
          for (NodeId f : gate.fanins) {
            sum = saturatingAdd(sum, std::min(controllability(f, false), controllability(f, true)));
          }
          cost[0] = cost[1] = sum;
          break;
        }
        case GateType::kMux: {
          const NodeId sel = gate.fanins[0];
          for (int v = 0; v < 2; ++v) {
            const uint32_t via0 =
                saturatingAdd(controllability(sel, false), controllability(gate.fanins[1], v));
            const uint32_t via1 =
                saturatingAdd(controllability(sel, true), controllability(gate.fanins[2], v));
            cost[v] = saturatingAdd(std::min(via0, via1), 1);
          }
          break;
        }
      }
      cc_[n * 2] = cost[0];
      cc_[n * 2 + 1] = cost[1];
    }
  }

  // Picks the branch node and first value for the lowest frontier gate. A
  // controlled AND-family gate is justified through the undecided fanin
  // cheapest to control (the first in fanin order on a tie); XOR/XNOR branch
  // on their first undecided fanin, a MUX on its select.
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
        NodeId best = kNoNode;
        for (NodeId f : gate.fanins) {
          if (value_[f].isUndef() &&
              (best == kNoNode || controllability(f, ctrlIn) < controllability(best, ctrlIn))) {
            best = f;
          }
        }
        if (best != kNoNode) {
          branchNode = best;
          firstValue = ctrlIn;
          return;
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
  // nodes, stopping at assigned non-frontier nodes (whose values it still
  // reads). That is exactly what a subsearch can read: examine() reads the
  // fanins of frontier gates, and assign() only ever assigns an unassigned
  // fanin, which then joins the frontier and exposes its own fanins. An assigned node outside the frontier is justified or a source,
  // so nothing below it is read again. Two states that agree on the cut
  // therefore run the same subsearch, whatever lies beyond it.
  //
  // The memo key is a 128-bit Zobrist signature of a slightly finer state:
  // the frontier plus the values of the LIVE assigned nodes. A node is live
  // while it is a frontier gate, or while one of its fanouts in the
  // objectives' fanin cone is unassigned or a frontier gate (live_ counts
  // those reasons). Every assigned node the cut walk reads is live — a
  // frontier gate, or a fanin of a cone gate the walk descended through —
  // so equal keys give equal cuts by induction over the walk: the key is
  // exact. Unlike the cut, liveness changes only next to the gate being
  // assigned or justified:
  //
  //  * a gate entering or leaving the frontier flips its zFrontier_ key and
  //    one unit of its own liveness;
  //  * a gate justified (removeFromFrontier) drops one unit from each
  //    fanin, and undoing that adds it back;
  //  * an assigned node's zAssign_ key is in key_ exactly while live_ > 0.
  //
  // So key_ costs O(1) per assignment and O(fanin) per justification, and a
  // probe reads it as it stands.

  void initZobrist() {
    // Deterministic keys: the engine must behave identically across runs.
    Rng rng(0xc0ffee5d00d1e5ull);
    zAssign_.resize(nl_.numNodes() * 2);
    zFrontier_.resize(nl_.numNodes());
    for (size_t i = 0; i < zAssign_.size(); ++i) zAssign_[i] = {rng.next(), rng.next()};
    for (size_t i = 0; i < zFrontier_.size(); ++i) zFrontier_[i] = {rng.next(), rng.next()};
  }

  // Counts, with no gate assigned, every cone gate's fanins as live. The
  // constants are assigned before the trail exists, so their keys enter
  // key_ here.
  void initLiveness(std::vector<NodeId> cone) {
    cone_ = std::move(cone);
    for (NodeId g : cone_) {
      if (isCombinational(nl_.type(g))) {
        for (NodeId f : nl_.fanins(g)) ++live_[f];
      }
    }
    for (NodeId n : cone_) {
      if (!value_[n].isUndef() && live_[n] > 0) key_.flip(assignKey(n));
    }
  }

  const Sig128& assignKey(NodeId n) const {
    return zAssign_[n * 2 + (value_[n].isTrue() ? 1 : 0)];
  }
  void addLive(NodeId n) {
    if (live_[n]++ == 0 && !value_[n].isUndef()) key_.flip(assignKey(n));
  }
  void dropLive(NodeId n) {
    if (--live_[n] == 0 && !value_[n].isUndef()) key_.flip(assignKey(n));
  }
  void enterFrontier(NodeId g) {
    frontier_.insert(g);
    if (!options_.successLearning) return;
    key_.flip(zFrontier_[g]);
    addLive(g);
  }
  void leaveFrontier(NodeId g) {
    frontier_.erase(g);
    if (!options_.successLearning) return;
    key_.flip(zFrontier_[g]);
    dropLive(g);
  }

  // key_ recomputed from scratch, liveness included: the drift oracle
  // behind AllSatOptions::memoCheckExact.
  Sig128 recomputedKey() const {
    std::vector<bool> live(nl_.numNodes(), false);
    Sig128 sig;
    for (NodeId g : cone_) {
      if (!isCombinational(nl_.type(g))) continue;
      if (frontier_.contains(g)) {
        sig.flip(zFrontier_[g]);
        live[g] = true;
      }
      if (value_[g].isUndef() || frontier_.contains(g)) {
        for (NodeId f : nl_.fanins(g)) live[f] = true;
      }
    }
    for (NodeId n : cone_) {
      if (live[n] && !value_[n].isUndef()) sig.flip(assignKey(n));
    }
    return sig;
  }

  // Whether the cut walk descends below `n`: through frontier gates and
  // unassigned gates, never below an assigned non-frontier node.
  bool onCutInterior(NodeId n) const {
    return isCombinational(nl_.type(n)) && (value_[n].isUndef() || frontier_.contains(n));
  }

  // The cut key — frontier + cut assignment serialized into a canonical
  // byte string by walking the cut. key_ is finer, so two states with equal
  // key_ have equal cut keys unless the 128-bit hash collided: the collision
  // oracle behind AllSatOptions::memoCheckExact.
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

  // --- conflict learning -----------------------------------------------------------
  //
  // Every assignment records its depth (the decisions on the current path)
  // and its reason: the gate whose examine() forced it, or the nogood that
  // implied it; objectives and decisions have none. A failed branch is
  // analysed to the first UIP of its depth, as in CDCL: starting from the
  // conflict (a gate whose forward value contradicts its required value, or
  // a nogood made all true), the latest current-depth literal is replaced by
  // its reason's literals until one current-depth literal is left. The
  // result is stored as a nogood: a set of node literals no evaluation of
  // the netlist makes true together under this root's objectives (the
  // objective-level literals are left out, so the store is cleared with
  // every root). A nogood with one open literal implies its opposite, and an
  // implied gate joins the frontier like any required value.
  //
  // A nogood only prunes evaluations that do not exist, so no search state's
  // projected solution set changes: the memo key stays exact, and a memo
  // hit's subgraph is still the answer for every state with that key
  // (namesAssigned() covers the one hit it cannot be attached to).

  static constexpr int kNoReason = -1;
  static int nogoodReason(uint32_t c) { return -static_cast<int>(c) - 2; }
  static bool isNogoodReason(int reason) { return reason <= -2; }
  static uint32_t nogoodOf(int reason) { return static_cast<uint32_t>(-reason - 2); }

  bool litTrue(NodeLit l) const { return value_[litNode(l)].raw() == (l & 1); }
  bool litFalse(NodeLit l) const { return value_[litNode(l)].raw() == ((l & 1) ^ 1); }

  // Visits the nogoods watching `p`, which just became true: moves each
  // watch to a literal that is not true, queues the implication of a nogood
  // left with one open literal, and returns false (conflict_ set) for one
  // made all true.
  bool checkWatches(NodeLit p) {
    for (uint32_t* link = &watchHead_[p]; *link != kNoWatch;) {
      const uint32_t w = *link;
      const uint32_t c = watchPool_[w].nogood;
      std::span<NodeLit> lits = nogoods_[c];
      if (lits.size() == 1) {
        conflict_ = nogoodReason(c);
        return false;
      }
      if (lits[0] == p) std::swap(lits[0], lits[1]);
      const NodeLit other = lits[0];
      if (!litFalse(other)) {
        size_t k = 2;
        while (k < lits.size() && litTrue(lits[k])) ++k;
        if (k < lits.size()) {
          // Move the watch: unlink it here, link it into lits[k]'s list.
          std::swap(lits[1], lits[k]);
          *link = watchPool_[w].next;
          watchPool_[w].next = watchHead_[lits[1]];
          watchHead_[lits[1]] = w;
          continue;
        }
        if (litTrue(other)) {
          conflict_ = nogoodReason(c);
          return false;
        }
        implied_.push_back({other ^ 1, c});
      }
      link = &watchPool_[w].next;
    }
    return true;
  }

  // Calls f(node) for every literal of `reason` other than `implied`'s:
  // what forced `implied`, or with implied == kNoNode, what made `reason`
  // a conflict. A gate's literals are read from its type and the current
  // values, which have not changed since it forced or conflicted.
  template <typename F>
  void forEachReasonNode(int reason, NodeId implied, F&& f) const {
    if (isNogoodReason(reason)) {
      for (NodeLit l : nogoods_[nogoodOf(reason)]) {
        if (litNode(l) != implied) f(litNode(l));
      }
      return;
    }
    const NodeId g = static_cast<NodeId>(reason);
    const GateNode& gate = nl_.node(g);
    f(g);
    switch (gate.type) {
      case GateType::kBuf:
      case GateType::kNot:
        if (implied == kNoNode) f(gate.fanins[0]);
        return;
      case GateType::kAnd:
      case GateType::kNand:
      case GateType::kOr:
      case GateType::kNor: {
        const bool ctrlIn = (gate.type == GateType::kOr || gate.type == GateType::kNor);
        const bool inverted = (gate.type == GateType::kNand || gate.type == GateType::kNor);
        if (implied != kNoNode) {
          // A non-controlled output forces each fanin alone; a controlled
          // one forces its last open fanin once every other is assigned.
          if (value_[g].isTrue() == (ctrlIn != inverted)) {
            for (NodeId fi : gate.fanins) {
              if (fi != implied) f(fi);
            }
          }
          return;
        }
        // A controlled forward value takes one controlling fanin (the
        // shallowest), a non-controlled one every fanin.
        NodeId ctrl = kNoNode;
        for (NodeId fi : gate.fanins) {
          if (!value_[fi].isUndef() && value_[fi].isTrue() == ctrlIn &&
              (ctrl == kNoNode || why_[fi].depth < why_[ctrl].depth)) {
            ctrl = fi;
          }
        }
        if (ctrl != kNoNode) {
          f(ctrl);
        } else {
          for (NodeId fi : gate.fanins) f(fi);
        }
        return;
      }
      case GateType::kXor:
      case GateType::kXnor:
        for (NodeId fi : gate.fanins) {
          if (fi != implied) f(fi);
        }
        return;
      case GateType::kMux: {
        const NodeId sel = gate.fanins[0];
        if (implied == kNoNode) {
          if (value_[sel].isUndef()) {
            f(gate.fanins[1]);
            f(gate.fanins[2]);
          } else {
            f(sel);
            f(gate.fanins[value_[sel].isTrue() ? 2 : 1]);
          }
        } else if (implied == sel) {
          f(gate.fanins[1]);
          f(gate.fanins[2]);
        } else {
          f(sel);
        }
        return;
      }
      default:
        PRESAT_CHECK(false) << "reason gate " << gateTypeName(gate.type) << " is not combinational";
    }
  }

  // Analyses the conflict in conflict_ to the first UIP of the current
  // depth and stores the nogood, unless it is the nogood that raised the
  // conflict (it has one current-depth literal, so analysis would return
  // it) or has no current-depth literal. Either nogood is remembered as
  // missed (see assertMissed).
  void learnFromConflict() {
    if (seen_.empty()) seen_.assign(nl_.numNodes(), 0);
    if (isNogoodReason(conflict_)) rememberMissed(nogoodOf(conflict_));
    learnt_.clear();
    int open = 0;
    auto visit = [this, &open](NodeId n) {
      if (seen_[n] != 0) return;
      seen_[n] = 1;
      seenNodes_.push_back(n);
      if (why_[n].depth == depth_) {
        ++open;
      } else if (why_[n].depth > 0) {
        learnt_.push_back(nodeLit(n, value_[n].isTrue()));
      }
    };
    forEachReasonNode(conflict_, kNoNode, visit);
    // A nogood with one current-depth literal would be learned again as it
    // is, so the trail walk is skipped.
    if (isNogoodReason(conflict_) && open == 1) open = 0;
    NodeId uip = kNoNode;
    // Every current-depth literal lies in the trail after the depth's
    // decision, and each reason's literals lie before the literal they forced.
    for (size_t i = trail_.size(); open > 0;) {
      const Event& e = trail_[--i];
      if (e.kind != EventKind::kAssign || seen_[e.node] == 0 || why_[e.node].depth != depth_) {
        continue;
      }
      if (--open == 0) {
        uip = e.node;
      } else {
        PRESAT_DCHECK(why_[e.node].reason != kNoReason);
        forEachReasonNode(why_[e.node].reason, e.node, visit);
      }
    }
    for (NodeId n : seenNodes_) seen_[n] = 0;
    seenNodes_.clear();
    if (uip == kNoNode) return;
    learnt_.push_back(nodeLit(uip, value_[uip].isTrue()));
    // The UIP, open once the branch is undone, and the deepest other
    // literal are the watches.
    std::swap(learnt_.front(), learnt_.back());
    for (size_t k = 2; k < learnt_.size(); ++k) {
      if (why_[litNode(learnt_[k])].depth > why_[litNode(learnt_[1])].depth) {
        std::swap(learnt_[1], learnt_[k]);
      }
    }
    rememberMissed(storeNogood());
  }

  // The search never backjumps, so a nogood learned at one depth, or one
  // that raised a conflict with a single literal of that depth, has one
  // open literal once the branch is undone while its other watch stays
  // true: the watches do not see it. Such nogoods are remembered, and
  // assertMissed() implies them where they are unit.
  void rememberMissed(uint32_t c) {
    if (missedFlag_.size() <= c) missedFlag_.resize(c + 1, 0);
    if (missedFlag_[c] != 0) return;
    missedFlag_[c] = 1;
    missed_.push_back(c);
  }

  // Queues the implication of every remembered nogood that has one open
  // literal and no false one, forgets those with two open literals (their
  // watches see them again), and propagates. Returns false on a conflict.
  bool assertMissed() {
    for (size_t i = 0; i < missed_.size();) {
      const uint32_t c = missed_[i];
      NodeLit open = 0;
      int numOpen = 0;
      bool satisfied = false;
      for (NodeLit l : nogoods_[c]) {
        if (litFalse(l)) {
          satisfied = true;
          break;
        }
        if (!litTrue(l)) {
          ++numOpen;
          open = l;
        }
      }
      if (!satisfied && numOpen >= 2) {
        missedFlag_[c] = 0;
        missed_[i] = missed_.back();
        missed_.pop_back();
        continue;
      }
      if (!satisfied && numOpen == 0) {
        conflict_ = nogoodReason(c);
        implied_.clear();
        return false;
      }
      if (!satisfied) implied_.push_back({open ^ 1, c});
      ++i;
    }
    return propagateFixpoint();
  }

  uint32_t storeNogood() {
    if (watchHead_.empty()) watchHead_.assign(2 * static_cast<size_t>(nl_.numNodes()), kNoWatch);
    const uint64_t before = nogoodBytes();
    const uint32_t c = nogoods_.add(learnt_);
    for (size_t i = 0; i < std::min<size_t>(2, learnt_.size()); ++i) {
      watchPool_.push_back({c, watchHead_[learnt_[i]]});
      watchHead_[learnt_[i]] = static_cast<uint32_t>(watchPool_.size() - 1);
    }
    ++nogoodsStored_;
    nogoodLedger_.charge(nogoodBytes() - before);
    if constexpr (kAuditLevel == AuditLevel::kFull) {
      if (nogoodsAudited_ < kNogoodAuditsPerQuery) {
        ++nogoodsAudited_;
        NodeCube nogood;
        for (NodeLit l : learnt_) nogood.emplace_back(litNode(l), litValue(l));
        PRESAT_CHECK_AUDIT(auditNogood(nl_, *curObjectives_, nogood));
      }
    }
    return c;
  }

  uint64_t nogoodBytes() const {
    return nogoods_.bytes() + watchHead_.capacity() * sizeof(uint32_t) +
           watchPool_.capacity() * sizeof(Watch);
  }

  // Empties the store and its watch lists for the next root.
  void clearNogoods() {
    for (uint32_t c = 0; c < nogoods_.size(); ++c) {
      std::span<const NodeLit> lits = nogoods_[c];
      watchHead_[lits[0]] = kNoWatch;
      if (lits.size() > 1) watchHead_[lits[1]] = kNoWatch;
    }
    nogoods_.clear();
    watchPool_.clear();
    missed_.clear();
    std::fill(missedFlag_.begin(), missedFlag_.end(), 0);
  }

  // --- search -------------------------------------------------------------------------

  // Counts the conflict in conflict_, drops what propagation left queued and
  // learns from it.
  void onConflict() {
    ++stats_.conflicts;
    if (governor_ != nullptr) governor_->countConflicts(1);
    pending_.clear();
    implied_.clear();
    learnFromConflict();
  }

  // The projection sources a subgraph names. The search below a state only
  // assigns what the state leaves unassigned, but a nogood may imply a node
  // far from the frontier, and another path to the same memo key may have
  // assigned that node already (outside its key, which holds only the
  // nodes the subsearch could read without nogoods). The nogood's
  // implication holds on both paths, so the solution set is the same, but
  // the hitting path would assign the source twice: such a hit is searched
  // again instead. names_ holds, per graph node, a bitset of the sources
  // its paths name; assignedProj_ those the current path assigns.
  static void setBit(uint64_t* bits, int i) { bits[i >> 6] |= uint64_t{1} << (i & 63); }
  static void clearBit(uint64_t* bits, int i) { bits[i >> 6] &= ~(uint64_t{1} << (i & 63)); }

  bool namesAssigned(int child) const {
    if (child < 0) return false;
    const uint64_t* names = names_.data() + static_cast<size_t>(child) * projWords_;
    for (size_t w = 0; w < projWords_; ++w) {
      if ((names[w] & assignedProj_[w]) != 0) return true;
    }
    return false;
  }

  // Appends the names of the node just added to the graph.
  void recordNames(const SolutionGraph::Node& node) {
    const size_t at = names_.size();
    names_.resize(at + projWords_, 0);
    for (const SolutionGraph::Branch& b : node.branch) {
      for (Lit l : b.newLits) setBit(names_.data() + at, l.var());
      if (b.child >= 0) {
        for (size_t w = 0; w < projWords_; ++w) {
          names_[at + w] |= names_[static_cast<size_t>(b.child) * projWords_ + w];
        }
      }
    }
    graphLedger_.charge(projWords_ * sizeof(uint64_t));
  }

  // Whether the subgraph `child` covers every completion of the projection
  // sources its paths leave open.
  bool coversEverything(int child) const {
    if (child == SolutionGraph::kSuccess) return true;
    return child >= 0 && full_[static_cast<size_t>(child)] != 0;
  }

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
    // Implications the watches missed hold in this state: the memo key
    // and the branch see them.
    if (!missed_.empty()) {
      if (!assertMissed()) {
        onConflict();
        return SolutionGraph::kFail;
      }
      if (frontier_.empty()) return SolutionGraph::kSuccess;
    }
    const Sig128 key = key_;
    if (options_.successLearning) {
      if (options_.memoCheckExact) {
        PRESAT_CHECK(key == recomputedKey())
            << "memo key drifted: the maintained signature differs from a recomputed one";
      }
      MemoTable::Slot* hit = memo_.find(key);
      if (hit != nullptr && namesAssigned(hit->child)) hit = nullptr;
      if (hit != nullptr) {
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
    int subsumedBy = SolutionGraph::kFail;
    ++depth_;
    for (int b = 0; b < 2; ++b) {
      bool val = (b == 0) ? firstValue : !firstValue;
      size_t mark = trail_.size();
      LitVec newProj;
      curNewProj_ = &newProj;
      bool consistent = assign(branchNode, val, kNoReason) && propagateFixpoint();
      int child = SolutionGraph::kFail;
      if (consistent) {
        child = solveState();
      } else {
        onConflict();
      }
      undoTo(mark);
      // Projected subsumption: a branch that fixes no projection source and
      // leads to a subgraph covering every completion covers this whole
      // node, so the other branch is never searched.
      if (newProj.empty() && coversEverything(child)) {
        subsumedBy = child;
        break;
      }
      node.branch[b].child = child;
      node.branch[b].newLits = std::move(newProj);
    }
    --depth_;

    int index;
    if (subsumedBy != SolutionGraph::kFail) {
      ++subsumed_;
      index = subsumedBy;
    } else if (node.branch[0].child == SolutionGraph::kFail &&
               node.branch[1].child == SolutionGraph::kFail) {
      index = SolutionGraph::kFail;
    } else {
      graphLedger_.charge(
          sizeof(SolutionGraph::Node) +
          (node.branch[0].newLits.capacity() + node.branch[1].newLits.capacity()) *
              sizeof(Lit));
      index = graph_.addNode(node);
      if (options_.successLearning) recordNames(node);
      // Covers every completion: a split on one projection source whose
      // branches add only that source's literal and both cover everything.
      full_.push_back(projIndex_[branchNode] >= 0 && node.branch[0].newLits.size() == 1 &&
                      node.branch[1].newLits.size() == 1 &&
                      coversEverything(node.branch[0].child) &&
                      coversEverything(node.branch[1].child));
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
  MemoryLedger nogoodLedger_;     // nogood store bytes, charged as it grows
  const FanoutLists& fanouts_;
  std::vector<lbool> value_;
  std::vector<int> projIndex_;
  int numProjection_;  // projected index space: [0, projectionSources.size())
  size_t projWords_;   // 64-bit words per bitset over that space
  std::vector<uint32_t> cc_;  // controllability: cc_[2n + v]

  Frontier frontier_;  // unjustified gates, ordered by topological position
  std::vector<NodeId> pending_;
  std::vector<Event> trail_;
  LitVec* curNewProj_ = nullptr;
  const NodeCube* curObjectives_ = nullptr;

  // Conflict learning (see above): per node, the depth and reason of its
  // assignment; the nogoods and, per node literal, the nogoods watching it.
  struct Why {
    uint32_t depth = 0;
    int reason = kNoReason;  // gate id, nogoodReason(c) or kNoReason
  };
  uint32_t depth_ = 0;
  std::vector<Why> why_;
  int conflict_ = kNoReason;  // the last conflict, in the same encoding
  NogoodStore nogoods_;
  // Watch lists: per node literal, the first of a linked list of watches
  // in watchPool_; a nogood's two watches sit in the lists of its first two
  // literals. Allocated at the first nogood.
  struct Watch {
    uint32_t nogood;
    uint32_t next;  // kNoWatch ends the list
  };
  static constexpr uint32_t kNoWatch = UINT32_MAX;
  std::vector<uint32_t> watchHead_;
  std::vector<Watch> watchPool_;
  std::vector<std::pair<NodeLit, uint32_t>> implied_;  // (literal to assign, nogood)
  std::vector<NodeLit> learnt_;
  std::vector<uint8_t> seen_;  // allocated at the first conflict
  std::vector<NodeId> seenNodes_;
  std::vector<uint32_t> missed_;     // nogoods the watches may not see
  std::vector<uint8_t> missedFlag_;  // per nogood: in missed_
  uint64_t nogoodsStored_ = 0;
  uint64_t nogoodImplied_ = 0;
  uint64_t nogoodsAudited_ = 0;

  // Zobrist tables: zAssign_[2n + v] keys "node n assigned value v",
  // zFrontier_[n] keys "node n is an unjustified frontier gate".
  std::vector<Sig128> zAssign_;
  std::vector<Sig128> zFrontier_;
  std::vector<NodeId> cone_;     // fanin cone of every root's objectives
  std::vector<uint32_t> live_;   // per node: reasons it is live (see above)
  Sig128 key_;  // zFrontier_ of the frontier ^ zAssign_ of the live assigned nodes

  MemoTable memo_;
  std::unordered_map<Sig128, std::string, Sig128Hash> exactKeys_;  // memoCheckExact only
  uint32_t memoGen_ = 0;

  SolutionGraph graph_;
  std::vector<uint8_t> full_;  // per graph node: coversEverything()
  std::vector<uint64_t> names_;         // per graph node: sources its paths name
  std::vector<uint64_t> assignedProj_;  // sources the current path assigns
  uint64_t subsumed_ = 0;      // search nodes answered by subsumption
  AllSatStats stats_;
  Metrics metrics_;
  Histogram frontierSizes_;  // merged into metrics_ once, in run()

  // exactKey() scratch (memoCheckExact only)
  std::vector<NodeId> scratchStack_;
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
