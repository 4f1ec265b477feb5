#include "sat/solver.hpp"

#include <algorithm>
#include <cmath>

#include "base/check.hpp"
#include "govern/faults.hpp"
#include "sat/proof.hpp"

namespace presat {

namespace {

// Finite-subsequence generator for Luby restarts (MiniSat's formulation).
double luby(double y, int x) {
  int size, seq;
  for (size = 1, seq = 0; size < x + 1; seq++, size = 2 * size + 1) {
  }
  while (size - 1 != x) {
    size = (size - 1) >> 1;
    seq--;
    x = x % size;
  }
  return std::pow(y, seq);
}

constexpr double kRestartBase = 100.0;

// Learnt clauses with LBD at or below this are "glue": kept forever, like
// binaries. Two is the classic Glucose threshold — a glue clause bridges
// exactly one pair of decision levels.
constexpr uint32_t kGlueLbd = 2;

// Conflict-cadence reduceDB schedule (Glucose style): the first sweep after
// this many conflicts in a call, each subsequent interval stretched by the
// increment. The size trigger (maxLearnts_) alone is not enough — its
// per-restart growth outruns the Luby schedule on long single calls, so
// without a cadence a hard solve would never reduce at all.
constexpr uint64_t kReduceDBFirst = 2000;
constexpr uint64_t kReduceDBInc = 300;

}  // namespace

Solver::Solver() = default;
Solver::~Solver() = default;

// ---------------------------------------------------------------------------
// Problem construction
// ---------------------------------------------------------------------------

Var Solver::newVar() {
  Var v = static_cast<Var>(assigns_.size());
  assigns_.push_back(l_Undef);
  polarity_.push_back(false);
  polaritySeeded_.push_back(0);
  occPos_.push_back(0);
  occNeg_.push_back(0);
  reason_.push_back(kNullClauseRef);
  level_.push_back(0);
  activity_.push_back(0.0);
  heapIndex_.push_back(-1);
  seen_.push_back(0);
  watches_.emplace_back();  // positive literal
  watches_.emplace_back();  // negative literal
  heapInsert(v);
  return v;
}

bool Solver::addClause(const LitVec& lits) {
  PRESAT_CHECK(!enumerating_ || decisionLevel() == 0)
      << "an enumeration session takes clauses only at level 0";
  if (!ok_) return false;

  LitVec c = lits;
  std::sort(c.begin(), c.end());
  c.erase(std::unique(c.begin(), c.end()), c.end());
  for (Lit l : c) PRESAT_CHECK(l.var() >= 0 && l.var() < numVars()) << "unknown variable in clause";
  // A clause the kept trail falsifies (a blocking clause) joins by a
  // backjump to its assertion level below; any other clause joins at level 0.
  if (decisionLevel() > 0 &&
      !std::all_of(c.begin(), c.end(), [this](Lit l) { return value(l).isFalse(); })) {
    cancelUntil(0);
  }
  LitVec cleaned;
  for (size_t i = 0; i < c.size(); ++i) {
    if (i + 1 < c.size() && c[i].var() == c[i + 1].var()) return true;  // tautology
    lbool v = value(c[i]);
    if (v.isTrue()) return true;  // already satisfied at level 0
    if (!v.isFalse() || level_[static_cast<size_t>(c[i].var())] > 0) cleaned.push_back(c[i]);
  }

  // Occurrence-count polarity priors: decide a fresh variable toward the
  // polarity its clauses mention more often (phase saving takes over once
  // the search has assigned it at least once).
  for (Lit l : cleaned) {
    if (l.sign()) {
      ++occNeg_[static_cast<size_t>(l.var())];
    } else {
      ++occPos_[static_cast<size_t>(l.var())];
    }
  }

  if (cleaned.empty()) {
    ok_ = false;
    // RUP: every literal of the added clause is already false at level 0.
    if (proofLog_ != nullptr) proofLog_->addEmpty();
    return false;
  }
  // On a falsified clause, backjump to its assertion level: the deepest
  // literal goes first and the next deepest second (the watch pair). One
  // literal at the deepest level is asserted at the second-deepest level;
  // several deepest literals are all unassigned one level below theirs.
  bool asserting = false;
  if (decisionLevel() > 0) {
    auto deeper = [this](Lit a, Lit b) {
      return level_[static_cast<size_t>(a.var())] > level_[static_cast<size_t>(b.var())];
    };
    std::partial_sort(cleaned.begin(), cleaned.begin() + std::min<size_t>(2, cleaned.size()),
                      cleaned.end(), deeper);
    const int deepest = level_[static_cast<size_t>(cleaned[0].var())];
    const int second = cleaned.size() == 1 ? 0 : level_[static_cast<size_t>(cleaned[1].var())];
    asserting = second < deepest;
    cancelUntil(asserting ? second : deepest - 1);
  }
  if (cleaned.size() == 1) {
    uncheckedEnqueue(cleaned[0], kNullClauseRef);
    ok_ = (propagate() == kNullClauseRef);
    if (!ok_ && proofLog_ != nullptr) proofLog_->addEmpty();
    return ok_;
  }
  ClauseRef clause = allocClause(cleaned, /*learnt=*/false);
  attachClause(clause);
  if (asserting) uncheckedEnqueue(cleaned[0], clause);
  return true;
}

bool Solver::addCnf(const Cnf& cnf) {
  while (numVars() < cnf.numVars()) newVar();
  for (const Clause& c : cnf.clauses()) {
    if (!addClause(c)) return false;
  }
  return true;
}

ClauseRef Solver::allocClause(const LitVec& lits, bool learnt) {
  ClauseRef clause = arena_.alloc(lits.data(), static_cast<uint32_t>(lits.size()), learnt);
  clauses_.push_back(clause);
  if (governor_ != nullptr) {
    arenaLedger_.charge(arena_.clauseBytes(clause));
    // Injected allocation failure: modeled as hitting the memory ceiling —
    // the trip latches and the search unwinds at its next poll.
    if (faults::maybeFail("sat.alloc")) governor_->trip(Outcome::kMemory);
  }
  if (learnt) {
    ++numLearnts_;
    ++stats_.learntClauses;
  } else {
    ++numOriginal_;
  }
  stats_.dbClausesPeak = std::max<uint64_t>(stats_.dbClausesPeak, clauses_.size());
  return clause;
}

void Solver::attachClause(ClauseRef c) {
  PRESAT_DCHECK(arena_.size(c) >= 2);
  const Lit* lits = arena_.lits(c);
  watches_[static_cast<size_t>((~lits[0]).code())].push_back({c, lits[1]});
  watches_[static_cast<size_t>((~lits[1]).code())].push_back({c, lits[0]});
}

void Solver::detachClause(ClauseRef c) {
  const Lit* lits = arena_.lits(c);
  for (int w = 0; w < 2; ++w) {
    auto& list = watches_[static_cast<size_t>((~lits[w]).code())];
    for (size_t i = 0; i < list.size(); ++i) {
      if (list[i].clause == c) {
        list[i] = list.back();
        list.pop_back();
        break;
      }
    }
  }
}

bool Solver::locked(ClauseRef c) const {
  Lit first = arena_.lit(c, 0);
  return reason_[static_cast<size_t>(first.var())] == c && value(first).isTrue();
}

void Solver::setGovernor(Governor* governor) {
  governor_ = governor;
  arenaLedger_.attach(governor);
  if (governor != nullptr) {
    // Clauses added before attach (the original problem) join the pool too,
    // so the ceiling covers the whole arena, not just post-attach growth.
    for (ClauseRef c : clauses_) arenaLedger_.charge(arena_.clauseBytes(c));
  }
}

void Solver::removeClause(ClauseRef c) {
  if (governor_ != nullptr) arenaLedger_.release(arena_.clauseBytes(c));
  detachClause(c);
  if (locked(c)) reason_[static_cast<size_t>(arena_.lit(c, 0).var())] = kNullClauseRef;
  if (arena_.learnt(c)) {
    if (proofLog_ != nullptr) proofLog_->deleteClause(arena_.lits(c), arena_.size(c));
    --numLearnts_;
    ++stats_.deletedClauses;
  } else {
    --numOriginal_;
  }
  arena_.free(c);
}

void Solver::sweepDeadClauses() {
  size_t j = 0;
  for (size_t i = 0; i < clauses_.size(); ++i) {
    if (!arena_.dead(clauses_[i])) clauses_[j++] = clauses_[i];
  }
  clauses_.resize(j);
}

void Solver::maybeGarbageCollect() {
  // A quarter of the arena behind freed clauses triggers compaction — rare
  // enough to amortize, frequent enough that the resident set tracks the
  // live clause database instead of its high-water mark.
  if (arena_.wastedWords() * 4 > arena_.sizeWords()) garbageCollect();
}

void Solver::garbageCollect() {
  ++stats_.arenaCompactions;
  // Injected compaction failure: modeled as hitting the memory ceiling. The
  // compaction itself still completes (the arena stays consistent); the trip
  // latches and the search unwinds at its next governor poll.
  if (faults::maybeFail("sat.arena.compact") && governor_ != nullptr) {
    governor_->trip(Outcome::kMemory);
  }
  ClauseArena to;
  to.reserveWords(arena_.sizeWords() - arena_.wastedWords());
  // clauses_ relocates first so the new arena preserves insertion order —
  // together with the index tie-break in reduceDB this keeps every retention
  // decision independent of when compactions happen.
  for (ClauseRef& c : clauses_) arena_.reloc(c, to);
  for (ClauseRef& c : enumUnitReasons_) arena_.reloc(c, to);
  for (auto& list : watches_) {
    for (Watcher& w : list) arena_.reloc(w.clause, to);
  }
  for (ClauseRef& r : reason_) {
    if (r != kNullClauseRef) arena_.reloc(r, to);
  }
  arena_ = std::move(to);
}

// ---------------------------------------------------------------------------
// Trail & propagation
// ---------------------------------------------------------------------------

void Solver::uncheckedEnqueue(Lit l, ClauseRef from) {
  size_t v = static_cast<size_t>(l.var());
  PRESAT_DCHECK(assigns_[v].isUndef());
  assigns_[v] = lbool(!l.sign());
  level_[v] = decisionLevel();
  reason_[v] = from;
  trail_.push_back(l);
}

ClauseRef Solver::propagate() {
  ClauseRef conflict = kNullClauseRef;
  while (qhead_ < static_cast<int>(trail_.size())) {
    Lit p = trail_[static_cast<size_t>(qhead_++)];
    ++stats_.propagations;
    auto& ws = watches_[static_cast<size_t>(p.code())];
    size_t i = 0, j = 0;
    while (i < ws.size()) {
      Watcher w = ws[i];
      if (value(w.blocker).isTrue()) {
        ws[j++] = ws[i++];
        continue;
      }
      ClauseRef cref = w.clause;
      Lit* lits = arena_.lits(cref);
      ++i;
      Lit falseLit = ~p;
      if (lits[0] == falseLit) std::swap(lits[0], lits[1]);
      PRESAT_DCHECK(lits[1] == falseLit);
      Lit first = lits[0];
      Watcher keep{cref, first};
      if (first != w.blocker && value(first).isTrue()) {
        ws[j++] = keep;
        continue;
      }
      // Find a new literal to watch.
      const uint32_t size = arena_.size(cref);
      bool rewatched = false;
      for (uint32_t k = 2; k < size; ++k) {
        if (!value(lits[k]).isFalse()) {
          std::swap(lits[1], lits[k]);
          watches_[static_cast<size_t>((~lits[1]).code())].push_back(keep);
          rewatched = true;
          break;
        }
      }
      if (rewatched) continue;
      // Clause is unit or conflicting under the current assignment.
      ws[j++] = keep;
      if (value(first).isFalse()) {
        conflict = cref;
        qhead_ = static_cast<int>(trail_.size());
        while (i < ws.size()) ws[j++] = ws[i++];
      } else {
        uncheckedEnqueue(first, cref);
      }
    }
    ws.resize(j);
    if (conflict != kNullClauseRef) break;
  }
  return conflict;
}

void Solver::cancelUntil(int targetLevel) {
  if (decisionLevel() <= targetLevel) return;
  int bound = trailLim_[static_cast<size_t>(targetLevel)];
  for (int i = static_cast<int>(trail_.size()) - 1; i >= bound; --i) {
    size_t v = static_cast<size_t>(trail_[static_cast<size_t>(i)].var());
    polarity_[v] = assigns_[v].isTrue();  // phase saving
    polaritySeeded_[v] = 1;
    assigns_[v] = l_Undef;
    reason_[v] = kNullClauseRef;
    insertVarOrder(static_cast<Var>(v));
  }
  trail_.resize(static_cast<size_t>(bound));
  trailLim_.resize(static_cast<size_t>(targetLevel));
  levelFlipped_.resize(static_cast<size_t>(targetLevel));
  qhead_ = bound;
}

// ---------------------------------------------------------------------------
// Conflict analysis
// ---------------------------------------------------------------------------

uint32_t Solver::computeLbd(const LitVec& lits) {
  ++lbdStampGen_;
  uint32_t distinct = 0;
  for (Lit l : lits) {
    int lvl = level_[static_cast<size_t>(l.var())];
    if (lvl <= 0) continue;
    if (lbdStamp_.size() <= static_cast<size_t>(lvl)) {
      lbdStamp_.resize(static_cast<size_t>(lvl) + 1, 0);
    }
    if (lbdStamp_[static_cast<size_t>(lvl)] != lbdStampGen_) {
      lbdStamp_[static_cast<size_t>(lvl)] = lbdStampGen_;
      ++distinct;
    }
  }
  return distinct;
}

void Solver::analyze(ClauseRef conflict, LitVec& outLearnt, int& outBtLevel) {
  auto abstractLevel = [this](Var v) -> uint32_t {
    return 1u << (level_[static_cast<size_t>(v)] & 31);
  };

  outLearnt.clear();
  outLearnt.push_back(kUndefLit);  // slot for the asserting literal
  int pathCount = 0;
  Lit p = kUndefLit;
  int index = static_cast<int>(trail_.size()) - 1;
  ClauseRef reasonClause = conflict;

  do {
    PRESAT_DCHECK(reasonClause != kNullClauseRef);
    if (arena_.learnt(reasonClause)) {
      claBumpActivity(reasonClause);
      // Used-recently bit: a learnt clause that participates in conflict
      // analysis earns one round of immunity in the next reduceDB sweep.
      arena_.setUsed(reasonClause, true);
    }
    const Lit* lits = arena_.lits(reasonClause);
    const uint32_t size = arena_.size(reasonClause);
    uint32_t start = (p == kUndefLit) ? 0 : 1;
    for (uint32_t j = start; j < size; ++j) {
      Lit q = lits[j];
      size_t v = static_cast<size_t>(q.var());
      if (!seen_[v] && level_[v] > 0) {
        varBumpActivity(q.var());
        seen_[v] = 1;
        if (level_[v] >= decisionLevel()) {
          ++pathCount;
        } else {
          outLearnt.push_back(q);
        }
      }
    }
    // Walk back to the next marked literal on the trail.
    while (!seen_[static_cast<size_t>(trail_[static_cast<size_t>(index--)].var())]) {
    }
    p = trail_[static_cast<size_t>(index + 1)];
    reasonClause = reason_[static_cast<size_t>(p.var())];
    seen_[static_cast<size_t>(p.var())] = 0;
    --pathCount;
  } while (pathCount > 0);
  outLearnt[0] = ~p;

  // Conflict-clause minimization: drop literals implied by the rest.
  analyzeToClear_.assign(outLearnt.begin(), outLearnt.end());
  uint32_t levels = 0;
  for (size_t i = 1; i < outLearnt.size(); ++i) levels |= abstractLevel(outLearnt[i].var());
  size_t i, j;
  for (i = j = 1; i < outLearnt.size(); ++i) {
    if (reason_[static_cast<size_t>(outLearnt[i].var())] == kNullClauseRef ||
        !litRedundant(outLearnt[i], levels)) {
      outLearnt[j++] = outLearnt[i];
    }
  }
  stats_.minimizedLits += i - j;
  outLearnt.resize(j);

  // Determine the backjump level and move its literal to position 1.
  if (outLearnt.size() == 1) {
    outBtLevel = 0;
  } else {
    size_t maxI = 1;
    for (size_t k = 2; k < outLearnt.size(); ++k) {
      if (level_[static_cast<size_t>(outLearnt[k].var())] >
          level_[static_cast<size_t>(outLearnt[maxI].var())]) {
        maxI = k;
      }
    }
    std::swap(outLearnt[1], outLearnt[maxI]);
    outBtLevel = level_[static_cast<size_t>(outLearnt[1].var())];
  }

  for (Lit l : analyzeToClear_) seen_[static_cast<size_t>(l.var())] = 0;
}

bool Solver::litRedundant(Lit p, uint32_t abstractLevels) {
  auto abstractLevel = [this](Var v) -> uint32_t {
    return 1u << (level_[static_cast<size_t>(v)] & 31);
  };
  analyzeStack_.clear();
  analyzeStack_.push_back(p);
  size_t top = analyzeToClear_.size();
  while (!analyzeStack_.empty()) {
    Lit q = analyzeStack_.back();
    analyzeStack_.pop_back();
    ClauseRef c = reason_[static_cast<size_t>(q.var())];
    PRESAT_DCHECK(c != kNullClauseRef);
    const Lit* lits = arena_.lits(c);
    const uint32_t size = arena_.size(c);
    for (uint32_t k = 1; k < size; ++k) {
      Lit l = lits[k];
      size_t v = static_cast<size_t>(l.var());
      if (!seen_[v] && level_[v] > 0) {
        if (reason_[v] != kNullClauseRef && (abstractLevel(l.var()) & abstractLevels) != 0) {
          seen_[v] = 1;
          analyzeStack_.push_back(l);
          analyzeToClear_.push_back(l);
        } else {
          // Not removable: undo the marks added during this probe.
          for (size_t u = top; u < analyzeToClear_.size(); ++u)
            seen_[static_cast<size_t>(analyzeToClear_[u].var())] = 0;
          analyzeToClear_.resize(top);
          return false;
        }
      }
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// Activities & decision heap
// ---------------------------------------------------------------------------

void Solver::varBumpActivity(Var v) {
  size_t idx = static_cast<size_t>(v);
  activity_[idx] += varInc_;
  if (activity_[idx] > 1e100) {
    for (double& a : activity_) a *= 1e-100;
    varInc_ *= 1e-100;
  }
  if (heapContains(v)) heapPercolateUp(heapIndex_[idx]);
}

void Solver::claBumpActivity(ClauseRef c) {
  float bumped = arena_.activity(c) + static_cast<float>(claInc_);
  arena_.setActivity(c, bumped);
  if (bumped > 1e20f) {
    for (ClauseRef cl : clauses_) {
      if (arena_.learnt(cl)) arena_.setActivity(cl, arena_.activity(cl) * 1e-20f);
    }
    claInc_ *= 1e-20;
  }
}

void Solver::insertVarOrder(Var v) {
  if (!heapContains(v)) heapInsert(v);
}

void Solver::heapPercolateUp(int pos) {
  Var v = heap_[static_cast<size_t>(pos)];
  double act = activity_[static_cast<size_t>(v)];
  while (pos > 0) {
    int parent = (pos - 1) >> 1;
    Var pv = heap_[static_cast<size_t>(parent)];
    if (activity_[static_cast<size_t>(pv)] >= act) break;
    heap_[static_cast<size_t>(pos)] = pv;
    heapIndex_[static_cast<size_t>(pv)] = pos;
    pos = parent;
  }
  heap_[static_cast<size_t>(pos)] = v;
  heapIndex_[static_cast<size_t>(v)] = pos;
}

void Solver::heapPercolateDown(int pos) {
  Var v = heap_[static_cast<size_t>(pos)];
  double act = activity_[static_cast<size_t>(v)];
  int size = static_cast<int>(heap_.size());
  for (;;) {
    int child = 2 * pos + 1;
    if (child >= size) break;
    if (child + 1 < size &&
        activity_[static_cast<size_t>(heap_[static_cast<size_t>(child + 1)])] >
            activity_[static_cast<size_t>(heap_[static_cast<size_t>(child)])]) {
      ++child;
    }
    Var cv = heap_[static_cast<size_t>(child)];
    if (activity_[static_cast<size_t>(cv)] <= act) break;
    heap_[static_cast<size_t>(pos)] = cv;
    heapIndex_[static_cast<size_t>(cv)] = pos;
    pos = child;
  }
  heap_[static_cast<size_t>(pos)] = v;
  heapIndex_[static_cast<size_t>(v)] = pos;
}

void Solver::heapInsert(Var v) {
  heapIndex_[static_cast<size_t>(v)] = static_cast<int>(heap_.size());
  heap_.push_back(v);
  heapPercolateUp(static_cast<int>(heap_.size()) - 1);
}

Var Solver::heapRemoveMax() {
  Var top = heap_[0];
  heapIndex_[static_cast<size_t>(top)] = -1;
  Var last = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) {
    heap_[0] = last;
    heapIndex_[static_cast<size_t>(last)] = 0;
    heapPercolateDown(0);
  }
  return top;
}

// ---------------------------------------------------------------------------
// Search
// ---------------------------------------------------------------------------

Lit Solver::pickBranchLit() {
  Var next = kNullVar;
  if (enumerating_) {
    // Scope-first branching: decide every scope variable before any other so
    // decision levels 1..k form a clean scope prefix (the emission and flip
    // machinery depend on it). Deferred scope variables come only once the
    // rest of the scope is assigned. Highest activity wins within a tier,
    // scope order breaks ties — deterministic.
    for (size_t i = 0; i < scopeVars_.size(); ++i) {
      if (i == scopeTierEnd_ && next != kNullVar) break;
      Var v = scopeVars_[i];
      size_t idx = static_cast<size_t>(v);
      if (!assigns_[idx].isUndef()) continue;
      if (next == kNullVar || activity_[idx] > activity_[static_cast<size_t>(next)]) next = v;
    }
    if (next != kNullVar) return mkLit(next, !decisionPhase(next));
  }
  while (next == kNullVar || !assigns_[static_cast<size_t>(next)].isUndef()) {
    if (heap_.empty()) return kUndefLit;
    next = heapRemoveMax();
  }
  return mkLit(next, !decisionPhase(next));
}

void Solver::reduceDB() {
  // LBD-tiered retention: glue clauses (lbd <= 2) and binaries are immortal,
  // locked clauses are pinned by the trail, and clauses used in conflict
  // analysis since the last sweep die only after every unused candidate has
  // (the used bit is cleared so they must earn that rank again). Candidates
  // die worst-first — unused before used, then highest LBD, then lowest
  // activity, then youngest — up to half of the learnt database. The target
  // deliberately counts used clauses: an absolute one-round immunity lets
  // the live set balloon under incremental enumeration, where nearly every
  // learnt participates in some conflict between sweeps, and the longer
  // watch lists show up directly as propagation time.
  ++stats_.reduceDBs;
  nextReduceConflicts_ = stats_.conflicts + kReduceDBFirst + kReduceDBInc * stats_.reduceDBs;
  struct Candidate {
    ClauseRef ref;
    uint32_t lbd;
    float activity;
    uint32_t index;  // position in clauses_ = insertion age (deterministic)
    bool used;
  };
  std::vector<Candidate> candidates;
  size_t learnts = 0;
  for (uint32_t idx = 0; idx < clauses_.size(); ++idx) {
    ClauseRef c = clauses_[idx];
    if (!arena_.learnt(c)) continue;
    ++learnts;
    if (arena_.size(c) <= 2 || arena_.lbd(c) <= kGlueLbd || locked(c)) continue;
    bool used = arena_.used(c);
    if (used) arena_.setUsed(c, false);
    candidates.push_back({c, arena_.lbd(c), arena_.activity(c), idx, used});
  }
  std::sort(candidates.begin(), candidates.end(), [](const Candidate& a, const Candidate& b) {
    if (a.used != b.used) return !a.used;
    if (a.lbd != b.lbd) return a.lbd > b.lbd;
    if (a.activity != b.activity) return a.activity < b.activity;
    return a.index > b.index;
  });
  size_t target = learnts / 2;
  size_t removed = 0;
  for (const Candidate& cand : candidates) {
    if (removed >= target) break;
    removeClause(cand.ref);
    ++removed;
  }
  if (removed > 0) sweepDeadClauses();
  maybeGarbageCollect();
}

void Solver::removeSatisfiedAtLevelZero() {
  PRESAT_DCHECK(decisionLevel() == 0);
  bool any = false;
  for (ClauseRef c : clauses_) {
    if (!arena_.learnt(c)) continue;  // keep originals for incremental correctness
    const Lit* lits = arena_.lits(c);
    const uint32_t size = arena_.size(c);
    for (uint32_t k = 0; k < size; ++k) {
      if (value(lits[k]).isTrue()) {
        removeClause(c);
        any = true;
        break;
      }
    }
  }
  if (any) sweepDeadClauses();
  maybeGarbageCollect();
}

ClauseRef Solver::learnClause(const LitVec& learnt) {
  if (proofLog_ != nullptr) proofLog_->addClause(learnt);
  ClauseRef c = allocClause(learnt, /*learnt=*/true);
  arena_.setLbd(c, computeLbd(learnt));
  attachClause(c);
  claBumpActivity(c);
  uncheckedEnqueue(learnt[0], c);
  return c;
}

lbool Solver::search(int64_t conflictsBeforeRestart) {
  PRESAT_DCHECK(ok_);
  int64_t conflictCount = 0;
  LitVec learnt;

  for (;;) {
    if (governor_ != nullptr && governor_->poll() != Outcome::kComplete) {
      cancelUntil(0);
      return l_Undef;
    }
    ClauseRef conflict = propagate();
    if (conflict != kNullClauseRef) {
      ++stats_.conflicts;
      ++conflictCount;
      if (governor_ != nullptr) governor_->countConflicts(1);
      if (decisionLevel() == 0) {
        ok_ = false;
        if (proofLog_ != nullptr) proofLog_->addEmpty();
        return l_False;
      }
      int btLevel = 0;
      analyze(conflict, learnt, btLevel);
      cancelUntil(btLevel);
      if (learnt.size() == 1) {
        if (proofLog_ != nullptr) proofLog_->addUnit(learnt[0]);
        uncheckedEnqueue(learnt[0], kNullClauseRef);
      } else {
        learnClause(learnt);
      }
      varDecayActivity();
      claDecayActivity();
      continue;
    }

    // No conflict.
    if (conflictCount >= conflictsBeforeRestart) {
      ++stats_.restarts;
      cancelUntil(0);
      return l_Undef;
    }
    if (decisionLevel() == 0 && static_cast<int>(trail_.size()) > lastSimplifyTrail_) {
      removeSatisfiedAtLevelZero();
      lastSimplifyTrail_ = static_cast<int>(trail_.size());
    }
    if ((maxLearnts_ > 0 &&
         static_cast<double>(numLearnts_) - static_cast<double>(trail_.size()) >= maxLearnts_) ||
        stats_.conflicts >= nextReduceConflicts_) {
      reduceDB();
    }

    // Assumptions first, then free decisions.
    Lit next = kUndefLit;
    while (decisionLevel() < static_cast<int>(assumptions_.size())) {
      Lit p = assumptions_[static_cast<size_t>(decisionLevel())];
      lbool v = value(p);
      if (v.isTrue()) {
        newDecisionLevel();  // dummy level so indices stay aligned
      } else if (v.isFalse()) {
        return l_False;
      } else {
        next = p;
        break;
      }
    }
    if (next == kUndefLit) {
      next = pickBranchLit();
      if (next == kUndefLit) return l_True;  // all decision vars assigned
      ++stats_.decisions;
    }
    newDecisionLevel();
    uncheckedEnqueue(next, kNullClauseRef);
  }
}

lbool Solver::solve(const LitVec& assumptions) {
  PRESAT_CHECK(!enumerating_) << "solve() during an enumeration session";
  model_.clear();
  if (!ok_) return l_False;
  // Without assumptions the search resumes from the trail the last SAT
  // answer kept; assumptions are decided from level 1 on, so they start over.
  if (!assumptions.empty()) cancelUntil(0);
  assumptions_ = assumptions;
  // Recomputed on every call: the limit tracks the current original-clause
  // count (which grows under incremental use, e.g. blocking-clause all-SAT)
  // and the per-restart growth below stays confined to this call. Carrying
  // the grown limit across the hundreds of solve() calls an enumeration
  // makes would effectively disable reduceDB and let the learnt database
  // grow without bound.
  maxLearnts_ = std::max<double>(static_cast<double>(numOriginal_) / 3.0, 1000.0);
  nextReduceConflicts_ = stats_.conflicts + kReduceDBFirst;

  lbool status = l_Undef;
  int restarts = 0;
  while (status == l_Undef) {
    double factor = luby(2.0, restarts);
    status = search(static_cast<int64_t>(factor * kRestartBase));
    ++restarts;
    maxLearnts_ *= learntGrowth_;
    if (status == l_Undef && governor_ != nullptr && governor_->tripped()) break;
  }

  if (status == l_True) {
    model_ = assigns_;
  } else {
    cancelUntil(0);
  }
  return status;
}

// ---------------------------------------------------------------------------
// Chronological enumeration
// ---------------------------------------------------------------------------

void Solver::beginEnumeration(const std::vector<Var>& scope, bool projectedWitness,
                              const std::vector<Var>& deferred) {
  PRESAT_CHECK(!enumerating_) << "beginEnumeration() during an active session";
  PRESAT_CHECK(decisionLevel() == 0) << "beginEnumeration() above level 0";
  PRESAT_CHECK(proofLog_ == nullptr) << "beginEnumeration() with a proof log attached";
  enumerating_ = true;
  enumExhausted_ = false;
  enumProjected_ = projectedWitness;
  model_.clear();
  assumptions_.clear();
  inScope_.assign(static_cast<size_t>(numVars()), 0);
  scopeVars_.clear();
  for (Var v : scope) {
    PRESAT_CHECK(v >= 0 && v < numVars()) << "unknown variable in enumeration scope";
    PRESAT_CHECK(!inScope_[static_cast<size_t>(v)]) << "enumeration scope lists x" << v << " twice";
    inScope_[static_cast<size_t>(v)] = 1;
    scopeVars_.push_back(v);
  }
  std::vector<uint8_t> late(static_cast<size_t>(numVars()), 0);
  for (Var v : deferred) {
    PRESAT_CHECK(v >= 0 && v < numVars() && inScope_[static_cast<size_t>(v)])
        << "deferred variable x" << v << " is not in the enumeration scope";
    late[static_cast<size_t>(v)] = 1;
  }
  auto tierEnd = std::stable_partition(scopeVars_.begin(), scopeVars_.end(),
                                       [&late](Var v) { return !late[static_cast<size_t>(v)]; });
  scopeTierEnd_ = static_cast<size_t>(tierEnd - scopeVars_.begin());
  // Same learnt-DB cap policy as solve(): the whole point of this mode is
  // that the clause database stays bounded across the enumeration.
  maxLearnts_ = std::max<double>(static_cast<double>(numOriginal_) / 3.0, 1000.0);
  nextReduceConflicts_ = stats_.conflicts + kReduceDBFirst;
}

int Solver::scopePrefixLength() const {
  int k = 0;
  while (k < decisionLevel()) {
    Lit d = trail_[static_cast<size_t>(trailLim_[static_cast<size_t>(k)])];
    if (!inScope_[static_cast<size_t>(d.var())]) break;
    ++k;
  }
  return k;
}

int Solver::deepestFlippedLevel() const {
  for (int lvl = static_cast<int>(levelFlipped_.size()); lvl >= 1; --lvl) {
    if (levelFlipped_[static_cast<size_t>(lvl - 1)]) return lvl;
  }
  return 0;
}

bool Solver::flipToNextRegion(int maxLevel) {
  PRESAT_CHECK(enumerating_) << "flipToNextRegion() outside an enumeration session";
  int f = std::min(maxLevel, decisionLevel());
  while (f >= 1 && levelFlipped_[static_cast<size_t>(f - 1)]) --f;
  if (f < 1) {
    enumExhausted_ = true;
    return false;
  }
  Lit d = trail_[static_cast<size_t>(trailLim_[static_cast<size_t>(f - 1)])];
  cancelUntil(f - 1);
  newDecisionLevel();
  levelFlipped_.back() = 1;
  uncheckedEnqueue(~d, kNullClauseRef);
  ++stats_.flips;
  return true;
}

lbool Solver::enumerateNextModel() {
  PRESAT_CHECK(enumerating_) << "enumerateNextModel() outside an enumeration session";
  if (!ok_ || enumExhausted_) return l_False;
  model_.clear();
  LitVec learnt;

  // No restarts here: a restart would cancel the flipped pseudo-decisions
  // that stand in for blocking clauses and re-enumerate old regions.
  for (;;) {
    // Governed stop: keep the trail (the session stays resumable and
    // endEnumeration() cleans up), report budget exhaustion to the caller.
    if (governor_ != nullptr && governor_->poll() != Outcome::kComplete) return l_Undef;
    ClauseRef conflict = propagate();
    if (conflict != kNullClauseRef) {
      ++stats_.conflicts;
      if (governor_ != nullptr) governor_->countConflicts(1);
      if (decisionLevel() == 0) {
        ok_ = false;
        enumExhausted_ = true;
        return l_False;
      }
      int flipBarrier = deepestFlippedLevel();
      if (decisionLevel() == flipBarrier) {
        // Conflict at the barrier itself: this flipped region is empty and
        // analyze() could not backjump past it anyway (the asserting
        // variable would still be assigned). Move to the next region — no
        // clause is learnt, mirroring the region-exhausted transition of
        // chronological CDCL enumeration.
        if (!flipToNextRegion(decisionLevel() - 1)) return l_False;
        continue;
      }
      int btLevel = 0;
      analyze(conflict, learnt, btLevel);
      // Clamp the backjump at the barrier: levels <= flipBarrier encode
      // already-emitted regions. The asserting literal's antecedents are all
      // stamped <= btLevel <= target, so enqueueing it at the clamped level
      // keeps every implication-graph invariant intact.
      int target = std::max(btLevel, flipBarrier);
      cancelUntil(target);
      if (learnt.size() == 1) {
        if (target == 0) {
          uncheckedEnqueue(learnt[0], kNullClauseRef);
        } else {
          // Unit learnts normally live on the level-0 trail; here the clamp
          // keeps us above level 0, so give the literal a synthetic unit
          // reason (analyze() and the auditor both require non-decision
          // literals above level 0 to carry one). The unit lives in the
          // arena — it relocates with every compaction — but outside
          // clauses_, and dies with the session.
          ClauseRef unit = arena_.alloc(learnt.data(), 1, /*learnt=*/true);
          if (governor_ != nullptr) arenaLedger_.charge(arena_.clauseBytes(unit));
          enumUnitReasons_.push_back(unit);
          uncheckedEnqueue(learnt[0], unit);
        }
      } else {
        learnClause(learnt);
      }
      varDecayActivity();
      claDecayActivity();
      continue;
    }

    // No conflict.
    if (enumProjected_ && projectedWitnessComplete()) {
      // Projected early stop: the scope is fully decided and the partial
      // assignment already satisfies every original clause, so EVERY
      // completion of the unassigned input/aux variables is a total model.
      // The assigned non-scope literals are the existential witness; keep
      // them in model_ (unassigned variables stay l_Undef) so the caller's
      // cube widening can reuse them.
      model_ = assigns_;
      return l_True;
    }
    if ((maxLearnts_ > 0 &&
         static_cast<double>(numLearnts_) - static_cast<double>(trail_.size()) >= maxLearnts_) ||
        stats_.conflicts >= nextReduceConflicts_) {
      reduceDB();
    }
    Lit next = pickBranchLit();
    if (next == kUndefLit) {
      // Total model. Keep the trail — the caller reads levels off it, emits
      // a cube, and flips into the next region.
      model_ = assigns_;
      return l_True;
    }
    ++stats_.decisions;
    newDecisionLevel();
    uncheckedEnqueue(next, kNullClauseRef);
  }
}

bool Solver::projectedWitnessComplete() const {
  for (Var v : scopeVars_) {
    if (assigns_[static_cast<size_t>(v)].isUndef()) return false;
  }
  // Only original clauses matter: learnts are implied, and clauses dropped
  // or shrunk at add time are satisfied by level-0 assignments that are part
  // of every partial assignment.
  for (ClauseRef c : clauses_) {
    if (arena_.learnt(c)) continue;
    const Lit* lits = arena_.lits(c);
    const uint32_t size = arena_.size(c);
    bool satisfied = false;
    for (uint32_t k = 0; k < size; ++k) {
      if (value(lits[k]).isTrue()) {
        satisfied = true;
        break;
      }
    }
    if (!satisfied) return false;
  }
  return true;
}

void Solver::endEnumeration() {
  PRESAT_CHECK(enumerating_) << "endEnumeration() without a session";
  cancelUntil(0);
  enumerating_ = false;
  enumExhausted_ = false;
  enumProjected_ = false;
  for (ClauseRef unit : enumUnitReasons_) {
    if (governor_ != nullptr) arenaLedger_.release(arena_.clauseBytes(unit));
    arena_.free(unit);
  }
  enumUnitReasons_.clear();
  inScope_.clear();
  scopeVars_.clear();
  scopeTierEnd_ = 0;
  model_.clear();
  maybeGarbageCollect();
}

}  // namespace presat
