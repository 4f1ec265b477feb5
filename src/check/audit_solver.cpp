#include "check/audit_solver.hpp"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "base/log.hpp"
#include "sat/solver.hpp"

namespace presat {

namespace {

// The watch-pair invariant is set-based, not positional: propagate() swaps
// lits[0]/lits[1] in place without touching the other side's watcher entry,
// so a clause is correctly watched iff each of the two lists keyed by
// ~lits[0] and ~lits[1] holds exactly one watcher for it and no other list
// holds any.
struct WatchCount {
  int onFirst = 0;   // entries in the list for ~lits[0]
  int onSecond = 0;  // entries in the list for ~lits[1]
  int elsewhere = 0;
};

}  // namespace

AuditResult auditSolver(const Solver& s) {
  AuditResult r;
  const size_t numVars = s.assigns_.size();
  const ClauseArena& arena = s.arena_;

  auto litsOf = [&arena](ClauseRef c) {
    return LitVec(arena.lits(c), arena.lits(c) + arena.size(c));
  };

  // -- clause database vs counters -----------------------------------------
  // Reasons may reference either a stored clause or a synthetic enumeration
  // unit reason (never in clauses_), so the db set spans both.
  size_t learnt = 0;
  size_t original = 0;
  std::unordered_set<ClauseRef> db;
  for (ClauseRef c : s.clauses_) {
    db.insert(c);
    if (arena.dead(c)) {
      r.fail("solver.clause.size",
             "clause database holds a freed arena clause (missing sweepDeadClauses?)");
      continue;
    }
    const LitVec lits = litsOf(c);
    if (arena.learnt(c)) {
      ++learnt;
    } else {
      ++original;
    }
    if (lits.size() < 2) {
      r.fail("solver.clause.size",
             "stored clause " + toString(lits) + " has size < 2 (units are enqueued, not stored)");
    }
    for (size_t i = 0; i + 1 < lits.size(); ++i) {
      for (size_t j = i + 1; j < lits.size(); ++j) {
        if (lits[i].var() == lits[j].var()) {
          r.fail("solver.clause.duplicate-var",
                 "clause " + toString(lits) + " mentions x" +
                     std::to_string(lits[i].var()) + " twice");
        }
      }
    }
    for (Lit l : lits) {
      if (l.var() < 0 || static_cast<size_t>(l.var()) >= numVars) {
        r.fail("solver.clause.var-range",
               "clause literal " + toString(l) + " out of range (numVars=" +
                   std::to_string(numVars) + ")");
      }
    }
  }
  for (ClauseRef c : s.enumUnitReasons_) {
    db.insert(c);
    if (arena.dead(c)) {
      r.fail("solver.clause.size", "enumeration unit reason references a freed arena clause");
      continue;
    }
    if (arena.size(c) != 1) {
      r.fail("solver.clause.size",
             "enumeration unit reason " + toString(litsOf(c)) + " has size != 1");
    }
  }
  if (learnt != s.numLearnts_ || original != s.numOriginal_) {
    r.fail("solver.learnt.count",
           "database holds " + std::to_string(learnt) + " learnt / " +
               std::to_string(original) + " original clauses but counters say " +
               std::to_string(s.numLearnts_) + " / " + std::to_string(s.numOriginal_));
  }
  if (s.stats_.learntClauses < s.stats_.deletedClauses ||
      s.stats_.learntClauses - s.stats_.deletedClauses != s.numLearnts_) {
    r.fail("solver.learnt.count",
           "stats say learnt=" + std::to_string(s.stats_.learntClauses) + " deleted=" +
               std::to_string(s.stats_.deletedClauses) + " but numLearnts=" +
               std::to_string(s.numLearnts_));
  }

  // -- watch lists ----------------------------------------------------------
  std::unordered_map<ClauseRef, WatchCount> watched;
  for (size_t code = 0; code < s.watches_.size(); ++code) {
    const Lit listLit = Lit::fromCode(static_cast<int32_t>(code));
    for (const Solver::Watcher& w : s.watches_[code]) {
      if (db.find(w.clause) == db.end() || arena.dead(w.clause)) {
        r.fail("solver.watch.dangling",
               "watch list of " + toString(listLit) + " references a clause not in the database");
        continue;
      }
      const LitVec lits = litsOf(w.clause);
      WatchCount& count = watched[w.clause];
      if (lits.size() >= 2 && listLit == ~lits[0]) {
        ++count.onFirst;
      } else if (lits.size() >= 2 && listLit == ~lits[1]) {
        ++count.onSecond;
      } else {
        ++count.elsewhere;
        r.fail("solver.watch.pair",
               "clause " + toString(lits) + " has a watcher in the list of " +
                   toString(listLit) + ", which is not a watched position");
      }
      if (std::find(lits.begin(), lits.end(), w.blocker) == lits.end()) {
        r.fail("solver.watch.blocker",
               "watcher of clause " + toString(lits) + " carries blocker " +
                   toString(w.blocker) + " that is not in the clause");
      }
    }
  }
  for (ClauseRef c : s.clauses_) {
    if (arena.dead(c) || arena.size(c) < 2) continue;  // already reported above
    const WatchCount count = watched.count(c) ? watched[c] : WatchCount{};
    if (count.onFirst != 1 || count.onSecond != 1) {
      r.fail("solver.watch.pair",
             "clause " + toString(litsOf(c)) + " watched " + std::to_string(count.onFirst) +
                 "x on ~lits[0] and " + std::to_string(count.onSecond) +
                 "x on ~lits[1] (expected exactly 1x each)");
    }
  }

  // -- trail structure ------------------------------------------------------
  if (s.qhead_ < 0 || static_cast<size_t>(s.qhead_) > s.trail_.size()) {
    r.fail("solver.trail.level",
           "qhead=" + std::to_string(s.qhead_) + " outside trail of size " +
               std::to_string(s.trail_.size()));
  }
  int prevLim = 0;
  for (size_t k = 0; k < s.trailLim_.size(); ++k) {
    const int lim = s.trailLim_[k];
    if (lim < prevLim || static_cast<size_t>(lim) > s.trail_.size()) {
      r.fail("solver.trail.level",
             "trailLim[" + std::to_string(k) + "]=" + std::to_string(lim) +
                 " not monotone within trail of size " + std::to_string(s.trail_.size()));
    }
    prevLim = std::max(prevLim, lim);
  }

  std::unordered_map<Var, int> trailPos;
  for (size_t i = 0; i < s.trail_.size(); ++i) {
    const Lit l = s.trail_[i];
    const Var v = l.var();
    if (v < 0 || static_cast<size_t>(v) >= numVars) {
      r.fail("solver.trail.assign", "trail[" + std::to_string(i) + "]=" + toString(l) +
                                        " references an unknown variable");
      continue;
    }
    if (!trailPos.emplace(v, static_cast<int>(i)).second) {
      r.fail("solver.trail.assign",
             "x" + std::to_string(v) + " appears twice on the trail");
    }
    if (!s.value(l).isTrue()) {
      r.fail("solver.trail.assign",
             "trail literal " + toString(l) + " is not assigned true");
    }
    // The level of trail position i is the number of decision-level marks at
    // or below i (assumption handling can create empty segments, which this
    // formulation handles naturally).
    int expectedLevel = 0;
    for (int lim : s.trailLim_) {
      if (lim <= static_cast<int>(i)) ++expectedLevel;
    }
    if (s.level_[static_cast<size_t>(v)] != expectedLevel) {
      r.fail("solver.trail.level",
             "x" + std::to_string(v) + " at trail position " + std::to_string(i) +
                 " has level " + std::to_string(s.level_[static_cast<size_t>(v)]) +
                 " but the trail segments say " + std::to_string(expectedLevel));
    }
  }
  for (size_t v = 0; v < numVars; ++v) {
    const bool assigned = !s.assigns_[v].isUndef();
    const bool onTrail = trailPos.count(static_cast<Var>(v)) != 0;
    if (assigned != onTrail) {
      r.fail("solver.trail.assign",
             numbered("x", v) + (assigned ? " is assigned but not on the trail"
                                                 : " is on the trail but unassigned"));
    }
  }

  // -- reason clauses -------------------------------------------------------
  for (size_t v = 0; v < numVars; ++v) {
    const ClauseRef reason = s.reason_[v];
    if (reason == kNullClauseRef) continue;
    if (s.assigns_[v].isUndef()) {
      r.fail("solver.reason.implied",
             "unassigned x" + std::to_string(v) + " still has a reason clause");
      continue;
    }
    if (db.find(reason) == db.end() || arena.dead(reason)) {
      r.fail("solver.reason.implied",
             "reason of x" + std::to_string(v) + " is not in the clause database");
      continue;
    }
    const LitVec lits = litsOf(reason);
    if (lits.empty() || lits[0].var() != static_cast<Var>(v) || !s.value(lits[0]).isTrue()) {
      r.fail("solver.reason.implied",
             "reason clause " + toString(lits) + " of x" + std::to_string(v) +
                 " does not have the implied literal first and true");
      continue;
    }
    for (size_t i = 1; i < lits.size(); ++i) {
      if (!s.value(lits[i]).isFalse()) {
        r.fail("solver.reason.implied",
               "reason clause " + toString(lits) + " of x" + std::to_string(v) +
                   " has non-false antecedent " + toString(lits[i]));
      } else if (s.level_[static_cast<size_t>(lits[i].var())] >
                 s.level_[static_cast<size_t>(v)]) {
        r.fail("solver.reason.implied",
               "antecedent " + toString(lits[i]) + " of x" + std::to_string(v) +
                   " was assigned at a later level than the implied literal");
      }
    }
  }

  // -- decision heap --------------------------------------------------------
  std::unordered_set<Var> inHeap;
  for (size_t pos = 0; pos < s.heap_.size(); ++pos) {
    const Var v = s.heap_[pos];
    if (v < 0 || static_cast<size_t>(v) >= numVars) {
      r.fail("solver.heap.order", "heap[" + std::to_string(pos) + "]=x" +
                                      std::to_string(v) + " out of range");
      continue;
    }
    if (!inHeap.insert(v).second) {
      r.fail("solver.heap.order", "x" + std::to_string(v) + " appears twice in the heap");
    }
    if (s.heapIndex_[static_cast<size_t>(v)] != static_cast<int>(pos)) {
      r.fail("solver.heap.order",
             "heapIndex of x" + std::to_string(v) + " is " +
                 std::to_string(s.heapIndex_[static_cast<size_t>(v)]) + ", expected " +
                 std::to_string(pos));
    }
    if (pos > 0) {
      const Var parent = s.heap_[(pos - 1) / 2];
      if (s.activity_[static_cast<size_t>(parent)] < s.activity_[static_cast<size_t>(v)]) {
        r.fail("solver.heap.order",
               "max-heap property violated between x" + std::to_string(parent) + " and x" +
                   std::to_string(v));
      }
    }
  }
  for (size_t v = 0; v < numVars; ++v) {
    if (s.heapIndex_[v] >= 0 && inHeap.count(static_cast<Var>(v)) == 0) {
      r.fail("solver.heap.order",
             "heapIndex of x" + std::to_string(v) + " is set but the var is not in the heap");
    }
    // Lazy removal means assigned vars may linger in the heap, but every
    // unassigned var must be present for pickBranchLit.
    if (s.assigns_[v].isUndef() && inHeap.count(static_cast<Var>(v)) == 0) {
      r.fail("solver.heap.order",
             "unassigned var x" + std::to_string(v) + " missing from the heap");
    }
  }

  return r;
}

void corruptSolverForTest(Solver& s, SolverCorruption kind) {
  switch (kind) {
    case SolverCorruption::kSwapWatchedLiteral: {
      auto c = std::find_if(s.clauses_.begin(), s.clauses_.end(),
                            [&s](ClauseRef ref) { return s.arena_.size(ref) >= 3; });
      PRESAT_CHECK(c != s.clauses_.end()) << "corruptSolverForTest: no clause of size >= 3";
      Lit* lits = s.arena_.lits(*c);
      std::swap(lits[1], lits[2]);
      return;
    }
    case SolverCorruption::kDropWatcher: {
      auto list = std::find_if(s.watches_.begin(), s.watches_.end(),
                               [](const std::vector<Solver::Watcher>& w) { return !w.empty(); });
      PRESAT_CHECK(list != s.watches_.end()) << "corruptSolverForTest: no watcher to drop";
      list->pop_back();
      return;
    }
    case SolverCorruption::kLearntCountDrift:
      ++s.numLearnts_;
      return;
    case SolverCorruption::kTrailLevelSkew: {
      PRESAT_CHECK(!s.trail_.empty()) << "corruptSolverForTest: empty trail";
      s.level_[static_cast<size_t>(s.trail_.front().var())] += 1;
      return;
    }
    case SolverCorruption::kReasonFirstLiteral: {
      for (size_t v = 0; v < s.reason_.size(); ++v) {
        ClauseRef reason = s.reason_[v];
        if (reason != kNullClauseRef && s.arena_.size(reason) >= 2) {
          // Swapping the two watched positions keeps the watch-pair set
          // intact, so only the reason invariant fires.
          Lit* lits = s.arena_.lits(reason);
          std::swap(lits[0], lits[1]);
          return;
        }
      }
      PRESAT_CHECK(false) << "corruptSolverForTest: no var with a clause reason";
    }
  }
  PRESAT_CHECK(false) << "corruptSolverForTest: unknown corruption kind";
}

void compactSolverForTest(Solver& s) { s.garbageCollect(); }

}  // namespace presat
