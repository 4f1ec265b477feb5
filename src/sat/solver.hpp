// MiniSat-style CDCL SAT solver.
//
// Architecture: two-watched-literal propagation, EVSIDS variable activities
// with a heap-ordered decision queue, phase saving with occurrence-derived
// polarity priors, first-UIP conflict analysis with clause minimization,
// Luby restarts, and LBD-tiered learnt clause retention (glue clauses are
// immortal, high-LBD clauses age out unless recently used). Clauses live in a
// compacting 32-bit-reference arena (sat/clause_arena.hpp) instead of
// per-clause heap allocations. The solver is incremental: clauses can be
// added between solve() calls, and solve() accepts assumption literals —
// both are load-bearing for the blocking-clause all-SAT baselines, which add
// one clause per enumerated solution and re-solve.
#pragma once

#include <cstdint>
#include <vector>

#include "base/check.hpp"
#include "base/types.hpp"
#include "cnf/cnf.hpp"
#include "govern/governor.hpp"
#include "sat/clause_arena.hpp"

namespace presat {

class AuditResult;
class ProofLog;
enum class SolverCorruption : int;

struct SolverStats {
  uint64_t decisions = 0;
  uint64_t propagations = 0;
  uint64_t conflicts = 0;
  uint64_t restarts = 0;
  uint64_t learntClauses = 0;
  uint64_t deletedClauses = 0;
  uint64_t reduceDBs = 0;
  uint64_t minimizedLits = 0;
  // Stop-the-world arena compactions (reduceDB-triggered garbage collection).
  uint64_t arenaCompactions = 0;
  // Chronological enumeration: pseudo-decision flips taken.
  uint64_t flips = 0;
  // High-water mark of the stored clause database (original + learnt). Under
  // blocking-clause all-SAT this grows with the solution count; under the
  // chronological engine it must stay flat — that is the observable claim.
  uint64_t dbClausesPeak = 0;
};

class Solver {
 public:
  Solver();
  ~Solver();

  Solver(const Solver&) = delete;
  Solver& operator=(const Solver&) = delete;

  // --- problem construction -------------------------------------------------
  Var newVar();
  int numVars() const { return static_cast<int>(assigns_.size()); }
  // Adds a clause; returns false if the solver became trivially UNSAT.
  bool addClause(const LitVec& lits);
  bool addClause(std::initializer_list<Lit> lits) { return addClause(LitVec(lits)); }
  // Loads every clause of a CNF (creating variables as needed).
  bool addCnf(const Cnf& cnf);
  bool okay() const { return ok_; }

  // --- solving ---------------------------------------------------------------
  // Returns l_True (SAT, model() valid), l_False (UNSAT under assumptions),
  // or l_Undef if the attached governor tripped.
  lbool solve() { return solve({}); }
  lbool solve(const LitVec& assumptions);

  // Model of the last successful solve; indexed by variable. Variables a
  // projected-witness enumeration left unassigned stay l_Undef in model();
  // modelValue() refuses to read those instead of silently treating them as
  // false.
  const std::vector<lbool>& model() const { return model_; }
  bool modelValue(Var v) const {
    PRESAT_CHECK(v >= 0 && static_cast<size_t>(v) < model_.size())
        << "modelValue(x" << v << ") without a model (last solve did not return l_True?)";
    lbool value = model_[static_cast<size_t>(v)];
    PRESAT_CHECK(!value.isUndef())
        << "modelValue(x" << v << ") read an unassigned model entry";
    return value.isTrue();
  }
  bool modelValue(Lit l) const { return modelValue(l.var()) != l.sign(); }

  // --- chronological enumeration ---------------------------------------------
  // All-solutions mode without blocking clauses (Spallitta/Sebastiani/Biere
  // style): the caller starts a session over a projection scope, repeatedly
  // asks for the next model, and after each model flips the deepest
  // scope-prefix decision as a reason-less pseudo-decision instead of adding
  // a blocking clause. Between models the trail is NOT cancelled — flipped
  // levels act as a barrier that conflict-driven backjumping never crosses
  // (asserting literals are enqueued at the clamped level; their reasons only
  // mention shallower literals, so implication-graph invariants still hold).
  //
  // Session protocol:
  //   beginEnumeration(scope);
  //   while (enumerateNextModel() == l_True) {
  //     ... read model()/levelOf()/scopePrefixLength() and emit a cube ...
  //     if (!flipToNextRegion(maxLevel)) break;   // space exhausted
  //   }
  //   endEnumeration();
  //
  // During a session scope variables are decided before all others, so the
  // decision levels 1..scopePrefixLength() form a clean scope prefix and
  // every scope variable is stamped at a level inside it.
  //
  // `projectedWitness` turns on projected-native enumeration: once every
  // scope variable is assigned and the current PARTIAL assignment already
  // satisfies every original clause, enumerateNextModel() stops and returns
  // the partial model (unassigned non-scope variables stay l_Undef) instead
  // of materialising one arbitrary completion per region. The assigned
  // non-scope literals are an existential witness — every completion of the
  // scope prefix extends to a total model — so the caller may emit the scope
  // prefix as a projected cube without ever deciding the remaining
  // input/aux variables.
  //
  // `deferred` (a subset of `scope`) is decided after every other scope
  // variable; within each tier the activity order applies. A caller that
  // knows some scope variables cannot matter to the cube it will emit puts
  // them last, so they land at the deepest prefix levels and drop out.
  void beginEnumeration(const std::vector<Var>& scope, bool projectedWitness = false,
                        const std::vector<Var>& deferred = {});
  // l_True: model() is valid and the trail is kept. l_False: space exhausted
  // (or root UNSAT). l_Undef: the governor tripped (partial result).
  lbool enumerateNextModel();
  // Flips the deepest unflipped decision at a level <= maxLevel. Returns
  // false when every level is already flipped — enumeration is complete.
  bool flipToNextRegion(int maxLevel);
  void endEnumeration();
  bool enumerating() const { return enumerating_; }

  // Decision level a variable is currently stamped at (valid while assigned).
  int levelOf(Var v) const { return level_[static_cast<size_t>(v)]; }
  int currentDecisionLevel() const { return decisionLevel(); }
  // Length k of the scope-decision prefix: decisions 1..k are scope
  // variables. Only meaningful during an enumeration session.
  int scopePrefixLength() const;
  // Deepest decision level whose decision is a flip (0 if none).
  int deepestFlippedLevel() const;

  // --- knobs ------------------------------------------------------------------
  // Attaches a resource governor (may be null to detach): the search loops
  // poll it once per iteration and return l_Undef when it trips, conflicts
  // are reported toward Budget::conflictLimit, and the clause arena's bytes
  // are charged against the tracked-byte pool. The governor must outlive the
  // solver (or be detached first).
  void setGovernor(Governor* governor);
  // Attaches a DRAT-style proof log to solve() (may be null to detach; must
  // outlive the solver or be detached first). The log records learnt and
  // deleted clauses and the empty clause on UNSAT, so an external checker
  // can replay the refutation. An enumeration session takes no log:
  // beginEnumeration() CHECKs that none is attached. A null log keeps every
  // search hot path branch-only.
  void setProofLog(ProofLog* log) { proofLog_ = log; }

  const SolverStats& stats() const { return stats_; }
  size_t numLearnts() const { return numLearnts_; }
  size_t numOriginalClauses() const { return numOriginal_; }

  // Current assignment value during/after search (level-0 forced values
  // persist between solves).
  lbool value(Var v) const { return assigns_[static_cast<size_t>(v)]; }
  lbool value(Lit l) const { return assigns_[static_cast<size_t>(l.var())] ^ l.sign(); }

 private:
  struct Watcher {
    ClauseRef clause;
    Lit blocker;
  };

  // Deep structural validation (src/check/audit_solver.cpp) and its
  // test-only corruption hooks need read/write access to the internals.
  friend AuditResult auditSolver(const Solver& solver);
  friend void corruptSolverForTest(Solver& solver, SolverCorruption kind);
  friend void compactSolverForTest(Solver& solver);

  // -- trail / assignment
  void newDecisionLevel() {
    trailLim_.push_back(static_cast<int>(trail_.size()));
    levelFlipped_.push_back(0);
  }
  int decisionLevel() const { return static_cast<int>(trailLim_.size()); }
  void uncheckedEnqueue(Lit l, ClauseRef from);
  ClauseRef propagate();
  void cancelUntil(int level);

  // -- conflict analysis
  void analyze(ClauseRef conflict, LitVec& outLearnt, int& outBtLevel);
  bool litRedundant(Lit l, uint32_t abstractLevels);
  // Literal block distance: number of distinct non-zero decision levels in
  // the clause under the current assignment.
  uint32_t computeLbd(const LitVec& lits);

  // -- search
  Lit pickBranchLit();
  lbool search(int64_t conflictsBeforeRestart);
  void reduceDB();
  void removeSatisfiedAtLevelZero();
  // Phase to decide `v` with: saved phase once the search stamped one, else the polarity seen more often in the original clauses.
  bool decisionPhase(Var v) const {
    size_t idx = static_cast<size_t>(v);
    if (polaritySeeded_[idx]) return polarity_[idx];
    return occPos_[idx] > occNeg_[idx];
  }
  // Allocates + attaches a learnt clause, stamps its LBD, and enqueues its
  // asserting literal. Shared by search() and enumerateNextModel().
  ClauseRef learnClause(const LitVec& learnt);

  // -- activities
  void varBumpActivity(Var v);
  void varDecayActivity() { varInc_ /= varDecay_; }
  void claBumpActivity(ClauseRef c);
  void claDecayActivity() { claInc_ /= claDecay_; }
  void insertVarOrder(Var v);

  // -- clause plumbing
  ClauseRef allocClause(const LitVec& lits, bool learnt);
  void attachClause(ClauseRef c);
  void detachClause(ClauseRef c);
  // Detaches, uncharges, and frees one clause in the arena. The caller is
  // responsible for sweeping clauses_ afterwards (sweepDeadClauses) — the
  // batch removal keeps reduceDB linear in the database size.
  void removeClause(ClauseRef c);
  // Drops freed refs from clauses_, preserving insertion order (the order is
  // the deterministic tie-break of the LBD retention sort).
  void sweepDeadClauses();
  bool locked(ClauseRef c) const;
  // Stop-the-world arena compaction once a quarter of the arena is waste.
  // Every live ref (clauses_, watches, reasons, enumeration unit reasons) is
  // relocated; only call from quiescent points with no ClauseRef locals held.
  void maybeGarbageCollect();
  void garbageCollect();

  // -- decision heap (binary max-heap on activity)
  void heapPercolateUp(int pos);
  void heapPercolateDown(int pos);
  bool heapContains(Var v) const { return heapIndex_[static_cast<size_t>(v)] >= 0; }
  void heapInsert(Var v);
  Var heapRemoveMax();

  // state
  bool ok_ = true;
  ClauseArena arena_;               // clause storage (original + learnt)
  std::vector<ClauseRef> clauses_;  // insertion-ordered refs into arena_
  size_t numOriginal_ = 0;
  size_t numLearnts_ = 0;

  std::vector<std::vector<Watcher>> watches_;  // indexed by Lit code
  std::vector<lbool> assigns_;                 // per var
  std::vector<bool> polarity_;                 // saved phase, per var
  std::vector<uint8_t> polaritySeeded_;        // per var; saved phase valid
  std::vector<uint32_t> occPos_;               // per var; positive occurrences
  std::vector<uint32_t> occNeg_;               // per var; negative occurrences
  std::vector<ClauseRef> reason_;              // per var; kNullClauseRef if none
  std::vector<int> level_;                     // per var

  std::vector<Lit> trail_;
  std::vector<int> trailLim_;
  int qhead_ = 0;

  // True when the current partial assignment covers the scope and already
  // satisfies every original clause (the projected early-stop predicate).
  bool projectedWitnessComplete() const;

  // -- chronological-enumeration session state
  bool enumerating_ = false;
  bool enumExhausted_ = false;
  bool enumProjected_ = false;  // projected-witness early stop enabled
  std::vector<uint8_t> inScope_;   // per var; session scope membership
  // Session scope: the non-deferred variables first, then the deferred
  // ones from index scopeTierEnd_ on, each tier in caller order.
  std::vector<Var> scopeVars_;
  size_t scopeTierEnd_ = 0;
  // Parallel to trailLim_: 1 iff that level's decision is a flipped
  // pseudo-decision. Maintained unconditionally (trivially all-0 outside
  // enumeration sessions).
  std::vector<uint8_t> levelFlipped_;
  // Reason clauses for unit learnts asserted above level 0: a clamped
  // backjump cannot reach level 0, so the unit is enqueued at the barrier
  // level with a synthetic size-1 arena clause held here. These never enter
  // clauses_ (the clause DB stores only size >= 2) and die with the session.
  // They are first-class compaction roots: garbageCollect() relocates them
  // exactly like watch/reason refs.
  std::vector<ClauseRef> enumUnitReasons_;

  // activities
  std::vector<double> activity_;
  double varInc_ = 1.0;
  double varDecay_ = 0.95;
  double claInc_ = 1.0;
  double claDecay_ = 0.999;

  // decision heap
  std::vector<Var> heap_;
  std::vector<int> heapIndex_;  // per var; -1 if absent

  // analyze scratch
  std::vector<uint8_t> seen_;
  std::vector<Lit> analyzeToClear_;
  std::vector<Lit> analyzeStack_;
  std::vector<uint64_t> lbdStamp_;  // per level; generation stamps
  uint64_t lbdStampGen_ = 0;

  // solve state
  LitVec assumptions_;
  std::vector<lbool> model_;
  double maxLearnts_ = 0;
  double learntGrowth_ = 1.1;
  // Conflict count at which the next cadence-triggered reduceDB fires
  // (re-armed by reduceDB itself; reset per solve()/enumeration call).
  uint64_t nextReduceConflicts_ = 0;
  int lastSimplifyTrail_ = -1;

  // Resource governance (null = ungoverned; the hot paths stay branch-only).
  Governor* governor_ = nullptr;
  MemoryLedger arenaLedger_;  // clause-arena bytes charged to the governor

  // DRAT-style proof logging (null = off; the hot paths stay branch-only).
  ProofLog* proofLog_ = nullptr;

  SolverStats stats_;
};

}  // namespace presat
