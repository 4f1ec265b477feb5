// Shared vocabulary of the all-solutions engines.
//
// Every engine answers the same question: given a satisfiable formula (as CNF
// or as a circuit with output objectives) and a *projection scope*, enumerate
// the projection of the solution set. Results are normalized to the
// *projected index space*: literal variable i in a result cube refers to
// projection[i], not to the underlying CNF variable or circuit node. This
// makes results from different engines directly comparable.
#pragma once

#include <cstdint>
#include <vector>

#include "base/biguint.hpp"
#include "base/metrics.hpp"
#include "base/timer.hpp"
#include "base/types.hpp"
#include "cnf/cnf.hpp"
#include "govern/budget.hpp"
#include "parallel/options.hpp"

namespace presat {

class BddManager;
class Governor;
class Solver;

// One wildcard-merge witness (parents (A & x) and (A & ~x) collapsed into
// `merged` = A by eliminating `mergeVar`): the certificate's `w` line. No
// cover in this library is a wildcard merge any more, so nothing emits one;
// the record and its grammar remain for callers that still pass a trace.
struct CompressMergeRecord {
  Var mergeVar = 0;
  LitVec merged;  // projected index space, sorted by variable
};

struct AllSatStats {
  uint64_t satCalls = 0;          // top-level solver invocations
  uint64_t conflicts = 0;         // CDCL conflicts (blocking engines)
  uint64_t decisions = 0;
  uint64_t propagations = 0;
  uint64_t restarts = 0;          // CDCL restarts (blocking engines)
  uint64_t reduceDBs = 0;         // learnt-DB reductions (blocking engines)
  uint64_t deletedClauses = 0;    // learnt clauses deleted by reduceDB
  uint64_t blockingClauses = 0;   // clauses added to block found solutions
  uint64_t blockingLiterals = 0;  // total literals across blocking clauses
  uint64_t memoHits = 0;          // success-driven learning cache hits
  uint64_t memoMisses = 0;        // subproblems solved for the first time
  uint64_t memoEvictions = 0;     // entries dropped by the table bound
  uint64_t memoEntries = 0;
  uint64_t memoBytes = 0;         // bytes of the memo slot array
  uint64_t graphNodes = 0;        // solution graph size
  uint64_t graphEdges = 0;
  uint64_t flips = 0;             // chrono engine: pseudo-decision flips
  uint64_t shrinkLits = 0;        // chrono engine: scope literals dropped by widening
  uint64_t widenSims = 0;         // chrono engine: CircuitWidener's ternary simulations
  uint64_t dbClausesPeak = 0;     // peak stored clause count (orig + learnt)
  double seconds = 0.0;
};

// Serializes the shared stats block into `m` under the canonical counter
// names used by presat_cli --stats json and the BENCH_*.json files. Called
// by finishCover only.
void exportStatsToMetrics(const AllSatStats& stats, Metrics& m);

struct AllSatResult {
  // True iff enumeration ran to completion (false when a solution/time cap
  // stopped it early — counts are then lower bounds). Always equals
  // (outcome == Outcome::kComplete); kept for ergonomic call sites.
  bool complete = true;
  // Structured stop reason (govern/budget.hpp). Anything other than
  // kComplete marks a sound partial result: every cube still contains only
  // genuine solutions, mintermCount is a lower bound, and per-engine
  // disjointness guarantees continue to hold.
  Outcome outcome = Outcome::kComplete;
  // Cubes in the projected index space whose UNION is the projected solution
  // set. Minterm blocking and chrono produce pairwise-disjoint cubes unless
  // `compress` shrank them; success-driven, kBdd and every compressed cover
  // are the ISOP of a BDD, and lifted cube blocking's cubes may overlap too
  // (the union is still exact).
  std::vector<LitVec> cubes;
  // Exact number of projected minterms in the union of `cubes`.
  BigUint mintermCount;
  AllSatStats stats;
  // Uniform observability export (counters/gauges/histograms) — see
  // base/metrics.hpp for the JSON schema.
  Metrics metrics;
};

struct AllSatOptions {
  uint64_t maxCubes = 0;  // 0 = unlimited
  // Success-driven engine: enable the learning cache (ablation knob).
  bool successLearning = true;
  // Success-driven engine: bound on learned-subproblem memo entries
  // (0 = unbounded). When the table fills, entries not touched since the
  // previous sweep are evicted (generational second-chance); evicted
  // subproblems are simply re-solved, so results stay exact.
  size_t maxMemoEntries = 1u << 20;
  // Success-driven engine: cross-check every hashed memo probe against the
  // exact subproblem key, and the incrementally maintained signature against
  // one recomputed from scratch. Catches 128-bit signature collisions and
  // signature drift; costs an O(cone log cone) key build per probe, so
  // debug/test use only.
  bool memoCheckExact = false;
  // Projection as a first-class enumeration mode instead of a post-pass.
  // Chrono runs projected-native: enumerateNextModel() stops as soon as the
  // scope prefix plus the already-implied input/aux literals satisfy every
  // clause (an existential witness), and the cube widening reads the
  // unassigned input/aux variables as free — so cubes widen, `pre.cubes`
  // shrinks, and the input/aux space is never exhaustively decided. A lifted
  // cube-blocking cover, whose cubes may overlap, leaves as the ISOP of its
  // union (see finishCover); the minterm cover is disjoint already, and the
  // success-driven and kBdd covers are already projected ISOPs. The
  // projected union is identical either way.
  bool project = false;
  // Shrinks every cover to the ISOP of its union, isop(f, f) in finishCover:
  // the cover success-driven and kBdd return anyway, so with `compress` on
  // every engine returns the same cubes. The union and mintermCount are
  // unaffected, but the cubes may overlap.
  bool compress = false;
  // No engine reads it: every engine runs serially (parallel/options.hpp).
  ParallelOptions parallel;
  // Resource governor enforcing a Budget (deadline / memory ceiling /
  // conflict cap / cancellation) over the whole query. Not owned;
  // null = ungoverned (the default — hot paths stay unchanged).
  Governor* governor = nullptr;
};

// Copies the CNF engines' solver counters into `stats`.
void copySolverStats(const Solver& solver, AllSatStats& stats);

// What finishCover may assume of the cover an engine hands it. kIsop is
// BddManager::isop(f, f) of a BDD f the engine holds (sd, kBdd), with
// mintermCount already set from f: there is nothing left to shrink.
enum class CoverKind {
  kDisjoint,     // pairwise disjoint cubes (minterm, chrono)
  kOverlapping,  // cubes may overlap (lifted cube blocking)
  kIsop,
};

// The one epilogue every cover leaves its engine through — the blocking
// engines, chrono, success-driven and the BDD preimage engine —
// and the only place a cover is shrunk:
//  * trims the cover to options.maxCubes, combining the outcome with
//    Outcome::kCubeCap (an engine may hand in one cube past the cap to say
//    that more remain);
//  * with `compress` on, or `project` on over a kOverlapping cover, replaces
//    a cover that is no ISOP yet by isop(f, f) of its union f, built once in
//    a scratch BDD charged to options.governor, and reads mintermCount off
//    f. An ISOP can outgrow a cut cover: it is then cut again and
//    recounted. A trip keeps the unshrunk cover, counted as below; the
//    outcome stays the engine's, since the union is the same;
//  * otherwise sets mintermCount to the union of the cubes it keeps — the
//    power-of-two sum for a disjoint cover, the engine's own count for an
//    uncut ISOP, else through a scratch BDD;
//  * stamps `timer` as stats.seconds, exports the stats block, the "engine"
//    and "outcome" labels, proj.cubes under `project`, compress.cubes_in /
//    compress.cubes_out under `compress` and, with a governor attached, its
//    govern.* block, and derives `complete` from the outcome.
void finishCover(AllSatResult& result, const AllSatOptions& options, int numProjectionVars,
                 CoverKind kind, const char* engine, const Timer& timer);

// Sum of 2^(numProjectionVars - |cube|) over all cubes. Exact for disjoint
// cube sets (minterm and chrono covers). Checks every
// literal's variable against the projected index space and rejects cubes
// mentioning a variable twice — an out-of-range or duplicated literal would
// silently corrupt the count.
BigUint countDisjointCubeMinterms(const std::vector<LitVec>& cubes, int numProjectionVars);

// True if no two cubes share a projected minterm. Cofactor divide-and-
// conquer: near-linear on the disjoint covers the engines emit, with a
// work-budgeted fallback to the quadratic scan so pathological inputs stay
// exact. Cubes must be well-formed (no variable mentioned twice).
bool cubesPairwiseDisjoint(const std::vector<LitVec>& cubes);

// The original O(n^2 k^2) pairwise scan, kept as the reference oracle for
// the fuzz test asserting verdict equality with cubesPairwiseDisjoint.
bool cubesPairwiseDisjointNaive(const std::vector<LitVec>& cubes);

// OR of all cubes as a BDD over variables 0..numProjectionVars-1 of `mgr`,
// built as a balanced tree of pairwise ORs. The canonical way to compare two
// engines' answers for semantic equality.
uint32_t cubesToBdd(BddManager& mgr, const std::vector<LitVec>& cubes);

// Exact minterm count of the UNION of (possibly overlapping) cubes, computed
// through a scratch BDD.
BigUint countCubeUnionMinterms(const std::vector<LitVec>& cubes, int numProjectionVars);

// True if `cube` (projected index space) covers `minterm` (bit i = value of
// projection var i).
bool cubeCoversMinterm(const LitVec& cube, uint64_t minterm);

}  // namespace presat
