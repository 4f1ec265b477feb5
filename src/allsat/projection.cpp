#include "allsat/projection.hpp"

#include <algorithm>
#include <optional>

#include "allsat/compress.hpp"
#include "base/log.hpp"
#include "bdd/bdd.hpp"
#include "govern/governor.hpp"
#include "sat/solver.hpp"

namespace presat {

void exportStatsToMetrics(const AllSatStats& stats, Metrics& m) {
  m.setCounter("sat.calls", stats.satCalls);
  m.setCounter("sat.conflicts", stats.conflicts);
  m.setCounter("sat.decisions", stats.decisions);
  m.setCounter("sat.propagations", stats.propagations);
  m.setCounter("sat.restarts", stats.restarts);
  m.setCounter("sat.reduce_dbs", stats.reduceDBs);
  m.setCounter("sat.deleted_clauses", stats.deletedClauses);
  m.setCounter("blocking.clauses", stats.blockingClauses);
  m.setCounter("blocking.literals", stats.blockingLiterals);
  m.setCounter("memo.hits", stats.memoHits);
  m.setCounter("memo.misses", stats.memoMisses);
  m.setCounter("memo.evictions", stats.memoEvictions);
  m.setCounter("memo.entries", stats.memoEntries);
  m.setCounter("memo.bytes", stats.memoBytes);
  m.setCounter("graph.nodes", stats.graphNodes);
  m.setCounter("graph.edges", stats.graphEdges);
  m.setCounter("chrono.flips", stats.flips);
  m.setCounter("chrono.shrink_lits", stats.shrinkLits);
  m.setCounter("chrono.widen_sims", stats.widenSims);
  m.setCounter("sat.db_clauses", stats.dbClausesPeak);
  m.setGauge("time.seconds", stats.seconds);
}

void accumulateStats(AllSatStats& total, const AllSatStats& part) {
  total.satCalls += part.satCalls;
  total.conflicts += part.conflicts;
  total.decisions += part.decisions;
  total.propagations += part.propagations;
  total.restarts += part.restarts;
  total.reduceDBs += part.reduceDBs;
  total.deletedClauses += part.deletedClauses;
  total.blockingClauses += part.blockingClauses;
  total.blockingLiterals += part.blockingLiterals;
  total.memoHits += part.memoHits;
  total.memoMisses += part.memoMisses;
  total.memoEvictions += part.memoEvictions;
  total.memoEntries += part.memoEntries;
  total.memoBytes += part.memoBytes;
  total.graphNodes += part.graphNodes;
  total.graphEdges += part.graphEdges;
  total.flips += part.flips;
  total.shrinkLits += part.shrinkLits;
  total.widenSims += part.widenSims;
  // Parts run independent solvers; the meaningful global figure is the
  // worst single database, not the sum. Max over a fixed part set is
  // schedule-independent, preserving the determinism contract.
  total.dbClausesPeak = std::max(total.dbClausesPeak, part.dbClausesPeak);
}

void copySolverStats(const Solver& solver, AllSatStats& stats) {
  const SolverStats& s = solver.stats();
  stats.conflicts = s.conflicts;
  stats.decisions = s.decisions;
  stats.propagations = s.propagations;
  stats.restarts = s.restarts;
  stats.reduceDBs = s.reduceDBs;
  stats.deletedClauses = s.deletedClauses;
  stats.flips = s.flips;
  stats.dbClausesPeak = s.dbClausesPeak;
}

namespace {

// Replaces `cubes` by isop(f, f) of their union f over variables
// 0..numVars-1 and returns f's minterm count. The scratch BDD is charged to
// `governor`; a trip leaves `cubes` as they were and returns nothing.
std::optional<BigUint> shrinkToIsop(std::vector<LitVec>& cubes, int numVars,
                                    Governor* governor) {
  BddManager mgr(numVars);
  mgr.setGovernor(governor);
  try {
    const BddRef f = cubesToBdd(mgr, cubes);
    cubes = mgr.isop(f, f);
    return mgr.satCount(f);
  } catch (const GovernorStop&) {
    return std::nullopt;
  }
}

// Cuts the cover to `maxCubes` (0 = no cap); true if it cut.
bool trimToCap(AllSatResult& result, uint64_t maxCubes) {
  if (maxCubes == 0 || result.cubes.size() <= maxCubes) return false;
  result.cubes.resize(maxCubes);
  result.outcome = combineOutcomes(result.outcome, Outcome::kCubeCap);
  return true;
}

}  // namespace

CompressStats compressCubes(std::vector<LitVec>& cubes, Governor* governor,
                            std::vector<CompressMergeRecord>* /*trace*/) {
  int numVars = 0;
  for (const LitVec& cube : cubes) {
    for (Lit l : cube) numVars = std::max(numVars, l.var() + 1);
  }
  CompressStats stats;
  stats.cubesIn = cubes.size();
  shrinkToIsop(cubes, numVars, governor);
  stats.cubesOut = cubes.size();
  return stats;
}

void finishCover(AllSatResult& result, const AllSatOptions& options, int numProjectionVars,
                 CoverKind kind, const char* engine, const Timer& timer) {
  const bool cut = trimToCap(result, options.maxCubes);
  const size_t cubesIn = result.cubes.size();
  std::optional<BigUint> count;
  if (kind != CoverKind::kIsop &&
      (options.compress || (options.project && kind == CoverKind::kOverlapping))) {
    count = shrinkToIsop(result.cubes, numProjectionVars, options.governor);
  }
  if (count) {
    // An ISOP may outgrow the cover it replaces.
    result.mintermCount = trimToCap(result, options.maxCubes)
                              ? countCubeUnionMinterms(result.cubes, numProjectionVars)
                              : std::move(*count);
  } else if (kind == CoverKind::kDisjoint) {
    result.mintermCount = countDisjointCubeMinterms(result.cubes, numProjectionVars);
  } else if (kind == CoverKind::kOverlapping || cut) {
    result.mintermCount = countCubeUnionMinterms(result.cubes, numProjectionVars);
  }
  if (options.project) result.metrics.setCounter("proj.cubes", result.cubes.size());
  if (options.compress) {
    result.metrics.setCounter("compress.cubes_in", cubesIn);
    result.metrics.setCounter("compress.cubes_out", result.cubes.size());
  }
  result.stats.seconds = timer.seconds();
  result.complete = (result.outcome == Outcome::kComplete);
  result.metrics.setLabel("engine", engine);
  result.metrics.setLabel("outcome", outcomeName(result.outcome));
  exportStatsToMetrics(result.stats, result.metrics);
  if (options.governor != nullptr) options.governor->exportMetrics(result.metrics);
}

BigUint countDisjointCubeMinterms(const std::vector<LitVec>& cubes, int numProjectionVars) {
  BigUint total(0);
  // Generation-stamped duplicate detector: one allocation for the whole
  // call, no per-cube clearing.
  std::vector<uint32_t> seenStamp(static_cast<size_t>(numProjectionVars), 0);
  uint32_t stamp = 0;
  for (const LitVec& cube : cubes) {
    PRESAT_CHECK(cube.size() <= static_cast<size_t>(numProjectionVars));
    ++stamp;
    for (Lit l : cube) {
      PRESAT_CHECK(l.var() >= 0 && l.var() < numProjectionVars)
          << "cube literal x" << l.var() << " is outside the projected index space [0, "
          << numProjectionVars << ")";
      uint32_t& cell = seenStamp[static_cast<size_t>(l.var())];
      PRESAT_CHECK(cell != stamp) << "cube mentions x" << l.var() << " twice";
      cell = stamp;
    }
    total += BigUint::powerOfTwo(
        static_cast<uint32_t>(numProjectionVars - static_cast<int>(cube.size())));
  }
  return total;
}

namespace {

// Reference pairwise scan, also the budget-exhaustion fallback of the
// cofactor recursion (exact on any subproblem).
bool disjointQuadratic(const std::vector<LitVec>& cubes) {
  for (size_t i = 0; i < cubes.size(); ++i) {
    for (size_t j = i + 1; j < cubes.size(); ++j) {
      // Disjoint iff some variable appears with opposite polarity.
      bool clash = false;
      for (Lit a : cubes[i]) {
        for (Lit b : cubes[j]) {
          if (a.var() == b.var() && a.sign() != b.sign()) {
            clash = true;
            break;
          }
        }
        if (clash) break;
      }
      if (!clash) return false;
    }
  }
  return true;
}

// Cofactor recursion on the smallest variable present: cubes fixing it split
// into the positive and negative branch (dropping the literal), cubes not
// mentioning it go to both. Two cubes overlap iff they land in a common
// branch with no remaining clash, which eventually surfaces as an empty cube
// sharing a branch with another cube. Requires per-cube literals sorted by
// variable. `budget` caps the total cubes touched; on exhaustion the current
// subproblem falls back to the quadratic scan, so the verdict stays exact.
bool disjointByCofactor(std::vector<LitVec> cubes, uint64_t& budget) {
  for (;;) {
    if (cubes.size() <= 1) return true;
    for (const LitVec& c : cubes) {
      // An empty cube is the full space of the remaining variables: it
      // overlaps every other cube in this branch.
      if (c.empty()) return false;
    }
    if (budget < cubes.size()) return disjointQuadratic(cubes);
    budget -= cubes.size();
    Var v = cubes[0][0].var();
    for (const LitVec& c : cubes) v = std::min(v, c[0].var());
    std::vector<LitVec> pos, neg;
    pos.reserve(cubes.size());
    neg.reserve(cubes.size());
    for (LitVec& c : cubes) {
      if (c[0].var() != v) {
        pos.push_back(c);
        neg.push_back(std::move(c));
        continue;
      }
      LitVec rest(c.begin() + 1, c.end());
      if (c[0].sign()) {
        neg.push_back(std::move(rest));
      } else {
        pos.push_back(std::move(rest));
      }
    }
    if (!disjointByCofactor(std::move(pos), budget)) return false;
    cubes = std::move(neg);
  }
}

}  // namespace

bool cubesPairwiseDisjoint(const std::vector<LitVec>& cubes) {
  std::vector<LitVec> canonical = cubes;
  for (LitVec& c : canonical) {
    std::sort(c.begin(), c.end());
    for (size_t i = 0; i + 1 < c.size(); ++i) {
      PRESAT_CHECK(c[i].var() != c[i + 1].var())
          << "cube mentions x" << c[i].var() << " twice";
    }
  }
  // Generous budget: typical disjoint covers finish in O(n log n)-ish work;
  // adversarial overlap patterns degrade to exact quadratic scans on the
  // offending subproblems instead of exponential duplication.
  uint64_t budget = 1u << 20;
  budget += 64 * static_cast<uint64_t>(canonical.size());
  return disjointByCofactor(std::move(canonical), budget);
}

bool cubesPairwiseDisjointNaive(const std::vector<LitVec>& cubes) {
  return disjointQuadratic(cubes);
}

uint32_t cubesToBdd(BddManager& mgr, const std::vector<LitVec>& cubes) {
  // Pairwise rounds keep both operands of each OR about the same size; a
  // left fold ORs every cube into the whole union built so far.
  std::vector<BddRef> level;
  level.reserve(cubes.size());
  for (const LitVec& cube : cubes) level.push_back(mgr.cube(cube));
  while (level.size() > 1) {
    size_t out = 0;
    for (size_t i = 0; i + 1 < level.size(); i += 2) level[out++] = mgr.bddOr(level[i], level[i + 1]);
    if (level.size() % 2 == 1) level[out++] = level.back();
    level.resize(out);
  }
  return level.empty() ? BddManager::kFalse : level[0];
}

BigUint countCubeUnionMinterms(const std::vector<LitVec>& cubes, int numProjectionVars) {
  BddManager mgr(numProjectionVars);
  BddRef u = cubesToBdd(mgr, cubes);
  return mgr.satCount(u);
}

bool cubeCoversMinterm(const LitVec& cube, uint64_t minterm) {
  for (Lit l : cube) {
    // The minterm encoding has one bit per projection variable; shifting by
    // the variable index is undefined (and reads garbage on real hardware)
    // once it reaches the word width.
    PRESAT_CHECK(l.var() >= 0 && l.var() < 64)
        << "cubeCoversMinterm: variable x" << l.var() << " outside the 64-bit minterm space";
    bool bit = (minterm >> l.var()) & 1;
    if (bit == l.sign()) return false;  // literal requires the opposite value
  }
  return true;
}

}  // namespace presat
