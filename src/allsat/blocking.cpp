#include "allsat/blocking.hpp"

#include "allsat/compress.hpp"
#include "base/log.hpp"
#include "base/timer.hpp"
#include "check/audit_solver.hpp"
#include "parallel/parallel_allsat.hpp"
#include "sat/solver.hpp"

namespace presat {

AllSatResult blockingAllSat(const Cnf& cnf, const std::vector<Var>& projection,
                            const ModelLifter& lifter, const AllSatOptions& options) {
  // Minterm blocking splits: each shard's clause database holds only its own
  // shard's blocking clauses. Lifted blocking stays serial at every `jobs`
  // (DESIGN.md "Parallel enumeration" has the measurement).
  if (options.parallel.enabled() && !lifter) {
    AllSatResult result = parallelCnfAllSat(
        cnf, projection, options, [&projection](const Cnf& sub, const AllSatOptions& o) {
          return blockingAllSat(sub, projection, {}, o);
        });
    result.metrics.setLabel("engine", "minterm-blocking");
    return result;
  }
  Timer timer;
  AllSatResult result;

  // Original variable -> projected index, for translating cubes.
  std::vector<int> projectedIndex(static_cast<size_t>(cnf.numVars()), -1);
  for (size_t i = 0; i < projection.size(); ++i) {
    projectedIndex[static_cast<size_t>(projection[i])] = static_cast<int>(i);
  }

  Governor* governor = options.governor;
  Solver solver;
  solver.setGovernor(governor);
  bool consistent = solver.addCnf(cnf);
  bool maybeOverlapping = false;

  while (consistent) {
    if (governor != nullptr && governor->poll() != Outcome::kComplete) {
      result.outcome = governor->reason();
      break;
    }
    lbool status = solver.solve();
    ++result.stats.satCalls;
    if (status.isUndef()) {
      // The governor tripped mid-call: the cubes found so far are a valid
      // partial answer, so return them instead of aborting.
      result.outcome = governor->reason();
      break;
    }
    if (status.isFalse()) break;
    // The cap is checked after the solve so that exact exhaustion at
    // maxCubes still reports complete: this SAT call proves at least one
    // uncovered solution remains.
    if (options.maxCubes != 0 && result.cubes.size() >= options.maxCubes) {
      result.outcome = Outcome::kCubeCap;
      break;
    }

    // The blocking clause requires at least one cube literal to differ.
    LitVec blocking;
    LitVec projectedCube;
    if (lifter) {
      LitVec cube = lifter(solver.model());
      for (Lit l : cube) {
        int index = projectedIndex[static_cast<size_t>(l.var())];
        PRESAT_CHECK(index >= 0) << "lifter returned a literal outside the projection scope";
        PRESAT_CHECK(solver.modelValue(l)) << "lifter returned a literal contradicting the model";
        blocking.push_back(~l);
        projectedCube.push_back(mkLit(static_cast<Var>(index), l.sign()));
      }
      if (cube.size() < projection.size()) maybeOverlapping = true;
    } else {
      // Position by position, so a variable listed twice in the projection
      // (image: two state bits driven by one node) fills both positions.
      blocking.reserve(projection.size());
      projectedCube.reserve(projection.size());
      for (size_t i = 0; i < projection.size(); ++i) {
        bool value = solver.modelValue(projection[i]);
        blocking.push_back(mkLit(projection[i], value));
        projectedCube.push_back(mkLit(static_cast<Var>(i), !value));
      }
    }
    result.cubes.push_back(std::move(projectedCube));
    result.stats.blockingClauses += 1;
    result.stats.blockingLiterals += blocking.size();

    consistent = solver.addClause(blocking);
    // Each blocking clause mutates the watch/trail structures the next solve
    // depends on — at full audit depth, re-validate the solver every round.
    PRESAT_AUDIT_FULL(PRESAT_CHECK_AUDIT(auditSolver(solver)));
  }

  // Project-then-dedup / compress epilogue: lifted covers may carry
  // duplicate or subsumed cubes, so they take the overlapping cleanup path;
  // the minterm cover is disjoint and only ever compressed. The union is
  // unchanged either way, so the counting below is unaffected.
  applyProjectionPostpass(result, options, /*disjointCubes=*/!maybeOverlapping);

  // Lifted cubes from successive iterations can overlap earlier cubes, so the
  // exact union count goes through a BDD; the disjoint case short-circuits.
  if (maybeOverlapping) {
    result.mintermCount =
        countCubeUnionMinterms(result.cubes, static_cast<int>(projection.size()));
  } else {
    result.mintermCount =
        countDisjointCubeMinterms(result.cubes, static_cast<int>(projection.size()));
  }
  finishSolverResult(result, solver, lifter ? "cube-blocking" : "minterm-blocking",
                     timer.seconds(), governor);
  return result;
}

}  // namespace presat
