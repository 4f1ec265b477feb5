#include "allsat/chrono_blocking.hpp"

#include <algorithm>

#include "allsat/compress.hpp"
#include "allsat/lifting.hpp"
#include "base/log.hpp"
#include "base/timer.hpp"
#include "check/audit_chrono.hpp"
#include "check/audit_solver.hpp"
#include "parallel/parallel_allsat.hpp"
#include "sat/solver.hpp"

namespace presat {

AllSatResult chronoAllSat(const Cnf& cnf, const std::vector<Var>& projection,
                          const AllSatOptions& options, const CircuitWidener* widener) {
  // Each scope variable owns one cube position; a repeated one would be
  // counted once per position.
  std::vector<uint8_t> inScope(static_cast<size_t>(cnf.numVars()), 0);
  for (Var v : projection) {
    PRESAT_CHECK(v >= 0 && v < cnf.numVars()) << "unknown variable x" << v << " in chrono scope";
    PRESAT_CHECK(!inScope[static_cast<size_t>(v)]) << "chrono scope lists x" << v << " twice";
    inScope[static_cast<size_t>(v)] = 1;
  }
  if (options.parallel.enabled()) {
    // The guide units are level-0 assignments, so every emitted prefix keeps
    // them, and the widener is shared by every shard as is.
    AllSatResult result = parallelCnfAllSat(
        cnf, projection, options, [&projection, widener](const Cnf& sub, const AllSatOptions& o) {
          return chronoAllSat(sub, projection, o, widener);
        });
    result.metrics.setLabel("engine", "chrono");
    return result;
  }
  Timer timer;
  AllSatResult result;
  Governor* governor = options.governor;
  Solver solver;
  solver.setGovernor(governor);
  bool consistent = solver.addCnf(cnf);

  std::vector<int> varLevel(static_cast<size_t>(cnf.numVars()), 0);
  std::vector<lbool> widenValues;  // the widener's node buffer, reused per model
  if (consistent) {
    solver.beginEnumeration(projection, /*projectedWitness=*/options.project,
                            widener != nullptr ? widener->deferredScope() : std::vector<Var>{});
    for (;;) {
      lbool status = solver.enumerateNextModel();
      ++result.stats.satCalls;
      if (status.isUndef()) {
        // The governor tripped mid-call: the disjoint cubes found so far
        // are a valid partial answer, so return them instead of aborting.
        result.outcome = governor->reason();
        break;
      }
      if (status.isFalse()) break;
      // The cap is checked after the solve so that exact exhaustion at
      // maxCubes still reports complete: this model proves at least one
      // uncovered solution remains.
      if (options.maxCubes != 0 && result.cubes.size() >= options.maxCubes) {
        result.outcome = Outcome::kCubeCap;
        break;
      }

      // Emission level: the shallowest sound prefix, but the cube may never
      // be wider than the deepest flipped level (disjointness with earlier
      // cubes) nor than the scope prefix (soundness: freeing a scope
      // variable decided below a kept non-scope level would discard the
      // sibling models of that non-scope decision).
      const int k = solver.scopePrefixLength();
      const int flipped = std::min(solver.deepestFlippedLevel(), k);
      int bEmit = k;
      if (widener != nullptr) {
        // The netlist decides: the model's inputs (X where unassigned or
        // eliminated) with the scope beyond the prefix at X must still
        // force the target.
        for (Var v : projection) varLevel[static_cast<size_t>(v)] = solver.levelOf(v);
        bEmit = widener->emitLevel(solver.model(), varLevel, flipped, k, widenValues,
                                   result.stats.widenSims);
      } else {
        // Raw CNF: the implicant scan finds the shallowest prefix that
        // already satisfies every clause. Projected mode works on partial
        // witness models: assigned non-scope literals are existential
        // witnesses counted at level 0, so the projected level never
        // exceeds the unprojected one — cubes can only widen.
        for (Var v = 0; v < cnf.numVars(); ++v) {
          varLevel[static_cast<size_t>(v)] = solver.levelOf(v);
        }
        int bImplicant = options.project
                             ? projectedWitnessLevel(cnf, solver.model(), varLevel, inScope)
                             : implicantPrefixLevel(cnf, solver.model(), varLevel);
        bEmit = std::min(std::max(bImplicant, flipped), k);
      }

      // The cube is ALL scope literals stamped at levels <= bEmit —
      // decisions and implied literals alike; dropping an implied one would
      // overcount.
      LitVec projectedCube;
      for (size_t i = 0; i < projection.size(); ++i) {
        if (solver.levelOf(projection[i]) > bEmit) continue;
        bool value = solver.modelValue(projection[i]);
        projectedCube.push_back(mkLit(static_cast<Var>(i), !value));
      }
      result.stats.shrinkLits += projection.size() - projectedCube.size();
      result.cubes.push_back(std::move(projectedCube));

      if (!solver.flipToNextRegion(bEmit)) break;
    }
    solver.endEnumeration();
  }

  // Wildcard compression preserves both the union and disjointness, so it
  // runs before the count and the count stays the plain power-of-two sum.
  applyProjectionPostpass(result, options, /*disjointCubes=*/true);

  // Disjoint by construction, so the plain power-of-two sum is exact.
  result.mintermCount =
      countDisjointCubeMinterms(result.cubes, static_cast<int>(projection.size()));
  finishSolverResult(result, solver, "chrono", timer.seconds(), governor);
  // The session is closed (level 0), so the structural solver audit applies;
  // the cube-set audit proves disjointness, and BDD-exact coverage when the
  // run completed (a budgeted partial set is audited for soundness only).
  ChronoAuditOptions auditOptions;
  if (options.project) auditOptions.diagPrefix = "proj";
  static_cast<void>(auditOptions);
  PRESAT_AUDIT_FULL(PRESAT_CHECK_AUDIT(auditSolver(solver)));
  PRESAT_AUDIT_FULL(PRESAT_CHECK_AUDIT(
      auditChronoCubes(cnf, projection, result.cubes, result.complete, auditOptions)));
  return result;
}

}  // namespace presat
