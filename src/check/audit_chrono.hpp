// Deep validation of a chronological-enumeration cube set.
//
// The chrono engine (src/allsat/chrono_blocking.cpp) promises cubes that are
// pairwise disjoint AND whose union is exactly the projected solution set —
// the two properties its minterm counting relies on. This auditor proves
// both against independent oracles:
//
//   chrono.disjoint   no two cubes share a projected minterm (pairwise
//                     opposite-literal clash, O(n^2) over the cube set)
//   chrono.cover      the cube union equals the BDD projection of the CNF's
//                     solution set (existential quantification of the
//                     non-scope variables) when the enumeration is complete;
//                     containment in it when it was capped. Skipped — not
//                     failed — above `maxOracleVars` (the BDD blows up).
#pragma once

#include <vector>

#include "base/types.hpp"
#include "check/audit.hpp"
#include "cnf/cnf.hpp"

namespace presat {

struct ChronoAuditOptions {
  // The chrono.cover oracle builds a BDD over every CNF variable; skip it
  // beyond this many (the structural disjointness check always runs).
  int maxOracleVars = 24;
  // Diagnostic name prefix: "chrono" for the plain engine, "proj" when
  // auditing a projected-native run (same invariants, distinct failure
  // names so a report pinpoints the mode).
  const char* diagPrefix = "chrono";
};

// `cubes` are in the projected index space (literal variable i refers to
// projection[i]), as produced by chronoAllSat. `complete` selects equality
// vs containment for chrono.cover.
AuditResult auditChronoCubes(const Cnf& cnf, const std::vector<Var>& projection,
                             const std::vector<LitVec>& cubes, bool complete,
                             const ChronoAuditOptions& options = {});

// Test-only corruption hooks for the death tests in tests/chrono_test.cpp.
enum class ChronoCorruption {
  kDuplicateCube,  // re-emit an existing cube -> chrono.disjoint
  kDropCube,       // lose a cube -> chrono.cover (complete run only)
};
void corruptChronoCubesForTest(std::vector<LitVec>& cubes, ChronoCorruption kind);

}  // namespace presat
