// Deep structural validation of a BddManager.
//
//   bdd.terminal          refs 0/1 are the terminals, tagged var == numVars
//   bdd.ordering          every interior node's variable strictly precedes
//                         both children's variables (ROBDD order invariant)
//   bdd.reduced           no interior node has lo == hi
//   bdd.unique.canonical  the unique table and the node array agree: every
//                         occupied slot holds a live interior ref that a
//                         probe for its node's (var, lo, hi) triple reaches,
//                         every interior node is found under exactly its
//                         triple, and no triple repeats
//   bdd.unique.balance    nodes == unique entries + 2 terminals, and the
//                         occupied slots match the entry count — the no-GC
//                         analogue of refcount balance (a drifting table
//                         silently breaks canonicity of future mkNode calls)
//   bdd.cache.range       every computed-table entry's operands and result
//                         are refs inside the node table
#pragma once

#include "check/audit.hpp"

namespace presat {

class BddManager;

AuditResult auditBdd(const BddManager& mgr);

// Test-only corruption hooks (see SolverCorruption for the pattern).
enum class BddCorruption : int {
  kOrderViolation,   // interior node pointing at a child of non-greater var
  kRedundantNode,    // interior node with lo == hi
  kUniqueTableDrift, // drop a unique-table entry, leaving the node orphaned
};
void corruptBddForTest(BddManager& mgr, BddCorruption kind);

}  // namespace presat
