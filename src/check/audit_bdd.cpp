#include "check/audit_bdd.hpp"

#include <string>

#include "base/log.hpp"
#include "bdd/bdd.hpp"

namespace presat {

namespace {

std::string refStr(BddRef f) { return numbered("@", f); }

}  // namespace

AuditResult auditBdd(const BddManager& mgr) {
  AuditResult r;
  const size_t n = mgr.nodes_.size();
  const Var terminalVar = static_cast<Var>(mgr.numVars_);

  // -- terminals ------------------------------------------------------------
  if (n < 2) {
    r.fail("bdd.terminal", "node table has " + std::to_string(n) + " entries (need both terminals)");
    return r;
  }
  for (BddRef t : {BddManager::kFalse, BddManager::kTrue}) {
    const BddManager::Node& node = mgr.nodes_[t];
    if (node.var != terminalVar || node.lo != t || node.hi != t) {
      r.fail("bdd.terminal", "terminal " + refStr(t) + " is not self-referential with var == numVars");
    }
  }

  // -- interior nodes: ordering + reduction --------------------------------
  for (BddRef f = 2; f < n; ++f) {
    const BddManager::Node& node = mgr.nodes_[f];
    if (node.var < 0 || node.var >= terminalVar) {
      r.fail("bdd.ordering", "node " + refStr(f) + " has variable " + std::to_string(node.var) +
                                 " outside [0, " + std::to_string(mgr.numVars_) + ")");
      continue;
    }
    if (node.lo >= n || node.hi >= n) {
      r.fail("bdd.ordering", "node " + refStr(f) + " has a child out of range");
      continue;
    }
    if (node.lo == node.hi) {
      r.fail("bdd.reduced", "node " + refStr(f) + " on x" + std::to_string(node.var) +
                                " has lo == hi == " + refStr(node.lo));
    }
    for (BddRef child : {node.lo, node.hi}) {
      if (mgr.nodes_[child].var <= node.var) {
        r.fail("bdd.ordering", "node " + refStr(f) + " on x" + std::to_string(node.var) +
                                   " points at child " + refStr(child) + " on x" +
                                   std::to_string(mgr.nodes_[child].var) +
                                   " — variable order must strictly increase");
      }
    }
  }

  // -- unique table vs node array ------------------------------------------
  // The table stores refs only, so a slot's key is its node's triple; a slot
  // is canonical when probing that triple from its home slot finds it.
  size_t occupied = 0;
  for (size_t slot = 0; slot < mgr.unique_.size(); ++slot) {
    const BddRef ref = mgr.unique_[slot];
    if (ref == 0) continue;
    ++occupied;
    if (ref < 2 || ref >= n) {
      r.fail("bdd.unique.canonical",
             "unique-table slot " + std::to_string(slot) + " holds invalid ref " + refStr(ref));
      continue;
    }
    const BddManager::Node& node = mgr.nodes_[ref];
    size_t found = 0;
    if (mgr.uniqueFind(node.var, node.lo, node.hi, found) != ref) {
      r.fail("bdd.unique.canonical",
             "unique-table slot " + std::to_string(slot) + " holds node " + refStr(ref) + " (" +
                 std::to_string(node.var) + ", " + refStr(node.lo) + ", " + refStr(node.hi) +
                 ") where a probe for its triple does not reach it");
    }
  }
  if (n != mgr.uniqueEntries_ + 2 || occupied != mgr.uniqueEntries_) {
    r.fail("bdd.unique.balance",
           std::to_string(n) + " nodes vs " + std::to_string(mgr.uniqueEntries_) +
               " unique-table entries in " + std::to_string(occupied) +
               " occupied slots (expected nodes == entries + 2 terminals == occupied + 2)");
  }
  for (BddRef f = 2; f < n; ++f) {
    const BddManager::Node& node = mgr.nodes_[f];
    size_t found = 0;
    const BddRef ref = mgr.uniqueFind(node.var, node.lo, node.hi, found);
    if (ref == 0) {
      r.fail("bdd.unique.canonical", "node " + refStr(f) + " is missing from the unique table");
    } else if (ref != f) {
      r.fail("bdd.unique.canonical", "nodes " + refStr(f) + " and " + refStr(ref) +
                                         " share the same (var, lo, hi) triple");
    }
  }

  // -- computed table ---------------------------------------------------------
  for (const BddManager::CacheEntry& e : mgr.cache_) {
    if (e.f >= n || e.g >= n || e.h >= n || e.result >= n) {
      r.fail("bdd.cache.range", "ITE cache entry references a ref beyond the node table");
    }
  }

  return r;
}

void corruptBddForTest(BddManager& mgr, BddCorruption kind) {
  switch (kind) {
    case BddCorruption::kOrderViolation:
      PRESAT_CHECK(mgr.nodes_.size() > 2) << "corruptBddForTest: no interior node";
      // Point the first interior node's lo back at itself: same variable,
      // order violated.
      mgr.nodes_[2].lo = 2;
      return;
    case BddCorruption::kRedundantNode:
      // Bypasses mkNode's reduction rule; also unbalances the unique table.
      mgr.nodes_.push_back({0, BddManager::kTrue, BddManager::kTrue});
      return;
    case BddCorruption::kUniqueTableDrift: {
      for (BddRef& slot : mgr.unique_) {
        if (slot == 0) continue;
        slot = 0;
        --mgr.uniqueEntries_;
        return;
      }
      PRESAT_CHECK(false) << "corruptBddForTest: empty unique table";
    }
  }
  PRESAT_CHECK(false) << "corruptBddForTest: unknown corruption kind";
}

}  // namespace presat
