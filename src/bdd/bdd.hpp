// Reduced Ordered Binary Decision Diagram package.
//
// Serves two roles in the reproduction: the BDD-based preimage baseline the
// paper compares against, and the exactness oracle for every all-SAT engine
// (solution sets are converted to BDDs and compared for equality).
//
// Design: plain nodes without complement edges (simpler invariants, easily
// auditable), a hash-consed unique table, an ITE computed table, and no
// garbage collection — managers are scoped to an analysis and dropped
// wholesale, which is how every caller in this repository uses them.
// Variable order is the integer order of the variable indices.
//
// Both tables are flat arrays. The unique table is open addressing over node
// refs (linear probing, load <= 1/2, 0 = empty since terminals never enter
// it); it stores no keys and rehashes from the node array when it grows. The
// computed table is direct-mapped and lossy: a colliding store overwrites,
// and a miss only recomputes. Hash-consing makes every recomputation return
// the same ref (all of its intermediate nodes already exist), so refs,
// covers and counts do not depend on what the cache kept.
#pragma once

#include <cstdint>
#include <vector>

#include "base/biguint.hpp"
#include "base/types.hpp"
#include "govern/governor.hpp"

namespace presat {

class AuditResult;
enum class BddCorruption : int;

using BddRef = uint32_t;

class BddManager {
 public:
  // All BDDs in this manager range over variables 0..numVars-1.
  explicit BddManager(int numVars);

  static constexpr BddRef kFalse = 0;
  static constexpr BddRef kTrue = 1;

  int numVars() const { return numVars_; }
  size_t numNodes() const { return nodes_.size(); }
  // Current table capacities (slots), for memory accounting and tests.
  size_t uniqueSlots() const { return unique_.size(); }
  size_t cacheSlots() const { return cache_.size(); }

  // Attaches a resource governor (null to detach). Every node and every
  // table growth is charged to the tracked-byte pool, and mkNode throws
  // GovernorStop once the governor trips — the hash-consed recursion cannot
  // return a partial node, so governed callers (BDD preimage, fixpoint
  // algebra) catch at the engine boundary and report a sound partial
  // Outcome. A throw leaves both tables consistent, so the manager stays
  // usable. Ungoverned managers (the default, including every oracle use in
  // tests) never throw.
  void setGovernor(Governor* governor);

  // --- constructors -----------------------------------------------------------
  BddRef constant(bool value) const { return value ? kTrue : kFalse; }
  BddRef variable(Var v);           // the function "v"
  BddRef literal(Var v, bool phase);  // v or ~v
  BddRef literal(Lit l) { return literal(l.var(), !l.sign()); }
  // Conjunction of literals.
  BddRef cube(const LitVec& lits);

  // --- boolean operations --------------------------------------------------------
  BddRef ite(BddRef f, BddRef g, BddRef h);
  BddRef bddAnd(BddRef f, BddRef g) { return ite(f, g, kFalse); }
  BddRef bddOr(BddRef f, BddRef g) { return ite(f, kTrue, g); }
  BddRef bddXor(BddRef f, BddRef g) { return ite(f, bddNot(g), g); }
  BddRef bddXnor(BddRef f, BddRef g) { return ite(f, g, bddNot(g)); }
  BddRef bddNot(BddRef f) { return ite(f, kFalse, kTrue); }

  // --- structure ------------------------------------------------------------------
  bool isConstant(BddRef f) const { return f <= kTrue; }
  Var topVar(BddRef f) const;
  BddRef low(BddRef f) const;
  BddRef high(BddRef f) const;

  // Cofactor with respect to a single literal.
  BddRef restrict1(BddRef f, Var v, bool value);

  // Existential quantification over a variable set.
  BddRef exists(BddRef f, const std::vector<Var>& vars);
  // Relational product ∃vars. f ∧ g in one pass (avoids building the full
  // conjunction before quantifying) — the classic image/preimage primitive.
  BddRef andExists(BddRef f, BddRef g, const std::vector<Var>& vars);

  // Simultaneous substitution: variable v is replaced by substitution[v]
  // (entries equal to kNoSubstitution keep the variable). Used for the
  // substitution-based preimage  Target(s' <- delta(s, x)).
  static constexpr BddRef kNoSubstitution = static_cast<BddRef>(-1);
  BddRef composeVector(BddRef f, const std::vector<BddRef>& substitution);

  // --- queries --------------------------------------------------------------------
  // Number of satisfying assignments over all numVars() variables.
  BigUint satCount(BddRef f);
  // Cubes (paths to kTrue), low branch first: literals over the decision
  // variables on the path. The paths of a reduced ordered BDD are pairwise
  // disjoint, and the list depends only on the function and the variable
  // order. Stops after `limit` cubes (0 = all).
  std::vector<LitVec> enumerateCubes(BddRef f, uint64_t limit = 0);
  // Irredundant sum of products f with lower <= f <= upper (Minato–Morreale):
  // every cube lies inside `upper` and is prime there (dropping any literal
  // leaves `upper`), and no cube can be dropped without uncovering part of
  // `lower`. `upper` acts as the don't-care bound, so the cover is usually
  // far smaller than lower's paths. Literals ascend by variable, and the list
  // depends only on (lower, upper) and the variable order. Requires
  // lower <= upper; isop(false, u) has no cubes, isop(l, true) is the one
  // empty cube.
  std::vector<LitVec> isop(BddRef lower, BddRef upper);

  // Structural equality is just reference equality thanks to hash-consing;
  // exposed for readability at call sites.
  static bool equal(BddRef a, BddRef b) { return a == b; }

 private:
  struct Node {
    Var var;  // numVars_ for terminals
    BddRef lo;
    BddRef hi;
  };
  // One computed-table entry; f == kFalse marks an empty slot (ite never
  // stores a constant f).
  struct CacheEntry {
    BddRef f, g, h, result;
  };

  BddRef mkNode(Var var, BddRef lo, BddRef hi);
  const Node& node(BddRef f) const { return nodes_[f]; }

  // Home slot of a (var, lo, hi) triple in the unique table.
  size_t uniqueHome(Var var, BddRef lo, BddRef hi) const;
  // The ref stored under (var, lo, hi), or 0 when the probe reaches an empty
  // slot first; `slot` is left at the matching or the empty slot.
  BddRef uniqueFind(Var var, BddRef lo, BddRef hi, size_t& slot) const;
  size_t cacheSlot(BddRef f, BddRef g, BddRef h) const;
  void growUnique();
  void growCache();

  int numVars_;
  std::vector<Node> nodes_;
  std::vector<BddRef> unique_;   // power-of-two slots, 0 = empty
  size_t uniqueEntries_ = 0;     // occupied unique-table slots
  std::vector<CacheEntry> cache_;  // power-of-two slots, direct-mapped

  Governor* governor_ = nullptr;
  MemoryLedger poolLedger_;  // node-pool and table bytes charged to the governor

  // Deep structural validation (src/check/audit_bdd.cpp) and its test-only
  // corruption hook need access to the node table and caches.
  friend AuditResult auditBdd(const BddManager& mgr);
  friend void corruptBddForTest(BddManager& mgr, BddCorruption kind);
};

}  // namespace presat
