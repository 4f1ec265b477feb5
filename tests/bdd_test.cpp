// ROBDD package tests: canonicity, boolean algebra, quantification,
// composition, counting, enumeration — differentially against truth tables.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <functional>
#include <string>

#include "base/rng.hpp"
#include "bdd/bdd.hpp"
#include "check/audit_bdd.hpp"

namespace presat {
namespace {

// Evaluates a BDD under an assignment (bit i of `bits` = var i).
bool evalBdd(const BddManager& mgr, BddRef f, uint64_t bits) {
  BddManager& m = const_cast<BddManager&>(mgr);
  while (!m.isConstant(f)) {
    f = ((bits >> m.topVar(f)) & 1) ? m.high(f) : m.low(f);
  }
  return f == BddManager::kTrue;
}

TEST(Bdd, Terminals) {
  BddManager mgr(3);
  EXPECT_EQ(mgr.constant(true), BddManager::kTrue);
  EXPECT_EQ(mgr.constant(false), BddManager::kFalse);
  EXPECT_TRUE(mgr.isConstant(BddManager::kTrue));
}

TEST(Bdd, VariableAndLiteral) {
  BddManager mgr(3);
  BddRef x = mgr.variable(1);
  EXPECT_EQ(mgr.topVar(x), 1);
  EXPECT_EQ(mgr.low(x), BddManager::kFalse);
  EXPECT_EQ(mgr.high(x), BddManager::kTrue);
  BddRef nx = mgr.literal(1, false);
  EXPECT_EQ(nx, mgr.bddNot(x));
}

TEST(Bdd, HashConsingCanonicity) {
  BddManager mgr(4);
  BddRef a = mgr.variable(0);
  BddRef b = mgr.variable(1);
  // (a & b) built two different ways must be the same node.
  BddRef ab1 = mgr.bddAnd(a, b);
  BddRef ab2 = mgr.bddNot(mgr.bddOr(mgr.bddNot(a), mgr.bddNot(b)));
  EXPECT_EQ(ab1, ab2);
  // Double negation is the identity.
  EXPECT_EQ(mgr.bddNot(mgr.bddNot(ab1)), ab1);
  // XOR of equal operands is false.
  EXPECT_EQ(mgr.bddXor(ab1, ab2), BddManager::kFalse);
}

TEST(Bdd, CubeConstruction) {
  BddManager mgr(4);
  BddRef c = mgr.cube({mkLit(0), ~mkLit(2)});
  EXPECT_EQ(mgr.satCount(c).toU64(), 4u);  // 2 free vars
  EXPECT_TRUE(evalBdd(mgr, c, 0b0001));
  EXPECT_FALSE(evalBdd(mgr, c, 0b0101));
  EXPECT_FALSE(evalBdd(mgr, c, 0b0000));
  EXPECT_EQ(mgr.cube({}), BddManager::kTrue);
}

TEST(Bdd, RestrictCofactor) {
  BddManager mgr(3);
  BddRef f = mgr.bddXor(mgr.variable(0), mgr.variable(1));
  EXPECT_EQ(mgr.restrict1(f, 0, false), mgr.variable(1));
  EXPECT_EQ(mgr.restrict1(f, 0, true), mgr.bddNot(mgr.variable(1)));
  EXPECT_EQ(mgr.restrict1(f, 2, true), f);  // var not in support
}

TEST(Bdd, Exists) {
  BddManager mgr(3);
  BddRef a = mgr.variable(0);
  BddRef b = mgr.variable(1);
  BddRef f = mgr.bddAnd(a, b);
  EXPECT_EQ(mgr.exists(f, {0}), b);
  BddRef g = mgr.bddOr(a, b);
  EXPECT_EQ(mgr.exists(g, {0, 1}), BddManager::kTrue);
}

TEST(Bdd, SatCountMatchesTruthTable) {
  Rng rng(41);
  const int vars = 6;
  BddManager mgr(vars);
  for (int iter = 0; iter < 60; ++iter) {
    // Random function as OR of random cubes.
    BddRef f = BddManager::kFalse;
    int terms = static_cast<int>(rng.range(1, 5));
    for (int t = 0; t < terms; ++t) {
      LitVec cube;
      for (Var v = 0; v < vars; ++v) {
        if (rng.chance(1, 2)) cube.push_back(mkLit(v, rng.flip()));
      }
      f = mgr.bddOr(f, mgr.cube(cube));
    }
    uint64_t expected = 0;
    for (uint64_t bits = 0; bits < (1ull << vars); ++bits) {
      if (evalBdd(mgr, f, bits)) ++expected;
    }
    EXPECT_EQ(mgr.satCount(f).toU64(), expected) << "iter " << iter;
  }
}

// Counts on both sides of the 64-variable boundary, where satCount switches
// from uint64_t to BigUint arithmetic.
TEST(Bdd, SatCountAcrossTheWordBoundary) {
  for (int vars : {63, 64, 70}) {
    BddManager mgr(vars);
    const uint32_t n = static_cast<uint32_t>(vars);
    EXPECT_EQ(mgr.satCount(BddManager::kTrue), BigUint::powerOfTwo(n)) << vars;
    EXPECT_EQ(mgr.satCount(BddManager::kFalse), BigUint(0)) << vars;
    BddRef parity = BddManager::kFalse;
    for (Var v = 0; v < vars; ++v) parity = mgr.bddXor(parity, mgr.variable(v));
    EXPECT_EQ(mgr.satCount(parity), BigUint::powerOfTwo(n - 1)) << vars;
    const BddRef ends = mgr.cube({mkLit(0), ~mkLit(vars - 1)});
    EXPECT_EQ(mgr.satCount(ends), BigUint::powerOfTwo(n - 2)) << vars;
    // x1 | x(vars-1): 3/4 of the space.
    const BddRef either = mgr.bddOr(mgr.variable(1), mgr.variable(vars - 1));
    EXPECT_EQ(mgr.satCount(either), BigUint::powerOfTwo(n - 2).mulSmall(3)) << vars;
  }
}

TEST(Bdd, EnumerateCubesCoversExactlyTheOnSet) {
  Rng rng(43);
  const int vars = 5;
  BddManager mgr(vars);
  for (int iter = 0; iter < 40; ++iter) {
    BddRef f = BddManager::kFalse;
    for (int t = 0; t < 3; ++t) {
      LitVec cube;
      for (Var v = 0; v < vars; ++v) {
        if (rng.chance(2, 3)) cube.push_back(mkLit(v, rng.flip()));
      }
      f = mgr.bddOr(f, mgr.cube(cube));
    }
    std::vector<LitVec> cubes = mgr.enumerateCubes(f);
    // Rebuild and compare: must be the identical BDD.
    BddRef rebuilt = BddManager::kFalse;
    for (const LitVec& c : cubes) rebuilt = mgr.bddOr(rebuilt, mgr.cube(c));
    EXPECT_EQ(rebuilt, f);
    // Path cubes of a BDD are disjoint by construction.
    for (size_t i = 0; i < cubes.size(); ++i) {
      for (size_t j = i + 1; j < cubes.size(); ++j) {
        bool clash = false;
        for (Lit x : cubes[i]) {
          for (Lit y : cubes[j]) clash = clash || (x.var() == y.var() && x.sign() != y.sign());
        }
        EXPECT_TRUE(clash);
      }
    }
  }
}

// A limit returns the first `limit` cubes of the full list, in order, and
// never more cubes than the BDD has paths.
TEST(Bdd, EnumerateCubesStopsAtTheLimit) {
  Rng rng(47);
  const int vars = 6;
  BddManager mgr(vars);
  for (int iter = 0; iter < 20; ++iter) {
    BddRef f = BddManager::kFalse;
    for (int t = 0; t < 4; ++t) {
      LitVec cube;
      for (Var v = 0; v < vars; ++v) {
        if (rng.chance(1, 2)) cube.push_back(mkLit(v, rng.flip()));
      }
      f = mgr.bddOr(f, mgr.cube(cube));
    }
    const std::vector<LitVec> all = mgr.enumerateCubes(f);
    EXPECT_EQ(mgr.enumerateCubes(f, 0), all);
    for (uint64_t limit = 1; limit <= all.size() + 1; ++limit) {
      const std::vector<LitVec> some = mgr.enumerateCubes(f, limit);
      const size_t expected = std::min<size_t>(limit, all.size());
      ASSERT_EQ(some.size(), expected) << "iter " << iter << " limit " << limit;
      EXPECT_TRUE(std::equal(some.begin(), some.end(), all.begin()));
    }
  }
  EXPECT_TRUE(mgr.enumerateCubes(BddManager::kFalse, 1).empty());
  EXPECT_EQ(mgr.enumerateCubes(BddManager::kTrue, 1), std::vector<LitVec>{LitVec{}});
}

TEST(Bdd, ComposeVectorSubstitutes) {
  BddManager mgr(4);
  BddRef a = mgr.variable(0);
  BddRef b = mgr.variable(1);
  BddRef c = mgr.variable(2);
  BddRef f = mgr.bddXor(a, b);  // f(a,b) = a ^ b
  // Substitute a <- b & c, b <- identity.
  std::vector<BddRef> subst(4, BddManager::kNoSubstitution);
  subst[0] = mgr.bddAnd(b, c);
  BddRef g = mgr.composeVector(f, subst);
  // g = (b & c) ^ b = b & ~c.
  EXPECT_EQ(g, mgr.bddAnd(b, mgr.bddNot(c)));
}

TEST(Bdd, IteMatchesTruthTableRandomly) {
  Rng rng(47);
  const int vars = 4;
  BddManager mgr(vars);
  std::vector<BddRef> pool;
  for (Var v = 0; v < vars; ++v) pool.push_back(mgr.variable(v));
  pool.push_back(BddManager::kTrue);
  pool.push_back(BddManager::kFalse);
  for (int iter = 0; iter < 200; ++iter) {
    BddRef f = pool[rng.below(pool.size())];
    BddRef g = pool[rng.below(pool.size())];
    BddRef h = pool[rng.below(pool.size())];
    BddRef r = mgr.ite(f, g, h);
    pool.push_back(r);
    for (uint64_t bits = 0; bits < (1ull << vars); ++bits) {
      bool expected = evalBdd(mgr, f, bits) ? evalBdd(mgr, g, bits) : evalBdd(mgr, h, bits);
      ASSERT_EQ(evalBdd(mgr, r, bits), expected);
    }
  }
}

// --- kernel stress: table growth, lossy cache, canonical refs -----------------

constexpr int kStressVars = 16;
// Bit m of a table is the function's value on assignment m (bit i = var i).
using TruthTable = std::vector<uint64_t>;

bool tableBit(const TruthTable& t, uint64_t m) { return ((t[m >> 6] >> (m & 63)) & 1) != 0; }

// Builds a table's BDD by Shannon expansion in variable order, one node per
// call. `hiFirst` builds the 1-cofactor first; `viaAndOr` expands with
// (x & f1) | (~x & f0) instead of ite(x, f1, f0). Every combination creates
// the nodes in a different order but must return the same refs.
BddRef buildFromTable(BddManager& mgr, const TruthTable& t, bool hiFirst, bool viaAndOr,
                      Var v = 0, uint64_t prefix = 0) {
  if (v == kStressVars) return mgr.constant(tableBit(t, prefix));
  BddRef lo = BddManager::kFalse;
  BddRef hi = BddManager::kFalse;
  const uint64_t hiPrefix = prefix | (uint64_t{1} << v);
  if (hiFirst) {
    hi = buildFromTable(mgr, t, hiFirst, viaAndOr, v + 1, hiPrefix);
    lo = buildFromTable(mgr, t, hiFirst, viaAndOr, v + 1, prefix);
  } else {
    lo = buildFromTable(mgr, t, hiFirst, viaAndOr, v + 1, prefix);
    hi = buildFromTable(mgr, t, hiFirst, viaAndOr, v + 1, hiPrefix);
  }
  const BddRef x = mgr.variable(v);
  if (viaAndOr) return mgr.bddOr(mgr.bddAnd(x, hi), mgr.bddAnd(mgr.bddNot(x), lo));
  return mgr.ite(x, hi, lo);
}

TEST(BddKernel, StressGrowthKeepsResultsAndRefsCanonical) {
  Rng rng(2024);
  const size_t words = size_t{1} << (kStressVars - 6);
  BddManager mgr(kStressVars);
  const BddManager fresh(kStressVars);

  // Random functions: about 8.5k nodes each over 16 variables.
  std::vector<TruthTable> tables(16, TruthTable(words));
  std::vector<BddRef> fns;
  for (TruthTable& t : tables) {
    for (uint64_t& w : t) w = rng.next();
    fns.push_back(buildFromTable(mgr, t, /*hiFirst=*/false, /*viaAndOr=*/false));
  }
  for (size_t i = 0; i < tables.size(); ++i) {
    uint64_t ones = 0;
    for (uint64_t w : tables[i]) ones += static_cast<uint64_t>(std::popcount(w));
    EXPECT_EQ(mgr.satCount(fns[i]).toU64(), ones) << "function " << i;
  }

  // ite over random operand triples, checked on sampled assignments.
  for (int k = 0; k < 48; ++k) {
    const size_t a = rng.below(fns.size());
    const size_t b = rng.below(fns.size());
    const size_t c = rng.below(fns.size());
    const BddRef r = mgr.ite(fns[a], fns[b], fns[c]);
    for (int sample = 0; sample < 256; ++sample) {
      const uint64_t m = rng.below(uint64_t{1} << kStressVars);
      const bool want = tableBit(tables[a], m) ? tableBit(tables[b], m) : tableBit(tables[c], m);
      ASSERT_EQ(evalBdd(mgr, r, m), want) << "ite #" << k << " on assignment " << m;
    }
    // A commuted rebuild hits other cache slots yet lands on the same ref.
    EXPECT_EQ(mgr.ite(mgr.bddNot(fns[a]), fns[c], fns[b]), r);
  }
  EXPECT_GT(mgr.numNodes(), size_t{1} << 17);
  // Both tables grew several times from their initial size.
  EXPECT_GE(mgr.uniqueSlots(), 8 * fresh.uniqueSlots());
  EXPECT_GE(mgr.cacheSlots(), 8 * fresh.cacheSlots());
  EXPECT_GE(mgr.uniqueSlots(), 2 * (mgr.numNodes() - 2));  // load <= 1/2

  // Rebuilding in reverse function order, other cofactor first, creates no
  // node and returns the same refs; the and/or expansion adds its
  // intermediate products but lands on the same refs too.
  const size_t nodes = mgr.numNodes();
  for (size_t i = tables.size(); i-- > 0;) {
    EXPECT_EQ(buildFromTable(mgr, tables[i], /*hiFirst=*/true, /*viaAndOr=*/false), fns[i])
        << "function " << i;
  }
  EXPECT_EQ(mgr.numNodes(), nodes);
  for (size_t i = 0; i < tables.size(); i += 3) {
    EXPECT_EQ(buildFromTable(mgr, tables[i], /*hiFirst=*/(i % 2) == 0, /*viaAndOr=*/true), fns[i])
        << "function " << i;
  }

  AuditResult audit = auditBdd(mgr);
  EXPECT_TRUE(audit.ok()) << audit.toString();
}

// A BDD from a truth table over variables [var, vars): bit `index` of the
// table is the value under the assignment whose variable i is bit i of index.
BddRef fromTruthTable(BddManager& mgr, const std::vector<bool>& table, int vars, Var var = 0,
                      size_t index = 0) {
  if (var == vars) return mgr.constant(table[index]);
  const BddRef lo = fromTruthTable(mgr, table, vars, var + 1, index);
  const BddRef hi = fromTruthTable(mgr, table, vars, var + 1, index | (size_t{1} << var));
  return mgr.ite(mgr.variable(var), hi, lo);
}

BddRef orOfCubes(BddManager& mgr, const std::vector<LitVec>& cubes, size_t skip = SIZE_MAX) {
  BddRef f = BddManager::kFalse;
  for (size_t i = 0; i < cubes.size(); ++i) {
    if (i != skip) f = mgr.bddOr(f, mgr.cube(cubes[i]));
  }
  return f;
}

bool implies(BddManager& mgr, BddRef f, BddRef g) {
  return mgr.ite(g, BddManager::kFalse, f) == BddManager::kFalse;
}

// Property: isop(L, U) is a prime, irredundant cover between L and U, with
// ascending literals, the same on every call and in every manager.
TEST(Bdd, IsopIsPrimeIrredundantCoverOfTheInterval) {
  Rng rng(61);
  for (int iter = 0; iter < 60; ++iter) {
    const int vars = static_cast<int>(rng.range(1, 10));
    const size_t rows = size_t{1} << vars;
    std::vector<bool> upperTable(rows);
    std::vector<bool> lowerTable(rows);
    const bool exact = iter % 4 == 0;
    for (size_t i = 0; i < rows; ++i) {
      upperTable[i] = rng.chance(7, 10);
      lowerTable[i] = upperTable[i] && (exact || rng.chance(2, 5));
    }
    BddManager mgr(vars);
    const BddRef upper = fromTruthTable(mgr, upperTable, vars);
    const BddRef lower = fromTruthTable(mgr, lowerTable, vars);
    const std::vector<LitVec> cubes = mgr.isop(lower, upper);
    const std::string where = "iter " + std::to_string(iter);

    for (const LitVec& cube : cubes) {
      for (size_t j = 1; j < cube.size(); ++j) {
        EXPECT_LT(cube[j - 1].var(), cube[j].var()) << where;
      }
    }
    const BddRef cover = orOfCubes(mgr, cubes);
    EXPECT_TRUE(implies(mgr, lower, cover)) << where;
    EXPECT_TRUE(implies(mgr, cover, upper)) << where;
    if (exact) {
      EXPECT_EQ(cover, lower) << where;
    }
    // Irredundant: every cube covers some state of `lower` no other does.
    for (size_t i = 0; i < cubes.size(); ++i) {
      EXPECT_FALSE(implies(mgr, lower, orOfCubes(mgr, cubes, i))) << where << " cube " << i;
    }
    // Prime: dropping any literal leaves `upper`.
    for (size_t i = 0; i < cubes.size(); ++i) {
      for (size_t j = 0; j < cubes[i].size(); ++j) {
        LitVec wider = cubes[i];
        wider.erase(wider.begin() + static_cast<std::ptrdiff_t>(j));
        EXPECT_FALSE(implies(mgr, mgr.cube(wider), upper)) << where << " cube " << i;
      }
    }
    EXPECT_EQ(mgr.isop(lower, upper), cubes) << where;
    BddManager fresh(vars);
    EXPECT_EQ(fresh.isop(fromTruthTable(fresh, lowerTable, vars),
                         fromTruthTable(fresh, upperTable, vars)),
              cubes)
        << where;
  }
}

TEST(Bdd, IsopConstantsAndCubes) {
  BddManager mgr(4);
  const BddRef x = mgr.cube({mkLit(0), ~mkLit(2)});
  EXPECT_TRUE(mgr.isop(BddManager::kFalse, BddManager::kFalse).empty());
  EXPECT_TRUE(mgr.isop(BddManager::kFalse, x).empty());
  EXPECT_TRUE(mgr.isop(BddManager::kFalse, BddManager::kTrue).empty());
  const std::vector<LitVec> one{LitVec{}};
  EXPECT_EQ(mgr.isop(BddManager::kTrue, BddManager::kTrue), one);
  EXPECT_EQ(mgr.isop(x, BddManager::kTrue), one);
  EXPECT_EQ(mgr.isop(x, x), (std::vector<LitVec>{{mkLit(0), ~mkLit(2)}}));
  // The upper bound widens the cube: x0 ∧ ~x2 inside x0 is just x0.
  EXPECT_EQ(mgr.isop(x, mgr.variable(0)), (std::vector<LitVec>{{mkLit(0)}}));
  // Two BDD paths of x0 ∨ x1 (~x0 x1, x0) become two primes.
  const BddRef orFn = mgr.bddOr(mgr.variable(0), mgr.variable(1));
  EXPECT_EQ(mgr.enumerateCubes(orFn), (std::vector<LitVec>{{~mkLit(0), mkLit(1)}, {mkLit(0)}}));
  EXPECT_EQ(mgr.isop(orFn, orFn), (std::vector<LitVec>{{mkLit(0)}, {mkLit(1)}}));
}

// Property: andExists(f, g, V) == exists(f & g, V), on random functions.
TEST(BddProperty, AndExistsMatchesComposition) {
  Rng rng(59);
  const int vars = 6;
  BddManager mgr(vars);
  auto randomFn = [&]() {
    BddRef f = BddManager::kFalse;
    for (int t = 0; t < 3; ++t) {
      LitVec cube;
      for (Var v = 0; v < vars; ++v) {
        if (rng.chance(1, 2)) cube.push_back(mkLit(v, rng.flip()));
      }
      f = mgr.bddOr(f, mgr.cube(cube));
    }
    return f;
  };
  for (int iter = 0; iter < 80; ++iter) {
    BddRef f = randomFn();
    BddRef g = randomFn();
    std::vector<Var> quantified;
    for (Var v = 0; v < vars; ++v) {
      if (rng.chance(1, 3)) quantified.push_back(v);
    }
    EXPECT_EQ(mgr.andExists(f, g, quantified), mgr.exists(mgr.bddAnd(f, g), quantified))
        << "iter " << iter;
  }
}

// Property: exists really is disjunction of cofactors, on random functions.
TEST(BddProperty, ExistsEqualsCofactorDisjunction) {
  Rng rng(53);
  const int vars = 5;
  BddManager mgr(vars);
  for (int iter = 0; iter < 60; ++iter) {
    BddRef f = BddManager::kFalse;
    for (int t = 0; t < 3; ++t) {
      LitVec cube;
      for (Var v = 0; v < vars; ++v) {
        if (rng.chance(1, 2)) cube.push_back(mkLit(v, rng.flip()));
      }
      f = mgr.bddOr(f, mgr.cube(cube));
    }
    Var q = static_cast<Var>(rng.below(vars));
    BddRef viaQuant = mgr.exists(f, {q});
    BddRef viaCof = mgr.bddOr(mgr.restrict1(f, q, false), mgr.restrict1(f, q, true));
    EXPECT_EQ(viaQuant, viaCof);
  }
}

}  // namespace
}  // namespace presat
