// Known-count instances: the all-SAT engines double as exact model counters,
// so formulas with closed-form solution counts (permanents, products of
// exactly-one blocks, parities) pin down end-to-end correctness with
// independent mathematics.
#include <gtest/gtest.h>

#include "allsat/blocking.hpp"
#include "allsat/success_driven.hpp"
#include "bdd/bdd.hpp"
#include "circuit/from_cnf.hpp"
#include "circuit/tseitin.hpp"
#include "gen/iscas.hpp"
#include "test_util.hpp"

namespace presat {
namespace {

// Exact-fit pigeonhole: n pigeons, n holes, at-least-one + at-most-one per
// hole. Solutions with *only* these clauses also allow a pigeon in several
// holes; adding per-pigeon at-most-one makes solutions = permutations = n!.
Cnf permutationFormula(int n) {
  Cnf cnf(n * n);
  auto var = [&](int p, int h) { return static_cast<Var>(p * n + h); };
  for (int p = 0; p < n; ++p) {
    Clause c;
    for (int h = 0; h < n; ++h) c.push_back(mkLit(var(p, h)));
    cnf.addClause(c);  // pigeon sits somewhere
    for (int h = 0; h < n; ++h) {
      for (int k = h + 1; k < n; ++k) cnf.addBinary(~mkLit(var(p, h)), ~mkLit(var(p, k)));
    }
  }
  for (int h = 0; h < n; ++h) {
    for (int p = 0; p < n; ++p) {
      for (int q = p + 1; q < n; ++q) cnf.addBinary(~mkLit(var(p, h)), ~mkLit(var(q, h)));
    }
  }
  return cnf;
}

uint64_t factorial(int n) {
  uint64_t f = 1;
  for (int i = 2; i <= n; ++i) f *= static_cast<uint64_t>(i);
  return f;
}

std::vector<Var> allVars(const Cnf& cnf) {
  std::vector<Var> vars;
  for (Var v = 0; v < cnf.numVars(); ++v) vars.push_back(v);
  return vars;
}

// Runs the success-driven engine on a CNF via circuit conversion.
BigUint successDrivenCount(const Cnf& cnf) {
  CnfCircuit circuit = cnfToCircuit(cnf);
  CircuitAllSatProblem problem;
  problem.netlist = &circuit.netlist;
  problem.objectives = {{circuit.root, true}};
  for (Var v = 0; v < cnf.numVars(); ++v) {
    problem.projectionSources.push_back(circuit.varNode[static_cast<size_t>(v)]);
  }
  return successDrivenAllSat(problem).summary.mintermCount;
}

TEST(Counting, PermutationsAreFactorial) {
  for (int n : {2, 3, 4}) {
    Cnf cnf = permutationFormula(n);
    AllSatResult minterm = blockingAllSat(cnf, allVars(cnf));
    EXPECT_EQ(minterm.mintermCount.toU64(), factorial(n)) << "n=" << n;
    EXPECT_EQ(successDrivenCount(cnf).toU64(), factorial(n)) << "n=" << n;
  }
}

TEST(Counting, PigeonholeHasNoSolutions) {
  for (int n : {2, 3, 4}) {
    Cnf cnf = testutil::pigeonhole(n);
    AllSatResult r = blockingAllSat(cnf, allVars(cnf));
    EXPECT_TRUE(r.mintermCount.isZero());
    EXPECT_TRUE(successDrivenCount(cnf).isZero());
  }
}

TEST(Counting, IndependentExactlyOneBlocksMultiply) {
  // k blocks of exactly-one-of-3: 3^k solutions.
  for (int blocks : {1, 3, 5}) {
    Cnf cnf(blocks * 3);
    for (int b = 0; b < blocks; ++b) {
      Var x = static_cast<Var>(3 * b), y = x + 1, z = x + 2;
      cnf.addTernary(mkLit(x), mkLit(y), mkLit(z));
      cnf.addBinary(~mkLit(x), ~mkLit(y));
      cnf.addBinary(~mkLit(x), ~mkLit(z));
      cnf.addBinary(~mkLit(y), ~mkLit(z));
    }
    uint64_t expected = 1;
    for (int b = 0; b < blocks; ++b) expected *= 3;
    EXPECT_EQ(blockingAllSat(cnf, allVars(cnf)).mintermCount.toU64(), expected);
    EXPECT_EQ(successDrivenCount(cnf).toU64(), expected);
  }
}

TEST(Counting, XorChainHasHalfTheSpace) {
  // x1 ^ x2 ^ ... ^ xn = 1 via Tseitin-free 3-clause chain encoding.
  for (int n : {3, 5, 8}) {
    // Encode parity with chain variables c_i = x_1 ^ ... ^ x_i.
    Cnf cnf(2 * n);
    auto x = [&](int i) { return static_cast<Var>(i); };
    auto c = [&](int i) { return static_cast<Var>(n + i); };
    // c_0 = x_0
    cnf.addBinary(~mkLit(c(0)), mkLit(x(0)));
    cnf.addBinary(mkLit(c(0)), ~mkLit(x(0)));
    for (int i = 1; i < n; ++i) {
      // c_i = c_{i-1} ^ x_i
      cnf.addTernary(~mkLit(c(i)), mkLit(c(i - 1)), mkLit(x(i)));
      cnf.addTernary(~mkLit(c(i)), ~mkLit(c(i - 1)), ~mkLit(x(i)));
      cnf.addTernary(mkLit(c(i)), ~mkLit(c(i - 1)), mkLit(x(i)));
      cnf.addTernary(mkLit(c(i)), mkLit(c(i - 1)), ~mkLit(x(i)));
    }
    cnf.addUnit(mkLit(c(n - 1)));
    // Project onto the x variables: half of all assignments have odd parity.
    std::vector<Var> projection;
    for (int i = 0; i < n; ++i) projection.push_back(x(i));
    AllSatResult r = blockingAllSat(cnf, projection);
    EXPECT_EQ(r.mintermCount.toU64(), 1ull << (n - 1)) << "n=" << n;
  }
}

TEST(Counting, S27SatCountMatchesBdd) {
  // Count (state, input) pairs making the single output G17 = 1, two ways:
  // projected all-SAT over the CNF encoding, and BDD satCount.
  Netlist nl = makeS27();
  NodeId g17 = nl.findByName("G17");
  ASSERT_NE(g17, kNoNode);
  CircuitEncoding enc = encodeCircuit(nl, {g17});
  Cnf cnf = enc.cnf;
  cnf.addUnit(enc.litOf(g17, true));
  std::vector<Var> projection;
  std::vector<NodeId> sources;
  for (NodeId id = 0; id < nl.numNodes(); ++id) {
    if (!isCombinational(nl.type(id)) && enc.isEncoded(id)) {
      projection.push_back(enc.varOf(id));
      sources.push_back(id);
    }
  }
  AllSatResult viaSat = blockingAllSat(cnf, projection);

  BddManager mgr(static_cast<int>(sources.size()));
  std::vector<BddRef> nodeBdd(nl.numNodes(), BddManager::kFalse);
  for (size_t i = 0; i < sources.size(); ++i) nodeBdd[sources[i]] = mgr.variable(static_cast<Var>(i));
  for (NodeId id : nl.topologicalOrder()) {
    const GateNode& g = nl.node(id);
    if (!isCombinational(g.type) || !enc.isEncoded(id)) continue;
    switch (g.type) {
      case GateType::kNot:
        nodeBdd[id] = mgr.bddNot(nodeBdd[g.fanins[0]]);
        break;
      case GateType::kAnd:
        nodeBdd[id] = mgr.bddAnd(nodeBdd[g.fanins[0]], nodeBdd[g.fanins[1]]);
        break;
      case GateType::kNand:
        nodeBdd[id] = mgr.bddNot(mgr.bddAnd(nodeBdd[g.fanins[0]], nodeBdd[g.fanins[1]]));
        break;
      case GateType::kOr:
        nodeBdd[id] = mgr.bddOr(nodeBdd[g.fanins[0]], nodeBdd[g.fanins[1]]);
        break;
      case GateType::kNor:
        nodeBdd[id] = mgr.bddNot(mgr.bddOr(nodeBdd[g.fanins[0]], nodeBdd[g.fanins[1]]));
        break;
      default:
        FAIL() << "unexpected gate in s27 cone";
    }
  }
  EXPECT_EQ(viaSat.mintermCount, mgr.satCount(nodeBdd[g17]));
  EXPECT_FALSE(viaSat.mintermCount.isZero());
}

}  // namespace
}  // namespace presat
