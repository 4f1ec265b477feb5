// Model lifting tests: the CNF implicant shrinker and the circuit
// justification lifter, both checked for the cube-validity contract, and
// chrono's circuit widening.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "allsat/lifting.hpp"
#include "base/rng.hpp"
#include "circuit/simulator.hpp"
#include "gen/iscas.hpp"
#include "gen/random_circuit.hpp"
#include "oracle/dpll.hpp"
#include "sat/solver.hpp"
#include "test_util.hpp"

namespace presat {
namespace {

TEST(ShrinkModel, KeepsModelSubset) {
  Cnf cnf(3);
  cnf.addBinary(mkLit(0), mkLit(1));
  cnf.addUnit(mkLit(2));
  std::vector<lbool> model{l_True, l_True, l_True};
  LitVec cube = shrinkModelToImplicant(cnf, model);
  for (Lit l : cube) {
    EXPECT_TRUE(model[static_cast<size_t>(l.var())].isTrue() != l.sign());
  }
  // Variable 2 is forced; at least one of 0/1 must be kept.
  bool has2 = false;
  for (Lit l : cube) has2 |= l.var() == 2;
  EXPECT_TRUE(has2);
  EXPECT_LE(cube.size(), 2u);
}

// Property: every completion of the shrunk cube satisfies the formula.
TEST(ShrinkModelProperty, EveryCompletionSatisfies) {
  Rng rng(61);
  for (int iter = 0; iter < 200; ++iter) {
    int vars = static_cast<int>(rng.range(2, 10));
    Cnf cnf = testutil::randomCnf(rng, vars, static_cast<int>(rng.range(1, 20)));
    Solver s;
    if (!s.addCnf(cnf) || !s.solve().isTrue()) continue;
    std::vector<lbool> model(static_cast<size_t>(vars));
    for (Var v = 0; v < vars; ++v) model[static_cast<size_t>(v)] = lbool(s.modelValue(v));
    LitVec cube = shrinkModelToImplicant(cnf, model);

    std::vector<bool> inCube(static_cast<size_t>(vars), false);
    std::vector<bool> assignment(static_cast<size_t>(vars), false);
    for (Lit l : cube) {
      inCube[static_cast<size_t>(l.var())] = true;
      assignment[static_cast<size_t>(l.var())] = !l.sign();
    }
    std::vector<Var> freeVars;
    for (Var v = 0; v < vars; ++v) {
      if (!inCube[static_cast<size_t>(v)]) freeVars.push_back(v);
    }
    ASSERT_LE(freeVars.size(), 12u);
    for (uint64_t bits = 0; bits < (1ull << freeVars.size()); ++bits) {
      for (size_t k = 0; k < freeVars.size(); ++k) {
        assignment[static_cast<size_t>(freeVars[k])] = (bits >> k) & 1;
      }
      EXPECT_TRUE(cnf.evaluate(assignment)) << "iter " << iter;
    }
  }
}

// Chrono's circuit widening on next(s0) = s1 & a: the target s0' = 1 reads
// s1 and a only, so s0 and s2 form the deferred tier, and the emitted prefix
// stops at the level that fixes s1. An input the encoding lacks is X, which
// leaves the target unforced at every level: the answer is the full prefix.
TEST(CircuitWidener, ShortestForcingPrefixAndDeferredTier) {
  Netlist nl;
  NodeId a = nl.addInput("a");
  NodeId s0 = nl.addDff("s0");
  NodeId s1 = nl.addDff("s1");
  NodeId s2 = nl.addDff("s2");
  NodeId next0 = nl.mkAnd(s1, a, "n0");
  nl.connectDffData(s0, next0);
  nl.connectDffData(s1, nl.mkXor(s2, a, "n1"));
  nl.connectDffData(s2, s2);
  const std::vector<Var> scope{0, 1, 2};
  std::vector<Var> sourceVar(nl.numNodes(), kNullVar);
  sourceVar[s0] = 0;
  sourceVar[s1] = 1;
  sourceVar[s2] = 2;
  sourceVar[a] = 3;
  // Model s0=0 (level 2), s1=1 (level 1), s2=1 (level 3), a=1.
  const std::vector<lbool> model{l_False, l_True, l_True, l_True};
  const std::vector<int> varLevel{2, 1, 3, 0};
  std::vector<lbool> values;
  uint64_t sims = 0;

  CircuitWidener widener(nl, {{{next0, true}}}, sourceVar, scope);
  EXPECT_EQ(widener.deferredScope(), (std::vector<Var>{0, 2}));
  EXPECT_EQ(widener.emitLevel(model, varLevel, 0, 3, values, sims), 1);
  EXPECT_EQ(sims, 2u);  // levels 1 and 0; level 3 is never simulated
  // The deepest flip bounds the answer from below.
  EXPECT_EQ(widener.emitLevel(model, varLevel, 2, 3, values, sims), 2);

  sourceVar[a] = kNullVar;
  CircuitWidener blind(nl, {{{next0, true}}}, sourceVar, scope);
  EXPECT_EQ(blind.emitLevel(model, varLevel, 0, 3, values, sims), 3);
}

TEST(JustificationLifter, ControllingInputSuffices) {
  Netlist nl;
  NodeId a = nl.addInput("a");
  NodeId b = nl.addInput("b");
  NodeId g = nl.mkAnd(a, b, "g");
  nl.markOutput(g, "g");
  JustificationLifter lifter(nl, {{g, false}});
  // a=0, b=1: only a is needed to justify g=0.
  std::vector<bool> sources(nl.numNodes(), false);
  sources[b] = true;
  auto values = Simulator::evaluateOnce(nl, sources);
  NodeCube cube = lifter.liftedSources(values);
  ASSERT_EQ(cube.size(), 1u);
  EXPECT_EQ(cube[0].first, a);
  EXPECT_FALSE(cube[0].second);
}

TEST(JustificationLifter, NonControlledNeedsAllInputs) {
  Netlist nl;
  NodeId a = nl.addInput("a");
  NodeId b = nl.addInput("b");
  NodeId g = nl.mkAnd(a, b, "g");
  nl.markOutput(g, "g");
  JustificationLifter lifter(nl, {{g, true}});
  std::vector<bool> sources(nl.numNodes(), true);
  auto values = Simulator::evaluateOnce(nl, sources);
  NodeCube cube = lifter.liftedSources(values);
  EXPECT_EQ(cube.size(), 2u);
}

TEST(JustificationLifter, MuxTracksSelectedBranchOnly) {
  Netlist nl;
  NodeId s = nl.addInput("s");
  NodeId a = nl.addInput("a");
  NodeId b = nl.addInput("b");
  NodeId m = nl.mkMux(s, a, b, "m");
  nl.markOutput(m, "m");
  JustificationLifter lifter(nl, {{m, true}});
  std::vector<bool> sources(nl.numNodes(), false);
  sources[a] = true;
  sources[b] = true;  // s = 0 selects a
  auto values = Simulator::evaluateOnce(nl, sources);
  NodeCube cube = lifter.liftedSources(values);
  // Needs s and a but not b.
  EXPECT_EQ(cube.size(), 2u);
  for (const NodeAssign& na : cube) EXPECT_NE(na.first, b);
}

// Property: the lifted source cube forces the objectives under every
// completion of the remaining sources.
TEST(JustificationLifterProperty, LiftedCubeForcesObjectives) {
  Rng rng(67);
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    RandomCircuitParams params;
    params.seed = seed;
    params.numInputs = 3;
    params.numDffs = 4;
    params.numGates = 25;
    Netlist nl = makeRandomSequential(params);
    std::vector<NodeId> sources;
    for (NodeId id = 0; id < nl.numNodes(); ++id) {
      if (nl.type(id) == GateType::kInput || nl.type(id) == GateType::kDff) sources.push_back(id);
    }
    for (int trial = 0; trial < 25; ++trial) {
      std::vector<bool> full(nl.numNodes(), false);
      for (NodeId s : sources) full[s] = rng.flip();
      auto values = Simulator::evaluateOnce(nl, full);
      // Objectives: the realized values of two DFF data pins.
      NodeCube objectives;
      for (size_t k = 0; k < 2 && k < nl.dffs().size(); ++k) {
        NodeId root = nl.dffData(nl.dffs()[k]);
        objectives.emplace_back(root, values[root]);
      }
      JustificationLifter lifter(nl, objectives);
      NodeCube cube = lifter.liftedSources(values);

      std::vector<bool> pinned(nl.numNodes(), false);
      for (const NodeAssign& na : cube) pinned[na.first] = true;
      std::vector<NodeId> freeSources;
      for (NodeId s : sources) {
        if (!pinned[s]) freeSources.push_back(s);
      }
      ASSERT_LE(freeSources.size(), 7u);
      for (uint64_t bits = 0; bits < (1ull << freeSources.size()); ++bits) {
        std::vector<bool> completion = full;
        for (size_t k = 0; k < freeSources.size(); ++k) completion[freeSources[k]] = (bits >> k) & 1;
        auto vals = Simulator::evaluateOnce(nl, completion);
        for (const NodeAssign& obj : objectives) {
          ASSERT_EQ(vals[obj.first], obj.second)
              << "seed " << seed << " trial " << trial << " bits " << bits;
        }
      }
    }
  }
}

// XOR/MUX-heavy fuzz: XOR gates have NO controlling value (both fanins are
// always needed) and MUX justification must track the selected branch, so
// these netlists stress exactly the lifter paths where dropping one source
// too many silently breaks the forcing property. Built from alternating
// XOR/MUX layers over random prior nodes, then checked against the
// simulator on every completion of the dropped sources.
TEST(JustificationLifterProperty, XorMuxHeavyNetlistsStayForcing) {
  Rng rng(929);
  for (int netIter = 0; netIter < 30; ++netIter) {
    Netlist nl;
    std::vector<NodeId> sources;
    int numInputs = static_cast<int>(rng.range(4, 7));
    for (int i = 0; i < numInputs; ++i) sources.push_back(nl.addInput("i" + std::to_string(i)));
    std::vector<NodeId> pool = sources;
    auto pick = [&] { return pool[rng.below(pool.size())]; };
    int numGates = static_cast<int>(rng.range(8, 30));
    for (int g = 0; g < numGates; ++g) {
      NodeId n;
      uint64_t roll = rng.range(0, 2);
      if (roll == 0) {
        n = nl.mkXor(pick(), pick());
      } else if (roll == 1) {
        n = nl.mkMux(pick(), pick(), pick());
      } else {
        n = nl.mkAnd(pick(), pick());
      }
      pool.push_back(n);
    }
    NodeId root = pool.back();
    nl.markOutput(root, "o");

    for (int trial = 0; trial < 20; ++trial) {
      std::vector<bool> full(nl.numNodes(), false);
      for (NodeId s : sources) full[s] = rng.flip();
      auto values = Simulator::evaluateOnce(nl, full);
      NodeCube objectives = {{root, values[root]}};
      JustificationLifter lifter(nl, objectives);
      NodeCube cube = lifter.liftedSources(values);

      // Every kept literal matches the simulated assignment.
      for (const NodeAssign& na : cube) EXPECT_EQ(full[na.first], na.second);

      std::vector<bool> pinned(nl.numNodes(), false);
      for (const NodeAssign& na : cube) pinned[na.first] = true;
      std::vector<NodeId> freeSources;
      for (NodeId s : sources) {
        if (!pinned[s]) freeSources.push_back(s);
      }
      ASSERT_LE(freeSources.size(), 7u);
      for (uint64_t bits = 0; bits < (1ull << freeSources.size()); ++bits) {
        std::vector<bool> completion = full;
        for (size_t k = 0; k < freeSources.size(); ++k) {
          completion[freeSources[k]] = (bits >> k) & 1;
        }
        auto vals = Simulator::evaluateOnce(nl, completion);
        ASSERT_EQ(vals[root], values[root])
            << "net " << netIter << " trial " << trial << " bits " << bits;
      }
    }
  }
}

// The same forcing property through the generator's own XOR-heavy knob.
TEST(JustificationLifterProperty, XorPercentGeneratorStaysForcing) {
  Rng rng(977);
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    RandomCircuitParams params;
    params.seed = seed;
    params.numInputs = 3;
    params.numDffs = 3;
    params.numGates = 30;
    params.xorPercent = 60;
    Netlist nl = makeRandomSequential(params);
    std::vector<NodeId> sources;
    for (NodeId id = 0; id < nl.numNodes(); ++id) {
      if (nl.type(id) == GateType::kInput || nl.type(id) == GateType::kDff) sources.push_back(id);
    }
    for (int trial = 0; trial < 20; ++trial) {
      std::vector<bool> full(nl.numNodes(), false);
      for (NodeId s : sources) full[s] = rng.flip();
      auto values = Simulator::evaluateOnce(nl, full);
      NodeCube objectives;
      for (size_t k = 0; k < 2 && k < nl.dffs().size(); ++k) {
        NodeId root = nl.dffData(nl.dffs()[k]);
        objectives.emplace_back(root, values[root]);
      }
      JustificationLifter lifter(nl, objectives);
      NodeCube cube = lifter.liftedSources(values);

      std::vector<bool> pinned(nl.numNodes(), false);
      for (const NodeAssign& na : cube) pinned[na.first] = true;
      std::vector<NodeId> freeSources;
      for (NodeId s : sources) {
        if (!pinned[s]) freeSources.push_back(s);
      }
      ASSERT_LE(freeSources.size(), 6u);
      for (uint64_t bits = 0; bits < (1ull << freeSources.size()); ++bits) {
        std::vector<bool> completion = full;
        for (size_t k = 0; k < freeSources.size(); ++k) {
          completion[freeSources[k]] = (bits >> k) & 1;
        }
        auto vals = Simulator::evaluateOnce(nl, completion);
        for (const NodeAssign& obj : objectives) {
          ASSERT_EQ(vals[obj.first], obj.second)
              << "seed " << seed << " trial " << trial << " bits " << bits;
        }
      }
    }
  }
}

TEST(JustificationLifter, WorksOnS27) {
  Netlist nl = makeS27();
  Rng rng(71);
  std::vector<NodeId> sources;
  for (NodeId id = 0; id < nl.numNodes(); ++id) {
    if (!isCombinational(nl.type(id))) sources.push_back(id);
  }
  for (int trial = 0; trial < 100; ++trial) {
    std::vector<bool> full(nl.numNodes(), false);
    for (NodeId s : sources) full[s] = rng.flip();
    auto values = Simulator::evaluateOnce(nl, full);
    NodeCube objectives;
    for (NodeId dff : nl.dffs()) {
      objectives.emplace_back(nl.dffData(dff), values[nl.dffData(dff)]);
    }
    JustificationLifter lifter(nl, objectives);
    NodeCube cube = lifter.liftedSources(values);
    EXPECT_LE(cube.size(), sources.size());
    for (const NodeAssign& na : cube) EXPECT_EQ(full[na.first], na.second);
  }
}

}  // namespace
}  // namespace presat
