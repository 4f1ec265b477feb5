// Model lifting tests: the CNF implicant shrinker and the circuit
// justification lifter, both checked for the cube-validity contract, the
// preimage lifter checked literal for literal against a whole-netlist
// reference lift, and chrono's circuit widening.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "allsat/lifting.hpp"
#include "base/log.hpp"
#include "base/rng.hpp"
#include "circuit/simulator.hpp"
#include "gen/iscas.hpp"
#include "gen/random_circuit.hpp"
#include "oracle/dpll.hpp"
#include "preimage/preimage.hpp"
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

// Binds every source to the model variable numbered like its node, all
// emitted, so a lift's literals name source nodes directly.
std::vector<JustificationLifter::Source> identityBinding(const Netlist& nl) {
  std::vector<JustificationLifter::Source> binding(nl.numNodes());
  for (NodeId id = 0; id < nl.numNodes(); ++id) {
    if (!isCombinational(nl.type(id))) binding[id] = {static_cast<Var>(id), false, true};
  }
  return binding;
}

// Lifts the node-indexed source assignment `full` through an identity-bound
// lifter and returns the kept sources as (node, value) pairs.
NodeCube liftNodes(JustificationLifter& lifter, const std::vector<bool>& full) {
  std::vector<lbool> model(full.size());
  for (size_t i = 0; i < full.size(); ++i) model[i] = lbool(static_cast<bool>(full[i]));
  NodeCube cube;
  for (Lit l : lifter.lift(model)) cube.emplace_back(static_cast<NodeId>(l.var()), !l.sign());
  return cube;
}

TEST(JustificationLifter, ControllingInputSuffices) {
  Netlist nl;
  NodeId a = nl.addInput("a");
  NodeId b = nl.addInput("b");
  NodeId g = nl.mkAnd(a, b, "g");
  nl.markOutput(g, "g");
  JustificationLifter lifter(nl, {{{g, false}}}, identityBinding(nl));
  // a=0, b=1: only a is needed to justify g=0.
  std::vector<bool> sources(nl.numNodes(), false);
  sources[b] = true;
  NodeCube cube = liftNodes(lifter, sources);
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
  JustificationLifter lifter(nl, {{{g, true}}}, identityBinding(nl));
  std::vector<bool> sources(nl.numNodes(), true);
  NodeCube cube = liftNodes(lifter, sources);
  EXPECT_EQ(cube.size(), 2u);
}

TEST(JustificationLifter, MuxTracksSelectedBranchOnly) {
  Netlist nl;
  NodeId s = nl.addInput("s");
  NodeId a = nl.addInput("a");
  NodeId b = nl.addInput("b");
  NodeId m = nl.mkMux(s, a, b, "m");
  nl.markOutput(m, "m");
  JustificationLifter lifter(nl, {{{m, true}}}, identityBinding(nl));
  std::vector<bool> sources(nl.numNodes(), false);
  sources[a] = true;
  sources[b] = true;  // s = 0 selects a
  NodeCube cube = liftNodes(lifter, sources);
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
      JustificationLifter lifter(nl, {objectives}, identityBinding(nl));
      NodeCube cube = liftNodes(lifter, full);

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
    for (int i = 0; i < numInputs; ++i) sources.push_back(nl.addInput(numbered("i", i)));
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
      JustificationLifter lifter(nl, {objectives}, identityBinding(nl));
      NodeCube cube = liftNodes(lifter, full);

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
      JustificationLifter lifter(nl, {objectives}, identityBinding(nl));
      NodeCube cube = liftNodes(lifter, full);

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
    JustificationLifter lifter(nl, {objectives}, identityBinding(nl));
    NodeCube cube = liftNodes(lifter, full);
    EXPECT_LE(cube.size(), sources.size());
    for (const NodeAssign& na : cube) EXPECT_EQ(full[na.first], na.second);
  }
}

// The per-model lifting path of the lifted-cube engine before its lifter
// was built once per query, kept as the parity oracle: lift the internal
// model to the original space, simulate the whole netlist, justify the first
// realized target cube by recursive critical tracing (a controlled gate
// through a marked controlling fanin, else the one whose cone holds the
// fewest state nodes), keep the state sources and translate them back to
// internal literals.
LitVec referenceLift(const TransitionSystem& system, const StateSet& target,
                     const TransitionEncoding& te, const std::vector<lbool>& internalModel) {
  const Netlist& nl = system.netlist();
  const std::vector<lbool> model = testutil::originalModel(te.base, internalModel);
  std::vector<bool> sources(nl.numNodes(), false);
  for (NodeId id = 0; id < nl.numNodes(); ++id) {
    if (isCombinational(nl.type(id)) || !te.enc.isEncoded(id)) continue;
    sources[id] = model[static_cast<size_t>(te.enc.varOf(id))].isTrue();
  }
  const std::vector<bool> values = Simulator::evaluateOnce(nl, sources);

  const LitVec* satisfied = nullptr;
  for (const LitVec& cube : target.cubes) {
    bool ok = true;
    for (Lit l : cube) ok = ok && values[system.nextStateRoot(l.var())] != l.sign();
    if (ok) {
      satisfied = &cube;
      break;
    }
  }
  if (satisfied == nullptr) {
    ADD_FAILURE() << "model does not reach the target set";
    return {};
  }

  std::vector<bool> isState(nl.numNodes(), false);
  for (NodeId st : system.stateNodes()) isState[st] = true;
  auto statesInCone = [&](NodeId id) {
    std::vector<NodeId> cone = nl.coneOf({id});
    return std::count_if(cone.begin(), cone.end(), [&](NodeId n) { return isState[n]; });
  };

  std::vector<bool> marked(nl.numNodes(), false);
  NodeCube kept;
  auto mark = [&](auto&& self, NodeId id) -> void {
    if (marked[id]) return;
    marked[id] = true;
    const GateNode& g = nl.node(id);
    bool out = values[id];
    switch (g.type) {
      case GateType::kInput:
      case GateType::kDff:
        kept.emplace_back(id, out);
        return;
      case GateType::kConst0:
      case GateType::kConst1:
        return;
      case GateType::kBuf:
      case GateType::kNot:
        self(self, g.fanins[0]);
        return;
      case GateType::kAnd:
      case GateType::kNand:
      case GateType::kOr:
      case GateType::kNor: {
        bool ctrlIn = (g.type == GateType::kOr || g.type == GateType::kNor);
        bool inverted = (g.type == GateType::kNand || g.type == GateType::kNor);
        if (out == (ctrlIn != inverted)) {
          NodeId pick = kNoNode;
          for (NodeId f : g.fanins) {
            if (values[f] == ctrlIn) {
              if (marked[f]) {
                pick = f;
                break;
              }
              if (pick == kNoNode || statesInCone(f) < statesInCone(pick)) pick = f;
            }
          }
          self(self, pick);
        } else {
          for (NodeId f : g.fanins) self(self, f);
        }
        return;
      }
      case GateType::kXor:
      case GateType::kXnor:
        for (NodeId f : g.fanins) self(self, f);
        return;
      case GateType::kMux:
        self(self, g.fanins[0]);
        self(self, values[g.fanins[0]] ? g.fanins[2] : g.fanins[1]);
        return;
    }
  };
  for (Lit l : *satisfied) mark(mark, system.nextStateRoot(l.var()));

  LitVec cube;
  for (const NodeAssign& a : kept) {
    if (isState[a.first]) cube.push_back(te.base.internalLit(mkLit(te.enc.varOf(a.first), !a.second)));
  }
  return cube;
}

// A sequential netlist of XOR, MUX and AND gates over random earlier nodes,
// each DFF fed by a random gate: no controlling value for most gates, and
// MUX selects that steer the walk.
Netlist xorMuxSequential(Rng& rng) {
  Netlist nl;
  std::vector<NodeId> pool;
  int numInputs = static_cast<int>(rng.range(2, 4));
  int numDffs = static_cast<int>(rng.range(3, 6));
  for (int i = 0; i < numInputs; ++i) pool.push_back(nl.addInput(numbered("i", i)));
  std::vector<NodeId> dffs;
  for (int i = 0; i < numDffs; ++i) dffs.push_back(nl.addDff(numbered("s", i)));
  pool.insert(pool.end(), dffs.begin(), dffs.end());
  size_t firstGate = pool.size();
  auto pick = [&] { return pool[rng.below(pool.size())]; };
  int numGates = static_cast<int>(rng.range(10, 30));
  for (int g = 0; g < numGates; ++g) {
    uint64_t roll = rng.range(0, 2);
    if (roll == 0) {
      pool.push_back(nl.mkXor(pick(), pick()));
    } else if (roll == 1) {
      pool.push_back(nl.mkMux(pick(), pick(), pick()));
    } else {
      pool.push_back(nl.mkAnd(pick(), pick()));
    }
  }
  for (NodeId d : dffs) {
    nl.connectDffData(d, pool[firstGate + rng.below(pool.size() - firstGate)]);
  }
  return nl;
}

// 1-3 target cubes, each fixing 1-4 bits of a next state that one random
// transition reaches, so the query has models.
StateSet reachableTarget(Rng& rng, const TransitionSystem& system) {
  const int n = system.numStateBits();
  StateSet target;
  target.numStateBits = n;
  int numCubes = static_cast<int>(rng.range(1, 3));
  for (int c = 0; c < numCubes; ++c) {
    std::vector<bool> state(static_cast<size_t>(n));
    std::vector<bool> inputs(static_cast<size_t>(system.numInputs()));
    for (auto&& b : state) b = rng.flip();
    for (auto&& b : inputs) b = rng.flip();
    std::vector<bool> next = system.step(state, inputs);
    LitVec cube;
    int fixed = static_cast<int>(rng.range(1, std::min(n, 4)));
    int bit = static_cast<int>(rng.below(static_cast<uint64_t>(n)));
    for (int k = 0; k < fixed; ++k, bit = (bit + 1) % n) {
      cube.push_back(mkLit(static_cast<Var>(bit), !next[static_cast<size_t>(bit)]));
    }
    target.cubes.push_back(std::move(cube));
  }
  return target;
}

// Whether preprocessing eliminated an input as pure inside the target's
// cone, so the lifter must read its forced polarity instead of the model.
bool forcedInputInCone(const TransitionSystem& system, const StateSet& target,
                       const TransitionEncoding& te) {
  const Netlist& nl = system.netlist();
  std::vector<NodeId> roots;
  for (const LitVec& cube : target.cubes) {
    for (Lit l : cube) roots.push_back(system.nextStateRoot(l.var()));
  }
  std::vector<uint8_t> inCone(nl.numNodes(), 0);
  for (NodeId id : nl.coneOf(roots)) inCone[id] = 1;
  for (Lit l : te.base.forcedLits) {
    for (NodeId id : nl.inputs()) {
      if (inCone[id] && te.enc.isEncoded(id) && te.enc.varOf(id) == l.var()) return true;
    }
  }
  return false;
}

// Enumerates the query the way lifted cube blocking does (CDCL on the
// preprocessed formula plus target clauses, each lifted cube blocked) and
// checks every model's lift against referenceLift. Returns the models seen.
int checkLifterParity(const Netlist& nl, Rng& rng, const std::string& label, bool* forced) {
  TransitionSystem system(nl);
  TransitionEncoding te = buildTransitionEncoding(system);
  StateSet target = reachableTarget(rng, system);
  *forced = *forced || forcedInputInCone(system, target, te);

  Cnf cnf = te.base.cnf;
  LitVec roots;
  for (NodeId r : system.nextStateRoots()) roots.push_back(te.base.internalLit(te.enc.litOf(r)));
  addStateSetClauses(cnf, target, roots);
  ModelLifter lifter = makeJustificationLifter(system, target, te);

  Solver solver;
  if (!solver.addCnf(cnf)) {
    ADD_FAILURE() << label << ": reachable target is unsatisfiable";
    return 0;
  }
  int models = 0;
  for (; models < 64 && solver.solve().isTrue(); ++models) {
    LitVec got = lifter(solver.model());
    LitVec want = referenceLift(system, target, te, solver.model());
    EXPECT_EQ(toString(got), toString(want)) << label << " model " << models;
    if (got != want || got.empty()) return models + 1;
    LitVec block;
    for (Lit l : got) block.push_back(~l);
    if (!solver.addClause(block)) return models + 1;
  }
  EXPECT_GT(models, 0) << label;
  return models;
}

// The query-scoped lifter returns the reference lift's cube literal for
// literal, in order, on every model of random circuits (AND/OR-heavy and
// XOR-heavy generator shapes, plus XOR/MUX netlists) under 1-3-cube
// targets, including queries whose cone holds a pure-eliminated input.
TEST(JustificationLifterParity, MatchesWholeNetlistReferenceLift) {
  Rng rng(1201);
  bool forced = false;
  int models = 0;
  for (uint64_t seed = 1; seed <= 900; ++seed) {
    RandomCircuitParams params;
    params.seed = seed;
    params.numInputs = 3 + static_cast<int>(seed % 4);
    params.numDffs = 3 + static_cast<int>(seed % 5);
    params.numGates = 10 + static_cast<int>(seed % 40);
    params.xorPercent = static_cast<int>(seed % 3) * 30;
    models += checkLifterParity(makeRandomSequential(params), rng,
                                "random seed " + std::to_string(seed), &forced);
  }
  for (int net = 0; net < 80; ++net) {
    models += checkLifterParity(xorMuxSequential(rng), rng, numbered("xor/mux net ", net),
                                &forced);
  }
  EXPECT_TRUE(forced) << "no query had a pure-eliminated input in its cone";
  EXPECT_GT(models, 1000);
}

}  // namespace
}  // namespace presat
