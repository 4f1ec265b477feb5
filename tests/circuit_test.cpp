// Netlist, .bench I/O, simulators, Tseitin encoding, CNF->circuit.
#include <gtest/gtest.h>

#include <latch>
#include <sstream>
#include <thread>

#include "base/log.hpp"
#include "base/rng.hpp"
#include "check/audit_netlist.hpp"
#include "circuit/bench_io.hpp"
#include "circuit/from_cnf.hpp"
#include "circuit/netlist.hpp"
#include "circuit/simulator.hpp"
#include "circuit/ternary.hpp"
#include "circuit/tseitin.hpp"
#include "gen/generators.hpp"
#include "gen/iscas.hpp"
#include "gen/random_circuit.hpp"
#include "preimage/transition_system.hpp"
#include "oracle/dpll.hpp"
#include "sat/solver.hpp"
#include "test_util.hpp"

namespace presat {
namespace {

Netlist buildSmallCombinational() {
  Netlist nl;
  NodeId a = nl.addInput("a");
  NodeId b = nl.addInput("b");
  NodeId c = nl.addInput("c");
  NodeId ab = nl.mkAnd(a, b, "ab");
  NodeId abc = nl.mkOr(ab, c, "abc");
  nl.markOutput(abc, "y");
  return nl;
}

TEST(Netlist, BasicConstruction) {
  Netlist nl = buildSmallCombinational();
  EXPECT_EQ(nl.numNodes(), 5u);
  EXPECT_EQ(nl.inputs().size(), 3u);
  EXPECT_EQ(nl.numGates(), 2u);
  EXPECT_EQ(nl.findByName("ab"), 3u);
  EXPECT_EQ(nl.findByName("missing"), kNoNode);
  nl.validate();
}

TEST(Netlist, TopologicalOrderRespectsEdges) {
  Netlist nl = makeS27();
  std::vector<NodeId> order = nl.topologicalOrder();
  std::vector<size_t> pos(nl.numNodes());
  for (size_t i = 0; i < order.size(); ++i) pos[order[i]] = i;
  for (NodeId id = 0; id < nl.numNodes(); ++id) {
    if (!isCombinational(nl.type(id))) continue;
    for (NodeId f : nl.fanins(id)) EXPECT_LT(pos[f], pos[id]);
  }
}

TEST(Netlist, LevelsAreMonotone) {
  Netlist nl = makeS27();
  std::vector<int> level = nl.levels();
  for (NodeId id = 0; id < nl.numNodes(); ++id) {
    if (!isCombinational(nl.type(id))) {
      EXPECT_EQ(level[id], 0);
      continue;
    }
    for (NodeId f : nl.fanins(id)) EXPECT_GT(level[id], level[f]);
  }
}

TEST(Netlist, ConeOf) {
  Netlist nl = buildSmallCombinational();
  EXPECT_EQ(nl.coneOf({nl.findByName("ab")}).size(), 3u);  // a, b, ab
  std::vector<NodeId> cone = nl.coneOf({nl.findByName("abc")});
  EXPECT_EQ(cone.size(), 5u);
}

TEST(Netlist, FanoutsMatchFanins) {
  Netlist nl = makeS27();
  const FanoutLists& outs = nl.fanouts();
  size_t edges = 0, redges = 0;
  for (NodeId id = 0; id < nl.numNodes(); ++id) edges += nl.fanins(id).size();
  for (NodeId id = 0; id < nl.numNodes(); ++id) redges += outs[id].size();
  EXPECT_EQ(edges, redges);
}

// Reference computations written independently of Netlist's cached views:
// fanouts by one scan over the fanin lists, and the order by Kahn's
// algorithm with the sources first in id order, then FIFO over the
// combinational edges. The cached views must equal them element for
// element, since success-driven branch order follows the topological order.
std::vector<std::vector<NodeId>> referenceFanouts(const Netlist& nl) {
  std::vector<std::vector<NodeId>> outs(nl.numNodes());
  for (NodeId id = 0; id < nl.numNodes(); ++id) {
    for (NodeId f : nl.fanins(id)) outs[f].push_back(id);
  }
  return outs;
}

std::vector<NodeId> referenceOrder(const Netlist& nl) {
  std::vector<int> pending(nl.numNodes(), 0);
  std::vector<std::vector<NodeId>> combOuts(nl.numNodes());
  std::vector<NodeId> order;
  for (NodeId id = 0; id < nl.numNodes(); ++id) {
    if (!isCombinational(nl.type(id))) {
      order.push_back(id);
      continue;
    }
    pending[id] = static_cast<int>(nl.fanins(id).size());
    for (NodeId f : nl.fanins(id)) combOuts[f].push_back(id);
  }
  for (size_t head = 0; head < order.size(); ++head) {
    for (NodeId out : combOuts[order[head]]) {
      if (--pending[out] == 0) order.push_back(out);
    }
  }
  return order;
}

void expectFreshViews(const Netlist& nl, const std::string& what) {
  EXPECT_EQ(nl.topologicalOrder(), referenceOrder(nl)) << what;
  std::vector<std::vector<NodeId>> fanouts;
  for (NodeId id = 0; id < nl.numNodes(); ++id) {
    fanouts.emplace_back(nl.fanouts()[id].begin(), nl.fanouts()[id].end());
  }
  EXPECT_EQ(nl.fanouts().offsets.size(), nl.numNodes() + 1) << what;
  EXPECT_EQ(fanouts, referenceFanouts(nl)) << what;
}

std::vector<std::pair<std::string, Netlist>> viewTestNetlists() {
  std::vector<std::pair<std::string, Netlist>> out;
  out.emplace_back("s27", makeS27());
  out.emplace_back("counter", makeCounter(5));
  out.emplace_back("gray", makeGrayCounter(4));
  out.emplace_back("lfsr", makeLfsr(6));
  out.emplace_back("shift", makeShiftRegister(5));
  out.emplace_back("arbiter", makeRoundRobinArbiter(4));
  out.emplace_back("traffic", makeTrafficLight());
  out.emplace_back("accum", makeAccumulator(4));
  out.emplace_back("lock", makeCombinationLock({1, 2, 3}, 2));
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    RandomCircuitParams params;
    params.numInputs = 2 + static_cast<int>(seed % 5);
    params.numDffs = 3 + static_cast<int>(seed % 7);
    params.numGates = 20 + static_cast<int>(seed * 9);
    params.seed = seed;
    out.emplace_back("random seed " + std::to_string(seed), makeRandomSequential(params));
  }
  return out;
}

TEST(Netlist, DerivedViewsMatchFreshComputation) {
  for (auto& [name, original] : viewTestNetlists()) {
    Netlist nl = original;
    expectFreshViews(nl, name);

    // Each mutation kind drops the views; the next read rebuilds them.
    NodeId in = nl.addInput("probe_in");
    expectFreshViews(nl, name + " after addInput");
    NodeId gate = nl.addGate(GateType::kAnd, {in, nl.topologicalOrder().back()}, "probe_and");
    expectFreshViews(nl, name + " after addGate");
    NodeId dff = nl.addDff("probe_q");
    expectFreshViews(nl, name + " after addDff");
    nl.connectDffData(dff, gate);
    expectFreshViews(nl, name + " after connectDffData");
    nl.addGate(GateType::kNot, {dff}, "probe_not");
    expectFreshViews(nl, name + " after a gate on the new DFF");

    // A copy builds its own views, and mutating it leaves the original's
    // alone.
    Netlist copy = nl;
    expectFreshViews(copy, name + " copy");
    copy.addInput("probe_copy_in");
    expectFreshViews(copy, name + " copy after addInput");
    expectFreshViews(nl, name + " original after the copy grew");

    Netlist moved = std::move(copy);
    expectFreshViews(moved, name + " move-constructed");
    Netlist assigned = original;
    (void)assigned.topologicalOrder();
    assigned = nl;
    expectFreshViews(assigned, name + " copy-assigned");
    assigned = std::move(moved);
    expectFreshViews(assigned, name + " move-assigned");
  }

  // A cycle planted after the views were built is still rejected.
  Netlist nl = makeCounter(4);
  (void)nl.topologicalOrder();
  nl.validate();
  corruptNetlistForTest(nl, NetlistCorruption::kSelfLoop);
  EXPECT_TRUE(auditNetlist(nl).has("netlist.acyclic"));
  EXPECT_DEATH(nl.validate(), "combinational cycle");
}

// Racing first readers of a fresh netlist must all see the one installed
// views object. The publication protocol has no lock, so the tsan CI lane,
// which runs this test under ThreadSanitizer, is what guards it.
TEST(Netlist, ConcurrentFirstReadersSeeOneView) {
  constexpr int kThreads = 8;
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    RandomCircuitParams params;
    params.numInputs = 8;
    params.numDffs = 20;
    params.numGates = 400;
    params.seed = seed;
    const Netlist nl = makeRandomSequential(params);
    std::vector<const std::vector<NodeId>*> orders(kThreads);
    std::vector<const FanoutLists*> fanouts(kThreads);
    std::latch start(kThreads);
    std::vector<std::thread> readers;
    for (int t = 0; t < kThreads; ++t) {
      readers.emplace_back([&, t] {
        start.arrive_and_wait();
        orders[t] = &nl.topologicalOrder();
        fanouts[t] = &nl.fanouts();
      });
    }
    for (std::thread& r : readers) r.join();
    for (int t = 0; t < kThreads; ++t) {
      EXPECT_EQ(orders[t], orders[0]) << "seed " << seed << " thread " << t;
      EXPECT_EQ(fanouts[t], fanouts[0]) << "seed " << seed << " thread " << t;
    }
    expectFreshViews(nl, "seed " + std::to_string(seed));
  }
}

TEST(BenchIo, ParsesS27Structure) {
  Netlist nl = makeS27();
  EXPECT_EQ(nl.inputs().size(), 4u);
  EXPECT_EQ(nl.dffs().size(), 3u);
  EXPECT_EQ(nl.outputs().size(), 1u);
  EXPECT_EQ(nl.numGates(), 10u);  // 8 2-input gates + 2 inverters
  // Spot-check connectivity: G11 = NOR(G5, G9).
  NodeId g11 = nl.findByName("G11");
  ASSERT_NE(g11, kNoNode);
  EXPECT_EQ(nl.type(g11), GateType::kNor);
  EXPECT_EQ(nl.fanins(g11).size(), 2u);
  EXPECT_EQ(nl.name(nl.fanins(g11)[0]), "G5");
  EXPECT_EQ(nl.name(nl.fanins(g11)[1]), "G9");
}

TEST(BenchIo, RoundTripPreservesBehaviour) {
  Rng rng(5);
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    RandomCircuitParams params;
    params.seed = seed;
    Netlist original = makeRandomSequential(params);
    Netlist back = parseBenchString(toBenchString(original));
    ASSERT_EQ(back.inputs().size(), original.inputs().size());
    ASSERT_EQ(back.dffs().size(), original.dffs().size());
    // Compare behaviour on random patterns: same sources by name.
    for (int trial = 0; trial < 20; ++trial) {
      std::vector<bool> src1(original.numNodes(), false);
      std::vector<bool> src2(back.numNodes(), false);
      for (NodeId id = 0; id < original.numNodes(); ++id) {
        if (isCombinational(original.type(id))) continue;
        bool v = rng.flip();
        src1[id] = v;
        NodeId other = back.findByName(original.name(id).empty() ? numbered("n", id)
                                                                 : original.name(id));
        ASSERT_NE(other, kNoNode);
        src2[other] = v;
      }
      auto val1 = Simulator::evaluateOnce(original, src1);
      auto val2 = Simulator::evaluateOnce(back, src2);
      for (size_t i = 0; i < original.dffs().size(); ++i) {
        EXPECT_EQ(val1[original.dffData(original.dffs()[i])],
                  val2[back.dffData(back.dffs()[i])]);
      }
    }
  }
}

TEST(BenchIo, MuxAndConstDialectRoundTrip) {
  // Traffic light (MUX + const) and combination lock survive the writer's
  // dialect extension.
  for (Netlist original : {makeTrafficLight(), makeCombinationLock({1, 2}, 2)}) {
    Netlist back = parseBenchString(toBenchString(original));
    TransitionSystem a(original);
    TransitionSystem b(back);
    Rng rng(99);
    for (int trial = 0; trial < 40; ++trial) {
      std::vector<bool> state(static_cast<size_t>(a.numStateBits()));
      std::vector<bool> inputs(static_cast<size_t>(a.numInputs()));
      for (auto&& v : state) v = rng.flip();
      for (auto&& v : inputs) v = rng.flip();
      EXPECT_EQ(a.step(state, inputs), b.step(state, inputs));
    }
  }
}

TEST(BenchIo, RejectsMalformedInput) {
  EXPECT_DEATH((void)parseBenchString("G1 = FROB(G0)\nINPUT(G0)\n"), "unknown gate type");
  EXPECT_DEATH((void)parseBenchString("INPUT(G0)\nG1 = AND(G0, G9)\n"), "undefined signal");
  EXPECT_DEATH((void)parseBenchString("INPUT(G0)\nG1 = NOT(G0)\nG1 = NOT(G0)\n"), "redefinition");
}

TEST(BenchIo, ErrorsCarryLineNumbers) {
  // The offending construct sits on line 3 in each fixture; the message must
  // say so (the PR-1 DIMACS hardening contract, mirrored for .bench).
  EXPECT_DEATH((void)parseBenchString("INPUT(G0)\n\nG1 = FROB(G0)\n"), "\\.bench line 3");
  EXPECT_DEATH((void)parseBenchString("INPUT(G0)\n\nG1 = NOT(G0\n"), "\\.bench line 3");
  EXPECT_DEATH((void)parseBenchString("INPUT(G0)\n\nWIDGET(G0)\n"), "\\.bench line 3");
  EXPECT_DEATH((void)parseBenchString("INPUT(G0)\nG1 = NOT(G0)\nG1 = BUF(G0)\n"),
               "\\.bench line 3: redefinition of 'G1' \\(first defined at line 2\\)");
}

TEST(BenchIo, RejectsTruncatedConstructs) {
  // Truncated or structurally empty lines die with a parse error, never a
  // crash or a silently mis-built netlist.
  EXPECT_DEATH((void)parseBenchString("INPUT(G0\n"), "expected INPUT");
  EXPECT_DEATH((void)parseBenchString("INPUT()\n"), "empty signal name");
  EXPECT_DEATH((void)parseBenchString("INPUT(G0)\n = NOT(G0)\n"), "missing signal name");
  EXPECT_DEATH((void)parseBenchString("INPUT(G0)\nG1 = \n"), "expected name = GATE");
  EXPECT_DEATH((void)parseBenchString("INPUT(G0)\nG1 = NOT G0\n"), "expected name = GATE");
}

TEST(BenchIo, RejectsBadArity) {
  // Arity violations are caught at scan time; unchecked, a 0-fanin NOT or a
  // 2-fanin MUX indexes past the fanin array inside the engines.
  EXPECT_DEATH((void)parseBenchString("INPUT(G0)\nG1 = NOT(G0, G0)\n"), "has 2 fanins");
  EXPECT_DEATH((void)parseBenchString("INPUT(G0)\nG1 = NOT()\n"), "has 0 fanins");
  EXPECT_DEATH((void)parseBenchString("INPUT(G0)\nG1 = MUX(G0, G0)\n"), "has 2 fanins");
  EXPECT_DEATH((void)parseBenchString("G1 = CONST0(G1)\n"), "has 1 fanins");
  EXPECT_DEATH((void)parseBenchString("INPUT(G0)\nG1 = AND()\n"), "has 0 fanins");
  EXPECT_DEATH((void)parseBenchString("INPUT(G0)\nG1 = DFF(G0, G0)\n"), "has 2 fanins");
  EXPECT_DEATH((void)parseBenchString("INPUT(G0)\nOUTPUT(G0)\nG1 = INPUT(G0)\n"),
               "unknown gate type");
}

TEST(BenchIo, RejectsCombinationalCycle) {
  // A purely combinational loop used to recurse until the stack overflowed;
  // it must die with the cycle diagnostic instead.
  EXPECT_DEATH((void)parseBenchString("OUTPUT(a)\na = BUF(b)\nb = BUF(a)\n"),
               "combinational cycle");
  EXPECT_DEATH((void)parseBenchString("OUTPUT(a)\na = AND(a, a)\n"), "combinational cycle");
  EXPECT_DEATH(
      (void)parseBenchString("INPUT(x)\nOUTPUT(a)\na = OR(x, b)\nb = NOT(c)\nc = BUF(a)\n"),
      "combinational cycle");
}

TEST(BenchIo, DffFeedbackIsNotACycle) {
  // State feedback through a DFF is legal and must keep parsing.
  Netlist nl = parseBenchString("OUTPUT(q)\nq = DFF(d)\nd = NOT(q)\n");
  EXPECT_EQ(nl.dffs().size(), 1u);
  TransitionSystem sys(nl);
  EXPECT_EQ(sys.step({false}, {}), std::vector<bool>{true});
  EXPECT_EQ(sys.step({true}, {}), std::vector<bool>{false});
}

// A 200 000-gate combinational chain parses on a std::thread's default
// stack: the resolver keeps its own DFS stack, where a recursive one
// overflowed the call stack.
TEST(BenchIo, DeepChainParsesWithoutRecursion) {
  constexpr int kGates = 200000;
  std::string text = "INPUT(a)\nOUTPUT(q)\nq = DFF(g0)\n";
  for (int i = 0; i + 1 < kGates; ++i) {
    text += numbered("g", i) + numbered(" = NOT(g", i + 1) + ")\n";
  }
  text += "g" + std::to_string(kGates - 1) + " = AND(a, q)\n";
  Netlist nl;
  std::thread worker([&] { nl = parseBenchString(text); });
  worker.join();
  EXPECT_EQ(nl.numNodes(), static_cast<size_t>(kGates) + 2);
  EXPECT_EQ(nl.numGates(), static_cast<size_t>(kGates));
  // Fanins come first: the chain's far end is node 2, the DFF's data pin last.
  EXPECT_EQ(nl.name(2), "g" + std::to_string(kGates - 1));
  EXPECT_EQ(nl.dffData(nl.dffs()[0]), nl.numNodes() - 1);
}

// Mutants of two valid texts (s27 and a random circuit): bytes deleted,
// duplicated, overwritten with grammar characters or flipped, whole lines
// spliced in from elsewhere, and gate names swapped (which breaks arities).
// The one parser must either return a netlist that passes the structural
// audit or report a ".bench line N" error; it must never abort or crash on
// any of them.
TEST(BenchIo, HostileMutantsNeverAbort) {
  RandomCircuitParams params;
  params.numInputs = 4;
  params.numDffs = 6;
  params.numGates = 60;
  params.seed = 17;
  const std::string seeds[] = {iscasS27Text(), toBenchString(makeRandomSequential(params))};
  const std::string alphabet = "(),=# \n\tabgGq01DFANDOTBUXMC";
  const char* gates[] = {" AND", " NOT", " BUF", " MUX", " DFF", " CONST1", " xnor", " FROB"};
  Rng rng(2027);
  int parsed = 0;
  int rejected = 0;
  for (int m = 0; m < 2000; ++m) {
    std::string text = seeds[m % 2];
    auto lineStart = [&text](size_t at) {
      const size_t newline = text.rfind('\n', at);
      return newline == std::string::npos ? 0 : newline + 1;
    };
    for (int edits = static_cast<int>(rng.range(1, 3)); edits > 0 && !text.empty(); --edits) {
      const size_t at = rng.below(text.size());
      switch (rng.below(6)) {
        case 0:
          text.erase(at, 1);
          break;
        case 1:
          text.insert(at, 1, text[at]);
          break;
        case 2:
          text[at] = alphabet[rng.below(alphabet.size())];
          break;
        case 3:
          text[at] = static_cast<char>(text[at] ^ (1 << rng.below(8)));
          break;
        case 4: {
          // Splice: copy the line around one offset to the start of another.
          const size_t from = rng.below(text.size());
          const size_t begin = lineStart(from);
          const std::string line = text.substr(begin, text.find('\n', from) - begin) + "\n";
          text.insert(lineStart(at), line);
          break;
        }
        case 5: {
          // Swap the gate name of the first definition at or after `at`.
          const size_t eq = text.find('=', lineStart(at));
          const size_t open = text.find('(', eq);
          if (open != std::string::npos) text.replace(eq + 1, open - eq - 1, gates[rng.below(8)]);
          break;
        }
      }
    }
    std::string err;
    std::optional<Netlist> nl = parseBench(text, &err);
    if (nl) {
      ++parsed;
      AuditResult audit = auditNetlist(*nl);
      EXPECT_TRUE(audit.ok()) << audit.toString() << "\n" << text;
    } else {
      ++rejected;
      EXPECT_EQ(err.rfind(".bench line ", 0), 0u) << err << "\n" << text;
    }
  }
  // Both outcomes occur, so the corpus exercises the accept and reject paths.
  EXPECT_GT(parsed, 100);
  EXPECT_GT(rejected, 100);
}

// Node-for-node pin of the parser's output over the s27 text and the texts
// of every generator and 30 random circuits, ten of them rand14x200-shaped
// (the serve workload's circuit). One digest folds the structural hashes,
// the other the node-name sequence. The serve cache keys on the structural
// hash, so a parser change that reorders nodes would silently re-key it. The
// digests were taken from the recursive parser this one replaced; re-pin
// them only for a change that is meant to alter the netlist a .bench text
// produces.
TEST(BenchIo, ParsedNetlistMatchesPinnedDigest) {
  std::vector<Netlist> circuits = {
      makeCounter(6),         makeCounter(5, false),   makeGrayCounter(5),
      makeLfsr(7),            makeShiftRegister(6),    makeRoundRobinArbiter(4),
      makeTrafficLight(),     makeAccumulator(4),      makeCombinationLock({3, 1, 2}, 2),
      makeS27()};
  Rng rng(1801);
  for (int i = 0; i < 30; ++i) {
    RandomCircuitParams params;
    params.seed = rng.next();
    params.numInputs = i < 10 ? 6 : static_cast<int>(rng.range(1, 8));
    params.numDffs = i < 10 ? 14 : static_cast<int>(rng.range(1, 16));
    params.numGates = i < 10 ? 200 : static_cast<int>(rng.range(16, 300));
    circuits.push_back(makeRandomSequential(params));
  }
  auto mix = [](uint64_t& digest, uint64_t word) {
    for (int i = 0; i < 8; ++i) {
      digest ^= (word >> (8 * i)) & 0xff;
      digest *= 0x100000001b3ull;
    }
  };
  uint64_t hashDigest = 0xcbf29ce484222325ull;
  uint64_t nameDigest = 0xcbf29ce484222325ull;
  std::vector<std::string> texts = {iscasS27Text()};
  for (const Netlist& original : circuits) {
    // Each writer text, and the same lines reversed: every definition then
    // comes before its fanins', so the forward-reference order is pinned too.
    std::string text = toBenchString(original);
    std::vector<std::string> lines;
    std::istringstream in(text);
    for (std::string line; std::getline(in, line);) lines.push_back(line);
    std::string reversed;
    for (auto it = lines.rbegin(); it != lines.rend(); ++it) reversed += *it + "\n";
    texts.push_back(std::move(text));
    texts.push_back(std::move(reversed));
  }
  for (const std::string& text : texts) {
    Netlist parsed = parseBenchString(text);
    mix(hashDigest, netlistStructuralHash(parsed));
    mix(nameDigest, parsed.numNodes());
    for (NodeId id = 0; id < parsed.numNodes(); ++id) {
      for (char c : parsed.name(id)) mix(nameDigest, static_cast<uint8_t>(c));
      mix(nameDigest, 0);
    }
  }
  EXPECT_EQ(hashDigest, 0xeb7693acc67ca9e6ull) << std::hex << hashDigest;
  EXPECT_EQ(nameDigest, 0xba01c4a5d705ffc6ull) << std::hex << nameDigest;
}

TEST(Simulator, GateSemantics) {
  Netlist nl;
  NodeId a = nl.addInput("a");
  NodeId b = nl.addInput("b");
  NodeId s = nl.addInput("s");
  NodeId gAnd = nl.addGate(GateType::kAnd, {a, b});
  NodeId gNand = nl.addGate(GateType::kNand, {a, b});
  NodeId gOr = nl.addGate(GateType::kOr, {a, b});
  NodeId gNor = nl.addGate(GateType::kNor, {a, b});
  NodeId gXor = nl.addGate(GateType::kXor, {a, b});
  NodeId gXnor = nl.addGate(GateType::kXnor, {a, b});
  NodeId gNot = nl.mkNot(a);
  NodeId gBuf = nl.addGate(GateType::kBuf, {a});
  NodeId gMux = nl.mkMux(s, a, b);

  Simulator sim(nl);
  // Pattern k in {0..7}: bit0 of k = a, bit1 = b, bit2 = s.
  uint64_t wa = 0, wb = 0, ws = 0;
  for (int k = 0; k < 8; ++k) {
    if (k & 1) wa |= 1ull << k;
    if (k & 2) wb |= 1ull << k;
    if (k & 4) ws |= 1ull << k;
  }
  sim.setSource(a, wa);
  sim.setSource(b, wb);
  sim.setSource(s, ws);
  sim.run();
  uint64_t mask = 0xff;
  EXPECT_EQ(sim.value(gAnd) & mask, wa & wb & mask);
  EXPECT_EQ(sim.value(gNand) & mask, ~(wa & wb) & mask);
  EXPECT_EQ(sim.value(gOr) & mask, (wa | wb) & mask);
  EXPECT_EQ(sim.value(gNor) & mask, ~(wa | wb) & mask);
  EXPECT_EQ(sim.value(gXor) & mask, (wa ^ wb) & mask);
  EXPECT_EQ(sim.value(gXnor) & mask, ~(wa ^ wb) & mask);
  EXPECT_EQ(sim.value(gNot) & mask, ~wa & mask);
  EXPECT_EQ(sim.value(gBuf) & mask, wa & mask);
  EXPECT_EQ(sim.value(gMux) & mask, ((ws & wb) | (~ws & wa)) & mask);
}

TEST(Ternary, AgreesWithBinaryOnFullAssignments) {
  Rng rng(9);
  RandomCircuitParams params;
  params.seed = 4;
  params.numGates = 60;
  Netlist nl = makeRandomSequential(params);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<bool> sources(nl.numNodes(), false);
    std::vector<lbool> tern(nl.numNodes(), l_Undef);
    for (NodeId id = 0; id < nl.numNodes(); ++id) {
      if (isCombinational(nl.type(id))) continue;
      bool v = rng.flip();
      sources[id] = v;
      tern[id] = lbool(v);
    }
    auto binary = Simulator::evaluateOnce(nl, sources);
    std::vector<lbool> ternary = tern;
    ternarySimulate(nl, nl.topologicalOrder(), ternary);
    for (NodeId id = 0; id < nl.numNodes(); ++id) {
      ASSERT_FALSE(ternary[id].isUndef()) << "node " << id;
      EXPECT_EQ(ternary[id].isTrue(), binary[id]) << "node " << id;
    }
  }
}

TEST(Ternary, PartialAssignmentsNeverContradictCompletions) {
  Rng rng(33);
  RandomCircuitParams params;
  params.seed = 8;
  params.numGates = 30;
  params.numInputs = 3;
  params.numDffs = 3;
  Netlist nl = makeRandomSequential(params);
  std::vector<NodeId> sources;
  for (NodeId id = 0; id < nl.numNodes(); ++id) {
    if (nl.type(id) == GateType::kInput || nl.type(id) == GateType::kDff) sources.push_back(id);
  }
  for (int trial = 0; trial < 40; ++trial) {
    std::vector<lbool> partial(nl.numNodes(), l_Undef);
    for (NodeId s : sources) {
      if (rng.chance(1, 2)) partial[s] = lbool(rng.flip());
    }
    std::vector<lbool> tern = partial;
    ternarySimulate(nl, nl.topologicalOrder(), tern);
    // Every completion must agree with the determined ternary values.
    size_t free = 0;
    for (NodeId s : sources) free += partial[s].isUndef() ? 1 : 0;
    ASSERT_LE(free, 6u);
    for (uint64_t bits = 0; bits < (1ull << free); ++bits) {
      std::vector<bool> full(nl.numNodes(), false);
      size_t k = 0;
      for (NodeId s : sources) {
        full[s] = partial[s].isUndef() ? ((bits >> k++) & 1) : partial[s].isTrue();
      }
      auto values = Simulator::evaluateOnce(nl, full);
      for (NodeId id = 0; id < nl.numNodes(); ++id) {
        if (!tern[id].isUndef()) {
          EXPECT_EQ(tern[id].isTrue(), values[id]);
        }
      }
    }
  }
}

TEST(Tseitin, EncodingMatchesSimulation) {
  Rng rng(17);
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    RandomCircuitParams params;
    params.seed = seed;
    params.numGates = 40;
    Netlist nl = makeRandomSequential(params);
    CircuitEncoding enc = encodeCircuit(nl);
    for (int trial = 0; trial < 30; ++trial) {
      std::vector<bool> sources(nl.numNodes(), false);
      for (NodeId id = 0; id < nl.numNodes(); ++id) {
        if (!isCombinational(nl.type(id))) sources[id] = rng.flip();
      }
      auto values = Simulator::evaluateOnce(nl, sources);
      // Constrain the CNF to the source values and solve; every node variable
      // must take the simulated value.
      Solver s;
      s.addCnf(enc.cnf);
      LitVec assumptions;
      for (NodeId id = 0; id < nl.numNodes(); ++id) {
        GateType t = nl.type(id);
        if (t == GateType::kInput || t == GateType::kDff) {
          assumptions.push_back(enc.litOf(id, sources[id]));
        }
      }
      ASSERT_TRUE(s.solve(assumptions).isTrue());
      for (NodeId id = 0; id < nl.numNodes(); ++id) {
        EXPECT_EQ(s.modelValue(enc.varOf(id)), values[id]) << "node " << id << " seed " << seed;
      }
    }
  }
}

TEST(Tseitin, ConeEncodingOnlyCoversCone) {
  Netlist nl = buildSmallCombinational();
  NodeId ab = nl.findByName("ab");
  CircuitEncoding enc = encodeCircuit(nl, {ab});
  EXPECT_TRUE(enc.isEncoded(ab));
  EXPECT_TRUE(enc.isEncoded(nl.findByName("a")));
  EXPECT_FALSE(enc.isEncoded(nl.findByName("c")));
  EXPECT_FALSE(enc.isEncoded(nl.findByName("abc")));
}

TEST(FromCnf, SatisfiabilityPreserved) {
  Rng rng(77);
  for (int iter = 0; iter < 100; ++iter) {
    Cnf cnf = testutil::randomCnf(rng, static_cast<int>(rng.range(1, 8)),
                                  static_cast<int>(rng.range(1, 18)));
    CnfCircuit circuit = cnfToCircuit(cnf);
    bool expected = dpllIsSat(cnf);
    // SAT check through the circuit: encode and require root = 1.
    CircuitEncoding enc = encodeCircuit(circuit.netlist);
    Solver s;
    s.addCnf(enc.cnf);
    s.addClause({enc.litOf(circuit.root, true)});
    EXPECT_EQ(s.solve().isTrue(), expected) << "iter " << iter;
  }
}

TEST(FromCnf, RootSimulatesFormula) {
  Rng rng(78);
  Cnf cnf = testutil::randomCnf(rng, 6, 12);
  CnfCircuit circuit = cnfToCircuit(cnf);
  std::vector<bool> assignment(6);
  for (uint64_t bits = 0; bits < 64; ++bits) {
    std::vector<bool> sources(circuit.netlist.numNodes(), false);
    for (Var v = 0; v < 6; ++v) {
      assignment[static_cast<size_t>(v)] = (bits >> v) & 1;
      sources[circuit.varNode[static_cast<size_t>(v)]] = (bits >> v) & 1;
    }
    auto values = Simulator::evaluateOnce(circuit.netlist, sources);
    EXPECT_EQ(values[circuit.root], cnf.evaluate(assignment));
  }
}

}  // namespace
}  // namespace presat
