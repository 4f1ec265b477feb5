// Cross-engine all-SAT tests: every engine must produce the same projected
// solution set, verified against brute force and against each other.
#include <gtest/gtest.h>

#include <set>
#include <utility>

#include "allsat/blocking.hpp"
#include "allsat/lifting.hpp"
#include "allsat/projection.hpp"
#include "allsat/success_driven.hpp"
#include "base/log.hpp"
#include "base/rng.hpp"
#include "bdd/bdd.hpp"
#include "check/audit_solution_graph.hpp"
#include "cnf/preprocess.hpp"
#include "circuit/simulator.hpp"
#include "gen/generators.hpp"
#include "gen/iscas.hpp"
#include "gen/random_circuit.hpp"
#include "govern/governor.hpp"
#include "oracle/dpll.hpp"
#include "preimage/preimage.hpp"
#include "preimage/transition_system.hpp"
#include "test_util.hpp"

namespace presat {
namespace {

// Brute-force reference for circuit problems: enumerate every assignment of
// all sources, keep projected patterns of those meeting the objectives.
std::set<uint64_t> bruteForceCircuit(const Netlist& nl, const NodeCube& objectives,
                                     const std::vector<NodeId>& projection) {
  std::vector<NodeId> sources;
  for (NodeId id = 0; id < nl.numNodes(); ++id) {
    GateType t = nl.type(id);
    if (t == GateType::kInput || t == GateType::kDff) sources.push_back(id);
  }
  std::vector<int> projPos(nl.numNodes(), -1);
  for (size_t i = 0; i < projection.size(); ++i) projPos[projection[i]] = static_cast<int>(i);

  std::set<uint64_t> result;
  EXPECT_LE(sources.size(), 20u);
  for (uint64_t bits = 0; bits < (1ull << sources.size()); ++bits) {
    std::vector<bool> full(nl.numNodes(), false);
    for (size_t k = 0; k < sources.size(); ++k) full[sources[k]] = (bits >> k) & 1;
    auto values = Simulator::evaluateOnce(nl, full);
    bool ok = true;
    for (const NodeAssign& obj : objectives) ok = ok && values[obj.first] == obj.second;
    if (!ok) continue;
    uint64_t pattern = 0;
    for (size_t k = 0; k < sources.size(); ++k) {
      int p = projPos[sources[k]];
      if (p >= 0 && full[sources[k]]) pattern |= 1ull << p;
    }
    result.insert(pattern);
  }
  return result;
}

std::set<uint64_t> cubesToMinterms(const std::vector<LitVec>& cubes, size_t projSize) {
  std::set<uint64_t> result;
  EXPECT_LE(projSize, 20u);
  for (uint64_t bits = 0; bits < (1ull << projSize); ++bits) {
    for (const LitVec& cube : cubes) {
      if (cubeCoversMinterm(cube, bits)) {
        result.insert(bits);
        break;
      }
    }
  }
  return result;
}

TEST(ProjectionHelpers, DisjointCountAndCoverage) {
  std::vector<LitVec> cubes{{mkLit(0)}, {~mkLit(0), mkLit(1)}};
  EXPECT_TRUE(cubesPairwiseDisjoint(cubes));
  EXPECT_EQ(countDisjointCubeMinterms(cubes, 3).toU64(), 4u + 2u);
  EXPECT_EQ(countCubeUnionMinterms(cubes, 3).toU64(), 6u);
  EXPECT_TRUE(cubeCoversMinterm({mkLit(0), ~mkLit(2)}, 0b001));
  EXPECT_FALSE(cubeCoversMinterm({mkLit(0), ~mkLit(2)}, 0b101));
  std::vector<LitVec> overlapping{{mkLit(0)}, {mkLit(1)}};
  EXPECT_FALSE(cubesPairwiseDisjoint(overlapping));
  EXPECT_EQ(countCubeUnionMinterms(overlapping, 2).toU64(), 3u);
}

// cubesToBdd ORs pairwise in a balanced tree. That is the same function as
// a left fold of bddOr, so in one manager it is the same ref, and the union
// count is the fold's. Random overlapping cubes on 24 variables: empty
// lists, one cube, duplicates, an empty (universal) cube, up to 300 cubes.
TEST(ProjectionHelpers, BalancedCubeUnionMatchesLeftFold) {
  constexpr int kVars = 24;
  Rng rng(2029);
  auto randomCube = [&rng] {
    LitVec cube;
    for (Var v = 0; v < kVars; ++v) {
      if (rng.chance(1, 6)) cube.push_back(mkLit(v, rng.flip()));
    }
    return cube;
  };
  std::vector<std::vector<LitVec>> lists = {{}, {randomCube()}, {{}, randomCube()}};
  for (int size : {2, 3, 5, 64, 255, 300}) {
    std::vector<LitVec>& cubes = lists.emplace_back();
    for (int i = 0; i < size; ++i) cubes.push_back(randomCube());
  }
  for (int iter = 0; iter < 20; ++iter) {
    std::vector<LitVec>& cubes = lists.emplace_back();
    int size = static_cast<int>(rng.range(1, 300));
    for (int i = 0; i < size; ++i) {
      cubes.push_back(i > 0 && rng.chance(1, 5) ? cubes[rng.below(cubes.size())] : randomCube());
    }
  }
  for (size_t i = 0; i < lists.size(); ++i) {
    const std::vector<LitVec>& cubes = lists[i];
    BddManager mgr(kVars);
    BddRef fold = BddManager::kFalse;
    for (const LitVec& cube : cubes) fold = mgr.bddOr(fold, mgr.cube(cube));
    EXPECT_EQ(cubesToBdd(mgr, cubes), fold) << "list " << i << " of " << cubes.size() << " cubes";
    EXPECT_EQ(countCubeUnionMinterms(cubes, kVars), mgr.satCount(fold)) << "list " << i;
  }
}

TEST(MintermBlocking, SimpleFormula) {
  Cnf cnf(3);
  cnf.addBinary(mkLit(0), mkLit(1));  // x0 | x1
  AllSatResult r = blockingAllSat(cnf, {0, 1});
  EXPECT_TRUE(r.complete);
  EXPECT_EQ(r.cubes.size(), 3u);
  EXPECT_EQ(r.mintermCount.toU64(), 3u);
  EXPECT_TRUE(cubesPairwiseDisjoint(r.cubes));
}

TEST(MintermBlocking, UnsatFormula) {
  Cnf cnf(2);
  cnf.addUnit(mkLit(0));
  cnf.addUnit(~mkLit(0));
  AllSatResult r = blockingAllSat(cnf, {0, 1});
  EXPECT_TRUE(r.complete);
  EXPECT_TRUE(r.cubes.empty());
  EXPECT_TRUE(r.mintermCount.isZero());
}

TEST(MintermBlocking, EmptyProjection) {
  Cnf cnf(2);
  cnf.addBinary(mkLit(0), mkLit(1));
  AllSatResult r = blockingAllSat(cnf, {});
  EXPECT_EQ(r.cubes.size(), 1u);
  EXPECT_EQ(r.mintermCount.toU64(), 1u);
}

// Image projects onto next-state outputs, where two state bits driven by one
// node list the same variable twice; every position must still be filled.
TEST(MintermBlocking, RepeatedProjectionVariable) {
  Cnf cnf(2);
  cnf.addBinary(mkLit(0), mkLit(1));
  const std::vector<Var> projection = {0, 0, 1};
  PreprocessedCnf pre = preprocessCnf(cnf, projection);
  for (const auto& [formula, scope] :
       {std::pair{cnf, projection}, std::pair{pre.cnf, pre.internalVars(projection)}}) {
    AllSatResult r = blockingAllSat(formula, scope);
    ASSERT_TRUE(r.complete);
    EXPECT_EQ(r.mintermCount.toU64(), 3u);
    EXPECT_EQ(cubesToMinterms(r.cubes, 3), (std::set<uint64_t>{0b100, 0b011, 0b111}));
  }
}

TEST(MintermBlocking, MaxCubesCap) {
  Cnf cnf(4);  // no constraints: 16 solutions
  AllSatOptions opts;
  opts.maxCubes = 5;
  AllSatResult r = blockingAllSat(cnf, {0, 1, 2, 3}, {}, opts);
  EXPECT_FALSE(r.complete);
  EXPECT_EQ(r.cubes.size(), 5u);
}

TEST(MintermBlockingProperty, MatchesBruteForce) {
  Rng rng(83);
  for (int iter = 0; iter < 120; ++iter) {
    int vars = static_cast<int>(rng.range(2, 9));
    Cnf cnf = testutil::randomCnf(rng, vars, static_cast<int>(rng.range(1, 18)));
    std::vector<Var> projection;
    for (Var v = 0; v < vars; ++v) {
      if (rng.chance(1, 2)) projection.push_back(v);
    }
    std::set<uint64_t> expected = bruteForceProjectedSolutions(cnf, projection);
    AllSatResult r = blockingAllSat(cnf, projection);
    ASSERT_TRUE(r.complete);
    EXPECT_EQ(cubesToMinterms(r.cubes, projection.size()), expected) << "iter " << iter;
    EXPECT_EQ(r.mintermCount.toU64(), expected.size());
    EXPECT_TRUE(cubesPairwiseDisjoint(r.cubes));
  }
}

TEST(CubeBlockingLifted, FullProjectionWithImplicantShrinking) {
  Rng rng(97);
  for (int iter = 0; iter < 120; ++iter) {
    int vars = static_cast<int>(rng.range(2, 9));
    Cnf cnf = testutil::randomCnf(rng, vars, static_cast<int>(rng.range(1, 16)));
    std::vector<Var> projection;
    for (Var v = 0; v < vars; ++v) projection.push_back(v);

    ModelLifter lifter = [&cnf](const std::vector<lbool>& model) {
      return shrinkModelToImplicant(cnf, model);
    };
    AllSatResult lifted = blockingAllSat(cnf, projection, lifter);
    AllSatResult reference = blockingAllSat(cnf, projection);
    EXPECT_EQ(lifted.mintermCount, reference.mintermCount) << "iter " << iter;
    EXPECT_EQ(cubesToMinterms(lifted.cubes, projection.size()),
              cubesToMinterms(reference.cubes, projection.size()));
    // Lifting can only reduce the number of solver calls.
    EXPECT_LE(lifted.cubes.size(), reference.cubes.size());
  }
}

// --- success-driven engine ---------------------------------------------------

CircuitAllSatProblem problemFor(const Netlist& nl, NodeCube objectives) {
  CircuitAllSatProblem p;
  p.netlist = &nl;
  p.objectives = std::move(objectives);
  for (NodeId d : nl.dffs()) p.projectionSources.push_back(d);
  return p;
}

// Full structural + semantic audit of a solution graph against the problem it
// was built from — every fuzz iteration below runs through this.
void expectGraphAuditOk(const SolutionGraph& graph, const CircuitAllSatProblem& p) {
  SolutionGraphAuditOptions options;
  options.problems = {&p, 1};
  AuditResult audit = auditSolutionGraph(graph, options);
  EXPECT_TRUE(audit.ok()) << audit.toString();
}

TEST(SuccessDriven, TrivialObjectiveOnSource) {
  Netlist nl = makeCounter(3);
  CircuitAllSatProblem p = problemFor(nl, {{nl.dffs()[0], true}});
  SuccessDrivenResult r = successDrivenAllSat(p);
  // s0 = 1: exactly half of the 8 states.
  EXPECT_EQ(r.summary.mintermCount.toU64(), 4u);
  EXPECT_TRUE(r.summary.complete);
}

TEST(SuccessDriven, UnsatisfiableObjective) {
  Netlist nl;
  NodeId a = nl.addInput("a");
  NodeId na = nl.mkNot(a, "na");
  NodeId g = nl.mkAnd(a, na, "g");  // constant 0
  NodeId d = nl.addDff("s0", g);
  nl.markOutput(d, "q");
  CircuitAllSatProblem p;
  p.netlist = &nl;
  p.objectives = {{g, true}};
  p.projectionSources = {d};
  SuccessDrivenResult r = successDrivenAllSat(p);
  EXPECT_TRUE(r.summary.cubes.empty());
  EXPECT_TRUE(r.summary.mintermCount.isZero());
}

TEST(SuccessDriven, ConflictingObjectivesOnConstants) {
  Netlist nl;
  NodeId c = nl.addConst(true, "one");
  NodeId d = nl.addDff("s0", c);
  nl.markOutput(d, "q");
  CircuitAllSatProblem p;
  p.netlist = &nl;
  p.objectives = {{c, false}};
  p.projectionSources = {d};
  SuccessDrivenResult r = successDrivenAllSat(p);
  EXPECT_TRUE(r.summary.mintermCount.isZero());
}

class SuccessDrivenFuzz : public ::testing::TestWithParam<int> {};

TEST_P(SuccessDrivenFuzz, MatchesBruteForce) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 131 + 7);
  for (int iter = 0; iter < 25; ++iter) {
    RandomCircuitParams params;
    params.seed = rng.next();
    params.numInputs = static_cast<int>(rng.range(1, 3));
    params.numDffs = static_cast<int>(rng.range(2, 5));
    params.numGates = static_cast<int>(rng.range(8, 30));
    Netlist nl = makeRandomSequential(params);

    // Objectives: required values of 1-2 next-state roots (random polarity,
    // so both SAT and UNSAT instances occur).
    NodeCube objectives;
    int numObj = static_cast<int>(rng.range(1, 2));
    for (int k = 0; k < numObj; ++k) {
      NodeId root = nl.dffData(nl.dffs()[rng.below(nl.dffs().size())]);
      objectives.emplace_back(root, rng.flip());
    }
    CircuitAllSatProblem p = problemFor(nl, objectives);
    std::set<uint64_t> expected = bruteForceCircuit(nl, objectives, p.projectionSources);

    for (bool learning : {true, false}) {
      AllSatOptions opts;
      opts.successLearning = learning;
      SuccessDrivenResult r = successDrivenAllSat(p, opts);
      ASSERT_TRUE(r.summary.complete);
      EXPECT_EQ(cubesToMinterms(r.summary.cubes, p.projectionSources.size()), expected)
          << "seed-group " << GetParam() << " iter " << iter << " learning " << learning;
      EXPECT_EQ(r.summary.mintermCount.toU64(), expected.size());
      // The cover is the ISOP of the graph's BDD.
      EXPECT_EQ(r.summary.cubes,
                testutil::graphBddCover(r.graph, static_cast<int>(p.projectionSources.size())));
      expectGraphAuditOk(r.graph, p);
    }
  }
}

// Every root's path cubes, root after root: the graph's own answer, which
// follows the branch order (the cover, read off a BDD, does not).
std::vector<LitVec> graphPathCubes(const SolutionGraph& graph) {
  std::vector<LitVec> cubes;
  for (size_t r = 0; r < graph.numRoots(); ++r) {
    std::vector<LitVec> root = graph.enumerateRootCubes(r);
    cubes.insert(cubes.end(), root.begin(), root.end());
  }
  return cubes;
}

// The memo key is the justification cut, not the whole fanin cone. It may
// only make more subproblems count as solved, never change what the search
// produces: learning on, learning off and the exact-key oracle must give the
// same graph paths, path for path and in the same order, and the same cover.
// The exact-key oracle must also build the same graph, node for node.
void expectBitIdenticalCovers(const CircuitAllSatProblem& p, const std::string& what) {
  SuccessDrivenResult on = successDrivenAllSat(p);
  AllSatOptions offOptions;
  offOptions.successLearning = false;
  AllSatOptions exactOptions;
  exactOptions.memoCheckExact = true;
  const SuccessDrivenResult off = successDrivenAllSat(p, offOptions);
  const SuccessDrivenResult exact = successDrivenAllSat(p, exactOptions);
  const std::vector<LitVec> paths = graphPathCubes(on.graph);
  EXPECT_EQ(graphPathCubes(off.graph), paths) << what;
  EXPECT_EQ(graphPathCubes(exact.graph), paths) << what;
  EXPECT_EQ(exact.graph.numNodes(), on.graph.numNodes()) << what;
  EXPECT_EQ(off.summary.cubes, on.summary.cubes) << what;
  EXPECT_EQ(exact.summary.cubes, on.summary.cubes) << what;
}

TEST_P(SuccessDrivenFuzz, CoversBitIdenticalAcrossMemoModes) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 977 + 13);
  for (int iter = 0; iter < 25; ++iter) {
    RandomCircuitParams params;
    params.seed = rng.next();
    params.numInputs = static_cast<int>(rng.range(1, 3));
    params.numDffs = static_cast<int>(rng.range(3, 7));
    params.numGates = static_cast<int>(rng.range(10, 60));
    Netlist nl = makeRandomSequential(params);
    NodeCube objectives;
    for (NodeId dff : nl.dffs()) {
      if (rng.chance(1, 2)) objectives.emplace_back(nl.dffData(dff), rng.flip());
    }
    expectBitIdenticalCovers(problemFor(nl, objectives),
                             "seed-group " + std::to_string(GetParam()) + " iter " +
                                 std::to_string(iter));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SuccessDrivenFuzz, ::testing::Range(0, 8));

std::vector<std::pair<std::string, Netlist>> generatorCircuits() {
  std::vector<std::pair<std::string, Netlist>> circuits;
  circuits.emplace_back("counter6", makeCounter(6));
  circuits.emplace_back("gray5", makeGrayCounter(5));
  circuits.emplace_back("lfsr7", makeLfsr(7));
  circuits.emplace_back("shift6", makeShiftRegister(6));
  circuits.emplace_back("arbiter4", makeRoundRobinArbiter(4));
  circuits.emplace_back("traffic", makeTrafficLight());
  circuits.emplace_back("accum4", makeAccumulator(4));
  circuits.emplace_back("lock", makeCombinationLock({3, 1, 2}, 2));
  circuits.emplace_back("s27", makeS27());
  return circuits;
}

TEST(SuccessDriven, GeneratorCoversBitIdenticalAcrossMemoModes) {
  Rng rng(419);
  for (const auto& [name, nl] : generatorCircuits()) {
    for (int trial = 0; trial < 6; ++trial) {
      NodeCube objectives;
      for (NodeId dff : nl.dffs()) {
        if (rng.chance(1, 2)) objectives.emplace_back(nl.dffData(dff), rng.flip());
      }
      expectBitIdenticalCovers(problemFor(nl, objectives),
                               name + " trial " + std::to_string(trial));
    }
  }
}

// A multi-cube preimage target runs one engine: one root per target cube,
// one memo across them. Its cover must be the ISOP of the BDD of the union of
// the per-cube answers; its count the BDD engine's; and every
// memo hit — cross-root ones included — must match the exact cut key.
TEST(SuccessDrivenMultiRoot, PreimageMatchesPerCubeRuns) {
  Rng rng(733);
  std::vector<std::pair<std::string, Netlist>> circuits = generatorCircuits();
  for (int i = 0; i < 12; ++i) {
    RandomCircuitParams params;
    params.seed = rng.next();
    params.numInputs = static_cast<int>(rng.range(1, 3));
    params.numDffs = static_cast<int>(rng.range(3, 6));
    params.numGates = static_cast<int>(rng.range(10, 50));
    circuits.emplace_back("random" + std::to_string(i), makeRandomSequential(params));
  }
  for (const auto& [name, nl] : circuits) {
    TransitionSystem ts(nl);
    const int bits = ts.numStateBits();
    StateSet target;
    target.numStateBits = bits;
    int numCubes = static_cast<int>(rng.range(2, 6));
    for (int c = 0; c < numCubes; ++c) {
      LitVec cube;
      for (int b = 0; b < bits; ++b) {
        if (rng.chance(1, 2)) cube.push_back(mkLit(static_cast<Var>(b), rng.flip()));
      }
      target.cubes.push_back(cube);
    }
    target.cubes.push_back(target.cubes.front());  // a repeated cube is one root-level hit

    std::vector<CircuitAllSatProblem> problems;
    BddManager mgr(bits);
    BddRef perCube = BddManager::kFalse;
    for (const LitVec& cube : target.cubes) {
      NodeCube objectives;
      for (Lit l : cube) objectives.emplace_back(ts.nextStateRoot(l.var()), !l.sign());
      problems.push_back(problemFor(nl, objectives));
      problems.back().projectionSources = ts.stateNodes();
      SuccessDrivenResult alone = successDrivenAllSat(problems.back());
      perCube = mgr.bddOr(perCube, cubesToBdd(mgr, alone.summary.cubes));
    }

    PreimageOptions options;
    options.allsat.memoCheckExact = true;
    PreimageResult pre = computePreimage(ts, target, PreimageMethod::kSuccessDriven, options);
    ASSERT_TRUE(pre.complete) << name;
    EXPECT_EQ(pre.states.cubes, mgr.isop(perCube, perCube)) << name;
    EXPECT_EQ(pre.states.cubes, testutil::graphBddCover(pre.graph, bits)) << name;
    EXPECT_EQ(pre.stateCount, computePreimage(ts, target, PreimageMethod::kBdd).stateCount)
        << name;
    ASSERT_EQ(pre.graph.numRoots(), target.cubes.size()) << name;
    // The repeated last cube reuses the first cube's root subgraph.
    EXPECT_EQ(pre.graph.root(target.cubes.size() - 1).child, pre.graph.root(0).child) << name;

    SolutionGraphAuditOptions audit;
    audit.problems = problems;
    AuditResult result = auditSolutionGraph(pre.graph, audit);
    EXPECT_TRUE(result.ok()) << name << "\n" << result.toString();
  }
}

// FNV-1a digest of a stream of 64-bit words.
class Fnv1a {
 public:
  void mix(uint64_t word) {
    for (int i = 0; i < 8; ++i) {
      value_ ^= (word >> (8 * i)) & 0xff;
      value_ *= 0x100000001b3ull;
    }
  }
  void mix(const std::vector<LitVec>& cubes) {
    mix(cubes.size());
    for (const LitVec& cube : cubes) {
      mix(cube.size());
      for (Lit l : cube) mix(static_cast<uint32_t>(l.code()));
    }
  }
  uint64_t value() const { return value_; }

 private:
  uint64_t value_ = 0xcbf29ce484222325ull;
};

// Every success-driven answer on a fixed corpus, folded into two digests
// pinned to the values the engine produced when the test was written.
//  * The graph digest folds every root's path cubes and the graph's node
//    count: the search's own output. The memo-mode tests above cannot see a
//    change of branch order (learning on and off would move together); this
//    digest can. Reading the cover off the BDD left it unchanged. It was
//    re-pinned when the engine stopped splitting at jobs >= 1: the jobs=4
//    pass used to fold the graph merged from 16 shard searches, and now
//    folds the serial graph again, so the value is that of folding each
//    serial graph twice. It was re-pinned again when the search began to
//    justify an AND-family gate through its cheapest fanin (SCOAP order)
//    and to return a branch's child for the whole node when that child
//    covers every completion: both change the graph the search builds, not
//    the solution set, and the cover digest did not move. It was re-pinned
//    once more when the memo key became the frontier plus the values of the
//    live nodes (kept up to date per assignment) instead of the values on
//    the justification cut: that key is finer, so a few memo hits became
//    re-solved subproblems and the graph grew; the cover digest did not
//    move. It was re-pinned again when the search began to learn nogoods
//    from its conflicts: a nogood's implications fix some nodes before any
//    decision would, so the search branches less and its paths change,
//    while the solution set, and with it the cover digest, stays the same.
//  * The cover digest folds the cover and the state count. It was re-pinned
//    when the cover became the graph's BDD paths: it no longer depends on
//    the branch order, only on the solution set. It was re-pinned again
//    when the cover became the ISOP of that BDD (asserted below, with the
//    count the BDD gives): same sets and counts, fewer and wider cubes.
// Re-pin either only for a change that is meant to alter what it folds.
TEST(SuccessDriven, CoversMatchPinnedDigest) {
  Fnv1a graphDigest;
  Fnv1a coverDigest;
  Rng rng(1601);
  std::vector<std::pair<std::string, Netlist>> circuits = generatorCircuits();
  for (int i = 0; i < 20; ++i) {
    RandomCircuitParams params;
    params.seed = rng.next();
    params.numInputs = static_cast<int>(rng.range(1, 4));
    params.numDffs = static_cast<int>(rng.range(4, 10));
    params.numGates = static_cast<int>(rng.range(20, 250));
    circuits.emplace_back("random" + std::to_string(i), makeRandomSequential(params));
  }
  for (const auto& [name, nl] : circuits) {
    TransitionSystem ts(nl);
    StateSet target;
    target.numStateBits = ts.numStateBits();
    int numCubes = static_cast<int>(rng.range(2, 4));
    for (int c = 0; c < numCubes; ++c) {
      LitVec cube;
      for (int b = 0; b < target.numStateBits; ++b) {
        if (rng.chance(1, 2)) cube.push_back(mkLit(static_cast<Var>(b), rng.flip()));
      }
      target.cubes.push_back(cube);
    }
    for (int jobs : {0, 4}) {
      PreimageOptions options;
      options.allsat.parallel.jobs = jobs;
      PreimageResult pre = computePreimage(ts, target, PreimageMethod::kSuccessDriven, options);
      ASSERT_TRUE(pre.complete) << name << " jobs " << jobs;
      BddManager mgr(target.numStateBits);
      const BddRef set = pre.graph.toBdd(mgr);
      ASSERT_EQ(pre.states.cubes, mgr.isop(set, set)) << name << " jobs " << jobs;
      ASSERT_EQ(pre.stateCount, mgr.satCount(set)) << name << " jobs " << jobs;
      for (size_t r = 0; r < pre.graph.numRoots(); ++r) {
        graphDigest.mix(pre.graph.enumerateRootCubes(r));
      }
      graphDigest.mix(pre.graph.numNodes());
      coverDigest.mix(pre.states.cubes);
      for (char c : pre.stateCount.toDecimal()) coverDigest.mix(static_cast<uint8_t>(c));
    }
  }
  EXPECT_EQ(graphDigest.value(), 0xd9d9e78f684dfa85ull) << std::hex << graphDigest.value();
  EXPECT_EQ(coverDigest.value(), 0xd64d44e67c83ca45ull) << std::hex << coverDigest.value();
}

// next(s0) = OR(s0, i0) = 1 holds in every state: i0 = 1 justifies it. The
// input is cheaper to control than the state bit, so the search decides i0
// first; that branch fixes no state bit and succeeds, so it answers the whole
// search node. Branching on s0 first (fanin order) would build one node.
TEST(SuccessDriven, JustifiesThroughInputAndSubsumes) {
  Netlist nl;
  NodeId s0 = nl.addDff("s0");
  NodeId i0 = nl.addInput("i0");
  NodeId next = nl.mkOr(s0, i0, "next");
  nl.connectDffData(s0, next);
  nl.validate();
  CircuitAllSatProblem p = problemFor(nl, {{next, true}});
  SuccessDrivenResult r = successDrivenAllSat(p);
  ASSERT_TRUE(r.summary.complete);
  EXPECT_EQ(r.summary.stats.decisions, 1u);
  EXPECT_EQ(r.summary.stats.graphNodes, 0u);
  EXPECT_EQ(r.summary.cubes, std::vector<LitVec>{LitVec{}});
  EXPECT_EQ(r.summary.metrics.counter("sd.subsumed"), 1u);

  TransitionSystem ts(nl);
  const StateSet target = StateSet::fromCube(1, {mkLit(0)});
  EXPECT_EQ(computePreimage(ts, target, PreimageMethod::kSuccessDriven).stateCount,
            computePreimage(ts, target, PreimageMethod::kBdd).stateCount);
  EXPECT_EQ(r.summary.mintermCount.toU64(), 2u);
}

TEST(SuccessDriven, AgreesWithMintermEngineOnS27) {
  Netlist nl = makeS27();
  Rng rng(103);
  for (int trial = 0; trial < 20; ++trial) {
    NodeCube objectives;
    for (NodeId dff : nl.dffs()) {
      if (rng.chance(2, 3)) objectives.emplace_back(nl.dffData(dff), rng.flip());
    }
    CircuitAllSatProblem p = problemFor(nl, objectives);
    SuccessDrivenResult r = successDrivenAllSat(p);
    std::set<uint64_t> expected = bruteForceCircuit(nl, objectives, p.projectionSources);
    EXPECT_EQ(cubesToMinterms(r.summary.cubes, p.projectionSources.size()), expected)
        << "trial " << trial;
  }
}

// Balanced XOR tree over the state bits: parity objectives are the canonical
// success-driven-learning showcase. Once the left subtree is justified one
// way, every one of its (exponentially many) solution leaves faces the
// identical right-subtree subproblem — the first leaf solves it, the rest hit
// the memo.
Netlist makeParityTree(int stateBits) {
  Netlist nl;
  std::vector<NodeId> layer;
  for (int i = 0; i < stateBits; ++i) layer.push_back(nl.addDff(numbered("s", i)));
  std::vector<NodeId> state = layer;
  int gateId = 0;
  while (layer.size() > 1) {
    std::vector<NodeId> next;
    for (size_t i = 0; i + 1 < layer.size(); i += 2) {
      next.push_back(nl.mkXor(layer[i], layer[i + 1], numbered("x", gateId++)));
    }
    if (layer.size() % 2 == 1) next.push_back(layer.back());
    layer = std::move(next);
  }
  for (NodeId d : state) nl.connectDffData(d, layer[0]);
  nl.markOutput(layer[0], "parity");
  nl.validate();
  return nl;
}

TEST(SuccessDriven, LearningProducesMemoHitsOnXorTrees) {
  // Fig. 3a's parity rows: with learning, parity8/12/16 take 19/37/65
  // decisions; without it, one fewer than the 2^(n-1) solutions.
  for (const auto& [bits, decisions] : {std::pair{12, 37u}, std::pair{16, 65u}}) {
    Netlist tree = makeParityTree(bits);
    CircuitAllSatProblem parity = problemFor(tree, {{tree.outputs()[0], false}});
    EXPECT_EQ(successDrivenAllSat(parity).summary.stats.decisions, decisions) << bits;
  }
  Netlist nl = makeParityTree(8);
  NodeId root = nl.outputs()[0];
  CircuitAllSatProblem p = problemFor(nl, {{root, false}});
  SuccessDrivenResult withLearning = successDrivenAllSat(p);
  AllSatOptions off;
  off.successLearning = false;
  SuccessDrivenResult without = successDrivenAllSat(p, off);
  EXPECT_GT(withLearning.summary.stats.memoHits, 0u);
  EXPECT_EQ(withLearning.summary.stats.decisions, 19u);
  // Even-parity assignments of 8 bits: exactly half the space.
  EXPECT_EQ(withLearning.summary.mintermCount.toU64(), 128u);
  EXPECT_EQ(without.summary.mintermCount.toU64(), 128u);
  // Learning must shrink the search: fewer decisions and a smaller graph
  // than the learning-free tree.
  EXPECT_LT(withLearning.summary.stats.decisions, without.summary.stats.decisions);
  EXPECT_LT(withLearning.summary.stats.graphNodes, without.summary.stats.graphNodes);
  // Both represent the same 128 solution paths.
  EXPECT_EQ(withLearning.graph.enumerateRootCubes(0).size(), 128u);
  EXPECT_EQ(without.graph.enumerateRootCubes(0).size(), 128u);
}

TEST(SuccessDriven, LinearCarryChainNeedsNoLearning) {
  // A single-bit objective through a carry chain produces a repetition-free
  // search tree: learning finds nothing to reuse and must not change the
  // result.
  Netlist nl = makeCounter(10);
  NodeId root = nl.dffData(nl.dffs()[9]);
  CircuitAllSatProblem p = problemFor(nl, {{root, false}});
  SuccessDrivenResult withLearning = successDrivenAllSat(p);
  AllSatOptions off;
  off.successLearning = false;
  SuccessDrivenResult without = successDrivenAllSat(p, off);
  EXPECT_EQ(withLearning.summary.mintermCount, without.summary.mintermCount);
  EXPECT_EQ(withLearning.summary.stats.decisions, without.summary.stats.decisions);
}

TEST(SuccessDriven, CubesAreSoundOnCounter) {
  // Every enumerated cube, completed arbitrarily, must reach the objectives.
  Netlist nl = makeCounter(5);
  NodeId root0 = nl.dffData(nl.dffs()[0]);
  NodeId root3 = nl.dffData(nl.dffs()[3]);
  NodeCube objectives{{root0, true}, {root3, false}};
  CircuitAllSatProblem p = problemFor(nl, objectives);
  SuccessDrivenResult r = successDrivenAllSat(p);
  std::set<uint64_t> expected = bruteForceCircuit(nl, objectives, p.projectionSources);
  EXPECT_EQ(cubesToMinterms(r.summary.cubes, p.projectionSources.size()), expected);
}

// A repeated projection source would be counted once per position: the
// engine refuses it at every `jobs`.
TEST(SuccessDrivenDeath, RepeatedProjectionSourceIsRejected) {
  Netlist nl = makeCounter(3);
  CircuitAllSatProblem p = problemFor(nl, {{nl.dffData(nl.dffs()[0]), true}});
  p.projectionSources.push_back(nl.dffs()[0]);
  EXPECT_DEATH(successDrivenAllSat(p), "projection lists node [0-9]+ twice");
  AllSatOptions parallel;
  parallel.parallel.jobs = 2;
  EXPECT_DEATH(successDrivenAllSat(p, parallel), "projection lists node [0-9]+ twice");
}

// Stopping exactly at maxCubes must still report complete: the engines now
// decide completeness from the next SAT call (or the next graph path), not
// from having reached the cap.
TEST(MintermBlocking, ExactCapReportsComplete) {
  Cnf cnf(3);  // unconstrained: exactly 8 solutions
  AllSatOptions opts;
  opts.maxCubes = 8;
  AllSatResult r = blockingAllSat(cnf, {0, 1, 2}, {}, opts);
  EXPECT_TRUE(r.complete);
  EXPECT_EQ(r.cubes.size(), 8u);
  opts.maxCubes = 7;
  AllSatResult capped = blockingAllSat(cnf, {0, 1, 2}, {}, opts);
  EXPECT_FALSE(capped.complete);
  EXPECT_EQ(capped.cubes.size(), 7u);
}

TEST(SuccessDriven, ExactCapReportsComplete) {
  Netlist nl = makeParityTree(8);  // 128 solution paths
  CircuitAllSatProblem p = problemFor(nl, {{nl.outputs()[0], false}});
  AllSatOptions opts;
  opts.maxCubes = 128;
  SuccessDrivenResult r = successDrivenAllSat(p, opts);
  EXPECT_TRUE(r.summary.complete);
  EXPECT_EQ(r.summary.cubes.size(), 128u);
  opts.maxCubes = 127;
  SuccessDrivenResult capped = successDrivenAllSat(p, opts);
  EXPECT_FALSE(capped.summary.complete);
  EXPECT_EQ(capped.summary.cubes.size(), 127u);
}

// A conflict cap that trips mid-enumeration must yield a partial result with
// complete = false — not an abort.
TEST(MintermBlocking, ConflictBudgetReturnsPartialResult) {
  Cnf php = testutil::pigeonhole(7);  // far too hard for a 5-conflict budget
  std::vector<Var> projection{0, 1, 2};
  Budget budget;
  budget.conflictLimit = 5;
  Governor governor(budget);
  AllSatOptions opts;
  opts.governor = &governor;
  AllSatResult r = blockingAllSat(php, projection, {}, opts);
  EXPECT_FALSE(r.complete);
  EXPECT_EQ(r.outcome, Outcome::kConflicts);
  EXPECT_TRUE(r.cubes.empty());
  EXPECT_EQ(r.stats.satCalls, 1u);
}

// A tiny memo bound forces evictions; evicted subproblems are re-solved, so
// the answer must not change: the cube list equals the unbounded one cube
// for cube. The exact-key cross-check stays on throughout.
void expectBoundedMemoExact(const CircuitAllSatProblem& p, const std::string& name) {
  AllSatOptions unboundedOpts;
  unboundedOpts.maxMemoEntries = 0;
  SuccessDrivenResult unbounded = successDrivenAllSat(p, unboundedOpts);
  for (size_t bound : {1u, 8u, 64u}) {
    AllSatOptions opts;
    opts.maxMemoEntries = bound;
    opts.memoCheckExact = true;
    SuccessDrivenResult bounded = successDrivenAllSat(p, opts);
    const std::string what = name + " bound " + std::to_string(bound);
    expectGraphAuditOk(bounded.graph, p);
    EXPECT_EQ(bounded.summary.cubes, unbounded.summary.cubes) << what;
    EXPECT_EQ(bounded.summary.mintermCount, unbounded.summary.mintermCount) << what;
    EXPECT_LE(bounded.summary.stats.memoEntries, bound) << what;
    if (unbounded.summary.stats.memoEntries > bound) {
      EXPECT_GT(bounded.summary.stats.memoEvictions, 0u) << what;
    }
  }
}

TEST(SuccessDriven, BoundedMemoEvictsAndStaysExact) {
  Netlist parity = makeParityTree(12);
  expectBoundedMemoExact(problemFor(parity, {{parity.outputs()[0], false}}), "parity12");
  // Five random circuits whose unbounded memo outgrows the largest bound, so
  // every bound evicts. Conflict learning keeps most of these memos at 64
  // entries or fewer, so up to 400 draws are tried to find five.
  Rng rng(557);
  int tested = 0;
  for (int draw = 0; draw < 400 && tested < 5; ++draw) {
    RandomCircuitParams params;
    params.seed = rng.next();
    params.numInputs = 2;
    params.numDffs = 10;
    params.numGates = static_cast<int>(rng.range(100, 300));
    Netlist nl = makeRandomSequential(params);
    CircuitAllSatProblem p = problemFor(nl, {{nl.dffData(nl.dffs()[0]), rng.flip()},
                                             {nl.dffData(nl.dffs()[1]), rng.flip()}});
    AllSatOptions unbounded;
    unbounded.maxMemoEntries = 0;
    if (successDrivenAllSat(p, unbounded).summary.stats.memoEntries <= 64) continue;
    expectBoundedMemoExact(p, "random draw " + std::to_string(draw));
    ++tested;
  }
  EXPECT_EQ(tested, 5);
}

// Hashed memoization must agree with brute force across random circuits with
// the collision cross-check enabled.
TEST(SuccessDriven, HashedMemoMatchesBruteForce) {
  Rng rng(331);
  for (int iter = 0; iter < 25; ++iter) {
    RandomCircuitParams params;
    params.seed = rng.next();
    params.numInputs = 2;
    params.numDffs = 5;
    params.numGates = static_cast<int>(rng.range(10, 40));
    Netlist nl = makeRandomSequential(params);
    NodeCube objectives{{nl.dffData(nl.dffs()[0]), rng.flip()},
                        {nl.dffData(nl.dffs()[2]), rng.flip()}};
    CircuitAllSatProblem p = problemFor(nl, objectives);
    AllSatOptions opts;
    opts.memoCheckExact = true;
    SuccessDrivenResult r = successDrivenAllSat(p, opts);
    expectGraphAuditOk(r.graph, p);
    std::set<uint64_t> expected = bruteForceCircuit(nl, objectives, p.projectionSources);
    EXPECT_EQ(cubesToMinterms(r.summary.cubes, p.projectionSources.size()), expected)
        << "iter " << iter;
  }
}

// Every engine must export the uniform metrics block consistent with its
// typed stats.
TEST(AllSatMetrics, EnginesExportConsistentMetrics) {
  Cnf cnf(3);
  cnf.addBinary(mkLit(0), mkLit(1));
  AllSatResult m = blockingAllSat(cnf, {0, 1, 2});
  EXPECT_EQ(m.metrics.label("engine"), "minterm-blocking");
  EXPECT_EQ(m.metrics.counter("sat.calls"), m.stats.satCalls);
  EXPECT_EQ(m.metrics.counter("blocking.clauses"), m.stats.blockingClauses);

  ModelLifter lifter = [&cnf](const std::vector<lbool>& model) {
    return shrinkModelToImplicant(cnf, model);
  };
  AllSatResult c = blockingAllSat(cnf, {0, 1, 2}, lifter);
  EXPECT_EQ(c.metrics.label("engine"), "cube-blocking");
  EXPECT_EQ(c.metrics.counter("sat.calls"), c.stats.satCalls);

  Netlist nl = makeParityTree(8);
  CircuitAllSatProblem p = problemFor(nl, {{nl.outputs()[0], false}});
  SuccessDrivenResult sd = successDrivenAllSat(p);
  const Metrics& sm = sd.summary.metrics;
  EXPECT_EQ(sm.label("engine"), "success-driven");
  EXPECT_EQ(sm.counter("memo.hits"), sd.summary.stats.memoHits);
  EXPECT_EQ(sm.counter("memo.misses"), sd.summary.stats.memoMisses);
  EXPECT_EQ(sm.counter("memo.entries"), sd.summary.stats.memoEntries);
  EXPECT_GT(sm.counter("memo.bytes"), 0u);
  const Histogram* h = sm.findHistogram("frontier.size");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count(), sd.summary.stats.memoMisses);
  // The JSON export must carry the counters.
  std::string json = sm.toJson();
  EXPECT_NE(json.find("\"memo.hits\""), std::string::npos);
  EXPECT_NE(json.find("\"frontier.size\""), std::string::npos);
}

}  // namespace
}  // namespace presat
