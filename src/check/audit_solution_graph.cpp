#include "check/audit_solution_graph.hpp"

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "allsat/projection.hpp"
#include "allsat/solution_graph.hpp"
#include "allsat/success_driven.hpp"
#include "base/log.hpp"
#include "bdd/bdd.hpp"
#include "circuit/tseitin.hpp"
#include "sat/solver.hpp"

namespace presat {

namespace {

constexpr int kSuccess = SolutionGraph::kSuccess;
constexpr int kFail = SolutionGraph::kFail;

uint64_t nextRandom(uint64_t& state) {
  state ^= state << 13;
  state ^= state >> 7;
  state ^= state << 17;
  return state;
}

std::string rootName(size_t root) { return "root " + std::to_string(root); }

// Names one branch in a diagnostic: branch `branch` of node `index`, or the
// branch of root `index` when `branch` < 0. Text is built only on failure.
struct BranchName {
  size_t index;
  int branch;
  std::string str() const {
    if (branch < 0) return rootName(index) + " branch";
    return "node " + std::to_string(index) + " branch " + std::to_string(branch);
  }
};

// Bitset rows over the projected index space, one row per graph node, in one
// flat array.
class VarRows {
 public:
  VarRows(size_t rows, int width)
      : words_((static_cast<size_t>(std::max(width, 0)) + 63) / 64), bits_(rows * words_, 0) {}
  uint64_t* row(size_t i) { return bits_.data() + i * words_; }
  size_t words() const { return words_; }
  static bool test(const uint64_t* row, Var v) {
    return ((row[static_cast<size_t>(v) / 64] >> (static_cast<size_t>(v) % 64)) & 1) != 0;
  }
  static void set(uint64_t* row, Var v) {
    row[static_cast<size_t>(v) / 64] |= uint64_t{1} << (static_cast<size_t>(v) % 64);
  }
  static void reset(uint64_t* row, Var v) {
    row[static_cast<size_t>(v) / 64] &= ~(uint64_t{1} << (static_cast<size_t>(v) % 64));
  }

 private:
  size_t words_;
  std::vector<uint64_t> bits_;
};

// Checks one branch's literal list in isolation: duplicate projected vars and
// index-space range. `seen` is an all-clear row of projWidth bits, left
// all-clear on return.
void checkBranchLits(AuditResult& r, const LitVec& lits, int projWidth, uint64_t* seen,
                     const BranchName& where) {
  bool repeated = false;
  for (Lit l : lits) {
    if (l.var() < 0 || l.var() >= projWidth) {
      r.fail("graph.branch.lits", where.str() + " literal " + toString(l) +
                                      " outside the projected index space [0, " +
                                      std::to_string(projWidth) + ")");
      continue;
    }
    if (VarRows::test(seen, l.var())) repeated = true;
    VarRows::set(seen, l.var());
  }
  for (Lit l : lits) {
    if (l.var() >= 0 && l.var() < projWidth) VarRows::reset(seen, l.var());
  }
  if (repeated) {
    r.fail("graph.branch.lits",
           where.str() + " assigns the same projected variable more than once: " +
               toString(lits));
  }
}

// graph.cube.unsat for one root: every sampled path cube of the root must be
// sound for the circuit problem the root was solved for.
void checkCubesSound(AuditResult& r, const std::vector<LitVec>& cubes,
                     const CircuitAllSatProblem& p, const SolutionGraphAuditOptions& opt,
                     const std::string& where) {
  std::vector<NodeId> roots;
  for (const NodeAssign& obj : p.objectives) roots.push_back(obj.first);
  const CircuitEncoding enc = encodeCircuit(*p.netlist, roots);
  Solver solver;
  solver.addCnf(enc.cnf);
  bool objectivesSat = solver.okay();
  for (const NodeAssign& obj : p.objectives) {
    if (!solver.addClause({enc.litOf(obj.first, obj.second)})) {
      objectivesSat = false;
      break;
    }
  }
  if (!objectivesSat) {
    if (!cubes.empty()) {
      r.fail("graph.cube.unsat", where + ": objectives are unsatisfiable but the graph enumerates " +
                                     std::to_string(cubes.size()) + " cube(s)");
    }
    return;
  }
  uint64_t rng = opt.randomSeed;
  for (const LitVec& cube : cubes) {
    LitVec base;
    std::vector<bool> fixed(p.projectionSources.size(), false);
    for (Lit l : cube) {
      if (l.var() < 0 || static_cast<size_t>(l.var()) >= p.projectionSources.size()) continue;
      fixed[static_cast<size_t>(l.var())] = true;
      const NodeId src = p.projectionSources[static_cast<size_t>(l.var())];
      if (enc.isEncoded(src)) base.push_back(enc.litOf(src, !l.sign()));
    }
    for (int attempt = 0; attempt <= opt.completionsPerCube; ++attempt) {
      LitVec assumptions = base;
      if (attempt > 0) {
        // Random completion of the projection sources left free by the
        // cube — the universal side of the cube's guarantee.
        for (size_t j = 0; j < p.projectionSources.size(); ++j) {
          if (fixed[j] || !enc.isEncoded(p.projectionSources[j])) continue;
          assumptions.push_back(enc.litOf(p.projectionSources[j], (nextRandom(rng) & 1) != 0));
        }
      }
      if (!solver.solve(assumptions).isTrue()) {
        r.fail("graph.cube.unsat",
               where + " cube " + toString(cube) +
                   (attempt == 0 ? " admits no satisfying input assignment"
                                 : " fails under a random completion of the free sources"));
        break;
      }
    }
  }
}

}  // namespace

AuditResult auditSolutionGraph(const SolutionGraph& g,
                               const SolutionGraphAuditOptions& opt) {
  AuditResult r;
  const int n = static_cast<int>(g.numNodes());
  const size_t numRoots = g.numRoots();
  const auto validChild = [n](int c) { return c == kSuccess || c == kFail || (c >= 0 && c < n); };
  PRESAT_CHECK(opt.problems.empty() || opt.problems.size() == numRoots)
      << "audit needs one problem per root";
  PRESAT_CHECK(opt.rootBdds.empty() || opt.bddManager != nullptr)
      << "audit root BDDs need their manager";
  PRESAT_CHECK(opt.bddManager == nullptr || opt.rootBdds.size() == numRoots)
      << "audit needs one BDD per root";

  // -- child ranges ---------------------------------------------------------
  bool rangesOk = true;
  for (size_t root = 0; root < numRoots; ++root) {
    const int child = g.root(root).child;
    if (!validChild(child)) {
      r.fail("graph.child-range", rootName(root) + " child " + std::to_string(child) +
                                      " out of range (numNodes=" + std::to_string(n) + ")");
      rangesOk = false;
    }
  }
  for (int i = 0; i < n; ++i) {
    for (int b = 0; b < 2; ++b) {
      const int child = g.node(i).branch[b].child;
      if (!validChild(child)) {
        r.fail("graph.child-range", "node " + std::to_string(i) + " branch " +
                                        std::to_string(b) + " child " + std::to_string(child) +
                                        " out of range (numNodes=" + std::to_string(n) + ")");
        rangesOk = false;
      }
    }
  }
  if (!rangesOk) return r;  // traversal below would index out of bounds

  // -- dead FAIL-only interior nodes ---------------------------------------
  for (int i = 0; i < n; ++i) {
    if (g.node(i).branch[0].child == kFail && g.node(i).branch[1].child == kFail) {
      r.fail("graph.dead-node",
             "node " + std::to_string(i) + " (decision d" +
                 std::to_string(g.node(i).decisionId) +
                 ") has both branches FAIL — the engine collapses those to FAIL");
    }
  }

  // -- acyclicity (general iterative DFS over every stored node) -----------
  // Colors: 0 = unvisited, 1 = on the current DFS path, 2 = done. The
  // post-order doubles as a children-before-parents order for the DAG passes
  // below.
  std::vector<uint8_t> color(static_cast<size_t>(n), 0);
  std::vector<int> postorder;
  postorder.reserve(static_cast<size_t>(n));
  std::vector<std::pair<int, int>> stack;  // (node, next branch to explore)
  bool acyclic = true;
  for (int start = 0; start < n && acyclic; ++start) {
    if (color[static_cast<size_t>(start)] != 0) continue;
    stack.clear();
    stack.emplace_back(start, 0);
    color[static_cast<size_t>(start)] = 1;
    while (!stack.empty() && acyclic) {
      auto& [node, nextBranch] = stack.back();
      if (nextBranch == 2) {
        color[static_cast<size_t>(node)] = 2;
        postorder.push_back(node);
        stack.pop_back();
        continue;
      }
      const int child = g.node(node).branch[nextBranch++].child;
      if (child < 0) continue;
      uint8_t& c = color[static_cast<size_t>(child)];
      if (c == 1) {
        r.fail("graph.acyclic", "cycle through node " + std::to_string(child) +
                                    " reached from node " + std::to_string(node));
        acyclic = false;
      } else if (c == 0) {
        c = 1;
        stack.emplace_back(child, 0);
      }
    }
  }

  // -- projection width -----------------------------------------------------
  int projWidth = opt.numProjectionVars;
  if (!opt.problems.empty()) {
    projWidth = static_cast<int>(opt.problems.front().projectionSources.size());
  }
  if (projWidth < 0) {
    // Infer an upper bound so the range check and the BDD cross-check still
    // have a consistent variable universe.
    Var maxVar = -1;
    for (size_t root = 0; root < numRoots; ++root) {
      for (Lit l : g.root(root).newLits) maxVar = std::max(maxVar, l.var());
    }
    for (int i = 0; i < n; ++i) {
      for (const auto& b : g.node(i).branch) {
        for (Lit l : b.newLits) maxVar = std::max(maxVar, l.var());
      }
    }
    projWidth = static_cast<int>(maxVar) + 1;
  }

  // -- per-branch literal hygiene ------------------------------------------
  {
    VarRows seen(1, projWidth);
    for (size_t root = 0; root < numRoots; ++root) {
      checkBranchLits(r, g.root(root).newLits, projWidth, seen.row(0), {root, -1});
    }
    for (int i = 0; i < n; ++i) {
      for (int b = 0; b < 2; ++b) {
        checkBranchLits(r, g.node(i).branch[b].newLits, projWidth, seen.row(0),
                        {static_cast<size_t>(i), b});
      }
    }
  }

  if (!acyclic) return r;  // the DAG passes below assume a valid postorder

  // -- exact path-level variable-repeat check ------------------------------
  // belowVars row i = union of projected vars assigned on any live (SUCCESS-
  // reaching) branch at or below node i. A non-empty intersection between a
  // branch's own literals and the row of its child witnesses a real
  // root-to-SUCCESS path assigning a variable twice — without enumerating
  // paths.
  std::vector<char> reaches(static_cast<size_t>(n), 0);
  VarRows belowVars(static_cast<size_t>(n), projWidth);
  const auto childReaches = [&](int child) {
    if (child == kSuccess) return true;
    if (child == kFail) return false;
    return reaches[static_cast<size_t>(child)] != 0;
  };
  const auto checkRepeat = [&](const LitVec& lits, int child, const BranchName& where) {
    if (child < 0 || !childReaches(child)) return;
    const uint64_t* childBelow = belowVars.row(static_cast<size_t>(child));
    for (Lit l : lits) {
      if (l.var() >= 0 && l.var() < projWidth && VarRows::test(childBelow, l.var())) {
        r.fail("graph.path.repeat",
               where.str() + " assigns " + toString(l) +
                   " which is assigned again on a live path below node " + std::to_string(child));
      }
    }
  };
  for (int node : postorder) {
    uint64_t* below = belowVars.row(static_cast<size_t>(node));
    for (int b = 0; b < 2; ++b) {
      const SolutionGraph::Branch& branch = g.node(node).branch[b];
      if (!childReaches(branch.child)) continue;
      reaches[static_cast<size_t>(node)] = 1;
      checkRepeat(branch.newLits, branch.child, {static_cast<size_t>(node), b});
      for (Lit l : branch.newLits) {
        if (l.var() >= 0 && l.var() < projWidth) VarRows::set(below, l.var());
      }
      if (branch.child >= 0) {
        const uint64_t* childBelow = belowVars.row(static_cast<size_t>(branch.child));
        for (size_t w = 0; w < belowVars.words(); ++w) below[w] |= childBelow[w];
      }
    }
  }
  for (size_t root = 0; root < numRoots; ++root) {
    checkRepeat(g.root(root).newLits, g.root(root).child, {root, -1});
  }

  // The semantic passes below feed enumerated cubes into BddManager::cube
  // and the SAT encoder, both of which CHECK on contradictory cubes — any
  // structural violation above makes those crash-prone, so stop here.
  if (!r.ok()) return r;

  // -- the reported cover (else each root's paths) vs the graph's BDD ------
  if (opt.maxEnumeratedCubes > 0 && projWidth >= 0) {
    // The caller's manager and root BDDs when supplied, else our own, built
    // on first use: when every cover exceeds the cap, never.
    std::optional<BddManager> own;
    std::vector<BddRef> built;
    BddManager* mgr = opt.bddManager;
    std::span<const BddRef> fromGraph = opt.rootBdds;
    // Checks `cover` against root `root`'s BDD, or against the union of all
    // roots when `root` is empty.
    const auto checkCover = [&](const std::string& name, const std::vector<LitVec>& cover,
                                std::optional<size_t> root) {
      if (cover.size() > opt.maxEnumeratedCubes) return;
      if (mgr == nullptr) {
        mgr = &own.emplace(projWidth);
        built = g.rootBdds(*mgr);
        fromGraph = built;
      }
      BddRef expected = BddManager::kFalse;
      if (root) {
        expected = fromGraph[*root];
      } else {
        for (BddRef bdd : fromGraph) expected = mgr->bddOr(expected, bdd);
      }
      const BddRef fromCubes = cubesToBdd(*mgr, cover);
      if (!BddManager::equal(expected, fromCubes)) {
        r.fail("graph.count.cubes-vs-bdd",
               name + ": union of " + std::to_string(cover.size()) + " cubes (" +
                   mgr->satCount(fromCubes).toDecimal() +
                   " minterms) disagrees with the graph BDD (" +
                   mgr->satCount(expected).toDecimal() + " minterms)");
      }
    };
    if (opt.cover != nullptr) {
      checkCover("cover", *opt.cover, std::nullopt);
    } else {
      for (size_t root = 0; root < numRoots; ++root) {
        checkCover(rootName(root), g.enumerateRootCubes(root, opt.maxEnumeratedCubes + 1), root);
      }
    }
  }

  // -- per-cube soundness against the original circuit problem -------------
  // A cube promises: for EVERY completion of the unassigned projection
  // sources there is an input assignment satisfying the objectives. The SAT
  // check tests the cube itself plus a few random completions; ternary
  // simulation cannot express the inner existential over the inputs.
  if (opt.maxCubeSatChecks > 0) {
    for (size_t root = 0; root < opt.problems.size(); ++root) {
      const CircuitAllSatProblem& p = opt.problems[root];
      if (p.netlist == nullptr) continue;
      checkCubesSound(r, g.enumerateRootCubes(root, opt.maxCubeSatChecks), p, opt, rootName(root));
    }
  }

  return r;
}

AuditResult auditNogood(const Netlist& netlist, const NodeCube& objectives,
                        const NodeCube& nogood) {
  AuditResult r;
  std::vector<NodeId> roots;
  for (const NodeAssign& a : objectives) roots.push_back(a.first);
  for (const NodeAssign& a : nogood) roots.push_back(a.first);
  const CircuitEncoding enc = encodeCircuit(netlist, roots);
  Solver solver;
  solver.addCnf(enc.cnf);
  LitVec units;
  for (const NodeAssign& a : objectives) units.push_back(enc.litOf(a.first, a.second));
  for (const NodeAssign& a : nogood) units.push_back(enc.litOf(a.first, a.second));
  if (solver.okay() && !solver.solve(units).isFalse()) {
    std::string lits;
    for (const NodeAssign& a : nogood) {
      if (!lits.empty()) lits += ' ';
      lits += std::to_string(a.first);
      lits += a.second ? "=1" : "=0";
    }
    r.fail("graph.nogood.sat", "nogood {" + lits + "} holds in an evaluation that meets the " +
                                   std::to_string(objectives.size()) + " objective(s)");
  }
  return r;
}

}  // namespace presat
