#include "parallel/cube_splitter.hpp"

#include <algorithm>

#include "allsat/success_driven.hpp"
#include "base/log.hpp"
#include "circuit/netlist.hpp"

namespace presat {

namespace {

// 16 subcubes, clamped to the projection width.
constexpr int kDefaultSplitDepth = 4;

// Ranks candidate split variables by (score desc, index asc) and keeps the
// best `depth`, returned in ascending index order so the cube enumeration
// is independent of the scoring details' tie-break history. Candidates with score 0 participate too (the balanced
// fallback): the sort is total over all projection variables.
std::vector<Var> pickTopVars(const std::vector<uint64_t>& score, int depth) {
  std::vector<Var> vars(score.size());
  for (size_t i = 0; i < vars.size(); ++i) vars[i] = static_cast<Var>(i);
  std::stable_sort(vars.begin(), vars.end(), [&score](Var a, Var b) {
    return score[static_cast<size_t>(a)] > score[static_cast<size_t>(b)];
  });
  vars.resize(static_cast<size_t>(depth));
  std::sort(vars.begin(), vars.end());
  return vars;
}

}  // namespace

int resolveSplitDepth(int requested, size_t numProjectionVars) {
  int depth = requested < 0 ? kDefaultSplitDepth : requested;
  if (static_cast<size_t>(depth) > numProjectionVars) {
    depth = static_cast<int>(numProjectionVars);
  }
  return depth;
}

std::vector<LitVec> enumerateGuideCubes(const std::vector<Var>& splitVars) {
  PRESAT_CHECK(splitVars.size() < 30) << "split depth out of sane range";
  size_t count = static_cast<size_t>(1) << splitVars.size();
  std::vector<LitVec> cubes;
  cubes.reserve(count);
  for (size_t index = 0; index < count; ++index) {
    LitVec cube;
    cube.reserve(splitVars.size());
    for (size_t j = 0; j < splitVars.size(); ++j) {
      bool value = ((index >> j) & 1) != 0;
      cube.push_back(mkLit(splitVars[j], !value));
    }
    cubes.push_back(std::move(cube));
  }
  return cubes;
}

SplitPlan planCircuitSplit(const CircuitAllSatProblem& problem, int splitDepth) {
  PRESAT_CHECK(problem.netlist != nullptr);
  const Netlist& nl = *problem.netlist;
  const std::vector<NodeId>& sources = problem.projectionSources;

  int depth = resolveSplitDepth(splitDepth, sources.size());
  SplitPlan plan;
  if (depth == 0) {
    plan.cubes = enumerateGuideCubes({});
    return plan;
  }

  // Lookahead proxy: restrict attention to the transitive fanin cone of the
  // objectives (the only region backward justification ever enters) and score
  // each projection source by the number of cone gates it directly feeds,
  // weighted by how deep the justification can reach past them (level of the
  // fanout gate). A source feeding many deep cone gates splits the frontier's
  // subsearch most evenly; a source outside the cone scores 0 and is only
  // chosen by the balanced fallback.
  std::vector<NodeId> objectiveRoots;
  objectiveRoots.reserve(problem.objectives.size());
  for (const NodeAssign& obj : problem.objectives) objectiveRoots.push_back(obj.first);
  std::vector<NodeId> cone = nl.coneOf(objectiveRoots);
  std::vector<char> inCone(nl.numNodes(), 0);
  for (NodeId n : cone) inCone[n] = 1;
  std::vector<int> levels = nl.levels();

  std::vector<uint64_t> nodeScore(nl.numNodes(), 0);
  for (NodeId n : cone) {
    if (!isCombinational(nl.type(n))) continue;
    for (NodeId f : nl.fanins(n)) {
      nodeScore[f] += 1 + static_cast<uint64_t>(levels[n]);
    }
  }

  std::vector<uint64_t> score(sources.size(), 0);
  for (size_t i = 0; i < sources.size(); ++i) {
    if (inCone[sources[i]]) score[i] = nodeScore[sources[i]];
  }

  plan.splitVars = pickTopVars(score, depth);
  plan.cubes = enumerateGuideCubes(plan.splitVars);
  return plan;
}

}  // namespace presat
