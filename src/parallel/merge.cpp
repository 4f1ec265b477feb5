#include "parallel/merge.hpp"

#include <string>
#include <utility>

#include "base/log.hpp"
#include "bdd/bdd.hpp"

namespace presat {

AllSatResult mergeShardSummaries(std::vector<ShardOutcome>& shards) {
  AllSatResult merged;
  size_t totalCubes = 0;
  for (const ShardOutcome& shard : shards) totalCubes += shard.result.cubes.size();
  merged.cubes.reserve(totalCubes);
  for (ShardOutcome& shard : shards) {
    for (LitVec& cube : shard.result.cubes) merged.cubes.push_back(std::move(cube));
    shard.result.cubes.clear();
    merged.outcome = combineOutcomes(merged.outcome, shard.result.outcome);
    accumulateStats(merged.stats, shard.result.stats);
    merged.metrics.merge(shard.result.metrics);
  }
  return merged;
}

AuditResult auditShardPartition(const std::vector<ShardOutcome>& shards,
                                int numProjectionVars) {
  AuditResult audit;
  BddManager mgr(numProjectionVars);

  std::vector<BddRef> guides;
  std::vector<BddRef> unions;
  guides.reserve(shards.size());
  unions.reserve(shards.size());
  for (const ShardOutcome& shard : shards) {
    guides.push_back(mgr.cube(shard.guide));
    unions.push_back(cubesToBdd(mgr, shard.result.cubes));
  }

  for (size_t i = 0; i < shards.size(); ++i) {
    // Every shard cube must stay inside its guiding cube — the disjoint count
    // of the concatenation silently overcounts if one leaks.
    if (mgr.bddAnd(unions[i], mgr.bddNot(guides[i])) != BddManager::kFalse) {
      audit.fail("parallel.shard.guide",
                 "shard " + std::to_string(i) + " enumerated solutions outside its guiding cube");
    }
    for (size_t j = i + 1; j < shards.size(); ++j) {
      if (mgr.bddAnd(guides[i], guides[j]) != BddManager::kFalse) {
        audit.fail("parallel.guide.disjoint", "guiding cubes " + std::to_string(i) + " and " +
                                                  std::to_string(j) + " overlap");
      }
      if (mgr.bddAnd(unions[i], unions[j]) != BddManager::kFalse) {
        audit.fail("parallel.shard.disjoint", "shards " + std::to_string(i) + " and " +
                                                  std::to_string(j) +
                                                  " enumerated overlapping solution sets");
      }
    }
  }
  return audit;
}

void corruptShardsForTest(std::vector<ShardOutcome>& shards, ShardCorruption kind) {
  // Find a donor shard with at least one cube; the generator-suite fixtures
  // in the tests guarantee one exists.
  size_t donor = shards.size();
  for (size_t i = 0; i < shards.size(); ++i) {
    if (!shards[i].result.cubes.empty()) {
      donor = i;
      break;
    }
  }
  PRESAT_CHECK(donor < shards.size()) << "corruption hook needs a shard with cubes";

  switch (kind) {
    case ShardCorruption::kForeignCube: {
      size_t victim = (donor + 1) % shards.size();
      PRESAT_CHECK(victim != donor) << "corruption hook needs at least two shards";
      shards[victim].result.cubes.push_back(shards[donor].result.cubes.front());
      break;
    }
    case ShardCorruption::kGuideEscape: {
      LitVec& cube = shards[donor].result.cubes.front();
      LitVec stripped;
      for (Lit l : cube) {
        bool isGuideVar = false;
        for (Lit g : shards[donor].guide) {
          if (g.var() == l.var()) {
            isGuideVar = true;
            break;
          }
        }
        if (!isGuideVar) stripped.push_back(l);
      }
      PRESAT_CHECK(stripped.size() < cube.size())
          << "corruption hook found no guide literal to strip";
      cube = std::move(stripped);
      break;
    }
  }
}

}  // namespace presat
