#include "gen/random_circuit.hpp"

#include <string>
#include <vector>

#include "base/log.hpp"
#include "base/rng.hpp"

namespace presat {

Netlist makeRandomSequential(const RandomCircuitParams& params) {
  PRESAT_CHECK(params.numInputs >= 1 && params.numDffs >= 1 && params.numGates >= params.numDffs);
  PRESAT_CHECK(params.maxFanin >= 2);
  Rng rng(params.seed * 0x9e3779b97f4a7c15ull + 0x2545f4914f6cdd1dull);

  Netlist nl;
  std::vector<NodeId> pool;  // candidate fanin nodes, in creation order
  for (int i = 0; i < params.numInputs; ++i) pool.push_back(nl.addInput(numbered("x", i)));
  std::vector<NodeId> dffs;
  for (int i = 0; i < params.numDffs; ++i) {
    NodeId d = nl.addDff(numbered("s", i));
    dffs.push_back(d);
    pool.push_back(d);
  }

  auto pickFanin = [&]() -> NodeId {
    // Bias toward recent nodes for depth (2:1 recent half vs anywhere).
    if (rng.chance(2, 3) && pool.size() > 2) {
      size_t half = pool.size() / 2;
      return pool[half + rng.below(pool.size() - half)];
    }
    return pool[rng.below(pool.size())];
  };

  for (int g = 0; g < params.numGates; ++g) {
    GateType type;
    uint64_t roll = rng.below(100);
    if (roll < static_cast<uint64_t>(params.xorPercent)) {
      type = rng.flip() ? GateType::kXor : GateType::kXnor;
    } else if (roll < static_cast<uint64_t>(params.xorPercent) + 10) {
      type = GateType::kNot;
    } else {
      static constexpr GateType kFamilies[] = {GateType::kAnd, GateType::kNand, GateType::kOr,
                                               GateType::kNor};
      type = kFamilies[rng.below(4)];
    }
    std::vector<NodeId> fanins;
    if (type == GateType::kNot) {
      fanins.push_back(pickFanin());
    } else {
      int arity = type == GateType::kXor || type == GateType::kXnor
                      ? 2
                      : static_cast<int>(rng.range(2, params.maxFanin));
      for (int k = 0; k < arity; ++k) {
        NodeId f = pickFanin();
        // Avoid duplicate fanins (legal but pointless).
        bool duplicate = false;
        for (NodeId existing : fanins) duplicate = duplicate || existing == f;
        if (!duplicate) fanins.push_back(f);
      }
      if (fanins.size() < 2) fanins.push_back(pool[rng.below(pool.size())]);
      if (fanins.size() < 2 || (fanins.size() == 2 && fanins[0] == fanins[1])) {
        // Degenerate pick (tiny pools): fall back to an inverter.
        type = GateType::kNot;
        fanins.resize(1);
      }
    }
    pool.push_back(nl.addGate(type, std::move(fanins), numbered("g", g)));
  }

  // Next-state functions: sample from the most recently created gates so the
  // state feedback has depth; guarantee distinct-ish roots when possible.
  size_t tail = std::min<size_t>(pool.size(), static_cast<size_t>(params.numGates));
  for (int i = 0; i < params.numDffs; ++i) {
    NodeId root = pool[pool.size() - 1 - rng.below(tail)];
    nl.connectDffData(dffs[static_cast<size_t>(i)], root);
  }
  // A couple of observable outputs.
  nl.markOutput(pool.back(), "out0");
  if (pool.size() >= 2) nl.markOutput(pool[pool.size() - 2], "out1");
  nl.validate();
  return nl;
}

}  // namespace presat
