#include "allsat/lifting.hpp"

#include <algorithm>
#include <bit>

#include "base/log.hpp"
#include "circuit/ternary.hpp"

namespace presat {

namespace {

// The fanin cone of every objective node in topological order, split into
// its gates and constants (`order`) and its sources (inputs, DFF outputs).
void splitCone(const Netlist& netlist, const std::vector<NodeCube>& objectives,
               std::vector<NodeId>& order, std::vector<NodeId>& sources) {
  std::vector<NodeId> roots;
  for (const NodeCube& cube : objectives) {
    for (const NodeAssign& obj : cube) roots.push_back(obj.first);
  }
  std::vector<uint8_t> inCone(netlist.numNodes(), 0);
  for (NodeId id : netlist.coneOf(roots)) inCone[id] = 1;
  for (NodeId id : netlist.topologicalOrder()) {
    if (!inCone[id]) continue;
    GateType type = netlist.type(id);
    bool source = type == GateType::kInput || type == GateType::kDff;
    (source ? sources : order).push_back(id);
  }
}

}  // namespace

LitVec shrinkModelToImplicant(const Cnf& cnf, const std::vector<lbool>& model) {
  // Frequency of each variable as a potential witness: variables that satisfy
  // many clauses make better keepers, leaving more variables free.
  std::vector<uint32_t> frequency(static_cast<size_t>(cnf.numVars()), 0);
  for (const Clause& c : cnf.clauses()) {
    for (Lit l : c) {
      lbool v = model[static_cast<size_t>(l.var())];
      PRESAT_CHECK(!v.isUndef()) << "shrinkModelToImplicant needs a full model";
      if (v.isTrue() != l.sign()) ++frequency[static_cast<size_t>(l.var())];
    }
  }
  std::vector<bool> kept(static_cast<size_t>(cnf.numVars()), false);
  for (const Clause& c : cnf.clauses()) {
    Lit witness = kUndefLit;
    bool haveKeptWitness = false;
    for (Lit l : c) {
      lbool v = model[static_cast<size_t>(l.var())];
      if (v.isTrue() == l.sign()) continue;  // literal false under model
      if (kept[static_cast<size_t>(l.var())]) {
        haveKeptWitness = true;
        break;
      }
      if (witness == kUndefLit ||
          frequency[static_cast<size_t>(l.var())] > frequency[static_cast<size_t>(witness.var())]) {
        witness = l;
      }
    }
    if (haveKeptWitness) continue;
    PRESAT_CHECK(witness != kUndefLit) << "model does not satisfy the formula";
    kept[static_cast<size_t>(witness.var())] = true;
  }
  LitVec cube;
  for (Var v = 0; v < cnf.numVars(); ++v) {
    if (kept[static_cast<size_t>(v)]) {
      cube.push_back(mkLit(v, model[static_cast<size_t>(v)].isFalse()));
    }
  }
  return cube;
}

int implicantPrefixLevel(const Cnf& cnf, const std::vector<lbool>& model,
                         const std::vector<int>& varLevel) {
  int prefix = 0;
  for (const Clause& c : cnf.clauses()) {
    int clauseLevel = -1;
    for (Lit l : c) {
      lbool v = model[static_cast<size_t>(l.var())];
      PRESAT_CHECK(!v.isUndef()) << "implicantPrefixLevel needs a full model";
      if (v.isTrue() == l.sign()) continue;  // literal false under model
      int lvl = varLevel[static_cast<size_t>(l.var())];
      if (clauseLevel < 0 || lvl < clauseLevel) clauseLevel = lvl;
    }
    PRESAT_CHECK(clauseLevel >= 0) << "model does not satisfy the formula";
    if (clauseLevel > prefix) prefix = clauseLevel;
  }
  return prefix;
}

int projectedWitnessLevel(const Cnf& cnf, const std::vector<lbool>& model,
                          const std::vector<int>& varLevel,
                          const std::vector<uint8_t>& inScope) {
  int prefix = 0;
  for (const Clause& c : cnf.clauses()) {
    int clauseLevel = -1;
    for (Lit l : c) {
      lbool v = model[static_cast<size_t>(l.var())];
      if (v.isUndef()) continue;             // not part of the partial witness
      if (v.isTrue() == l.sign()) continue;  // literal false under model
      int lvl =
          inScope[static_cast<size_t>(l.var())] ? varLevel[static_cast<size_t>(l.var())] : 0;
      if (clauseLevel < 0 || lvl < clauseLevel) clauseLevel = lvl;
      if (clauseLevel == 0) break;
    }
    if (clauseLevel < 0) {
      // The solver never stored this clause, so the witness scan never saw
      // it: a tautology (x | ~x) is dropped at addClause time and is
      // trivially satisfied by every partial assignment at level 0.
      bool tautology = false;
      for (size_t i = 0; i < c.size() && !tautology; ++i) {
        for (size_t j = i + 1; j < c.size(); ++j) {
          if (c[i].var() == c[j].var() && c[i].sign() != c[j].sign()) {
            tautology = true;
            break;
          }
        }
      }
      if (tautology) continue;
    }
    PRESAT_CHECK(clauseLevel >= 0) << "partial model is not a witness for every clause";
    if (clauseLevel > prefix) prefix = clauseLevel;
  }
  return prefix;
}

CircuitWidener::CircuitWidener(const Netlist& netlist, std::vector<NodeCube> objectives,
                               const std::vector<Var>& sourceVar, const std::vector<Var>& scope)
    : netlist_(netlist), objectives_(std::move(objectives)) {
  std::vector<NodeId> sources;
  splitCone(netlist, objectives_, order_, sources);

  Var limit = 0;
  for (Var v : scope) limit = std::max(limit, v + 1);
  std::vector<uint8_t> inScope(static_cast<size_t>(limit), 0);
  std::vector<uint8_t> read(static_cast<size_t>(limit), 0);
  for (Var v : scope) inScope[static_cast<size_t>(v)] = 1;
  for (NodeId id : sources) {
    Var v = sourceVar[id];
    if (v != kNullVar && v < limit && inScope[static_cast<size_t>(v)]) {
      scopeSources_.emplace_back(id, v);
      read[static_cast<size_t>(v)] = 1;
    } else {
      otherSources_.emplace_back(id, v);
    }
  }
  for (Var v : scope) {
    if (!read[static_cast<size_t>(v)]) deferred_.push_back(v);
  }
}

int CircuitWidener::emitLevel(const std::vector<lbool>& model, const std::vector<int>& varLevel,
                              int lo, int k, std::vector<lbool>& values, uint64_t& sims) const {
  values.resize(netlist_.numNodes(), l_Undef);
  for (const SourceVar& s : otherSources_) {
    values[s.first] = s.second == kNullVar ? l_Undef : model[static_cast<size_t>(s.second)];
  }
  auto forcedAt = [&](int b) {
    for (const SourceVar& s : scopeSources_) {
      size_t v = static_cast<size_t>(s.second);
      values[s.first] = varLevel[v] <= b ? model[v] : l_Undef;
    }
    ternarySimulate(netlist_, order_, values);
    ++sims;
    for (const NodeCube& cube : objectives_) {
      bool holds = true;
      for (const NodeAssign& obj : cube) {
        if (values[obj.first] != lbool(obj.second)) {
          holds = false;
          break;
        }
      }
      if (holds) return true;
    }
    return false;
  };
  // Ternary simulation is monotone in X, so forcing is monotone in b and a
  // binary search finds the shallowest level. Level k is never simulated:
  // it is the answer whether or not it forces.
  while (lo < k) {
    int mid = lo + (k - lo) / 2;
    if (forcedAt(mid)) {
      k = mid;
    } else {
      lo = mid + 1;
    }
  }
  return k;
}

JustificationLifter::JustificationLifter(const Netlist& netlist, std::vector<NodeCube> objectives,
                                         std::vector<Source> sources)
    : netlist_(netlist),
      objectives_(std::move(objectives)),
      sources_(std::move(sources)),
      values_(netlist.numNodes(), l_Undef),
      emitCount_(netlist.numNodes(), 0),
      stamp_(netlist.numNodes(), 0) {
  PRESAT_CHECK(sources_.size() == netlist_.numNodes()) << "one source binding per node";
  for (const NodeCube& cube : objectives_) {
    for (const NodeAssign& obj : cube) PRESAT_CHECK(obj.first < netlist_.numNodes());
  }
  splitCone(netlist_, objectives_, order_, coneSources_);
  // Support masks: bit k of a node's mask is set iff the k-th emitted cone
  // source lies in the node's fanin cone. Only their popcounts are kept.
  size_t numEmitted = 0;
  for (NodeId id : coneSources_) {
    PRESAT_CHECK(!sources_[id].emit || sources_[id].var != kNullVar)
        << "emitted source " << netlist_.name(id) << " has no model variable";
    if (sources_[id].emit) ++numEmitted;
  }
  const size_t words = (numEmitted + 63) / 64;
  std::vector<uint64_t> support(netlist_.numNodes() * words, 0);
  size_t bit = 0;
  for (NodeId id : coneSources_) {
    if (!sources_[id].emit) continue;
    support[id * words + bit / 64] |= uint64_t{1} << (bit % 64);
    emitCount_[id] = 1;
    ++bit;
  }
  for (NodeId id : order_) {
    uint64_t* mask = support.data() + id * words;
    for (NodeId f : netlist_.node(id).fanins) {
      const uint64_t* in = support.data() + f * words;
      for (size_t w = 0; w < words; ++w) mask[w] |= in[w];
    }
    uint32_t count = 0;
    for (size_t w = 0; w < words; ++w) count += static_cast<uint32_t>(std::popcount(mask[w]));
    emitCount_[id] = count;
  }
}

LitVec JustificationLifter::lift(const std::vector<lbool>& model) {
  for (NodeId id : coneSources_) {
    const Source& s = sources_[id];
    size_t v = static_cast<size_t>(s.var);
    values_[id] = lbool(s.var == kNullVar ? s.value : v < model.size() && model[v].isTrue());
  }
  ternarySimulate(netlist_, order_, values_);

  // Justify exactly one target cube: the first the model realizes.
  const NodeCube* objective = nullptr;
  for (const NodeCube& cube : objectives_) {
    bool holds = std::all_of(cube.begin(), cube.end(), [this](const NodeAssign& obj) {
      return values_[obj.first] == lbool(obj.second);
    });
    if (holds) {
      objective = &cube;
      break;
    }
  }
  PRESAT_CHECK(objective != nullptr) << "model does not reach the target set";

  if (++epoch_ == 0) {  // wrapped: no stamp may survive from an older lift
    std::fill(stamp_.begin(), stamp_.end(), 0);
    epoch_ = 1;
  }
  // Depth-first, each node handled when first popped; a node's fanins are
  // pushed in reverse so they pop in fanin order.
  LitVec cube;
  auto pushFanins = [this](const GateNode& g) {
    stack_.insert(stack_.end(), g.fanins.rbegin(), g.fanins.rend());
  };
  for (const NodeAssign& obj : *objective) {
    stack_.push_back(obj.first);
    while (!stack_.empty()) {
      NodeId id = stack_.back();
      stack_.pop_back();
      if (stamp_[id] == epoch_) continue;
      stamp_[id] = epoch_;
      const GateNode& g = netlist_.node(id);
      bool out = values_[id].isTrue();
      switch (g.type) {
        case GateType::kInput:
        case GateType::kDff:
          if (sources_[id].emit) cube.push_back(mkLit(sources_[id].var, !out));
          break;
        case GateType::kConst0:
        case GateType::kConst1:
          break;
        case GateType::kBuf:
        case GateType::kNot:
          stack_.push_back(g.fanins[0]);
          break;
        case GateType::kAnd:
        case GateType::kNand:
        case GateType::kOr:
        case GateType::kNor: {
          // Controlling input value: 0 for AND/NAND, 1 for OR/NOR. When a
          // controlling input is present the output is ctrlIn xor inverted
          // (AND -> 0, NAND -> 1, OR -> 1, NOR -> 0).
          bool ctrlIn = (g.type == GateType::kOr || g.type == GateType::kNor);
          bool inverted = (g.type == GateType::kNand || g.type == GateType::kNor);
          bool controlledOut = ctrlIn != inverted;
          if (out != controlledOut) {
            pushFanins(g);
            break;
          }
          // One controlling fanin suffices: one already marked, else the one
          // whose cone holds the fewest emitted sources (the first on a tie).
          NodeId pick = kNoNode;
          for (NodeId f : g.fanins) {
            if (values_[f].isTrue() == ctrlIn) {
              if (stamp_[f] == epoch_) {
                pick = f;
                break;
              }
              if (pick == kNoNode || emitCount_[f] < emitCount_[pick]) pick = f;
            }
          }
          PRESAT_CHECK(pick != kNoNode) << "inconsistent node values in lifting";
          stack_.push_back(pick);
          break;
        }
        case GateType::kXor:
        case GateType::kXnor:
          pushFanins(g);
          break;
        case GateType::kMux:
          // The select always matters, then the data input it chooses.
          stack_.push_back(values_[g.fanins[0]].isTrue() ? g.fanins[2] : g.fanins[1]);
          stack_.push_back(g.fanins[0]);
          break;
      }
    }
  }
  return cube;
}

}  // namespace presat
