#include "circuit/bench_io.hpp"

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <functional>
#include <iterator>
#include <sstream>
#include <string_view>
#include <utility>
#include <vector>

#include "base/log.hpp"

namespace presat {

namespace {

constexpr uint32_t kNoSignal = UINT32_MAX;

std::string_view trim(std::string_view s) {
  size_t b = s.find_first_not_of(" \t\r\n");
  if (b == std::string_view::npos) return {};
  size_t e = s.find_last_not_of(" \t\r\n");
  return s.substr(b, e - b + 1);
}

// ASCII case-insensitive match of `word` against an upper-case keyword.
bool isKeyword(std::string_view word, std::string_view keyword) {
  if (word.size() != keyword.size()) return false;
  for (size_t i = 0; i < word.size(); ++i) {
    char c = word[i];
    if (c >= 'a' && c <= 'z') c = static_cast<char>(c - 'a' + 'A');
    if (c != keyword[i]) return false;
  }
  return true;
}

std::optional<GateType> gateTypeFromName(std::string_view name) {
  static constexpr std::pair<std::string_view, GateType> kGates[] = {
      {"AND", GateType::kAnd},       {"OR", GateType::kOr},        {"NAND", GateType::kNand},
      {"NOR", GateType::kNor},       {"NOT", GateType::kNot},      {"INV", GateType::kNot},
      {"BUF", GateType::kBuf},       {"BUFF", GateType::kBuf},     {"XOR", GateType::kXor},
      {"XNOR", GateType::kXnor},     {"DFF", GateType::kDff},      {"MUX", GateType::kMux},
      {"CONST0", GateType::kConst0}, {"CONST1", GateType::kConst1}};
  for (const auto& [keyword, type] : kGates) {
    if (isKeyword(name, keyword)) return type;
  }
  return std::nullopt;
}

// Open-addressing name -> signal table: linear probing over a power-of-two
// slot array kept at most half full. Keys are views into the parsed text and
// never empty, so an empty key marks a free slot.
class NameTable {
 public:
  uint32_t find(std::string_view name) const { return slots_[probe(name)].signal; }

  // Maps `name` to `signal` unless the name is taken; returns the signal it
  // already had, or kNoSignal after inserting.
  uint32_t insert(std::string_view name, uint32_t signal) {
    Slot& slot = slots_[probe(name)];
    if (!slot.name.empty()) return slot.signal;
    slot = {name, signal};
    if (++size_ * 2 > slots_.size()) grow();
    return kNoSignal;
  }

 private:
  struct Slot {
    std::string_view name;
    uint32_t signal = kNoSignal;
  };

  size_t probe(std::string_view name) const {
    const size_t mask = slots_.size() - 1;
    size_t i = std::hash<std::string_view>{}(name) & mask;
    while (!slots_[i].name.empty() && slots_[i].name != name) i = (i + 1) & mask;
    return i;
  }

  void grow() {
    std::vector<Slot> old(slots_.size() * 2);
    old.swap(slots_);
    for (const Slot& slot : old) {
      if (!slot.name.empty()) slots_[probe(slot.name)] = slot;
    }
  }

  std::vector<Slot> slots_ = std::vector<Slot>(64);
  size_t size_ = 0;
};

// One INPUT line or one definition.
struct Signal {
  std::string_view name;
  GateType type;  // kInput for an INPUT line
  int line;
  uint32_t faninBegin;  // fanins are BenchParser::fanins_[faninBegin, faninEnd)
  uint32_t faninEnd;
  NodeId node = kNoNode;
  bool onStack = false;  // on the resolver's DFS stack
};

struct Output {
  std::string_view name;
  int line;
  uint32_t signal = kNoSignal;
};

class BenchParser {
 public:
  explicit BenchParser(std::string* error) : error_(error) {}

  std::optional<Netlist> parse(std::string_view text) {
    int lineNo = 0;
    for (size_t pos = 0; pos < text.size();) {
      const size_t end = std::min(text.find('\n', pos), text.size());
      if (!scanLine(text.substr(pos, end - pos), ++lineNo)) return std::nullopt;
      pos = end + 1;
    }
    if (!link()) return std::nullopt;
    // The node order below is part of the contract: the serve cache keys on
    // the structural hash, which sees node ids.
    for (Signal& s : signals_) {
      if (s.type == GateType::kInput) s.node = netlist_.addInput(std::string(s.name));
    }
    // DFF outputs exist before any gate, so state feedback ends the DFS.
    for (Signal& s : signals_) {
      if (s.type == GateType::kDff) s.node = netlist_.addDff(std::string(s.name));
    }
    for (uint32_t id = 0; id < signals_.size(); ++id) {
      if (!resolve(id)) return std::nullopt;
    }
    for (const Signal& s : signals_) {
      if (s.type == GateType::kDff) {
        netlist_.connectDffData(s.node, signals_[fanins_[s.faninBegin]].node);
      }
    }
    for (const Output& o : outputs_) {
      netlist_.markOutput(signals_[o.signal].node, std::string(o.name));
    }
    netlist_.validate();
    return std::move(netlist_);
  }

 private:
  template <class... Parts>
  bool fail(int lineNo, const Parts&... parts) {
    *error_ = ".bench line " + std::to_string(lineNo) + ": ";
    (error_->append(parts), ...);
    return false;
  }

  bool scanLine(std::string_view line, int lineNo) {
    line = trim(line.substr(0, line.find('#')));
    if (line.empty()) return true;
    const size_t eq = line.find('=');
    if (eq == std::string_view::npos) {
      const size_t open = line.find('(');
      const size_t close = line.rfind(')');
      if (open == std::string_view::npos || close == std::string_view::npos || close <= open) {
        return fail(lineNo, "expected INPUT(...)/OUTPUT(...): ", line);
      }
      const std::string_view kind = trim(line.substr(0, open));
      const std::string_view name = trim(line.substr(open + 1, close - open - 1));
      if (name.empty()) return fail(lineNo, "empty signal name");
      if (isKeyword(kind, "INPUT")) {
        return define(name, GateType::kInput, lineNo, faninNames_.size());
      }
      if (!isKeyword(kind, "OUTPUT")) return fail(lineNo, "unknown directive ", kind);
      outputs_.push_back({name, lineNo});
      return true;
    }

    const std::string_view lhs = trim(line.substr(0, eq));
    const std::string_view rhs = trim(line.substr(eq + 1));
    if (lhs.empty()) return fail(lineNo, "missing signal name before '='");
    const size_t open = rhs.find('(');
    const size_t close = rhs.rfind(')');
    if (open == std::string_view::npos || close == std::string_view::npos || close <= open) {
      return fail(lineNo, "expected name = GATE(...): ", line);
    }
    const std::string_view gateName = trim(rhs.substr(0, open));
    const std::optional<GateType> type = gateTypeFromName(gateName);
    if (!type) return fail(lineNo, "unknown gate type '", gateName, "'");
    const size_t first = faninNames_.size();
    const std::string_view args = rhs.substr(open + 1, close - open - 1);
    for (size_t pos = 0; pos <= args.size();) {
      const size_t comma = std::min(args.find(',', pos), args.size());
      const std::string_view arg = trim(args.substr(pos, comma - pos));
      if (!arg.empty()) faninNames_.push_back(arg);
      pos = comma + 1;
    }
    // Arity is checked here, with the line number, because the engines
    // index MUX/NOT fanins unchecked.
    size_t lo = 1;
    size_t hi = SIZE_MAX;  // n-ary gates: at least one fanin
    if (*type == GateType::kNot || *type == GateType::kBuf || *type == GateType::kDff) lo = hi = 1;
    if (*type == GateType::kMux) lo = hi = 3;
    if (*type == GateType::kConst0 || *type == GateType::kConst1) lo = hi = 0;
    const size_t arity = faninNames_.size() - first;
    if (arity < lo || arity > hi) {
      return fail(lineNo, gateTypeName(*type), " gate '", lhs, "' has ", std::to_string(arity),
                  " fanins (expected ", std::to_string(lo), hi == lo ? ")" : "+)");
    }
    return define(lhs, *type, lineNo, first);
  }

  bool define(std::string_view name, GateType type, int lineNo, size_t firstFanin) {
    const auto id = static_cast<uint32_t>(signals_.size());
    if (uint32_t first = names_.insert(name, id); first != kNoSignal) {
      return fail(lineNo, "redefinition of '", name, "' (first defined at line ",
                  std::to_string(signals_[first].line), ")");
    }
    signals_.push_back({name, type, lineNo, static_cast<uint32_t>(firstFanin),
                        static_cast<uint32_t>(faninNames_.size())});
    return true;
  }

  // Resolves every fanin and output name to its signal.
  bool link() {
    fanins_.resize(faninNames_.size());
    for (const Signal& s : signals_) {
      for (uint32_t k = s.faninBegin; k < s.faninEnd; ++k) {
        fanins_[k] = names_.find(faninNames_[k]);
        if (fanins_[k] == kNoSignal) return fail(s.line, "undefined signal '", faninNames_[k], "'");
      }
    }
    for (Output& o : outputs_) {
      o.signal = names_.find(o.name);
      if (o.signal == kNoSignal) return fail(o.line, "undefined signal '", o.name, "'");
    }
    return true;
  }

  // Creates the node of `root` after those of its fanins (post-order, fanins
  // left to right). The DFS keeps its own stack, so a long gate chain cannot
  // overflow the call stack; a fanin found still on it closes a
  // combinational cycle.
  bool resolve(uint32_t root) {
    if (signals_[root].node != kNoNode) return true;
    signals_[root].onStack = true;
    stack_.assign(1, {root, signals_[root].faninBegin});
    while (!stack_.empty()) {
      auto [id, next] = stack_.back();
      Signal& s = signals_[id];
      if (next < s.faninEnd) {
        ++stack_.back().second;
        Signal& f = signals_[fanins_[next]];
        if (f.node != kNoNode) continue;
        if (f.onStack) {
          return fail(f.line, "combinational cycle through '", f.name,
                      "' (feedback is only legal through a DFF)");
        }
        f.onStack = true;
        stack_.emplace_back(fanins_[next], f.faninBegin);
        continue;
      }
      stack_.pop_back();
      s.onStack = false;
      if (s.type == GateType::kConst0 || s.type == GateType::kConst1) {
        s.node = netlist_.addConst(s.type == GateType::kConst1, std::string(s.name));
        continue;
      }
      std::vector<NodeId> nodes;
      nodes.reserve(s.faninEnd - s.faninBegin);
      for (uint32_t k = s.faninBegin; k < s.faninEnd; ++k) {
        nodes.push_back(signals_[fanins_[k]].node);
      }
      s.node = netlist_.addGate(s.type, std::move(nodes), std::string(s.name));
    }
    return true;
  }

  std::string* error_;
  std::vector<Signal> signals_;  // INPUT lines and definitions, in file order
  std::vector<std::string_view> faninNames_;
  std::vector<uint32_t> fanins_;  // faninNames_ resolved to signals by link()
  std::vector<Output> outputs_;
  NameTable names_;
  std::vector<std::pair<uint32_t, uint32_t>> stack_;  // (signal, next fanin) pairs
  Netlist netlist_;
};

}  // namespace

std::optional<Netlist> parseBench(std::string_view text, std::string* error) {
  return BenchParser(error).parse(text);
}

Netlist parseBenchString(std::string_view text) {
  std::string error;
  std::optional<Netlist> netlist = parseBench(text, &error);
  PRESAT_CHECK(netlist.has_value()) << error;
  return std::move(*netlist);
}

Netlist parseBenchFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  PRESAT_CHECK(in.good()) << "cannot open .bench file: " << path;
  return parseBenchString(std::string(std::istreambuf_iterator<char>(in), {}));
}

void writeBench(std::ostream& out, const Netlist& netlist) {
  auto nodeName = [&](NodeId id) {
    const std::string& n = netlist.name(id);
    if (!n.empty()) return n;
    return numbered("n", id);
  };
  for (NodeId id : netlist.inputs()) out << "INPUT(" << nodeName(id) << ")\n";
  for (NodeId id : netlist.outputs()) out << "OUTPUT(" << nodeName(id) << ")\n";
  for (NodeId id : netlist.dffs()) {
    out << nodeName(id) << " = DFF(" << nodeName(netlist.dffData(id)) << ")\n";
  }
  for (NodeId id = 0; id < netlist.numNodes(); ++id) {
    GateType t = netlist.type(id);
    if (t == GateType::kConst0 || t == GateType::kConst1) {
      out << nodeName(id) << " = " << gateTypeName(t) << "()\n";
    }
  }
  for (NodeId id : netlist.topologicalOrder()) {
    const GateNode& g = netlist.node(id);
    if (!isCombinational(g.type)) continue;
    out << nodeName(id) << " = " << gateTypeName(g.type) << "(";
    for (size_t i = 0; i < g.fanins.size(); ++i) {
      if (i) out << ", ";
      out << nodeName(g.fanins[i]);
    }
    out << ")\n";
  }
}

std::string toBenchString(const Netlist& netlist) {
  std::ostringstream out;
  writeBench(out, netlist);
  return out.str();
}

}  // namespace presat
