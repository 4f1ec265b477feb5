// perfbench harness: runs one benchmark workload against the presat library
// through its public entry points and prints the measurements as one JSON
// line (the last line of stdout). perfbench/run.py builds this program,
// times set-up, drives presat_serve for the serve workload, and turns the
// line into the benchmark's result object.
//
//   perfbench_harness oneshot-cube|oneshot-sd-j4|reach-sd
//       --seed N --passes P [--trace 0|1] [--trace-out FILE]
//       [--smoke] [--setup-only] [--corrupt]
//   perfbench_harness serve-pool   --seed N [--smoke] [--setup-only]
//   perfbench_harness serve-replay --seed N [--smoke] [--trace-out FILE]
//   perfbench_harness reference
//
// Inputs depend only on (workload, seed, --smoke). Each query-running mode
// runs its pool P times over, checks every answer against the first answer
// for the same query, and after the timed region checks those first answers
// against the BDD engine. --trace 1 splits the passes in half: an untraced
// loop, then a traced loop that records spans around each public call and
// runs the per-layer probes.
#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "allsat/compress.hpp"
#include "allsat/success_driven.hpp"
#include "base/rng.hpp"
#include "base/timer.hpp"
#include "cert/certificate.hpp"
#include "circuit/bench_io.hpp"
#include "circuit/tseitin.hpp"
#include "cnf/preprocess.hpp"
#include "gen/generators.hpp"
#include "gen/random_circuit.hpp"
#include "parallel/cube_splitter.hpp"
#include "preimage/preimage.hpp"
#include "preimage/reachability.hpp"
#include "serve/protocol.hpp"
#include "serve/session.hpp"

namespace presat::perfbench {
namespace {

// --- command line -------------------------------------------------------

struct Args {
  std::string mode;
  uint64_t seed = 1;
  size_t passes = 1;
  bool trace = false;
  bool smoke = false;
  bool setupOnly = false;
  bool corrupt = false;
  std::string traceOut;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr, "perfbench_harness: %s\n", why);
  std::exit(2);
}

Args parseArgs(int argc, char** argv) {
  if (argc < 2) usage("missing mode");
  Args a;
  a.mode = argv[1];
  for (int i = 2; i < argc; ++i) {
    std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
      return argv[++i];
    };
    if (flag == "--seed") {
      a.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (flag == "--passes") {
      a.passes = std::max<size_t>(1, std::strtoull(value().c_str(), nullptr, 10));
    } else if (flag == "--trace") {
      a.trace = value() == "1";
    } else if (flag == "--trace-out") {
      a.traceOut = value();
    } else if (flag == "--smoke") {
      a.smoke = true;
    } else if (flag == "--setup-only") {
      a.setupOnly = true;
    } else if (flag == "--corrupt") {
      a.corrupt = true;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  return a;
}

// --- output -------------------------------------------------------------

// Adds a number with all its digits (JsonObjectWriter's double field keeps
// six, too few for exact counts).
void num(serve::JsonObjectWriter& w, const std::string& key, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  w.fieldRaw(key, buf);
}

// The process's resident-memory high-water mark (VmHWM) in MB.
double highWaterMb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kb = 0.0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) kb = std::strtod(line + 6, nullptr);
  }
  std::fclose(f);
  return kb / 1024.0;
}

// Hands freed memory back to the system and lowers the high-water mark to
// the resident size (Linux clear_refs 5), so the mark read later is the
// peak since this call.
void resetHighWater() {
  malloc_trim(0);
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return;
  std::fputs("5", f);
  std::fclose(f);
}

// Linear-interpolated quantile of `v` (copied; q in [0, 1]).
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  double pos = q * static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

// --- host speed ---------------------------------------------------------

// A fixed integer kernel unrelated to presat: sort pseudo-random keys, then
// insert and probe them in an open-addressing table. It keeps its own
// buffers, so presat's heap does not change its speed; only the machine
// does. run.py scales a run's timings by how long this kernel took in it,
// interleaved with the queries (see README.md, "Host speed").
class ReferenceKernel {
 public:
  // Runs the kernel twice and returns the second run's time in ms: the
  // first brings its buffers back into the cache, so what the previous
  // query left there does not change the figure.
  double runMs() {
    once();
    Timer t;
    once();
    return t.millis();
  }

  uint64_t sink() const { return sink_; }

 private:
  void once() {
    Rng rng(42);
    for (uint64_t& k : keys_) k = rng.next() | 1;
    std::sort(keys_.begin(), keys_.end());
    std::fill(table_.begin(), table_.end(), 0);
    const size_t mask = table_.size() - 1;
    for (uint64_t k : keys_) {
      size_t h = static_cast<size_t>((k * 0x9e3779b97f4a7c15ull) >> (64 - kTableBits));
      while (table_[h & mask] != 0 && table_[h & mask] != k) ++h;
      table_[h & mask] = k;
      sink_ += h;
    }
    for (uint64_t k : keys_) {
      size_t h = static_cast<size_t>(((k >> 3) * 0x9e3779b97f4a7c15ull) >> (64 - kTableBits));
      sink_ += table_[h & mask] > k ? h : k;
    }
  }

  static constexpr size_t kKeys = 40000;
  static constexpr size_t kTableBits = 16;

  std::vector<uint64_t> keys_ = std::vector<uint64_t>(kKeys);
  std::vector<uint64_t> table_ = std::vector<uint64_t>(size_t{1} << kTableBits);
  uint64_t sink_ = 0;
};

// --- tracing ------------------------------------------------------------

// In-memory span recorder. Spans of one query share its id; they are
// written out as Chrome trace-event JSON (loadable in Perfetto) at the end.
class Tracer {
 public:
  using Clock = std::chrono::steady_clock;

  struct Span {
    std::string name;
    int64_t query = 0;
    double startUs = 0.0;
    double durUs = 0.0;
  };

  class Scope {
   public:
    Scope(Tracer* tracer, const char* name, int64_t query)
        : tracer_(tracer), name_(name), query_(query), start_(Clock::now()) {}
    ~Scope() {
      if (tracer_ != nullptr) tracer_->record(name_, query_, start_, Clock::now());
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    const char* name_;
    int64_t query_;
    Clock::time_point start_;
  };

  // A null-recording scope when tracing is off, so call sites stay uniform.
  Scope span(const char* name, int64_t query) {
    return Scope(enabled_ ? this : nullptr, name, query);
  }

  void setEnabled(bool on) { enabled_ = on; }

  void record(const std::string& name, int64_t query, Clock::time_point start,
              Clock::time_point end) {
    Span s;
    s.name = name;
    s.query = query;
    s.startUs = std::chrono::duration<double, std::micro>(start - origin_).count();
    s.durUs = std::chrono::duration<double, std::micro>(end - start).count();
    spans_.push_back(std::move(s));
  }

  // A span measured inside the program (e.g. a reachability step's own
  // timer), placed at `startUs` on the benchmark's clock.
  void recordMeasured(const std::string& name, int64_t query, double startUs, double durUs) {
    spans_.push_back({name, query, startUs, durUs});
  }

  double nowUs() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - origin_).count();
  }

  // Total milliseconds and count of spans named `name`.
  double totalMs(const std::string& name) const {
    double us = 0.0;
    for (const Span& s : spans_) {
      if (s.name == name) us += s.durUs;
    }
    return us / 1e3;
  }
  size_t count(const std::string& name) const {
    size_t n = 0;
    for (const Span& s : spans_) n += s.name == name ? 1 : 0;
    return n;
  }
  double meanMs(const std::string& name) const {
    size_t n = count(name);
    return n == 0 ? 0.0 : totalMs(name) / static_cast<double>(n);
  }

  bool write(const std::string& path) const {
    if (path.empty()) return true;
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "%s\n{\"name\":\"%s\",\"cat\":\"perfbench\",\"ph\":\"X\",\"pid\":1,"
                   "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"query\":%" PRId64 "}}",
                   i == 0 ? "" : ",", s.name.c_str(), s.startUs, s.durUs, s.query);
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
  }

 private:
  bool enabled_ = false;
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
};

// --- inputs -------------------------------------------------------------

// A generated circuit and its transition-system view. The system points
// into `netlist`, so instances are neither copied nor moved.
struct Circuit {
  Circuit(std::string n, Netlist nl)
      : name(std::move(n)), netlist(std::move(nl)), system(netlist) {}
  Circuit(const Circuit&) = delete;
  Circuit& operator=(const Circuit&) = delete;

  std::string name;
  Netlist netlist;
  TransitionSystem system;
};

struct Query {
  const Circuit* circuit = nullptr;
  StateSet target;
  int maxDepth = 0;  // reach-sd only
  size_t index = 0;  // position in the pool
};

struct Pool {
  std::vector<std::unique_ptr<Circuit>> circuits;
  std::vector<Query> queries;
  double genMs = 0.0;
};

struct Shape {
  const char* name;
  int inputs;
  int dffs;
  int gates;
};

constexpr Shape kRand12x150{"rand12x150", 5, 12, 150};
constexpr Shape kRand14x200{"rand14x200", 6, 14, 200};
constexpr Shape kRand16x240{"rand16x240", 6, 16, 240};
constexpr Shape kRand18x320{"rand18x320", 7, 18, 320};
constexpr Shape kRand20x400{"rand20x400", 8, 20, 400};
constexpr Shape kRand24x600{"rand24x600", 8, 24, 600};

// A random circuit of `shape`, drawn from the run seed's stream.
const Circuit* addRandomCircuit(Pool& pool, const Shape& shape, int index, Rng& rng) {
  RandomCircuitParams p;
  p.numInputs = shape.inputs;
  p.numDffs = shape.dffs;
  p.numGates = shape.gates;
  p.seed = rng.next();
  std::string name = std::string(shape.name) + "#" + std::to_string(index);
  pool.circuits.push_back(std::make_unique<Circuit>(std::move(name), makeRandomSequential(p)));
  return pool.circuits.back().get();
}

const Circuit* addNamed(Pool& pool, std::string name, Netlist netlist) {
  pool.circuits.push_back(std::make_unique<Circuit>(std::move(name), std::move(netlist)));
  return pool.circuits.back().get();
}

// Target fixing the lowest `fixed` state bits to the successor of a random
// (state, input) pair, so the target is always reachable.
StateSet reachableCube(const TransitionSystem& system, int fixed, Rng& rng) {
  std::vector<bool> state(static_cast<size_t>(system.numStateBits()));
  std::vector<bool> inputs(static_cast<size_t>(system.numInputs()));
  for (auto&& b : state) b = rng.flip();
  for (auto&& b : inputs) b = rng.flip();
  std::vector<bool> next = system.step(state, inputs);
  LitVec cube;
  for (int i = 0; i < fixed && i < system.numStateBits(); ++i) {
    cube.push_back(mkLit(static_cast<Var>(i), !next[static_cast<size_t>(i)]));
  }
  return StateSet::fromCube(system.numStateBits(), cube);
}

// The state `steps` clocks after the all-zero reset state under random
// inputs, as a single-state target.
StateSet stateReachedFromReset(const TransitionSystem& system, int steps, Rng& rng) {
  std::vector<bool> state(static_cast<size_t>(system.numStateBits()), false);
  std::vector<bool> inputs(static_cast<size_t>(system.numInputs()));
  for (int s = 0; s < steps; ++s) {
    for (auto&& b : inputs) b = rng.flip();
    state = system.step(state, inputs);
  }
  LitVec cube;
  for (size_t i = 0; i < state.size(); ++i) cube.push_back(mkLit(static_cast<Var>(i), !state[i]));
  return StateSet::fromCube(system.numStateBits(), cube);
}

// `circuits` random circuits of one shape, each queried with `targets`
// reachable targets that fix `bits` state bits.
struct Mix {
  Shape shape;
  int circuits;
  int targets;
  int bits = 6;
};

// One-shot and serve pools. Shapes are interleaved
// so every stretch of the pool mixes them.
void addRandomQueries(Pool& pool, const std::vector<Mix>& mixes, bool smoke, Rng& rng) {
  for (int i = 0;; ++i) {
    bool any = false;
    for (const Mix& mix : mixes) {
      if (i >= (smoke ? std::min(mix.circuits, 2) : mix.circuits)) continue;
      any = true;
      const Circuit* c = addRandomCircuit(pool, mix.shape, i, rng);
      for (int t = 0; t < (smoke ? std::min(mix.targets, 2) : mix.targets); ++t) {
        pool.queries.push_back({c, reachableCube(c->system, mix.bits, rng)});
      }
    }
    if (!any) break;
  }
}

// reach-sd: structured generators swept to a depth in [16, 24], and random
// circuits iterated from one state reachable from reset to their fixpoint.
void addReachQueries(Pool& pool, bool smoke, Rng& rng) {
  auto sweep = [&](std::string name, Netlist nl, int fixed) {
    const Circuit* c = addNamed(pool, std::move(name), std::move(nl));
    for (int t = 0; t < (smoke ? 1 : 10); ++t) {
      const int depth = static_cast<int>(rng.range(16, 24));
      pool.queries.push_back({c, reachableCube(c->system, fixed, rng), depth});
    }
  };
  sweep("counter10", makeCounter(10), 10);
  sweep("gray9", makeGrayCounter(9), 9);
  sweep("lfsr12", makeLfsr(12), 12);
  sweep("shift18", makeShiftRegister(18), 18);
  sweep("arb7", makeRoundRobinArbiter(7), 2);
  sweep("accum7", makeAccumulator(7), 7);
  // Random circuits: backward from one state reachable from reset, to the
  // fixpoint (the depth bound is far beyond any these sizes need). Only
  // rand12x150: rand14x200 and rand16x240 runs take up to seconds, so the
  // few a seed draws would decide the run's figures.
  for (int i = 0; i < (smoke ? 1 : 740); ++i) {
    const Circuit* c = addRandomCircuit(pool, kRand12x150, i, rng);
    const int steps = static_cast<int>(rng.range(8, 64));
    pool.queries.push_back({c, stateReachedFromReset(c->system, steps, rng), 1000});
  }
}

Pool makePool(const Args& args) {
  const bool smoke = args.smoke;
  Rng rng(args.seed * 0x2545f4914f6cdd1dull + 0x1234567u);
  Timer timer;
  Pool pool;
  // One target per circuit, and many circuits: a seed's pool is then a fair
  // sample, which a few circuits with heavy-tailed run times are not. The
  // larger shapes are a small share for the same reason.
  if (args.mode == "oneshot-cube") {
    addRandomQueries(pool, {{kRand20x400, 1560, 1}, {kRand24x600, 24, 1}}, smoke, rng);
  } else if (args.mode == "oneshot-sd-j4") {
    addRandomQueries(pool, {{kRand16x240, 760, 1}, {kRand18x320, 28, 1}}, smoke, rng);
  } else if (args.mode == "reach-sd") {
    addReachQueries(pool, smoke, rng);
  } else if (args.mode == "serve-pool" || args.mode == "serve-replay") {
    addRandomQueries(pool, {{kRand14x200, 600, 2}}, smoke, rng);
  } else {
    usage(("unknown mode " + args.mode).c_str());
  }
  // The order the queries run in (Fisher-Yates).
  for (size_t i = pool.queries.size(); i > 1; --i) {
    std::swap(pool.queries[i - 1], pool.queries[rng.below(i)]);
  }
  for (size_t i = 0; i < pool.queries.size(); ++i) pool.queries[i].index = i;
  pool.genMs = timer.millis();
  return pool;
}

// FNV-1a over every circuit's .bench text and every query's target and
// depth: two runs saw the same inputs iff their digests match.
std::string poolDigest(const Pool& pool) {
  uint64_t h = 0xcbf29ce484222325ull;
  auto feed = [&h](const std::string& s) {
    for (unsigned char ch : s) {
      h ^= ch;
      h *= 0x100000001b3ull;
    }
    h ^= 0xff;
    h *= 0x100000001b3ull;
  };
  for (const auto& c : pool.circuits) feed(toBenchString(c->netlist));
  for (const Query& q : pool.queries) {
    feed(q.target.toString());
    feed(std::to_string(q.maxDepth));
  }
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, h);
  return buf;
}

// --- workloads ----------------------------------------------------------

// One query's answer, as compared across repeats and against the oracle.
struct Answer {
  BigUint count;
  size_t cubes = 0;
  StateSet states;  // the cover (reach-sd: the reached set)
  int depth = 0;    // reach-sd: steps taken
};

// Per-layer counters gathered on the traced loop's first pass, so they
// repeat exactly for a given seed.
using Counters = std::map<std::string, double>;

// A workload runs one query untraced (`run`) or traced (`runTraced`, which
// also runs that query's per-layer probes when `probe` is set — once per
// pool entry).
class Workload {
 public:
  virtual ~Workload() = default;
  Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  virtual Answer run(const Query& q) = 0;
  virtual Answer runTraced(const Query& q, int64_t id, bool probe, Tracer& tracer,
                           Counters& counters) = 0;
  // Names of the spans that make up a traced query (for span coverage).
  virtual std::vector<std::string> layerSpans() const = 0;
  // Oracle check of the first answer to `q`, outside the timed region.
  // Called from several threads at once.
  virtual bool check(const Query& q, const Answer& a) const = 0;
  virtual void finish(Counters&) {}
};

Answer fromPreimage(PreimageResult&& r) {
  Answer a;
  a.count = std::move(r.stateCount);
  a.cubes = r.states.cubes.size();
  a.states = std::move(r.states);
  return a;
}

BigUint bddCount(const Query& q) {
  return computePreimage(q.circuit->system, q.target, PreimageMethod::kBdd).stateCount;
}

// Counters of the CNF engines (the CDCL solver, blocking, chrono).
void addSatStats(Counters& c, const AllSatStats& s) {
  c["sat.conflicts"] += static_cast<double>(s.conflicts);
  c["sat.decisions"] += static_cast<double>(s.decisions);
  c["sat.propagations"] += static_cast<double>(s.propagations);
  c["sat.db_clauses"] += static_cast<double>(s.dbClausesPeak);
  c["blocking.clauses"] += static_cast<double>(s.blockingClauses);
  c["chrono.flips"] += static_cast<double>(s.flips);
  c["chrono.shrink_lits"] += static_cast<double>(s.shrinkLits);
}

// Counters of the success-driven engine (which never runs the CDCL solver).
void addMemoStats(Counters& c, const AllSatStats& s) {
  c["memo.hits"] += static_cast<double>(s.memoHits);
  c["memo.misses"] += static_cast<double>(s.memoMisses);
  c["graph.nodes"] += static_cast<double>(s.graphNodes);
}

// The roots and frozen variables buildTransitionEncoding uses, so the
// circuit and cnf layers can be timed on their own.
std::vector<NodeId> encodingRoots(const TransitionSystem& system) {
  std::vector<NodeId> roots = system.nextStateRoots();
  for (NodeId s : system.stateNodes()) roots.push_back(s);
  return roots;
}

std::vector<Var> encodingFrozen(const TransitionSystem& system, const CircuitEncoding& enc) {
  std::vector<Var> frozen;
  for (NodeId s : system.stateNodes()) frozen.push_back(enc.varOf(s));
  for (NodeId r : system.nextStateRoots()) frozen.push_back(enc.varOf(r));
  return frozen;
}

// Times encodeCircuit and preprocessCnf on their own for one circuit.
void probeEncoding(const TransitionSystem& system, int64_t id, Tracer& tracer, Counters& c) {
  CircuitEncoding enc;
  {
    auto s = tracer.span("circuit.encode", id);
    enc = encodeCircuit(system.netlist(), encodingRoots(system));
  }
  std::vector<Var> frozen = encodingFrozen(system, enc);
  PreprocessedCnf pre;
  {
    auto s = tracer.span("cnf.preprocess", id);
    pre = preprocessCnf(enc.cnf, frozen);
  }
  c["cnf.vars_after"] += static_cast<double>(pre.stats.varsAfter);
  c["cnf.clauses_after"] += static_cast<double>(pre.stats.clausesAfter);
}

// Counts the cover's union through a scratch BDD.
BigUint probeCount(const Answer& a, int64_t id, Tracer& tracer) {
  auto s = tracer.span("bdd.count", id);
  return countCubeUnionMinterms(a.states.cubes, a.states.numStateBits);
}

// oneshot-cube: cold lifted cube blocking; each query encodes its circuit.
class OneshotCube : public Workload {
 public:
  Answer run(const Query& q) override {
    return fromPreimage(
        computePreimage(q.circuit->system, q.target, PreimageMethod::kCubeBlockingLifted));
  }

  Answer runTraced(const Query& q, int64_t id, bool probe, Tracer& tracer,
                   Counters& c) override {
    Answer a;
    {
      auto query = tracer.span("query", id);
      TransitionEncoding te;
      {
        auto s = tracer.span("preimage.encode", id);
        te = buildTransitionEncoding(q.circuit->system);
      }
      PreimageOptions opts;
      opts.encoding = &te;
      PreimageResult r;
      {
        auto s = tracer.span("allsat.enum", id);
        r = computePreimage(q.circuit->system, q.target, PreimageMethod::kCubeBlockingLifted,
                            opts);
      }
      if (probe) addSatStats(c, r.stats);
      a = fromPreimage(std::move(r));
    }
    if (probe) {
      probeEncoding(q.circuit->system, id, tracer, c);
      probeCount(a, id, tracer);
    }
    return a;
  }

  std::vector<std::string> layerSpans() const override {
    return {"preimage.encode", "allsat.enum"};
  }

  bool check(const Query& q, const Answer& a) const override { return a.count == bddCount(q); }
};

// oneshot-sd-j4: the paper's engine at jobs=4 (cube-and-conquer).
class OneshotSdJ4 : public Workload {
 public:
  static PreimageOptions options(int jobs) {
    PreimageOptions opts;
    opts.allsat.parallel.jobs = jobs;
    return opts;
  }

  Answer run(const Query& q) override {
    return fromPreimage(computePreimage(q.circuit->system, q.target,
                                        PreimageMethod::kSuccessDriven, options(4)));
  }

  Answer runTraced(const Query& q, int64_t id, bool probe, Tracer& tracer,
                   Counters& c) override {
    Answer a;
    double wallMs = 0.0;
    {
      auto query = tracer.span("query", id);
      auto s = tracer.span("allsat.enum", id);
      Timer t;
      PreimageResult r = computePreimage(q.circuit->system, q.target,
                                         PreimageMethod::kSuccessDriven, options(4));
      wallMs = t.millis();
      if (probe) {
        addMemoStats(c, r.stats);
        c["parallel.shards"] += static_cast<double>(r.metrics.counter("parallel.shards"));
        c["parallel.steals"] += static_cast<double>(r.metrics.counter("parallel.steals"));
        cpuMs_ += r.metrics.gauge("parallel.cpu_seconds") * 1e3;
        wallMs_ += wallMs;
      }
      a = fromPreimage(std::move(r));
    }
    if (probe) {
      // The split the parallel layer plans for this query.
      CircuitAllSatProblem problem;
      problem.netlist = &q.circuit->netlist;
      problem.projectionSources = q.circuit->system.stateNodes();
      for (Lit l : q.target.cubes.at(0)) {
        problem.objectives.emplace_back(q.circuit->system.nextStateRoot(l.var()), !l.sign());
      }
      {
        auto s = tracer.span("parallel.split", id);
        SplitPlan plan = planCircuitSplit(
            problem, resolveSplitDepth(-1, problem.projectionSources.size()));
        (void)plan;
      }
      // Serial cover size, the base of the cube inflation ratio.
      PreimageResult serial = computePreimage(q.circuit->system, q.target,
                                              PreimageMethod::kSuccessDriven, options(0));
      serialCubes_ += static_cast<double>(serial.states.cubes.size());
      parallelCubes_ += static_cast<double>(a.cubes);
      probeCount(a, id, tracer);
    }
    return a;
  }

  std::vector<std::string> layerSpans() const override { return {"allsat.enum"}; }

  // The count must match the BDD engine's, and the cover must be
  // bit-identical to the jobs=1 cover (checked on every fourth pool entry).
  bool check(const Query& q, const Answer& a) const override {
    if (a.count != bddCount(q)) return false;
    if (q.index % 4 != 0) return true;
    PreimageResult one = computePreimage(q.circuit->system, q.target,
                                         PreimageMethod::kSuccessDriven, options(1));
    return one.states.cubes == a.states.cubes;
  }

  void finish(Counters& c) override {
    c["parallel.busy_ratio"] = wallMs_ > 0.0 ? cpuMs_ / (4.0 * wallMs_) : 0.0;
    c["parallel.cube_inflation"] = serialCubes_ > 0.0 ? parallelCubes_ / serialCubes_ : 0.0;
  }

 private:
  double cpuMs_ = 0.0;
  double wallMs_ = 0.0;
  double serialCubes_ = 0.0;
  double parallelCubes_ = 0.0;
};

// reach-sd: serial backward reachability with the success-driven engine.
class ReachSd : public Workload {
 public:
  static Answer fromReach(ReachabilityResult&& r) {
    Answer a;
    a.count = r.steps.empty() ? BigUint(0) : r.steps.back().totalStates;
    a.cubes = r.reached.cubes.size();
    a.depth = static_cast<int>(r.steps.size());
    a.states = std::move(r.reached);
    return a;
  }

  Answer run(const Query& q) override {
    return fromReach(
        backwardReach(q.circuit->system, q.target, q.maxDepth, PreimageMethod::kSuccessDriven));
  }

  Answer runTraced(const Query& q, int64_t id, bool probe, Tracer& tracer,
                   Counters& c) override {
    Answer a;
    {
      auto query = tracer.span("query", id);
      double startUs = tracer.nowUs();
      ReachabilityResult r;
      {
        auto s = tracer.span("reach", id);
        r = backwardReach(q.circuit->system, q.target, q.maxDepth,
                          PreimageMethod::kSuccessDriven);
      }
      // Lay the program's own per-step timers out inside the reach span:
      // each step's preimage, then its set algebra.
      double at = startUs;
      for (const ReachabilityStep& step : r.steps) {
        tracer.recordMeasured("reach.step", id, at, step.seconds * 1e6);
        at += step.seconds * 1e6;
        tracer.recordMeasured("bdd.algebra", id, at, step.algebraSeconds * 1e6);
        at += step.algebraSeconds * 1e6;
      }
      if (probe) {
        for (const ReachabilityStep& step : r.steps) {
          addMemoStats(c, step.stats);
          c["reach.frontier_cubes"] += static_cast<double>(step.frontierCubes);
        }
        c["reach.steps"] += static_cast<double>(r.steps.size());
      }
      a = fromReach(std::move(r));
    }
    if (probe) probeCount(a, id, tracer);
    return a;
  }

  std::vector<std::string> layerSpans() const override { return {"reach.step", "bdd.algebra"}; }

  bool check(const Query& q, const Answer& a) const override {
    Answer oracle =
        fromReach(backwardReach(q.circuit->system, q.target, q.maxDepth, PreimageMethod::kBdd));
    return a.count == oracle.count && a.depth == oracle.depth &&
           sameStates(a.states, oracle.states);
  }
};

std::unique_ptr<Workload> makeWorkload(const std::string& mode) {
  if (mode == "oneshot-cube") return std::make_unique<OneshotCube>();
  if (mode == "oneshot-sd-j4") return std::make_unique<OneshotSdJ4>();
  if (mode == "reach-sd") return std::make_unique<ReachSd>();
  usage(("unknown mode " + mode).c_str());
}

// Runs every oracle check on kCheckThreads threads; ok[i] != 0 iff the
// first answer to query i passed.
constexpr size_t kCheckThreads = 4;

std::vector<char> checkAll(const Workload& w, const Pool& pool, const std::vector<Answer>& first) {
  std::vector<char> ok(pool.queries.size(), 0);
  std::atomic<size_t> next{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kCheckThreads; ++t) {
    threads.emplace_back([&] {
      for (size_t i = next++; i < ok.size(); i = next++) {
        ok[i] = w.check(pool.queries[i], first[i]) ? 1 : 0;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  return ok;
}

// Latencies of one timed loop, per pool entry.
struct LoopResult {
  std::vector<std::vector<double>> latMs;  // [pool entry] -> one sample per pass
  std::vector<double> referenceMs;         // the reference kernel's times
  std::vector<double> peakMb;              // peak memory of each stretch
  size_t samples = 0;
  size_t failed = 0;
  double wallMs = 0.0;                     // the queries' share of the loop
  double asideMs = 0.0;                    // the rest: reference and memory probes

  // Each entry's fastest of its (fixed number of) repeats: the sample least
  // disturbed by whatever else the machine ran meanwhile.
  std::vector<double> entryMs() const {
    std::vector<double> out;
    for (const std::vector<double>& v : latMs) out.push_back(*std::min_element(v.begin(), v.end()));
    return out;
  }
};

// The reference kernel runs before every kReferenceEvery-th query.
constexpr size_t kReferenceEvery = 16;
// A loop's peak memory is taken over this many stretches of it.
constexpr size_t kMemoryStretches = 16;

// Closed loop, one caller: runs the pool `passes` times over, however long
// that takes. Answers are compared to the first answer for the same query
// (recorded into `first` on the first visit).
LoopResult timedLoop(Workload& w, const Pool& pool, size_t passes, bool traced, Tracer& tracer,
                     Counters& counters, std::vector<Answer>& first, std::vector<bool>& have,
                     int64_t& nextId, ReferenceKernel& reference) {
  const size_t n = pool.queries.size();
  LoopResult out;
  out.latMs.resize(n);
  const size_t stretch = (passes * n + kMemoryStretches - 1) / kMemoryStretches;
  Timer wall;
  for (size_t k = 0; k < passes * n; ++k) {
    const size_t i = k % n;
    const Query& q = pool.queries[i];
    Timer aside;
    if (k % kReferenceEvery == 0) out.referenceMs.push_back(reference.runMs());
    if (k % stretch == 0) {
      if (k > 0) out.peakMb.push_back(highWaterMb());
      resetHighWater();
    }
    out.asideMs += aside.millis();
    Timer t;
    Answer a = traced ? w.runTraced(q, nextId++, k < n, tracer, counters) : w.run(q);
    out.latMs[i].push_back(t.millis());
    ++out.samples;
    if (!have[i]) {
      first[i] = std::move(a);
      have[i] = true;
    } else if (a.count != first[i].count || a.cubes != first[i].cubes) {
      ++out.failed;
    }
  }
  out.peakMb.push_back(highWaterMb());
  out.wallMs = wall.millis() - out.asideMs;
  return out;
}

// p50/p90 over the pool entries' fastest latencies, the queries answered
// per second of the loop's wall time, and the median of the stretches' peak
// memory: the whole run's peak would be the one largest query the seed drew.
void writeLoopMetrics(serve::JsonObjectWriter& m, const LoopResult& r) {
  std::vector<double> ms = r.entryMs();
  num(m, "query_ms.p50", quantile(ms, 0.5));
  num(m, "query_ms.p90", quantile(ms, 0.9));
  num(m, "queries_per_s", 1e3 * static_cast<double>(r.samples) / r.wallMs);
  num(m, "query_ms.samples", static_cast<double>(r.samples));
  num(m, "host.reference_ms", quantile(r.referenceMs, 0.5));
  num(m, "peak_rss_mb", quantile(r.peakMb, 0.5));
}

// Geometric mean of the cover sizes: every query's cover counts alike,
// where a plain mean would follow the few largest covers the seed drew.
double geomeanCubes(const std::vector<Answer>& answers) {
  double logs = 0.0;
  for (const Answer& a : answers) logs += std::log(std::max<double>(1.0, a.cubes));
  return std::exp(logs / static_cast<double>(answers.size()));
}

int runQueries(const Args& args) {
  Pool pool = makePool(args);
  const std::string digest = poolDigest(pool);
  if (args.setupOnly) {
    serve::JsonObjectWriter line;
    line.field("digest", digest);
    num(line, "gen_ms", pool.genMs);
    std::printf("%s\n", line.str().c_str());
    return 0;
  }
  std::unique_ptr<Workload> w = makeWorkload(args.mode);
  const size_t n = pool.queries.size();
  std::vector<Answer> first(n);
  std::vector<bool> have(n, false);
  Tracer tracer;
  Counters counters;
  int64_t nextId = 0;
  ReferenceKernel reference;

  // A traced run spends half its passes untraced and half traced, so the
  // two halves take their fastest repeat over the same count.
  const size_t passes = args.trace ? std::max<size_t>(1, args.passes / 2) : args.passes;
  LoopResult plain =
      timedLoop(*w, pool, passes, false, tracer, counters, first, have, nextId, reference);
  LoopResult traced;
  if (args.trace) {
    tracer.setEnabled(true);
    traced = timedLoop(*w, pool, passes, true, tracer, counters, first, have, nextId, reference);
    tracer.setEnabled(false);
  }

  // Correctness gate, outside the timed region.
  const size_t attempted = plain.samples + traced.samples;
  size_t failed = plain.failed + traced.failed;
  if (args.corrupt) first[0].count += BigUint(1);
  std::vector<char> ok = checkAll(*w, pool, first);
  for (size_t i = 0; i < n; ++i) {
    if (ok[i] == 0) {
      ++failed;
      std::fprintf(stderr, "perfbench: wrong answer on %s query %zu (%s)\n", args.mode.c_str(), i,
                   pool.queries[i].circuit->name.c_str());
    }
  }

  serve::JsonObjectWriter m;
  writeLoopMetrics(m, plain);
  num(m, "cubes_per_query", geomeanCubes(first));
  if (args.trace) {
    w->finish(counters);
    for (const auto& [name, value] : counters) num(m, name, value);
    if (counters.count("memo.misses") != 0) {
      double probes = counters["memo.hits"] + counters["memo.misses"];
      num(m, "memo.hit_ratio", probes > 0 ? counters["memo.hits"] / probes : 0.0);
    }
    for (const char* span : {"preimage.encode", "circuit.encode", "cnf.preprocess", "bdd.count",
                             "parallel.split", "bdd.algebra"}) {
      num(m, std::string(span) + "_ms", tracer.meanMs(span));
    }
    num(m, "reach.step_ms", tracer.meanMs("reach.step"));
    // A reach query's enumeration time is its steps' preimage time.
    num(m, "allsat.enum_ms", args.mode == "reach-sd"
                                ? tracer.totalMs("reach.step") / tracer.count("query")
                                : tracer.meanMs("allsat.enum"));
    double layerMs = 0.0;
    for (const std::string& s : w->layerSpans()) layerMs += tracer.totalMs(s);
    num(m, "trace.span_coverage", layerMs / tracer.totalMs("query"));
    const double tracedP50 = quantile(traced.entryMs(), 0.5);
    num(m, "trace.overhead_ms", tracedP50 - quantile(plain.entryMs(), 0.5));
    if (!tracer.write(args.traceOut)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", args.traceOut.c_str());
      ++failed;
    }
  }
  num(m, "gen.build_ms", pool.genMs);

  serve::JsonObjectWriter line;
  line.field("workload", args.mode);
  line.field("digest", digest);
  num(line, "attempted", static_cast<double>(attempted));
  num(line, "failed", static_cast<double>(failed));
  line.fieldRaw("metrics", m.str());
  std::printf("%s\n", line.str().c_str());
  return failed == 0 ? 0 : 1;
}

// --- serve-mixed support -------------------------------------------------

std::string targetText(const StateSet& target) {
  return serve::cubeToText(target.cubes.at(0), target.numStateBits);
}

// Prints the serve pool (circuits as .bench text, (circuit, target) pairs)
// for run.py's client to send to presat_serve.
int runServePool(const Args& args) {
  Pool pool = makePool(args);
  serve::JsonObjectWriter line;
  line.field("digest", poolDigest(pool));
  num(line, "gen_ms", pool.genMs);
  if (!args.setupOnly) {
    std::map<const Circuit*, size_t> index;
    std::string circuits = "[";
    for (size_t i = 0; i < pool.circuits.size(); ++i) {
      index[pool.circuits[i].get()] = i;
      circuits += (i == 0 ? "\"" : ",\"") + serve::jsonEscape(toBenchString(pool.circuits[i]->netlist)) + "\"";
    }
    std::string pairs = "[";
    for (size_t i = 0; i < pool.queries.size(); ++i) {
      const Query& q = pool.queries[i];
      pairs += (i == 0 ? "[" : ",[") + std::to_string(index[q.circuit]) + ",\"" +
               targetText(q.target) + "\"]";
    }
    line.fieldRaw("circuits", circuits + "]");
    line.fieldRaw("pairs", pairs + "]");
  }
  std::printf("%s\n", line.str().c_str());
  return 0;
}

// Replays the first `limit` serve pairs in-process with the daemon's engine
// settings (chrono, project, jobs=1 as the daemon clamps it) on a
// per-circuit encoding like its context pool, then runs the compress and
// cert layers on the cover through their own entry points, so each layer
// gets a span of its own.
int runServeReplay(const Args& args) {
  Pool pool = makePool(args);
  Tracer tracer;
  tracer.setEnabled(true);
  Counters c;
  const size_t limit = std::min<size_t>(pool.queries.size(), args.smoke ? 2 : 12);
  std::map<const Circuit*, std::unique_ptr<TransitionEncoding>> encodings;
  size_t failed = 0;
  for (size_t i = 0; i < limit; ++i) {
    const Query& q = pool.queries[i];
    const TransitionSystem& system = q.circuit->system;
    const int64_t id = static_cast<int64_t>(i);
    std::unique_ptr<TransitionEncoding>& te = encodings[q.circuit];
    if (!te) {
      {
        auto s = tracer.span("preimage.encode", id);
        te = std::make_unique<TransitionEncoding>(buildTransitionEncoding(system));
      }
      probeEncoding(system, id, tracer, c);
    }
    PreimageOptions opts;
    opts.encoding = te.get();
    opts.allsat.project = true;
    opts.allsat.parallel.jobs = 1;
    PreimageResult r;
    {
      auto s = tracer.span("allsat.enum", id);
      r = computePreimage(system, q.target, PreimageMethod::kChrono, opts);
    }
    addSatStats(c, r.stats);

    std::vector<CompressMergeRecord> merges;
    CompressStats cs;
    {
      auto s = tracer.span("compress", id);
      cs = compressCubes(r.states.cubes, nullptr, &merges);
    }
    c["compress.cubes_in"] += static_cast<double>(cs.cubesIn);
    c["compress.cubes_out"] += static_cast<double>(cs.cubesOut);

    // The query's formula as the certificate states it: the shared base
    // formula plus the target cube's units, in the internal numbering.
    Cnf cnf = te->base.cnf;
    for (Lit l : q.target.cubes.at(0)) {
      cnf.addUnit(te->base.internalLit(te->enc.litOf(system.nextStateRoot(l.var()), !l.sign())));
    }
    std::vector<Var> scope;
    for (Var v : te->projection) scope.push_back(te->base.internalVar(v));
    CertificateSpec spec;
    spec.cnf = &cnf;
    spec.scope = &scope;
    spec.cubes = &r.states.cubes;
    if (!r.guides.empty()) spec.guides = &r.guides;
    if (!merges.empty()) spec.merges = &merges;
    spec.outcome = r.outcome;
    spec.disjoint = true;
    spec.engine = "chrono";
    spec.circuitHash = netlistStructuralHash(q.circuit->netlist);
    spec.jobs = 1;
    spec.project = true;
    spec.compress = true;
    CertificateResult cert;
    {
      auto s = tracer.span("cert", id);
      cert = buildCertificate(spec);
    }
    c["cert.bytes"] += static_cast<double>(cert.cert.size());

    Answer a = fromPreimage(std::move(r));
    if (probeCount(a, id, tracer) != a.count || a.count != bddCount(q)) ++failed;
  }
  serve::JsonObjectWriter m;
  for (const auto& [name, value] : c) num(m, name, value);
  for (const char* span : {"preimage.encode", "circuit.encode", "cnf.preprocess", "allsat.enum",
                           "bdd.count"}) {
    num(m, std::string(span) + "_ms", tracer.meanMs(span));
  }
  num(m, "compress.ms", tracer.meanMs("compress"));
  num(m, "cert.ms", tracer.meanMs("cert"));
  if (!tracer.write(args.traceOut)) ++failed;
  serve::JsonObjectWriter line;
  line.field("digest", poolDigest(pool));
  num(line, "attempted", static_cast<double>(limit));
  num(line, "failed", static_cast<double>(failed));
  line.fieldRaw("metrics", m.str());
  std::printf("%s\n", line.str().c_str());
  return failed == 0 ? 0 : 1;
}

// Prints the reference kernel's median time over a few runs.
int runReference() {
  ReferenceKernel reference;
  std::vector<double> ms;
  for (int i = 0; i < 5; ++i) ms.push_back(reference.runMs());
  serve::JsonObjectWriter line;
  num(line, "reference_ms", quantile(ms, 0.5));
  num(line, "sink", static_cast<double>(reference.sink() & 0xffff));
  std::printf("%s\n", line.str().c_str());
  return 0;
}

}  // namespace
}  // namespace presat::perfbench

int main(int argc, char** argv) {
  using namespace presat::perfbench;
  Args args = parseArgs(argc, argv);
  if (args.mode == "reference") return runReference();
  if (args.mode == "serve-pool") return runServePool(args);
  if (args.mode == "serve-replay") return runServeReplay(args);
  return runQueries(args);
}
