// presat command-line driver.
//
// Usage:
//   presat_cli info    <file.bench>
//   presat_cli allsat  <file.cnf>  [--method minterm|cube|sd|chrono] [--max N]
//                                  [--stats json]
//   presat_cli preimage <file.bench>|--gen SPEC --target CUBE [--method NAME] [--stats json]
//                                    [--cert FILE]
//   presat_cli image    <file.bench> --from CUBE [--method minterm|bdd]
//   presat_cli reach    <file.bench>|--gen SPEC --target CUBE [--depth N] [--method NAME]
//                                    [--stats json]
//   presat_cli safety   <file.bench>|--gen SPEC --init CUBE --bad CUBE [--depth N]
//                                    [--method NAME]
//                                    [--stats json]
//   presat_cli bmc      <file.bench> --init CUBE --target CUBE [--depth N]
//   presat_cli audit    <file.cnf> | --gen SPEC [--target CUBE]
//
// The SAT-based enumeration commands (allsat, preimage, reach, safety, audit)
// also accept:
//   --project   projected enumeration: chrono stops at existential witnesses
//               and emits cubes natively over the projection scope; lifted
//               cube blocking returns the ISOP of its possibly overlapping
//               cover (same state set, fewer cubes)
//   --compress  every engine returns the ISOP of its cover's union, the
//               cover success-driven and bdd return (same state set; the
//               cubes may overlap)
// and the resource-budget flags (src/govern/; any of them attaches a
// Governor; a budgeted run that stops early prints the stop reason and exits
// with code 2, its printed cubes being a sound under-approximation):
//   --timeout-ms N      wall-clock deadline
//   --mem-limit-mb N    tracked-byte memory ceiling (clause arena +
//                       solution graph + BDD pool)
//   --conflict-limit N  global CDCL conflict cap
// The deterministic fault-injection hooks (PRESAT_FAULTS builds) arm from
// the PRESAT_FAULT_SITE / PRESAT_FAULT_AFTER / PRESAT_FAULT_SEED environment
// variables at startup.
//
// CUBE is a string over the state bits, LSB (state bit 0) first, using
// '0', '1', and 'x'/'-' for don't-care, e.g. --target 1x0x. Preimage METHOD
// names are those printed by the tool (minterm-blocking, cube-blocking-lifted,
// success-driven, chrono, bdd). Each command takes only the flags listed for
// it; any other flag, one another command reads included, is an error
// (exit 2).
//
// `allsat` and `audit` preprocess a .cnf input once (cnf/preprocess.hpp,
// projection scope frozen) before its CNF engines run, as the circuit
// commands do per circuit; success-driven reads the input formula itself.
//
// `audit` is the enumeration cross-checker: it runs every engine on the same
// instance, validates the per-engine invariants (disjoint minterms, sound
// cubes, well-formed solution graphs), and checks that all engines agree on
// the solution set. Exit 0 = all invariants hold; exit 1 prints each violated
// invariant by name. SPEC is one of counter:N, gray:N, lfsr:N, shift:N,
// arbiter:N, accum:N, traffic, lock (the grammar presat_serve's `gen` field
// takes); a malformed SPEC or numeric flag value is a usage error (exit 2).
// On a .cnf file `audit` runs ungoverned and takes neither --target nor a
// budget flag.
#include <algorithm>
#include <charconv>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "allsat/blocking.hpp"
#include "allsat/chrono_blocking.hpp"
#include "allsat/lifting.hpp"
#include "allsat/success_driven.hpp"
#include "bdd/bdd.hpp"
#include "check/audit.hpp"
#include "check/audit_bdd.hpp"
#include "check/audit_chrono.hpp"
#include "check/audit_netlist.hpp"
#include "check/audit_solution_graph.hpp"
#include "circuit/bench_io.hpp"
#include "circuit/from_cnf.hpp"
#include "cnf/dimacs.hpp"
#include "cnf/preprocess.hpp"
#include "govern/faults.hpp"
#include "govern/governor.hpp"
#include "preimage/bmc.hpp"
#include "preimage/image.hpp"
#include "preimage/reachability.hpp"
#include "preimage/safety.hpp"
#include "sat/solver.hpp"
#include "serve/session.hpp"
#include "serve/version.hpp"

using namespace presat;

namespace {

[[noreturn]] void usage(const char* msg = nullptr) {
  if (msg) std::fprintf(stderr, "error: %s\n\n", msg);
  std::fprintf(stderr,
               "usage:\n"
               "  presat_cli info     <file.bench>\n"
               "  presat_cli allsat   <file.cnf>   [--method minterm|cube|sd|chrono] [--max N]\n"
               "                                   [--stats json]\n"
               "  presat_cli preimage <file.bench>|--gen SPEC --target CUBE [--method NAME]\n"
               "                                   [--stats json] [--cert FILE]\n"
               "  presat_cli image    <file.bench> --from CUBE [--method minterm|bdd]\n"
               "  presat_cli reach    <file.bench>|--gen SPEC --target CUBE [--depth N]\n"
               "                                   [--method NAME] [--stats json]\n"
               "  presat_cli safety   <file.bench>|--gen SPEC --init CUBE --bad CUBE\n"
               "                                   [--depth N] [--method NAME] [--stats json]\n"
               "  presat_cli version\n"
               "  presat_cli bmc      <file.bench> --init CUBE --target CUBE [--depth N]\n"
               "  presat_cli audit    <file.cnf> | --gen SPEC [--target CUBE]\n"
               "\nSAT enumeration commands also take --project (projected enumeration over\n"
               "the scope) and --compress (the ISOP of the cover's union, as sd and bdd\n"
               "return).\n"
               "Budgets: --timeout-ms N, --mem-limit-mb N, --conflict-limit N; a run that\n"
               "stops on a budget prints the reason and exits 2 with a sound partial result.\n"
               "CUBE: one char per state bit (bit 0 first): 0, 1, x/- for don't-care.\n"
               "SPEC: counter:N gray:N lfsr:N shift:N arbiter:N accum:N traffic lock\n"
               "A flag not listed for the command is an error.\n");
  std::exit(2);
}

// Parses remaining argv into a flag map; positional args returned separately.
struct Args {
  std::vector<std::string> positional;
  std::map<std::string, std::string> flags;

  std::string flag(const std::string& name, const std::string& fallback = "") const {
    auto it = flags.find(name);
    return it == flags.end() ? fallback : it->second;
  }
  // Numeric flags are plain decimal digits: a sign, a suffix or an
  // out-of-range value is a usage error, never a silent 0.
  uint64_t u64Flag(const std::string& name, uint64_t fallback, uint64_t max = UINT64_MAX) const;
  int intFlag(const std::string& name, int fallback) const {
    return static_cast<int>(u64Flag(name, static_cast<uint64_t>(fallback), INT_MAX));
  }
  bool boolFlag(const std::string& name) const { return flags.count(name) != 0; }
};

uint64_t Args::u64Flag(const std::string& name, uint64_t fallback, uint64_t max) const {
  auto it = flags.find(name);
  if (it == flags.end()) return fallback;
  const std::string& text = it->second;
  uint64_t value = 0;
  auto [end, ec] = std::from_chars(text.data(), text.data() + text.size(), value);
  if (text.empty() || ec != std::errc() || end != text.data() + text.size() || value > max) {
    usage(("--" + name + " needs a decimal number in [0, " + std::to_string(max) + "], got '" +
           text + "'")
              .c_str());
  }
  return value;
}

// One command: the flags it reads and its handler. parseArgs rejects any
// other flag, so a flag the command would ignore is a usage error, not a
// silent no-op.
struct Command {
  std::string_view name;
  // The engine knobs (applyEngineFlags) and budgets (makeGovernor) of the
  // SAT enumeration commands.
  bool engine;
  std::vector<std::string_view> own;
  int (*run)(const Args& args);
};
constexpr std::string_view kEngineFlags[] = {"project", "compress", "timeout-ms",
                                             "mem-limit-mb", "conflict-limit"};

bool takesFlag(const Command& command, std::string_view name) {
  if (command.engine &&
      std::find(std::begin(kEngineFlags), std::end(kEngineFlags), name) != std::end(kEngineFlags)) {
    return true;
  }
  return std::find(command.own.begin(), command.own.end(), name) != command.own.end();
}

// Valueless switches: presence alone turns the mode on.
bool isBooleanFlag(const std::string& name) { return name == "project" || name == "compress"; }

// Shared --project/--compress handling for the SAT enumeration commands.
void applyEngineFlags(const Args& args, AllSatOptions& options) {
  if (args.boolFlag("project")) options.project = true;
  if (args.boolFlag("compress")) options.compress = true;
}

// Shared --timeout-ms/--mem-limit-mb/--conflict-limit handling: builds the
// Governor for a budgeted command, or null when no budget flag is given so
// unbudgeted runs keep the ungoverned hot path (and bit-identical output).
std::unique_ptr<Governor> makeGovernor(const Args& args) {
  Budget budget;
  budget.deadlineSeconds = static_cast<double>(args.u64Flag("timeout-ms", 0)) / 1000.0;
  // Megabytes are shifted into bytes, so the range stops where the shift
  // would overflow (2^44 - 1), as in presat_serve.
  budget.memLimitBytes = args.u64Flag("mem-limit-mb", 0, UINT64_MAX >> 20) << 20;
  budget.conflictLimit = args.u64Flag("conflict-limit", 0);
  if (budget.unlimited()) return nullptr;
  return std::make_unique<Governor>(budget);
}

// Prints the partial-result notice and maps the outcome onto the documented
// exit codes: 0 = complete, 2 = stopped early with a sound partial result.
int finishOutcome(Outcome outcome) {
  if (outcome == Outcome::kComplete) return 0;
  // stderr, so `--stats json | check_json.py stats` keeps a clean JSON stream.
  std::fprintf(stderr, "partial result: stopped on %s (sound under-approximation)\n",
               outcomeName(outcome));
  return 2;
}

void writeFileOrDie(const std::string& path, const std::string& content) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) usage(("cannot write " + path).c_str());
  if (!content.empty() && std::fwrite(content.data(), 1, content.size(), f) != content.size()) {
    std::fclose(f);
    usage(("short write to " + path).c_str());
  }
  std::fclose(f);
}

Args parseArgs(int argc, char** argv, int start, const Command& command) {
  Args args;
  for (int i = start; i < argc; ++i) {
    std::string a = argv[i];
    if (a.rfind("--", 0) == 0) {
      std::string name = a.substr(2);
      if (!takesFlag(command, name)) {
        usage(("unknown flag " + a + " for " + std::string(command.name)).c_str());
      }
      if (isBooleanFlag(name)) {
        args.flags[name] = "1";
        continue;
      }
      if (i + 1 >= argc) usage(("missing value for " + a).c_str());
      args.flags[name] = argv[++i];
    } else {
      args.positional.push_back(a);
    }
  }
  return args;
}

// A CUBE argument, through presat_serve's parser: a malformed cube is a
// usage error.
StateSet parseCubeArg(const std::string& text, int numStateBits) {
  LitVec cube;
  std::string error;
  if (!serve::parseTargetCube(text, numStateBits, &cube, &error)) usage(error.c_str());
  return StateSet::fromCube(numStateBits, std::move(cube));
}

PreimageMethod parsePreimageMethod(const std::string& name) {
  for (PreimageMethod m : kAllPreimageMethods) {
    if (name == preimageMethodName(m)) return m;
  }
  usage(("unknown preimage method: " + name).c_str());
}

std::string stateToString(const std::vector<bool>& state) {
  std::string s;
  for (bool b : state) s += b ? '1' : '0';
  return s;
}

// One line per trace state, with the inputs that drive it to the next.
void printTrace(const std::vector<std::vector<bool>>& states,
                const std::vector<std::vector<bool>>& inputs) {
  for (size_t t = 0; t < states.size(); ++t) {
    std::printf("  %s", stateToString(states[t]).c_str());
    if (t < inputs.size()) std::printf("  in=%s", stateToString(inputs[t]).c_str());
    std::printf("\n");
  }
}

// A --gen SPEC circuit, through presat_serve's validator with only the
// generators' own width caps: a malformed spec is a usage error.
Netlist buildGenerator(const std::string& spec) {
  serve::SessionLimits limits;
  limits.maxGenBits = INT_MAX;
  Netlist nl;
  std::string error;
  if (!serve::buildGeneratorChecked(spec, limits, &nl, &error)) usage(error.c_str());
  return nl;
}

// The sequential commands take either a .bench file or a --gen SPEC circuit
// (the latter keeps CI loops free of fixture files).
Netlist loadNetlist(const Args& args) {
  if (!args.flag("gen").empty()) return buildGenerator(args.flag("gen"));
  if (args.positional.empty()) usage("missing input file (or --gen SPEC)");
  return parseBenchFile(args.positional[0]);
}

int cmdInfo(const Args& args) {
  Netlist nl = parseBenchFile(args.positional[0]);
  std::printf("nodes: %zu, gates: %zu, inputs: %zu, dffs: %zu, outputs: %zu\n", nl.numNodes(),
              nl.numGates(), nl.inputs().size(), nl.dffs().size(), nl.outputs().size());
  std::vector<int> levels = nl.levels();
  int depth = 0;
  for (int l : levels) depth = std::max(depth, l);
  std::printf("logic depth: %d\n", depth);
  std::printf("state bits (preimage order):");
  for (NodeId d : nl.dffs()) std::printf(" %s", nl.name(d).c_str());
  std::printf("\n");
  return 0;
}

// A DIMACS input's formula and projection scope: its `c proj` line, or
// every variable.
struct DimacsInput {
  Cnf cnf;
  std::vector<Var> projection;
};

DimacsInput readDimacsInput(const std::string& path) {
  DimacsFile file = parseDimacsFile(path);
  DimacsInput input{std::move(file.cnf), {}};
  if (file.projection) {
    input.projection = std::move(*file.projection);
  } else {
    for (Var v = 0; v < input.cnf.numVars(); ++v) input.projection.push_back(v);
  }
  return input;
}

int cmdAllsat(const Args& args) {
  const DimacsInput input = readDimacsInput(args.positional[0]);
  const std::vector<Var>& projection = input.projection;
  AllSatOptions options;
  options.maxCubes = args.u64Flag("max", 0);
  applyEngineFlags(args, options);
  std::unique_ptr<Governor> governor = makeGovernor(args);
  options.governor = governor.get();
  std::string method = args.flag("method", "sd");

  AllSatResult result;
  if (method == "minterm" || method == "cube" || method == "chrono") {
    if (method == "cube" && projection.size() != static_cast<size_t>(input.cnf.numVars())) {
      usage("--method cube needs a full projection (implicant lifting)");
    }
    // The CNF engines enumerate the input preprocessed once with its scope
    // frozen, as buildTransitionEncoding does for a circuit. The scope maps
    // index by index, so their cubes need no translation back.
    const PreprocessedCnf pre = preprocessCnf(input.cnf, projection, governor.get());
    const std::vector<Var> scope = pre.internalVars(projection);
    const Cnf& cnf = pre.cnf;
    if (method == "chrono") {
      result = chronoAllSat(cnf, scope, options);
    } else {
      // One blocking engine; "cube" hands it the implicant lifter.
      ModelLifter lifter;
      if (method == "cube") {
        lifter = [&cnf](const std::vector<lbool>& m) { return shrinkModelToImplicant(cnf, m); };
      }
      result = blockingAllSat(cnf, scope, lifter, options);
    }
    exportPreprocessMetrics(pre.stats, result.metrics);
  } else if (method == "sd") {
    CnfCircuit circuit = cnfToCircuit(input.cnf);
    CircuitAllSatProblem problem;
    problem.netlist = &circuit.netlist;
    problem.objectives = {{circuit.root, true}};
    for (Var v : projection) problem.projectionSources.push_back(circuit.varNode[static_cast<size_t>(v)]);
    SuccessDrivenResult sd = successDrivenAllSat(problem, options);
    result = std::move(sd.summary);
    std::printf("solution graph: %llu nodes, %llu edges, %llu memo hits\n",
                static_cast<unsigned long long>(result.stats.graphNodes),
                static_cast<unsigned long long>(result.stats.graphEdges),
                static_cast<unsigned long long>(result.stats.memoHits));
  } else {
    usage(("unknown allsat method: " + method).c_str());
  }
  std::printf("%s solutions in %zu cubes%s (%.3f ms)\n", result.mintermCount.toDecimal().c_str(),
              result.cubes.size(), result.complete ? "" : " [truncated]",
              result.stats.seconds * 1e3);
  for (const LitVec& cube : result.cubes) {
    std::printf("  %s\n", serve::cubeToText(cube, static_cast<int>(projection.size())).c_str());
  }
  if (args.flag("stats") == "json") {
    std::printf("%s\n", result.metrics.toJson().c_str());
  }
  return finishOutcome(result.outcome);
}

int cmdPreimage(const Args& args) {
  Netlist nl = loadNetlist(args);
  TransitionSystem system(nl);
  StateSet target = parseCubeArg(args.flag("target"), system.numStateBits());
  PreimageMethod method = parsePreimageMethod(args.flag("method", "success-driven"));
  PreimageOptions options;
  applyEngineFlags(args, options.allsat);
  std::unique_ptr<Governor> governor = makeGovernor(args);
  options.allsat.governor = governor.get();
  std::string certPath = args.flag("cert");
  options.emitCertificate = !certPath.empty();
  PreimageResult r = computePreimage(system, target, method, options);
  if (!certPath.empty()) writeFileOrDie(certPath, r.certificate);
  std::printf("preimage: %s states in %zu cubes (%s, %.3f ms)\n",
              r.stateCount.toDecimal().c_str(), r.states.cubes.size(), preimageMethodName(method),
              r.stats.seconds * 1e3);
  for (const LitVec& cube : r.states.cubes) {
    std::printf("  %s\n", serve::cubeToText(cube, system.numStateBits()).c_str());
  }
  if (args.flag("stats") == "json") {
    std::printf("%s\n", r.metrics.toJson().c_str());
  }
  return finishOutcome(r.outcome);
}

int cmdImage(const Args& args) {
  Netlist nl = parseBenchFile(args.positional[0]);
  TransitionSystem system(nl);
  StateSet from = parseCubeArg(args.flag("from"), system.numStateBits());
  std::string name = args.flag("method", "bdd");
  ImageMethod method = name == "minterm" ? ImageMethod::kMintermBlocking : ImageMethod::kBdd;
  ImageResult r = computeImage(system, from, method);
  std::printf("image: %s states in %zu cubes (%s, %.3f ms)\n", r.stateCount.toDecimal().c_str(),
              r.states.cubes.size(), imageMethodName(method), r.seconds * 1e3);
  for (const LitVec& cube : r.states.cubes) {
    std::printf("  %s\n", serve::cubeToText(cube, system.numStateBits()).c_str());
  }
  return 0;
}

int cmdReach(const Args& args) {
  Netlist nl = loadNetlist(args);
  TransitionSystem system(nl);
  StateSet target = parseCubeArg(args.flag("target"), system.numStateBits());
  PreimageMethod method = parsePreimageMethod(args.flag("method", "success-driven"));
  int depth = args.intFlag("depth", 1000);
  PreimageOptions options;
  applyEngineFlags(args, options.allsat);
  std::unique_ptr<Governor> governor = makeGovernor(args);
  options.allsat.governor = governor.get();
  ReachabilityResult r = backwardReach(system, target, depth, method, options);
  std::printf("%5s %14s %14s %10s %10s\n", "depth", "new", "total", "pre-ms", "alg-ms");
  for (const ReachabilityStep& step : r.steps) {
    std::printf("%5d %14s %14s %10.3f %10.3f\n", step.depth, step.newStates.toDecimal().c_str(),
                step.totalStates.toDecimal().c_str(), step.seconds * 1e3,
                step.algebraSeconds * 1e3);
  }
  std::printf("fixpoint: %s, reached %s states, total %.3f ms (preimage %.3f, algebra %.3f)\n",
              r.fixpoint ? "yes" : "no", r.reached.countStates().toDecimal().c_str(),
              r.metrics.gauge("time.seconds") * 1e3,
              r.metrics.gauge("time.preimage_seconds") * 1e3,
              r.metrics.gauge("time.algebra_seconds") * 1e3);
  if (args.flag("stats") == "json") {
    std::printf("%s\n", r.metrics.toJson().c_str());
  }
  return finishOutcome(r.outcome);
}

int cmdSafety(const Args& args) {
  Netlist nl = loadNetlist(args);
  TransitionSystem system(nl);
  StateSet init = parseCubeArg(args.flag("init"), system.numStateBits());
  StateSet bad = parseCubeArg(args.flag("bad"), system.numStateBits());
  SafetyOptions options;
  options.method = parsePreimageMethod(args.flag("method", "success-driven"));
  options.maxDepth = args.intFlag("depth", options.maxDepth);
  applyEngineFlags(args, options.preimage.allsat);
  std::unique_ptr<Governor> governor = makeGovernor(args);
  options.preimage.allsat.governor = governor.get();
  SafetyResult r = checkSafety(system, init, bad, options);
  std::printf("%s (depth %d, %.3f ms)\n", safetyStatusName(r.status), r.depth, r.seconds * 1e3);
  if (r.outcome != Outcome::kComplete) {
    std::printf("stopped on %s: backward sets are a sound under-approximation\n",
                outcomeName(r.outcome));
  }
  if (r.status == SafetyStatus::kUnsafe) {
    std::printf("counterexample (state / input):\n");
    printTrace(r.traceStates, r.traceInputs);
  }
  if (args.flag("stats") == "json") {
    std::printf("%s\n", r.metrics.toJson().c_str());
  }
  // Exit codes: 0 = SAFE, 1 = UNSAFE (a counterexample is a finding, not a
  // failure), 2 = could not decide (depth bound hit) — CI scripts tell the
  // verdicts apart from genuine errors.
  if (r.status == SafetyStatus::kSafe) return 0;
  if (r.status == SafetyStatus::kUnsafe) return 1;
  return 2;
}

int cmdBmc(const Args& args) {
  Netlist nl = parseBenchFile(args.positional[0]);
  TransitionSystem system(nl);
  StateSet init = parseCubeArg(args.flag("init"), system.numStateBits());
  StateSet target = parseCubeArg(args.flag("target"), system.numStateBits());
  int depth = args.intFlag("depth", 20);
  BmcResult r = boundedReach(system, init, target, depth);
  if (!r.reachable) {
    std::printf("unreachable within %d steps (%llu SAT calls, %.3f ms)\n", depth,
                static_cast<unsigned long long>(r.satCalls), r.seconds * 1e3);
    return 1;
  }
  std::printf("reachable at depth %d (%.3f ms); trace:\n", r.depth, r.seconds * 1e3);
  printTrace(r.traceStates, r.traceInputs);
  return 0;
}

// --- audit: enumeration cross-checker ---------------------------------------

struct EngineRun {
  std::string name;
  std::vector<LitVec> cubes;
  BigUint count;
  bool complete = true;
  // Ran with `compress` to completion, its governor (if any) untripped, so
  // its cover must be the ISOP of its union.
  bool compressed = false;
};

bool ranCompressed(const AllSatOptions& options, bool complete) {
  return options.compress && complete &&
         (options.governor == nullptr || !options.governor->tripped());
}

// With `compress` on, every engine returns isop(f, f) of its cover's union
// f, the cover success-driven and kBdd return, so each compressed run must
// list `reference`'s cubes exactly. (A trip inside the shrink keeps the
// unshrunk cover, which ranCompressed leaves to the union checks.)
void checkCompressedCovers(AuditResult& audit, const std::vector<EngineRun>& runs,
                           const std::string& reference) {
  auto ref = std::find_if(runs.begin(), runs.end(),
                          [&reference](const EngineRun& run) { return run.name == reference; });
  if (ref == runs.end() || !ref->complete) return;
  for (const EngineRun& run : runs) {
    if (!run.compressed || run.cubes == ref->cubes) continue;
    audit.fail("audit.compress.isop", run.name + " returned " +
                                          std::to_string(run.cubes.size()) +
                                          " compressed cubes, not the " +
                                          std::to_string(ref->cubes.size()) + " of " +
                                          ref->name + "'s ISOP");
  }
}

// Engine-agreement checks over runs of the same instance: every engine must
// produce the same solution-set union (compared canonically as BDDs in one
// shared manager) and the same exact count as the first run.
void crossCheckRuns(AuditResult& audit, const std::vector<EngineRun>& runs, int width) {
  BddManager mgr(width);
  std::vector<BddRef> unions;
  for (const EngineRun& run : runs) unions.push_back(cubesToBdd(mgr, run.cubes));
  // Reference = the first COMPLETE run. Capped or budget-degraded runs are
  // lower bounds, so instead of equality they are held to the degradation
  // contract: their union must be a subset of the reference set and their
  // count must not exceed the exact one. This is what the fault-injection
  // lane leans on — an injected trip must never let an engine fabricate
  // solutions.
  size_t ref = runs.size();
  for (size_t i = 0; i < runs.size(); ++i) {
    if (runs[i].complete) {
      ref = i;
      break;
    }
  }
  for (size_t i = 0; i < runs.size() && ref < runs.size(); ++i) {
    if (i == ref) continue;
    if (!runs[i].complete) {
      if (mgr.bddAnd(unions[i], mgr.bddNot(unions[ref])) != BddManager::kFalse) {
        audit.fail("audit.partial.sound", runs[i].name +
                                              " (partial) enumerated solutions outside the " +
                                              runs[ref].name + " solution set");
      }
      if (runs[i].count > runs[ref].count) {
        audit.fail("audit.partial.bound", runs[i].name + " (partial) counted " +
                                              runs[i].count.toDecimal() + " solutions, above " +
                                              runs[ref].name + "'s exact " +
                                              runs[ref].count.toDecimal());
      }
      continue;
    }
    if (runs[i].count != runs[ref].count) {
      audit.fail("audit.count.agree", runs[i].name + " counted " + runs[i].count.toDecimal() +
                                          " solutions but " + runs[ref].name + " counted " +
                                          runs[ref].count.toDecimal());
    }
    if (!BddManager::equal(unions[i], unions[ref])) {
      audit.fail("audit.union.agree",
                 runs[i].name + " and " + runs[ref].name + " enumerate different solution sets");
    }
  }
  audit.merge(auditBdd(mgr));
}

int finishAudit(const AuditResult& audit, const std::string& what) {
  if (!audit.ok()) {
    std::fprintf(stderr, "audit FAILED on %s:\n%s\n", what.c_str(), audit.toString().c_str());
    return 1;
  }
  std::printf("audit OK: %s\n", what.c_str());
  return 0;
}

// CNF mode: the four CNF-capable engines, plus per-cube SAT soundness. The
// CNF engines enumerate the input preprocessed once, as in cmdAllsat; every
// check reads the input formula.
int cmdAuditCnf(AuditResult& audit, const Args& args) {
  const DimacsInput input = readDimacsInput(args.positional[0]);
  const Cnf& original = input.cnf;
  const std::vector<Var>& projection = input.projection;
  const PreprocessedCnf pre = preprocessCnf(original, projection);
  const std::vector<Var> scope = pre.internalVars(projection);
  const bool fullProjection = projection.size() == static_cast<size_t>(original.numVars());
  const int width = static_cast<int>(projection.size());

  std::vector<EngineRun> runs;
  {
    // Minterm blocking keeps its raw disjoint cover for the check below.
    AllSatResult r = blockingAllSat(pre.cnf, scope, {}, {});
    if (!cubesPairwiseDisjoint(r.cubes)) {
      audit.fail("audit.minterm.disjoint",
                 "minterm-blocking produced overlapping cubes on " + args.positional[0]);
    }
    runs.push_back({"minterm-blocking", std::move(r.cubes), std::move(r.mintermCount), r.complete});
  }
  if (fullProjection) {
    // Implicant lifting needs the full scope; without it this run would be
    // the minterm run above again.
    const Cnf& cnf = pre.cnf;
    ModelLifter lifter = [&cnf](const std::vector<lbool>& m) {
      return shrinkModelToImplicant(cnf, m);
    };
    AllSatResult r = blockingAllSat(cnf, scope, lifter);
    runs.push_back({"cube-blocking", std::move(r.cubes), std::move(r.mintermCount), r.complete});
  }
  {
    // Chronological enumeration takes --project/--compress like the
    // circuit-mode audit.
    AllSatOptions chronoOptions;
    applyEngineFlags(args, chronoOptions);
    AllSatResult r = chronoAllSat(pre.cnf, scope, chronoOptions);
    // Proves chrono.disjoint and chrono.cover against the BDD oracle; a
    // compressed cover is an ISOP instead, checked against success-driven's.
    if (!chronoOptions.compress) {
      audit.merge(auditChronoCubes(original, projection, r.cubes, r.complete));
    }
    runs.push_back({"chrono", std::move(r.cubes), std::move(r.mintermCount), r.complete,
                    ranCompressed(chronoOptions, r.complete)});
  }
  for (bool compress : {false, true}) {
    // Projected-native chrono: the same state set through the witness
    // early-stop and projected shrinking, audited under the proj.* names,
    // then once more compressed to the ISOP. Both are cross-checked below
    // like any other engine (the fault-injection lane rides them too).
    AllSatOptions projOptions;
    applyEngineFlags(args, projOptions);
    projOptions.project = true;
    projOptions.compress = compress;
    AllSatResult r = chronoAllSat(pre.cnf, scope, projOptions);
    if (!compress) {
      ChronoAuditOptions projAudit;
      projAudit.diagPrefix = "proj";
      audit.merge(auditChronoCubes(original, projection, r.cubes, r.complete, projAudit));
    }
    runs.push_back({compress ? "chrono-compressed" : "chrono-projected", std::move(r.cubes),
                    std::move(r.mintermCount), r.complete, ranCompressed(projOptions, r.complete)});
  }
  {
    CnfCircuit circuit = cnfToCircuit(original);
    audit.merge(auditNetlist(circuit.netlist));
    CircuitAllSatProblem problem;
    problem.netlist = &circuit.netlist;
    problem.objectives = {{circuit.root, true}};
    for (Var v : projection) {
      problem.projectionSources.push_back(circuit.varNode[static_cast<size_t>(v)]);
    }
    SuccessDrivenResult sd = successDrivenAllSat(problem, {});
    SolutionGraphAuditOptions graphOptions;
    graphOptions.problems = {&problem, 1};
    audit.merge(auditSolutionGraph(sd.graph, graphOptions));
    runs.push_back({"success-driven", std::move(sd.summary.cubes),
                    std::move(sd.summary.mintermCount), sd.summary.complete});
  }

  // Every enumerated cube must itself be satisfiable in the original CNF
  // (capped per engine; the union check above covers exactness).
  constexpr size_t kMaxCubeChecks = 256;
  for (const EngineRun& run : runs) {
    Solver solver;
    solver.addCnf(original);
    for (size_t i = 0; i < run.cubes.size() && i < kMaxCubeChecks; ++i) {
      LitVec assumptions;
      for (Lit l : run.cubes[i]) {
        assumptions.push_back(mkLit(projection[static_cast<size_t>(l.var())], l.sign()));
      }
      if (!solver.solve(assumptions).isTrue()) {
        audit.fail("audit.cube.sat", run.name + " cube " +
                                         serve::cubeToText(run.cubes[i], width) +
                                         " is unsatisfiable in the original CNF");
      }
    }
  }

  checkCompressedCovers(audit, runs, "success-driven");
  crossCheckRuns(audit, runs, width);
  return finishAudit(audit, args.positional[0] + " (" + std::to_string(runs.size()) + " engines)");
}

// Circuit mode: all five preimage engines on a generated benchmark, with the
// BDD baseline serving as the semantic oracle for the SAT-based ones.
int cmdAuditCircuit(AuditResult& audit, const Args& args) {
  const std::string spec = args.flag("gen");
  Netlist nl = buildGenerator(spec);
  audit.merge(auditNetlist(nl));
  TransitionSystem system(nl);
  const int width = system.numStateBits();

  std::string targetText = args.flag("target");
  if (targetText.empty()) {
    targetText = "1" + std::string(static_cast<size_t>(width > 0 ? width - 1 : 0), 'x');
  }
  StateSet target = parseCubeArg(targetText, width);

  PreimageOptions options;
  applyEngineFlags(args, options.allsat);

  std::vector<EngineRun> runs;
  for (PreimageMethod method : kAllPreimageMethods) {
    // Fresh per-engine governor: each engine gets the full budget, and a
    // one-shot injected fault degrades only the engine it fired in — the
    // others then serve as the oracle for the partial-soundness cross-check.
    std::unique_ptr<Governor> governor = makeGovernor(args);
    options.allsat.governor = governor.get();
    PreimageResult r = computePreimage(system, target, method, options);
    // A compressed cover is an ISOP, whose cubes may overlap.
    if (method == PreimageMethod::kMintermBlocking && !options.allsat.compress &&
        !cubesPairwiseDisjoint(r.states.cubes)) {
      audit.fail("audit.minterm.disjoint",
                 "minterm-blocking produced overlapping preimage cubes on " + spec);
    }
    if (method == PreimageMethod::kChrono && !options.allsat.compress &&
        !cubesPairwiseDisjoint(r.states.cubes)) {
      audit.fail("chrono.disjoint",
                 "chrono produced overlapping preimage cubes on " + spec);
    }
    if (method == PreimageMethod::kSuccessDriven) {
      SolutionGraphAuditOptions graphOptions;
      graphOptions.numProjectionVars = width;
      audit.merge(auditSolutionGraph(r.graph, graphOptions));
    }
    runs.push_back({preimageMethodName(method), std::move(r.states.cubes),
                    std::move(r.stateCount), r.complete, ranCompressed(options.allsat, r.complete)});
  }
  for (bool compress : {false, true}) {
    // Projected-native chrono, cross-checked against the five baselines
    // above: without compression its cover must stay pairwise disjoint, and
    // compressed it must be the BDD engine's ISOP.
    std::unique_ptr<Governor> governor = makeGovernor(args);
    PreimageOptions projOptions = options;
    projOptions.allsat.governor = governor.get();
    projOptions.allsat.project = true;
    projOptions.allsat.compress = compress;
    PreimageResult r = computePreimage(system, target, PreimageMethod::kChrono, projOptions);
    if (!compress && !cubesPairwiseDisjoint(r.states.cubes)) {
      audit.fail("proj.disjoint",
                 "projected chrono produced overlapping preimage cubes on " + spec);
    }
    runs.push_back({compress ? "chrono-compressed" : "chrono-projected",
                    std::move(r.states.cubes), std::move(r.stateCount), r.complete,
                    ranCompressed(projOptions.allsat, r.complete)});
  }

  checkCompressedCovers(audit, runs, preimageMethodName(PreimageMethod::kBdd));
  crossCheckRuns(audit, runs, width);
  return finishAudit(audit, spec + " target=" + targetText + " (" +
                                std::to_string(runs.size()) + " engines)");
}

int cmdAudit(const Args& args) {
  AuditResult audit;
  if (!args.flag("gen").empty()) return cmdAuditCircuit(audit, args);
  if (args.positional.empty()) usage("audit needs a .cnf file or --gen SPEC");
  // CNF mode has no target and runs ungoverned.
  for (const char* name : {"target", "timeout-ms", "mem-limit-mb", "conflict-limit"}) {
    if (args.flags.count(name) != 0) {
      usage(("unknown flag --" + std::string(name) + " for audit <file.cnf>").c_str());
    }
  }
  return cmdAuditCnf(audit, args);
}

const Command kCommands[] = {
    {"info", false, {}, cmdInfo},
    {"allsat", true, {"max", "method", "stats"}, cmdAllsat},
    {"preimage", true, {"gen", "target", "method", "stats", "cert"},
     cmdPreimage},
    {"image", false, {"from", "method"}, cmdImage},
    {"reach", true, {"gen", "target", "method", "depth", "stats"}, cmdReach},
    {"safety", true, {"gen", "init", "bad", "method", "depth", "stats"}, cmdSafety},
    {"bmc", false, {"init", "target", "depth"}, cmdBmc},
    {"audit", true, {"gen", "target"}, cmdAudit},
};

}  // namespace

int main(int argc, char** argv) {
  // No-op unless built with PRESAT_FAULTS and PRESAT_FAULT_SITE is set.
  faults::armFaultsFromEnv();
  if (argc >= 2 && std::strcmp(argv[1], "version") == 0) {
    // Build-info JSON: the same payload presat_serve sends as its handshake
    // banner, so scripts interrogate one source of truth either way.
    std::printf("%s\n", serve::buildInfoJson().c_str());
    return 0;
  }
  if (argc < 3) usage();
  const std::string_view name = argv[1];
  const Command* command = std::find_if(std::begin(kCommands), std::end(kCommands),
                                        [name](const Command& c) { return c.name == name; });
  if (command == std::end(kCommands)) usage(("unknown command: " + std::string(name)).c_str());
  Args args = parseArgs(argc, argv, 2, *command);
  // audit names its own missing input; --gen (only the commands that read
  // it get past parseArgs with it) stands in for the file.
  if (name != "audit" && args.positional.empty() && args.flag("gen").empty()) {
    usage("missing input file");
  }
  return command->run(args);
}
