#include "preimage/preimage.hpp"

#include "allsat/blocking.hpp"
#include "allsat/chrono_blocking.hpp"
#include "allsat/lifting.hpp"
#include "allsat/success_driven.hpp"
#include "base/log.hpp"
#include "base/timer.hpp"
#include "cert/certificate.hpp"
#include "circuit/netlist.hpp"
#include "circuit/simulator.hpp"
#include "circuit/tseitin.hpp"
#include "govern/governor.hpp"
#include "preimage/bdd_preimage.hpp"

namespace presat {

const char* preimageMethodName(PreimageMethod method) {
  switch (method) {
    case PreimageMethod::kMintermBlocking: return "minterm-blocking";
    case PreimageMethod::kCubeBlockingLifted: return "cube-blocking-lifted";
    case PreimageMethod::kSuccessDriven: return "success-driven";
    case PreimageMethod::kChrono: return "chrono";
    case PreimageMethod::kBdd: return "bdd";
  }
  return "?";
}

bool preimageMethodUsesCnf(PreimageMethod method) {
  return method == PreimageMethod::kMintermBlocking ||
         method == PreimageMethod::kCubeBlockingLifted || method == PreimageMethod::kChrono;
}

namespace {

struct SatProblem {
  Cnf cnf;                      // INTERNAL numbering: base formula + target clauses
  std::vector<Var> projection;  // internal CNF var of state bit i at position i
};

// Instantiates the shared encoding for one target: copies the preprocessed
// base formula and adds the target-membership constraint T(δ(s, x)),
// translated into the internal space (next-state-root variables are frozen,
// so every target literal maps; selector variables are fresh internal vars
// with no original counterpart — originalModel simply ignores them).
SatProblem buildSatProblem(const TransitionEncoding& te, const TransitionSystem& system,
                           const StateSet& target) {
  PRESAT_CHECK(target.numStateBits == system.numStateBits());

  SatProblem problem;
  problem.cnf = te.base.cnf;
  Cnf& cnf = problem.cnf;

  auto rootLit = [&](Lit l) {
    return te.base.internalLit(te.enc.litOf(system.nextStateRoot(l.var()), !l.sign()));
  };
  if (target.cubes.empty()) {
    cnf.addClause({});  // empty target: the query is vacuously UNSAT
  } else if (target.cubes.size() == 1) {
    for (Lit l : target.cubes[0]) cnf.addUnit(rootLit(l));
  } else {
    // Union target: selector variable per cube, (sel_i -> cube_i) plus
    // (sel_1 | ... | sel_k).
    Clause atLeastOne;
    for (const LitVec& cube : target.cubes) {
      Lit sel = mkLit(cnf.newVar());
      atLeastOne.push_back(sel);
      for (Lit l : cube) cnf.addBinary(~sel, rootLit(l));
    }
    cnf.addClause(std::move(atLeastOne));
  }

  problem.projection.reserve(te.projection.size());
  for (Var v : te.projection) problem.projection.push_back(te.base.internalVar(v));
  return problem;
}

// Builds the circuit-justification model lifter for the lifted-cube engine.
// The justification machinery speaks the ORIGINAL encoding; internal models
// are lifted through base.originalModel first (eliminated pure variables get
// their forced polarity, so the reconstruction is a genuine model of the
// original formula) and the resulting state cube is translated back (state
// variables are frozen, so internalLit always succeeds).
ModelLifter makeJustificationLifter(const TransitionSystem& system, const StateSet& target,
                                    const TransitionEncoding& te) {
  const Netlist& nl = system.netlist();
  return [&system, &target, &te, &nl](const std::vector<lbool>& internalModel) -> LitVec {
    const std::vector<lbool> model = te.base.originalModel(internalModel);
    // Reconstruct source values from the model (sources outside the encoded
    // cone are irrelevant to the objectives; default them to 0).
    std::vector<bool> sources(nl.numNodes(), false);
    for (NodeId id = 0; id < nl.numNodes(); ++id) {
      if (isCombinational(nl.type(id)) || !te.enc.isEncoded(id)) continue;
      Var v = te.enc.nodeVar[id];
      sources[id] = model[static_cast<size_t>(v)].isTrue();
    }
    std::vector<bool> values = Simulator::evaluateOnce(nl, sources);

    // Find a target cube this model realizes and justify exactly that cube.
    const LitVec* satisfiedCube = nullptr;
    for (const LitVec& cube : target.cubes) {
      bool ok = true;
      for (Lit l : cube) {
        if (values[system.nextStateRoot(l.var())] == l.sign()) {
          ok = false;
          break;
        }
      }
      if (ok) {
        satisfiedCube = &cube;
        break;
      }
    }
    PRESAT_CHECK(satisfiedCube != nullptr) << "model does not reach the target set";

    NodeCube objectives;
    for (Lit l : *satisfiedCube) {
      objectives.emplace_back(system.nextStateRoot(l.var()), !l.sign());
    }
    JustificationLifter lifter(nl, std::move(objectives));
    NodeCube sources2 = lifter.liftedSources(values);

    // Keep only state sources (the projection scope).
    std::vector<bool> isState(nl.numNodes(), false);
    for (NodeId s : system.stateNodes()) isState[s] = true;
    LitVec cube;
    for (const NodeAssign& a : sources2) {
      if (!isState[a.first]) continue;
      cube.push_back(te.base.internalLit(mkLit(te.enc.varOf(a.first), !a.second)));
    }
    return cube;
  };
}

// Builds chrono's circuit-side widening oracle for one query: the target
// cubes as next-state-root objectives over the netlist, and every encoded
// source's internal CNF variable (kNullVar once preprocessing eliminated
// it). The state variables are frozen, so they always map to `scope`.
CircuitWidener makeChronoWidener(const TransitionSystem& system, const StateSet& target,
                                 const TransitionEncoding& te, const std::vector<Var>& scope) {
  const Netlist& nl = system.netlist();
  std::vector<NodeCube> objectives;
  objectives.reserve(target.cubes.size());
  for (const LitVec& cube : target.cubes) {
    NodeCube& objective = objectives.emplace_back();
    for (Lit l : cube) objective.emplace_back(system.nextStateRoot(l.var()), !l.sign());
  }
  std::vector<Var> sourceVar(nl.numNodes(), kNullVar);
  for (NodeId id : nl.inputs()) {
    if (te.enc.isEncoded(id)) sourceVar[id] = te.base.internalVar(te.enc.varOf(id));
  }
  for (NodeId id : system.stateNodes()) {
    sourceVar[id] = te.base.internalVar(te.enc.varOf(id));
  }
  return CircuitWidener(nl, std::move(objectives), sourceVar, scope);
}

PreimageResult fromAllSat(AllSatResult&& r, int numStateBits) {
  PreimageResult result;
  result.states.numStateBits = numStateBits;
  result.states.cubes = std::move(r.cubes);
  result.guides = std::move(r.guides);
  result.stateCount = std::move(r.mintermCount);
  result.complete = r.complete;
  result.outcome = r.outcome;
  result.stats = r.stats;
  result.metrics = std::move(r.metrics);
  result.seconds = r.stats.seconds;
  // Worker-count-independent by the determinism contract, so CI can assert
  // par1 == par8 straight off the metrics line.
  result.metrics.setCounter("pre.cubes", result.states.cubes.size());
  return result;
}

// Epilogue mirroring allsat's finishResult for the engines that assemble a
// PreimageResult directly (success-driven loop, the BDD baseline).
void finishPreimage(PreimageResult& result, const Governor* governor) {
  result.complete = (result.outcome == Outcome::kComplete);
  result.metrics.setLabel("outcome", outcomeName(result.outcome));
  if (governor != nullptr) governor->exportMetrics(result.metrics);
}

// The success-driven engine over every target cube, one root each.
SuccessDrivenResult successDrivenPreimage(const TransitionSystem& system, const StateSet& target,
                                          const AllSatOptions& options) {
  std::vector<CircuitAllSatProblem> problems(target.cubes.size());
  for (size_t i = 0; i < problems.size(); ++i) {
    problems[i].netlist = &system.netlist();
    problems[i].projectionSources = system.stateNodes();
    for (Lit l : target.cubes[i]) {
      problems[i].objectives.emplace_back(system.nextStateRoot(l.var()), !l.sign());
    }
  }
  if (problems.empty()) return {};
  return successDrivenAllSat(problems, options);
}

// Disjointness guarantee backing the certificate's disjoint flag: minterm
// and chrono covers are disjoint by construction, BDD and success-driven
// covers are distinct root-to-true paths of one BDD, and wildcard
// compression preserves all of that. Lifted-cube covers may overlap (their
// union is still exact).
bool methodCoverDisjoint(PreimageMethod method) {
  return method != PreimageMethod::kCubeBlockingLifted;
}

}  // namespace

TransitionEncoding buildTransitionEncoding(const TransitionSystem& system, Governor* governor) {
  TransitionEncoding te;

  std::vector<NodeId> roots = system.nextStateRoots();
  // State sources must be encoded even when unused by any next-state cone,
  // so the projection scope is always the full state space.
  for (NodeId s : system.stateNodes()) roots.push_back(s);
  te.enc = encodeCircuit(system.netlist(), roots);

  te.projection.reserve(static_cast<size_t>(system.numStateBits()));
  for (NodeId s : system.stateNodes()) te.projection.push_back(te.enc.varOf(s));

  // Frozen: the projection scope plus every variable later target clauses
  // constrain (next-state roots). Input/aux variables stay eliminable.
  std::vector<Var> frozen = te.projection;
  for (NodeId root : system.nextStateRoots()) frozen.push_back(te.enc.varOf(root));
  te.base = preprocessCnf(te.enc.cnf, frozen, governor);
  return te;
}

PreimageResult computePreimage(const TransitionSystem& system, const StateSet& target,
                               PreimageMethod method, const PreimageOptions& options) {
  const int n = system.numStateBits();
  PRESAT_CHECK(target.numStateBits == n) << "target state width mismatch";

  // The CNF engines run on the shared (or locally built) preprocessed
  // encoding. So does the certificate of every engine: it embeds the CNF the
  // cover is checked against, and compression traces its merge witnesses.
  std::optional<TransitionEncoding> localEncoding;
  const TransitionEncoding* te = options.encoding;
  AllSatOptions satOpts = options.allsat;
  std::vector<CompressMergeRecord> mergeTrace;
  if (options.emitCertificate) satOpts.compressTrace = &mergeTrace;
  if (te == nullptr && (preimageMethodUsesCnf(method) || options.emitCertificate)) {
    localEncoding = buildTransitionEncoding(system, options.allsat.governor);
    te = &*localEncoding;
  }

  auto withPreprocessMetrics = [&te](PreimageResult&& r) {
    exportPreprocessMetrics(te->base.stats, r.metrics);
    return std::move(r);
  };

  PreimageResult result = [&]() -> PreimageResult {
  switch (method) {
    case PreimageMethod::kMintermBlocking:
    case PreimageMethod::kCubeBlockingLifted:
    case PreimageMethod::kChrono: {
      SatProblem problem = buildSatProblem(*te, system, target);
      AllSatResult r;
      if (method == PreimageMethod::kChrono) {
        CircuitWidener widener = makeChronoWidener(system, target, *te, problem.projection);
        r = chronoAllSat(problem.cnf, problem.projection, satOpts, &widener);
      } else {
        ModelLifter lifter;
        if (method == PreimageMethod::kCubeBlockingLifted) {
          lifter = makeJustificationLifter(system, target, *te);
        }
        r = blockingAllSat(problem.cnf, problem.projection, lifter, satOpts);
      }
      return withPreprocessMetrics(fromAllSat(std::move(r), n));
    }
    case PreimageMethod::kSuccessDriven: {
      Timer timer;
      PreimageResult result;
      result.states.numStateBits = n;
      SuccessDrivenResult sd = successDrivenPreimage(system, target, satOpts);
      result.states.cubes = std::move(sd.summary.cubes);
      result.stateCount = std::move(sd.summary.mintermCount);
      result.outcome = sd.summary.outcome;
      result.stats = sd.summary.stats;
      result.stats.satCalls += target.cubes.size();  // one justification search per target cube
      result.metrics = std::move(sd.summary.metrics);
      result.graph = std::move(sd.graph);
      result.seconds = timer.seconds();
      result.stats.seconds = result.seconds;
      result.metrics.setLabel("engine", "success-driven");
      result.metrics.setCounter("pre.cubes", result.states.cubes.size());
      exportStatsToMetrics(result.stats, result.metrics);
      finishPreimage(result, options.allsat.governor);
      return result;
    }
    case PreimageMethod::kBdd: {
      Timer timer;
      Governor* governor = options.allsat.governor;
      PreimageResult result;
      result.states.numStateBits = n;
      try {
        BddTransition transition(system, governor);
        BddRef pre = transition.preimage(target.toBdd(transition.manager()));
        result.states = transition.toStateSet(pre);
        result.stateCount = transition.countStates(pre);
        result.bddNodes = transition.manager().numNodes();
      } catch (const GovernorStop& stop) {
        // Mid-apply there is no usable partial BDD; the empty set is the
        // sound under-approximation this engine degrades to.
        result.states.cubes.clear();
        result.stateCount = BigUint(0);
        result.outcome = stop.reason;
      }
      result.seconds = timer.seconds();
      result.metrics.setLabel("engine", preimageMethodName(method));
      result.metrics.setCounter("bdd.nodes", result.bddNodes);
      result.metrics.setCounter("pre.cubes", result.states.cubes.size());
      result.metrics.setGauge("time.seconds", result.seconds);
      finishPreimage(result, governor);
      return result;
    }
  }
  PRESAT_CHECK(false) << "unknown preimage method";
  return {};
  }();

  if (options.emitCertificate) {
    // The certificate embeds the same CNF instantiation the CNF engines
    // solved (buildSatProblem is deterministic in (encoding, target), so
    // rebuilding it here matches the engine's formula bit for bit); the
    // circuit-level engines' covers are checked against it too — the state
    // projection is shared, so their cubes speak the same scope.
    SatProblem problem = buildSatProblem(*te, system, target);
    CertificateSpec spec;
    spec.cnf = &problem.cnf;
    spec.scope = &problem.projection;
    spec.cubes = &result.states.cubes;
    if (!result.guides.empty()) spec.guides = &result.guides;
    if (!mergeTrace.empty()) spec.merges = &mergeTrace;
    spec.outcome = result.outcome;
    spec.disjoint = methodCoverDisjoint(method);
    spec.engine = preimageMethodName(method);
    spec.circuitHash = netlistStructuralHash(system.netlist());
    spec.jobs = satOpts.parallel.jobs;
    spec.project = satOpts.project;
    spec.compress = satOpts.compress;
    CertificateResult cert = buildCertificate(spec);
    result.certificate = std::move(cert.cert);
    result.dratText = std::move(cert.dratText);
    result.dratBinary = std::move(cert.dratBinary);
    result.metrics.setCounter("cert.bytes", result.certificate.size());
    result.metrics.setCounter("cert.proof_steps", cert.proofSteps);
  }
  return result;
}

}  // namespace presat
