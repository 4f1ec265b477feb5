#include "preimage/preimage.hpp"

#include "allsat/blocking.hpp"
#include "allsat/chrono_blocking.hpp"
#include "allsat/lifting.hpp"
#include "allsat/success_driven.hpp"
#include "base/log.hpp"
#include "base/timer.hpp"
#include "cert/certificate.hpp"
#include "circuit/netlist.hpp"
#include "circuit/tseitin.hpp"
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
// with no original counterpart — no lifter source is bound to them).
SatProblem buildSatProblem(const TransitionEncoding& te, const TransitionSystem& system,
                           const StateSet& target) {
  PRESAT_CHECK(target.numStateBits == system.numStateBits());

  SatProblem problem;
  problem.cnf = te.base.cnf;
  LitVec roots;
  roots.reserve(static_cast<size_t>(system.numStateBits()));
  for (NodeId r : system.nextStateRoots()) roots.push_back(te.base.internalLit(te.enc.litOf(r)));
  addStateSetClauses(problem.cnf, target, roots);

  problem.projection.reserve(te.projection.size());
  for (Var v : te.projection) problem.projection.push_back(te.base.internalVar(v));
  return problem;
}

// The target cubes as next-state-root objectives over the netlist.
std::vector<NodeCube> targetObjectives(const TransitionSystem& system, const StateSet& target) {
  std::vector<NodeCube> objectives;
  objectives.reserve(target.cubes.size());
  for (const LitVec& cube : target.cubes) {
    NodeCube& objective = objectives.emplace_back();
    for (Lit l : cube) objective.emplace_back(system.nextStateRoot(l.var()), !l.sign());
  }
  return objectives;
}

// Builds chrono's circuit-side widening oracle for one query: the target
// cubes as next-state-root objectives over the netlist, and every encoded
// source's internal CNF variable (kNullVar once preprocessing eliminated
// it). The state variables are frozen, so they always map to `scope`.
CircuitWidener makeChronoWidener(const TransitionSystem& system, const StateSet& target,
                                 const TransitionEncoding& te, const std::vector<Var>& scope) {
  const Netlist& nl = system.netlist();
  std::vector<Var> sourceVar(nl.numNodes(), kNullVar);
  for (NodeId id : nl.inputs()) {
    if (te.enc.isEncoded(id)) sourceVar[id] = te.base.internalVar(te.enc.varOf(id));
  }
  for (NodeId id : system.stateNodes()) {
    sourceVar[id] = te.base.internalVar(te.enc.varOf(id));
  }
  return CircuitWidener(nl, targetObjectives(system, target), sourceVar, scope);
}

// The success-driven engine over every target cube, one root each.
SuccessDrivenResult successDrivenPreimage(const TransitionSystem& system, const StateSet& target,
                                          const AllSatOptions& options) {
  std::vector<CircuitAllSatProblem> problems;
  problems.reserve(target.cubes.size());
  for (NodeCube& objectives : targetObjectives(system, target)) {
    problems.push_back({&system.netlist(), std::move(objectives), system.stateNodes()});
  }
  if (!problems.empty()) return successDrivenAllSat(problems, options);
  // The engine needs a root; an empty target's cover is empty.
  SuccessDrivenResult none;
  finishCover(none.summary, options, system.numStateBits(), CoverKind::kIsop, "success-driven",
              Timer());
  return none;
}

// Disjointness guarantee backing the certificate's disjoint flag: minterm
// and chrono covers are disjoint by construction unless `compress` replaced
// them by an ISOP. Lifted-cube covers may overlap, and the success-driven and
// BDD covers are ISOPs, whose prime cubes overlap (every union is exact).
bool methodCoverDisjoint(PreimageMethod method, bool compress) {
  return !compress &&
         (method == PreimageMethod::kMintermBlocking || method == PreimageMethod::kChrono);
}

}  // namespace

CircuitEncoding encodeTransition(const TransitionSystem& system) {
  std::vector<NodeId> roots = system.nextStateRoots();
  // State sources must be encoded even when unused by any next-state cone,
  // so the projection scope is always the full state space.
  for (NodeId s : system.stateNodes()) roots.push_back(s);
  return encodeCircuit(system.netlist(), roots);
}

TransitionEncoding buildTransitionEncoding(const TransitionSystem& system, Governor* governor) {
  TransitionEncoding te;
  te.enc = encodeTransition(system);

  te.projection.reserve(static_cast<size_t>(system.numStateBits()));
  for (NodeId s : system.stateNodes()) te.projection.push_back(te.enc.varOf(s));

  // Frozen: the projection scope plus every variable later target clauses
  // constrain (next-state roots). Input/aux variables stay eliminable.
  std::vector<Var> frozen = te.projection;
  for (NodeId root : system.nextStateRoots()) frozen.push_back(te.enc.varOf(root));
  te.base = preprocessCnf(te.enc.cnf, frozen, governor);
  return te;
}

// The lifter reads the internal model directly: each encoded source is bound
// to its internal variable, or, once preprocessing eliminated it, to its
// forced pure polarity, else 0; unencoded sources lie outside every
// next-state cone and read 0.
// The state sources are frozen, so they keep their variables and the lifted
// cube is already internal.
ModelLifter makeJustificationLifter(const TransitionSystem& system, const StateSet& target,
                                    const TransitionEncoding& te) {
  const Netlist& nl = system.netlist();
  const PreprocessedCnf& base = te.base;
  std::vector<int8_t> forced(base.toInternal.size(), -1);
  for (Lit l : base.forcedLits) forced[static_cast<size_t>(l.var())] = l.sign() ? 0 : 1;
  std::vector<JustificationLifter::Source> sources(nl.numNodes());
  for (NodeId id = 0; id < nl.numNodes(); ++id) {
    if (isCombinational(nl.type(id)) || !te.enc.isEncoded(id)) continue;
    size_t v = static_cast<size_t>(te.enc.varOf(id));
    if (forced[v] >= 0) {
      sources[id].value = forced[v] == 1;
    } else {
      sources[id].var = base.toInternal[v];
    }
  }
  for (NodeId s : system.stateNodes()) sources[s].emit = true;
  return [lifter = JustificationLifter(nl, targetObjectives(system, target), std::move(sources))](
             const std::vector<lbool>& internalModel) mutable { return lifter.lift(internalModel); };
}

PreimageResult computePreimage(const TransitionSystem& system, const StateSet& target,
                               PreimageMethod method, const PreimageOptions& options) {
  const int n = system.numStateBits();
  PRESAT_CHECK(target.numStateBits == n) << "target state width mismatch";

  // The CNF engines run on the shared (or locally built) preprocessed
  // encoding. So does the certificate of every engine: it embeds the CNF the
  // cover is checked against.
  std::optional<TransitionEncoding> localEncoding;
  const TransitionEncoding* te = options.encoding;
  const AllSatOptions& satOpts = options.allsat;
  if (te == nullptr && (preimageMethodUsesCnf(method) || options.emitCertificate)) {
    localEncoding = buildTransitionEncoding(system, options.allsat.governor);
    te = &*localEncoding;
  }

  AllSatResult r;
  PreimageResult result;
  switch (method) {
    case PreimageMethod::kMintermBlocking:
    case PreimageMethod::kCubeBlockingLifted:
    case PreimageMethod::kChrono: {
      SatProblem problem = buildSatProblem(*te, system, target);
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
      exportPreprocessMetrics(te->base.stats, r.metrics);
      break;
    }
    case PreimageMethod::kSuccessDriven: {
      SuccessDrivenResult sd = successDrivenPreimage(system, target, satOpts);
      r = std::move(sd.summary);
      result.graph = std::move(sd.graph);
      break;
    }
    case PreimageMethod::kBdd:
      r = bddPreimage(system, target, satOpts);
      break;
  }

  // Every engine left through finishCover; this only renames its fields.
  result.states.numStateBits = n;
  result.states.cubes = std::move(r.cubes);
  result.stateCount = std::move(r.mintermCount);
  result.complete = r.complete;
  result.outcome = r.outcome;
  result.stats = r.stats;
  result.metrics = std::move(r.metrics);
  result.metrics.setCounter("pre.cubes", result.states.cubes.size());

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
    spec.outcome = result.outcome;
    spec.disjoint = methodCoverDisjoint(method, satOpts.compress);
    spec.engine = preimageMethodName(method);
    spec.circuitHash = netlistStructuralHash(system.netlist());
    spec.project = satOpts.project;
    spec.compress = satOpts.compress;
    CertificateResult cert = buildCertificate(spec);
    result.certificate = std::move(cert.cert);
    result.metrics.setCounter("cert.bytes", result.certificate.size());
    result.metrics.setCounter("cert.proof_steps", cert.proofSteps);
  }
  return result;
}

}  // namespace presat
