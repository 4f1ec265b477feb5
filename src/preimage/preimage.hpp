// One-step preimage computation — the paper's headline application.
//
// Pre(T) = { s | ∃x. δ(s, x) ∈ T }: all present states from which some input
// drives the circuit into the target set in one clock. Five engines compute
// the same set:
//   kMintermBlocking    CDCL + one blocking clause per projected minterm
//   kCubeBlockingLifted CDCL + justification-lifted cube blocking (the same
//                       blockingAllSat engine, given a lifter)
//   kSuccessDriven      the paper's solver (justification search + success-
//                       driven learning + solution graph)
//   kChrono             chronological-backtracking enumeration — disjoint
//                       cubes, zero blocking clauses (flat clause DB)
//   kBdd                symbolic baseline (compose + quantify)
#pragma once

#include <optional>
#include <vector>

#include "allsat/blocking.hpp"
#include "allsat/projection.hpp"
#include "allsat/solution_graph.hpp"
#include "circuit/tseitin.hpp"
#include "cnf/preprocess.hpp"
#include "preimage/target.hpp"
#include "preimage/transition_system.hpp"

namespace presat {

enum class PreimageMethod {
  kMintermBlocking,
  kCubeBlockingLifted,
  kSuccessDriven,
  kChrono,
  kBdd,
};

const char* preimageMethodName(PreimageMethod method);

// True for the engines that solve a CNF encoding of the transition function
// (and therefore benefit from a shared TransitionEncoding, below).
bool preimageMethodUsesCnf(PreimageMethod method);

inline constexpr PreimageMethod kAllPreimageMethods[] = {
    PreimageMethod::kMintermBlocking, PreimageMethod::kCubeBlockingLifted,
    PreimageMethod::kSuccessDriven,   PreimageMethod::kChrono,
    PreimageMethod::kBdd,
};

// Tseitin encoding of the next-state cones plus every state source (so each
// state bit has a variable even when no cone reads it), original numbering:
// the base of a TransitionEncoding, one BMC frame, and a trace step's query.
CircuitEncoding encodeTransition(const TransitionSystem& system);

// Target-independent, shareable encoding of a transition system for the CNF
// preimage engines: the Tseitin encoding of the next-state cones (original
// numbering) plus the one-shot preprocessed base formula (cnf/preprocess.hpp)
// with the state and next-state-root variables frozen. Per-query target
// clauses are added on a copy of `base.cnf` (translated through
// base.internalLit), so frontier loops (reachability/safety) pay for
// encoding + preprocessing once per circuit instead of once per query.
struct TransitionEncoding {
  CircuitEncoding enc;          // roots = next-state roots + state nodes
  PreprocessedCnf base;         // preprocessed enc.cnf, internal numbering
  std::vector<Var> projection;  // ORIGINAL cnf var of state bit i
};

// `governor` is only consulted by the cnf.preprocess fault site (may be
// null). Deterministic in `system`.
TransitionEncoding buildTransitionEncoding(const TransitionSystem& system,
                                           Governor* governor = nullptr);

// The lifted-cube engine's model lifter for one query on `te`: maps a model
// of the query formula (te.base.cnf plus the target clauses over the
// internal next-state-root literals) to a state cube over internal
// variables, by justifying the first target cube the model realizes
// (allsat/lifting.hpp, JustificationLifter). Built once per query; the
// callable reuses its buffers, so one enumeration calls it at a time.
ModelLifter makeJustificationLifter(const TransitionSystem& system, const StateSet& target,
                                    const TransitionEncoding& te);

struct PreimageOptions {
  AllSatOptions allsat;
  // Shared per-circuit encoding, built with buildTransitionEncoding on the
  // SAME TransitionSystem this query runs on. Null (the default) builds one
  // locally per query. Not owned; must outlive the call. Ignored by the
  // success-driven and BDD engines (they work on the netlist directly).
  const TransitionEncoding* encoding = nullptr;
  // Emit a presat-cert-v1 certificate (cert/certificate.hpp) into
  // PreimageResult::certificate, verifiable by the standalone presat_check
  // tool. Its completeness proof is replayed after the run, for every
  // engine. Off by default — the zero-cost path adds no work
  // anywhere.
  bool emitCertificate = false;
};

// The engine's AllSatResult, renamed: every engine's cover leaves through
// finishCover (allsat/projection.hpp), so maxCubes, project and compress act
// alike on all five, and stateCount always counts the returned cubes.
struct PreimageResult {
  StateSet states;      // union of cubes = exact preimage (a sound
                        // under-approximation when outcome != kComplete)
  BigUint stateCount;   // exact count of the union of `states`'s cubes
  bool complete = true;
  // Structured stop reason (govern/budget.hpp); always consistent with
  // `complete`. The BDD engine degrades to the EMPTY set on a trip — the
  // symbolic recursion has no usable partial answer — which is still a
  // sound under-approximation.
  Outcome outcome = Outcome::kComplete;
  // Engine counters (zero for the BDD engine) and stats.seconds, the engine's
  // wall time.
  AllSatStats stats;
  // Observability export of `stats` (plus engine-specific histograms;
  // "bdd.nodes" for the BDD engine).
  Metrics metrics;
  // Success-driven engine only: one solution graph with one root per target
  // cube, in target order (shared subgraphs stored once).
  SolutionGraph graph;
  // Always empty: no engine splits. Kept for the benchmark harness
  // (perfbench/harness.cpp), which still reads it.
  std::vector<LitVec> guides;
  // Only with PreimageOptions::emitCertificate: the presat-cert-v1 text.
  std::string certificate;
};

PreimageResult computePreimage(const TransitionSystem& system, const StateSet& target,
                               PreimageMethod method, const PreimageOptions& options = {});

}  // namespace presat
