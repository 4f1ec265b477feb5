// Model lifting: growing one satisfying assignment into a solution cube.
//
// Three sound strategies are provided:
//  * shrinkModelToImplicant — CNF-level greedy witness selection. Valid when
//    the projection scope is the full variable set (every clause keeps a
//    witness literal, so any completion of the kept literals satisfies the
//    formula).
//  * JustificationLifter — circuit-level critical tracing. Starting from the
//    required output values, it keeps only the source assignments needed to
//    justify them (one controlling fanin suffices for a controlled gate: the
//    one whose cone holds the fewest emitted sources, so the cube stays wide).
//    The kept source cube forces the objectives under ANY completion, so its
//    projection onto the state variables is a valid preimage cube.
//  * CircuitWidener — chrono's circuit-side prefix widening: the shortest
//    decision prefix under which ternary simulation of the netlist still
//    forces the objectives.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "base/types.hpp"
#include "circuit/netlist.hpp"
#include "cnf/cnf.hpp"

namespace presat {

// Assignment of a circuit node to a boolean value.
using NodeAssign = std::pair<NodeId, bool>;
using NodeCube = std::vector<NodeAssign>;

// Greedy prime-implicant extraction from a full model: returns a sub-cube of
// the model (literals over the CNF variables) such that every completion
// satisfies the formula. `model` must satisfy `cnf`.
LitVec shrinkModelToImplicant(const Cnf& cnf, const std::vector<lbool>& model);

// Prefix-closed implicant shrinking for chronological enumeration over a raw
// CNF (a circuit's preimage uses CircuitWidener instead): given a full model
// and the decision level each variable was assigned at, returns the smallest
// B such that the model restricted to levels <= B already satisfies every
// clause (each clause has a true literal stamped <= B). Any completion of
// that restriction is a model, so the trail prefix through level B is an
// implicant. Returns 0 for an empty CNF.
int implicantPrefixLevel(const Cnf& cnf, const std::vector<lbool>& model,
                         const std::vector<int>& varLevel);

// Projected variant of implicantPrefixLevel for witness (partial) models:
// assigned non-scope literals count as level 0 — they are existential
// witnesses the emitted cube never mentions, so they never force the scope
// prefix deeper — and unassigned literals are skipped. Returns the smallest
// B such that (scope literals at levels <= B) plus (the assigned non-scope
// literals) satisfy every clause; any scope assignment extending that prefix
// then has a completion satisfying `cnf`. Never exceeds the unprojected
// prefix level for the same model. `model` must be witness-complete: every
// clause needs at least one assigned true literal.
int projectedWitnessLevel(const Cnf& cnf, const std::vector<lbool>& model,
                          const std::vector<int>& varLevel,
                          const std::vector<uint8_t>& inScope);

// Circuit-side cube widening for chronological enumeration of a circuit's
// preimage (allsat/chrono_blocking.hpp). The CNF-level prefix scans above
// pin Tseitin auxiliaries at their model values, and those values depend on
// the very state bits a shorter prefix would drop, so they rarely widen a
// cube. This oracle checks a prefix against the netlist instead: ternary
// simulation over the objectives' fanin cone, with the scope sources stamped
// beyond the prefix set to X and every other source at its model value.
//
// Built once per query and immutable afterwards; the enumeration run owns
// the value buffer.
class CircuitWidener {
 public:
  // `objectives`: the target as a union of node cubes (some cube must hold).
  // `sourceVar[id]`: CNF variable carrying source node `id` (an input or
  // DFF output), or kNullVar when the encoding lacks it (not encoded, or
  // eliminated by preprocessing) — such a source is X. `scope`: the
  // enumeration scope; the sources it carries are the enumerated ones.
  CircuitWidener(const Netlist& netlist, std::vector<NodeCube> objectives,
                 const std::vector<Var>& sourceVar, const std::vector<Var>& scope);

  // Scope variables outside every objective's cone. Chrono decides them
  // after all other scope variables, so they sit at the deepest levels and
  // the widening drops them.
  const std::vector<Var>& deferredScope() const { return deferred_; }

  // Shallowest level b in [lo, k] at which ternary simulation forces every
  // literal of some objective cube, with the scope variables stamped at
  // levels <= b at their `model` values, later ones X, and the other
  // sources at their `model` values (l_Undef = X). Returns k when no level
  // works: the full scope prefix of a model is sound on its own.
  // `varLevel` must hold the level of every scope variable. `values` is the
  // caller's node-indexed buffer, reused across calls; `sims` counts the
  // simulations run.
  int emitLevel(const std::vector<lbool>& model, const std::vector<int>& varLevel, int lo, int k,
                std::vector<lbool>& values, uint64_t& sims) const;

 private:
  using SourceVar = std::pair<NodeId, Var>;

  const Netlist& netlist_;
  std::vector<NodeCube> objectives_;
  std::vector<NodeId> order_;               // cone gates and constants, topological
  std::vector<SourceVar> scopeSources_;     // enumerated sources in the cone
  std::vector<SourceVar> otherSources_;     // the cone's other sources
  std::vector<Var> deferred_;
};

// Built once per query: the objectives' fanin cone in topological order,
// each cone source's binding to the model, the node value buffer and the
// epoch-stamped marks. Each lift() simulates only that cone and reuses the
// buffers, so one enumeration owns one lifter.
class JustificationLifter {
 public:
  // How a source node (input or DFF output) reads its value off a model:
  // the model variable `var` (l_Undef and variables past the model read as
  // 0), or the constant `value` when `var` is kNullVar. An `emit` source
  // joins the lifted cube when the walk reaches it; it needs a variable.
  struct Source {
    Var var = kNullVar;
    bool value = false;
    bool emit = false;
  };

  // `objectives`: the target as a union of node cubes. `sources[id]` binds
  // source node `id`; the entries of other nodes are ignored.
  JustificationLifter(const Netlist& netlist, std::vector<NodeCube> objectives,
                      std::vector<Source> sources);

  // Returns the emitted sources the justification of the first realized
  // objective cube reaches, as literals over their model variables, in the
  // order the walk reaches them. Prefers a controlling fanin that is already
  // marked, else the one whose fanin cone holds the fewest emitted sources
  // (the first on a tie); a MUX's select goes before its chosen data input.
  LitVec lift(const std::vector<lbool>& model);

 private:
  const Netlist& netlist_;
  std::vector<NodeCube> objectives_;
  std::vector<Source> sources_;
  std::vector<NodeId> order_;        // cone gates and constants, topological
  std::vector<NodeId> coneSources_;  // the cone's inputs and DFF outputs
  std::vector<lbool> values_;        // node-indexed; cone entries rewritten per lift
  std::vector<uint32_t> emitCount_;  // node-indexed; emitted sources in its fanin cone
  std::vector<uint32_t> stamp_;      // node marked in this lift iff stamp_ == epoch_
  uint32_t epoch_ = 0;
  std::vector<NodeId> stack_;
};

}  // namespace presat
