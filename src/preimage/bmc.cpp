#include "preimage/bmc.hpp"

#include "base/log.hpp"
#include "base/timer.hpp"
#include "preimage/preimage.hpp"
#include "sat/solver.hpp"

namespace presat {

BmcResult boundedReach(const TransitionSystem& system, const StateSet& init,
                       const StateSet& target, int maxDepth) {
  Timer timer;
  const int n = system.numStateBits();
  PRESAT_CHECK(init.numStateBits == n && target.numStateBits == n);
  BmcResult result;
  if (init.cubes.empty() || target.cubes.empty()) {
    result.seconds = timer.seconds();
    return result;
  }

  const CircuitEncoding enc = encodeTransition(system);
  const int frameVars = enc.cnf.numVars();
  // stateBit[v]: the state bit whose present-state variable is v, or -1.
  std::vector<int> stateBit(static_cast<size_t>(frameVars), -1);
  for (int i = 0; i < n; ++i) stateBit[static_cast<size_t>(enc.varOf(system.stateNode(i)))] = i;

  Solver solver;
  // frames[t][v]: solver variable of encoding variable v in frame t.
  std::vector<std::vector<Var>> frames;
  auto frameLit = [&](int t, NodeId node) {
    return mkLit(frames[static_cast<size_t>(t)][static_cast<size_t>(enc.varOf(node))]);
  };

  for (int k = 0; k <= maxDepth; ++k) {
    // Frame k: a copy of the encoding over fresh variables, except that its
    // state variables are frame k-1's next-state-root variables (the tie is
    // a substitution, not equivalence clauses), so they carry the state at
    // time k.
    Cnf frame(solver.numVars());
    std::vector<Var>& vars = frames.emplace_back(static_cast<size_t>(frameVars));
    for (Var v = 0; v < frameVars; ++v) {
      const int bit = stateBit[static_cast<size_t>(v)];
      vars[static_cast<size_t>(v)] = k > 0 && bit >= 0
                                         ? frameLit(k - 1, system.nextStateRoot(bit)).var()
                                         : frame.newVar();
    }
    for (const Clause& clause : enc.cnf.clauses()) {
      Clause copy;
      copy.reserve(clause.size());
      for (Lit l : clause) copy.push_back(mkLit(vars[static_cast<size_t>(l.var())], l.sign()));
      frame.addClause(std::move(copy));
    }
    LitVec state;
    for (NodeId s : system.stateNodes()) state.push_back(frameLit(k, s));
    if (k == 0) addStateSetClauses(frame, init, state);
    const Lit activation = mkLit(frame.newVar());
    addStateSetClauses(frame, target, state, activation);
    if (!solver.addCnf(frame)) break;

    ++result.satCalls;
    if (!solver.solve({activation}).isTrue()) {
      solver.addClause({~activation});  // retire this depth's target
      continue;
    }

    result.reachable = true;
    result.depth = k;
    for (int t = 0; t <= k; ++t) {
      std::vector<bool> states(static_cast<size_t>(n));
      for (int i = 0; i < n; ++i) {
        states[static_cast<size_t>(i)] = solver.modelValue(frameLit(t, system.stateNode(i)));
      }
      result.traceStates.push_back(std::move(states));
    }
    for (int t = 0; t < k; ++t) {
      // Inputs outside every next-state cone are unconstrained; default 0.
      std::vector<bool> inputs(static_cast<size_t>(system.numInputs()), false);
      for (int j = 0; j < system.numInputs(); ++j) {
        NodeId in = system.inputNode(j);
        inputs[static_cast<size_t>(j)] = enc.isEncoded(in) && solver.modelValue(frameLit(t, in));
      }
      result.traceInputs.push_back(std::move(inputs));
    }
    break;
  }
  result.seconds = timer.seconds();
  return result;
}

}  // namespace presat
