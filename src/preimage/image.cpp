#include "preimage/image.hpp"

#include "allsat/blocking.hpp"
#include "base/log.hpp"
#include "base/timer.hpp"
#include "bdd/bdd.hpp"
#include "preimage/bdd_preimage.hpp"
#include "preimage/preimage.hpp"

namespace presat {

const char* imageMethodName(ImageMethod method) {
  switch (method) {
    case ImageMethod::kMintermBlocking: return "minterm-blocking";
    case ImageMethod::kBdd: return "bdd";
  }
  return "?";
}

namespace {

// Projected all-SAT over the circuit's transition encoding. State sources
// and next-state roots are both frozen by buildTransitionEncoding, so the
// `from` constraint and the projection translate into the preprocessed space
// literal by literal. Two state bits driven by the same node share a variable; the
// projected index space still has one position per bit, whose values are
// then always equal — counting and blocking remain exact.
ImageResult imageViaAllSat(const TransitionSystem& system, const StateSet& from) {
  TransitionEncoding te = buildTransitionEncoding(system);
  Cnf cnf = te.base.cnf;
  LitVec states;
  states.reserve(static_cast<size_t>(system.numStateBits()));
  for (NodeId s : system.stateNodes()) states.push_back(te.base.internalLit(te.enc.litOf(s)));
  addStateSetClauses(cnf, from, states);

  std::vector<Var> projection;
  projection.reserve(static_cast<size_t>(system.numStateBits()));
  for (int i = 0; i < system.numStateBits(); ++i) {
    projection.push_back(te.base.internalVar(te.enc.varOf(system.nextStateRoot(i))));
  }

  // The encoding is already preprocessed.
  AllSatResult r = blockingAllSat(cnf, projection);
  ImageResult result;
  result.states.numStateBits = system.numStateBits();
  result.states.cubes = std::move(r.cubes);
  result.stateCount = std::move(r.mintermCount);
  return result;
}

}  // namespace

ImageResult computeImage(const TransitionSystem& system, const StateSet& from,
                         ImageMethod method) {
  PRESAT_CHECK(from.numStateBits == system.numStateBits());
  switch (method) {
    case ImageMethod::kMintermBlocking: {
      Timer timer;
      ImageResult result = imageViaAllSat(system, from);
      result.seconds = timer.seconds();
      return result;
    }
    case ImageMethod::kBdd: {
      Timer timer;
      BddRelationalTransition transition(system);
      BddManager& mgr = transition.manager();
      const int n = system.numStateBits();
      // Img(F) = unprime(∃s,x. TR ∧ F(s)).
      std::vector<Var> presentAndInputs;
      for (int i = 0; i < n; ++i) presentAndInputs.push_back(static_cast<Var>(i));
      for (int j = 0; j < system.numInputs(); ++j) {
        presentAndInputs.push_back(static_cast<Var>(2 * n + j));
      }
      BddRef primedImage =
          mgr.andExists(transition.relation(), from.toBdd(mgr), presentAndInputs);
      std::vector<BddRef> unprime(static_cast<size_t>(mgr.numVars()),
                                  BddManager::kNoSubstitution);
      for (int i = 0; i < n; ++i) {
        unprime[static_cast<size_t>(n + i)] = mgr.variable(static_cast<Var>(i));
      }
      BddRef image = mgr.composeVector(primedImage, unprime);
      ImageResult result;
      result.states = transition.toStateSet(image);
      result.stateCount = transition.countStates(image);
      result.seconds = timer.seconds();
      return result;
    }
  }
  PRESAT_CHECK(false) << "unknown image method";
  return {};
}

}  // namespace presat
