#include "preimage/image.hpp"

#include <optional>

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

// Projected all-SAT over the shared encoding. State sources and next-state
// roots are both frozen by buildTransitionEncoding, so the `from` constraint
// and the projection translate into the preprocessed space literal by
// literal. Two state bits driven by the same node share a variable; the
// projected index space still has one position per bit, whose values are
// then always equal — counting and blocking remain exact.
ImageResult imageViaAllSat(const TransitionEncoding& te, const TransitionSystem& system,
                           const StateSet& from, const AllSatOptions& options) {
  Cnf cnf = te.base.cnf;
  if (from.cubes.empty()) {
    cnf.addClause({});
  } else {
    // Present state constrained to `from`: selector per cube, (sel_i ->
    // cube_i) plus (sel_1 | ... | sel_k).
    Clause atLeastOne;
    for (const LitVec& cube : from.cubes) {
      Lit sel = mkLit(cnf.newVar());
      atLeastOne.push_back(sel);
      for (Lit l : cube) {
        Lit state = te.enc.litOf(system.stateNode(l.var()), !l.sign());
        cnf.addBinary(~sel, te.base.internalLit(state));
      }
    }
    cnf.addClause(std::move(atLeastOne));
  }

  std::vector<Var> projection;
  projection.reserve(static_cast<size_t>(system.numStateBits()));
  for (int i = 0; i < system.numStateBits(); ++i) {
    projection.push_back(te.base.internalVar(te.enc.varOf(system.nextStateRoot(i))));
  }

  // The shared encoding is already preprocessed.
  AllSatResult r = blockingAllSat(cnf, projection, /*lifter=*/{}, options);
  ImageResult result;
  result.states.numStateBits = system.numStateBits();
  result.states.cubes = std::move(r.cubes);
  result.stateCount = std::move(r.mintermCount);
  result.complete = r.complete;
  result.stats = r.stats;
  return result;
}

}  // namespace

ImageResult computeImage(const TransitionSystem& system, const StateSet& from,
                         ImageMethod method, const AllSatOptions& options) {
  PRESAT_CHECK(from.numStateBits == system.numStateBits());
  switch (method) {
    case ImageMethod::kMintermBlocking: {
      Timer timer;
      ImageResult result =
          imageViaAllSat(buildTransitionEncoding(system, options.governor), system, from, options);
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

ForwardReachResult forwardReach(const TransitionSystem& system, const StateSet& init,
                                int maxDepth, ImageMethod method, const AllSatOptions& options) {
  Timer timer;
  const int n = system.numStateBits();
  PRESAT_CHECK(init.numStateBits == n);
  BddManager mgr(n);
  BddRef reached = init.toBdd(mgr);
  BddRef frontier = reached;

  std::optional<TransitionEncoding> te;
  if (method == ImageMethod::kMintermBlocking) {
    te = buildTransitionEncoding(system, options.governor);
  }

  ForwardReachResult result;
  for (int depth = 1; depth <= maxDepth; ++depth) {
    if (frontier == BddManager::kFalse) {
      result.fixpoint = true;
      break;
    }
    StateSet frontierSet;
    frontierSet.numStateBits = n;
    frontierSet.cubes = mgr.enumerateCubes(frontier);
    ImageResult img = te ? imageViaAllSat(*te, system, frontierSet, options)
                         : computeImage(system, frontierSet, method, options);
    PRESAT_CHECK(img.complete) << "forward reachability needs complete images";
    BddRef imgBdd = img.states.toBdd(mgr);
    frontier = mgr.bddAnd(imgBdd, mgr.bddNot(reached));
    reached = mgr.bddOr(reached, imgBdd);
    result.depth = depth;
  }
  if (frontier == BddManager::kFalse) result.fixpoint = true;
  result.reached.numStateBits = n;
  result.reached.cubes = mgr.enumerateCubes(reached);
  result.seconds = timer.seconds();
  return result;
}

}  // namespace presat
