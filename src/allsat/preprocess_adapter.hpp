// Preprocess-then-enumerate adapter shared by the CNF all-SAT engines.
//
// Runs cnf/preprocess.hpp over the formula with the projection scope frozen,
// hands the reduced CNF (and elementwise-translated projection) to the
// wrapped engine, and translates the model lifter across the variable spaces
// so callers keep the original-numbering contract. Because the remap is
// monotone and the projection vector is translated index-by-index, the
// engine's emitted cubes — which live in the projected INDEX space — need no
// translation at all.
#pragma once

#include <functional>

#include "allsat/blocking.hpp"
#include "allsat/projection.hpp"
#include "cnf/cnf.hpp"

namespace presat {

// The wrapped engine: invoked with the internal CNF, the translated
// projection, the translated lifter (empty stays empty), and the caller's
// options with `preprocess` cleared.
using AllSatRunner = std::function<AllSatResult(
    const Cnf&, const std::vector<Var>&, const ModelLifter&, const AllSatOptions&)>;

AllSatResult runWithPreprocess(const Cnf& cnf, const std::vector<Var>& projection,
                               const ModelLifter& lifter, const AllSatOptions& options,
                               const AllSatRunner& run);

}  // namespace presat
