// The `parallel` member of AllSatOptions (allsat/projection.hpp).
//
// Every engine enumerates serially and none reads this struct: `jobs` is a
// no-op kept for the benchmark harness (perfbench/harness.cpp), which still
// sets it, and goes when the harness stops naming it. presat_serve's
// parallelism is its worker count (`--workers`), one request per worker.
#pragma once

namespace presat {

struct ParallelOptions {
  int jobs = 0;  // ignored
};

}  // namespace presat
