// Deterministic, seedable PRNG (SplitMix64). All randomized components in the
// library (generators, fuzz tests, solver tie-breaking) draw from this so
// every run is reproducible from a single seed.
#pragma once

#include <cstdint>

#include "base/log.hpp"

namespace presat {

class Rng {
 public:
  explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ull) : state_(seed) {}

  uint64_t next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }

  // Uniform in [0, bound). bound must be positive.
  uint64_t below(uint64_t bound) {
    PRESAT_DCHECK(bound > 0);
    // Rejection-free modulo is fine here: bounds are tiny relative to 2^64,
    // so the bias is negligible for test/benchmark generation purposes.
    return next() % bound;
  }

  // Uniform integer in [lo, hi] inclusive.
  int64_t range(int64_t lo, int64_t hi) {
    PRESAT_DCHECK(lo <= hi);
    return lo + static_cast<int64_t>(below(static_cast<uint64_t>(hi - lo + 1)));
  }

  bool flip() { return (next() & 1) != 0; }

  // True with probability num/den.
  bool chance(uint64_t num, uint64_t den) { return below(den) < num; }

 private:
  uint64_t state_;
};

}  // namespace presat
