// Shared helpers for the test suite: random formula / circuit generation.
#pragma once

#include "base/rng.hpp"
#include "cnf/cnf.hpp"

namespace presat::testutil {

// Random k-CNF with clause lengths in [1, maxLen]; may be SAT or UNSAT.
inline Cnf randomCnf(Rng& rng, int vars, int clauses, int maxLen = 3) {
  Cnf cnf(vars);
  for (int i = 0; i < clauses; ++i) {
    Clause c;
    int len = static_cast<int>(rng.range(1, maxLen));
    for (int j = 0; j < len; ++j) {
      c.push_back(mkLit(static_cast<Var>(rng.below(static_cast<uint64_t>(vars))), rng.flip()));
    }
    cnf.addClause(c);
  }
  return cnf;
}

// Pigeonhole principle PHP(n+1, n): n+1 pigeons, n holes — classically UNSAT
// and hard for resolution; exercises conflict analysis heavily.
inline Cnf pigeonhole(int holes) {
  int pigeons = holes + 1;
  Cnf cnf(pigeons * holes);
  auto var = [&](int p, int h) { return static_cast<Var>(p * holes + h); };
  // Every pigeon sits in some hole.
  for (int p = 0; p < pigeons; ++p) {
    Clause c;
    for (int h = 0; h < holes; ++h) c.push_back(mkLit(var(p, h)));
    cnf.addClause(c);
  }
  // No two pigeons share a hole.
  for (int h = 0; h < holes; ++h) {
    for (int p = 0; p < pigeons; ++p) {
      for (int q = p + 1; q < pigeons; ++q) {
        cnf.addBinary(~mkLit(var(p, h)), ~mkLit(var(q, h)));
      }
    }
  }
  return cnf;
}

// x0 ^ ... ^ x(n-1) = 1 as the 2^(n-1) clauses that each forbid one
// even-parity assignment. No two solutions are adjacent, so every implicant
// is a full minterm: no cube-widening pass can merge anything.
inline Cnf oddParity(int n) {
  Cnf cnf(n);
  for (uint64_t bits = 0; bits < (uint64_t{1} << n); ++bits) {
    if (__builtin_popcountll(bits) % 2 != 0) continue;
    Clause c;
    for (Var v = 0; v < n; ++v) c.push_back(mkLit(v, ((bits >> v) & 1) != 0));
    cnf.addClause(c);
  }
  return cnf;
}

}  // namespace presat::testutil
