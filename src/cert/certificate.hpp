// presat-cert-v1: independently verifiable cover certificates.
//
// A certificate packages everything an external checker needs to verify a
// preimage cover without trusting this library: the CNF the query solved
// (`f` lines), the cover (`c` cubes over the projected scope), one model
// witness per cube (`j` lines — a model of F that extends the cube, so the
// cube holds at least one solution; it says nothing about the cube's other
// minterms), optional merge witnesses (`w` lines — one
// (x & A) | (~x & A) = A record each; no cover of this library carries one,
// since a compressed cover is an ISOP, but the grammar stays), and a
// clausal completeness proof (`a`/`e` lines) whose final empty clause shows
// that F AND the blocking clauses of every cube is UNSAT — i.e. no solution
// escapes the cover. Partial (governor-degraded) covers carry no
// completeness proof; the checker then verifies the witnesses and
// disjointness only, and that the claimed outcome is an honest degradation
// reason.
//
// Line grammar (integers are signed DIMACS, 1-based; '0' terminates lists):
//   p presat-cert 1
//   h engine <name>
//   h circuit <16 hex digits>        structural hash of the source netlist
//   h vars <n>                       CNF variable count
//   h scope <k> <v_1> ... <v_k>      CNF variable of projected index i
//   h flags project=<0|1> compress=<0|1> disjoint=<0|1> jobs=<n>
//                                    the writer always says jobs=0
//   h outcome <complete|deadline|memory|conflicts|cancelled|cube-cap>
//   h cnfhash <16 hex digits>        FNV-1a over the `f` integer stream
//   f <lits> 0                       one per CNF clause
//   c <lits> 0                       one per cube (projected index space)
//   j <lits> 0                       one per cube, same order (CNF space)
//   w <var> <lits> 0                 merge witness: var eliminated, merged A
//   a <lits> 0 | e <lits> 0          proof: RUP addition / deletion
//   h end                            required trailer (truncation tripwire)
//
// The checker (src/checktool/presat_check.cpp) shares NO code with this
// library by design: it has its own parser and propagation loop, so a bug in
// the solver, arena, or cover shaping cannot silently blind the verifier.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "allsat/projection.hpp"
#include "cnf/cnf.hpp"
#include "govern/budget.hpp"

namespace presat {

struct CertificateSpec {
  const Cnf* cnf = nullptr;                    // formula the cover speaks about
  const std::vector<Var>* scope = nullptr;     // CNF var of projected index i
  const std::vector<LitVec>* cubes = nullptr;  // cover, projected index space
  // Must be null or empty: no engine splits, and the format has no guide
  // lines any more. Kept for the benchmark harness, which still sets it.
  const std::vector<LitVec>* guides = nullptr;
  // Optional section (null/empty = omitted).
  const std::vector<CompressMergeRecord>* merges = nullptr;
  Outcome outcome = Outcome::kComplete;
  // Pairwise-disjoint cubes (minterm blocking, chrono); false (cube blocking,
  // the ISOPs of success-driven, kBdd and every compressed cover) skips the
  // disjointness check.
  bool disjoint = true;
  const char* engine = "";
  uint64_t circuitHash = 0;
  int jobs = 0;  // ignored (the header says jobs=0); kept for the benchmark harness
  bool project = false;
  bool compress = false;
};

struct CertificateResult {
  std::string cert;       // presat-cert-v1 text
  size_t proofSteps = 0;  // `a`/`e` lines of its proof (0 for a partial cover)
};

// Builds the certificate. Each witness is one assumption solve per cube on a
// fresh ungoverned solver; a cube without any solution is a check-failure.
// A cube that also covers non-solutions still gets a witness, so the
// witnesses do not show that the cover lies inside the solution set. A
// complete cover's proof is a replay: a second fresh ungoverned solver
// proves F AND blocking(cubes) UNSAT, and its log is the proof.
CertificateResult buildCertificate(const CertificateSpec& spec);

// FNV-1a over the clause integer stream (each clause's DIMACS literals
// followed by a 0). The checker recomputes this over its parsed `f` lines.
uint64_t certCnfHash(const Cnf& cnf);

}  // namespace presat
