#include "cert/certificate.hpp"

#include <cinttypes>
#include <cstdio>

#include "base/log.hpp"
#include "sat/proof.hpp"
#include "sat/solver.hpp"

namespace presat {

namespace {

void appendHex64(std::string& out, uint64_t v) {
  char buf[20];
  int n = std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
  out.append(buf, static_cast<size_t>(n));
}

// Cube (projected index space) -> literals over the CNF variables in `scope`.
LitVec cubeToCnfLits(const LitVec& cube, const std::vector<Var>& scope) {
  LitVec out;
  out.reserve(cube.size());
  for (Lit l : cube) {
    size_t idx = static_cast<size_t>(l.var());
    PRESAT_CHECK(idx < scope.size()) << "certificate cube literal outside the projection scope";
    out.push_back(mkLit(scope[idx], l.sign()));
  }
  return out;
}

}  // namespace

uint64_t certCnfHash(const Cnf& cnf) {
  uint64_t h = 1469598103934665603ull;  // FNV-1a offset basis
  auto mix = [&h](int32_t v) {
    h ^= static_cast<uint64_t>(static_cast<int64_t>(v));
    h *= 1099511628211ull;  // FNV-1a prime
  };
  for (const Clause& clause : cnf.clauses()) {
    for (Lit l : clause) mix(l.toDimacs());
    mix(0);
  }
  return h;
}

CertificateResult buildCertificate(const CertificateSpec& spec) {
  PRESAT_CHECK(spec.cnf != nullptr && spec.scope != nullptr && spec.cubes != nullptr);
  PRESAT_CHECK(spec.guides == nullptr || spec.guides->empty())
      << "certificate: guide cubes are no longer part of the format";
  const Cnf& cnf = *spec.cnf;
  const std::vector<Var>& scope = *spec.scope;
  const std::vector<LitVec>& cubes = *spec.cubes;
  const bool complete = spec.outcome == Outcome::kComplete;

  CertificateResult out;
  std::string& cert = out.cert;
  cert.reserve(1u << 16);

  // --- header ---------------------------------------------------------------
  cert.append("p presat-cert 1\n");
  cert.append("h engine ").append(spec.engine).append("\n");
  cert.append("h circuit ");
  appendHex64(cert, spec.circuitHash);
  cert.push_back('\n');
  cert.append("h vars ");
  cert.append(std::to_string(cnf.numVars()));
  cert.push_back('\n');
  cert.append("h scope ");
  cert.append(std::to_string(scope.size()));
  for (Var v : scope) cert.append(" ").append(std::to_string(v + 1));
  cert.push_back('\n');
  cert.append("h flags project=").append(spec.project ? "1" : "0");
  cert.append(" compress=").append(spec.compress ? "1" : "0");
  cert.append(" disjoint=").append(spec.disjoint ? "1" : "0");
  // Every engine is serial: the token stays for the format, always 0.
  cert.append(" jobs=0\n");
  cert.append("h outcome ").append(outcomeName(spec.outcome)).append("\n");
  cert.append("h cnfhash ");
  appendHex64(cert, certCnfHash(cnf));
  cert.push_back('\n');

  // --- formula --------------------------------------------------------------
  for (const Clause& clause : cnf.clauses()) appendLitLine(cert, 'f', clause);

  // --- cubes ----------------------------------------------------------------
  for (const LitVec& cube : cubes) appendLitLine(cert, 'c', cube);

  // --- per-cube witnesses ---------------------------------------------------
  // One assumption solve per cube on a fresh ungoverned solver: every
  // engine's cubes hold solutions, degraded runs included, so each solve is
  // SAT. The full model is the justification trail the checker replays
  // without search.
  {
    Solver witness;
    bool loadable = witness.addCnf(cnf);
    for (const LitVec& cube : cubes) {
      PRESAT_CHECK(loadable) << "certificate witness: cover non-empty but the CNF is UNSAT";
      lbool status = witness.solve(cubeToCnfLits(cube, scope));
      PRESAT_CHECK(status.isTrue())
          << "certificate witness: cube contains no solution (unsound cover)";
      LitVec model;
      model.reserve(witness.model().size());
      for (Var v = 0; v < static_cast<Var>(witness.model().size()); ++v) {
        lbool value = witness.model()[static_cast<size_t>(v)];
        if (value.isUndef()) continue;
        model.push_back(mkLit(v, value.isFalse()));
      }
      appendLitLine(cert, 'j', model);
    }
  }

  // --- compression witnesses -----------------------------------------------
  if (spec.merges != nullptr) {
    // "w <var> <lits> 0": the eliminated variable written as its positive
    // literal, then the merged cube.
    for (const CompressMergeRecord& m : *spec.merges) {
      LitVec line{mkLit(m.mergeVar)};
      line.insert(line.end(), m.merged.begin(), m.merged.end());
      appendLitLine(cert, 'w', line);
    }
  }

  // --- completeness proof ---------------------------------------------------
  // Complete covers only, replayed on a fresh ungoverned solver: F plus the
  // blocking clause of every cube must be UNSAT, and the solver's own proof
  // log — learnt clauses down to the closing empty clause — certifies it.
  // Partial covers carry no proof.
  if (complete) {
    ProofLog proof(cert);
    Solver closer;
    closer.setProofLog(&proof);
    bool consistent = closer.addCnf(cnf);
    for (const LitVec& cube : cubes) {
      if (!consistent) break;
      LitVec blocking = cubeToCnfLits(cube, scope);
      for (Lit& l : blocking) l = ~l;
      consistent = closer.addClause(blocking);
    }
    if (consistent) {
      lbool status = closer.solve();
      PRESAT_CHECK(status.isFalse())
          << "certificate replay: cover claimed complete but a solution escapes it";
    }
    out.proofSteps = proof.numSteps();
    if (!proof.endsWithEmptyClause()) {
      // Defensive terminator; buildable only if the RUP chain above reaches
      // a conflict, which the checker independently confirms.
      cert.append("a 0\n");
    }
  }

  cert.append("h end\n");
  return out;
}

}  // namespace presat
