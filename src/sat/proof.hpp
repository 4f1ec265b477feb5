// Proof logging for the CDCL solver, written as presat-cert-v1 proof lines.
//
// A ProofLog appends to a caller-owned string the clause additions and
// deletions a solve() derives — learnt clauses, unit learnts, and the empty
// clause ending an UNSAT run — as the `a <lits> 0` / `e <lits> 0` lines of
// a certificate's proof section (src/cert/certificate.hpp). Its one user is
// the certificate's replay solver, which proves F AND blocking(cubes) UNSAT.
//
// The log observes the search; it never influences it. A null ProofLog* on
// the Solver keeps every hot path branch-only.
#pragma once

#include <cstddef>
#include <string>

#include "base/types.hpp"

namespace presat {

// Appends "<tag> <l_1> ... <l_n> 0\n", literals as signed DIMACS integers:
// the form of every literal-list line in a presat-cert-v1 certificate.
void appendLitLine(std::string& out, char tag, const Lit* lits, size_t n);
inline void appendLitLine(std::string& out, char tag, const LitVec& lits) {
  appendLitLine(out, tag, lits.data(), lits.size());
}

class ProofLog {
 public:
  // Appends to `out`, which must outlive the log.
  explicit ProofLog(std::string& out) : out_(out) {}

  // Clause addition (`a`): the clause must be RUP with respect to the
  // working formula the eventual checker maintains.
  void addClause(const Lit* lits, size_t n);
  void addClause(const LitVec& lits) { addClause(lits.data(), lits.size()); }
  void addUnit(Lit l) { addClause(&l, 1); }
  void addEmpty() { addClause(nullptr, 0); }

  // Clause deletion (`e`).
  void deleteClause(const Lit* lits, size_t n);

  size_t numSteps() const { return steps_; }
  // True when the last step written is an empty-clause addition (the UNSAT
  // terminator a complete-cover certificate requires).
  bool endsWithEmptyClause() const { return endsWithEmpty_; }

 private:
  std::string& out_;
  size_t steps_ = 0;
  bool endsWithEmpty_ = false;
};

}  // namespace presat
