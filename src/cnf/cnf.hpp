// CNF formula container.
//
// This is the interchange format between the circuit encoder, the CDCL
// solver, and the all-SAT baselines. It is a plain clause list with a
// variable count; solver-internal clause storage is separate (see
// sat/solver.hpp) so the formula stays cheap to copy and inspect.
#pragma once

#include <cstdint>
#include <vector>

#include "base/types.hpp"

namespace presat {

using Clause = LitVec;

class Cnf {
 public:
  Cnf() = default;
  explicit Cnf(int numVars) : numVars_(numVars) {}

  int numVars() const { return numVars_; }
  size_t numClauses() const { return clauses_.size(); }
  size_t numLiterals() const;

  // Creates a fresh variable and returns it.
  Var newVar() { return numVars_++; }

  // Adds a clause; literals must reference existing variables.
  void addClause(Clause clause);
  void addUnit(Lit a) { addClause({a}); }
  void addBinary(Lit a, Lit b) { addClause({a, b}); }
  void addTernary(Lit a, Lit b, Lit c) { addClause({a, b, c}); }

  const std::vector<Clause>& clauses() const { return clauses_; }
  const Clause& clause(size_t i) const { return clauses_[i]; }

  // Evaluates the formula under a complete assignment (values[v] for var v).
  bool evaluate(const std::vector<bool>& values) const;
  // Three-valued evaluation under a partial assignment.
  lbool evaluate(const std::vector<lbool>& values) const;

  void append(const Cnf& other);  // conjunction; variable spaces must match

 private:
  int numVars_ = 0;
  std::vector<Clause> clauses_;
};

}  // namespace presat
