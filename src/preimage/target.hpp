// State sets as cube lists over the state index space.
//
// This is the interchange format between preimage steps: the target of a
// query, and its result, are both unions of cubes over the state bits.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "base/biguint.hpp"
#include "base/types.hpp"

namespace presat {

class BddManager;
class Cnf;

struct StateSet {
  int numStateBits = 0;
  // Union of cubes; variable i of each literal is state bit i.
  std::vector<LitVec> cubes;

  static StateSet fromCube(int numStateBits, LitVec cube);
  // State given as bit pattern (bit i = state bit i).
  static StateSet fromMinterm(int numStateBits, uint64_t minterm);
  static StateSet all(int numStateBits) { return fromCube(numStateBits, {}); }
  static StateSet none(int numStateBits) { return {numStateBits, {}}; }

  bool empty() const { return cubes.empty(); }
  // Exact number of states in the union.
  BigUint countStates() const;
  // Membership test for a concrete state.
  bool contains(const std::vector<bool>& state) const;

  uint32_t toBdd(BddManager& mgr) const;

  std::string toString() const;
};

// Semantic equality of two state sets (via BDDs).
bool sameStates(const StateSet& a, const StateSet& b);

// Adds "the state lies in `set`" to `cnf`, where bitLits[i] holds exactly
// when state bit i is 1. A single cube adds one unit clause per literal; a
// union adds a fresh selector per cube, (sel -> cube) plus the clause over
// all selectors; the empty set adds the empty clause. A defined `guard`
// makes the constraint conditional: ~guard joins every clause that is not a
// selector implication.
void addStateSetClauses(Cnf& cnf, const StateSet& set, const LitVec& bitLits,
                        Lit guard = kUndefLit);

}  // namespace presat
