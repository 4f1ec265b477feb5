// Tests for literal encoding, CNF containers, the DIMACS reader, and the
// preprocessing simplifier.
#include <gtest/gtest.h>

#include <string>

#include "base/rng.hpp"
#include "base/types.hpp"
#include "cnf/cnf.hpp"
#include "cnf/dimacs.hpp"
#include "oracle/simplify.hpp"
#include "oracle/dpll.hpp"

namespace presat {
namespace {

TEST(Lit, EncodingRoundTrip) {
  Lit a = mkLit(3);
  EXPECT_EQ(a.var(), 3);
  EXPECT_FALSE(a.sign());
  Lit na = ~a;
  EXPECT_EQ(na.var(), 3);
  EXPECT_TRUE(na.sign());
  EXPECT_EQ(~na, a);
  EXPECT_EQ(a.toDimacs(), 4);
  EXPECT_EQ(na.toDimacs(), -4);
  EXPECT_EQ(Lit::fromDimacs(4), a);
  EXPECT_EQ(Lit::fromDimacs(-4), na);
}

TEST(Lit, XorWithBool) {
  Lit a = mkLit(5);
  EXPECT_EQ(a ^ true, a);
  EXPECT_EQ(a ^ false, ~a);
}

TEST(Lbool, ThreeValuedXor) {
  EXPECT_EQ(l_True ^ true, l_False);
  EXPECT_EQ(l_False ^ true, l_True);
  EXPECT_EQ(l_Undef ^ true, l_Undef);
  EXPECT_EQ(l_True ^ false, l_True);
  EXPECT_TRUE((l_Undef ^ true).isUndef());
}

TEST(Cnf, BuildAndEvaluate) {
  Cnf cnf(3);
  cnf.addBinary(mkLit(0), mkLit(1));
  cnf.addBinary(~mkLit(1), mkLit(2));
  EXPECT_EQ(cnf.numClauses(), 2u);
  EXPECT_EQ(cnf.numLiterals(), 4u);
  EXPECT_TRUE(cnf.evaluate(std::vector<bool>{true, false, false}));
  EXPECT_TRUE(cnf.evaluate(std::vector<bool>{false, true, true}));
  EXPECT_FALSE(cnf.evaluate(std::vector<bool>{false, false, true}));
  EXPECT_FALSE(cnf.evaluate(std::vector<bool>{false, true, false}));
}

TEST(Cnf, ThreeValuedEvaluate) {
  Cnf cnf(2);
  cnf.addBinary(mkLit(0), mkLit(1));
  std::vector<lbool> v{l_Undef, l_Undef};
  EXPECT_TRUE(cnf.evaluate(v).isUndef());
  v[0] = l_True;
  EXPECT_TRUE(cnf.evaluate(v).isTrue());
  v[0] = l_False;
  EXPECT_TRUE(cnf.evaluate(v).isUndef());
  v[1] = l_False;
  EXPECT_TRUE(cnf.evaluate(v).isFalse());
}

TEST(Dimacs, ParseBasic) {
  DimacsFile f = parseDimacsString(
      "c a comment\n"
      "p cnf 3 2\n"
      "1 -2 0\n"
      "2 3 0\n");
  EXPECT_EQ(f.cnf.numVars(), 3);
  ASSERT_EQ(f.cnf.numClauses(), 2u);
  EXPECT_EQ(f.cnf.clause(0), (Clause{mkLit(0), ~mkLit(1)}));
  EXPECT_EQ(f.cnf.clause(1), (Clause{mkLit(1), mkLit(2)}));
  EXPECT_FALSE(f.projection.has_value());
}

TEST(Dimacs, ParseProjectionExtension) {
  DimacsFile f = parseDimacsString(
      "c proj 1 3\n"
      "p cnf 3 1\n"
      "1 2 3 0\n");
  ASSERT_TRUE(f.projection.has_value());
  EXPECT_EQ(*f.projection, (std::vector<Var>{0, 2}));
}

TEST(Dimacs, ClauseSpanningLines) {
  DimacsFile f = parseDimacsString("p cnf 4 1\n1 2\n3 4 0\n");
  ASSERT_EQ(f.cnf.numClauses(), 1u);
  EXPECT_EQ(f.cnf.clause(0).size(), 4u);
}

TEST(Dimacs, ParsesRandomClausesExactly) {
  Rng rng(3);
  for (int iter = 0; iter < 50; ++iter) {
    Cnf cnf(static_cast<int>(rng.range(1, 10)));
    int clauses = static_cast<int>(rng.range(0, 15));
    std::string body;
    for (int i = 0; i < clauses; ++i) {
      Clause c;
      int len = static_cast<int>(rng.range(1, 4));
      for (int j = 0; j < len; ++j) {
        c.push_back(mkLit(static_cast<Var>(rng.below(static_cast<uint64_t>(cnf.numVars()))),
                          rng.flip()));
        body += std::to_string(c.back().toDimacs()) + " ";
      }
      body += "0\n";
      cnf.addClause(c);
    }
    DimacsFile back = parseDimacsString("p cnf " + std::to_string(cnf.numVars()) + " " +
                                        std::to_string(clauses) + "\n" + body);
    EXPECT_EQ(back.cnf.numVars(), cnf.numVars());
    ASSERT_EQ(back.cnf.numClauses(), cnf.numClauses());
    for (size_t i = 0; i < cnf.numClauses(); ++i) EXPECT_EQ(back.cnf.clause(i), cnf.clause(i));
  }
}

TEST(Dimacs, ProjectionAmongComments) {
  DimacsFile back = parseDimacsString(
      "c first comment\n"
      "c proj 1 4 5\n"
      "p cnf 5 1\n"
      "c trailing comment\n"
      "1 3 -5 0\n");
  ASSERT_TRUE(back.projection.has_value());
  EXPECT_EQ(*back.projection, (std::vector<Var>{0, 3, 4}));
  ASSERT_EQ(back.cnf.numClauses(), 1u);
  EXPECT_EQ(back.cnf.clause(0), (Clause{mkLit(0), mkLit(2), ~mkLit(4)}));
}

TEST(Types, ToStringFormats) {
  EXPECT_EQ(toString(mkLit(3)), "x3");
  EXPECT_EQ(toString(~mkLit(3)), "~x3");
  EXPECT_EQ(toString(kUndefLit), "<undef>");
  EXPECT_EQ(toString(LitVec{mkLit(0), ~mkLit(1)}), "(x0 ~x1)");
}

TEST(Simplify, PropagatesUnits) {
  Cnf cnf(3);
  cnf.addUnit(mkLit(0));
  cnf.addBinary(~mkLit(0), mkLit(1));
  cnf.addTernary(~mkLit(1), ~mkLit(0), mkLit(2));
  SimplifyResult r = simplify(cnf);
  EXPECT_FALSE(r.unsat);
  EXPECT_TRUE(r.forced[0].isTrue());
  EXPECT_TRUE(r.forced[1].isTrue());
  EXPECT_TRUE(r.forced[2].isTrue());
}

TEST(Simplify, DetectsConflict) {
  Cnf cnf(1);
  cnf.addUnit(mkLit(0));
  cnf.addUnit(~mkLit(0));
  EXPECT_TRUE(simplify(cnf).unsat);
  EXPECT_FALSE(propagateUnits(cnf).has_value());
}

TEST(Simplify, DropsTautologies) {
  Cnf cnf(2);
  cnf.addTernary(mkLit(0), ~mkLit(0), mkLit(1));
  SimplifyResult r = simplify(cnf);
  EXPECT_EQ(r.simplified.numClauses(), 0u);
}

// Property: simplification preserves the model set exactly.
TEST(SimplifyProperty, PreservesModels) {
  Rng rng(19);
  for (int iter = 0; iter < 200; ++iter) {
    int vars = static_cast<int>(rng.range(1, 8));
    Cnf cnf(vars);
    int clauses = static_cast<int>(rng.range(1, 12));
    for (int i = 0; i < clauses; ++i) {
      Clause c;
      int len = static_cast<int>(rng.range(1, 3));
      for (int j = 0; j < len; ++j)
        c.push_back(mkLit(static_cast<Var>(rng.below(static_cast<uint64_t>(vars))), rng.flip()));
      cnf.addClause(c);
    }
    SimplifyResult r = simplify(cnf);
    std::vector<bool> assignment(static_cast<size_t>(vars));
    for (uint64_t bits = 0; bits < (1ull << vars); ++bits) {
      for (Var v = 0; v < vars; ++v) assignment[static_cast<size_t>(v)] = (bits >> v) & 1;
      bool original = cnf.evaluate(assignment);
      bool simplified = r.unsat ? false : r.simplified.evaluate(assignment);
      EXPECT_EQ(original, simplified) << "iter " << iter << " bits " << bits;
    }
  }
}

// Malformed DIMACS must abort with a clear message rather than flow a bad
// header or literal into Cnf construction.
TEST(DimacsDeath, RejectsNegativeVarCount) {
  EXPECT_DEATH(parseDimacsString("p cnf -3 1\n1 0\n"), "non-positive variable count");
}

TEST(DimacsDeath, RejectsZeroVarCount) {
  EXPECT_DEATH(parseDimacsString("p cnf 0 0\n"), "non-positive variable count");
}

TEST(DimacsDeath, RejectsNegativeClauseCount) {
  EXPECT_DEATH(parseDimacsString("p cnf 3 -1\n1 0\n"), "negative clause count");
}

TEST(DimacsDeath, RejectsGarbageHeader) {
  EXPECT_DEATH(parseDimacsString("p cnf three two\n"), "bad 'p cnf' header");
}

TEST(DimacsDeath, RejectsDuplicateHeader) {
  EXPECT_DEATH(parseDimacsString("p cnf 2 1\np cnf 2 1\n1 0\n"), "duplicate 'p cnf' header");
}

TEST(DimacsDeath, RejectsOversizedLiteral) {
  EXPECT_DEATH(parseDimacsString("p cnf 2 1\n7 0\n"), "exceeds declared variable count");
  // A literal past INT32 range must not wrap into a valid variable.
  EXPECT_DEATH(parseDimacsString("p cnf 2 1\n-99999999999 0\n"),
               "exceeds declared variable count");
}

TEST(DimacsDeath, RejectsMissingHeader) {
  // Empty or comment-only input (a truncated file, /dev/null) is not a
  // 0-variable formula with one solution.
  EXPECT_DEATH(parseDimacsString(""), "missing 'p cnf' header");
  EXPECT_DEATH(parseDimacsString("c only a comment\nc proj 1 2\n"), "missing 'p cnf' header");
}

TEST(DimacsDeath, RejectsClauseBeforeHeader) {
  EXPECT_DEATH(parseDimacsString("1 2 0\np cnf 2 1\n1 2 0\n"), "clause before 'p cnf' header");
}

TEST(DimacsDeath, RejectsNonDimacsLines) {
  // Silently skipping unparsable lines would turn e.g. a .bench netlist into
  // an empty (trivially SAT) formula.
  EXPECT_DEATH(parseDimacsString("INPUT(G0)\nOUTPUT(G1)\n"), "unparsable DIMACS line");
  EXPECT_DEATH(parseDimacsString("p cnf 2 1\n1 2 0 junk\n"), "unparsable DIMACS line");
}

TEST(Dimacs, AcceptsSatlibPercentTerminator) {
  DimacsFile f = parseDimacsString("p cnf 2 1\n1 2 0\n%\n0\n");
  EXPECT_EQ(f.cnf.numClauses(), 1u);
}

TEST(DimacsDeath, RejectsUnterminatedClause) {
  EXPECT_DEATH(parseDimacsString("p cnf 2 1\n1 2\n"), "unterminated clause");
}

TEST(DimacsDeath, RejectsClauseCountMismatch) {
  EXPECT_DEATH(parseDimacsString("p cnf 2 2\n1 2 0\n"), "clause count mismatch");
}

TEST(DimacsDeath, RejectsRepeatedProjectionVariable) {
  // A repeated scope variable makes the chrono and success-driven counts
  // wrong, so the parser refuses it.
  EXPECT_DEATH(parseDimacsString("c proj 1 2 1\np cnf 2 1\n1 2 0\n"),
               "projection lists variable 1 twice");
}

}  // namespace
}  // namespace presat
