#include "cnf/dimacs.hpp"

#include <cstdint>
#include <fstream>
#include <sstream>
#include <vector>

#include "base/log.hpp"

namespace presat {

DimacsFile parseDimacs(std::istream& in) {
  DimacsFile file;
  int declaredVars = -1;
  long declaredClauses = -1;
  Clause current;
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream ls(line);
    std::string tok;
    if (!(ls >> tok)) continue;
    if (tok == "c") {
      std::string kind;
      if (ls >> kind && kind == "proj") {
        std::vector<Var> proj;
        long v;
        while (ls >> v) {
          PRESAT_CHECK(v >= 1) << "projection vars are 1-based positive ints";
          proj.push_back(static_cast<Var>(v - 1));
        }
        file.projection = std::move(proj);
      }
      continue;
    }
    if (tok == "p") {
      PRESAT_CHECK(declaredVars < 0) << "duplicate 'p cnf' header";
      std::string fmt;
      PRESAT_CHECK((ls >> fmt) && fmt == "cnf") << "expected 'p cnf' header";
      PRESAT_CHECK(ls >> declaredVars >> declaredClauses) << "bad 'p cnf' header";
      PRESAT_CHECK(declaredVars > 0) << "non-positive variable count in 'p cnf' header";
      PRESAT_CHECK(declaredClauses >= 0) << "negative clause count in 'p cnf' header";
      file.cnf = Cnf(declaredVars);
      continue;
    }
    // Clause data: integers terminated by 0 (clauses may span lines).
    ls.clear();
    ls.seekg(0);
    long v;
    while (ls >> v) {
      if (v == 0) {
        PRESAT_CHECK(declaredVars >= 0) << "clause before 'p cnf' header";
        file.cnf.addClause(current);
        current.clear();
      } else {
        PRESAT_CHECK(declaredVars >= 0) << "clause before 'p cnf' header";
        // Range-check before the int32 narrowing: |LONG_MIN| overflows and a
        // wrapped literal could silently alias a valid variable.
        PRESAT_CHECK(v >= -static_cast<long>(INT32_MAX) && v <= INT32_MAX &&
                     v >= -static_cast<long>(declaredVars) &&
                     v <= static_cast<long>(declaredVars))
            << "literal " << v << " exceeds declared variable count " << declaredVars;
        current.push_back(Lit::fromDimacs(static_cast<int32_t>(v)));
      }
    }
    if (!ls.eof()) {
      // Integer extraction stopped mid-line: the rest is not clause data.
      // A lone '%' is the SATLIB end-of-file marker; anything else means the
      // input is not DIMACS at all (e.g. a .bench netlist), and silently
      // skipping it would "parse" garbage into an empty formula.
      ls.clear();
      std::string bad;
      ls >> bad;
      if (bad == "%") break;
      PRESAT_CHECK(false) << "unparsable DIMACS line: '" << line << "'";
    }
  }
  // An empty, comment-only or truncated input is not a 0-variable formula.
  PRESAT_CHECK(declaredVars >= 0) << "missing 'p cnf' header";
  PRESAT_CHECK(current.empty()) << "unterminated clause at end of DIMACS input";
  if (declaredClauses >= 0) {
    PRESAT_CHECK(static_cast<long>(file.cnf.numClauses()) == declaredClauses)
        << "clause count mismatch: declared " << declaredClauses << ", found "
        << file.cnf.numClauses();
  }
  if (file.projection) {
    std::vector<uint8_t> listed(static_cast<size_t>(file.cnf.numVars()), 0);
    for (Var v : *file.projection) {
      PRESAT_CHECK(v < file.cnf.numVars()) << "projection var out of range";
      PRESAT_CHECK(!listed[static_cast<size_t>(v)])
          << "projection lists variable " << v + 1 << " twice";
      listed[static_cast<size_t>(v)] = 1;
    }
  }
  return file;
}

DimacsFile parseDimacsString(const std::string& text) {
  std::istringstream in(text);
  return parseDimacs(in);
}

DimacsFile parseDimacsFile(const std::string& path) {
  std::ifstream in(path);
  PRESAT_CHECK(in.good()) << "cannot open DIMACS file: " << path;
  return parseDimacs(in);
}

}  // namespace presat
