// DIMACS CNF reader, plus a projection-scope extension.
//
// The reader accepts the standard `p cnf <vars> <clauses>` format with
// comment lines. A `c proj v1 v2 ...` comment line (1-based DIMACS variable
// numbers) optionally declares the projection scope used by the all-SAT
// examples; it is surfaced through DimacsFile::projection.
#pragma once

#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "cnf/cnf.hpp"

namespace presat {

struct DimacsFile {
  Cnf cnf;
  // Declared projection scope (0-based vars), if a `c proj` line was present.
  std::optional<std::vector<Var>> projection;
};

// Parses DIMACS from a stream / string / file. PRESAT_CHECK-fails on
// malformed input (this library treats inputs as trusted test artifacts).
DimacsFile parseDimacs(std::istream& in);
DimacsFile parseDimacsString(const std::string& text);
DimacsFile parseDimacsFile(const std::string& path);

}  // namespace presat
