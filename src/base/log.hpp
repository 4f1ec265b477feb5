// String helpers: the toString formatting of the core literal types used in
// check messages, and `numbered`, the one way to build an indexed name
// (netlist nodes, generated circuits, diagnostics).
//
// The invariant-check macros (PRESAT_CHECK / PRESAT_DCHECK and the audit
// gating) live in base/check.hpp; this header re-exports them so existing
// includes keep working.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "base/check.hpp"
#include "base/types.hpp"

namespace presat {

std::string toString(Lit l);
std::string toString(const LitVec& lits);

// `prefix` followed by the decimal `n`, e.g. numbered("s", 3) == "s3". Use
// it rather than `"s" + std::to_string(n)`: a string literal on the left of
// a temporary string goes through operator+(const char*, std::string&&),
// which inserts the literal at the front of the temporary, and once that
// insert is inlined (-O2 and up) GCC 12 reports a false -Wrestrict in
// char_traits. Appending the number to the prefix, as this does, does not.
std::string numbered(std::string_view prefix, int64_t n);

}  // namespace presat
