#include "base/log.hpp"

#include "base/types.hpp"

namespace presat {

std::string toString(Lit l) {
  if (l == kUndefLit) return "<undef>";
  return (l.sign() ? "~x" : "x") + std::to_string(l.var());
}

std::string toString(const LitVec& lits) {
  std::string out = "(";
  for (size_t i = 0; i < lits.size(); ++i) {
    if (i > 0) out += " ";
    out += toString(lits[i]);
  }
  out += ")";
  return out;
}

std::string numbered(std::string_view prefix, int64_t n) {
  std::string out(prefix);
  out += std::to_string(n);
  return out;
}

}  // namespace presat
