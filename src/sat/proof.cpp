#include "sat/proof.hpp"

#include <charconv>

namespace presat {

void appendLitLine(std::string& out, char tag, const Lit* lits, size_t n) {
  out.push_back(tag);
  out.push_back(' ');
  for (size_t i = 0; i < n; ++i) {
    char buf[16];
    char* end = std::to_chars(buf, buf + sizeof(buf), lits[i].toDimacs()).ptr;
    out.append(buf, end);
    out.push_back(' ');
  }
  out.append("0\n");
}

void ProofLog::addClause(const Lit* lits, size_t n) {
  appendLitLine(out_, 'a', lits, n);
  ++steps_;
  endsWithEmpty_ = n == 0;
}

void ProofLog::deleteClause(const Lit* lits, size_t n) {
  appendLitLine(out_, 'e', lits, n);
  ++steps_;
  endsWithEmpty_ = false;
}

}  // namespace presat
