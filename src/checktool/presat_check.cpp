// presat_check: standalone verifier for presat-cert-v1 certificates.
//
// Deliberately shares NO code with the presat library (src/sat/, src/cert/):
// it has its own parser, its own unit-propagation loop, and its own hash
// recomputation, all in this one translation unit, linked against nothing but
// the C++ standard library. A bug in the solver, the clause arena, or the
// cover shaping therefore cannot silently blind the verifier that is supposed
// to catch it. The only shared artifact is the certificate FORMAT SPEC in
// src/cert/certificate.hpp — an independent implementation of the same
// grammar, not shared source.
//
// What is verified (see DESIGN.md "Certificates"):
//   witnesses     every cube's witness is a model of the CNF and agrees with
//                 the cube's literals through the scope map — so each cube
//                 holds at least one solution; the cube's other minterms are
//                 NOT checked, and a cube wider than the solution set passes
//   disjointness  when the header claims disjoint=1, cubes are pairwise
//                 disjoint (some variable appears with opposite signs)
//   completeness  when the header claims outcome=complete, the embedded
//                 DRAT-style proof derives the empty clause by reverse unit
//                 propagation from: the CNF, the blocking clause of every
//                 cube, and the previously accepted proof additions
//   honesty       a partial cover must name a recognized degradation reason;
//                 it is then checked by its witnesses and disjointness only
//
// Exit codes: 0 = complete cover verified; 2 = partial cover whose witnesses verify;
// 1 = verification failure (diagnostic `presat_check: FAIL cert.<area>.<detail>`
// on stderr) or usage error.

#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

namespace {

[[noreturn]] void fail(const char* code, const char* fmt, ...) {
  char msg[512];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(msg, sizeof(msg), fmt, ap);
  va_end(ap);
  std::fprintf(stderr, "presat_check: FAIL %s: %s\n", code, msg);
  std::exit(1);
}

// ---------------------------------------------------------------------------
// Certificate model + parser
// ---------------------------------------------------------------------------

struct MergeWitness {
  int var = 0;                // projected index, 1-based
  std::vector<int> merged;    // cube A, projected index space
};

struct ProofStep {
  bool deletion = false;
  std::vector<int> lits;      // CNF space, signed DIMACS
};

struct Certificate {
  std::string engine;
  uint64_t circuitHash = 0;
  int64_t vars = 0;
  std::vector<int64_t> scope;  // scope[i] = 1-based CNF var of projected index i
  bool project = false, compress = false, disjoint = false;
  int64_t jobs = 0;
  std::string outcome;
  uint64_t cnfHash = 0;
  std::vector<std::vector<int>> cnf;        // CNF space
  std::vector<std::vector<int>> cubes;      // projected index space
  std::vector<std::vector<int>> witnesses;  // CNF space, one per cube
  std::vector<MergeWitness> merges;
  std::vector<ProofStep> proof;
  bool sawEnd = false;
};

struct LineReader {
  const char* p;
  const char* end;
  int lineNo = 0;

  // Returns the next line (NUL-terminated in-place is not possible on a
  // const buffer, so returns [begin, len)); false at end of input.
  bool next(const char*& begin, size_t& len) {
    if (p >= end) return false;
    begin = p;
    const char* nl = static_cast<const char*>(std::memchr(p, '\n', static_cast<size_t>(end - p)));
    if (nl == nullptr) {
      len = static_cast<size_t>(end - p);
      p = end;
    } else {
      len = static_cast<size_t>(nl - p);
      p = nl + 1;
    }
    ++lineNo;
    return true;
  }
};

void skipSpaces(const char*& p, const char* end) {
  while (p < end && (*p == ' ' || *p == '\t' || *p == '\r')) ++p;
}

bool parseInt64(const char*& p, const char* end, int64_t& out) {
  skipSpaces(p, end);
  bool neg = false;
  if (p < end && *p == '-') {
    neg = true;
    ++p;
  }
  if (p >= end || *p < '0' || *p > '9') return false;
  int64_t v = 0;
  while (p < end && *p >= '0' && *p <= '9') {
    if (v > (INT64_MAX - 9) / 10) return false;
    v = v * 10 + (*p - '0');
    ++p;
  }
  out = neg ? -v : v;
  return true;
}

bool parseHex64(const char*& p, const char* end, uint64_t& out) {
  skipSpaces(p, end);
  const char* start = p;
  uint64_t v = 0;
  while (p < end) {
    char c = *p;
    int d;
    if (c >= '0' && c <= '9') d = c - '0';
    else if (c >= 'a' && c <= 'f') d = c - 'a' + 10;
    else if (c >= 'A' && c <= 'F') d = c - 'A' + 10;
    else break;
    v = (v << 4) | static_cast<uint64_t>(d);
    ++p;
  }
  if (p == start || p - start > 16) return false;
  out = v;
  return true;
}

bool atEol(const char* p, const char* end) {
  skipSpaces(p, end);
  return p == end;
}

// Parses "<lits> 0" into out; lits must satisfy |l| in [1, maxVar].
void parseLitList(const char* p, const char* end, int64_t maxVar, const char* what, int lineNo,
                  std::vector<int>& out) {
  out.clear();
  for (;;) {
    int64_t v;
    if (!parseInt64(p, end, v)) fail("cert.parse.lit", "line %d: malformed %s literal list", lineNo, what);
    if (v == 0) break;
    int64_t mag = v < 0 ? -v : v;
    if (mag > maxVar)
      fail("cert.parse.lit", "line %d: %s literal %lld out of range (max var %lld)", lineNo, what,
           static_cast<long long>(v), static_cast<long long>(maxVar));
    out.push_back(static_cast<int>(v));
  }
  if (!atEol(p, end))
    fail("cert.parse.line", "line %d: trailing garbage after %s literal list", lineNo, what);
}

bool startsWith(const char* p, size_t len, const char* prefix) {
  size_t n = std::strlen(prefix);
  return len >= n && std::memcmp(p, prefix, n) == 0;
}

// Section order: f < c < j < g < w < proof. 'h end' closes the certificate.
enum Section { kSecNone = 0, kSecF, kSecC, kSecJ, kSecW, kSecProof };

Certificate parseCertificate(const std::string& text) {
  Certificate cert;
  LineReader in{text.data(), text.data() + text.size()};
  const char* line;
  size_t len;

  // --- fixed header block ---
  static const char* kHeaderOrder[] = {"p presat-cert 1", "h engine ", "h circuit ", "h vars ",
                                       "h scope ",        "h flags ",  "h outcome ", "h cnfhash "};
  for (size_t i = 0; i < sizeof(kHeaderOrder) / sizeof(kHeaderOrder[0]); ++i) {
    if (!in.next(line, len))
      fail("cert.parse.truncated", "line %d: certificate ends inside the header", in.lineNo + 1);
    const char* want = kHeaderOrder[i];
    if (i == 0) {
      // Exact match (modulo trailing CR).
      size_t n = len;
      while (n > 0 && line[n - 1] == '\r') --n;
      if (n != std::strlen(want) || std::memcmp(line, want, n) != 0)
        fail("cert.parse.header", "line %d: expected '%s'", in.lineNo, want);
      continue;
    }
    if (!startsWith(line, len, want))
      fail("cert.parse.header", "line %d: expected a '%.*s' header", in.lineNo,
           static_cast<int>(std::strlen(want) - 1), want);
    const char* p = line + std::strlen(want);
    const char* end = line + len;
    switch (i) {
      case 1: {  // engine
        const char* q = end;
        while (q > p && (q[-1] == ' ' || q[-1] == '\r')) --q;
        cert.engine.assign(p, static_cast<size_t>(q - p));
        if (cert.engine.empty()) fail("cert.parse.header", "line %d: empty engine name", in.lineNo);
        break;
      }
      case 2:
        if (!parseHex64(p, end, cert.circuitHash) || !atEol(p, end))
          fail("cert.parse.header", "line %d: malformed circuit hash", in.lineNo);
        break;
      case 3:
        if (!parseInt64(p, end, cert.vars) || cert.vars < 0 || !atEol(p, end))
          fail("cert.parse.header", "line %d: malformed vars count", in.lineNo);
        break;
      case 4: {
        int64_t k;
        if (!parseInt64(p, end, k) || k < 0)
          fail("cert.parse.header", "line %d: malformed scope count", in.lineNo);
        for (int64_t j = 0; j < k; ++j) {
          int64_t v;
          if (!parseInt64(p, end, v) || v < 1 || v > cert.vars)
            fail("cert.parse.header", "line %d: scope variable %lld out of range", in.lineNo,
                 static_cast<long long>(j + 1));
          cert.scope.push_back(v);
        }
        if (!atEol(p, end))
          fail("cert.parse.header", "line %d: trailing garbage after scope", in.lineNo);
        break;
      }
      case 5: {  // flags
        std::string flags(p, static_cast<size_t>(end - p));
        long project = -1, compress = -1, disjoint = -1;
        long long jobs = -1;
        if (std::sscanf(flags.c_str(), "project=%ld compress=%ld disjoint=%ld jobs=%lld", &project,
                        &compress, &disjoint, &jobs) != 4 ||
            (project | compress | disjoint) & ~1L || jobs < 0)
          fail("cert.parse.header", "line %d: malformed flags line", in.lineNo);
        cert.project = project != 0;
        cert.compress = compress != 0;
        cert.disjoint = disjoint != 0;
        cert.jobs = jobs;
        break;
      }
      case 6: {
        const char* q = end;
        while (q > p && (q[-1] == ' ' || q[-1] == '\r')) --q;
        cert.outcome.assign(p, static_cast<size_t>(q - p));
        if (cert.outcome.empty()) fail("cert.parse.header", "line %d: empty outcome", in.lineNo);
        break;
      }
      case 7:
        if (!parseHex64(p, end, cert.cnfHash) || !atEol(p, end))
          fail("cert.parse.header", "line %d: malformed cnf hash", in.lineNo);
        break;
      default: break;
    }
  }

  // --- body sections in fixed order ---
  Section section = kSecNone;
  std::vector<int> lits;
  while (in.next(line, len)) {
    if (len > 0 && line[len - 1] == '\r') --len;
    if (len == 0) fail("cert.parse.line", "line %d: blank line inside certificate", in.lineNo);
    if (startsWith(line, len, "h end")) {
      cert.sawEnd = true;
      if (in.next(line, len))
        fail("cert.parse.line", "line %d: content after 'h end' trailer", in.lineNo);
      break;
    }
    char tag = line[0];
    Section want;
    switch (tag) {
      case 'f': want = kSecF; break;
      case 'c': want = kSecC; break;
      case 'j': want = kSecJ; break;
      case 'w': want = kSecW; break;
      case 'a':
      case 'e': want = kSecProof; break;
      default: fail("cert.parse.line", "line %d: unknown line tag '%c'", in.lineNo, tag);
    }
    if (len < 2 || line[1] != ' ')
      fail("cert.parse.line", "line %d: malformed '%c' line", in.lineNo, tag);
    if (want < section)
      fail("cert.parse.line", "line %d: '%c' line out of section order", in.lineNo, tag);
    section = want;
    const char* p = line + 2;
    const char* end = line + len;
    switch (tag) {
      case 'f':
        parseLitList(p, end, cert.vars, "clause", in.lineNo, lits);
        cert.cnf.push_back(lits);
        break;
      case 'c':
        parseLitList(p, end, static_cast<int64_t>(cert.scope.size()), "cube", in.lineNo, lits);
        cert.cubes.push_back(lits);
        break;
      case 'j':
        parseLitList(p, end, cert.vars, "witness", in.lineNo, lits);
        cert.witnesses.push_back(lits);
        break;
      case 'w': {
        int64_t v;
        if (!parseInt64(p, end, v) || v < 1 || v > static_cast<int64_t>(cert.scope.size()))
          fail("cert.parse.lit", "line %d: merge variable out of scope range", in.lineNo);
        MergeWitness m;
        m.var = static_cast<int>(v);
        parseLitList(p, end, static_cast<int64_t>(cert.scope.size()), "merge", in.lineNo, m.merged);
        for (int l : m.merged) {
          if (l == m.var || l == -m.var)
            fail("cert.parse.lit", "line %d: merge witness mentions its eliminated variable",
                 in.lineNo);
        }
        cert.merges.push_back(m);
        break;
      }
      case 'a':
      case 'e': {
        ProofStep step;
        step.deletion = tag == 'e';
        parseLitList(p, end, cert.vars, "proof", in.lineNo, step.lits);
        cert.proof.push_back(step);
        break;
      }
      default: break;
    }
  }
  if (!cert.sawEnd)
    fail("cert.parse.truncated", "certificate is missing the 'h end' trailer (truncated?)");
  if (cert.witnesses.size() != cert.cubes.size())
    fail("cert.parse.counts", "%zu cubes but %zu witnesses", cert.cubes.size(),
         cert.witnesses.size());
  return cert;
}

// ---------------------------------------------------------------------------
// Semantic checks: hash, cubes, witnesses, disjointness
// ---------------------------------------------------------------------------

uint64_t fnv1aCnfHash(const std::vector<std::vector<int>>& cnf) {
  uint64_t h = 1469598103934665603ull;
  auto mix = [&h](int32_t v) {
    h ^= static_cast<uint64_t>(static_cast<int64_t>(v));
    h *= 1099511628211ull;
  };
  for (const std::vector<int>& clause : cnf) {
    for (int l : clause) mix(l);
    mix(0);
  }
  return h;
}

// val: 1-based, +1 true / -1 false / 0 unassigned.
void assignWitness(const std::vector<int>& witness, int64_t vars, size_t cubeIdx,
                   std::vector<signed char>& val) {
  std::fill(val.begin(), val.end(), 0);
  for (int l : witness) {
    int v = l < 0 ? -l : l;
    signed char s = l < 0 ? -1 : 1;
    if (val[static_cast<size_t>(v)] == -s)
      fail("cert.witness.mismatch", "cube %zu: witness assigns variable %d both polarities",
           cubeIdx, v);
    val[static_cast<size_t>(v)] = s;
  }
  (void)vars;
}

void checkCubesAndWitnesses(const Certificate& cert) {
  // Exact-duplicate detection over normalized cubes — a duplicated cube is the
  // most common corruption and deserves a sharper diagnostic than "overlap".
  std::map<std::vector<int>, size_t> seen;
  std::vector<signed char> val(static_cast<size_t>(cert.vars) + 1, 0);
  for (size_t i = 0; i < cert.cubes.size(); ++i) {
    std::vector<int> sorted = cert.cubes[i];
    std::sort(sorted.begin(), sorted.end(),
              [](int a, int b) { return std::abs(a) != std::abs(b) ? std::abs(a) < std::abs(b) : a < b; });
    for (size_t a = 0; a + 1 < sorted.size(); ++a) {
      if (std::abs(sorted[a]) == std::abs(sorted[a + 1]))
        fail("cert.cube.dup", "cube %zu mentions variable %d twice", i, std::abs(sorted[a]));
    }
    auto ins = seen.emplace(sorted, i);
    if (!ins.second && cert.disjoint)
      fail("cert.cube.dup", "cube %zu duplicates cube %zu", i, ins.first->second);

    // Witness i models the CNF and agrees with cube i through the scope map.
    assignWitness(cert.witnesses[i], cert.vars, i, val);
    for (int l : cert.cubes[i]) {
      int idx = (l < 0 ? -l : l) - 1;
      int cnfVar = static_cast<int>(cert.scope[static_cast<size_t>(idx)]);
      signed char wantSign = l < 0 ? -1 : 1;
      if (val[static_cast<size_t>(cnfVar)] != wantSign)
        fail("cert.witness.mismatch",
             "cube %zu literal %d (cnf var %d) disagrees with its witness", i, l, cnfVar);
    }
    for (size_t ci = 0; ci < cert.cnf.size(); ++ci) {
      bool sat = false;
      for (int l : cert.cnf[ci]) {
        int v = l < 0 ? -l : l;
        if (val[static_cast<size_t>(v)] == (l < 0 ? -1 : 1)) {
          sat = true;
          break;
        }
      }
      if (!sat)
        fail("cert.witness.unsat", "cube %zu: witness falsifies CNF clause %zu", i, ci);
    }
  }
}

// Two cubes are disjoint iff some variable appears with opposite signs.
bool cubesDisjoint(const std::vector<int>& a, const std::vector<int>& b) {
  for (int la : a) {
    for (int lb : b) {
      if (la == -lb) return true;
    }
  }
  return false;
}

void checkDisjoint(const std::vector<std::vector<int>>& cubes) {
  for (size_t i = 0; i < cubes.size(); ++i) {
    for (size_t j = i + 1; j < cubes.size(); ++j) {
      if (!cubesDisjoint(cubes[i], cubes[j]))
        fail("cert.cover.overlap", "cubes %zu and %zu overlap", i, j);
    }
  }
}

// ---------------------------------------------------------------------------
// Proof check: reverse unit propagation over CNF + cube blocking premises
// ---------------------------------------------------------------------------

class Propagator {
 public:
  explicit Propagator(int64_t vars)
      : val_(static_cast<size_t>(vars) + 1, 0), occ_(2 * (static_cast<size_t>(vars) + 1)) {}

  bool latched() const { return latched_; }

  // Adds a clause as a premise or accepted derivation; propagates its
  // level-0 consequences.
  void addClause(const std::vector<int>& lits) {
    size_t id = clauses_.size();
    clauses_.push_back(lits);
    deleted_.push_back(false);
    keys_[sortedKey(lits)].push_back(id);
    for (int l : lits) occ_[litIndex(l)].push_back(id);
    if (latched_) return;
    int unassigned = 0, unit = 0;
    for (int l : lits) {
      signed char v = val_[static_cast<size_t>(l < 0 ? -l : l)];
      if (v == (l < 0 ? -1 : 1)) return;  // already satisfied at level 0
      if (v == 0) {
        ++unassigned;
        unit = l;
      }
    }
    if (unassigned == 0) {
      latched_ = true;
      return;
    }
    if (unassigned == 1) {
      assign(unit);
      if (!propagate()) latched_ = true;
    }
  }

  // RUP check of `lits`: assume every literal false, propagate, require a
  // conflict. The trail is rewound afterwards; the clause is NOT added (the
  // caller decides). Trivially passes once the working set is UNSAT at
  // level 0 — every clause is then vacuously entailed.
  bool rupCheck(const std::vector<int>& lits) {
    if (latched_) return true;
    size_t mark = trail_.size();
    bool conflict = false;
    for (int l : lits) {
      signed char v = val_[static_cast<size_t>(l < 0 ? -l : l)];
      if (v == (l < 0 ? -1 : 1)) {  // literal already true: negation conflicts
        conflict = true;
        break;
      }
      if (v == 0) assign(-l);
    }
    if (!conflict) conflict = !propagate();
    while (trail_.size() > mark) {
      int l = trail_.back();
      trail_.pop_back();
      val_[static_cast<size_t>(l < 0 ? -l : l)] = 0;
    }
    head_ = trail_.size();
    return conflict;
  }

  // Marks a clause with this literal multiset deleted. Deletions are purely
  // a checker-performance hint: everything in the working set is entailed by
  // the premises (every addition passed RUP), so keeping a clause the proof
  // deleted can never admit a wrong derivation — which is why a clause that
  // is unit or falsified under the level-0 assignment is silently kept (it
  // may be the reason for a root assignment we do not track). Returns false
  // when no live clause matches.
  bool deleteClause(const std::vector<int>& lits) {
    auto it = keys_.find(sortedKey(lits));
    if (it == keys_.end()) return false;
    for (size_t id : it->second) {
      if (deleted_[id]) continue;
      int nonFalse = 0;
      for (int l : clauses_[id]) {
        if (val_[static_cast<size_t>(l < 0 ? -l : l)] != (l < 0 ? 1 : -1)) ++nonFalse;
      }
      if (nonFalse > 1) deleted_[id] = true;
      return true;  // matched (kept-as-reason still counts as matched)
    }
    return false;
  }

 private:
  static size_t litIndex(int l) {
    size_t v = static_cast<size_t>(l < 0 ? -l : l);
    return 2 * v + (l < 0 ? 1 : 0);
  }

  static std::vector<int> sortedKey(const std::vector<int>& lits) {
    std::vector<int> key = lits;
    for (size_t a = 1; a < key.size(); ++a) {
      int x = key[a];
      size_t b = a;
      while (b > 0 && key[b - 1] > x) {
        key[b] = key[b - 1];
        --b;
      }
      key[b] = x;
    }
    return key;
  }

  void assign(int l) {
    val_[static_cast<size_t>(l < 0 ? -l : l)] = l < 0 ? -1 : 1;
    trail_.push_back(l);
  }

  // Occurrence-list unit propagation to fixpoint; false on conflict.
  bool propagate() {
    while (head_ < trail_.size()) {
      int falsified = -trail_[head_++];  // this literal just became false
      for (size_t id : occ_[litIndex(falsified)]) {
        if (deleted_[id]) continue;
        int unassigned = 0, unit = 0;
        bool sat = false;
        for (int l : clauses_[id]) {
          signed char v = val_[static_cast<size_t>(l < 0 ? -l : l)];
          if (v == (l < 0 ? -1 : 1)) {
            sat = true;
            break;
          }
          if (v == 0) {
            ++unassigned;
            unit = l;
            if (unassigned > 1) break;
          }
        }
        if (sat || unassigned > 1) continue;
        if (unassigned == 0) return false;
        assign(unit);
      }
    }
    return true;
  }

  std::vector<std::vector<int>> clauses_;
  std::vector<bool> deleted_;
  std::map<std::vector<int>, std::vector<size_t>> keys_;
  std::vector<signed char> val_;
  std::vector<std::vector<size_t>> occ_;
  std::vector<int> trail_;
  size_t head_ = 0;
  bool latched_ = false;
};

void checkProof(const Certificate& cert, bool complete) {
  Propagator prop(cert.vars);
  for (const std::vector<int>& clause : cert.cnf) prop.addClause(clause);
  // The blocking clause of every FINAL cube is a premise: the completeness
  // claim is exactly "CNF AND these blocking clauses is UNSAT" (no solution
  // escapes the cover), and the engines' transient blocking/flip clauses are
  // all subsumed by these (a merged cube's blocking clause is a subset of
  // each merged-away cube's).
  std::vector<int> blocking;
  for (const std::vector<int>& cube : cert.cubes) {
    blocking.clear();
    for (int l : cube) {
      int idx = (l < 0 ? -l : l) - 1;
      int cnfVar = static_cast<int>(cert.scope[static_cast<size_t>(idx)]);
      blocking.push_back(l < 0 ? cnfVar : -cnfVar);
    }
    prop.addClause(blocking);
  }
  bool sawEmpty = false;
  for (size_t i = 0; i < cert.proof.size(); ++i) {
    const ProofStep& step = cert.proof[i];
    if (step.deletion) {
      if (!prop.deleteClause(step.lits))
        fail("cert.proof.delete", "proof step %zu deletes a clause that is not in the working set",
             i);
      continue;
    }
    if (!prop.rupCheck(step.lits))
      fail("cert.proof.rup", "proof step %zu is not a reverse-unit-propagation consequence", i);
    prop.addClause(step.lits);
    if (step.lits.empty()) sawEmpty = true;
  }
  if (complete && !sawEmpty)
    fail("cert.proof.missing-empty",
         "outcome is 'complete' but the proof never derives the empty clause");
}

}  // namespace

int main(int argc, char** argv) {
  const char* path = nullptr;
  bool haveExpectHash = false;
  uint64_t expectHash = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--circuit-hash") == 0 && i + 1 < argc) {
      const char* p = argv[++i];
      const char* end = p + std::strlen(p);
      if (!parseHex64(p, end, expectHash) || !atEol(p, end)) {
        std::fprintf(stderr, "presat_check: malformed --circuit-hash value\n");
        return 1;
      }
      haveExpectHash = true;
    } else if (path == nullptr && std::strcmp(argv[i], "--help") != 0) {
      path = argv[i];
    } else {
      path = nullptr;
      break;
    }
  }
  if (path == nullptr) {
    std::fprintf(stderr,
                 "usage: presat_check [--circuit-hash <16 hex>] <certificate-file>\n"
                 "  verifies a presat-cert-v1 certificate; '-' reads stdin\n"
                 "  --circuit-hash: also require the header's circuit structural hash\n"
                 "                  to equal this caller-known value (staleness check)\n"
                 "  exit 0: complete cover verified\n"
                 "  exit 2: partial cover: witnesses and disjointness verified, and the\n"
                 "          outcome is a recognized degradation reason (no completeness proof)\n"
                 "  exit 1: verification failure or usage error\n");
    return 1;
  }

  std::string text;
  {
    std::FILE* f = std::strcmp(path, "-") == 0 ? stdin : std::fopen(path, "rb");
    if (f == nullptr) {
      std::fprintf(stderr, "presat_check: FAIL cert.parse.truncated: cannot open '%s'\n", path);
      return 1;
    }
    char buf[1 << 16];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) text.append(buf, n);
    if (f != stdin) std::fclose(f);
  }

  Certificate cert = parseCertificate(text);

  // Honesty first: the claimed outcome must be a recognized name, and only
  // 'complete' earns a completeness obligation.
  static const char* kPartialOutcomes[] = {"deadline", "memory", "conflicts", "cancelled",
                                           "cube-cap"};
  bool complete = cert.outcome == "complete";
  if (!complete) {
    bool known = false;
    for (const char* name : kPartialOutcomes) known = known || cert.outcome == name;
    if (!known)
      fail("cert.flags.outcome", "unrecognized outcome '%s'", cert.outcome.c_str());
  }

  uint64_t h = fnv1aCnfHash(cert.cnf);
  if (h != cert.cnfHash)
    fail("cert.hash.cnf", "embedded CNF hashes to %016llx but header claims %016llx",
         static_cast<unsigned long long>(h), static_cast<unsigned long long>(cert.cnfHash));
  if (haveExpectHash && cert.circuitHash != expectHash)
    fail("cert.hash.circuit", "certificate was built against circuit %016llx, expected %016llx",
         static_cast<unsigned long long>(cert.circuitHash),
         static_cast<unsigned long long>(expectHash));

  checkCubesAndWitnesses(cert);
  if (cert.disjoint) checkDisjoint(cert.cubes);
  checkProof(cert, complete);

  if (complete) {
    std::printf("presat_check: OK complete cover verified (%zu cubes, %zu proof steps, engine %s)\n",
                cert.cubes.size(), cert.proof.size(), cert.engine.c_str());
    return 0;
  }
  std::printf(
      "presat_check: OK partial cover: witnesses and disjointness verified, honest outcome=%s "
      "(%zu cubes, engine %s)\n",
      cert.outcome.c_str(), cert.cubes.size(), cert.engine.c_str());
  return 2;
}
