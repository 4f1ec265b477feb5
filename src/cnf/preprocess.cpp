#include "cnf/preprocess.hpp"

#include <algorithm>

#include "base/metrics.hpp"
#include "govern/faults.hpp"
#include "govern/governor.hpp"

namespace presat {

namespace {

// 64-bit clause signature for the subsumption prefilter: C can only subsume
// D when sig(C) & ~sig(D) == 0.
uint64_t clauseSignature(const Clause& c) {
  uint64_t sig = 0;
  for (Lit l : c) sig |= 1ull << (static_cast<uint32_t>(l.var()) & 63);
  return sig;
}

// Both clauses sorted: true iff every literal of `small` appears in `big`.
bool subsumes(const Clause& small, const Clause& big) {
  size_t j = 0;
  for (Lit l : small) {
    while (j < big.size() && big[j] < l) ++j;
    if (j == big.size() || big[j] != l) return false;
    ++j;
  }
  return true;
}

}  // namespace

PreprocessedCnf preprocessCnf(const Cnf& cnf, const std::vector<Var>& frozen,
                              Governor* governor) {
  PreprocessedCnf out;
  const size_t n = static_cast<size_t>(cnf.numVars());
  out.stats.varsBefore = n;
  out.stats.clausesBefore = cnf.numClauses();

  std::vector<uint8_t> isFrozen(n, 0);
  for (Var v : frozen) {
    PRESAT_CHECK(v >= 0 && static_cast<size_t>(v) < n)
        << "frozen variable x" << v << " outside the formula";
    isFrozen[static_cast<size_t>(v)] = 1;
  }

  auto identity = [&] {
    out.cnf = cnf;
    out.toInternal.resize(n);
    out.toOriginal.resize(n);
    for (size_t v = 0; v < n; ++v) {
      out.toInternal[v] = static_cast<Var>(v);
      out.toOriginal[v] = static_cast<Var>(v);
    }
    out.stats.varsAfter = n;
    out.stats.clausesAfter = cnf.numClauses();
    out.stats.identityFallback = 1;
    return out;
  };

  // Injected preprocessing failure: degrade to the identity pass (always
  // sound — the solver just sees the unreduced formula) and surface the
  // injected resource exhaustion through the governor when one is attached.
  if (faults::maybeFail("cnf.preprocess")) {
    if (governor != nullptr) governor->trip(Outcome::kMemory);
    return identity();
  }

  // -- clean: sort literals, drop duplicates and tautologies -----------------
  std::vector<Clause> clauses;
  clauses.reserve(cnf.numClauses());
  for (const Clause& raw : cnf.clauses()) {
    Clause c = raw;
    std::sort(c.begin(), c.end());
    c.erase(std::unique(c.begin(), c.end()), c.end());
    bool tautology = false;
    for (size_t i = 0; i + 1 < c.size(); ++i) {
      if (c[i].var() == c[i + 1].var()) {
        tautology = true;
        break;
      }
    }
    if (tautology) {
      ++out.stats.tautologies;
      continue;
    }
    clauses.push_back(std::move(c));
  }

  std::vector<uint8_t> alive(clauses.size(), 1);
  std::vector<uint8_t> eliminated(n, 0);

  // Occurrence lists and counts over the cleaned clauses (lists keep stale
  // entries for removed clauses; consumers skip dead indices).
  std::vector<std::vector<uint32_t>> occ(2 * n);
  std::vector<uint32_t> litCount(2 * n, 0);
  for (uint32_t i = 0; i < clauses.size(); ++i) {
    for (Lit l : clauses[i]) {
      occ[static_cast<size_t>(l.code())].push_back(i);
      ++litCount[static_cast<size_t>(l.code())];
    }
  }

  // -- pure-literal elimination to fixpoint on non-frozen variables ----------
  // Removing a clause can uncover new pure variables, so this is a worklist
  // pass: every variable that loses an occurrence gets re-examined.
  std::vector<Var> worklist;
  std::vector<uint8_t> queued(n, 0);
  auto enqueue = [&](Var v) {
    size_t idx = static_cast<size_t>(v);
    if (!queued[idx] && !isFrozen[idx] && !eliminated[idx]) {
      queued[idx] = 1;
      worklist.push_back(v);
    }
  };
  auto removeClause = [&](uint32_t ci) {
    alive[ci] = 0;
    for (Lit l : clauses[ci]) {
      --litCount[static_cast<size_t>(l.code())];
      enqueue(l.var());
    }
  };
  auto runPureElimination = [&] {
    while (!worklist.empty()) {
      Var v = worklist.back();
      worklist.pop_back();
      size_t idx = static_cast<size_t>(v);
      queued[idx] = 0;
      if (eliminated[idx]) continue;
      uint32_t pos = litCount[static_cast<size_t>(mkLit(v, false).code())];
      uint32_t neg = litCount[static_cast<size_t>(mkLit(v, true).code())];
      if (pos == 0 && neg == 0) continue;  // unused: the remap drops it
      if (pos != 0 && neg != 0) continue;  // both polarities: not pure
      Lit pure = mkLit(v, /*negated=*/pos == 0);
      eliminated[idx] = 1;
      ++out.stats.pureLiterals;
      out.forcedLits.push_back(pure);
      for (uint32_t ci : occ[static_cast<size_t>(pure.code())]) {
        if (alive[ci]) removeClause(ci);  // satisfied by the forced polarity
      }
    }
  };
  for (size_t v = 0; v < n; ++v) enqueue(static_cast<Var>(v));
  runPureElimination();

  // -- subsumption (duplicates included) -------------------------------------
  // Forward scan: for each clause C, candidates D ⊇ C all contain C's
  // least-occurring literal, so only that occurrence list is walked. The
  // 64-bit signature prefilter rejects most candidates without a merge.
  std::vector<uint64_t> sig(clauses.size());
  for (uint32_t i = 0; i < clauses.size(); ++i) {
    if (alive[i]) sig[i] = clauseSignature(clauses[i]);
  }
  for (uint32_t ci = 0; ci < clauses.size(); ++ci) {
    if (!alive[ci]) continue;
    const Clause& c = clauses[ci];
    if (c.empty()) continue;  // empty clause: UNSAT, leave the formula alone
    Lit best = c[0];
    for (Lit l : c) {
      if (litCount[static_cast<size_t>(l.code())] <
          litCount[static_cast<size_t>(best.code())]) {
        best = l;
      }
    }
    for (uint32_t di : occ[static_cast<size_t>(best.code())]) {
      if (di == ci || !alive[di]) continue;
      const Clause& d = clauses[di];
      if (d.size() < c.size()) continue;
      // Exact duplicates subsume each other; the earlier clause survives.
      if (d.size() == c.size() && di < ci) continue;
      if ((sig[ci] & ~sig[di]) != 0) continue;
      if (!subsumes(c, d)) continue;
      removeClause(di);
      ++out.stats.subsumedClauses;
    }
  }
  // Subsumption removals can uncover further pure variables.
  runPureElimination();

  // -- dense remap -----------------------------------------------------------
  // Kept: frozen variables (even if occurrence-free — free enumerable state
  // doubles projected counts and later clauses may mention them) plus every
  // variable still occurring. Mapping in increasing original order keeps the
  // remap monotone.
  out.toInternal.assign(n, kNullVar);
  for (size_t v = 0; v < n; ++v) {
    bool occurs = litCount[static_cast<size_t>(mkLit(static_cast<Var>(v), false).code())] != 0 ||
                  litCount[static_cast<size_t>(mkLit(static_cast<Var>(v), true).code())] != 0;
    if (isFrozen[v] || occurs) {
      out.toInternal[v] = static_cast<Var>(out.toOriginal.size());
      out.toOriginal.push_back(static_cast<Var>(v));
    }
  }
  out.cnf = Cnf(static_cast<int>(out.toOriginal.size()));
  for (uint32_t ci = 0; ci < clauses.size(); ++ci) {
    if (!alive[ci]) continue;
    Clause translated;
    translated.reserve(clauses[ci].size());
    for (Lit l : clauses[ci]) translated.push_back(out.internalLit(l));
    out.cnf.addClause(std::move(translated));
  }
  out.stats.varsAfter = out.toOriginal.size();
  out.stats.clausesAfter = out.cnf.numClauses();
  return out;
}

void exportPreprocessMetrics(const PreprocessStats& stats, Metrics& m) {
  m.inc("preprocess.vars_before", stats.varsBefore);
  m.inc("preprocess.vars_after", stats.varsAfter);
  m.inc("preprocess.clauses_before", stats.clausesBefore);
  m.inc("preprocess.clauses_after", stats.clausesAfter);
  m.inc("preprocess.pure_literals", stats.pureLiterals);
  m.inc("preprocess.subsumed_clauses", stats.subsumedClauses);
  m.inc("preprocess.tautologies", stats.tautologies);
  m.inc("preprocess.identity_fallback", stats.identityFallback);
}

}  // namespace presat
