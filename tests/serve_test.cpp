// Tests for the serve layer (src/serve/): protocol hardening, cross-query
// cache semantics (bit-identical hits, generational eviction soundness,
// same-key dedup), scheduler fairness, and the server end to end over an
// in-memory transport.
#include <sys/wait.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "base/log.hpp"
#include "circuit/bench_io.hpp"
#include "circuit/netlist.hpp"
#include "gen/generators.hpp"
#include "govern/governor.hpp"
#include "parallel/worker_pool.hpp"
#include "preimage/preimage.hpp"
#include "serve/cache.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve/session.hpp"
#include "serve/version.hpp"

namespace presat::serve {
namespace {

// --- protocol ---------------------------------------------------------------

ServeError parseExpectFail(const std::string& line, int lineNo = 7) {
  ServeRequest req;
  ServeError err;
  EXPECT_FALSE(parseRequest(line, lineNo, req, err));
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.line, lineNo);
  return err;
}

TEST(ServeProtocol, ParsesMinimalPreimageRequest) {
  ServeRequest req;
  ServeError err;
  ASSERT_TRUE(parseRequest(
      R"({"id":"a1","op":"preimage","gen":"counter:4","target":"1xxx"})", 1, req, err))
      << err.message;
  EXPECT_EQ(req.id, "a1");
  EXPECT_EQ(req.op, ServeOp::kPreimage);
  EXPECT_EQ(req.gen, "counter:4");
  EXPECT_EQ(req.target, "1xxx");
  EXPECT_EQ(req.method, "success-driven");  // default
  EXPECT_TRUE(req.cache);
}

TEST(ServeProtocol, RejectsMalformedJsonWithLineNumber) {
  ServeError err = parseExpectFail("not json at all", 42);
  EXPECT_EQ(err.code, "parse");
  EXPECT_EQ(err.line, 42);
}

TEST(ServeProtocol, RejectsOversizedLine) {
  std::string big(kMaxLineBytes + 1, 'x');
  ServeError err = parseExpectFail(big);
  EXPECT_EQ(err.code, "parse");
}

TEST(ServeProtocol, RejectsUnknownField) {
  ServeError err = parseExpectFail(
      R"({"id":"a","op":"preimage","gen":"counter:4","target":"1xxx","tarqet":"oops"})");
  EXPECT_EQ(err.code, "bad_request");
  EXPECT_NE(err.message.find("tarqet"), std::string::npos);
}

TEST(ServeProtocol, RejectsDuplicateKeys) {
  ServeError err = parseExpectFail(R"({"id":"a","id":"b","op":"ping"})");
  EXPECT_EQ(err.code, "parse");
}

TEST(ServeProtocol, RejectsFieldCountBomb) {
  std::string line = R"({"id":"a","op":"ping")";
  for (size_t i = 0; i < kMaxFields + 8; ++i) {
    line += ",\"f" + std::to_string(i) + "\":1";
  }
  line += "}";
  ServeError err = parseExpectFail(line);
  EXPECT_EQ(err.code, "parse");
}

TEST(ServeProtocol, RejectsDepthBomb) {
  ServeRequest req;
  ServeError err;
  std::string line(static_cast<size_t>(kMaxDepth) + 4, '[');
  EXPECT_FALSE(parseRequest(line, 1, req, err));
  EXPECT_EQ(err.code, "parse");
}

TEST(ServeProtocol, RejectsMissingCircuitAndBothCircuits) {
  EXPECT_EQ(parseExpectFail(R"({"id":"a","op":"preimage","target":"1"})").code, "bad_request");
  EXPECT_EQ(parseExpectFail(
                R"({"id":"a","op":"preimage","gen":"counter:4","bench":"x","target":"1"})")
                .code,
            "bad_request");
}

TEST(ServeProtocol, ErrorResponseEchoesIdAndLine) {
  ServeError err{"parse", "bad thing", 3};
  std::string line = errorResponse("q7", err);
  JsonValue v;
  std::string perr;
  ASSERT_TRUE(parseJson(line, v, perr)) << perr;
  ASSERT_NE(v.find("id"), nullptr);
  EXPECT_EQ(v.find("id")->text, "q7");
  EXPECT_EQ(v.find("status")->text, "error");
  const JsonValue* e = v.find("error");
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->find("code")->text, "parse");
  EXPECT_EQ(e->find("line")->number, 3.0);
}

TEST(ServeVersion, BuildInfoIsParseableJsonWithRequiredFields) {
  JsonValue v;
  std::string err;
  ASSERT_TRUE(parseJson(buildInfoJson(), v, err)) << err;
  for (const char* key : {"name", "git", "build_type", "compiler", "audit"}) {
    ASSERT_NE(v.find(key), nullptr) << key;
    EXPECT_EQ(v.find(key)->kind, JsonValue::Kind::kString) << key;
  }
  ASSERT_NE(v.find("faults"), nullptr);
  EXPECT_EQ(v.find("faults")->kind, JsonValue::Kind::kBool);
}

// --- structural hash --------------------------------------------------------

TEST(StructuralHash, IgnoresNamesButSeesStructure) {
  uint64_t counter = netlistStructuralHash(makeCounter(6));
  EXPECT_EQ(counter, netlistStructuralHash(makeCounter(6)));
  EXPECT_NE(counter, netlistStructuralHash(makeCounter(7)));
  EXPECT_NE(counter, netlistStructuralHash(makeGrayCounter(6)));
  EXPECT_NE(counter, 0u);
}

// --- session validation -----------------------------------------------------

TEST(ServeSession, GeneratorSpecValidation) {
  SessionLimits limits;
  Netlist nl;
  std::string err;
  EXPECT_TRUE(buildGeneratorChecked("counter:4", limits, &nl, &err)) << err;
  EXPECT_TRUE(buildGeneratorChecked("traffic", limits, &nl, &err)) << err;
  EXPECT_TRUE(buildGeneratorChecked("arbiter:4", limits, &nl, &err)) << err;
  EXPECT_FALSE(buildGeneratorChecked("counter:0", limits, &nl, &err));
  EXPECT_FALSE(buildGeneratorChecked("counter:33", limits, &nl, &err));
  EXPECT_FALSE(buildGeneratorChecked("counter:-3", limits, &nl, &err));
  EXPECT_FALSE(buildGeneratorChecked("counter:4x", limits, &nl, &err));
  EXPECT_FALSE(buildGeneratorChecked("arbiter:9", limits, &nl, &err));
  EXPECT_FALSE(buildGeneratorChecked("lfsr:1", limits, &nl, &err));
  EXPECT_FALSE(buildGeneratorChecked("traffic:3", limits, &nl, &err));
  EXPECT_FALSE(buildGeneratorChecked("nonsense:4", limits, &nl, &err));
}

std::unique_ptr<CircuitContext> buildBenchContext(const std::string& text,
                                                  const SessionLimits& limits, std::string* err) {
  ServeRequest req;
  req.bench = text;
  return buildCircuitContext(req, limits, err);
}

// Bench text reaches the daemon only through buildCircuitContext: one
// non-aborting parse plus the session caps. Every bad input must come back
// as a null context and a message, never an abort.
TEST(ServeSession, BenchValidationCatchesWhatTheParserWouldAbortOn) {
  SessionLimits limits;
  std::string err;
  const std::string good = "INPUT(a)\nq = DFF(d)\nd = AND(a, q)\nOUTPUT(q)\n";
  std::unique_ptr<CircuitContext> ctx = buildBenchContext(good, limits, &err);
  ASSERT_NE(ctx, nullptr) << err;
  EXPECT_EQ(ctx->netlist.dffs().size(), 1u);

  // Each of these would PRESAT_CHECK-abort inside parseBenchString.
  const std::pair<const char*, const char*> bad[] = {
      {"INPUT(a)\nq = DFF(d)\nd = FROB(a)\n", ".bench line 3: unknown gate type"},
      {"INPUT(a)\nq = DFF(a, a)\n", ".bench line 2: DFF gate 'q' has 2 fanins"},
      {"INPUT(a)\nINPUT(a)\nq = DFF(a)\n", ".bench line 2: redefinition of 'a'"},
      {"INPUT(a)\nq = DFF(zzz)\n", ".bench line 2: undefined signal 'zzz'"},
      {"q = DFF(a)\na = BUF(b)\nb = BUF(a)\n", ".bench line 2: combinational cycle"},
      {"INPUT(a)\nb = AND(a)\n", "no DFFs"},
      {"garbage line\n", ".bench line 1: expected INPUT"},
  };
  for (const auto& [text, message] : bad) {
    err.clear();
    EXPECT_EQ(buildBenchContext(text, limits, &err), nullptr) << text;
    EXPECT_NE(err.find(message), std::string::npos) << text << " -> " << err;
  }

  // The session's own caps: bytes and lines before parsing, state bits after.
  SessionLimits capped;
  capped.maxBenchBytes = static_cast<int>(good.size());
  EXPECT_NE(buildBenchContext(good, capped, &err), nullptr) << err;
  EXPECT_EQ(buildBenchContext(good + " ", capped, &err), nullptr);
  EXPECT_NE(err.find("exceeds " + std::to_string(good.size()) + " bytes"), std::string::npos)
      << err;

  capped = SessionLimits{};
  capped.maxBenchLines = 4;
  EXPECT_NE(buildBenchContext(good, capped, &err), nullptr) << err;
  // An unterminated last line counts too.
  EXPECT_EQ(buildBenchContext(good + "# fifth", capped, &err), nullptr);
  EXPECT_NE(err.find("exceeds 4 lines"), std::string::npos) << err;

  capped = SessionLimits{};
  capped.maxStateBits = 1;
  const std::string twoBits = good + "r = DFF(q)\n";
  EXPECT_EQ(buildBenchContext(twoBits, capped, &err), nullptr);
  EXPECT_NE(err.find("2 state bits (cap 1)"), std::string::npos) << err;
  capped.maxStateBits = 2;
  EXPECT_NE(buildBenchContext(twoBits, capped, &err), nullptr) << err;
}

// Runs `req` the way a server with the cache off does: nothing remembered,
// and the context built for the engine run.
ServeError runUncached(const ServeRequest& req, const SessionLimits& limits, ExecResult* result) {
  CircuitIdentities identities(0, nullptr);
  ServeCache off(0, nullptr);
  return runPreimage(req, identities, off, nullptr, limits, result);
}

// A combinational chain as deep as the line cap allows: q = DFF(g0),
// g0 = BUF(g1), ..., with the last link g = AND(a, q), so q' = a & q and the
// preimage of q' = 1 is the one state q = 1. A recursive parser overflowed
// the stack here; the request runs on a std::thread, with that thread's
// default stack, as it would on a serve worker.
TEST(ServeSession, DeepBufferChainDoesNotCrash) {
  constexpr int kGates = 19990;
  std::string text = "INPUT(a)\nq = DFF(g0)\n";
  for (int i = 0; i + 1 < kGates; ++i) {
    text += numbered("g", i) + numbered(" = BUF(g", i + 1) + ")\n";
  }
  text += "g" + std::to_string(kGates - 1) + " = AND(a, q)\n";
  SessionLimits limits;
  ASSERT_LE(text.size(), static_cast<size_t>(limits.maxBenchBytes));

  ServeError error;
  ExecResult result;
  std::thread worker([&] {
    ServeRequest req;
    req.bench = text;
    req.target = "1";
    req.method = "chrono";
    error = runUncached(req, limits, &result);
  });
  worker.join();
  ASSERT_TRUE(error.ok()) << error.message;
  EXPECT_EQ(result.cover.outcome, Outcome::kComplete);
  EXPECT_EQ(result.cover.count.toDecimal(), "1");
}

// The memo keys by the exact source, viewed in the request: a text one byte
// away from a remembered one is unknown, however its hash falls, and a
// generator spec equal to a bench text byte for byte is another source.
TEST(ServeSession, CircuitIdentitiesKeyByExactSource) {
  CircuitIdentities identities(1 << 20, nullptr);
  SessionLimits limits;
  const std::string text = "INPUT(a)\nq = DFF(d)\nd = AND(a, q)\n";
  std::string oneByteOff = text;
  oneByteOff[oneByteOff.size() - 3] = 'a';  // d = AND(a, a)
  ServeRequest req;
  req.bench = text;
  ServeRequest copy;  // the same text in another request
  copy.bench = text;
  ServeRequest other;
  other.bench = oneByteOff;
  ServeRequest gen;
  gen.gen = text;
  std::string err;
  std::unique_ptr<CircuitContext> ctx = buildCircuitContext(req, limits, &err);
  ASSERT_NE(ctx, nullptr) << err;
  std::unique_ptr<CircuitContext> otherCtx = buildCircuitContext(other, limits, &err);
  ASSERT_NE(otherCtx, nullptr) << err;
  EXPECT_NE(ctx->structuralHash, otherCtx->structuralHash);

  identities.remember(circuitSource(req), ctx->identity());
  std::optional<CircuitIdentity> found = identities.find(circuitSource(copy));
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(found->structuralHash, ctx->structuralHash);
  EXPECT_EQ(found->numStateBits, 1);
  EXPECT_FALSE(identities.find(circuitSource(other)).has_value());
  EXPECT_FALSE(identities.find(circuitSource(gen)).has_value());
  identities.remember(circuitSource(other), otherCtx->identity());
  EXPECT_EQ(identities.entries(), 2u);

  EXPECT_EQ(circuitSource(req).text.data(), req.bench.data());
  EXPECT_FALSE(circuitSource(req).generator);
  EXPECT_TRUE(circuitSource(gen).generator);
  EXPECT_FALSE(circuitSource(gen) == circuitSource(req));
}

// runPreimage remembers a source only once it has built: a bad source is
// built and rejected on every repeat and charges nothing, while a good one
// is charged to the governor and answers its repeat without building.
// shed() drops the least recently used identities first.
TEST(ServeSession, CircuitIdentitiesRememberOnlySourcesThatBuilt) {
  Governor governor{Budget{}};
  CircuitIdentities identities(1 << 20, &governor);
  ServeCache cache(1 << 20, nullptr);
  SessionLimits limits;
  auto run = [&](const ServeRequest& req, ExecResult* result) {
    return runPreimage(req, identities, cache, nullptr, limits, result);
  };
  ServeRequest bad;
  bad.bench = "INPUT(a)\nq = DFF(zzz)\n";
  bad.target = "1";
  for (int repeat = 0; repeat < 2; ++repeat) {
    ExecResult result;
    ServeError e = run(bad, &result);
    EXPECT_EQ(e.code, "bad_request");
    EXPECT_EQ(e.message, ".bench line 2: undefined signal 'zzz'");
    EXPECT_EQ(result.contextBuilds, 1);
  }
  EXPECT_EQ(identities.entries(), 0u);
  EXPECT_EQ(governor.trackedBytes(), 0u);

  ServeRequest a;
  a.gen = "counter:5";
  a.target = "1xxxx";
  ServeRequest b;
  b.gen = "lfsr:6";
  b.target = "1xxxxx";
  ExecResult firstA;
  ASSERT_TRUE(run(a, &firstA).ok());
  EXPECT_EQ(firstA.contextBuilds, 1);  // unknown source and a miss: one build
  ExecResult firstB;
  ASSERT_TRUE(run(b, &firstB).ok());
  const uint64_t charged = governor.trackedBytes();
  EXPECT_GT(charged, a.gen.size() + b.gen.size());
  ExecResult repeat;
  ASSERT_TRUE(run(a, &repeat).ok());  // touches A: B is now least recently used
  EXPECT_EQ(repeat.contextBuilds, 0);
  EXPECT_STREQ(repeat.cacheDisposition, "hit");

  EXPECT_EQ(identities.shed(charged - 1), 1u);
  EXPECT_TRUE(identities.find(circuitSource(a)).has_value());
  EXPECT_FALSE(identities.find(circuitSource(b)).has_value());
  EXPECT_LT(governor.trackedBytes(), charged);
  EXPECT_GT(governor.trackedBytes(), 0u);
  EXPECT_EQ(identities.shed(0), 1u);
  EXPECT_EQ(governor.trackedBytes(), 0u);
}

// The memo's bytes stay within its bound as new sources arrive, the least
// recently used going first; a bound of 0 keeps nothing.
TEST(ServeSession, CircuitIdentitiesBoundTheirBytes) {
  Governor governor{Budget{}};
  constexpr uint64_t kMaxBytes = 2048;
  CircuitIdentities identities(kMaxBytes, &governor);
  CircuitIdentities none(0, &governor);
  std::vector<std::string> specs;
  for (int n = 1; n <= 30; ++n) specs.push_back("counter:" + std::to_string(n));
  for (const std::string& spec : specs) {
    identities.remember({true, spec}, {0, 1});
    none.remember({true, spec}, {0, 1});
    EXPECT_LE(governor.trackedBytes(), kMaxBytes);
  }
  EXPECT_TRUE(identities.find({true, specs.back()}).has_value());
  EXPECT_FALSE(identities.find({true, specs.front()}).has_value());
  EXPECT_EQ(none.entries(), 0u);
}

TEST(ServeSession, TargetCubeParsing) {
  LitVec cube;
  std::string err;
  EXPECT_TRUE(parseTargetCube("1x0-", 4, &cube, &err)) << err;
  EXPECT_EQ(cube.size(), 2u);  // bits 0 and 2 bound
  EXPECT_EQ(cubeToText(cube, 4), "1x0x");
  EXPECT_FALSE(parseTargetCube("1x", 4, &cube, &err));    // wrong width
  EXPECT_FALSE(parseTargetCube("1x0z", 4, &cube, &err));  // bad char
}

// A method name the engine list does not carry — here the removed
// transition-relation preimage — is a structured bad_request, not a crash.
TEST(ServeSession, RejectsUnknownMethodName) {
  ServeRequest req;
  req.gen = "counter:4";
  req.target = "1xxx";
  req.method = "bdd-relational";
  SessionLimits limits;
  ExecResult result;
  ServeError e = runUncached(req, limits, &result);
  EXPECT_EQ(e.code, "bad_request");
  EXPECT_EQ(e.message, "unknown method 'bdd-relational'");
}

// --- cache ------------------------------------------------------------------

CachedCover coldRun(const std::string& gen, const std::string& target) {
  ServeRequest req;
  req.gen = gen;
  req.target = target;
  SessionLimits limits;
  ExecResult result;
  ServeError e = runUncached(req, limits, &result);
  EXPECT_TRUE(e.ok()) << e.message;
  return result.cover;
}

TEST(ServeCacheTest, HitReturnsBitIdenticalCover) {
  CachedCover cold = coldRun("gray:5", "1xxxx");
  ASSERT_EQ(cold.outcome, Outcome::kComplete);

  Governor governor{Budget{}};
  ServeCache cache(1 << 20, &governor);
  CacheKey key{netlistStructuralHash(makeGrayCounter(5)), "1xxxx", "success-driven", false,
               false};
  CachedCover payload;
  ASSERT_EQ(cache.acquire(key, payload), CacheLookup::kMiss);
  cache.publish(key, cold);

  CachedCover hit;
  ASSERT_EQ(cache.acquire(key, hit), CacheLookup::kHit);
  EXPECT_EQ(hit.cubes, cold.cubes);  // verbatim, order included
  EXPECT_EQ(hit.count.toDecimal(), cold.count.toDecimal());
  EXPECT_EQ(hit.width, cold.width);
  EXPECT_EQ(governor.trackedBytes(), cache.bytes());
}

// A hit copies the certificate only for a request that asks for it.
TEST(ServeCacheTest, HitCopiesCertificateOnlyWhenAsked) {
  ServeCache cache(1 << 20, nullptr);
  CacheKey key{3, "1x", "chrono", true, true};
  CachedCover cover;
  cover.width = 2;
  cover.count = BigUint(2);
  cover.cubes = {LitVec{mkLit(0, false)}};
  cover.cert = "p presat-cert 1\n";
  CachedCover scratch;
  ASSERT_EQ(cache.acquire(key, scratch), CacheLookup::kMiss);
  cache.publish(key, cover);

  CachedCover plain;
  ASSERT_EQ(cache.acquire(key, plain, false), CacheLookup::kHit);
  EXPECT_EQ(plain.cubes, cover.cubes);
  EXPECT_EQ(plain.count.toDecimal(), "2");
  EXPECT_EQ(plain.width, 2);
  EXPECT_TRUE(plain.cert.empty());
  CachedCover certified;
  ASSERT_EQ(cache.acquire(key, certified, true), CacheLookup::kHit);
  EXPECT_EQ(certified.cert, cover.cert);
}

TEST(ServeCacheTest, PartialResultsAreNotRetained) {
  ServeCache cache(1 << 20, nullptr);
  CacheKey key{1, "1", "chrono", false, false};
  CachedCover payload;
  ASSERT_EQ(cache.acquire(key, payload), CacheLookup::kMiss);
  CachedCover partial;
  partial.outcome = Outcome::kDeadline;
  partial.width = 1;
  cache.publish(key, partial);  // routes to abandon
  EXPECT_EQ(cache.entries(), 0u);
  ASSERT_EQ(cache.acquire(key, payload), CacheLookup::kMiss);  // still cold
  cache.abandon(key, partial);
}

TEST(ServeCacheTest, GenerationalEvictionStaysWithinBudgetAndReleasesLedger) {
  Governor governor{Budget{}};
  ServeCache cache(2048, &governor);
  CachedCover cover;
  cover.width = 8;
  cover.cubes.assign(16, LitVec{mkLit(0, false), mkLit(1, true)});
  cover.count = BigUint(1);
  for (int i = 0; i < 32; ++i) {
    CacheKey key{static_cast<uint64_t>(i) + 1, "t", "chrono", false, false};
    CachedCover scratch;
    ASSERT_EQ(cache.acquire(key, scratch), CacheLookup::kMiss);
    cache.publish(key, cover);
  }
  // publish() sheds to maxBytes/2 whenever it overflows, so the steady state
  // is bounded and the ledger tracks it exactly.
  EXPECT_LE(cache.bytes(), cache.maxBytes());
  EXPECT_GT(cache.entries(), 0u);
  EXPECT_EQ(governor.trackedBytes(), cache.bytes());

  // Survivors still serve sound, bit-identical payloads.
  bool sawHit = false;
  for (int i = 0; i < 32; ++i) {
    CacheKey key{static_cast<uint64_t>(i) + 1, "t", "chrono", false, false};
    CachedCover got;
    if (cache.acquire(key, got) == CacheLookup::kHit) {
      sawHit = true;
      EXPECT_EQ(got.cubes, cover.cubes);
    } else {
      cache.abandon(key, {});  // we became the leader; clean up
    }
  }
  EXPECT_TRUE(sawHit);

  // Full shed returns every byte to the governor.
  cache.shed(0);
  EXPECT_EQ(cache.bytes(), 0u);
  EXPECT_EQ(governor.trackedBytes(), 0u);
}

TEST(ServeCacheTest, ShedNeverEvictsInflightEntries) {
  ServeCache cache(1 << 20, nullptr);
  CacheKey key{9, "t", "chrono", false, false};
  CachedCover scratch;
  ASSERT_EQ(cache.acquire(key, scratch), CacheLookup::kMiss);  // in-flight leader
  EXPECT_EQ(cache.shed(0), 0u);
  CachedCover cover;
  cover.width = 1;
  cover.count = BigUint(1);
  cover.cubes = {LitVec{mkLit(0, false)}};
  cache.publish(key, cover);  // entry survived the shed; publish still lands
  CachedCover got;
  EXPECT_EQ(cache.acquire(key, got), CacheLookup::kHit);
  EXPECT_EQ(got.cubes, cover.cubes);
}

TEST(ServeCacheTest, ConcurrentSameKeyRequestsDedupToOneComputation) {
  ServeCache cache(1 << 20, nullptr);
  CacheKey key{7, "1xx", "success-driven", false, false};
  CachedCover scratch;
  ASSERT_EQ(cache.acquire(key, scratch), CacheLookup::kMiss);  // main = leader

  constexpr int kFollowers = 4;
  ServicePool pool(kFollowers, kFollowers);
  std::atomic<int> dedups{0};
  std::atomic<int> started{0};
  CachedCover expect;
  expect.width = 3;
  expect.count = BigUint(2);
  expect.cubes = {LitVec{mkLit(0, false)}, LitVec{mkLit(1, true)}};
  for (int i = 0; i < kFollowers; ++i) {
    pool.submit(false, [&] {
      started.fetch_add(1);
      CachedCover got;
      CacheLookup lk = cache.acquire(key, got);
      if (lk == CacheLookup::kDedup && got.cubes == expect.cubes) dedups.fetch_add(1);
    });
  }
  // Wait until every follower is parked on the in-flight entry (or at least
  // running), then publish once.
  while (started.load() < kFollowers) std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  cache.publish(key, expect);
  pool.quiesce();
  pool.stop();
  EXPECT_EQ(dedups.load(), kFollowers);
}

// --- service pool fairness and admission -----------------------------------

TEST(ServicePoolTest, InteractiveIsNotStarvedByBatchBacklog) {
  ServicePool pool(1, 64);  // single lane: ordering is fully observable

  std::atomic<bool> gate{false};
  std::vector<std::string> order;
  Mutex orderMu;
  auto record = [&](const char* tag) {
    MutexLock lock(orderMu);
    order.push_back(tag);
  };
  // Blocker occupies the worker while we stack the queue behind it.
  ASSERT_TRUE(pool.submit(false, [&] {
    while (!gate.load()) std::this_thread::yield();
  }));
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(pool.submit(false, [&] { record("batch"); }));
  }
  ASSERT_TRUE(pool.submit(true, [&] { record("interactive"); }));
  gate.store(true);
  pool.quiesce();
  pool.stop();

  ASSERT_EQ(order.size(), 6u);
  // Round-robin between classes: the interactive job is served no later than
  // second, despite five batch jobs queued ahead of it.
  bool inFirstTwo = order[0] == "interactive" || order[1] == "interactive";
  EXPECT_TRUE(inFirstTwo) << "interactive ran at position "
                          << (std::find(order.begin(), order.end(), "interactive") -
                              order.begin());
}

TEST(ServicePoolTest, BoundedQueueRejectsWhenFull) {
  ServicePool pool(1, 2);
  std::atomic<bool> gate{false};
  std::atomic<bool> running{false};
  ASSERT_TRUE(pool.submit(false, [&] {
    running.store(true);
    while (!gate.load()) std::this_thread::yield();
  }));
  // Wait until the single worker has DEQUEUED the blocker, so the queue is
  // empty and capacity is exactly 2 for what follows.
  while (!running.load()) std::this_thread::yield();
  EXPECT_TRUE(pool.submit(false, [] {}));
  EXPECT_TRUE(pool.submit(false, [] {}));
  EXPECT_FALSE(pool.submit(false, [] {}));  // full: structured backpressure
  EXPECT_EQ(pool.queued(), 2u);
  gate.store(true);
  pool.quiesce();
  pool.stop();
  Metrics m;
  pool.exportMetrics(m);
  EXPECT_EQ(m.counter("serve.rejects.overload"), 1u);
  EXPECT_EQ(m.counter("serve.admitted"), 3u);
  EXPECT_EQ(m.counter("serve.pool.completed"), 3u);
}

// Jobs still queued when stop() begins are abandoned and counted, and once
// stopping, submit() refuses without ever running the job.
TEST(ServicePoolTest, StopAbandonsQueuedJobsAndRefusesNewOnes) {
  ServicePool pool(1, 64);
  std::atomic<bool> gate{false};
  std::atomic<bool> running{false};
  std::atomic<int> ran{0};
  ASSERT_TRUE(pool.submit(false, [&] {
    running.store(true);
    while (!gate.load()) std::this_thread::yield();
  }));
  while (!running.load()) std::this_thread::yield();
  ASSERT_TRUE(pool.submit(false, [&] { ran.fetch_add(1); }));
  ASSERT_TRUE(pool.submit(true, [&] { ran.fetch_add(1); }));
  // stop() abandons the two queued jobs at once, then joins the blocker.
  std::thread stopper([&] { pool.stop(); });
  while (pool.queued() != 0) std::this_thread::yield();
  EXPECT_FALSE(pool.submit(true, [&] { ran.fetch_add(1); }));
  gate.store(true);
  stopper.join();
  EXPECT_FALSE(pool.submit(false, [&] { ran.fetch_add(1); }));
  EXPECT_EQ(ran.load(), 0);
  Metrics m;
  pool.exportMetrics(m);
  EXPECT_EQ(m.counter("serve.pool.abandoned"), 2u);
  EXPECT_EQ(m.counter("serve.pool.completed"), 1u);
  EXPECT_EQ(m.counter("serve.admitted"), 3u);
  EXPECT_EQ(m.counter("serve.rejects.overload"), 2u);
}

// --- server end to end ------------------------------------------------------

class StringTransport : public LineTransport {
 public:
  explicit StringTransport(std::vector<std::string> lines) : lines_(std::move(lines)) {}

  bool readLine(std::string* line) override {
    if (next_ >= lines_.size()) return false;
    *line = lines_[next_++];
    return true;
  }

  // Serialized by the server's write lock.
  void writeLine(const std::string& line) override { out.push_back(line); }

  std::vector<std::string> out;

 private:
  std::vector<std::string> lines_;
  size_t next_ = 0;
};

// Finds the response line with the given id; fails the test if absent.
JsonValue findResponse(const std::vector<std::string>& lines, const std::string& id) {
  for (const std::string& line : lines) {
    JsonValue v;
    std::string err;
    EXPECT_TRUE(parseJson(line, v, err)) << line;
    const JsonValue* idField = v.find("id");
    if (idField != nullptr && idField->text == id) return v;
  }
  ADD_FAILURE() << "no response with id " << id;
  return {};
}

TEST(ServeServerTest, EndToEndMixedScript) {
  ServerConfig config;
  config.workers = 4;
  Server server(config);
  StringTransport transport({
      R"({"id":"p","op":"ping"})",
      R"({"id":"v","op":"version"})",
      R"({"id":"r1","op":"preimage","gen":"counter:4","target":"1xxx"})",
      R"({"id":"r2","op":"preimage","gen":"counter:4","target":"1xxx"})",
      R"({"id":"r3","op":"preimage","gen":"counter:4","target":"1xxx","method":"bdd","cache":false})",
      "this is not json",
      R"({"id":"dup","op":"preimage","gen":"traffic","target":"xxxx"})",
      R"({"id":"c","op":"cancel","target_id":"no-such"})",
      R"({"id":"q","op":"shutdown"})",
  });
  EXPECT_EQ(server.serve(transport), 0);

  // Banner first, shutdown ack last (the drain barrier).
  ASSERT_GE(transport.out.size(), 3u);
  EXPECT_NE(transport.out.front().find("\"hello\""), std::string::npos);
  JsonValue last;
  std::string perr;
  ASSERT_TRUE(parseJson(transport.out.back(), last, perr));
  EXPECT_EQ(last.find("id")->text, "q");

  EXPECT_EQ(findResponse(transport.out, "p").find("status")->text, "ok");
  EXPECT_NE(findResponse(transport.out, "v").find("version"), nullptr);

  JsonValue r1 = findResponse(transport.out, "r1");
  JsonValue r2 = findResponse(transport.out, "r2");
  JsonValue r3 = findResponse(transport.out, "r3");
  for (const JsonValue* r : {&r1, &r2, &r3}) {
    EXPECT_EQ(r->find("status")->text, "ok");
    EXPECT_EQ(r->find("outcome")->text, "complete");
    EXPECT_EQ(r->find("count")->text, "16");
  }
  // Same key: r1/r2 share one computation (one ran cold, the other hit or
  // deduped) and return identical cube arrays.
  ASSERT_NE(r1.find("cubes"), nullptr);
  ASSERT_NE(r2.find("cubes"), nullptr);
  ASSERT_EQ(r1.find("cubes")->items.size(), r2.find("cubes")->items.size());
  for (size_t i = 0; i < r1.find("cubes")->items.size(); ++i) {
    EXPECT_EQ(r1.find("cubes")->items[i].text, r2.find("cubes")->items[i].text);
  }
  EXPECT_EQ(r3.find("cache")->text, "off");

  EXPECT_EQ(findResponse(transport.out, "dup").find("status")->text, "ok");
  EXPECT_EQ(findResponse(transport.out, "c").find("cancelled")->boolean, false);

  // The parse error carries its 1-based line number (6th request line).
  bool sawParseError = false;
  for (const std::string& line : transport.out) {
    JsonValue v;
    std::string err;
    ASSERT_TRUE(parseJson(line, v, err));
    const JsonValue* e = v.find("error");
    if (e != nullptr && e->find("code")->text == "parse") {
      sawParseError = true;
      EXPECT_EQ(e->find("line")->number, 6.0);
    }
  }
  EXPECT_TRUE(sawParseError);

  // Exactly one cold computation for the r1/r2 pair (the second was a hit or
  // a dedup); "dup" is the only other cacheable computation.
  Metrics m;
  server.exportMetrics(m);
  EXPECT_EQ(m.counter("serve.cache.misses"), 2u);
  EXPECT_EQ(m.counter("serve.cache.hits") + m.counter("serve.cache.dedups"), 1u);
  EXPECT_EQ(m.counter("serve.errors.parse"), 1u);
}

// The daemon's parallelism is its worker count, and it must not change an
// answer: one mixed script (every engine, project+compress, a certificate
// and a repeated request) gets the same status, outcome, cubes, count and
// certificate for every id at one worker and at four. Cache dispositions
// and timings may differ.
TEST(ServeServerTest, AnswersAreTheSameAtEveryWorkerCount) {
  const std::vector<std::string> script = {
      R"({"id":"sd","op":"preimage","gen":"lfsr:7","target":"1x0x1xx","method":"success-driven"})",
      R"({"id":"cb","op":"preimage","gen":"lfsr:6","target":"1x0xxx","method":"cube-blocking-lifted"})",
      R"({"id":"mt","op":"preimage","gen":"arbiter:4","target":"x1x1","method":"minterm-blocking"})",
      R"({"id":"ch","op":"preimage","gen":"arbiter:5","target":"x1x0x","method":"chrono","project":true,"compress":true})",
      R"({"id":"bdd","op":"preimage","gen":"gray:5","target":"1xx0x","method":"bdd"})",
      R"({"id":"cert","op":"preimage","gen":"lfsr:5","target":"1x0xx","method":"minterm-blocking","cert":true})",
      R"({"id":"sd2","op":"preimage","gen":"lfsr:7","target":"1x0x1xx","method":"success-driven"})",
      R"({"id":"q","op":"shutdown"})",
  };
  auto run = [&script](int workers) {
    ServerConfig config;
    config.workers = workers;
    Server server(config);
    StringTransport transport(script);
    EXPECT_EQ(server.serve(transport), 0) << "workers=" << workers;
    return transport.out;
  };
  const std::vector<std::string> one = run(1);
  const std::vector<std::string> four = run(4);
  auto text = [](const JsonValue& r, const char* key) {
    const JsonValue* v = r.find(key);
    return v == nullptr ? std::string("<absent>") : v->text;
  };
  auto cubes = [](const JsonValue& r) {
    std::vector<std::string> out;
    if (const JsonValue* v = r.find("cubes")) {
      for (const JsonValue& cube : v->items) out.push_back(cube.text);
    }
    return out;
  };
  for (const char* id : {"sd", "cb", "mt", "ch", "bdd", "cert", "sd2", "q"}) {
    const JsonValue a = findResponse(one, id);
    const JsonValue b = findResponse(four, id);
    EXPECT_EQ(text(a, "status"), "ok") << id;
    EXPECT_EQ(text(a, "status"), text(b, "status")) << id;
    EXPECT_EQ(text(a, "outcome"), text(b, "outcome")) << id;
    EXPECT_EQ(cubes(a), cubes(b)) << id;
    EXPECT_EQ(text(a, "count"), text(b, "count")) << id;
    EXPECT_EQ(text(a, "cert"), text(b, "cert")) << id;
  }
  const JsonValue cert = findResponse(one, "cert");
  ASSERT_NE(cert.find("cert"), nullptr);
  EXPECT_NE(cert.find("cert")->text.find("h outcome complete"), std::string::npos);
  EXPECT_EQ(cubes(findResponse(one, "sd")), cubes(findResponse(one, "sd2")));
}

TEST(ServeServerTest, SameIdConcurrentlyInFlightIsRejected) {
  // A slow first request keeps the id in flight while the duplicate arrives.
  ServerConfig config;
  config.workers = 2;
  Server server(config);
  StringTransport transport({
      R"({"id":"dup","op":"preimage","gen":"gray:12","target":"xxxxxxxxxxxx","method":"minterm-blocking","timeout_ms":10000})",
      R"({"id":"dup","op":"preimage","gen":"counter:2","target":"xx"})",
      R"({"id":"q","op":"shutdown"})",
  });
  EXPECT_EQ(server.serve(transport), 0);
  bool sawDuplicateError = false;
  for (const std::string& line : transport.out) {
    JsonValue v;
    std::string err;
    // The request-side parser caps documents at kMaxFields; the slow
    // request's big cube array legitimately exceeds that, so skip it.
    if (!parseJson(line, v, err)) continue;
    const JsonValue* e = v.find("error");
    if (e != nullptr && e->find("message")->text.find("already in flight") != std::string::npos) {
      sawDuplicateError = true;
    }
  }
  EXPECT_TRUE(sawDuplicateError);
}

TEST(ServeServerTest, BudgetedRequestDegradesToSoundPartial) {
  ServerConfig config;
  config.workers = 1;
  Server server(config);
  // An 8-cube cap on a 1024-minterm enumeration: must stop early, answer
  // status ok with a partial outcome, and stay up for the next request.
  StringTransport transport({
      R"({"id":"tiny","op":"preimage","gen":"gray:10","target":"xxxxxxxxxx","method":"minterm-blocking","max_cubes":8,"cache":false})",
      R"({"id":"after","op":"preimage","gen":"counter:3","target":"1xx"})",
      R"({"id":"q","op":"shutdown"})",
  });
  EXPECT_EQ(server.serve(transport), 0);
  JsonValue tiny = findResponse(transport.out, "tiny");
  EXPECT_EQ(tiny.find("status")->text, "ok");
  EXPECT_EQ(tiny.find("complete")->boolean, false);
  EXPECT_NE(tiny.find("outcome")->text, "complete");
  JsonValue after = findResponse(transport.out, "after");
  EXPECT_EQ(after.find("status")->text, "ok");
  EXPECT_EQ(after.find("outcome")->text, "complete");
}

// The BDD engine honours max_cubes like every other engine: the first two
// of lfsr:6 / 1x0xxx's three ISOP cubes, outcome cube-cap, counted as the 22
// states they cover (16 + 8, less the 2 they share).
TEST(ServeServerTest, BddHonoursMaxCubes) {
  ServerConfig config;
  config.workers = 1;
  Server server(config);
  StringTransport transport({
      R"({"id":"bdd","op":"preimage","gen":"lfsr:6","target":"1x0xxx","method":"bdd","max_cubes":2})",
      R"({"id":"jobs","op":"preimage","gen":"lfsr:6","target":"1x0xxx","jobs":2})",
      R"({"id":"q","op":"shutdown"})",
  });
  EXPECT_EQ(server.serve(transport), 0);
  JsonValue bdd = findResponse(transport.out, "bdd");
  EXPECT_EQ(bdd.find("status")->text, "ok");
  EXPECT_EQ(bdd.find("outcome")->text, "cube-cap");
  EXPECT_EQ(bdd.find("complete")->boolean, false);
  EXPECT_EQ(bdd.find("count")->text, "22");
  const JsonValue* cubes = bdd.find("cubes");
  ASSERT_NE(cubes, nullptr);
  ASSERT_EQ(cubes->items.size(), 2u);
  EXPECT_EQ(cubes->items[0].text, "1x0xxx");
  EXPECT_EQ(cubes->items[1].text, "x0xx01");
  // `jobs` is no protocol field: the daemon's parallelism is its workers.
  JsonValue jobs = findResponse(transport.out, "jobs");
  EXPECT_EQ(jobs.find("status")->text, "error");
  EXPECT_EQ(jobs.find("error")->find("code")->text, "bad_request");
}

TEST(ServeServerTest, OverloadAnswersStructuredError) {
  ServerConfig config;
  config.workers = 1;
  config.queueDepth = 1;
  Server server(config);
  // One slow request to occupy the worker + queued requests beyond depth.
  std::vector<std::string> lines = {
      R"({"id":"slow","op":"preimage","gen":"gray:12","target":"xxxxxxxxxxxx","method":"minterm-blocking","timeout_ms":5000,"cache":false})",
  };
  for (int i = 0; i < 8; ++i) {
    lines.push_back(R"({"id":"f)" + std::to_string(i) +
                    R"(","op":"preimage","gen":"counter:2","target":"xx"})");
  }
  lines.push_back(R"({"id":"q","op":"shutdown"})");
  StringTransport transport(lines);
  EXPECT_EQ(server.serve(transport), 0);
  int overloaded = 0;
  for (const std::string& line : transport.out) {
    JsonValue v;
    std::string err;
    if (!parseJson(line, v, err)) continue;  // the slow run's big cube array
    const JsonValue* e = v.find("error");
    if (e != nullptr && e->find("code")->text == "overloaded") ++overloaded;
  }
  EXPECT_GT(overloaded, 0);
}

// --- graceful drain (SIGTERM/SIGINT path) -----------------------------------

// Delivers `lines`, then raises the drain flag exactly the way the signal
// handler does and reports end-of-input — the in-process stand-in for
// "SIGTERM arrived while requests were queued".
class DrainingTransport : public StringTransport {
 public:
  explicit DrainingTransport(std::vector<std::string> lines)
      : StringTransport(std::move(lines)) {}

  bool readLine(std::string* line) override {
    if (StringTransport::readLine(line)) return true;
    Server::requestDrain();
    return false;
  }
};

class ServeDrainTest : public ::testing::Test {
 protected:
  void SetUp() override { Server::resetDrainForTest(); }
  void TearDown() override { Server::resetDrainForTest(); }
};

TEST_F(ServeDrainTest, DrainFinishesInFlightAndAcksLast) {
  ServerConfig config;
  config.workers = 2;
  Server server(config);
  // No shutdown op in the script: the drain flag is the only stop signal.
  DrainingTransport transport({
      R"({"id":"w1","op":"preimage","gen":"counter:6","target":"1xxxxx"})",
      R"({"id":"w2","op":"preimage","gen":"lfsr:6","target":"x1xxx0"})",
  });
  EXPECT_EQ(server.serve(transport), 0);

  // Both answers were flushed complete — a drain loses no work...
  for (const char* id : {"w1", "w2"}) {
    JsonValue r = findResponse(transport.out, id);
    EXPECT_EQ(r.find("status")->text, "ok") << id;
    EXPECT_EQ(r.find("outcome")->text, "complete") << id;
  }
  // ...and the final line is the id-less drain ack, the client's barrier
  // that no further responses follow.
  JsonValue last;
  std::string err;
  ASSERT_TRUE(parseJson(transport.out.back(), last, err));
  EXPECT_EQ(last.find("op")->text, "drain");
  EXPECT_EQ(last.find("status")->text, "ok");
  EXPECT_EQ(last.find("id"), nullptr);
}

TEST_F(ServeDrainTest, EofWithoutDrainCancelsInsteadOfAcking) {
  // Plain EOF (client died): no drain ack may be emitted; the server just
  // stops. Contrast with the drain test above.
  ServerConfig config;
  config.workers = 1;
  Server server(config);
  StringTransport transport({
      R"({"id":"w","op":"preimage","gen":"counter:4","target":"1xxx"})",
  });
  EXPECT_EQ(server.serve(transport), 0);
  for (const std::string& line : transport.out) {
    EXPECT_EQ(line.find("\"op\":\"drain\""), std::string::npos) << line;
  }
}

// --- certificate emission over the wire -------------------------------------

TEST(ServeServerTest, CertRequestReturnsVerifiableFieldAndCachesIt) {
  ServerConfig config;
  config.workers = 1;
  Server server(config);
  StringTransport transport({
      // Cold miss without a cert, then a hit that upgrades the cached entry,
      // then a repeat that replays the upgraded payload.
      R"({"id":"plain","op":"preimage","gen":"counter:4","target":"1x0x"})",
      R"({"id":"c1","op":"preimage","gen":"counter:4","target":"1x0x","cert":true})",
      R"({"id":"c2","op":"preimage","gen":"counter:4","target":"1x0x","cert":true})",
      R"({"id":"q","op":"shutdown"})",
  });
  EXPECT_EQ(server.serve(transport), 0);

  EXPECT_EQ(findResponse(transport.out, "plain").find("cert"), nullptr);
  JsonValue c1 = findResponse(transport.out, "c1");
  JsonValue c2 = findResponse(transport.out, "c2");
  for (const JsonValue* r : {&c1, &c2}) {
    EXPECT_EQ(r->find("status")->text, "ok");
    ASSERT_NE(r->find("cert"), nullptr);
    const std::string& cert = r->find("cert")->text;
    EXPECT_NE(cert.find("p presat-cert 1"), std::string::npos);
    EXPECT_NE(cert.find("h outcome complete"), std::string::npos);
    EXPECT_NE(cert.find("h end"), std::string::npos);
  }
  // The upgrade recomputed once; the second cert request replayed from cache.
  EXPECT_EQ(c1.find("cert")->text, c2.find("cert")->text);
  EXPECT_EQ(c2.find("cache")->text, "hit");
}


// --- identity hits: answering from the result cache without a context -----

// A preimage request line over inline .bench text.
std::string benchRequest(const std::string& id, const std::string& text,
                         const std::string& extra = "") {
  return R"({"id":")" + id + R"(","op":"preimage","bench":")" + jsonEscape(text) +
         R"(","target":"1x0xx")" + extra + "}";
}

// The response line of `id`, with the id and the trailing timing cut off:
// everything a client reads as the answer.
std::string answerOf(const std::vector<std::string>& lines, const std::string& id) {
  const std::string head = R"({"id":")" + id + R"(",)";
  for (const std::string& line : lines) {
    if (line.rfind(head, 0) != 0) continue;
    const size_t seconds = line.find(R"(,"seconds":)");
    EXPECT_NE(seconds, std::string::npos) << line;
    return line.substr(head.size(), seconds - head.size());
  }
  ADD_FAILURE() << "no response with id " << id;
  return {};
}

std::string withDisposition(std::string answer, const std::string& from, const std::string& to) {
  const std::string field = R"("cache":")" + from + '"';
  const size_t at = answer.find(field);
  EXPECT_NE(at, std::string::npos) << answer;
  if (at != std::string::npos) answer.replace(at, field.size(), R"("cache":")" + to + '"');
  return answer;
}

uint64_t contextBuilds(const Server& server) {
  Metrics m;
  server.exportMetrics(m);
  return m.counter("serve.context.builds");
}

// Two sources, A B A B: the repeats hit the cache from their remembered
// identities without building a context, and answer what the first
// requests answered, byte for byte.
TEST(ServeServerTest, IdentityHitsBuildNoContext) {
  ServerConfig config;
  config.workers = 1;
  Server server(config);
  const std::string benchA = toBenchString(makeCounter(5));
  const std::string benchB = toBenchString(makeLfsr(5));
  StringTransport transport({benchRequest("a1", benchA), benchRequest("b1", benchB),
                             benchRequest("a2", benchA), benchRequest("b2", benchB),
                             R"({"id":"q","op":"shutdown"})"});
  EXPECT_EQ(server.serve(transport), 0);
  for (const auto& [first, repeat] : {std::pair{"a1", "a2"}, std::pair{"b1", "b2"}}) {
    EXPECT_EQ(answerOf(transport.out, repeat),
              withDisposition(answerOf(transport.out, first), "miss", "hit"));
  }
  Metrics m;
  server.exportMetrics(m);
  EXPECT_EQ(m.counter("serve.context.builds"), 2u);
  EXPECT_EQ(m.counter("serve.cache.hits"), 2u);
}

// A source that failed to build is never remembered: each repeat is parsed
// and rejected again, with the same message.
TEST(ServeServerTest, MalformedBenchIsRejectedOnEveryRepeat) {
  ServerConfig config;
  config.workers = 1;
  Server server(config);
  const std::string bad = "INPUT(a)\nq = DFF(zzz)\n";
  StringTransport transport({benchRequest("x1", bad), benchRequest("x2", bad),
                             benchRequest("x3", bad), R"({"id":"q","op":"shutdown"})"});
  EXPECT_EQ(server.serve(transport), 0);
  std::vector<std::string> messages;
  for (const char* id : {"x1", "x2", "x3"}) {
    JsonValue r = findResponse(transport.out, id);
    ASSERT_NE(r.find("error"), nullptr) << id;
    EXPECT_EQ(r.find("error")->find("code")->text, "bad_request");
    messages.push_back(r.find("error")->find("message")->text);
  }
  EXPECT_EQ(messages[0], ".bench line 2: undefined signal 'zzz'");
  EXPECT_EQ(messages[1], messages[0]);
  EXPECT_EQ(messages[2], messages[0]);
  EXPECT_EQ(contextBuilds(server), 3u);
  EXPECT_EQ(server.identities().entries(), 0u);
}

// A text one byte away from a remembered one (an appended comment) is
// another source: it builds its own context, and its structural hash, which
// is the known circuit's, still finds the cached cover.
TEST(ServeServerTest, NearIdenticalSourceBuildsButSharesTheCachedCover) {
  ServerConfig config;
  config.workers = 1;
  Server server(config);
  const std::string text = toBenchString(makeCounter(5));
  StringTransport transport({benchRequest("orig", text),
                             benchRequest("commented", text + "# annotated\n"),
                             R"({"id":"q","op":"shutdown"})"});
  EXPECT_EQ(server.serve(transport), 0);
  EXPECT_EQ(answerOf(transport.out, "commented"),
            withDisposition(answerOf(transport.out, "orig"), "miss", "hit"));
  EXPECT_EQ(contextBuilds(server), 2u);
}

// Runs the standalone checker on `cert`; returns its exit status (0 = the
// certificate checks out).
int checkCertificate(const std::string& cert) {
  const std::string path = ::testing::TempDir() + "presat_serve_test.cert";
  std::FILE* f = std::fopen(path.c_str(), "wb");
  EXPECT_NE(f, nullptr) << path;
  if (f == nullptr) return -1;
  std::fwrite(cert.data(), 1, cert.size(), f);
  std::fclose(f);
  const std::string cmd = std::string(PRESAT_CHECK_BIN) + " " + path + " >/dev/null 2>&1";
  const int raw = std::system(cmd.c_str());
  std::remove(path.c_str());
  return WIFEXITED(raw) ? WEXITSTATUS(raw) : -1;
}

// A cert-requesting repeat of a known circuit, first answered without a
// certificate, hits the certless entry: it builds the context once to run
// the certifying engine, and the next cert request replays the stored
// certificate without building.
TEST(ServeServerTest, CertUpgradeBuildsTheContextOnce) {
  ServerConfig config;
  config.workers = 1;
  Server server(config);
  const std::string benchA = toBenchString(makeCounter(5));
  const std::string benchB = toBenchString(makeLfsr(5));
  StringTransport transport({benchRequest("a", benchA), benchRequest("b", benchB),
                             benchRequest("c1", benchA, R"(,"cert":true)"),
                             benchRequest("c2", benchA, R"(,"cert":true)"),
                             R"({"id":"q","op":"shutdown"})"});
  EXPECT_EQ(server.serve(transport), 0);
  EXPECT_EQ(findResponse(transport.out, "a").find("cert"), nullptr);
  JsonValue c1 = findResponse(transport.out, "c1");
  JsonValue c2 = findResponse(transport.out, "c2");
  EXPECT_EQ(c1.find("cache")->text, "hit");
  EXPECT_EQ(c2.find("cache")->text, "hit");
  ASSERT_NE(c1.find("cert"), nullptr);
  ASSERT_NE(c2.find("cert"), nullptr);
  EXPECT_EQ(c1.find("cert")->text, c2.find("cert")->text);
  EXPECT_EQ(checkCertificate(c1.find("cert")->text), 0);
  // a and b built theirs; c1's upgrade built A's again; c2 replayed the
  // stored certificate without building a context at all.
  EXPECT_EQ(contextBuilds(server), 3u);
}

// With the cache off (--no-cache) the memo's bound is 0, so no identity
// survives its request: each of four requests on one source builds its
// context and runs the engine, answering the same cubes.
TEST(ServeServerTest, CacheOffBuildsEveryRequest) {
  ServerConfig config;
  config.workers = 1;
  config.cacheBytes = 0;
  Server server(config);
  const std::string bench = toBenchString(makeCounter(5));
  StringTransport transport({benchRequest("r1", bench), benchRequest("r2", bench),
                             benchRequest("r3", bench), benchRequest("r4", bench),
                             R"({"id":"q","op":"shutdown"})"});
  EXPECT_EQ(server.serve(transport), 0);
  const std::string first = answerOf(transport.out, "r1");
  EXPECT_NE(first.find(R"("cache":"off")"), std::string::npos) << first;
  for (const char* id : {"r2", "r3", "r4"}) EXPECT_EQ(answerOf(transport.out, id), first) << id;
  EXPECT_EQ(contextBuilds(server), 4u);
  EXPECT_EQ(server.identities().entries(), 0u);
}

}  // namespace
}  // namespace presat::serve
