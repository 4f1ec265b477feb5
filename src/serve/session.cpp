#include "serve/session.hpp"

#include <algorithm>
#include <optional>
#include <vector>

#include "base/check.hpp"
#include "circuit/bench_io.hpp"
#include "circuit/netlist.hpp"
#include "gen/generators.hpp"
#include "govern/governor.hpp"
#include "preimage/preimage.hpp"

namespace presat::serve {

namespace {

// Strictly-decimal integer in [lo, hi]; rejects the empty string, signs, and
// trailing garbage.
bool parseBoundedInt(const std::string& s, int lo, int hi, int* out) {
  if (s.empty() || s.size() > 9) return false;
  long v = 0;
  for (char c : s) {
    if (c < '0' || c > '9') return false;
    v = v * 10 + (c - '0');
  }
  if (v < lo || v > hi) return false;
  *out = static_cast<int>(v);
  return true;
}

}  // namespace

// --- generator specs --------------------------------------------------------

bool buildGeneratorChecked(const std::string& spec, const SessionLimits& limits, Netlist* out,
                           std::string* error) {
  std::string name = spec;
  std::string arg;
  if (size_t colon = spec.find(':'); colon != std::string::npos) {
    name = spec.substr(0, colon);
    arg = spec.substr(colon + 1);
  }
  const bool takesWidth = name == "counter" || name == "gray" || name == "lfsr" ||
                          name == "shift" || name == "accum" || name == "arbiter";
  if (name == "traffic" || name == "lock") {
    if (!arg.empty()) {
      *error = "generator '" + name + "' takes no size argument";
      return false;
    }
    *out = name == "traffic" ? makeTrafficLight() : makeCombinationLock({1, 2, 3}, 2);
    return true;
  }
  if (!takesWidth) {
    *error = "unknown generator spec '" + spec +
             "' (expected counter:N gray:N lfsr:N shift:N arbiter:N accum:N traffic lock)";
    return false;
  }
  // Width bounds mirror the generators' own PRESAT_CHECK contracts, tightened
  // by the service cap so one request can't ask for a 2^60-state circuit.
  int lo = 1;
  int hi = limits.maxGenBits;
  if (name == "lfsr") {
    lo = 2;
    hi = std::min(hi, 64);
  }
  if (name == "arbiter") {
    lo = 2;
    hi = std::min(hi, 8);
  }
  int n = 0;
  if (!parseBoundedInt(arg, lo, hi, &n)) {
    *error = "generator '" + name + "' needs a width in [" + std::to_string(lo) + ", " +
             std::to_string(hi) + "], got '" + arg + "'";
    return false;
  }
  if (name == "counter") *out = makeCounter(n);
  else if (name == "gray") *out = makeGrayCounter(n);
  else if (name == "lfsr") *out = makeLfsr(n);
  else if (name == "shift") *out = makeShiftRegister(n);
  else if (name == "accum") *out = makeAccumulator(n);
  else *out = makeRoundRobinArbiter(n);
  return true;
}

// --- cubes and methods ------------------------------------------------------

bool parseTargetCube(const std::string& text, int numStateBits, LitVec* cube, std::string* error) {
  if (text.size() != static_cast<size_t>(numStateBits)) {
    *error = "cube has " + std::to_string(text.size()) + " characters, circuit has " +
             std::to_string(numStateBits) + " state bits";
    return false;
  }
  cube->clear();
  for (int i = 0; i < numStateBits; ++i) {
    char c = text[static_cast<size_t>(i)];
    if (c == '1') {
      cube->push_back(mkLit(i, false));
    } else if (c == '0') {
      cube->push_back(mkLit(i, true));
    } else if (c != 'x' && c != 'X' && c != '-') {
      *error = std::string("bad cube character '") + c + "' at state bit " +
               std::to_string(i) + " (expected 0, 1, or x)";
      return false;
    }
  }
  return true;
}

std::string cubeToText(const LitVec& cube, int width) {
  std::string s(static_cast<size_t>(width), 'x');
  for (Lit l : cube) {
    if (l.var() >= 0 && l.var() < width) s[static_cast<size_t>(l.var())] = l.sign() ? '0' : '1';
  }
  return s;
}

bool parsePreimageMethod(const std::string& name, PreimageMethod* method) {
  for (PreimageMethod m : kAllPreimageMethods) {
    if (name == preimageMethodName(m)) {
      *method = m;
      return true;
    }
  }
  return false;
}

// --- circuit contexts -------------------------------------------------------

CircuitSource circuitSource(const ServeRequest& req) {
  return req.gen.empty() ? CircuitSource{false, req.bench} : CircuitSource{true, req.gen};
}

std::unique_ptr<CircuitContext> buildCircuitContext(const ServeRequest& req,
                                                    const SessionLimits& limits,
                                                    std::string* error) {
  auto ctx = std::make_unique<CircuitContext>();
  if (!req.gen.empty()) {
    if (!buildGeneratorChecked(req.gen, limits, &ctx->netlist, error)) return nullptr;
  } else {
    const std::string& text = req.bench;
    if (text.size() > static_cast<size_t>(limits.maxBenchBytes)) {
      *error = ".bench text exceeds " + std::to_string(limits.maxBenchBytes) + " bytes";
      return nullptr;
    }
    const auto lines = std::count(text.begin(), text.end(), '\n') +
                       (text.empty() || text.back() == '\n' ? 0 : 1);
    if (lines > limits.maxBenchLines) {
      *error = ".bench text exceeds " + std::to_string(limits.maxBenchLines) + " lines";
      return nullptr;
    }
    std::optional<Netlist> parsed = parseBench(text, error);
    if (!parsed) return nullptr;
    ctx->netlist = std::move(*parsed);
    if (ctx->netlist.dffs().size() > static_cast<size_t>(limits.maxStateBits)) {
      *error = ".bench circuit has " + std::to_string(ctx->netlist.dffs().size()) +
               " state bits (cap " + std::to_string(limits.maxStateBits) + ")";
      return nullptr;
    }
  }
  if (ctx->netlist.dffs().empty()) {
    *error = "circuit has no DFFs (no state bits to compute a preimage over)";
    return nullptr;
  }
  ctx->structuralHash = netlistStructuralHash(ctx->netlist);
  // The TransitionSystem holds a pointer into ctx->netlist; the unique_ptr
  // keeps both alive together and the struct is never moved after this.
  ctx->system.emplace(ctx->netlist);
  return ctx;
}

// --- execution --------------------------------------------------------------

namespace {

uint64_t coverPayloadBytes(const CachedCover& cover) {
  uint64_t b = 0;
  for (const LitVec& cube : cover.cubes) b += cube.size() * sizeof(Lit) + sizeof(LitVec);
  b += cover.cert.size();
  return b;
}

CachedCover runEngine(const ServeRequest& req, const CircuitContext& ctx, PreimageMethod method,
                      const LitVec& targetCube, CancelToken* cancel, const SessionLimits& limits,
                      double* seconds) {
  Budget budget;
  uint64_t timeoutMs = req.timeoutMs != 0 ? req.timeoutMs : limits.defaultTimeoutMs;
  budget.deadlineSeconds = static_cast<double>(timeoutMs) / 1000.0;
  budget.memLimitBytes = req.memLimitMb * (uint64_t{1} << 20);
  budget.conflictLimit = req.conflictLimit;
  budget.cancel = cancel;
  Governor governor(budget);

  PreimageOptions options;
  options.allsat.maxCubes = req.maxCubes;
  options.allsat.project = req.project;
  options.allsat.compress = req.compress;
  options.allsat.governor = &governor;
  options.emitCertificate = req.cert;

  const int width = ctx.system->numStateBits();
  StateSet target = StateSet::fromCube(width, targetCube);
  PreimageResult result = computePreimage(*ctx.system, target, method, options);

  CachedCover cover;
  cover.cubes = std::move(result.states.cubes);
  cover.count = std::move(result.stateCount);
  cover.outcome = result.outcome;
  cover.width = width;
  cover.cert = std::move(result.certificate);
  *seconds = result.stats.seconds;
  return cover;
}

}  // namespace

ServeError runPreimage(const ServeRequest& req, CircuitIdentities& identities, ServeCache& cache,
                       CancelToken* cancel, const SessionLimits& limits, ExecResult* out) {
  const CircuitSource source = circuitSource(req);
  std::unique_ptr<CircuitContext> context;
  auto build = [&](std::string* error) {
    context = buildCircuitContext(req, limits, error);
    ++out->contextBuilds;
    return context != nullptr;
  };
  std::optional<CircuitIdentity> identity = identities.find(source);
  if (!identity) {
    std::string error;
    if (!build(&error)) return {"bad_request", error, 0};
    identity = context->identity();
    identities.remember(source, *identity);
  }
  PreimageMethod method = PreimageMethod::kSuccessDriven;
  if (!parsePreimageMethod(req.method, &method)) {
    return {"bad_request", "unknown method '" + req.method + "'", 0};
  }
  const int width = identity->numStateBits;
  LitVec targetCube;
  std::string cubeError;
  if (!parseTargetCube(req.target, width, &targetCube, &cubeError)) {
    return {"bad_request", cubeError, 0};
  }
  auto run = [&] {
    if (context == nullptr) {
      // The identity came from this source building under these limits,
      // and building is deterministic, so it builds again.
      std::string error;
      const bool built = build(&error);
      PRESAT_CHECK(built) << "serve: a remembered source failed to build: " << error;
    }
    out->cover = runEngine(req, *context, method, targetCube, cancel, limits, &out->seconds);
  };

  const bool useCache = req.cache && cache.enabled();
  CacheKey key;
  key.circuitHash = identity->structuralHash;
  key.target = cubeToText(targetCube, width);  // canonical: '-'/'X' fold to 'x'
  key.method = preimageMethodName(method);
  key.project = req.project;
  key.compress = req.compress;

  if (useCache) {
    CacheLookup lookup = cache.acquire(key, out->cover, req.cert);
    if (lookup == CacheLookup::kHit || lookup == CacheLookup::kDedup) {
      // Cert-upgrade path: the cached cover came from a request that did not
      // ask for certification, but this one does. Recompute with the emitter
      // on and upgrade the entry so the NEXT cert-requesting hit replays the
      // stored certificate instead of paying the engine again.
      if (req.cert && out->cover.cert.empty()) {
        run();
        if (coverPayloadBytes(out->cover) <= limits.maxCacheablePayload) {
          cache.refresh(key, out->cover);
        }
      }
      out->cacheDisposition = lookup == CacheLookup::kHit ? "hit" : "dedup";
      return {};
    }
    // Leader: run the engine, then publish (or abandon) no matter what —
    // followers are parked on this key.
    out->cacheDisposition = "miss";
    run();
    if (coverPayloadBytes(out->cover) > limits.maxCacheablePayload) {
      cache.abandon(key, out->cover);  // too big to retain; followers still served
    } else {
      cache.publish(key, out->cover);
    }
    return {};
  }

  out->cacheDisposition = "off";
  run();
  return {};
}

std::string resultResponse(const ServeRequest& req, const ExecResult& result) {
  JsonObjectWriter w;
  w.field("id", req.id);
  w.field("status", "ok");
  w.field("outcome", outcomeName(result.cover.outcome));
  w.field("complete", result.cover.outcome == Outcome::kComplete);
  w.field("width", result.cover.width);
  w.field("count", result.cover.count.toDecimal());
  std::string cubes = "[";
  for (size_t i = 0; i < result.cover.cubes.size(); ++i) {
    if (i != 0) cubes += ',';
    cubes += '"';
    cubes += jsonEscape(cubeToText(result.cover.cubes[i], result.cover.width));
    cubes += '"';
  }
  cubes += ']';
  w.fieldRaw("cubes", cubes);
  if (req.cert) w.field("cert", result.cover.cert);
  w.field("cache", result.cacheDisposition);
  w.field("seconds", result.seconds);
  return w.str();
}

}  // namespace presat::serve
