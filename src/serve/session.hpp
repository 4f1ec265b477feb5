// Per-request execution for the serve layer: everything between "the request
// parsed as JSON" and "here is the response body".
//
// The daemon's cardinal rule is that CLIENT INPUT MUST NOT ABORT THE
// PROCESS. The library's trusted-input entry points (parseBenchString, the
// generator constructors) enforce their contracts with PRESAT_CHECK —
// correct for a CLI, fatal for a server. So this layer takes every
// client-supplied artifact through a non-aborting path: .bench text through
// bench_io's parseBench (the one parser, which reports instead of
// aborting), generator specs and cubes through the checked builders below
// (presat_cli parses its CUBE arguments with the same parseTargetCube),
// plus service-hygiene size caps.
//
// runPreimage() is the request state machine's EXECUTE step: find the
// circuit's remembered identity (or build its context and remember the
// identity when the source is unknown), consult the cross-query cache
// (leader/follower), and only when an engine must run build the context,
// build a per-request Governor from the request budgets plus the request's
// cancel token, run the engine, publish/abandon the cache entry, and hand
// back a CachedCover plus its cache disposition.
#pragma once

#include <memory>
#include <optional>
#include <string>

#include "circuit/netlist.hpp"
#include "govern/budget.hpp"
#include "preimage/preimage.hpp"
#include "preimage/transition_system.hpp"
#include "serve/cache.hpp"
#include "serve/protocol.hpp"

namespace presat::serve {

// Service-hygiene caps on client-supplied circuits and budgets. These bound
// what one request can make the daemon chew on; the per-request budgets
// bound how long it chews.
struct SessionLimits {
  int maxGenBits = 32;           // counter/gray/lfsr/shift/accum width cap
  int maxStateBits = 64;         // .bench circuits: DFF count cap
  int maxBenchBytes = 1 << 20;   // .bench text size cap
  int maxBenchLines = 20000;     // .bench line count cap
  uint64_t defaultTimeoutMs = 0; // applied when the request names no deadline
  uint64_t maxCacheablePayload = 1u << 22;  // covers larger than this are not retained
};

// --- Non-aborting validation -----------------------------------------------

// Generator spec ("counter:8", "traffic", ...): the one SPEC grammar, which
// presat_cli's --gen uses too. Widths stay inside the generators' own caps
// and limits.maxGenBits. On success builds the netlist into *out.
bool buildGeneratorChecked(const std::string& spec, const SessionLimits& limits, Netlist* out,
                           std::string* error);

// Cube text (LSB-first, '0'/'1'/'x'/'-', one char per state bit): a request's
// target, and every CUBE argument of presat_cli.
bool parseTargetCube(const std::string& text, int numStateBits, LitVec* cube, std::string* error);

// Inverse of parseTargetCube for response serialization ('x' for unbound).
std::string cubeToText(const LitVec& cube, int width);

// Method-name lookup over preimageMethodName()'s vocabulary.
bool parsePreimageMethod(const std::string& name, PreimageMethod* method);

// --- Circuit context construction ------------------------------------------

// One parsed circuit, owned by the engine run that built it. `system` views
// `netlist`, so the struct is neither movable nor copyable once built
// (always held by unique_ptr).
struct CircuitContext {
  Netlist netlist;
  uint64_t structuralHash = 0;
  std::optional<TransitionSystem> system;

  CircuitIdentity identity() const { return {structuralHash, system->numStateBits()}; }
};

// Builds the context for the request's circuit source (exactly one of
// req.gen / req.bench is set — the protocol layer enforced that). Bench text
// is parsed exactly once, by parseBench; around it sit only the limits the
// parser cannot know: the byte and line caps before parsing, the no-DFF and
// state-bit caps after. Returns null with a bad_request message on invalid
// input (parse errors read ".bench line N: ...").
std::unique_ptr<CircuitContext> buildCircuitContext(const ServeRequest& req,
                                                    const SessionLimits& limits,
                                                    std::string* error);

// The request's circuit source as CircuitIdentities keys it: the generator
// spec or the exact bench text, viewed in `req` (which must outlive the
// result), so only byte-identical sources share an identity.
CircuitSource circuitSource(const ServeRequest& req);

// --- Execution --------------------------------------------------------------

struct ExecResult {
  CachedCover cover;
  const char* cacheDisposition = "off";  // "hit" | "dedup" | "miss" | "off"
  double seconds = 0.0;                  // engine wall time (0 for cache hits)
  int contextBuilds = 0;                 // circuits built (parsed): at most 1
};

// Runs one preimage request end to end. The circuit's identity comes from
// `identities` when it remembers the exact source; an unknown source is
// built first, and its identity remembered unless the build failed (then
// the request is a bad_request). A context is built only when an engine
// runs — a miss, the cert upgrade, `cache: false` — and at most once per
// request, so a hit on a remembered source parses nothing. `cancel` is the
// request's cancellation token (client disconnect / explicit cancel op);
// it is wired into the per-request Budget so the engines observe it at
// their next governor poll. Returns ok() or a bad_request error.
ServeError runPreimage(const ServeRequest& req, CircuitIdentities& identities, ServeCache& cache,
                       CancelToken* cancel, const SessionLimits& limits, ExecResult* out);

// Serializes a finished request: {"id":...,"status":"ok","outcome":...,
// "complete":...,"width":...,"count":...,"cubes":[...],"cache":...,
// "seconds":...}. Cube order is preserved verbatim from the engine (or the
// cached payload), so a hit is bit-identical to the cold run it reuses.
std::string resultResponse(const ServeRequest& req, const ExecResult& result);

}  // namespace presat::serve
