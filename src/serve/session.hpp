// Per-request execution for the serve layer: everything between "the request
// parsed as JSON" and "here is the response body".
//
// The daemon's cardinal rule is that CLIENT INPUT MUST NOT ABORT THE
// PROCESS. The library's trusted-input entry points (parseBenchString, the
// generator constructors, presat_cli's cube parser) enforce their contracts
// with PRESAT_CHECK — correct for a CLI, fatal for a server. So this layer
// takes every client-supplied artifact through a non-aborting path: .bench
// text through bench_io's parseBench (the one parser, which reports instead
// of aborting), generator specs and cubes through the checked builders
// below, plus service-hygiene size caps.
//
// runPreimage() is the request state machine's EXECUTE step: resolve the
// circuit context, consult the cross-query cache (leader/follower), build a
// per-request Governor from the request budgets plus the request's cancel
// token, run the engine, publish/abandon the cache entry, and hand back a
// CachedCover plus its cache disposition.
#pragma once

#include <string>

#include "govern/budget.hpp"
#include "preimage/preimage.hpp"
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
  int maxJobs = 8;               // clamp on request `jobs`
  uint64_t defaultTimeoutMs = 0; // applied when the request names no deadline
  uint64_t maxCacheablePayload = 1u << 22;  // covers larger than this are not retained
};

// --- Non-aborting validation -----------------------------------------------

// Generator spec ("counter:8", "traffic", ...): the one SPEC grammar, which
// presat_cli's --gen uses too. Widths stay inside the generators' own caps
// and limits.maxGenBits. On success builds the netlist into *out.
bool buildGeneratorChecked(const std::string& spec, const SessionLimits& limits, Netlist* out,
                           std::string* error);

// Target cube text (LSB-first, '0'/'1'/'x'/'-', one char per state bit).
bool parseTargetCube(const std::string& text, int numStateBits, LitVec* cube, std::string* error);

// Inverse of parseTargetCube for response serialization ('x' for unbound).
std::string cubeToText(const LitVec& cube, int width);

// Method-name lookup over preimageMethodName()'s vocabulary.
bool parsePreimageMethod(const std::string& name, PreimageMethod* method);

// --- Circuit context construction ------------------------------------------

// Builds a shared context for the request's circuit source (exactly one of
// req.gen / req.bench is set — the protocol layer enforced that). Bench text
// is parsed exactly once, by parseBench; around it sit only the limits the
// parser cannot know: the byte and line caps before parsing, the no-DFF and
// state-bit caps after. Returns null with a bad_request message on invalid
// input (parse errors read ".bench line N: ...").
CircuitContextPtr buildCircuitContext(const ServeRequest& req, const SessionLimits& limits,
                                      std::string* error);

// Pool key for the request's circuit source: "gen:<spec>" or "bench:" plus
// the exact bench text, so only byte-identical sources share a context.
// Cheap to compute before any parsing happens.
std::string circuitSourceKey(const ServeRequest& req);

// --- Execution --------------------------------------------------------------

struct ExecResult {
  CachedCover cover;
  const char* cacheDisposition = "off";  // "hit" | "dedup" | "miss" | "off"
  double seconds = 0.0;                  // engine wall time (0 for cache hits)
};

// Runs one preimage request end to end against a resolved circuit context.
// `cancel` is the request's cancellation token (client disconnect / explicit
// cancel op); it is wired into the per-request Budget so the engines observe
// it at their next governor poll. Returns ok() or a bad_request error.
ServeError runPreimage(const ServeRequest& req, const CircuitContextPtr& context,
                       ServeCache& cache, CancelToken* cancel, const SessionLimits& limits,
                       ExecResult* out);

// Serializes a finished request: {"id":...,"status":"ok","outcome":...,
// "complete":...,"width":...,"count":...,"cubes":[...],"cache":...,
// "seconds":...}. Cube order is preserved verbatim from the engine (or the
// cached payload), so a hit is bit-identical to the cold run it reuses.
std::string resultResponse(const ServeRequest& req, const ExecResult& result);

}  // namespace presat::serve
