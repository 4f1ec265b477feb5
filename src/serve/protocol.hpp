// presat_serve wire protocol: newline-delimited JSON, one request or
// response per line.
//
// Grammar (see DESIGN.md "Service layer" for the full field tables):
//
//   request   := { "id": string, "op": op, ...op-fields }
//   op        := "preimage" | "ping" | "version" | "stats" | "cancel"
//              | "shutdown"
//   response  := { "id": string, "status": "ok" | "error", ... }
//
// The parser is hardened against hostile clients the way the .bench reader
// is hardened against malformed files: every limit violation or grammar
// error produces a structured error carrying the 1-based line number of the
// offending request within the connection stream — the connection stays up.
// Limits: a request line is at most kMaxLineBytes bytes, a JSON document at
// most kMaxFields fields/elements and kMaxDepth nesting levels. Unknown
// request fields are rejected (bad_request), so client typos fail loudly
// instead of silently running with defaults.
//
// The library layer never touches global streams (repo rule iostream-in-src);
// transports hand completed lines in and take serialized lines out.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "base/metrics.hpp"

namespace presat::serve {

// --- hardening limits -------------------------------------------------------

inline constexpr size_t kMaxLineBytes = 1u << 20;  // 1 MiB per request line
inline constexpr size_t kMaxFields = 64;           // fields + array elements
inline constexpr int kMaxDepth = 8;                // nesting levels

// --- generic JSON value -----------------------------------------------------

// Minimal JSON document: enough for the flat request objects plus inline
// .bench payload strings. Object field order is preserved (deterministic
// error messages), duplicate keys are a parse error.
struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string text;  // string payload
  std::vector<JsonValue> items;
  std::vector<std::pair<std::string, JsonValue>> fields;

  const JsonValue* find(const std::string& key) const;
};

// Parses one complete JSON document from `line` (trailing whitespace
// allowed, trailing garbage rejected). On failure returns false and fills
// `error` with a human-readable reason; enforcement of kMaxFields/kMaxDepth
// happens here.
bool parseJson(const std::string& line, JsonValue& out, std::string& error);

// The writer side escapes strings with the metrics export's jsonEscape
// (base/metrics.hpp); callers may name it serve::jsonEscape.
using presat::jsonEscape;

// Incremental one-line JSON object writer. Values are appended in call
// order; the result is a compact single-line document (the NDJSON framing
// requirement). No nesting helper beyond raw() — responses are flat except
// for cube arrays and the error object, both built via raw().
class JsonObjectWriter {
 public:
  void field(const std::string& key, const std::string& value);
  void field(const std::string& key, const char* value);
  void fieldRaw(const std::string& key, const std::string& rawJson);
  void field(const std::string& key, uint64_t value);
  void field(const std::string& key, int value);
  void field(const std::string& key, double value);
  void field(const std::string& key, bool value);
  std::string str() const { return body_.empty() ? "{}" : "{" + body_ + "}"; }

 private:
  void key(const std::string& k);
  std::string body_;
};

// --- requests ---------------------------------------------------------------

// Structured protocol error. `line` is the 1-based request line number in
// the connection stream (0 when not yet known, e.g. transport-level
// failures before the first line).
struct ServeError {
  std::string code;     // "parse" | "bad_request" | "overloaded" | "internal"
  std::string message;  // human-readable detail
  int line = 0;

  bool ok() const { return code.empty(); }
};

enum class ServeOp {
  kPreimage,  // circuit + target cube + method + budgets -> cover
  kPing,      // liveness probe, answered inline
  kVersion,   // build-info JSON (the handshake banner payload)
  kStats,     // serve.* metrics snapshot
  kCancel,    // cancel an in-flight request by id
  kShutdown,  // drain and exit
};

// One parsed request. Engine fields mirror the presat_cli flags; budget
// fields are per-request and combine with the server's caps (the smaller
// wins).
struct ServeRequest {
  std::string id;  // client-chosen, echoed on the response; must be nonempty
  ServeOp op = ServeOp::kPing;

  // preimage: circuit source — exactly one of gen / bench.
  std::string gen;    // generator spec, e.g. "counter:4"
  std::string bench;  // inline .bench text (newlines escaped in JSON)
  std::string target;    // target cube over the state bits, e.g. "1xxx"
  std::string method = "success-driven";
  bool project = false;
  bool compress = false;
  bool cert = false;    // emit a presat-cert-v1 certificate with the cover
  bool cache = true;    // opt out of the cross-query cache (oracle runs)
  uint64_t maxCubes = 0;
  uint64_t timeoutMs = 0;
  uint64_t memLimitMb = 0;
  uint64_t conflictLimit = 0;
  // Fairness class: "interactive" | "batch" | "" (derive from the budget).
  std::string budgetClass;

  // cancel: id of the request to cancel.
  std::string targetId;
};

// Parses one request line. Returns false and fills `error` (with `lineNo`
// stamped) on any grammar/limit/unknown-field violation.
bool parseRequest(const std::string& line, int lineNo, ServeRequest& out, ServeError& error);

// Serializes the structured-error response line (status "error"). `id` may
// be empty when the request id never parsed.
std::string errorResponse(const std::string& id, const ServeError& error);

}  // namespace presat::serve
