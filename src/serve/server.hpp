// presat_serve daemon core: the request lifecycle state machine
// (parse -> admit -> execute -> respond) over a line transport.
//
// One Server owns the long-lived machinery — pre-warmed ServicePool workers
// behind its bounded fairness queue, the cross-query ServeCache, the
// CircuitIdentities memo, and a byte-tracking Governor both of their
// ledgers charge — and serve() runs a connection:
// emit the build-info banner, then read NDJSON request lines until EOF or a
// shutdown op, answering out of order as workers finish (responses carry
// the request id, so a multiplexing client can run many requests down one
// pipe).
//
// Lifecycle of a preimage request:
//   parse    protocol.cpp's hardened parser; grammar/limit violations answer
//            with a structured "parse"/"bad_request" error and the line
//            number — the connection stays up.
//   admit    duplicate-id check, memory-pressure check (sheds cache BEFORE
//            rejecting — see admitMemory()), then the bounded fairness
//            queue; a full queue answers "overloaded" (backpressure).
//   execute  on a pooled worker: look up the circuit's identity, consult
//            the cache (leader/follower); only when an engine must run (or
//            the source is new) build the circuit context, and run the
//            engine under a per-request Governor wired to the request's
//            CancelToken.
//   respond  serialized response line under the write lock.
//
// Disconnect (EOF) cancels every in-flight request via its CancelToken —
// engines observe it at their next governor poll and return sound partial
// covers that nobody reads; the daemon then stops its pool and returns.
// A shutdown op instead DRAINS: queued and running requests finish and
// flush their responses first.
#pragma once

#include <memory>
#include <string>
#include <unordered_map>

#include "base/metrics.hpp"
#include "base/sync.hpp"
#include "base/thread_annotations.hpp"
#include "base/timer.hpp"
#include "govern/governor.hpp"
#include "parallel/worker_pool.hpp"
#include "serve/cache.hpp"
#include "serve/protocol.hpp"
#include "serve/session.hpp"

namespace presat::serve {

// Line-oriented duplex transport. The server reads requests on its own
// thread and writes responses from worker threads strictly under one
// internal lock, so implementations need no synchronization of their own.
class LineTransport {
 public:
  virtual ~LineTransport() = default;

  // Blocks for the next input line (newline stripped). False on EOF /
  // disconnect. Implementations should cap a single line at slightly over
  // kMaxLineBytes and discard the remainder — the parser turns the oversized
  // prefix into a structured "parse" error.
  virtual bool readLine(std::string* line) = 0;

  virtual void writeLine(const std::string& line) = 0;
};

struct ServerConfig {
  int workers = 4;
  size_t queueDepth = 64;             // fairness-queue admission cap
  uint64_t cacheBytes = 64ull << 20;  // cross-query cache budget (0 disables)
  uint64_t memLimitBytes = 0;         // server-wide tracked-bytes ceiling (0 = off)
  bool banner = true;                 // emit the build-info hello line
  SessionLimits limits;
};

class Server {
 public:
  explicit Server(const ServerConfig& config);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // Runs the connection loop on the calling thread. Returns the process exit
  // code (0 for a clean EOF or shutdown).
  int serve(LineTransport& transport);

  // Snapshot of the serve.* metrics block (also the `stats` op payload).
  void exportMetrics(Metrics& m) const;

  // Asynchronous graceful-drain request — the SIGTERM/SIGINT path. Sets a
  // process-wide lock-free flag (async-signal-safe, callable from a signal
  // handler); the serve loop observes it between lines (the transport's
  // readLine returns early on EINTR) and takes the same drain path as a
  // shutdown op: queued and running requests finish and flush, THEN the
  // loop exits — unlike EOF/disconnect, which cancels in-flight work.
  static void requestDrain();
  static bool drainRequested();
  // Test hook: clears the process-wide flag so one test's drain does not
  // poison the next server instance in the same process.
  static void resetDrainForTest();

  const ServeCache& cache() const { return cache_; }
  const CircuitIdentities& identities() const { return identities_; }

 private:
  void sendLine(const std::string& line);
  void sendError(const std::string& id, const ServeError& error);
  void handlePreimage(const ServeRequest& req, int lineNo);
  void handleCancel(const ServeRequest& req);
  void handleStats(const ServeRequest& req);
  // Memory-pressure admission gate: under pressure, sheds the cache and the
  // circuit identities first and only rejects when that wasn't enough.
  bool admitMemory();
  void executeRequest(const ServeRequest& req, const std::shared_ptr<CancelToken>& cancel,
                      Timer started);
  void finishRequest(const std::string& id, double seconds);
  void cancelAllInflight();

  const ServerConfig config_;  // presat-analyze: lockfree(immutable after construction)
  // Byte-tracking only: constructed with an unlimited Budget so it never
  // latches a trip; the cache and identity-memo ledgers charge it and
  // admitMemory() compares trackedBytes() against config_.memLimitBytes
  // itself.
  // presat-analyze: lockfree(atomic byte counter; internally synchronized)
  Governor governor_;
  ServicePool pool_;       // presat-analyze: lockfree(internally synchronized)
  ServeCache cache_;       // presat-analyze: lockfree(internally synchronized)
  CircuitIdentities identities_;  // presat-analyze: lockfree(internally synchronized)

  // Response serialization. transport_ is only non-null inside serve().
  mutable Mutex writeMu_;
  LineTransport* transport_ GUARDED_BY(writeMu_) = nullptr;

  mutable Mutex mu_;
  std::unordered_map<std::string, std::shared_ptr<CancelToken>> inflight_ GUARDED_BY(mu_);
  uint64_t requests_ GUARDED_BY(mu_) = 0;
  uint64_t responses_ GUARDED_BY(mu_) = 0;
  uint64_t errorsParse_ GUARDED_BY(mu_) = 0;
  uint64_t errorsBadRequest_ GUARDED_BY(mu_) = 0;
  uint64_t rejectsMemory_ GUARDED_BY(mu_) = 0;
  uint64_t cancels_ GUARDED_BY(mu_) = 0;
  uint64_t contextBuilds_ GUARDED_BY(mu_) = 0;  // parse attempts, failed builds included
  Histogram requestUs_ GUARDED_BY(mu_);  // admit -> response wall time
};

}  // namespace presat::serve
