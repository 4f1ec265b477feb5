#include "serve/server.hpp"

#include <atomic>
#include <utility>

#include "base/timer.hpp"
#include "serve/version.hpp"

namespace presat::serve {

namespace {

// Process-wide because signal handlers have no instance pointer; lock-free
// so requestDrain() is async-signal-safe.
// presat-analyze: lockfree(lock-free atomic flag; signal-handler writable)
std::atomic<bool> g_drainRequested{false};

}  // namespace

void Server::requestDrain() { g_drainRequested.store(true, std::memory_order_relaxed); }
bool Server::drainRequested() { return g_drainRequested.load(std::memory_order_relaxed); }
void Server::resetDrainForTest() { g_drainRequested.store(false, std::memory_order_relaxed); }

Server::Server(const ServerConfig& config)
    : config_(config),
      governor_(Budget{}),
      pool_(config.workers, config.queueDepth),
      cache_(config.cacheBytes, &governor_),
      // Identities only ever lead to cached covers, so they get an eighth
      // of the cache's budget: with the cache off, none outlives its
      // request.
      identities_(config.cacheBytes / 8, &governor_) {}

Server::~Server() { pool_.stop(); }

void Server::sendLine(const std::string& line) {
  {
    MutexLock lock(writeMu_);
    if (transport_ != nullptr) transport_->writeLine(line);
  }
  MutexLock lock(mu_);
  ++responses_;
}

void Server::sendError(const std::string& id, const ServeError& error) {
  sendLine(errorResponse(id, error));
}

bool Server::admitMemory() {
  if (config_.memLimitBytes == 0) return true;
  if (governor_.trackedBytes() <= config_.memLimitBytes) return true;
  // Shed before shedding requests: cached covers and remembered circuit
  // identities are the server's only elastic consumers of the tracked-byte
  // pool, and both can be recomputed.
  cache_.shed(config_.memLimitBytes / 2);
  identities_.shed(config_.memLimitBytes / 4);
  return governor_.trackedBytes() <= config_.memLimitBytes;
}

void Server::executeRequest(const ServeRequest& req, const std::shared_ptr<CancelToken>& cancel,
                            Timer started) {
  ExecResult result;
  ServeError error = runPreimage(req, identities_, cache_, cancel.get(), config_.limits, &result);
  {
    // Tallied before the response goes out, so a stats op the client sends
    // after reading it already counts this build.
    MutexLock lock(mu_);
    contextBuilds_ += result.contextBuilds;
    if (!error.ok()) {
      ++errorsBadRequest_;
      inflight_.erase(req.id);
    }
  }
  if (!error.ok()) {
    sendError(req.id, error);
    return;
  }
  sendLine(resultResponse(req, result));
  finishRequest(req.id, started.seconds());
}

void Server::finishRequest(const std::string& id, double seconds) {
  MutexLock lock(mu_);
  inflight_.erase(id);
  requestUs_.record(static_cast<uint64_t>(seconds * 1e6));
}

void Server::handlePreimage(const ServeRequest& req, int lineNo) {
  if (!admitMemory()) {
    {
      MutexLock lock(mu_);
      ++rejectsMemory_;
    }
    sendError(req.id, {"overloaded", "server memory limit reached", lineNo});
    return;
  }
  auto cancel = std::make_shared<CancelToken>();
  bool duplicate = false;
  {
    MutexLock lock(mu_);
    if (!inflight_.emplace(req.id, cancel).second) {
      ++errorsBadRequest_;
      duplicate = true;
    }
  }
  if (duplicate) {
    sendError(req.id,
              {"bad_request", "request id '" + req.id + "' is already in flight", lineNo});
    return;
  }
  // Fairness class: explicit wins; otherwise a small wall-clock budget marks
  // the request interactive (someone is waiting on it), unbounded or large
  // budgets are batch.
  const bool interactive =
      req.budgetClass == "interactive" ||
      (req.budgetClass.empty() && req.timeoutMs != 0 && req.timeoutMs <= 2000);
  Timer started;
  bool admitted = pool_.submit(
      interactive, [this, req, cancel, started] { executeRequest(req, cancel, started); });
  if (!admitted) {
    {
      MutexLock lock(mu_);
      inflight_.erase(req.id);
    }
    sendError(req.id, {"overloaded", "request queue full", lineNo});
  }
}

void Server::handleCancel(const ServeRequest& req) {
  bool found = false;
  {
    MutexLock lock(mu_);
    auto it = inflight_.find(req.targetId);
    if (it != inflight_.end()) {
      it->second->cancel();
      found = true;
      ++cancels_;
    }
  }
  JsonObjectWriter w;
  w.field("id", req.id);
  w.field("status", "ok");
  w.field("cancelled", found);
  sendLine(w.str());
}

void Server::handleStats(const ServeRequest& req) {
  Metrics m;
  exportMetrics(m);
  JsonObjectWriter w;
  w.field("id", req.id);
  w.field("status", "ok");
  w.fieldRaw("metrics", m.toJson(0));
  sendLine(w.str());
}

void Server::cancelAllInflight() {
  MutexLock lock(mu_);
  for (auto& [id, token] : inflight_) token->cancel();
}

int Server::serve(LineTransport& transport) {
  {
    MutexLock lock(writeMu_);
    transport_ = &transport;
  }
  if (config_.banner) {
    JsonObjectWriter w;
    w.field("status", "hello");
    w.field("protocol", 1);
    w.fieldRaw("version", buildInfoJson());
    sendLine(w.str());
  }

  std::string line;
  std::string shutdownId;
  bool shutdown = false;
  int lineNo = 0;
  while (!shutdown && !drainRequested() && transport.readLine(&line)) {
    ++lineNo;
    ServeRequest req;
    ServeError error;
    if (!parseRequest(line, lineNo, req, error)) {
      {
        MutexLock lock(mu_);
        if (error.code == "parse") {
          ++errorsParse_;
        } else {
          ++errorsBadRequest_;
        }
      }
      sendError(req.id, error);
      continue;
    }
    {
      MutexLock lock(mu_);
      ++requests_;
    }
    switch (req.op) {
      case ServeOp::kPing: {
        JsonObjectWriter w;
        w.field("id", req.id);
        w.field("status", "ok");
        w.field("op", "ping");
        sendLine(w.str());
        break;
      }
      case ServeOp::kVersion: {
        JsonObjectWriter w;
        w.field("id", req.id);
        w.field("status", "ok");
        w.fieldRaw("version", buildInfoJson());
        sendLine(w.str());
        break;
      }
      case ServeOp::kStats:
        handleStats(req);
        break;
      case ServeOp::kCancel:
        handleCancel(req);
        break;
      case ServeOp::kShutdown:
        shutdownId = req.id;
        shutdown = true;
        break;
      case ServeOp::kPreimage:
        handlePreimage(req, lineNo);
        break;
    }
  }

  if (shutdown || drainRequested()) {
    // Graceful drain — the shutdown op and the SIGTERM/SIGINT path: queued
    // and running requests finish and flush before the final ack — the ack
    // being the LAST line is the client's flush barrier. The signal path has
    // no request to echo, so its ack carries op "drain" and no id.
    pool_.quiesce();
    JsonObjectWriter w;
    if (!shutdownId.empty()) w.field("id", shutdownId);
    w.field("status", "ok");
    w.field("op", shutdown ? "shutdown" : "drain");
    sendLine(w.str());
  } else {
    // Disconnect: nobody reads further responses; cancel in-flight work so
    // engines unwind at their next governor poll instead of soaking on.
    cancelAllInflight();
  }
  pool_.stop();
  {
    MutexLock lock(writeMu_);
    transport_ = nullptr;
  }
  return 0;
}

void Server::exportMetrics(Metrics& m) const {
  {
    MutexLock lock(mu_);
    m.inc("serve.requests", requests_);
    m.inc("serve.responses", responses_);
    m.inc("serve.errors.parse", errorsParse_);
    m.inc("serve.errors.bad_request", errorsBadRequest_);
    m.inc("serve.rejects.memory", rejectsMemory_);
    m.inc("serve.cancelled", cancels_);
    m.inc("serve.context.builds", contextBuilds_);
    m.histogram("serve.request_us").merge(requestUs_);
  }
  pool_.exportMetrics(m);
  cache_.exportMetrics(m);
}

}  // namespace presat::serve
