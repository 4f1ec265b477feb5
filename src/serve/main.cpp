// presat_serve — preimage-as-a-service daemon.
//
// Speaks newline-delimited JSON on stdin/stdout (one request or response
// per line; responses carry the request id and may arrive out of order), so
// any process that can spawn a child and write a pipe is a client — no
// socket stack, no port allocation, and the transport inherits the
// operating system's process lifetime semantics: kill the client, the pipe
// closes, and every in-flight request is cancelled. tools/presat_client.py
// is the reference client and load driver.
//
//   presat_serve [--workers N] [--queue-depth N] [--cache-mb N | --no-cache]
//                [--mem-limit-mb N] [--default-timeout-ms N] [--no-banner]
//
// Fault-injection builds (PRESAT_FAULTS) arm from PRESAT_FAULT_SITE /
// PRESAT_FAULT_AFTER / PRESAT_FAULT_SEED at startup, exactly like
// presat_cli — the soak lane drives the daemon through the same fault sweep
// as the batch tools and asserts every response is complete or a sound
// partial.
#include <cerrno>
#include <charconv>
#include <climits>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "govern/faults.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"

namespace presat::serve {

namespace {

// stdin/stdout transport on C stdio. readLine caps a single line at
// kMaxLineBytes + 1 bytes: the oversized prefix is returned (the parser
// answers with a structured "parse" error) and the remainder of the line is
// discarded, so a hostile megabyte-spam client costs bounded memory.
class StdioTransport : public LineTransport {
 public:
  bool readLine(std::string* line) override {
    line->clear();
    int c;
    bool any = false;
    bool dropping = false;
    for (;;) {
      c = std::fgetc(stdin);
      if (c == EOF) {
        // The drain signal handlers install without SA_RESTART precisely so
        // this blocking read unblocks with EINTR; hand control back to the
        // serve loop, which observes the drain flag. Any other interrupted
        // read (no drain pending) just resumes.
        if (std::ferror(stdin) != 0 && errno == EINTR) {
          std::clearerr(stdin);
          if (Server::drainRequested()) return false;
          continue;
        }
        break;
      }
      any = true;
      if (c == '\n') return true;
      if (dropping) continue;
      line->push_back(static_cast<char>(c));
      if (line->size() > kMaxLineBytes) dropping = true;
    }
    return any;  // final unterminated line still served; false = EOF
  }

  void writeLine(const std::string& line) override {
    std::fwrite(line.data(), 1, line.size(), stdout);
    std::fputc('\n', stdout);
    std::fflush(stdout);  // NDJSON framing: a response is visible when written
  }
};

// Digits only, in [0, max]: a sign, blank, trailing text or a value out of
// range exits 2 rather than wrapping or truncating.
uint64_t parseU64Flag(const char* flagName, const char* value, uint64_t max) {
  const char* last = value + std::strlen(value);
  uint64_t v = 0;
  auto [end, ec] = std::from_chars(value, last, v);
  if (end == value || ec != std::errc() || end != last || v > max) {
    std::fprintf(stderr, "presat_serve: %s needs a decimal number in [0, %llu], got '%s'\n",
                 flagName, static_cast<unsigned long long>(max), value);
    std::exit(2);
  }
  return v;
}

// Megabyte counts are shifted into bytes, so their range stops where the
// shift would overflow.
constexpr uint64_t kMaxMb = UINT64_MAX >> 20;

int runServe(int argc, char** argv) {
  ServerConfig config;
  uint64_t cacheMb = 64;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "presat_serve: %s needs a value\n", arg);
        std::exit(2);
      }
      return argv[++i];
    };
    if (std::strcmp(arg, "--workers") == 0) {
      config.workers = static_cast<int>(parseU64Flag(arg, next(), INT_MAX));
    } else if (std::strcmp(arg, "--queue-depth") == 0) {
      config.queueDepth = static_cast<size_t>(parseU64Flag(arg, next(), SIZE_MAX));
    } else if (std::strcmp(arg, "--cache-mb") == 0) {
      cacheMb = parseU64Flag(arg, next(), kMaxMb);
    } else if (std::strcmp(arg, "--no-cache") == 0) {
      cacheMb = 0;
    } else if (std::strcmp(arg, "--mem-limit-mb") == 0) {
      config.memLimitBytes = parseU64Flag(arg, next(), kMaxMb) << 20;
    } else if (std::strcmp(arg, "--default-timeout-ms") == 0) {
      config.limits.defaultTimeoutMs = parseU64Flag(arg, next(), UINT64_MAX);
    } else if (std::strcmp(arg, "--no-banner") == 0) {
      config.banner = false;
    } else {
      std::fprintf(stderr,
                   "usage: presat_serve [--workers N] [--queue-depth N]\n"
                   "                    [--cache-mb N | --no-cache] [--mem-limit-mb N]\n"
                   "                    [--default-timeout-ms N] [--no-banner]\n");
      return 2;
    }
  }
  config.cacheBytes = cacheMb << 20;
  faults::armFaultsFromEnv();

  // SIGTERM/SIGINT take the graceful-drain path: in-flight and queued
  // requests finish and flush their responses, then the process exits 0 —
  // an orchestrator's `kill` loses no answers. No SA_RESTART, so the
  // blocking stdin read wakes with EINTR and the loop sees the flag.
  struct sigaction sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_handler = [](int) { Server::requestDrain(); };
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;
  sigaction(SIGTERM, &sa, nullptr);
  sigaction(SIGINT, &sa, nullptr);

  Server server(config);
  StdioTransport transport;
  return server.serve(transport);
}

}  // namespace

}  // namespace presat::serve

int main(int argc, char** argv) { return presat::serve::runServe(argc, argv); }
