// Deterministic fault injection for the resource governor.
//
// Build with -DPRESAT_FAULTS=ON (CMake option) to compile the hooks in;
// the default build compiles maybeFail() to a constant false so every
// governed site folds away to nothing.
//
// Model: at most one *armed* site at a time, with a countdown N. The N-th
// time execution reaches presat::faults::maybeFail("<site>") for the armed
// site, the hook fires exactly once and the caller injects its failure
// (deadline expiry, allocation failure, shard fault). Arming is explicit
// (armFault, used by tests) or environment-driven (armFaultsFromEnv, used
// by the CI sweep):
//
//   PRESAT_FAULT_SITE=bdd.alloc PRESAT_FAULT_AFTER=100 presat_cli ...
//   PRESAT_FAULT_SITE=sat.alloc PRESAT_FAULT_SEED=7    presat_cli ...
//
// With PRESAT_FAULT_SEED the countdown is derived deterministically from
// hash(site, seed), so a CI lane can sweep seeds to hit sites at varied
// depths while every individual run stays reproducible.
#pragma once

#include <cstdint>

namespace presat::faults {

// Every governed site, for sweep loops. Keep in sync with DESIGN.md.
inline constexpr const char* kSites[] = {
    "govern.deadline",  // Governor::poll — injects wall-clock expiry
    "govern.memory",    // Governor::poll — injects memory-ceiling trip
    "govern.cancel",    // Governor::poll — injects external cancellation
    "sat.alloc",        // Solver clause allocation — injects alloc failure
    "sat.arena.compact",  // clause-arena compaction — injects memory trip
    "cnf.preprocess",   // CNF preprocessing — falls back to identity pass
    "bdd.alloc",        // BddManager::mkNode — injects node-pool exhaustion
    "sd.node",          // success-driven solution-graph growth
};
inline constexpr int kNumSites = static_cast<int>(sizeof(kSites) / sizeof(kSites[0]));

#if defined(PRESAT_FAULTS)

// True exactly once: on the countdown-th hit of the armed site.
bool maybeFail(const char* site) noexcept;

// Arm `site` to fire on its `after`-th hit (1-based; 1 = first hit).
// Replaces any previous arming. Not thread safe against concurrent
// maybeFail — arm before launching governed work.
void armFault(const char* site, uint64_t after) noexcept;

// Clear any armed fault and its hit counters.
void disarmFaults() noexcept;

// Reads PRESAT_FAULT_SITE + PRESAT_FAULT_AFTER / PRESAT_FAULT_SEED and arms
// accordingly. Returns true if a fault was armed.
bool armFaultsFromEnv() noexcept;

// Observability for tests: total maybeFail hits on the armed site, and
// whether the armed fault has fired.
uint64_t faultHits() noexcept;
bool faultFired() noexcept;

#else  // !PRESAT_FAULTS — all hooks are free.

constexpr bool maybeFail(const char* /*site*/) noexcept { return false; }
inline void armFault(const char* /*site*/, uint64_t /*after*/) noexcept {}
inline void disarmFaults() noexcept {}
inline bool armFaultsFromEnv() noexcept { return false; }
constexpr uint64_t faultHits() noexcept { return 0; }
constexpr bool faultFired() noexcept { return false; }

#endif

}  // namespace presat::faults
