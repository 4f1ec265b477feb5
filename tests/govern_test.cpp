// Resource-governance tests (src/govern/): the Budget/Governor/CancelToken
// primitives, the degradation contract of every enumeration engine under
// deadline / memory / cancellation trips (partial results must be SOUND
// under-approximations, verified against the ungoverned BDD oracle), the
// fixpoint loops' partial
// folds, and — in PRESAT_FAULTS builds — the deterministic fault-injection
// harness at every governed site.
#include <gtest/gtest.h>

#include <array>
#include <chrono>
#include <set>
#include <thread>
#include <vector>

#include "allsat/blocking.hpp"
#include "allsat/chrono_blocking.hpp"
#include "allsat/lifting.hpp"
#include "allsat/projection.hpp"
#include "allsat/success_driven.hpp"
#include "base/metrics.hpp"
#include "base/rng.hpp"
#include "bdd/bdd.hpp"
#include "check/audit_bdd.hpp"
#include "check/audit_solver.hpp"
#include "cnf/preprocess.hpp"
#include "gen/generators.hpp"
#include "gen/random_circuit.hpp"
#include "govern/budget.hpp"
#include "govern/faults.hpp"
#include "govern/governor.hpp"
#include "preimage/preimage.hpp"
#include "preimage/reachability.hpp"
#include "preimage/safety.hpp"
#include "preimage/target.hpp"
#include "preimage/transition_system.hpp"
#include "oracle/dpll.hpp"
#include "sat/solver.hpp"
#include "test_util.hpp"

namespace presat {
namespace {

// True iff the union of `cubes` is contained in the union of `oracle` over
// `width` projected variables — the soundness half of the degradation
// contract, checked through an ungoverned scratch BDD.
bool cubesSubsetOf(const std::vector<LitVec>& cubes, const std::vector<LitVec>& oracle,
                   int width) {
  BddManager mgr(width);
  BddRef got = cubesToBdd(mgr, cubes);
  BddRef ref = cubesToBdd(mgr, oracle);
  return mgr.bddAnd(got, mgr.bddNot(ref)) == BddManager::kFalse;
}

bool statesSubsetOf(const StateSet& got, const StateSet& ref) {
  EXPECT_EQ(got.numStateBits, ref.numStateBits);
  return cubesSubsetOf(got.cubes, ref.cubes, got.numStateBits);
}

// --- Outcome vocabulary -------------------------------------------------------

TEST(Outcome, Names) {
  EXPECT_STREQ(outcomeName(Outcome::kComplete), "complete");
  EXPECT_STREQ(outcomeName(Outcome::kDeadline), "deadline");
  EXPECT_STREQ(outcomeName(Outcome::kMemory), "memory");
  EXPECT_STREQ(outcomeName(Outcome::kConflicts), "conflicts");
  EXPECT_STREQ(outcomeName(Outcome::kCancelled), "cancelled");
  EXPECT_STREQ(outcomeName(Outcome::kCubeCap), "cube-cap");
}

TEST(Outcome, CombineIsIdentityOnComplete) {
  for (Outcome o : {Outcome::kComplete, Outcome::kDeadline, Outcome::kMemory,
                    Outcome::kConflicts, Outcome::kCancelled, Outcome::kCubeCap}) {
    EXPECT_EQ(combineOutcomes(Outcome::kComplete, o), o);
    EXPECT_EQ(combineOutcomes(o, Outcome::kComplete), o);
  }
}

TEST(Outcome, CombinePicksMostUrgentReason) {
  // Urgency: cancelled > memory > deadline > conflicts > cube cap.
  EXPECT_EQ(combineOutcomes(Outcome::kCubeCap, Outcome::kConflicts), Outcome::kConflicts);
  EXPECT_EQ(combineOutcomes(Outcome::kConflicts, Outcome::kDeadline), Outcome::kDeadline);
  EXPECT_EQ(combineOutcomes(Outcome::kDeadline, Outcome::kMemory), Outcome::kMemory);
  EXPECT_EQ(combineOutcomes(Outcome::kMemory, Outcome::kCancelled), Outcome::kCancelled);
  EXPECT_EQ(combineOutcomes(Outcome::kCancelled, Outcome::kCubeCap), Outcome::kCancelled);
  EXPECT_EQ(combineOutcomes(Outcome::kDeadline, Outcome::kDeadline), Outcome::kDeadline);
}

// --- CancelToken --------------------------------------------------------------

TEST(CancelToken, LatchesUntilReset) {
  CancelToken token;
  EXPECT_FALSE(token.cancelled());
  token.cancel();
  EXPECT_TRUE(token.cancelled());
  token.cancel();  // idempotent
  EXPECT_TRUE(token.cancelled());
  token.reset();
  EXPECT_FALSE(token.cancelled());
}

TEST(CancelToken, CancelFromAnotherThreadIsObserved) {
  CancelToken token;
  Budget budget;
  budget.cancel = &token;
  Governor governor(budget);
  std::thread canceller([&token] { token.cancel(); });
  canceller.join();
  EXPECT_EQ(governor.poll(), Outcome::kCancelled);
  EXPECT_TRUE(governor.tripped());
}

// --- Governor -----------------------------------------------------------------

TEST(Governor, UnlimitedBudgetNeverTrips) {
  Budget budget;
  EXPECT_TRUE(budget.unlimited());
  Governor governor(budget);
  for (int i = 0; i < 200; ++i) EXPECT_EQ(governor.poll(), Outcome::kComplete);
  EXPECT_FALSE(governor.tripped());
  EXPECT_EQ(governor.reason(), Outcome::kComplete);
}

TEST(Governor, FirstTripReasonWins) {
  Budget budget;
  Governor governor(budget);
  governor.trip(Outcome::kDeadline);
  governor.trip(Outcome::kMemory);  // too late: the first reason is latched
  EXPECT_EQ(governor.reason(), Outcome::kDeadline);
  EXPECT_EQ(governor.poll(), Outcome::kDeadline);
}

TEST(Governor, MemoryCeilingTripsAtNextPollAndStaysLatched) {
  Budget budget;
  budget.memLimitBytes = 1000;
  Governor governor(budget);
  governor.charge(999);
  EXPECT_EQ(governor.poll(), Outcome::kComplete);
  governor.charge(2);  // 1001 > 1000
  EXPECT_EQ(governor.trackedBytes(), 1001u);
  EXPECT_EQ(governor.poll(), Outcome::kMemory);
  // Releasing below the ceiling does not untrip: the latch is one-way.
  governor.release(1001);
  EXPECT_EQ(governor.poll(), Outcome::kMemory);
  EXPECT_EQ(governor.peakTrackedBytes(), 1001u);
}

TEST(Governor, ConflictLimitTrips) {
  Budget budget;
  budget.conflictLimit = 10;
  Governor governor(budget);
  governor.countConflicts(9);
  EXPECT_EQ(governor.poll(), Outcome::kComplete);
  governor.countConflicts(1);
  EXPECT_EQ(governor.poll(), Outcome::kConflicts);
}

TEST(Governor, DeadlineTrips) {
  Budget budget;
  budget.deadlineSeconds = 1e-9;
  Governor governor(budget);
  // Clock reads are decimated, so spin: well before 10k polls one lands on a
  // clock-read tick with elapsed > 1ns.
  Outcome outcome = Outcome::kComplete;
  for (int i = 0; i < 10000 && outcome == Outcome::kComplete; ++i) outcome = governor.poll();
  EXPECT_EQ(outcome, Outcome::kDeadline);
}

TEST(Governor, ExportMetricsEmitsGovernBlock) {
  Budget budget;
  budget.memLimitBytes = 4096;
  budget.conflictLimit = 7;
  Governor governor(budget);
  governor.charge(100);
  governor.countConflicts(3);
  governor.poll();
  Metrics m;
  governor.exportMetrics(m);
  EXPECT_EQ(m.counter("govern.tracked_bytes"), 100u);
  EXPECT_EQ(m.counter("govern.tracked_bytes_peak"), 100u);
  EXPECT_EQ(m.counter("govern.conflicts"), 3u);
  EXPECT_EQ(m.counter("govern.mem_limit_bytes"), 4096u);
  EXPECT_EQ(m.counter("govern.conflict_limit"), 7u);
  EXPECT_GE(m.counter("govern.polls"), 1u);
  EXPECT_EQ(m.label("govern.outcome"), "complete");
}

// --- MemoryLedger -------------------------------------------------------------

TEST(MemoryLedger, TracksHeldBytesAndReleasesOnDestruction) {
  Budget budget;
  Governor governor(budget);
  {
    MemoryLedger ledger;
    ledger.attach(&governor);
    ledger.charge(500);
    ledger.charge(250);
    EXPECT_EQ(ledger.held(), 750u);
    EXPECT_EQ(governor.trackedBytes(), 750u);
    ledger.release(200);
    EXPECT_EQ(ledger.held(), 550u);
    EXPECT_EQ(governor.trackedBytes(), 550u);
    // Over-release is clamped to what this ledger actually holds, so one
    // owner can never drain another owner's bytes from the shared pool.
    ledger.release(10000);
    EXPECT_EQ(ledger.held(), 0u);
    EXPECT_EQ(governor.trackedBytes(), 0u);
    ledger.charge(123);
  }  // destructor releases the outstanding 123
  EXPECT_EQ(governor.trackedBytes(), 0u);
  EXPECT_EQ(governor.peakTrackedBytes(), 750u);
}

TEST(MemoryLedger, ReattachReleasesAndNullIsNoOp) {
  Budget budget;
  Governor a(budget);
  Governor b(budget);
  MemoryLedger ledger;
  ledger.attach(&a);
  ledger.charge(64);
  EXPECT_EQ(a.trackedBytes(), 64u);
  ledger.attach(&b);  // moves ownership: releases from a, starts fresh on b
  EXPECT_EQ(a.trackedBytes(), 0u);
  EXPECT_EQ(ledger.held(), 0u);
  ledger.charge(32);
  EXPECT_EQ(b.trackedBytes(), 32u);
  ledger.attach(nullptr);
  EXPECT_EQ(b.trackedBytes(), 0u);
  ledger.charge(1 << 20);  // detached: free no-op
  EXPECT_EQ(ledger.held(), 0u);
}

// --- governed BDD manager -----------------------------------------------------

// A union of random cubes over `vars` variables: enough distinct nodes to
// grow both BDD tables past their initial size.
BddRef randomCubeUnion(BddManager& mgr, Rng& rng, int vars, int cubes) {
  BddRef u = BddManager::kFalse;
  for (int i = 0; i < cubes; ++i) {
    LitVec cube;
    for (Var v = 0; v < vars; ++v) {
      if (rng.below(3) != 0) cube.push_back(mkLit(v, rng.below(2) != 0));
    }
    u = mgr.bddOr(u, mgr.cube(cube));
  }
  return u;
}

TEST(GovernedBdd, LedgerCoversNodePoolAndBothTables) {
  Governor governor(Budget{});
  BddManager mgr(16);
  mgr.setGovernor(&governor);
  const size_t uniqueStart = mgr.uniqueSlots();
  const size_t cacheStart = mgr.cacheSlots();
  Rng rng(11);
  (void)randomCubeUnion(mgr, rng, 16, 400);
  ASSERT_GT(mgr.uniqueSlots(), uniqueStart);
  ASSERT_GT(mgr.cacheSlots(), cacheStart);
  // Node: (var, lo, hi); unique slot: one ref; computed entry: f, g, h, result.
  const uint64_t footprint = mgr.numNodes() * 3 * sizeof(BddRef) +
                             mgr.uniqueSlots() * sizeof(BddRef) +
                             mgr.cacheSlots() * 4 * sizeof(BddRef);
  EXPECT_GE(governor.trackedBytes(), footprint);
  mgr.setGovernor(nullptr);
  EXPECT_EQ(governor.trackedBytes(), 0u);
}

// --- CNF engines under a governor --------------------------------------------

TEST(GovernedEngines, PreCancelledTokenStopsBeforeAnyCube) {
  Cnf cnf(5);
  cnf.addBinary(mkLit(0), mkLit(1));
  std::vector<Var> projection = {0, 1, 2, 3, 4};
  CancelToken token;
  token.cancel();
  Budget budget;
  budget.cancel = &token;

  struct Run {
    const char* name;
    AllSatResult result;
  };
  std::vector<Run> runs;
  {
    Governor g(budget);
    AllSatOptions opts;
    opts.governor = &g;
    runs.push_back({"minterm", blockingAllSat(cnf, projection, {}, opts)});
  }
  {
    Governor g(budget);
    AllSatOptions opts;
    opts.governor = &g;
    ModelLifter lifter = [&cnf](const std::vector<lbool>& m) {
      return shrinkModelToImplicant(cnf, m);
    };
    runs.push_back({"cube", blockingAllSat(cnf, projection, lifter, opts)});
  }
  {
    Governor g(budget);
    AllSatOptions opts;
    opts.governor = &g;
    runs.push_back({"chrono", chronoAllSat(cnf, projection, opts)});
  }
  for (const Run& run : runs) {
    EXPECT_FALSE(run.result.complete) << run.name;
    EXPECT_EQ(run.result.outcome, Outcome::kCancelled) << run.name;
    EXPECT_TRUE(run.result.cubes.empty()) << run.name;
    EXPECT_TRUE(run.result.mintermCount.isZero()) << run.name;
    EXPECT_EQ(run.result.metrics.label("outcome"), "cancelled") << run.name;
    EXPECT_EQ(run.result.metrics.label("govern.outcome"), "cancelled") << run.name;
  }
}

// Budget::conflictLimit is the one conflict cap, over the whole query:
// starved runs across random CNFs must degrade to sound under-approximations
// for every CDCL engine.
TEST(GovernedEngines, GlobalConflictLimitYieldsSoundPartials) {
  Rng rng(101);
  int sawPartial = 0;
  for (int iter = 0; iter < 40; ++iter) {
    int vars = static_cast<int>(rng.range(3, 8));
    Cnf cnf = testutil::randomCnf(rng, vars, static_cast<int>(rng.range(6, 24)));
    std::vector<Var> projection;
    for (Var v = 0; v < vars; ++v) projection.push_back(v);
    std::set<uint64_t> exact = bruteForceProjectedSolutions(cnf, projection);

    for (int engine = 0; engine < 3; ++engine) {
      Budget budget;
      budget.conflictLimit = 1;
      Governor governor(budget);
      AllSatOptions opts;
      opts.governor = &governor;
      ModelLifter lifter = [&cnf](const std::vector<lbool>& m) {
        return shrinkModelToImplicant(cnf, m);
      };
      AllSatResult r = engine == 0   ? blockingAllSat(cnf, projection, {}, opts)
                       : engine == 1 ? blockingAllSat(cnf, projection, lifter, opts)
                                     : chronoAllSat(cnf, projection, opts);

      for (const LitVec& cube : r.cubes) {
        for (uint64_t bits = 0; bits < (1ull << vars); ++bits) {
          if (cubeCoversMinterm(cube, bits)) {
            EXPECT_TRUE(exact.count(bits))
                << "engine " << engine << " iter " << iter << " unsound minterm " << bits;
          }
        }
      }
      EXPECT_LE(r.mintermCount.toU64(), exact.size()) << "engine " << engine;
      if (r.complete) {
        EXPECT_EQ(r.outcome, Outcome::kComplete);
        EXPECT_EQ(r.mintermCount.toU64(), exact.size()) << "engine " << engine;
      } else {
        EXPECT_EQ(r.outcome, Outcome::kConflicts) << "engine " << engine;
        ++sawPartial;
      }
    }
  }
  EXPECT_GT(sawPartial, 0);
}

// --- per-engine preimage degradation matrix ----------------------------------

// Every preimage engine × every budget trip: the result must carry the right
// reason code and a state set that is a subset of the ungoverned BDD oracle
// with a lower-bound count. (The BDD engines degrade to the empty set; the
// SAT engines keep whatever cubes they finished.)
TEST(GovernedPreimage, DegradationMatrixIsSoundAgainstBddOracle) {
  Netlist nl = makeGrayCounter(3);
  TransitionSystem ts(nl);
  const int n = ts.numStateBits();
  StateSet target = StateSet::fromCube(n, {mkLit(0)});
  PreimageResult oracle = computePreimage(ts, target, PreimageMethod::kBdd, {});
  ASSERT_TRUE(oracle.complete);

  CancelToken cancelled;
  cancelled.cancel();

  struct Trip {
    const char* name;
    Outcome want;
    Budget budget;
  };
  std::vector<Trip> trips;
  {
    Trip t{"cancel", Outcome::kCancelled, {}};
    t.budget.cancel = &cancelled;
    trips.push_back(t);
  }
  {
    Trip t{"memory", Outcome::kMemory, {}};
    t.budget.memLimitBytes = 1;  // any tracked allocation exceeds it
    trips.push_back(t);
  }
  {
    Trip t{"deadline", Outcome::kDeadline, {}};
    t.budget.deadlineSeconds = 1e-12;  // expired before the first poll
    trips.push_back(t);
  }

  for (PreimageMethod method : kAllPreimageMethods) {
    for (const Trip& trip : trips) {
      Governor governor(trip.budget);
      PreimageOptions opts;
      opts.allsat.governor = &governor;
      PreimageResult r = computePreimage(ts, target, method, opts);
      const char* label = preimageMethodName(method);
      EXPECT_FALSE(r.complete) << label << "/" << trip.name;
      EXPECT_EQ(r.outcome, trip.want) << label << "/" << trip.name;
      EXPECT_TRUE(statesSubsetOf(r.states, oracle.states)) << label << "/" << trip.name;
      EXPECT_LE(r.stateCount, oracle.stateCount) << label << "/" << trip.name;
      EXPECT_EQ(r.metrics.label("outcome"), outcomeName(trip.want))
          << label << "/" << trip.name;
    }
    // The same method, ungoverned, still matches the oracle exactly — the
    // governed runs above leaked no state into the serial engines.
    PreimageResult clean = computePreimage(ts, target, method, {});
    EXPECT_TRUE(clean.complete) << preimageMethodName(method);
    EXPECT_EQ(clean.stateCount, oracle.stateCount) << preimageMethodName(method);
    EXPECT_TRUE(sameStates(clean.states, oracle.states)) << preimageMethodName(method);
  }
}

TEST(GovernedSuccessDriven, PreCancelledDegradesSoundly) {
  Netlist nl = makeLfsr(4);
  TransitionSystem ts(nl);
  const int n = ts.numStateBits();
  StateSet target = StateSet::fromCube(n, {mkLit(0)});
  PreimageResult oracle = computePreimage(ts, target, PreimageMethod::kBdd, {});

  CancelToken token;
  token.cancel();
  Budget budget;
  budget.cancel = &token;
  Governor governor(budget);
  PreimageOptions opts;
  opts.allsat.governor = &governor;
  PreimageResult r = computePreimage(ts, target, PreimageMethod::kSuccessDriven, opts);
  EXPECT_FALSE(r.complete);
  EXPECT_EQ(r.outcome, Outcome::kCancelled);
  EXPECT_TRUE(statesSubsetOf(r.states, oracle.states));
  EXPECT_LE(r.stateCount, oracle.stateCount);
}

// The success-driven engine charges its solution graph and its memo slot
// array (on each growth) to the governor, and hands every byte back when the
// call returns — whether the run completes or trips.
TEST(GovernedSuccessDriven, MemoryLedgerBalances) {
  RandomCircuitParams params;
  params.numInputs = 4;
  params.numDffs = 12;
  params.numGates = 200;
  params.seed = 23;
  Netlist nl = makeRandomSequential(params);
  TransitionSystem ts(nl);
  StateSet target = StateSet::fromCube(ts.numStateBits(), {mkLit(0), ~mkLit(1)});
  PreimageResult oracle = computePreimage(ts, target, PreimageMethod::kBdd, {});
  ASSERT_FALSE(oracle.stateCount.isZero());

  Governor unlimited(Budget{});
  PreimageOptions opts;
  opts.allsat.governor = &unlimited;
  PreimageResult full = computePreimage(ts, target, PreimageMethod::kSuccessDriven, opts);
  ASSERT_TRUE(full.complete);
  EXPECT_EQ(full.stateCount, oracle.stateCount);
  EXPECT_GT(full.stats.memoBytes, 0u);
  EXPECT_GE(unlimited.peakTrackedBytes(), full.stats.memoBytes);
  EXPECT_EQ(unlimited.trackedBytes(), 0u);

  // A ceiling below the memo table's first allocation (64 slots of 24 bytes).
  Budget tight;
  tight.memLimitBytes = 1024;
  Governor capped(tight);
  opts.allsat.governor = &capped;
  PreimageResult partial = computePreimage(ts, target, PreimageMethod::kSuccessDriven, opts);
  EXPECT_FALSE(partial.complete);
  EXPECT_EQ(partial.outcome, Outcome::kMemory);
  EXPECT_TRUE(statesSubsetOf(partial.states, oracle.states));
  EXPECT_LE(partial.stateCount, oracle.stateCount);
  EXPECT_EQ(capped.trackedBytes(), 0u);
}

// --- fixpoint loops -----------------------------------------------------------

TEST(GovernedReach, TripFoldsSoundPrefixAndNeverClaimsFixpoint) {
  Netlist nl = makeCounter(4);
  TransitionSystem ts(nl);
  const int n = ts.numStateBits();
  StateSet target = StateSet::fromCube(n, {mkLit(0), mkLit(1), mkLit(2), mkLit(3)});
  ReachabilityResult oracle = backwardReach(ts, target, 32, PreimageMethod::kBdd, {});
  ASSERT_TRUE(oracle.fixpoint);
  ASSERT_EQ(oracle.outcome, Outcome::kComplete);

  CancelToken token;
  token.cancel();
  Budget budget;
  budget.cancel = &token;
  Governor governor(budget);
  PreimageOptions opts;
  opts.allsat.governor = &governor;
  ReachabilityResult r = backwardReach(ts, target, 32, PreimageMethod::kChrono, opts);
  EXPECT_EQ(r.outcome, Outcome::kCancelled);
  EXPECT_FALSE(r.fixpoint);
  EXPECT_TRUE(statesSubsetOf(r.reached, oracle.reached));
  EXPECT_EQ(r.metrics.label("outcome"), "cancelled");

  // A trip after the sweep has grown `reached` past the target: the ISOP of
  // the reached set needs nodes the tripped manager cannot build, so the
  // sweep returns the set's paths instead, with the trip's outcome.
  Netlist lfsr = makeLfsr(8);
  TransitionSystem lts(lfsr);
  const StateSet lfsrTarget = StateSet::fromCube(8, {mkLit(0), mkLit(2, true), mkLit(7)});
  ReachabilityResult lfsrOracle = backwardReach(lts, lfsrTarget, 32, PreimageMethod::kBdd, {});
  Budget conflicts;
  conflicts.conflictLimit = 2;
  Governor conflictGovernor(conflicts);
  PreimageOptions conflictOpts;
  conflictOpts.allsat.governor = &conflictGovernor;
  ReachabilityResult mid =
      backwardReach(lts, lfsrTarget, 32, PreimageMethod::kChrono, conflictOpts);
  EXPECT_EQ(mid.outcome, Outcome::kConflicts);
  EXPECT_FALSE(mid.fixpoint);
  ASSERT_FALSE(mid.steps.empty());
  EXPECT_TRUE(statesSubsetOf(mid.reached, lfsrOracle.reached));
  EXPECT_EQ(countCubeUnionMinterms(mid.reached.cubes, 8), mid.steps.back().totalStates);
}

TEST(GovernedSafety, TripDegradesVerdictToUnknownNeverSafe) {
  Netlist nl = makeCounter(4);
  TransitionSystem ts(nl);
  const int n = ts.numStateBits();
  StateSet init = StateSet::fromMinterm(n, 0);
  StateSet bad = StateSet::fromMinterm(n, (1u << n) - 1);

  SafetyOptions ungovOpts;
  ungovOpts.method = PreimageMethod::kChrono;
  SafetyResult ungoverned = checkSafety(ts, init, bad, ungovOpts);
  ASSERT_EQ(ungoverned.status, SafetyStatus::kUnsafe);  // the counter counts up

  CancelToken token;
  token.cancel();
  Budget budget;
  budget.cancel = &token;
  Governor governor(budget);
  SafetyOptions opts;
  opts.method = PreimageMethod::kChrono;
  opts.preimage.allsat.governor = &governor;
  SafetyResult r = checkSafety(ts, init, bad, opts);
  EXPECT_EQ(r.status, SafetyStatus::kUnknown);
  EXPECT_EQ(r.outcome, Outcome::kCancelled);
  EXPECT_TRUE(r.traceStates.empty());
  EXPECT_TRUE(r.traceInputs.empty());
  EXPECT_EQ(r.metrics.label("outcome"), "cancelled");
}

// --- fault injection (PRESAT_FAULTS builds only) ------------------------------

#if defined(PRESAT_FAULTS)

// Disarms on scope exit so a failing expectation cannot leak an armed fault
// into the next test.
struct FaultGuard {
  FaultGuard(const char* site, uint64_t after) { faults::armFault(site, after); }
  ~FaultGuard() { faults::disarmFaults(); }
};

TEST(FaultInjection, GovernPollSitesTripTheirReason) {
  struct Case {
    const char* site;
    Outcome want;
  };
  const Case cases[] = {
      {"govern.cancel", Outcome::kCancelled},
      {"govern.memory", Outcome::kMemory},
      {"govern.deadline", Outcome::kDeadline},
  };
  // 32 isolated solutions: enough enumeration steps to reach hit #3.
  Cnf cnf = testutil::oddParity(6);
  std::vector<Var> projection = {0, 1, 2, 3, 4, 5};
  std::set<uint64_t> exact = bruteForceProjectedSolutions(cnf, projection);

  for (const Case& c : cases) {
    FaultGuard guard(c.site, 3);
    Governor governor(Budget{});
    AllSatOptions opts;
    opts.governor = &governor;
    AllSatResult r = chronoAllSat(cnf, projection, opts);
    EXPECT_TRUE(faults::faultFired()) << c.site;
    EXPECT_FALSE(r.complete) << c.site;
    EXPECT_EQ(r.outcome, c.want) << c.site;
    EXPECT_TRUE(cubesPairwiseDisjoint(r.cubes)) << c.site;
    for (const LitVec& cube : r.cubes) {
      for (uint64_t bits = 0; bits < 64; ++bits) {
        if (cubeCoversMinterm(cube, bits)) {
          EXPECT_TRUE(exact.count(bits)) << c.site;
        }
      }
    }
    EXPECT_LE(r.mintermCount.toU64(), exact.size()) << c.site;
  }
}

TEST(FaultInjection, SatAllocFaultDegradesBlockingEngineToSoundPartial) {
  Cnf cnf(6);
  cnf.addBinary(mkLit(0), mkLit(1));
  cnf.addBinary(mkLit(2), mkLit(3));
  std::vector<Var> projection = {0, 1, 2, 3, 4, 5};
  std::set<uint64_t> exact = bruteForceProjectedSolutions(cnf, projection);

  // Fire on the 4th clause allocation: past the 2 originals, inside the
  // blocking-clause stream, so some cubes exist before the injected failure.
  FaultGuard guard("sat.alloc", 4);
  Governor governor(Budget{});
  AllSatOptions opts;
  opts.governor = &governor;
  AllSatResult r = blockingAllSat(cnf, projection, {}, opts);
  EXPECT_TRUE(faults::faultFired());
  EXPECT_FALSE(r.complete);
  EXPECT_EQ(r.outcome, Outcome::kMemory);
  for (const LitVec& cube : r.cubes) {
    for (uint64_t bits = 0; bits < 64; ++bits) {
      if (cubeCoversMinterm(cube, bits)) {
        EXPECT_TRUE(exact.count(bits));
      }
    }
  }
  EXPECT_LE(r.mintermCount.toU64(), exact.size());
}

TEST(FaultInjection, BddAllocFaultDegradesSymbolicEngines) {
  Netlist nl = makeGrayCounter(3);
  TransitionSystem ts(nl);
  StateSet target = StateSet::fromCube(ts.numStateBits(), {mkLit(0)});
  PreimageResult oracle = computePreimage(ts, target, PreimageMethod::kBdd, {});

  FaultGuard guard("bdd.alloc", 10);
  Governor governor(Budget{});
  PreimageOptions opts;
  opts.allsat.governor = &governor;
  PreimageResult r = computePreimage(ts, target, PreimageMethod::kBdd, opts);
  EXPECT_TRUE(faults::faultFired());
  EXPECT_FALSE(r.complete);
  EXPECT_EQ(r.outcome, Outcome::kMemory);
  EXPECT_TRUE(statesSubsetOf(r.states, oracle.states));
}

// A node-pool trip in the middle of an ite unwinds without leaving a half-
// inserted node or a stale cache entry: the manager audits clean and, once
// detached, keeps returning canonical refs.
TEST(FaultInjection, BddAllocTripMidIteLeavesManagerConsistent) {
  constexpr int kVars = 12;
  const auto operands = [](BddManager& m) {
    Rng rng(5);
    BddRef f = randomCubeUnion(m, rng, kVars, 12);
    BddRef g = randomCubeUnion(m, rng, kVars, 12);
    BddRef h = randomCubeUnion(m, rng, kVars, 12);
    return std::array<BddRef, 3>{f, g, h};
  };
  BddManager reference(kVars);
  const std::array<BddRef, 3> refOps = operands(reference);
  const size_t beforeIte = reference.numNodes();
  const BddRef refResult = reference.ite(refOps[0], refOps[1], refOps[2]);
  const size_t iteNodes = reference.numNodes() - beforeIte;
  ASSERT_GT(iteNodes, 8u);

  BddManager mgr(kVars);
  Governor governor(Budget{});
  mgr.setGovernor(&governor);
  const std::array<BddRef, 3> ops = operands(mgr);
  {
    // Every new node is one bdd.alloc hit: fire halfway through the ite.
    FaultGuard guard("bdd.alloc", iteNodes / 2);
    EXPECT_THROW((void)mgr.ite(ops[0], ops[1], ops[2]), GovernorStop);
    EXPECT_TRUE(faults::faultFired());
  }
  EXPECT_EQ(governor.reason(), Outcome::kMemory);
  AuditResult audit = auditBdd(mgr);
  EXPECT_TRUE(audit.ok()) << audit.toString();

  mgr.setGovernor(nullptr);
  const BddRef result = mgr.ite(ops[0], ops[1], ops[2]);
  EXPECT_EQ(result, refResult);                      // same creation order
  EXPECT_EQ(mgr.numNodes(), reference.numNodes());  // same nodes, none orphaned
  EXPECT_EQ(mgr.ite(mgr.bddNot(ops[0]), ops[2], ops[1]), result);
  audit = auditBdd(mgr);
  EXPECT_TRUE(audit.ok()) << audit.toString();
}

TEST(FaultInjection, SolutionGraphFaultDegradesSuccessDriven) {
  Netlist nl = makeGrayCounter(3);
  TransitionSystem ts(nl);
  StateSet target = StateSet::fromCube(ts.numStateBits(), {mkLit(0)});
  PreimageResult oracle = computePreimage(ts, target, PreimageMethod::kBdd, {});

  FaultGuard guard("sd.node", 5);
  Governor governor(Budget{});
  PreimageOptions opts;
  opts.allsat.governor = &governor;
  PreimageResult r = computePreimage(ts, target, PreimageMethod::kSuccessDriven, opts);
  EXPECT_TRUE(faults::faultFired());
  EXPECT_FALSE(r.complete);
  EXPECT_EQ(r.outcome, Outcome::kMemory);
  EXPECT_TRUE(statesSubsetOf(r.states, oracle.states));
  EXPECT_LE(r.stateCount, oracle.stateCount);
}

TEST(FaultInjection, PreprocessFaultFallsBackToIdentityAndTripsGovernor) {
  Cnf cnf(4);
  cnf.addBinary(mkLit(0), mkLit(1));
  cnf.addClause({mkLit(1), mkLit(2), mkLit(3)});
  cnf.addClause({mkLit(2)});  // x2 also pure: reducible when the pass runs

  FaultGuard guard("cnf.preprocess", 1);
  Governor governor(Budget{});
  PreprocessedCnf pre = preprocessCnf(cnf, {0, 1}, &governor);
  EXPECT_TRUE(faults::faultFired());
  EXPECT_EQ(governor.poll(), Outcome::kMemory);
  // The degraded pass is the identity map: same formula, nothing eliminated,
  // every variable mapped to itself — sound, just unreduced.
  EXPECT_EQ(pre.stats.identityFallback, 1u);
  EXPECT_EQ(pre.cnf.numVars(), cnf.numVars());
  EXPECT_EQ(pre.cnf.numClauses(), cnf.numClauses());
  EXPECT_TRUE(pre.forcedLits.empty());
  for (Var v = 0; v < cnf.numVars(); ++v) {
    EXPECT_EQ(pre.internalVar(v), v);
  }
}

TEST(FaultInjection, ArenaCompactFaultTripsMemoryButArenaStaysConsistent) {
  Solver s;
  for (int i = 0; i < 6; ++i) s.newVar();
  s.addClause({mkLit(0), mkLit(1)});
  s.addClause({mkLit(1), mkLit(2), mkLit(3)});
  s.addClause({~mkLit(0), mkLit(4), mkLit(5)});
  Governor governor(Budget{});
  s.setGovernor(&governor);

  FaultGuard guard("sat.arena.compact", 1);
  compactSolverForTest(s);
  EXPECT_TRUE(faults::faultFired());
  // The trip latches (the search would unwind at its next poll), but the
  // compaction itself completed: the clause database is intact and the
  // solver still answers.
  EXPECT_EQ(governor.poll(), Outcome::kMemory);
  AuditResult audit = auditSolver(s);
  EXPECT_TRUE(audit.ok()) << audit.toString();
  // Under the latched trip every solve unwinds to undef; detach to show the
  // post-compaction clause database still solves.
  s.setGovernor(nullptr);
  EXPECT_TRUE(s.solve().isTrue());
}

TEST(FaultInjection, ArmFromEnvParsesSiteAndCountdown) {
  // armFaultsFromEnv is exercised end-to-end by the CI sweep; here just
  // confirm the explicit-arm bookkeeping it shares: counting, exactly-once
  // firing, disarm reset.
  faults::armFault("sat.alloc", 2);
  EXPECT_FALSE(faults::maybeFail("bdd.alloc"));  // wrong site: no count
  EXPECT_FALSE(faults::maybeFail("sat.alloc"));  // hit 1 of 2
  EXPECT_FALSE(faults::faultFired());
  EXPECT_TRUE(faults::maybeFail("sat.alloc"));  // hit 2: fires
  EXPECT_TRUE(faults::faultFired());
  EXPECT_FALSE(faults::maybeFail("sat.alloc"));  // exactly once
  EXPECT_EQ(faults::faultHits(), 3u);
  faults::disarmFaults();
  EXPECT_FALSE(faults::faultFired());
  EXPECT_EQ(faults::faultHits(), 0u);
}

#endif  // PRESAT_FAULTS

}  // namespace
}  // namespace presat
