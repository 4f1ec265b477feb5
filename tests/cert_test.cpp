// Certificate pipeline tests: every engine's presat-cert-v1 output must be
// accepted by the standalone checker (src/checktool/presat_check.cpp), a
// governor-degraded partial must verify sound (checker exit 2), and a suite
// of deliberately corrupted certificates must each be REJECTED with the
// expected dotted diagnostic code — the checker's whole value is that it
// does not believe broken covers.
//
// The checker binary is located through the PRESAT_CHECK_BIN compile
// definition (tests/CMakeLists.txt points it at the presat_check target) and
// exercised exactly the way CI does: as a separate process over a file.
#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "base/rng.hpp"
#include "cert/certificate.hpp"
#include "circuit/netlist.hpp"
#include "gen/generators.hpp"
#include "gen/iscas.hpp"
#include "gen/random_circuit.hpp"
#include "govern/budget.hpp"
#include "govern/faults.hpp"
#include "govern/governor.hpp"
#include "preimage/preimage.hpp"
#include "preimage/transition_system.hpp"
#include "sat/proof.hpp"
#include "../bench/bench_util.hpp"

namespace presat {
namespace {

struct CheckRun {
  int exitCode = -1;    // presat_check's exit status (0 ok, 2 partial, 1 fail)
  std::string output;   // combined stdout+stderr
};

// Writes `cert` to a temp file and runs the standalone checker on it.
CheckRun runChecker(const std::string& cert, const std::string& extraArgs = "") {
  static int serial = 0;
  std::string base = ::testing::TempDir() + "presat_cert_" + std::to_string(serial++);
  std::string certPath = base + ".cert";
  std::string outPath = base + ".out";
  std::FILE* f = std::fopen(certPath.c_str(), "wb");
  EXPECT_NE(f, nullptr) << certPath;
  if (f == nullptr) return {};
  std::fwrite(cert.data(), 1, cert.size(), f);
  std::fclose(f);

  std::string cmd = std::string(PRESAT_CHECK_BIN) + " " + extraArgs +
                    (extraArgs.empty() ? "" : " ") + certPath + " >" + outPath + " 2>&1";
  int raw = std::system(cmd.c_str());
  CheckRun run;
  run.exitCode = WIFEXITED(raw) ? WEXITSTATUS(raw) : -1;
  f = std::fopen(outPath.c_str(), "rb");
  if (f != nullptr) {
    char buf[4096];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) run.output.append(buf, n);
    std::fclose(f);
  }
  std::remove(certPath.c_str());
  std::remove(outPath.c_str());
  return run;
}

// Computes a preimage with certificate emission on and returns the result.
PreimageResult certifiedPreimage(const Netlist& nl, const LitVec& targetCube,
                                 PreimageMethod method, PreimageOptions options = {}) {
  TransitionSystem ts(nl);
  StateSet target = StateSet::fromCube(ts.numStateBits(), targetCube);
  options.emitCertificate = true;
  return computePreimage(ts, target, method, options);
}

// --- acceptance: every engine, every mode ----------------------------------

TEST(CertAccept, AllEnginesSerial) {
  Netlist nl = makeLfsr(5);
  for (PreimageMethod method : kAllPreimageMethods) {
    PreimageResult r = certifiedPreimage(nl, {mkLit(0), ~mkLit(2)}, method);
    ASSERT_TRUE(r.complete) << preimageMethodName(method);
    ASSERT_FALSE(r.certificate.empty()) << preimageMethodName(method);
    EXPECT_NE(r.certificate.find(std::string("h engine ") + preimageMethodName(method)),
              std::string::npos);
    CheckRun run = runChecker(r.certificate);
    EXPECT_EQ(run.exitCode, 0) << preimageMethodName(method) << "\n" << run.output;
    EXPECT_NE(run.output.find("complete cover verified"), std::string::npos)
        << preimageMethodName(method) << "\n" << run.output;
    // A complete cover's embedded proof ends with the empty clause.
    const std::string tail = "\na 0\nh end\n";
    ASSERT_GE(r.certificate.size(), tail.size()) << preimageMethodName(method);
    EXPECT_EQ(r.certificate.substr(r.certificate.size() - tail.size()), tail)
        << preimageMethodName(method);
  }
}

TEST(CertAccept, ParallelJobsOneAndEight) {
  Netlist nl = makeLfsr(5);
  const PreimageMethod cnfMethods[] = {PreimageMethod::kMintermBlocking,
                                       PreimageMethod::kCubeBlockingLifted,
                                       PreimageMethod::kChrono};
  for (int jobs : {1, 8}) {
    for (PreimageMethod method : cnfMethods) {
      PreimageOptions options;
      options.allsat.parallel.jobs = jobs;
      PreimageResult r = certifiedPreimage(nl, {mkLit(0), ~mkLit(2)}, method, options);
      ASSERT_TRUE(r.complete) << preimageMethodName(method) << " jobs=" << jobs;
      EXPECT_NE(r.certificate.find("jobs=" + std::to_string(jobs)), std::string::npos);
      CheckRun run = runChecker(r.certificate);
      EXPECT_EQ(run.exitCode, 0)
          << preimageMethodName(method) << " jobs=" << jobs << "\n" << run.output;
      // Every complete cover embeds the replayed proof.
      EXPECT_GT(r.metrics.counter("cert.proof_steps"), 0u)
          << preimageMethodName(method) << " jobs=" << jobs;
      // Only minterm blocking splits and lists guides.
      EXPECT_EQ(r.guides.empty(), method != PreimageMethod::kMintermBlocking)
          << preimageMethodName(method) << " jobs=" << jobs;
    }
  }
}

TEST(CertAccept, ProjectedAndCompressedCovers) {
  Netlist nl = makeLfsr(5);
  const PreimageMethod methods[] = {PreimageMethod::kMintermBlocking,
                                    PreimageMethod::kCubeBlockingLifted, PreimageMethod::kChrono,
                                    PreimageMethod::kSuccessDriven};
  for (PreimageMethod method : methods) {
    PreimageOptions options;
    options.allsat.project = true;
    options.allsat.compress = true;
    PreimageResult r = certifiedPreimage(nl, {mkLit(0), ~mkLit(2)}, method, options);
    ASSERT_TRUE(r.complete) << preimageMethodName(method);
    EXPECT_NE(r.certificate.find("project=1 compress=1"), std::string::npos);
    CheckRun run = runChecker(r.certificate);
    EXPECT_EQ(run.exitCode, 0) << preimageMethodName(method) << "\n" << run.output;
  }

  // A random circuit whose chrono cover the circuit widening actually
  // widens: the replayed proofs of the serial and the jobs=4 cover must
  // both verify.
  Netlist rand = benchutil::randomBench(5, 12, 150, 23);
  StateSet target = benchutil::reachableCube(rand, 4, 102);
  for (int jobs : {0, 4}) {
    PreimageOptions options;
    options.allsat.project = true;
    options.allsat.compress = true;
    options.allsat.parallel.jobs = jobs;
    PreimageResult r =
        certifiedPreimage(rand, target.cubes.at(0), PreimageMethod::kChrono, options);
    ASSERT_TRUE(r.complete) << "jobs=" << jobs;
    EXPECT_GT(r.stats.shrinkLits, 0u) << "jobs=" << jobs;
    EXPECT_LT(r.states.cubes.size(), r.stateCount.toU64()) << "jobs=" << jobs;
    CheckRun run = runChecker(r.certificate);
    EXPECT_EQ(run.exitCode, 0) << "jobs=" << jobs << "\n" << run.output;
  }
}

// The success-driven cover is the ISOP of the graph's BDD, so on every
// target — one cube, several cubes, a repeated cube — it is the BDD engine's
// cover cube for cube, it is the same at jobs 0, 1 and 4, and its
// certificate claims no disjointness (ISOP cubes overlap) and passes.
TEST(CertAccept, SuccessDrivenCoverIsTheBddCoverAtEveryJobCount) {
  std::vector<std::pair<std::string, Netlist>> circuits;
  // Nine named circuits and 20 random ones. Reserving up front also keeps
  // GCC 12 from misreading the vector's growth path under -Warray-bounds.
  circuits.reserve(9 + 20);
  circuits.emplace_back("counter6", makeCounter(6));
  circuits.emplace_back("gray5", makeGrayCounter(5));
  circuits.emplace_back("lfsr7", makeLfsr(7));
  circuits.emplace_back("shift6", makeShiftRegister(6));
  circuits.emplace_back("arbiter4", makeRoundRobinArbiter(4));
  circuits.emplace_back("traffic", makeTrafficLight());
  circuits.emplace_back("accum4", makeAccumulator(4));
  circuits.emplace_back("lock", makeCombinationLock({3, 1, 2}, 2));
  circuits.emplace_back("s27", makeS27());
  Rng rng(2111);
  for (int i = 0; i < 20; ++i) {
    RandomCircuitParams params;
    params.seed = rng.next();
    params.numInputs = static_cast<int>(rng.range(1, 4));
    params.numDffs = static_cast<int>(rng.range(3, 9));
    params.numGates = static_cast<int>(rng.range(20, 160));
    circuits.emplace_back("random" + std::to_string(i), makeRandomSequential(params));
  }
  for (const auto& [name, nl] : circuits) {
    TransitionSystem ts(nl);
    const int bits = ts.numStateBits();
    auto randomCube = [&rng, bits] {
      LitVec cube;
      for (int b = 0; b < bits; ++b) {
        if (rng.chance(1, 2)) cube.push_back(mkLit(static_cast<Var>(b), rng.flip()));
      }
      return cube;
    };
    StateSet single = StateSet::fromCube(bits, randomCube());
    StateSet multi = StateSet::fromCube(bits, randomCube());
    multi.cubes.push_back(randomCube());
    multi.cubes.push_back(randomCube());
    StateSet repeated = multi;
    repeated.cubes.push_back(repeated.cubes.front());
    for (const auto& [kind, target] : {std::pair{"single", single}, std::pair{"multi", multi},
                                       std::pair{"repeated", repeated}}) {
      const std::string what = name + " " + kind;
      const PreimageResult bdd = computePreimage(ts, target, PreimageMethod::kBdd);
      for (int jobs : {0, 1, 4}) {
        PreimageOptions options;
        options.emitCertificate = true;
        options.allsat.parallel.jobs = jobs;
        const PreimageResult sd =
            computePreimage(ts, target, PreimageMethod::kSuccessDriven, options);
        ASSERT_TRUE(sd.complete) << what << " jobs=" << jobs;
        EXPECT_EQ(sd.states.cubes, bdd.states.cubes) << what << " jobs=" << jobs;
        EXPECT_EQ(sd.stateCount, bdd.stateCount) << what << " jobs=" << jobs;
        EXPECT_NE(sd.certificate.find(" disjoint=0 "), std::string::npos)
            << what << " jobs=" << jobs;
        const CheckRun run = runChecker(sd.certificate);
        EXPECT_EQ(run.exitCode, 0) << what << " jobs=" << jobs << "\n" << run.output;
      }
    }
  }
}

// Chrono never splits: at jobs 0, 1, 4 and 8 it runs the same serial engine,
// so the cover, count, outcome, counters and certificate (apart from the
// header's jobs= field) are the same, raw and under project+compress, and
// no run lists guides. Every certificate passes the checker.
TEST(CertAccept, ChronoIsTheSameAtEveryJobCount) {
  struct Case {
    std::string name;
    Netlist nl;
    StateSet target;
  };
  std::vector<Case> cases;
  auto addGenerator = [&cases](const char* name, Netlist nl) {
    StateSet target = StateSet::fromCube(static_cast<int>(nl.dffs().size()), {mkLit(0)});
    cases.push_back({name, std::move(nl), std::move(target)});
  };
  addGenerator("counter:4", makeCounter(4));
  addGenerator("gray:3", makeGrayCounter(3));
  addGenerator("lfsr:4", makeLfsr(4));
  addGenerator("arbiter:3", makeRoundRobinArbiter(3));
  addGenerator("traffic", makeTrafficLight());
  addGenerator("lock", makeCombinationLock({1, 2, 3}, 2));
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    Netlist nl = benchutil::randomBench(5, 12, 150, seed);
    StateSet target = benchutil::reachableCube(nl, 4, 500 + seed);
    cases.push_back({"rand12x150:" + std::to_string(seed), std::move(nl), std::move(target)});
  }
  for (benchutil::BenchCase& c : benchutil::standardSuite()) {
    if (c.name == "rand16x240") cases.push_back({c.name, std::move(c.netlist), c.target});
  }
  ASSERT_EQ(cases.size(), 6u + 20u + 1u);

  // The metrics export without its gauges, which are wall times.
  auto counters = [](const Metrics& m) {
    std::string json = m.toJson();
    const size_t begin = json.find("\"gauges\"");
    return begin == std::string::npos ? json : json.erase(begin, json.find('}', begin) - begin);
  };
  for (const Case& c : cases) {
    TransitionSystem ts(c.nl);
    for (bool projectCompress : {false, true}) {
      PreimageOptions options;
      options.emitCertificate = true;
      options.allsat.project = projectCompress;
      options.allsat.compress = projectCompress;
      const PreimageResult serial = computePreimage(ts, c.target, PreimageMethod::kChrono, options);
      ASSERT_TRUE(serial.complete) << c.name;
      for (int jobs : {0, 1, 4, 8}) {
        const std::string what =
            c.name + (projectCompress ? " project+compress" : "") + " jobs=" + std::to_string(jobs);
        options.allsat.parallel.jobs = jobs;
        const PreimageResult r = computePreimage(ts, c.target, PreimageMethod::kChrono, options);
        EXPECT_EQ(r.states.cubes, serial.states.cubes) << what;
        EXPECT_EQ(r.stateCount, serial.stateCount) << what;
        EXPECT_EQ(r.outcome, serial.outcome) << what;
        EXPECT_TRUE(r.guides.empty()) << what;
        EXPECT_EQ(counters(r.metrics), counters(serial.metrics)) << what;
        std::string cert = r.certificate;
        const std::string header = " jobs=" + std::to_string(jobs) + "\n";
        const size_t at = cert.find(header);
        ASSERT_NE(at, std::string::npos) << what;
        EXPECT_EQ(cert.replace(at, header.size(), " jobs=0\n"), serial.certificate) << what;
        const CheckRun run = runChecker(r.certificate);
        EXPECT_EQ(run.exitCode, 0) << what << "\n" << run.output;
      }
    }
  }
}

// With `compress` on, every engine returns the ISOP of its cover's union,
// which is kBdd's cover: on the generator suite and on 100 random circuits,
// minterm blocking (jobs 0 and 4), lifted cube blocking (under `project` or
// `compress`), chrono (jobs 0, 1 and 4, with and without `project`) and
// success-driven each list the BDD engine's cubes exactly, with its count,
// and each certificate says disjoint=0 and passes the checker.
TEST(CertAccept, CompressedCoverIsTheBddCoverForEveryEngine) {
  struct Config {
    PreimageMethod method;
    int jobs;
    bool project;
    bool compress;
  };
  const Config configs[] = {
      {PreimageMethod::kMintermBlocking, 0, false, true},
      {PreimageMethod::kMintermBlocking, 4, false, true},
      {PreimageMethod::kCubeBlockingLifted, 0, true, false},
      {PreimageMethod::kCubeBlockingLifted, 0, false, true},
      {PreimageMethod::kChrono, 0, true, true},
      {PreimageMethod::kChrono, 0, false, true},
      {PreimageMethod::kChrono, 1, false, true},
      {PreimageMethod::kChrono, 4, true, true},
      {PreimageMethod::kSuccessDriven, 0, false, true},
  };
  struct Case {
    std::string name;
    Netlist nl;
    StateSet target;
  };
  std::vector<Case> cases;
  auto addGenerator = [&cases](const char* name, Netlist nl) {
    StateSet target = StateSet::fromCube(static_cast<int>(nl.dffs().size()), {mkLit(0)});
    cases.push_back({name, std::move(nl), std::move(target)});
  };
  addGenerator("counter:4", makeCounter(4));
  addGenerator("gray:3", makeGrayCounter(3));
  addGenerator("lfsr:4", makeLfsr(4));
  addGenerator("shift:4", makeShiftRegister(4));
  addGenerator("arbiter:3", makeRoundRobinArbiter(3));
  addGenerator("accum:3", makeAccumulator(3));
  addGenerator("traffic", makeTrafficLight());
  addGenerator("lock", makeCombinationLock({1, 2, 3}, 2));
  for (uint64_t seed = 1; seed <= 100; ++seed) {
    Netlist nl = benchutil::randomBench(4, 8, 60, seed);
    StateSet target = benchutil::reachableCube(nl, 3, 900 + seed);
    cases.push_back({"rand8x60:" + std::to_string(seed), std::move(nl), std::move(target)});
  }

  for (const Case& c : cases) {
    TransitionSystem ts(c.nl);
    const PreimageResult bdd = computePreimage(ts, c.target, PreimageMethod::kBdd);
    for (const Config& config : configs) {
      PreimageOptions options;
      options.emitCertificate = true;
      options.allsat.parallel.jobs = config.jobs;
      options.allsat.project = config.project;
      options.allsat.compress = config.compress;
      const PreimageResult r = computePreimage(ts, c.target, config.method, options);
      const std::string what = c.name + " " + preimageMethodName(config.method) +
                               " jobs=" + std::to_string(config.jobs);
      ASSERT_TRUE(r.complete) << what;
      EXPECT_EQ(r.states.cubes, bdd.states.cubes) << what;
      EXPECT_EQ(r.stateCount, bdd.stateCount) << what;
      EXPECT_NE(r.certificate.find(" disjoint=0 "), std::string::npos) << what;
      const CheckRun run = runChecker(r.certificate);
      EXPECT_EQ(run.exitCode, 0) << what << "\n" << run.output;
    }
  }
}

TEST(CertAccept, MatchingCircuitHashFlag) {
  Netlist nl = makeCounter(4);
  PreimageResult r = certifiedPreimage(nl, {mkLit(0), ~mkLit(2)},
                                       PreimageMethod::kMintermBlocking);
  char hash[32];
  std::snprintf(hash, sizeof(hash), "%016llx",
                static_cast<unsigned long long>(netlistStructuralHash(nl)));
  CheckRun run = runChecker(r.certificate, std::string("--circuit-hash ") + hash);
  EXPECT_EQ(run.exitCode, 0) << run.output;
}

// --- honesty: governor-degraded partials ------------------------------------

TEST(CertPartial, ConflictLimitedPartialVerifiesSound) {
  Netlist nl = makeAccumulator(8);
  Budget budget;
  budget.conflictLimit = 3;
  Governor governor(budget);
  PreimageOptions options;
  options.allsat.governor = &governor;
  PreimageResult r = certifiedPreimage(nl, {mkLit(0)}, PreimageMethod::kMintermBlocking,
                                       options);
  ASSERT_FALSE(r.complete);
  EXPECT_EQ(r.outcome, Outcome::kConflicts);
  EXPECT_NE(r.certificate.find("h outcome conflicts"), std::string::npos);
  CheckRun run = runChecker(r.certificate);
  EXPECT_EQ(run.exitCode, 2) << run.output;
  EXPECT_NE(run.output.find("partial cover: witnesses and disjointness verified"),
            std::string::npos)
      << run.output;
}

// --- zero-cost default ------------------------------------------------------

TEST(CertZeroCost, NoCertificateUnlessAsked) {
  Netlist nl = makeCounter(4);
  TransitionSystem ts(nl);
  StateSet target = StateSet::fromMinterm(4, 6);
  PreimageResult r = computePreimage(ts, target, PreimageMethod::kChrono);
  EXPECT_TRUE(r.certificate.empty());
}

// --- rejection: corrupted certificates --------------------------------------

// Fixture: a real complete minterm cover whose preimage is a large slab of
// the state space, so widening a cube is guaranteed to collide with a
// sibling minterm.
class CertCorruption : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    Netlist nl = makeCounter(4);
    PreimageResult r = certifiedPreimage(nl, {mkLit(3), ~mkLit(1)},
                                         PreimageMethod::kMintermBlocking);
    ASSERT_TRUE(r.complete);
    cert_ = new std::string(r.certificate);
    ASSERT_EQ(runChecker(*cert_).exitCode, 0);
  }
  static void TearDownTestSuite() {
    delete cert_;
    cert_ = nullptr;
  }

  // The pristine certificate accepted in SetUpTestSuite.
  static const std::string& cert() { return *cert_; }

  // Returns the first line starting with `prefix` (without the newline).
  static std::string firstLine(const std::string& text, const std::string& prefix) {
    size_t pos = text.find("\n" + prefix);
    EXPECT_NE(pos, std::string::npos) << prefix;
    size_t begin = pos + 1;
    size_t end = text.find('\n', begin);
    return text.substr(begin, end - begin);
  }

  // Replaces the first occurrence of `from` with `to`; fails if absent.
  static std::string replaced(const std::string& text, const std::string& from,
                              const std::string& to) {
    size_t pos = text.find(from);
    EXPECT_NE(pos, std::string::npos) << from;
    std::string out = text;
    out.replace(pos, from.size(), to);
    return out;
  }

  static void expectReject(const std::string& corrupted, const std::string& code) {
    CheckRun run = runChecker(corrupted);
    EXPECT_EQ(run.exitCode, 1) << code << "\n" << run.output;
    EXPECT_NE(run.output.find(code), std::string::npos) << code << "\n" << run.output;
  }

 private:
  static const std::string* cert_;
};

const std::string* CertCorruption::cert_ = nullptr;

TEST_F(CertCorruption, TruncatedCertificateRejected) {
  std::string corrupted = replaced(cert(), "h end\n", "");
  expectReject(corrupted, "cert.parse.truncated");
}

TEST_F(CertCorruption, DuplicateCubeRejected) {
  // Duplicate the first cube AND its witness so the section counts still
  // match — only the exact-duplicate check may fire.
  std::string cLine = firstLine(cert(), "c ");
  std::string jLine = firstLine(cert(), "j ");
  std::string corrupted = replaced(cert(), cLine + "\n", cLine + "\n" + cLine + "\n");
  corrupted = replaced(corrupted, jLine + "\n", jLine + "\n" + jLine + "\n");
  expectReject(corrupted, "cert.cube.dup");
}

TEST_F(CertCorruption, FlippedCubeLiteralRejected) {
  // Negating a cube literal makes its own witness disagree with it.
  std::string cLine = firstLine(cert(), "c ");
  ASSERT_GE(cLine.size(), 3u);
  std::string flipped = cLine[2] == '-' ? "c " + cLine.substr(3)
                                        : "c -" + cLine.substr(2);
  expectReject(replaced(cert(), cLine + "\n", flipped + "\n"), "cert.witness.");
}

TEST_F(CertCorruption, WidenedCubeOverlapRejected) {
  // Dropping a literal widens the minterm into a 2-cube; the fixture target
  // was chosen so the twin minterm is also in the cover, so the widened cube
  // now overlaps a sibling. The witness stays consistent (the cube is still
  // a subset of it), so only the disjointness check can catch this.
  std::string cLine = firstLine(cert(), "c ");
  size_t space = cLine.find(' ', 2);
  ASSERT_NE(space, std::string::npos);
  std::string widened = "c " + cLine.substr(space + 1);
  expectReject(replaced(cert(), cLine + "\n", widened + "\n"), "cert.cover.overlap");
}

TEST_F(CertCorruption, StaleCnfHashRejected) {
  std::string hashLine = firstLine(cert(), "h cnfhash ");
  std::string corrupted =
      replaced(cert(), hashLine + "\n", "h cnfhash 0000000000000000\n");
  expectReject(corrupted, "cert.hash.cnf");
}

TEST_F(CertCorruption, StaleCircuitHashRejected) {
  CheckRun run = runChecker(cert(), "--circuit-hash 0123456789abcdef");
  EXPECT_EQ(run.exitCode, 1) << run.output;
  EXPECT_NE(run.output.find("cert.hash.circuit"), std::string::npos) << run.output;
}

TEST_F(CertCorruption, MissingEmptyClauseRejected) {
  // Strip the proof terminator: a "complete" cover without a final empty
  // clause has not proved completeness.
  size_t pos = cert().rfind("\na 0\n");
  ASSERT_NE(pos, std::string::npos);
  std::string corrupted = cert();
  corrupted.erase(pos, 4);
  expectReject(corrupted, "cert.proof.missing-empty");
}

TEST_F(CertCorruption, UnknownOutcomeRejected) {
  std::string corrupted = replaced(cert(), "h outcome complete", "h outcome wedged");
  expectReject(corrupted, "cert.flags.outcome");
}

TEST_F(CertCorruption, GarbageLiteralRejected) {
  std::string cLine = firstLine(cert(), "c ");
  std::string corrupted = replaced(cert(), cLine + "\n", "c banana 0\n");
  expectReject(corrupted, "cert.parse.");
}

TEST(CertReject, NonRupProofRejected) {
  // Handwritten certificate whose cover misses a solution: F = (x1 OR x2),
  // cover = {x1}. F AND NOT x1 is satisfied by x2, so the empty-clause step
  // has no RUP derivation and the checker must refuse the "complete" claim.
  Cnf cnf(2);
  cnf.addBinary(mkLit(0), mkLit(1));
  char hash[32];
  std::snprintf(hash, sizeof(hash), "%016llx",
                static_cast<unsigned long long>(certCnfHash(cnf)));
  std::string cert =
      "p presat-cert 1\n"
      "h engine minterm-blocking\n"
      "h circuit 0000000000000000\n"
      "h vars 2\n"
      "h scope 2 1 2\n"
      "h flags project=0 compress=0 disjoint=1 jobs=0\n"
      "h outcome complete\n"
      "h cnfhash " + std::string(hash) + "\n"
      "f 1 2 0\n"
      "c 1 0\n"
      "j 1 -2 0\n"
      "a 0\n"
      "h end\n";
  CheckRun run = runChecker(cert);
  EXPECT_EQ(run.exitCode, 1) << run.output;
  EXPECT_NE(run.output.find("cert.proof.rup"), std::string::npos) << run.output;
}

// --- the proof log itself ---------------------------------------------------

TEST(ProofLogTest, WritesCertificateLines) {
  std::string lines = "h end\n";
  ProofLog log(lines);
  const LitVec clause{mkLit(0), ~mkLit(1)};
  log.addClause(clause);
  log.deleteClause(clause.data(), clause.size());
  log.addUnit(~mkLit(11));
  log.addEmpty();
  EXPECT_EQ(log.numSteps(), 4u);
  EXPECT_TRUE(log.endsWithEmptyClause());
  // Appends after what the string already holds.
  EXPECT_EQ(lines, "h end\na 1 -2 0\ne 1 -2 0\na -12 0\na 0\n");
}

TEST(ProofLogTest, EndsWithEmptyTracksLastStep) {
  std::string lines;
  ProofLog log(lines);
  EXPECT_FALSE(log.endsWithEmptyClause());
  log.addEmpty();
  EXPECT_TRUE(log.endsWithEmptyClause());
  log.addUnit(mkLit(0));
  EXPECT_FALSE(log.endsWithEmptyClause());
  log.addEmpty();
  const Lit unit = mkLit(0);
  log.deleteClause(&unit, 1);
  EXPECT_FALSE(log.endsWithEmptyClause());
}

TEST(CertHash, SensitiveToAnyLiteral) {
  Cnf a(3);
  a.addBinary(mkLit(0), mkLit(1));
  Cnf b(3);
  b.addBinary(mkLit(0), ~mkLit(1));
  EXPECT_NE(certCnfHash(a), certCnfHash(b));
  Cnf c(3);
  c.addBinary(mkLit(0), mkLit(1));
  EXPECT_EQ(certCnfHash(a), certCnfHash(c));
}

// --- degradation under fault injection --------------------------------------

#if defined(PRESAT_FAULTS)

struct FaultGuard {
  FaultGuard(const char* site, uint64_t after) { faults::armFault(site, after); }
  ~FaultGuard() { faults::disarmFaults(); }
};

// Every injectable fault site must still yield a certificate the checker
// accepts: complete (exit 0) when the fault missed the run, a sound honest
// partial (exit 2) when it tripped. Certificates must never become garbage
// under degradation — that is the whole robustness claim.
TEST(CertFaults, EverySiteYieldsVerifiableCert) {
  Netlist nl = makeLfsr(5);
  for (const char* site : faults::kSites) {
    PreimageMethod method = PreimageMethod::kChrono;
    if (std::string(site) == "bdd.alloc") method = PreimageMethod::kBdd;
    if (std::string(site) == "sd.node") method = PreimageMethod::kSuccessDriven;
    PreimageOptions options;
    if (std::string(site) == "parallel.shard") {
      // Only minterm blocking splits, so only it reaches the shard site.
      method = PreimageMethod::kMintermBlocking;
      options.allsat.parallel.jobs = 2;
    }
    Budget budget;
    Governor governor(budget);
    options.allsat.governor = &governor;
    FaultGuard guard(site, 2);
    PreimageResult r = certifiedPreimage(nl, {mkLit(0), ~mkLit(2)}, method, options);
    ASSERT_FALSE(r.certificate.empty()) << site;
    CheckRun run = runChecker(r.certificate);
    EXPECT_TRUE(run.exitCode == 0 || run.exitCode == 2)
        << site << " exit=" << run.exitCode << "\n" << run.output;
    if (!r.complete) {
      EXPECT_EQ(run.exitCode, 2) << site << "\n" << run.output;
    }
  }
}

#endif  // PRESAT_FAULTS

}  // namespace
}  // namespace presat
