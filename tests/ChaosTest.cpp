//===- ChaosTest.cpp - fault-injection chaos suite for the serve daemon --------===//
//
// The chaos invariants (docs/ROBUSTNESS.md, "Chaos testing"): under
// every injectable fault class the daemon must
//
//  - never crash and never hang,
//  - never return an unsound answer (a faulted request either fails
//    with an error or returns a soundly-degraded result), and
//  - keep serving: requests after the fault behave exactly as they
//    would on a fault-free daemon (same key, same result members).
//
// Fault injection is deterministic (support/FaultInjection.h), so every
// scenario here replays identically run over run.
//
//===----------------------------------------------------------------------===//

#include "serve/Json.h"
#include "serve/Server.h"
#include "serve/SummaryCache.h"
#include "support/FaultInjection.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

using namespace mcpta;
using namespace mcpta::serve;
using mcpta::support::FaultInjection;

namespace {

struct TempCacheDir {
  std::string Path;
  TempCacheDir(const char *Tag) {
    Path = ::testing::TempDir() + "/mcpta_chaos_test_" + Tag + "_" +
           std::to_string(reinterpret_cast<uintptr_t>(this));
    std::filesystem::remove_all(Path);
  }
  ~TempCacheDir() {
    std::error_code EC;
    std::filesystem::remove_all(Path, EC);
  }
};

JsonValue parseResponse(const std::string &Line) {
  JsonValue V;
  std::string Err;
  EXPECT_TRUE(parseJson(Line, V, Err)) << Err << "\nline: " << Line;
  return V;
}

/// A server with fault injection enabled ("on" unless a spec is given)
/// so requests may carry per-request "fault" members.
struct ChaosFixture {
  TempCacheDir Dir{"chaos"};
  Server S;
  std::ostringstream Log;

  ChaosFixture(const char *FaultSpec = "on", const std::string &CacheDir = "")
      : S(makeConfig(FaultSpec, CacheDir)) {}

  Server::Config makeConfig(const char *FaultSpec,
                            const std::string &CacheDir) {
    Server::Config Cfg;
    Cfg.Cache.Dir = CacheDir.empty() ? Dir.Path : CacheDir;
    Cfg.FaultSpec = FaultSpec;
    return Cfg;
  }

  JsonValue request(const std::string &Line) {
    bool Shut = false;
    return parseResponse(S.handleLine(Line, Shut, Log));
  }

  uint64_t counter(const std::string &Name) {
    auto Snap = S.telemetry().countersSnapshot();
    auto It = Snap.find(Name);
    return It == Snap.end() ? 0 : It->second;
  }
};

const char *kSource =
    "int main(void) { int x; int *p; int *q; p = &x; q = p; return *q; }";

std::string analyzeReq(int Id, const char *Fault = nullptr) {
  std::string R = "{\"id\":" + std::to_string(Id) +
                  ",\"method\":\"analyze\",\"source\":\"" + kSource + "\"";
  if (Fault)
    R += std::string(",\"fault\":\"") + Fault + "\"";
  R += "}";
  return R;
}

/// Analyze request over the embedded "hash" corpus program — big enough
/// that the analyzer's amortized budget checkpoints (every 64/256
/// statement visits) actually run, which the degradation-path scenarios
/// below rely on. The tiny inline source finishes before the first
/// checkpoint.
std::string corpusReq(int Id, const char *Extra = nullptr) {
  std::string R = "{\"id\":" + std::to_string(Id) +
                  ",\"method\":\"analyze\",\"corpus\":\"hash\"";
  if (Extra)
    R += Extra;
  R += "}";
  return R;
}

/// The result members that must be identical between a faulted-then-
/// recovered daemon and a fault-free one (everything except transport
/// metadata like elapsed_ms / cached / cid).
std::string resultSignature(const JsonValue &R) {
  std::ostringstream Sig;
  Sig << R.getBool("ok", false) << "|" << R.getBool("degraded", false) << "|"
      << R.getString("key", "") << "|" << R.getNumber("locations", -1) << "|"
      << R.getNumber("ig_nodes", -1) << "|"
      << R.getNumber("main_out_pairs", -1) << "|"
      << R.getNumber("alias_pairs", -1);
  return Sig.str();
}

//===----------------------------------------------------------------------===//
// Per-request fault gating
//===----------------------------------------------------------------------===//

TEST(ChaosTest, PerRequestFaultsRequireDaemonOptIn) {
  // Without --fault-inject, a "fault" member is a hard error: chaos
  // hooks can never fire in a production daemon by accident.
  TempCacheDir Dir("nofi");
  Server::Config Cfg;
  Cfg.Cache.Dir = Dir.Path;
  Server S(Cfg);
  std::ostringstream Log;
  bool Shut = false;
  JsonValue R = parseResponse(
      S.handleLine(analyzeReq(1, "cache.read_io:once"), Shut, Log));
  EXPECT_FALSE(R.getBool("ok", true));
  EXPECT_NE(R.getString("error", "").find("--fault-inject"),
            std::string::npos);

  ChaosFixture F; // FaultSpec "on": no server-wide arms, gate open
  JsonValue Bad = F.request(analyzeReq(1, "cache.raed_io:once"));
  EXPECT_FALSE(Bad.getBool("ok", true)) << "typo'd point still rejected";
  JsonValue Ok = F.request(analyzeReq(2, "cache.read_io:once"));
  EXPECT_TRUE(Ok.getBool("ok", false));
}

TEST(ChaosTest, BadServerWideSpecRefusesToStart) {
  TempCacheDir Dir("badspec");
  Server::Config Cfg;
  Cfg.Cache.Dir = Dir.Path;
  Cfg.FaultSpec = "cache.read_io:sometimes";
  Server S(Cfg);
  std::istringstream In("{\"id\":1,\"method\":\"stats\"}\n");
  std::ostringstream Out, Log;
  EXPECT_EQ(S.run(In, Out, Log), 1);
  EXPECT_NE(Log.str().find("fault-inject"), std::string::npos);
  EXPECT_TRUE(Out.str().empty()) << "no request is served";
}

//===----------------------------------------------------------------------===//
// Cache fault classes: corruption, read IO, write IO
//===----------------------------------------------------------------------===//

TEST(ChaosTest, CorruptBlobIsQuarantinedAndRecoversCleanly) {
  TempCacheDir Shared("corrupt");
  std::string CleanSig;
  {
    ChaosFixture F("on", Shared.Path);
    JsonValue R = F.request(analyzeReq(1));
    ASSERT_TRUE(R.getBool("ok", false));
    CleanSig = resultSignature(R);
  }
  // A fresh daemon over the same disk tier (empty LRU forces the disk
  // read) sees a bit-flipped blob. Invariant: miss + quarantine, then a
  // full re-analysis whose answer matches the fault-free one exactly.
  ChaosFixture F("on", Shared.Path);
  JsonValue R = F.request(analyzeReq(2, "cache.corrupt:once"));
  EXPECT_TRUE(R.getBool("ok", false));
  EXPECT_FALSE(R.getBool("cached", true)) << "corrupt blob must not hit";
  EXPECT_EQ(resultSignature(R), CleanSig);
  EXPECT_NE(F.Log.str().find("quarantined"), std::string::npos);
  EXPECT_EQ(F.S.cache().stats().Quarantined, 1u);

  // The re-analysis republished the blob: the next lookup hits, and the
  // daemon kept serving throughout.
  JsonValue R2 = F.request(analyzeReq(3));
  EXPECT_TRUE(R2.getBool("ok", false));
  EXPECT_TRUE(R2.getBool("cached", false));
  EXPECT_EQ(resultSignature(R2), CleanSig);
}

TEST(ChaosTest, ReadIoFailureDegradesToMissNotQuarantine) {
  TempCacheDir Shared("readio");
  std::string CleanSig;
  {
    ChaosFixture F("on", Shared.Path);
    CleanSig = resultSignature(F.request(analyzeReq(1)));
  }
  ChaosFixture F("on", Shared.Path);
  JsonValue R = F.request(analyzeReq(2, "cache.read_io:once"));
  EXPECT_TRUE(R.getBool("ok", false));
  EXPECT_FALSE(R.getBool("cached", true));
  EXPECT_EQ(resultSignature(R), CleanSig);
  // An IO error is transient by assumption: the blob is NOT moved
  // aside, so once the fault clears the disk tier serves it again.
  EXPECT_EQ(F.S.cache().stats().Quarantined, 0u);
  EXPECT_EQ(F.S.cache().stats().ReadIoErrors, 1u);
}

TEST(ChaosTest, WriteRetriesRideOutTransientIoFailures) {
  // Two injected write failures, then success: the store lands on disk
  // and the retry counter records exactly two extra attempts.
  TempCacheDir Dir("wretry");
  ChaosFixture F("cache.write_io:times=2", Dir.Path);
  JsonValue R = F.request(analyzeReq(1));
  EXPECT_TRUE(R.getBool("ok", false));
  EXPECT_EQ(F.S.cache().stats().WriteRetries, 2u);
  std::string Key = R.getString("key", "");
  ASSERT_EQ(Key.size(), 32u);
  EXPECT_TRUE(std::filesystem::exists(Dir.Path + "/" + Key + ".mcpta"));
}

TEST(ChaosTest, PersistentWriteFailureDegradesToMemoryOnly) {
  TempCacheDir Dir("wfail");
  ChaosFixture F("cache.write_io:always", Dir.Path);
  JsonValue R = F.request(analyzeReq(1));
  EXPECT_TRUE(R.getBool("ok", false)) << "analysis itself is unaffected";
  std::string Key = R.getString("key", "");
  EXPECT_FALSE(std::filesystem::exists(Dir.Path + "/" + Key + ".mcpta"));
  EXPECT_NE(F.Log.str().find("memory-only"), std::string::npos);
  // The memory tier still answers: same key, cached, same result.
  JsonValue R2 = F.request(analyzeReq(2));
  EXPECT_TRUE(R2.getBool("cached", false));
  EXPECT_EQ(resultSignature(R2), resultSignature(R));
}

//===----------------------------------------------------------------------===//
// Allocation pressure
//===----------------------------------------------------------------------===//

TEST(ChaosTest, AllocPressureDegradesSoundlyUnderItsOwnKey) {
  ChaosFixture F;
  JsonValue Clean = F.request(corpusReq(1));
  ASSERT_TRUE(Clean.getBool("ok", false));
  EXPECT_FALSE(Clean.getBool("degraded", true));

  JsonValue Faulted =
      F.request(corpusReq(2, ",\"fault\":\"alloc.pressure:always:max=2\""));
  EXPECT_TRUE(Faulted.getBool("ok", false)) << "degrades, never fails";
  EXPECT_TRUE(Faulted.getBool("degraded", false));
  // The tightened budget is part of the cache key: the degraded result
  // can never poison the clean entry.
  EXPECT_NE(Faulted.getString("key", "x"), Clean.getString("key", "y"));

  JsonValue Clean2 = F.request(corpusReq(3));
  EXPECT_TRUE(Clean2.getBool("cached", false)) << "clean entry untouched";
  EXPECT_EQ(resultSignature(Clean2), resultSignature(Clean));
  EXPECT_EQ(F.counter("fault.injected.alloc.pressure"), 1u);
}

//===----------------------------------------------------------------------===//
// Stalls and the deadline watchdog
//===----------------------------------------------------------------------===//

TEST(ChaosTest, WatchdogCancelsStalledRequestAndResultIsNotCached) {
  ChaosFixture F;
  // The stall dwarfs the 25 ms budget; the hard deadline is
  // max(4x25, 25+50) = 100 ms. Sweep from this thread until it fires —
  // the same loop run()'s watchdog thread drives in production.
  std::string Req = corpusReq(1, ",\"limits\":{\"timeout_ms\":25},"
                                 "\"fault\":\"serve.stall:always:ms=20000\"");
  std::string Reply;
  std::thread Worker([&] {
    bool Shut = false;
    Reply = F.S.handleLine(Req, Shut, F.Log);
  });
  size_t Fired = 0;
  auto GiveUp = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (!Fired && std::chrono::steady_clock::now() < GiveUp) {
    Fired = F.S.watchdogSweep();
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  Worker.join();
  ASSERT_EQ(Fired, 1u) << "watchdog never fired; request would hang";

  // No crash, no hang, no unsound answer: the reply is a well-formed
  // degraded success (the cancel flag trips the deadline-cut path).
  JsonValue R = parseResponse(Reply);
  EXPECT_TRUE(R.getBool("ok", false));
  EXPECT_TRUE(R.getBool("degraded", false));
  EXPECT_EQ(F.counter("serve.watchdog.fired"), 1u);
  EXPECT_EQ(F.counter("fault.injected.serve.stall"), 1u);
  EXPECT_EQ(F.counter("serve.watchdog.uncached_results"), 1u);

  // A cancelled result reflects scheduler timing, so it must not be
  // served to anyone else: the same request without the fault misses
  // and re-analyzes.
  JsonValue Clean = F.request(corpusReq(2, ",\"limits\":{\"timeout_ms\":25}"));
  EXPECT_TRUE(Clean.getBool("ok", false));
  EXPECT_FALSE(Clean.getBool("cached", true))
      << "cancelled result must not have been cached";
}

TEST(ChaosTest, DemandFallbackNeverAnswersFromACancelledResult) {
  // The daemon's defaults carry the 25 ms budget, so the analyze and the
  // demand engine share one options fingerprint. A demand fallback
  // answers from the resident snapshot only when the watchdog left it
  // whole: after a cancelled analyze it runs the analysis itself.
  TempCacheDir Dir("cancelled");
  Server::Config Cfg;
  Cfg.Cache.Dir = Dir.Path;
  Cfg.FaultSpec = "on";
  Cfg.DefaultOpts.Limits.TimeoutMs = 25;
  Server S(Cfg);
  std::ostringstream Log;
  auto Request = [&](const std::string &Line) {
    bool Shut = false;
    return parseResponse(S.handleLine(Line, Shut, Log));
  };
  auto BodyAnalyses = [&] {
    return S.telemetry().countersSnapshot()["pta.body_analyses"];
  };
  // Small enough to finish before the first budget checkpoint, so only
  // the watchdog's verdict tells the two analyzes apart.
  const std::string Analyze =
      "{\"id\":1,\"method\":\"analyze\",\"source\":\"int id(int a) { "
      "return a; } int main(void) { int (*fp)(int); int r; fp = &id; "
      "r = (*fp)(1); return r; }\"";
  const std::string Query = "{\"id\":2,\"method\":\"points_to\","
                            "\"name\":\"fp\",\"strategy\":\"demand\"}";

  std::string Reply;
  std::thread Worker([&] {
    bool Shut = false;
    Reply = S.handleLine(
        Analyze + ",\"fault\":\"serve.stall:always:ms=20000\"}", Shut, Log);
  });
  size_t Fired = 0;
  auto GiveUp = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (!Fired && std::chrono::steady_clock::now() < GiveUp) {
    Fired = S.watchdogSweep();
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  Worker.join();
  ASSERT_EQ(Fired, 1u);
  ASSERT_TRUE(parseResponse(Reply).getBool("ok", false));
  ASSERT_EQ(S.telemetry().countersSnapshot()["serve.watchdog.uncached_results"],
            1u);
  uint64_t C0 = BodyAnalyses();
  JsonValue Q1 = Request(Query);
  EXPECT_EQ(Q1.getString("fallback_reason", ""), "fnptr");
  EXPECT_GT(BodyAnalyses(), C0) << "the fallback ran its own analysis";

  // The same analyze left whole: the fallback reads its snapshot.
  ASSERT_FALSE(Request(Analyze + "}").getBool("cached", true));
  uint64_t C1 = BodyAnalyses();
  JsonValue Q2 = Request(Query);
  EXPECT_EQ(Q2.getString("fallback_reason", ""), "fnptr");
  EXPECT_FALSE(Q2.getBool("degraded", true));
  EXPECT_EQ(BodyAnalyses(), C1);
}

TEST(ChaosTest, WatchdogSweepLeavesHealthyRequestsAlone) {
  ChaosFixture F;
  // Nothing in flight: a sweep is a no-op that still counts itself.
  EXPECT_EQ(F.S.watchdogSweep(), 0u);
  JsonValue R = F.request(
      "{\"id\":1,\"method\":\"analyze\",\"source\":\"" +
      std::string(kSource) + "\",\"limits\":{\"timeout_ms\":60000}}");
  EXPECT_TRUE(R.getBool("ok", false));
  EXPECT_FALSE(R.getBool("degraded", true));
  EXPECT_EQ(F.counter("serve.watchdog.fired"), 0u);
  EXPECT_GE(F.counter("serve.watchdog.sweeps"), 1u);
}

//===----------------------------------------------------------------------===//
// Queue overload (injected) through the full concurrent loop
//===----------------------------------------------------------------------===//

TEST(ChaosTest, InjectedQueueOverloadShedsDeterministically) {
  TempCacheDir Dir("qfull");
  Server::Config Cfg;
  Cfg.Cache.Dir = Dir.Path;
  Cfg.Threads = 2;
  Cfg.FaultSpec = "serve.queue_full:every=2"; // sheds lines 1, 3, 5
  Server S(Cfg);

  std::string Input;
  for (int I = 1; I <= 6; ++I)
    Input += analyzeReq(I) + "\n";
  std::istringstream In(Input);
  std::ostringstream Out, Log;
  ASSERT_EQ(S.run(In, Out, Log), 0);

  std::istringstream Lines(Out.str());
  std::string Line;
  int Ok = 0, Shed = 0;
  while (std::getline(Lines, Line)) {
    if (Line.empty())
      continue;
    JsonValue R = parseResponse(Line);
    if (R.getBool("ok", false)) {
      ++Ok;
    } else {
      ++Shed;
      EXPECT_TRUE(R.getBool("overloaded", false));
      EXPECT_NE(R.getString("error", "").find("overloaded"),
                std::string::npos);
      // The shed response still echoes the id for correlation.
      EXPECT_GT(R.getNumber("id", 0), 0);
    }
  }
  EXPECT_EQ(Ok, 3);
  EXPECT_EQ(Shed, 3);
  auto Counters = S.telemetry().countersSnapshot();
  EXPECT_EQ(Counters["serve.admission.shed_full"], 3u);
  EXPECT_EQ(Counters["serve.admission.admitted"], 3u);
}

//===----------------------------------------------------------------------===//
// The full sweep: every fault class in one daemon lifetime, then prove
// the daemon answers a clean request exactly like a fault-free one.
//===----------------------------------------------------------------------===//

TEST(ChaosTest, DaemonRecoversIdenticallyAfterEveryFaultClass) {
  std::string CleanSig;
  {
    ChaosFixture Reference;
    CleanSig = resultSignature(Reference.request(analyzeReq(1)));
  }

  ChaosFixture F;
  const char *Faults[] = {
      "cache.read_io:once",
      "cache.write_io:once",
      "cache.corrupt:once",
      "alloc.pressure:once:max=2",
      "serve.stall:once:ms=1", // too short for the watchdog: plain delay
  };
  int Id = 10;
  for (const char *Fault : Faults) {
    JsonValue R = F.request(analyzeReq(Id++, Fault));
    EXPECT_TRUE(R.getBool("ok", false)) << Fault;
  }
  // After the whole gauntlet, a clean request is byte-identical in
  // every result member to the fault-free daemon's answer.
  JsonValue Final = F.request(analyzeReq(99));
  EXPECT_TRUE(Final.getBool("ok", false));
  EXPECT_EQ(resultSignature(Final), CleanSig);
}

} // namespace
