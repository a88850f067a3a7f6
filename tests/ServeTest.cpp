//===- ServeTest.cpp - summary cache and pta-serve daemon ----------------------===//
//
// The serve layer's contracts (serve/SummaryCache.h, serve/Server.h):
//
//  - Cache keys: byte-identical (source, options) reruns hit; any change
//    to the source, the AnalysisOptions, or the AnalysisLimits misses.
//  - Corruption tolerance: a truncated or garbage disk blob degrades to
//    a miss with a warning — never a crash, never a wrong answer.
//  - The LRU respects its bounds and the disk tier survives "restarts"
//    (a second SummaryCache instance over the same directory).
//  - The NDJSON protocol: analyze → query → cached re-analyze →
//    shutdown, plus every error path, all in-process via handleLine/run.
//
//===----------------------------------------------------------------------===//

#include "corpus/Corpus.h"
#include "driver/Pipeline.h"
#include "serve/Json.h"
#include "serve/Server.h"
#include "serve/SummaryCache.h"
#include "support/Version.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <future>
#include <map>
#include <mutex>
#include <sstream>
#include <streambuf>
#include <thread>
#include <vector>

using namespace mcpta;
using namespace mcpta::serve;

namespace {

/// A unique cache directory under the test temp dir, removed on scope
/// exit so tests cannot see each other's blobs.
struct TempCacheDir {
  std::string Path;
  TempCacheDir(const char *Tag) {
    Path = ::testing::TempDir() + "/mcpta_serve_test_" + Tag + "_" +
           std::to_string(reinterpret_cast<uintptr_t>(this));
    std::filesystem::remove_all(Path);
  }
  ~TempCacheDir() {
    std::error_code EC;
    std::filesystem::remove_all(Path, EC);
  }
};

ResultSnapshot analyzeToSnapshot(const std::string &Source,
                                 const pta::Analyzer::Options &Opts = {}) {
  Pipeline P = Pipeline::analyzeSource(Source, Opts);
  EXPECT_FALSE(P.Diags.hasErrors()) << P.Diags.dump();
  return ResultSnapshot::capture(*P.Prog, P.Analysis, optionsFingerprint(Opts));
}

/// Parses a server response line with the serve layer's own JSON parser
/// and fails the test on malformed output.
JsonValue parseResponse(const std::string &Line) {
  JsonValue V;
  std::string Err;
  EXPECT_TRUE(parseJson(Line, V, Err)) << Err << "\nline: " << Line;
  return V;
}

//===----------------------------------------------------------------------===//
// Cache keys
//===----------------------------------------------------------------------===//

TEST(SummaryCacheTest, IdenticalRerunsShareAKey) {
  const char *Src = "int main(void) { int x; int *p; p = &x; return *p; }";
  pta::Analyzer::Options Opts;
  EXPECT_EQ(SummaryCache::key(Src, Opts), SummaryCache::key(Src, Opts));
  EXPECT_EQ(SummaryCache::key(Src, Opts).size(), 32u);
}

TEST(SummaryCacheTest, SourceChangesMiss) {
  pta::Analyzer::Options Opts;
  EXPECT_NE(SummaryCache::key("int main(void) { return 0; }", Opts),
            SummaryCache::key("int main(void) { return 1; }", Opts));
}

TEST(SummaryCacheTest, SourceDigestChangesMiss) {
  // Blobs written by another build of the analyzer are never addressed:
  // the key mixes in the library's source digest, this build's by
  // default.
  const char *Src = "int main(void) { return 0; }";
  const std::string FP = optionsFingerprint(pta::Analyzer::Options{});
  const std::string Digest = version::sourceDigest();
  EXPECT_EQ(Digest.size(), 16u);
  EXPECT_EQ(Digest.find_first_not_of("0123456789abcdef"), std::string::npos);
  EXPECT_EQ(SummaryCache::key(Src, FP), SummaryCache::key(Src, FP, Digest));
  EXPECT_NE(SummaryCache::key(Src, FP, "0000000000000000"),
            SummaryCache::key(Src, FP, "0000000000000001"));
  EXPECT_NE(SummaryCache::key(Src, FP),
            SummaryCache::key(Src, FP, Digest == "0000000000000000"
                                           ? "0000000000000001"
                                           : "0000000000000000"));
}

TEST(SummaryCacheTest, OptionChangesMiss) {
  const char *Src = "int main(void) { return 0; }";
  pta::Analyzer::Options Base;
  const std::string K = SummaryCache::key(Src, Base);

  pta::Analyzer::Options O = Base;
  O.FnPtr = pta::FnPtrMode::AddressTaken;
  EXPECT_NE(SummaryCache::key(Src, O), K);
  O = Base;
  O.ContextSensitive = false;
  EXPECT_NE(SummaryCache::key(Src, O), K);
  O = Base;
  O.SymbolicLevelLimit = 1;
  EXPECT_NE(SummaryCache::key(Src, O), K);
}

TEST(SummaryCacheTest, LimitChangesMiss) {
  // AnalysisLimits shape the result (degradations), so they are part of
  // the key: the same source under a tighter budget is a different
  // cache entry.
  const char *Src = "int main(void) { return 0; }";
  pta::Analyzer::Options Base;
  const std::string K = SummaryCache::key(Src, Base);

  pta::Analyzer::Options O = Base;
  O.Limits.TimeoutMs = 50;
  EXPECT_NE(SummaryCache::key(Src, O), K);
  O = Base;
  O.Limits.MaxIGNodes = 4;
  EXPECT_NE(SummaryCache::key(Src, O), K);
  O = Base;
  O.Limits.MaxStmtVisits = 100;
  EXPECT_NE(SummaryCache::key(Src, O), K);
}

//===----------------------------------------------------------------------===//
// Store / lookup / persistence
//===----------------------------------------------------------------------===//

TEST(SummaryCacheTest, StoreThenLookupHitsMemoryAndDisk) {
  TempCacheDir Dir("hit");
  const char *Src = "int g; int main(void) { int *p; p = &g; return *p; }";
  pta::Analyzer::Options Opts;
  const std::string Key = SummaryCache::key(Src, Opts);
  ResultSnapshot Snap = analyzeToSnapshot(Src, Opts);

  {
    SummaryCache C({Dir.Path});
    EXPECT_EQ(C.lookup(Key), nullptr);
    EXPECT_EQ(C.stats().Misses, 1u);

    ASSERT_NE(C.store(Key, Snap), nullptr);
    auto Hit = C.lookup(Key);
    ASSERT_NE(Hit, nullptr);
    EXPECT_TRUE(*Hit == Snap);
    EXPECT_EQ(C.stats().Hits, 1u);
    EXPECT_EQ(C.stats().MemHits, 1u);
    EXPECT_GT(C.stats().BytesStored, 0u);
  }

  // A fresh instance over the same directory — a daemon restart — must
  // answer from the disk tier.
  SummaryCache C2({Dir.Path});
  auto Hit = C2.lookup(Key);
  ASSERT_NE(Hit, nullptr);
  EXPECT_TRUE(*Hit == Snap);
  EXPECT_EQ(C2.stats().Hits, 1u);
  EXPECT_EQ(C2.stats().MemHits, 0u); // came from disk, not the LRU

  // ...and the disk hit repopulates the LRU.
  (void)C2.lookup(Key);
  EXPECT_EQ(C2.stats().MemHits, 1u);
}

TEST(SummaryCacheTest, TruncatedBlobIsMissWithWarning) {
  TempCacheDir Dir("trunc");
  const char *Src = "int main(void) { int x; int *p; p = &x; return *p; }";
  const std::string Key = SummaryCache::key(Src, pta::Analyzer::Options{});

  {
    SummaryCache C({Dir.Path});
    C.store(Key, analyzeToSnapshot(Src));
  }

  // Truncate the blob on disk behind the cache's back.
  const std::string Blob = Dir.Path + "/" + Key + ".mcpta";
  ASSERT_TRUE(std::filesystem::exists(Blob));
  std::filesystem::resize_file(Blob, std::filesystem::file_size(Blob) / 2);

  SummaryCache C({Dir.Path});
  std::string Warning;
  EXPECT_EQ(C.lookup(Key, &Warning), nullptr);
  EXPECT_FALSE(Warning.empty());
  EXPECT_EQ(C.stats().Misses, 1u);
  EXPECT_EQ(C.stats().BadBlobs, 1u);
  // The poisoned blob is dropped so the next store can republish.
  EXPECT_FALSE(std::filesystem::exists(Blob));
}

TEST(SummaryCacheTest, GarbageBlobIsMissWithWarning) {
  TempCacheDir Dir("garbage");
  const std::string Key(32, 'a');
  std::filesystem::create_directories(Dir.Path);
  std::ofstream(Dir.Path + "/" + Key + ".mcpta") << "not a result blob";

  SummaryCache C({Dir.Path});
  std::string Warning;
  EXPECT_EQ(C.lookup(Key, &Warning), nullptr);
  EXPECT_FALSE(Warning.empty());
  EXPECT_EQ(C.stats().BadBlobs, 1u);
}

TEST(SummaryCacheTest, LruRespectsEntryBound) {
  // Memory-only cache bounded to 2 entries: a third store evicts the
  // least recently used.
  SummaryCache::Config Cfg;
  Cfg.MaxMemEntries = 2;
  SummaryCache C(Cfg);

  const char *Sources[3] = {
      "int main(void) { return 0; }",
      "int main(void) { return 1; }",
      "int main(void) { return 2; }",
  };
  std::string Keys[3];
  for (int I = 0; I < 3; ++I) {
    Keys[I] = SummaryCache::key(Sources[I], pta::Analyzer::Options{});
    C.store(Keys[I], analyzeToSnapshot(Sources[I]));
  }

  EXPECT_EQ(C.stats().Evictions, 1u);
  EXPECT_EQ(C.stats().MemEntries, 2u);
  EXPECT_EQ(C.lookup(Keys[0]), nullptr); // evicted; no disk tier
  EXPECT_NE(C.lookup(Keys[1]), nullptr);
  EXPECT_NE(C.lookup(Keys[2]), nullptr);
}

TEST(SummaryCacheTest, InvalidateDropsEverything) {
  TempCacheDir Dir("invalidate");
  const char *Src = "int main(void) { return 0; }";
  const std::string Key = SummaryCache::key(Src, pta::Analyzer::Options{});

  SummaryCache C({Dir.Path});
  C.store(Key, analyzeToSnapshot(Src));
  EXPECT_EQ(C.invalidate(), 1u);
  EXPECT_EQ(C.lookup(Key), nullptr);
  EXPECT_FALSE(std::filesystem::exists(Dir.Path + "/" + Key + ".mcpta"));
}

std::string readFile(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(In), {});
}

TEST(SummaryCacheTest, StoredBytesAreTheSerializedSnapshotOnBothTiers) {
  // A disk store writes exactly serialize(snapshot); a memory-only store
  // writes nothing and counts the same bytes from the counting pass.
  TempCacheDir Dir("bytes");
  const corpus::CorpusProgram *CP = corpus::find("hash");
  ASSERT_NE(CP, nullptr);
  pta::Analyzer::Options Opts;
  const std::string Key = SummaryCache::key(CP->Source, Opts);
  ResultSnapshot Snap = analyzeToSnapshot(CP->Source, Opts);
  const std::string Blob = serialize(Snap);

  support::Telemetry TD, TM;
  SummaryCache Disk({Dir.Path}, &TD);
  SummaryCache Mem(SummaryCache::Config{}, &TM);
  Disk.store(Key, Snap);
  auto Stored = Mem.store(Key, Snap);
  ASSERT_NE(Stored, nullptr);
  EXPECT_TRUE(*Stored == Snap);
  EXPECT_EQ(readFile(Dir.Path + "/" + Key + ".mcpta"), Blob);

  for (const SummaryCache *C : {&Disk, &Mem}) {
    EXPECT_EQ(C->stats().BytesStored, Blob.size());
    EXPECT_EQ(C->stats().MemBytes, Blob.size());
  }
  for (support::Telemetry *T : {&TD, &TM}) {
    auto Counters = T->countersSnapshot();
    EXPECT_EQ(Counters["cache.bytes"], Blob.size());
    EXPECT_EQ(Counters["cache.stores"], 1u);
  }

  // And the stored blob answers a fresh instance's lookup.
  SummaryCache Reader({Dir.Path});
  auto Hit = Reader.lookup(Key);
  ASSERT_NE(Hit, nullptr);
  EXPECT_TRUE(*Hit == Snap);
}

TEST(SummaryCacheTest, CountingPassSizesEveryCorpusBlob) {
  // The count a memory-only store records is serialize(S).size() on
  // every corpus program, with and without context sensitivity.
  for (const corpus::CorpusProgram &CP : corpus::corpus())
    for (bool CS : {true, false}) {
      pta::Analyzer::Options Opts;
      Opts.ContextSensitive = CS;
      ResultSnapshot Snap = analyzeToSnapshot(CP.Source, Opts);
      EXPECT_EQ(serializedSize(Snap), serialize(Snap).size())
          << CP.Name << (CS ? "" : " (context-insensitive)");
    }
}

//===----------------------------------------------------------------------===//
// Server protocol
//===----------------------------------------------------------------------===//

struct ServerFixture {
  TempCacheDir Dir{"server"};
  Server S;
  std::ostringstream Log;

  ServerFixture() : S(makeConfig()) {}

  Server::Config makeConfig() {
    Server::Config Cfg;
    Cfg.Cache.Dir = Dir.Path;
    return Cfg;
  }

  /// One request through the protocol layer; returns the parsed reply.
  JsonValue request(const std::string &Line, bool *WantShutdown = nullptr) {
    bool Shut = false;
    std::string Reply = S.handleLine(Line, Shut, Log);
    if (WantShutdown)
      *WantShutdown = Shut;
    return parseResponse(Reply);
  }
};

TEST(ServerTest, AnalyzeThenCachedReanalyze) {
  ServerFixture F;
  const corpus::CorpusProgram *CP = corpus::find("hash");
  ASSERT_NE(CP, nullptr);

  JsonValue R1 = F.request("{\"id\":1,\"method\":\"analyze\",\"corpus\":\"hash\"}");
  EXPECT_TRUE(R1.getBool("ok", false));
  EXPECT_FALSE(R1.getBool("cached", true));
  EXPECT_TRUE(R1.getBool("analyzed", false));
  EXPECT_EQ(R1.getString("key", "").size(), 32u);
  EXPECT_GT(R1.getNumber("locations", 0), 0);
  EXPECT_GT(R1.getNumber("ig_nodes", 0), 0);

  // Byte-identical rerun: must be served from the cache.
  JsonValue R2 = F.request("{\"id\":2,\"method\":\"analyze\",\"corpus\":\"hash\"}");
  EXPECT_TRUE(R2.getBool("ok", false));
  EXPECT_TRUE(R2.getBool("cached", false));
  EXPECT_EQ(R2.getString("key", "x"), R1.getString("key", "y"));
  EXPECT_EQ(R2.getNumber("locations", -1), R1.getNumber("locations", -2));
}

TEST(ServerTest, DifferentOptionsDifferentKey) {
  ServerFixture F;
  JsonValue R1 = F.request("{\"id\":1,\"method\":\"analyze\",\"corpus\":\"hash\"}");
  JsonValue R2 = F.request("{\"id\":2,\"method\":\"analyze\",\"corpus\":\"hash\","
                           "\"options\":{\"context_sensitive\":false}}");
  EXPECT_TRUE(R2.getBool("ok", false));
  EXPECT_FALSE(R2.getBool("cached", true)) << "options change must miss";
  EXPECT_NE(R1.getString("key", "x"), R2.getString("key", "x"));

  JsonValue R3 = F.request("{\"id\":3,\"method\":\"analyze\",\"corpus\":\"hash\","
                           "\"limits\":{\"max_ig_nodes\":3}}");
  EXPECT_FALSE(R3.getBool("cached", true)) << "limits change must miss";
  EXPECT_TRUE(R3.getBool("degraded", false));
}

TEST(ServerTest, QueriesAnswerFromSnapshot) {
  ServerFixture F;
  F.request("{\"id\":1,\"method\":\"analyze\",\"source\":"
            "\"int main(void) { int x; int *p; int *q; p = &x; q = p; "
            "return *q; }\"}");

  JsonValue A = F.request(
      "{\"id\":2,\"method\":\"alias\",\"a\":\"*p\",\"b\":\"*q\"}");
  EXPECT_TRUE(A.getBool("ok", false));
  EXPECT_TRUE(A.getBool("aliased", false));

  JsonValue NA = F.request(
      "{\"id\":3,\"method\":\"alias\",\"a\":\"p\",\"b\":\"q\"}");
  EXPECT_TRUE(NA.getBool("ok", false));
  EXPECT_FALSE(NA.getBool("aliased", true));

  JsonValue PT =
      F.request("{\"id\":4,\"method\":\"points_to\",\"name\":\"p\"}");
  EXPECT_TRUE(PT.getBool("ok", false));
  const JsonValue *Targets = PT.find("targets");
  ASSERT_NE(Targets, nullptr);
  ASSERT_EQ(Targets->elements().size(), 1u);
  EXPECT_EQ(Targets->elements()[0].getString("target", ""), "x");
  EXPECT_TRUE(Targets->elements()[0].getBool("definite", false));

  JsonValue RW = F.request("{\"id\":5,\"method\":\"read_write_sets\","
                           "\"function\":\"main\"}");
  EXPECT_TRUE(RW.getBool("ok", false));
  ASSERT_NE(RW.find("writes"), nullptr);
}

TEST(ServerTest, ErrorPathsKeepTheLoopAlive) {
  ServerFixture F;

  JsonValue Bad = F.request("this is not json");
  EXPECT_FALSE(Bad.getBool("ok", true));
  EXPECT_NE(Bad.getString("error", "").find("JSON"), std::string::npos);

  JsonValue NoMethod = F.request("{\"id\":1}");
  EXPECT_FALSE(NoMethod.getBool("ok", true));

  JsonValue Unknown = F.request("{\"id\":2,\"method\":\"frobnicate\"}");
  EXPECT_FALSE(Unknown.getBool("ok", true));
  EXPECT_NE(Unknown.getString("error", "").find("frobnicate"),
            std::string::npos);

  // Query before any analyze: no snapshot to address.
  JsonValue Early = F.request(
      "{\"id\":3,\"method\":\"alias\",\"a\":\"p\",\"b\":\"q\"}");
  EXPECT_FALSE(Early.getBool("ok", true));

  // Frontend errors are reported, not cached.
  JsonValue Parse = F.request(
      "{\"id\":4,\"method\":\"analyze\",\"source\":\"int main( {\"}");
  EXPECT_FALSE(Parse.getBool("ok", true));
  EXPECT_FALSE(Parse.getString("error", "").empty());

  // The server still works after every failure above.
  JsonValue Ok = F.request(
      "{\"id\":5,\"method\":\"analyze\",\"source\":"
      "\"int main(void) { return 0; }\"}");
  EXPECT_TRUE(Ok.getBool("ok", false));
}

TEST(ServerTest, UnknownCorpusAndLocationsFail) {
  ServerFixture F;
  JsonValue R = F.request(
      "{\"id\":1,\"method\":\"analyze\",\"corpus\":\"no_such_program\"}");
  EXPECT_FALSE(R.getBool("ok", true));

  F.request("{\"id\":2,\"method\":\"analyze\",\"source\":"
            "\"int main(void) { return 0; }\"}");
  JsonValue PT = F.request(
      "{\"id\":3,\"method\":\"points_to\",\"name\":\"no_such_var\"}");
  EXPECT_FALSE(PT.getBool("ok", true));

  JsonValue RW = F.request("{\"id\":4,\"method\":\"read_write_sets\","
                           "\"function\":\"no_such_fn\"}");
  EXPECT_FALSE(RW.getBool("ok", true));
}

TEST(ServerTest, StatsAndInvalidate) {
  ServerFixture F;
  F.request("{\"id\":1,\"method\":\"analyze\",\"corpus\":\"misr\"}");

  JsonValue St = F.request("{\"id\":2,\"method\":\"stats\"}");
  EXPECT_TRUE(St.getBool("ok", false));
  EXPECT_FALSE(St.getString("tool_version", "").empty());
  EXPECT_EQ(St.getString("result_format", ""), "mcpta-result-v3");
  const JsonValue *Cache = St.find("cache");
  ASSERT_NE(Cache, nullptr);
  EXPECT_EQ(Cache->getNumber("misses", -1), 1);
  const JsonValue *Counters = St.find("counters");
  ASSERT_NE(Counters, nullptr);
  EXPECT_GE(Counters->getNumber("serve.requests", 0), 2);

  JsonValue Inv = F.request("{\"id\":3,\"method\":\"invalidate\"}");
  EXPECT_TRUE(Inv.getBool("ok", false));
  EXPECT_EQ(Inv.getNumber("removed_blobs", -1), 1);

  // After invalidation the snapshot reference is gone too.
  JsonValue Q = F.request(
      "{\"id\":4,\"method\":\"alias\",\"a\":\"a\",\"b\":\"b\"}");
  EXPECT_FALSE(Q.getBool("ok", true));
}

TEST(ServerTest, IncrementalAnalyzeReusesBaseline) {
  ServerFixture F;
  // Two-function program; the edit below changes only a constant in
  // leaf, so `other` grafts from the baseline.
  const char *ReqA =
      "{\"id\":1,\"method\":\"analyze\",\"incremental\":true,\"source\":"
      "\"void leaf(int *p) { *p = 1; }\\n"
      "void other(int *q) { *q = 2; }\\n"
      "int main(void) { int x; leaf(&x); other(&x); return x; }\"}";
  const char *ReqB =
      "{\"id\":2,\"method\":\"analyze\",\"incremental\":true,\"source\":"
      "\"void leaf(int *p) { *p = 3; }\\n"
      "void other(int *q) { *q = 2; }\\n"
      "int main(void) { int x; leaf(&x); other(&x); return x; }\"}";

  // First analysis under these options: nothing to diff against.
  JsonValue R1 = F.request(ReqA);
  EXPECT_TRUE(R1.getBool("ok", false));
  EXPECT_FALSE(R1.getBool("incremental", true));
  EXPECT_EQ(R1.getString("fallback_reason", ""), "no-baseline");

  // The edited source re-analyzes against the previous snapshot.
  JsonValue R2 = F.request(ReqB);
  EXPECT_TRUE(R2.getBool("ok", false));
  EXPECT_FALSE(R2.getBool("cached", true));
  EXPECT_TRUE(R2.getBool("incremental", false));
  EXPECT_GE(R2.getNumber("dirty_functions", 0), 1);
  EXPECT_GT(R2.getNumber("memo_reuse", 0), 0);
  EXPECT_EQ(R2.find("fallback_reason"), nullptr);
  EXPECT_NE(R2.getString("key", "x"), R1.getString("key", "x"));

  // Engine activity lands in the daemon's telemetry counters.
  JsonValue St = F.request("{\"id\":3,\"method\":\"stats\"}");
  const JsonValue *Counters = St.find("counters");
  ASSERT_NE(Counters, nullptr);
  EXPECT_GE(Counters->getNumber("incr.memo_reuse", 0), 1);

  // A byte-identical rerun is a cache hit; no re-analysis happens.
  JsonValue R3 = F.request(ReqB);
  EXPECT_TRUE(R3.getBool("cached", false));
  EXPECT_FALSE(R3.getBool("incremental", true));
  EXPECT_EQ(R3.getString("fallback_reason", ""), "cache-hit");

  // The incremental result answers queries like any other snapshot.
  JsonValue PT =
      F.request("{\"id\":4,\"method\":\"points_to\",\"name\":\"x\"}");
  EXPECT_TRUE(PT.getBool("ok", false));
}

TEST(ServerTest, IncrementalStoreWritesTheFromScratchBlob) {
  // The incremental path hands the engine's blob to the cache instead of
  // serializing again; what lands on disk must be the blob a plain
  // analysis of the edited source stores.
  const std::string Base = "void leaf(int *p) { *p = 1; }\n"
                           "void other(int *q) { *q = 2; }\n"
                           "int main(void) { int x; leaf(&x); other(&x); "
                           "return x; }\n";
  std::string Edit = Base;
  Edit.replace(Edit.find("*p = 1"), 6, "*p = 3");
  auto Req = [](int Id, const std::string &Src, bool Incremental) {
    return "{\"id\":" + std::to_string(Id) +
           ",\"method\":\"analyze\",\"incremental\":" +
           (Incremental ? "true" : "false") + ",\"source\":\"" +
           support::Telemetry::jsonEscape(Src) + "\"}";
  };

  ServerFixture Incr;
  ASSERT_TRUE(Incr.request(Req(1, Base, true)).getBool("ok", false));
  JsonValue R = Incr.request(Req(2, Edit, true));
  ASSERT_TRUE(R.getBool("ok", false));
  EXPECT_TRUE(R.getBool("incremental", false));
  EXPECT_GT(R.getNumber("memo_reuse", 0), 0);

  ServerFixture Scratch;
  JsonValue S = Scratch.request(Req(1, Edit, false));
  ASSERT_TRUE(S.getBool("ok", false));
  const std::string Key = R.getString("key", "");
  ASSERT_EQ(Key, S.getString("key", "x"));

  const std::string IncrBlob = readFile(Incr.Dir.Path + "/" + Key + ".mcpta");
  ASSERT_FALSE(IncrBlob.empty());
  EXPECT_EQ(IncrBlob, readFile(Scratch.Dir.Path + "/" + Key + ".mcpta"));
  EXPECT_EQ(IncrBlob, serialize(analyzeToSnapshot(Edit)));
}

TEST(ServerTest, IncrementalAnalyzeFallsBackWithReason) {
  ServerFixture F;
  F.request("{\"id\":1,\"method\":\"analyze\",\"incremental\":true,"
            "\"source\":\"int main(void) { return 0; }\"}");
  // A type edit defeats the snapshot diff: full re-analysis, reported.
  JsonValue R = F.request(
      "{\"id\":2,\"method\":\"analyze\",\"incremental\":true,\"source\":"
      "\"struct s { int a; };\\nint main(void) { return 0; }\"}");
  EXPECT_TRUE(R.getBool("ok", false));
  EXPECT_FALSE(R.getBool("incremental", true));
  EXPECT_EQ(R.getString("fallback_reason", ""), "types-changed");

  JsonValue St = F.request("{\"id\":3,\"method\":\"stats\"}");
  const JsonValue *Counters = St.find("counters");
  ASSERT_NE(Counters, nullptr);
  EXPECT_EQ(Counters->getNumber("incr.fallback.types-changed", 0), 1);
}

TEST(ServerTest, AnalyzeAnswersAlikeWithAndWithoutABaseline) {
  // Every analyze goes through the incremental engine's one entry, so a
  // source that fails, or has no main(), gets the same answer whether or
  // not a baseline exists.
  ServerFixture F;
  auto Req = [](int Id, const char *Src, bool Incremental) {
    return "{\"id\":" + std::to_string(Id) +
           ",\"method\":\"analyze\",\"incremental\":" +
           (Incremental ? "true" : "false") + ",\"source\":\"" + Src +
           "\"}";
  };
  ASSERT_TRUE(F.request(Req(1, "int main(void) { return 0; }", true))
                  .getBool("ok", false));

  JsonValue Plain = F.request(Req(2, "int main( {", false));
  JsonValue Incr = F.request(Req(3, "int main( {", true));
  EXPECT_FALSE(Plain.getBool("ok", true));
  EXPECT_FALSE(Incr.getBool("ok", true));
  EXPECT_EQ(Plain.getString("error", "plain"),
            "expected parameter declaration");
  EXPECT_EQ(Incr.getString("error", "incr"),
            Plain.getString("error", "plain"));

  // The incremental request comes first, against the analyzed baseline;
  // distinct sources keep either request from being a cache hit.
  JsonValue NoMainIncr =
      F.request(Req(4, "int g; int f(void) { return g; }", true));
  EXPECT_TRUE(NoMainIncr.getBool("ok", false));
  EXPECT_FALSE(NoMainIncr.getBool("cached", true));
  EXPECT_FALSE(NoMainIncr.getBool("analyzed", true));
  EXPECT_EQ(NoMainIncr.getString("fallback_reason", ""), "no-main");
  JsonValue NoMainPlain =
      F.request(Req(5, "int g; int h(void) { return g; }", false));
  EXPECT_TRUE(NoMainPlain.getBool("ok", false));
  EXPECT_FALSE(NoMainPlain.getBool("cached", true));
  EXPECT_FALSE(NoMainPlain.getBool("analyzed", true));
}

TEST(ServerTest, StatsReportsHitRatioAndUptime) {
  ServerFixture F;
  JsonValue St0 = F.request("{\"id\":1,\"method\":\"stats\"}");
  EXPECT_TRUE(St0.getBool("ok", false));
  EXPECT_EQ(St0.getNumber("cache_hit_ratio", -1), 0.0)
      << "no lookups yet: ratio must be 0, not NaN";
  EXPECT_GE(St0.getNumber("uptime_ms", -1), 0.0);

  // One miss then one hit: ratio is exactly 1/2.
  F.request("{\"id\":2,\"method\":\"analyze\",\"corpus\":\"misr\"}");
  F.request("{\"id\":3,\"method\":\"analyze\",\"corpus\":\"misr\"}");
  JsonValue St1 = F.request("{\"id\":4,\"method\":\"stats\"}");
  EXPECT_EQ(St1.getNumber("cache_hit_ratio", -1), 0.5);
  EXPECT_GE(St1.getNumber("uptime_ms", -1), St0.getNumber("uptime_ms", -1));

  // The aggregate cache.* counters agree with the cache's own Stats
  // block: each increment lands in the daemon aggregate exactly once
  // (via the request-scope merge), never once per telemetry sink.
  const JsonValue *Cache = St1.find("cache");
  const JsonValue *C = St1.find("counters");
  ASSERT_NE(Cache, nullptr);
  ASSERT_NE(C, nullptr);
  EXPECT_EQ(C->getNumber("cache.hits", -1), Cache->getNumber("hits", -2));
  EXPECT_EQ(C->getNumber("cache.misses", -1),
            Cache->getNumber("misses", -2));
  EXPECT_EQ(C->getNumber("cache.hits", -1), 1);
  EXPECT_EQ(C->getNumber("cache.misses", -1), 1);
  EXPECT_EQ(C->getNumber("cache.stores", -1), 1);
}

TEST(ServerTest, ShutdownFlagsAndRunLoop) {
  ServerFixture F;
  bool Shut = false;
  JsonValue R = F.request("{\"id\":9,\"method\":\"shutdown\"}", &Shut);
  EXPECT_TRUE(R.getBool("ok", false));
  EXPECT_TRUE(Shut);

  // Full loop over streams: banner on the log, one response per
  // request, orderly exit code.
  TempCacheDir Dir("runloop");
  Server::Config Cfg;
  Cfg.Cache.Dir = Dir.Path;
  Server S(Cfg);
  std::istringstream In("{\"id\":1,\"method\":\"analyze\",\"corpus\":\"misr\"}\n"
                        "\n" // blank lines are skipped
                        "{\"id\":2,\"method\":\"stats\"}\n"
                        "{\"id\":3,\"method\":\"shutdown\"}\n"
                        "{\"id\":4,\"method\":\"stats\"}\n"); // after shutdown
  std::ostringstream Out, Log;
  EXPECT_EQ(S.run(In, Out, Log), 0);
  EXPECT_NE(Log.str().find("pta-serve"), std::string::npos);

  // Exactly three responses: the post-shutdown line is never read.
  std::istringstream Lines(Out.str());
  std::string Line;
  int N = 0;
  while (std::getline(Lines, Line))
    if (!Line.empty()) {
      parseResponse(Line);
      ++N;
    }
  EXPECT_EQ(N, 3);
}

//===----------------------------------------------------------------------===//
// Observability: correlation ids, latency quantiles, per-method errors,
// the flight recorder, and the no-perturbation guarantee.
//===----------------------------------------------------------------------===//

TEST(ServerTest, ResponsesCarryCorrelationIds) {
  ServerFixture F;
  // Client-supplied cid is echoed verbatim.
  JsonValue R1 = F.request("{\"id\":1,\"method\":\"analyze\",\"corpus\":"
                           "\"misr\",\"cid\":\"build-42\"}");
  EXPECT_EQ(R1.getString("cid", ""), "build-42");
  // Without one, the server generates a monotone r<seq> id.
  JsonValue R2 = F.request("{\"id\":2,\"method\":\"stats\"}");
  EXPECT_EQ(R2.getString("cid", ""), "r2");
}

TEST(ServerTest, TraceOnDemandReturnsRequestScopedFragment) {
  ServerFixture F;
  JsonValue R = F.request("{\"id\":1,\"method\":\"analyze\",\"corpus\":"
                          "\"misr\",\"cid\":\"t1\",\"trace\":true}");
  EXPECT_TRUE(R.getBool("ok", false));
  const JsonValue *Trace = R.find("trace");
  ASSERT_NE(Trace, nullptr);
  // The fragment is a complete Chrome-trace document for THIS request:
  // the pipeline spans are present and the correlation id is stamped.
  const JsonValue *Events = Trace->find("traceEvents");
  ASSERT_NE(Events, nullptr);
  bool SawPointsTo = false;
  for (const JsonValue &E : Events->elements())
    if (E.getString("name", "") == "pointsto")
      SawPointsTo = true;
  EXPECT_TRUE(SawPointsTo);
  const JsonValue *Other = Trace->find("otherData");
  ASSERT_NE(Other, nullptr);
  EXPECT_EQ(Other->getString("correlation_id", ""), "t1");
  // A cached rerun without "trace" has no fragment.
  JsonValue R2 =
      F.request("{\"id\":2,\"method\":\"analyze\",\"corpus\":\"misr\"}");
  EXPECT_EQ(R2.find("trace"), nullptr);
}

TEST(ServerTest, StatsReportsLatencyQuantilesAndMemory) {
  ServerFixture F;
  F.request("{\"id\":1,\"method\":\"analyze\",\"corpus\":\"misr\"}");
  F.request("{\"id\":2,\"method\":\"analyze\",\"corpus\":\"misr\"}");
  F.request("{\"id\":3,\"method\":\"stats\"}");
  JsonValue St = F.request("{\"id\":4,\"method\":\"stats\"}");

  const JsonValue *Latency = St.find("latency");
  ASSERT_NE(Latency, nullptr);
  const JsonValue *Analyze = Latency->find("serve.latency.analyze");
  ASSERT_NE(Analyze, nullptr);
  EXPECT_EQ(Analyze->getNumber("count", -1), 2);
  EXPECT_GT(Analyze->getNumber("p50", -1), 0.0);
  EXPECT_GE(Analyze->getNumber("p95", -1), Analyze->getNumber("p50", -1));
  EXPECT_GE(Analyze->getNumber("p99", -1), Analyze->getNumber("p95", -1));
  EXPECT_GE(Analyze->getNumber("max", -1), 0.0);
  // The earlier stats request recorded its own latency too.
  const JsonValue *StatsLat = Latency->find("serve.latency.stats");
  ASSERT_NE(StatsLat, nullptr);
  EXPECT_GE(StatsLat->getNumber("count", -1), 1);

  const JsonValue *Mem = St.find("mem");
  ASSERT_NE(Mem, nullptr);
  EXPECT_GT(Mem->getNumber("mem.peak_rss_kb", -1), 0);
  EXPECT_GE(Mem->getNumber("mem.cache_resident_bytes", -1), 0);
  // The analyze requests merged their analyzer-side gauges in.
  EXPECT_GT(Mem->getNumber("mem.location_table_locations", -1), 0);
}

TEST(ServerTest, PerMethodErrorCountersSeparateProtocolFailures) {
  ServerFixture F;
  F.request("not json at all");                          // protocol
  F.request("{\"id\":1,\"method\":\"frobnicate\"}");     // protocol
  F.request("{\"id\":2,\"method\":\"alias\",\"a\":\"p\","
            "\"b\":\"q\"}"); // alias fails: nothing analyzed yet
  F.request("{\"id\":3,\"method\":\"analyze\",\"corpus\":\"misr\"}"); // ok

  JsonValue St = F.request("{\"id\":4,\"method\":\"stats\"}");
  const JsonValue *C = St.find("counters");
  ASSERT_NE(C, nullptr);
  EXPECT_EQ(C->getNumber("serve.errors", 0), 3);
  EXPECT_EQ(C->getNumber("serve.errors.protocol", 0), 2);
  EXPECT_EQ(C->getNumber("serve.errors.alias", 0), 1);
  EXPECT_EQ(C->getNumber("serve.errors.analyze", -1), -1)
      << "no analyze failed: its error counter must not exist";
}

TEST(ServerTest, EventsMethodExposesFlightRecorder) {
  ServerFixture F;
  F.request("{\"id\":1,\"method\":\"analyze\",\"corpus\":\"misr\","
            "\"cid\":\"e1\"}");
  F.request("{\"id\":2,\"method\":\"analyze\",\"corpus\":\"misr\"}");

  JsonValue Ev = F.request("{\"id\":3,\"method\":\"events\"}");
  EXPECT_TRUE(Ev.getBool("ok", false));
  EXPECT_GT(Ev.getNumber("recorded", 0), 0);
  EXPECT_EQ(Ev.getNumber("dropped", -1), 0);
  EXPECT_GT(Ev.getNumber("capacity", 0), 0);
  const JsonValue *Events = Ev.find("events");
  ASSERT_NE(Events, nullptr);

  // The first analyze left a start/miss/store/end trail under its cid;
  // the second was a cache hit.
  auto Count = [&](const std::string &Kind, const std::string &Cid) {
    int N = 0;
    for (const JsonValue &E : Events->elements())
      if (E.getString("kind", "") == Kind &&
          (Cid.empty() || E.getString("cid", "") == Cid))
        ++N;
    return N;
  };
  EXPECT_EQ(Count("request.start", "e1"), 1);
  EXPECT_EQ(Count("cache.miss", "e1"), 1);
  EXPECT_EQ(Count("cache.store", "e1"), 1);
  EXPECT_EQ(Count("request.end", "e1"), 1);
  EXPECT_EQ(Count("cache.hit", "r2"), 1);
  // Sequence numbers are monotone.
  double LastSeq = 0;
  for (const JsonValue &E : Events->elements()) {
    EXPECT_GT(E.getNumber("seq", -1), LastSeq);
    LastSeq = E.getNumber("seq", -1);
  }

  // A limit returns only the most recent events.
  JsonValue One = F.request("{\"id\":4,\"method\":\"events\",\"limit\":1}");
  ASSERT_NE(One.find("events"), nullptr);
  EXPECT_EQ(One.find("events")->elements().size(), 1u);
}

TEST(ServerTest, DegradationsLeaveFlightRecorderEvents) {
  ServerFixture F;
  F.request("{\"id\":1,\"method\":\"analyze\",\"corpus\":\"hash\","
            "\"cid\":\"d1\",\"limits\":{\"max_ig_nodes\":2}}");
  JsonValue Ev = F.request("{\"id\":2,\"method\":\"events\"}");
  const JsonValue *Events = Ev.find("events");
  ASSERT_NE(Events, nullptr);
  bool Saw = false;
  for (const JsonValue &E : Events->elements())
    if (E.getString("kind", "") == "degradation" &&
        E.getString("cid", "") == "d1")
      Saw = true;
  EXPECT_TRUE(Saw);
}

TEST(ServerTest, ConcurrentRequestsKeepExactTotals) {
  // handleLine from several threads at once: every response parses, and
  // the daemon aggregate counts every request exactly once.
  ServerFixture F;
  F.request("{\"id\":0,\"method\":\"analyze\",\"corpus\":\"misr\"}");
  constexpr unsigned NumThreads = 4;
  constexpr int PerThread = 25;
  std::vector<std::vector<std::string>> Replies(NumThreads);
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T < NumThreads; ++T)
    Threads.emplace_back([&F, &Replies, T] {
      std::ostringstream Sink; // per-thread log; ostringstream isn't MT-safe
      for (int I = 0; I < PerThread; ++I) {
        bool Shut = false;
        const char *Req =
            (I % 3 == 0)
                ? "{\"method\":\"analyze\",\"corpus\":\"misr\"}"
                : (I % 3 == 1 ? "{\"method\":\"stats\"}"
                              : "{\"method\":\"alias\",\"a\":\"c\","
                                "\"b\":\"v\"}");
        Replies[T].push_back(F.S.handleLine(Req, Shut, Sink));
      }
    });
  for (std::thread &Th : Threads)
    Th.join();
  for (const auto &PerThreadReplies : Replies)
    for (const std::string &Line : PerThreadReplies) {
      JsonValue R = parseResponse(Line);
      EXPECT_TRUE(R.getBool("ok", false)) << Line;
    }
  JsonValue St = F.request("{\"id\":9,\"method\":\"stats\"}");
  const JsonValue *C = St.find("counters");
  ASSERT_NE(C, nullptr);
  EXPECT_EQ(C->getNumber("serve.requests", 0),
            1 + NumThreads * PerThread + 1);
  EXPECT_EQ(C->getNumber("serve.errors", -1), -1);
}

TEST(ServerTest, TelemetryDoesNotPerturbResults) {
  // The same source analyzed with and without telemetry attached must
  // serialize to byte-identical snapshots — instrumentation observes,
  // never steers.
  const corpus::CorpusProgram *CP = corpus::find("hash");
  ASSERT_NE(CP, nullptr);
  pta::Analyzer::Options Opts;
  Pipeline Plain = Pipeline::analyzeSource(CP->Source, Opts);
  ASSERT_FALSE(Plain.Diags.hasErrors());
  Pipeline Traced = Pipeline::analyzeSourceTraced(CP->Source, Opts);
  ASSERT_FALSE(Traced.Diags.hasErrors());
  const std::string FP = optionsFingerprint(Opts);
  EXPECT_EQ(
      serialize(ResultSnapshot::capture(*Plain.Prog, Plain.Analysis, FP)),
      serialize(ResultSnapshot::capture(*Traced.Prog, Traced.Analysis, FP)));

  // And through the daemon (child telemetry attached): same key, same
  // headline numbers as the plain pipeline's snapshot.
  ServerFixture F;
  JsonValue R = F.request("{\"id\":1,\"method\":\"analyze\",\"corpus\":"
                          "\"hash\"}");
  EXPECT_EQ(R.getString("key", ""), SummaryCache::key(CP->Source, Opts));
}

//===----------------------------------------------------------------------===//
// Concurrent loop: worker pool, bounded lines, shutdown drain
//===----------------------------------------------------------------------===//

/// Splits daemon stdout into parsed response lines.
std::vector<JsonValue> parseResponses(const std::string &Out) {
  std::vector<JsonValue> Rs;
  std::istringstream Lines(Out);
  std::string Line;
  while (std::getline(Lines, Line))
    if (!Line.empty())
      Rs.push_back(parseResponse(Line));
  return Rs;
}

TEST(ServerTest, OversizedLineIsAProtocolErrorAndTheLoopContinues) {
  TempCacheDir Dir("linebound");
  Server::Config Cfg;
  Cfg.Cache.Dir = Dir.Path;
  Cfg.MaxLineBytes = 64;
  Server S(Cfg);
  std::string Huge(1000, 'x');
  std::istringstream In(Huge + "\n"
                        "{\"id\":2,\"method\":\"stats\"}\n"
                        "{\"id\":3,\"method\":\"shutdown\"}\n");
  std::ostringstream Out, Log;
  EXPECT_EQ(S.run(In, Out, Log), 0);
  std::vector<JsonValue> Rs = parseResponses(Out.str());
  ASSERT_EQ(Rs.size(), 3u);
  EXPECT_FALSE(Rs[0].getBool("ok", true));
  EXPECT_NE(Rs[0].getString("error", "").find("64-byte bound"),
            std::string::npos);
  // The oversized line was fully consumed: the next line parses
  // normally and the daemon keeps serving.
  EXPECT_TRUE(Rs[1].getBool("ok", false));
  EXPECT_TRUE(Rs[2].getBool("ok", false));
  auto Counters = S.telemetry().countersSnapshot();
  EXPECT_EQ(Counters["serve.errors.protocol"], 1u);
}

TEST(ServerTest, NonUtf8LineIsAProtocolError) {
  TempCacheDir Dir("utf8");
  Server::Config Cfg;
  Cfg.Cache.Dir = Dir.Path;
  Server S(Cfg);
  std::string Bad = "{\"id\":1,\"method\":\"stats\",\"cid\":\"\xff\xfe\"}";
  std::istringstream In(Bad + "\n"
                        "{\"id\":2,\"method\":\"shutdown\"}\n");
  std::ostringstream Out, Log;
  EXPECT_EQ(S.run(In, Out, Log), 0);
  std::vector<JsonValue> Rs = parseResponses(Out.str());
  ASSERT_EQ(Rs.size(), 2u);
  EXPECT_FALSE(Rs[0].getBool("ok", true));
  EXPECT_NE(Rs[0].getString("error", "").find("UTF-8"), std::string::npos);
  EXPECT_TRUE(Rs[1].getBool("ok", false));
}

TEST(ServerTest, PoolDrainsInFlightRequestsOnShutdown) {
  // Four analyzes then shutdown through the Threads=2 loop: every
  // accepted request gets exactly one response (out of order is fine —
  // correlation is by id), and the flight-recorder dump happens exactly
  // once, after the pool has fully drained.
  TempCacheDir Dir("pooldrain");
  Server::Config Cfg;
  Cfg.Cache.Dir = Dir.Path;
  Cfg.Threads = 2;
  Server S(Cfg);
  std::string Input;
  const char *Sources[] = {
      "int main(void) { int a; int *p; p = &a; return *p; }",
      "int main(void) { int b; int *q; q = &b; return *q; }",
      "int main(void) { int c; int *r; r = &c; return *r; }",
      "int main(void) { int d; int *s; s = &d; return *s; }",
  };
  for (int I = 0; I < 4; ++I)
    Input += "{\"id\":" + std::to_string(I + 1) +
             ",\"method\":\"analyze\",\"source\":\"" + Sources[I] + "\"}\n";
  Input += "{\"id\":5,\"method\":\"shutdown\"}\n";
  std::istringstream In(Input);
  std::ostringstream Out, Log;
  EXPECT_EQ(S.run(In, Out, Log), 0);

  std::vector<JsonValue> Rs = parseResponses(Out.str());
  std::map<int, int> ById;
  for (const JsonValue &R : Rs) {
    int Id = static_cast<int>(R.getNumber("id", -1));
    ++ById[Id];
    if (Id >= 1 && Id <= 4) {
      EXPECT_TRUE(R.getBool("ok", false)) << "id " << Id;
      EXPECT_TRUE(R.getBool("analyzed", false)) << "id " << Id;
    }
  }
  for (int Id = 1; Id <= 5; ++Id)
    EXPECT_EQ(ById[Id], 1) << "id " << Id << " answered exactly once";

  const std::string LogText = Log.str();
  size_t First = LogText.find("flight recorder:");
  ASSERT_NE(First, std::string::npos);
  EXPECT_EQ(LogText.find("flight recorder:", First + 1), std::string::npos)
      << "dump must happen exactly once";
}

TEST(ServerTest, PostShutdownLinesAreRejectedNotServed) {
  // Lines after a shutdown through the pool are never served: the reader
  // stops at the admitted shutdown, so they are not even read, and the
  // shutdown is the only request answered.
  TempCacheDir Dir("postshut");
  Server::Config Cfg;
  Cfg.Cache.Dir = Dir.Path;
  Cfg.Threads = 2;
  Server S(Cfg);
  std::string Input = "{\"id\":1,\"method\":\"shutdown\"}\n";
  for (int I = 2; I <= 10; ++I)
    Input += "{\"id\":" + std::to_string(I) + ",\"method\":\"stats\"}\n";
  std::istringstream In(Input);
  std::ostringstream Out, Log;
  EXPECT_EQ(S.run(In, Out, Log), 0);
  std::vector<JsonValue> Rs = parseResponses(Out.str());
  ASSERT_EQ(Rs.size(), 1u) << Out.str();
  EXPECT_EQ(Rs[0].getNumber("id", -1), 1);
  EXPECT_TRUE(Rs[0].getBool("ok", false));
}

/// An input stream whose writer keeps it open: it hands out its text,
/// then blocks in underflow() until release() instead of reporting EOF.
class OpenPipeBuf : public std::streambuf {
public:
  explicit OpenPipeBuf(std::string Text) : Text(std::move(Text)) {
    setg(this->Text.data(), this->Text.data(),
         this->Text.data() + this->Text.size());
  }
  void release() {
    std::lock_guard<std::mutex> Lock(Mu);
    Released = true;
    Cv.notify_all();
  }

protected:
  int_type underflow() override {
    std::unique_lock<std::mutex> Lock(Mu);
    Cv.wait(Lock, [this] { return Released; });
    return traits_type::eof();
  }

private:
  std::string Text;
  std::mutex Mu;
  std::condition_variable Cv;
  bool Released = false;
};

TEST(ServerTest, ShutdownReturnsWhileInputStaysOpen) {
  // A client that sends shutdown and keeps its end of stdin open must
  // still see the daemon exit, at every pool width; the request admitted
  // ahead of the shutdown is answered first.
  for (unsigned Threads : {1u, 2u}) {
    Server::Config Cfg;
    Cfg.Cache.Dir = "";
    Cfg.Threads = Threads;
    Server S(Cfg);
    OpenPipeBuf Buf("{\"id\":1,\"method\":\"stats\"}\n"
                    "{\"id\":2,\"method\":\"shutdown\"}\n");
    std::istream In(&Buf);
    std::ostringstream Out, Log;
    std::promise<int> Code;
    std::future<int> Done = Code.get_future();
    std::thread Runner([&] { Code.set_value(S.run(In, Out, Log)); });
    const bool Returned =
        Done.wait_for(std::chrono::seconds(10)) == std::future_status::ready;
    Buf.release(); // unblocks a reader that missed the shutdown
    Runner.join();
    EXPECT_TRUE(Returned) << "threads=" << Threads
                          << ": run() waited for EOF after shutdown";
    EXPECT_EQ(Done.get(), 0);
    std::map<int, bool> OkById;
    for (const JsonValue &R : parseResponses(Out.str()))
      OkById[static_cast<int>(R.getNumber("id", -1))] = R.getBool("ok", false);
    EXPECT_TRUE(OkById[1]) << "threads=" << Threads;
    EXPECT_TRUE(OkById[2]) << "threads=" << Threads;
  }
}

TEST(ServerTest, PoolAnswersAreIdenticalToSequentialAnswers) {
  // The same request stream through Threads=1 and Threads=4 daemons
  // (fresh cache each): for every id, all result members must match
  // exactly. Only transport metadata (elapsed_ms, response order) may
  // differ — concurrency buys throughput, never different answers.
  const char *SourcesById[] = {
      "int main(void) { int a; int *p; p = &a; return *p; }",
      "int main(void) { int b; int *q; int **h; q = &b; h = &q; "
      "return **h; }",
      "int f(int *x) { return *x; } int main(void) { int c; "
      "return f(&c); }",
      "int g(void) { return 1; } int main(void) { int (*fp)(void); "
      "fp = g; return fp(); }",
  };
  auto Collect = [&](unsigned Threads) {
    TempCacheDir Dir(Threads == 1 ? "ident_seq" : "ident_pool");
    Server::Config Cfg;
    Cfg.Cache.Dir = Dir.Path;
    Cfg.Threads = Threads;
    Server S(Cfg);
    std::string Input;
    for (int I = 0; I < 12; ++I)
      Input += "{\"id\":" + std::to_string(I + 1) +
               ",\"method\":\"analyze\",\"source\":\"" +
               SourcesById[I % 4] + "\"}\n";
    Input += "{\"id\":99,\"method\":\"shutdown\"}\n";
    std::istringstream In(Input);
    std::ostringstream Out, Log;
    EXPECT_EQ(S.run(In, Out, Log), 0);
    std::map<int, std::string> ById;
    for (const JsonValue &R : parseResponses(Out.str())) {
      int Id = static_cast<int>(R.getNumber("id", -1));
      if (Id == 99)
        continue;
      std::ostringstream Sig;
      Sig << R.getBool("ok", false) << "|" << R.getBool("degraded", false)
          << "|" << R.getString("key", "") << "|"
          << R.getNumber("locations", -1) << "|"
          << R.getNumber("ig_nodes", -1) << "|"
          << R.getNumber("main_out_pairs", -1) << "|"
          << R.getNumber("alias_pairs", -1);
      ById[Id] = Sig.str();
    }
    return ById;
  };
  std::map<int, std::string> Seq = Collect(1);
  std::map<int, std::string> Pool = Collect(4);
  ASSERT_EQ(Seq.size(), 12u);
  ASSERT_EQ(Pool.size(), 12u);
  for (int Id = 1; Id <= 12; ++Id)
    EXPECT_EQ(Pool[Id], Seq[Id]) << "id " << Id;
}

TEST(ServerTest, QueueWaitPastDeadlineShedsTheRequest) {
  // Drive the admission path directly: a worker dequeuing a request
  // that already waited past the whole deadline sheds it instead of
  // starting an analysis it cannot finish in budget.
  TempCacheDir Dir("latewait");
  Server::Config Cfg;
  Cfg.Cache.Dir = Dir.Path;
  Cfg.RequestDeadlineMs = 50;
  Server S(Cfg);
  std::ostringstream Log;
  bool Shut = false;
  Server::Admission Late;
  Late.QueueWaitMs = 120;
  Late.QueueDepth = 1;
  Late.QueueCap = 8;
  JsonValue R = parseResponse(S.handleLine(
      "{\"id\":1,\"method\":\"analyze\",\"source\":"
      "\"int main(void) { return 0; }\"}",
      Shut, Log, Late));
  EXPECT_FALSE(R.getBool("ok", true));
  EXPECT_TRUE(R.getBool("overloaded", false));
  auto Counters = S.telemetry().countersSnapshot();
  EXPECT_EQ(Counters["serve.admission.shed_wait"], 1u);

  // Queries are never shed on wait: the answer is a map lookup.
  S.handleLine("{\"id\":2,\"method\":\"analyze\",\"source\":"
               "\"int main(void) { return 0; }\"}",
               Shut, Log);
  JsonValue Q = parseResponse(S.handleLine(
      "{\"id\":3,\"method\":\"read_write_sets\"}", Shut, Log, Late));
  EXPECT_TRUE(Q.getBool("ok", false));
}

TEST(ServerTest, QueuePressureTightensTheLadderButKeepsServing) {
  // Depth at 75% of capacity: ladder level 2, TimeoutMs clamped to
  // deadline/4, the response says so, and the result is still sound.
  TempCacheDir Dir("ladder");
  Server::Config Cfg;
  Cfg.Cache.Dir = Dir.Path;
  Cfg.RequestDeadlineMs = 60000; // generous: tightened, not tripped
  Server S(Cfg);
  std::ostringstream Log;
  bool Shut = false;
  Server::Admission Busy;
  Busy.QueueWaitMs = 1;
  Busy.QueueDepth = 6;
  Busy.QueueCap = 8;
  JsonValue R = parseResponse(S.handleLine(
      "{\"id\":1,\"method\":\"analyze\",\"source\":"
      "\"int main(void) { int x; int *p; p = &x; return *p; }\"}",
      Shut, Log, Busy));
  EXPECT_TRUE(R.getBool("ok", false));
  EXPECT_EQ(R.getNumber("ladder_level", 0), 2);
  EXPECT_FALSE(R.getBool("degraded", true)) << "tiny program: budget ample";
  auto Counters = S.telemetry().countersSnapshot();
  EXPECT_EQ(Counters["serve.admission.tightened"], 1u);
  EXPECT_EQ(Counters["serve.admission.tightened.l2"], 1u);

  // An idle daemon then serves the untightened request as a fresh entry
  // (the tightened key is distinct), and a repeat of the busy request
  // hits the tightened entry.
  JsonValue Idle = parseResponse(S.handleLine(
      "{\"id\":2,\"method\":\"analyze\",\"source\":"
      "\"int main(void) { int x; int *p; p = &x; return *p; }\"}",
      Shut, Log));
  EXPECT_TRUE(Idle.getBool("ok", false));
  EXPECT_NE(Idle.getString("key", ""), R.getString("key", ""));
}

//===----------------------------------------------------------------------===//
// Demand strategy (docs/DEMAND.md)
//===----------------------------------------------------------------------===//

TEST(ServerTest, DemandStrategyAnswersFromPrunedRun) {
  ServerFixture F;
  const char *Src = "\"int main(void) { int x; int y; int *p; int *q; "
                    "p = &x; q = &y; return *p; }\"";
  // Analyze stores the source; the demand query re-frontends it.
  JsonValue A = F.request("{\"id\":1,\"method\":\"analyze\",\"source\":" +
                          std::string(Src) + "}");
  ASSERT_TRUE(A.getBool("ok", false));

  JsonValue P = F.request("{\"id\":2,\"method\":\"points_to\","
                          "\"name\":\"p\",\"strategy\":\"demand\"}");
  EXPECT_TRUE(P.getBool("ok", false));
  EXPECT_EQ(P.getString("strategy", ""), "demand");
  EXPECT_GT(P.getNumber("visited_stmts", -1), 0);

  // The snapshot path answers the same question identically.
  JsonValue PX = F.request("{\"id\":3,\"method\":\"points_to\","
                           "\"name\":\"p\",\"strategy\":\"exhaustive\"}");
  EXPECT_TRUE(PX.getBool("ok", false));
  EXPECT_EQ(PX.getString("strategy", ""), "exhaustive");

  JsonValue AL = F.request("{\"id\":4,\"method\":\"alias\",\"a\":\"*p\","
                           "\"b\":\"*q\",\"strategy\":\"demand\"}");
  EXPECT_TRUE(AL.getBool("ok", false));
  EXPECT_EQ(AL.getString("strategy", ""), "demand");
  EXPECT_FALSE(AL.getBool("aliased", true));

  auto Counters = F.S.telemetry().countersSnapshot();
  EXPECT_EQ(Counters["demand.queries"], 2u);
  EXPECT_EQ(Counters["demand.answered"], 2u);
  EXPECT_EQ(Counters["demand.fallbacks"], 0u);
}

TEST(ServerTest, DemandStrategyTakesInlineSourceOrCorpus) {
  ServerFixture F;
  // No prior analyze: the query must carry its own program.
  JsonValue P = F.request(
      "{\"id\":1,\"method\":\"points_to\",\"name\":\"p\","
      "\"strategy\":\"demand\",\"source\":\"int main(void) "
      "{ int x; int *p; p = &x; return 0; }\"}");
  EXPECT_TRUE(P.getBool("ok", false));
  EXPECT_EQ(P.getString("strategy", ""), "demand");

  JsonValue NoSrc = F.request("{\"id\":2,\"method\":\"alias\",\"a\":\"p\","
                              "\"b\":\"q\",\"strategy\":\"demand\"}");
  EXPECT_FALSE(NoSrc.getBool("ok", true));
  EXPECT_NE(NoSrc.getString("error", "").find("source"), std::string::npos);

  JsonValue BadCorpus =
      F.request("{\"id\":3,\"method\":\"points_to\",\"name\":\"p\","
                "\"strategy\":\"demand\",\"corpus\":\"nosuch\"}");
  EXPECT_FALSE(BadCorpus.getBool("ok", true));
}

TEST(ServerTest, DemandFallbackCarriesReason) {
  ServerFixture F;
  // A function-pointer program gates every demand query; the response
  // still answers (exhaustive fallback) and says why.
  JsonValue P = F.request(
      "{\"id\":1,\"method\":\"points_to\",\"name\":\"fp\","
      "\"strategy\":\"demand\",\"source\":\"int id(int a) { return a; } "
      "int main(void) { int (*fp)(int); int r; fp = &id; "
      "r = (*fp)(1); return r; }\"}");
  EXPECT_TRUE(P.getBool("ok", false));
  EXPECT_EQ(P.getString("strategy", ""), "exhaustive");
  EXPECT_EQ(P.getString("fallback_reason", ""), "fnptr");
  auto Counters = F.S.telemetry().countersSnapshot();
  EXPECT_EQ(Counters["demand.fallbacks"], 1u);
  EXPECT_EQ(Counters["demand.fallback.fnptr"], 1u);
}

TEST(ServerTest, UnknownStrategyIsAProtocolError) {
  ServerFixture F;
  JsonValue R = F.request("{\"id\":1,\"method\":\"alias\",\"a\":\"p\","
                          "\"b\":\"q\",\"strategy\":\"psychic\"}");
  EXPECT_FALSE(R.getBool("ok", true));
  EXPECT_NE(R.getString("error", "").find("strategy"), std::string::npos);
}

TEST(ServerTest, TightenedAdmissionAutoPicksDemand) {
  TempCacheDir Dir("autodemand");
  Server::Config Cfg;
  Cfg.Cache.Dir = Dir.Path;
  Server S(Cfg);
  std::ostringstream Log;
  bool Shut = false;
  JsonValue An = parseResponse(S.handleLine(
      "{\"id\":1,\"method\":\"analyze\",\"source\":"
      "\"int main(void) { int x; int *p; p = &x; return 0; }\"}",
      Shut, Log));
  ASSERT_TRUE(An.getBool("ok", false));

  // Queue at 50% of capacity: ladder level 1, and the un-pinned query
  // routes through the demand engine automatically.
  Server::Admission Busy;
  Busy.QueueDepth = 4;
  Busy.QueueCap = 8;
  JsonValue R = parseResponse(
      S.handleLine("{\"id\":2,\"method\":\"points_to\",\"name\":\"p\"}",
                   Shut, Log, Busy));
  EXPECT_TRUE(R.getBool("ok", false));
  EXPECT_EQ(R.getString("strategy", ""), "demand");
  auto Counters = S.telemetry().countersSnapshot();
  EXPECT_EQ(Counters["demand.auto_picked"], 1u);

  // An idle queue keeps the classic snapshot path (no strategy member).
  JsonValue Idle = parseResponse(
      S.handleLine("{\"id\":3,\"method\":\"points_to\",\"name\":\"p\"}",
                   Shut, Log));
  EXPECT_TRUE(Idle.getBool("ok", false));
  EXPECT_EQ(Idle.getString("strategy", ""), "");
  EXPECT_TRUE(Idle.getBool("cached", false));

  // Pinning a snapshot key opts out of the auto pick even under load.
  JsonValue Pinned = parseResponse(S.handleLine(
      "{\"id\":4,\"method\":\"points_to\",\"name\":\"p\",\"key\":\"" +
          An.getString("key", "") + "\"}",
      Shut, Log, Busy));
  EXPECT_TRUE(Pinned.getBool("ok", false));
  EXPECT_EQ(Pinned.getString("strategy", ""), "");
  EXPECT_TRUE(Pinned.getBool("cached", false));
}

TEST(ServerTest, InvalidateClearsTheDemandSource) {
  ServerFixture F;
  F.request("{\"id\":1,\"method\":\"analyze\",\"source\":"
            "\"int main(void) { int x; int *p; p = &x; return 0; }\"}");
  F.request("{\"id\":2,\"method\":\"invalidate\"}");
  JsonValue R = F.request("{\"id\":3,\"method\":\"points_to\","
                          "\"name\":\"p\",\"strategy\":\"demand\"}");
  EXPECT_FALSE(R.getBool("ok", true));
  EXPECT_NE(R.getString("error", "").find("source"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// The resident program (docs/SERVING.md)
//===----------------------------------------------------------------------===//

/// An analyze request line for \p Src, with \p Extra members appended.
std::string analyzeLine(int Id, const std::string &Src,
                        const std::string &Extra = "") {
  return "{\"id\":" + std::to_string(Id) +
         ",\"method\":\"analyze\",\"source\":\"" +
         support::Telemetry::jsonEscape(Src) + "\"" + Extra + "}";
}

/// A points_to request line for \p Name on strategy \p Strategy, with
/// \p Extra members appended.
std::string pointsToLine(int Id, const std::string &Name,
                         const std::string &Strategy,
                         const std::string &Extra = "") {
  return "{\"id\":" + std::to_string(Id) +
         ",\"method\":\"points_to\",\"name\":\"" + Name +
         "\",\"strategy\":\"" + Strategy + "\"" + Extra + "}";
}

/// A query response's answer, comparable across strategies: the
/// targets ("x!,y?" — '!' definite, '?' possible) or alias verdict, or
/// the error.
std::string answerOf(const JsonValue &R) {
  if (!R.getBool("ok", false))
    return "error: " + R.getString("error", "");
  if (const JsonValue *A = R.find("aliased"))
    return A->asBool() ? "aliased" : "not aliased";
  std::string Out;
  if (const JsonValue *T = R.find("targets"))
    for (const JsonValue &E : T->elements())
      Out += (Out.empty() ? "" : ",") + E.getString("target", "") +
             (E.getBool("definite", false) ? "!" : "?");
  return Out;
}

/// `int x, y, z; int *p;` with main pointing p at \p Var.
std::string pointsAt(const char *Var) {
  return std::string("int x; int y; int z; int *p;\n"
                     "int main(void) { p = &") +
         Var + "; return 0; }\n";
}

TEST(ServerTest, ResidentProgramNeverServesAStaleProgram) {
  ServerFixture F;
  const std::string A = pointsAt("x"), B = pointsAt("y"), C = pointsAt("z");
  const std::string Inc = ",\"incremental\":true";
  auto Demand = [&](int Id, const std::string &Extra = "") {
    return answerOf(F.request(pointsToLine(Id, "p", "demand", Extra)));
  };

  // The analyze's own parse answers the query that follows it.
  ASSERT_TRUE(F.request(analyzeLine(1, A, Inc)).getBool("ok", false));
  EXPECT_EQ(Demand(2), "x!");
  // An incremental edit replaces the resident program.
  JsonValue RB = F.request(analyzeLine(3, B, Inc));
  ASSERT_TRUE(RB.getBool("ok", false));
  EXPECT_TRUE(RB.getBool("incremental", false));
  EXPECT_EQ(Demand(4), "y!");
  // A cache hit on an earlier text makes that text resident again.
  JsonValue RA = F.request(analyzeLine(5, A, Inc));
  ASSERT_TRUE(RA.getBool("cached", false));
  EXPECT_EQ(Demand(6), "x!");
  // An explicit source equal to the resident text is the resident one.
  EXPECT_EQ(Demand(7, ",\"source\":\"" + support::Telemetry::jsonEscape(A) +
                          "\""),
            "x!");
  // A source that fails to parse leaves the last analyzed text resident.
  EXPECT_FALSE(F.request(analyzeLine(8, "int main( {", Inc))
                   .getBool("ok", true));
  EXPECT_EQ(Demand(9), "x!");
  // Another explicit text answers about itself and leaves the resident
  // program alone.
  EXPECT_EQ(Demand(10, ",\"source\":\"" +
                           support::Telemetry::jsonEscape(C) + "\""),
            "z!");
  EXPECT_EQ(Demand(11), "x!");
  // invalidate drops it.
  F.request("{\"id\":12,\"method\":\"invalidate\"}");
  EXPECT_NE(Demand(13).find("source"), std::string::npos);

  // Queries 2, 4, 7 and 11 found the resident program parsed; 6 and 9
  // parsed it (after a cache hit, after a failed parse) and 10 parsed
  // its own text.
  auto Counters = F.S.telemetry().countersSnapshot();
  EXPECT_EQ(Counters["demand.queries"], 7u);
  EXPECT_EQ(Counters["demand.program_reuse"], 4u);
}

TEST(ServerTest, DemandAnswersEqualSnapshotAnswersOnTheCorpus) {
  // Through the daemon: after each corpus analyze, demand queries run on
  // the resident program and answer exactly as the snapshot does.
  ServerFixture F;
  int Id = 0;
  uint64_t Queries = 0;
  for (const corpus::CorpusProgram &CP : corpus::corpus()) {
    JsonValue An = F.request("{\"id\":" + std::to_string(++Id) +
                             ",\"method\":\"analyze\",\"corpus\":\"" +
                             CP.Name + "\"}");
    ASSERT_TRUE(An.getBool("ok", false)) << CP.Name;
    // main's own variables first (cheap pruned runs), then globals.
    Pipeline FE = Pipeline::frontend(CP.Source);
    ASSERT_TRUE(FE.Prog) << CP.Name;
    std::vector<std::string> Names;
    auto Add = [&](const std::string &N) {
      if (Names.size() < 4 && !N.empty() && N[0] != '.' &&
          std::find(Names.begin(), Names.end(), N) == Names.end())
        Names.push_back(N);
    };
    for (const simple::FunctionIR &Fn : FE.Prog->functions())
      if (Fn.Decl && Fn.Decl->name() == "main")
        for (const cfront::VarDecl *L : Fn.Locals)
          Add(L->name());
    for (const cfront::VarDecl *G : FE.Prog->globals())
      Add(G->name());
    std::vector<std::string> Lines;
    for (const std::string &N : Names)
      Lines.push_back(",\"method\":\"points_to\",\"name\":\"" + N + "\"");
    for (size_t I = 0; I + 1 < Names.size(); ++I)
      Lines.push_back(",\"method\":\"alias\",\"a\":\"*" + Names[I] +
                      "\",\"b\":\"*" + Names[I + 1] + "\"");
    for (const std::string &L : Lines) {
      std::string Head = "{\"id\":" + std::to_string(++Id) + L;
      JsonValue D = F.request(Head + ",\"strategy\":\"demand\"}");
      JsonValue S = F.request(Head + ",\"strategy\":\"exhaustive\"}");
      EXPECT_EQ(answerOf(D), answerOf(S)) << CP.Name << L;
      ++Queries;
    }
  }
  auto Counters = F.S.telemetry().countersSnapshot();
  EXPECT_EQ(Counters["demand.queries"], Queries);
  EXPECT_EQ(Counters["demand.program_reuse"], Queries);
}

TEST(ServerTest, RepeatedDemandFallbacksRunTheExhaustiveAnalysisOnce) {
  // A function-pointer program gates every demand query to the
  // exhaustive fallback. The analyze already ran that analysis under the
  // engine's options, and the fallbacks answer from its snapshot: they
  // add no analyzer traffic at all.
  ServerFixture F;
  const std::string Src = "int id(int a) { return a; }\n"
                          "int main(void) { int (*fp)(int); int r; "
                          "fp = &id; r = (*fp)(1); return r; }\n";
  ASSERT_TRUE(F.request(analyzeLine(1, Src)).getBool("ok", false));
  auto PtaCounters = [&] {
    std::map<std::string, uint64_t> Out;
    for (const auto &[Name, V] : F.S.telemetry().countersSnapshot())
      if (Name.rfind("pta.", 0) == 0)
        Out[Name] = V;
    return Out;
  };
  std::map<std::string, uint64_t> C0 = PtaCounters();
  JsonValue Q1 = F.request(pointsToLine(2, "fp", "demand"));
  EXPECT_EQ(Q1.getString("fallback_reason", ""), "fnptr");
  std::map<std::string, uint64_t> C1 = PtaCounters();
  JsonValue Q2 = F.request(pointsToLine(3, "fp", "demand"));
  EXPECT_EQ(Q2.getString("fallback_reason", ""), "fnptr");
  EXPECT_EQ(answerOf(Q2), answerOf(Q1));
  std::map<std::string, uint64_t> C2 = PtaCounters();

  EXPECT_EQ(C0["pta.stmt_visits"], 7u);
  EXPECT_EQ(C1, C0);
  EXPECT_EQ(C2, C1);
  auto Counters = F.S.telemetry().countersSnapshot();
  EXPECT_EQ(Counters["demand.fallback.fnptr"], 2u);
  EXPECT_EQ(Counters["demand.program_reuse"], 2u);
}

TEST(ServerTest, DemandFallbackUnderADeadlineReusesTheAnalyze) {
  // With a request deadline every analyze runs under it (level 0); the
  // demand engine runs under the same options, so a fallback answers
  // from the analyze's snapshot instead of analyzing again.
  for (uint64_t DeadlineMs : {uint64_t(0), uint64_t(10000)}) {
    Server::Config Cfg;
    Cfg.RequestDeadlineMs = DeadlineMs;
    Server S(Cfg);
    std::ostringstream Log;
    bool Shut = false;
    auto Request = [&](const std::string &Line) {
      return parseResponse(S.handleLine(Line, Shut, Log));
    };
    auto BodyAnalyses = [&] {
      return S.telemetry().countersSnapshot()["pta.body_analyses"];
    };
    ASSERT_TRUE(
        Request("{\"id\":1,\"method\":\"analyze\",\"corpus\":\"config\"}")
            .getBool("ok", false));
    const uint64_t Before = BodyAnalyses();
    EXPECT_EQ(Before, 43u) << DeadlineMs;
    JsonValue Q = Request(pointsToLine(2, "c", "demand"));
    EXPECT_TRUE(Q.getBool("ok", false)) << DeadlineMs;
    EXPECT_EQ(Q.getString("fallback_reason", ""), "fnptr") << DeadlineMs;
    EXPECT_EQ(BodyAnalyses(), Before) << DeadlineMs;
  }
}

TEST(ServerTest, DemandFallbackRunsItsOwnAnalysisUnderOtherOptions) {
  // The resident snapshot was computed context-insensitively, the
  // engine's options are the daemon defaults: the first fallback runs
  // the exhaustive analysis itself (and answers as a default-options
  // analyze does), the second reads that run back.
  ServerFixture F;
  const std::string Src = "int id(int a) { return a; }\n"
                          "int main(void) { int (*fp)(int); int r; "
                          "fp = &id; r = (*fp)(1); return r; }\n";
  ASSERT_TRUE(F.request(analyzeLine(1, Src,
                                    ",\"options\":{\"context_sensitive\":"
                                    "false}"))
                  .getBool("ok", false));
  auto BodyAnalyses = [&] {
    return F.S.telemetry().countersSnapshot()["pta.body_analyses"];
  };
  uint64_t C0 = BodyAnalyses();
  JsonValue Q1 = F.request(pointsToLine(2, "fp", "demand"));
  EXPECT_EQ(Q1.getString("fallback_reason", ""), "fnptr");
  EXPECT_EQ(answerOf(Q1), "id!");
  uint64_t C1 = BodyAnalyses();
  EXPECT_GT(C1, C0);
  EXPECT_EQ(answerOf(F.request(pointsToLine(3, "fp", "demand"))), "id!");
  EXPECT_EQ(BodyAnalyses(), C1);
}

TEST(ServerTest, ConcurrentEditsAndDemandQueriesAnswerTheirOwnProgram) {
  // Two workers: incremental edits and demand queries overlap, so the
  // resident program is replaced while queries read it. A query naming
  // its text answers about that text; a sourceless one about one of the
  // analyzed texts (the first is analyzed before the workers start, so
  // one always is).
  const char *Vars[] = {"x", "y", "z"};
  Server::Config Cfg;
  Cfg.Threads = 2;
  Server S(Cfg);
  bool Shut = false;
  std::ostringstream SeedLog;
  ASSERT_TRUE(parseResponse(S.handleLine(analyzeLine(1000, pointsAt("x"),
                                                     ",\"incremental\":true"),
                                         Shut, SeedLog))
                  .getBool("ok", false));
  std::string Input;
  const int Edits = 12;
  for (int I = 0; I < Edits; ++I) {
    std::string Src = pointsAt(Vars[I % 3]) + "int pad" +
                      std::to_string(I) + "(void) { return 0; }\n";
    Input += analyzeLine(3 * I + 1, Src, ",\"incremental\":true") + "\n";
    Input += pointsToLine(3 * I + 2, "p", "demand",
                          ",\"source\":\"" +
                              support::Telemetry::jsonEscape(Src) + "\"") +
             "\n";
    Input += pointsToLine(3 * I + 3, "p", "demand") + "\n";
  }
  Input += "{\"id\":0,\"method\":\"shutdown\"}\n";
  std::istringstream In(Input);
  std::ostringstream Out, Log;
  ASSERT_EQ(S.run(In, Out, Log), 0);

  std::map<int, JsonValue> ById;
  for (const JsonValue &R : parseResponses(Out.str()))
    ById[static_cast<int>(R.getNumber("id", -1))] = R;
  ASSERT_EQ(ById.size(), size_t(3 * Edits + 1));
  for (int I = 0; I < Edits; ++I) {
    EXPECT_TRUE(ById[3 * I + 1].getBool("ok", false)) << I;
    EXPECT_EQ(answerOf(ById[3 * I + 2]), std::string(Vars[I % 3]) + "!")
        << I;
    std::string Any = answerOf(ById[3 * I + 3]);
    EXPECT_TRUE(Any == "x!" || Any == "y!" || Any == "z!") << I << ": " << Any;
  }
}

/// \p Line with the parts that vary between runs and builds masked:
/// every elapsed_ms value reads 0, and \p Key (it hashes the build's
/// source digest) reads @KEY@.
std::string maskResponse(std::string Line, const std::string &Key) {
  const std::string Elapsed = "\"elapsed_ms\":";
  for (size_t Pos = Line.find(Elapsed); Pos != std::string::npos;
       Pos = Line.find(Elapsed, Pos)) {
    Pos += Elapsed.size();
    Line.replace(Pos, Line.find_first_of(",}", Pos) - Pos, "0");
  }
  if (Key.empty())
    return Line;
  for (size_t Pos; (Pos = Line.find(Key)) != std::string::npos;)
    Line.replace(Pos, Key.size(), "@KEY@");
  return Line;
}

TEST(ServerTest, QueryResponsesArePinnedByteForByte) {
  // Every alias/points_to path through the daemon, on both strategies,
  // with its exact response bytes: the snapshot path, the demand path
  // (answered, fallen back, failed) and every request error. One daemon
  // serves the lines in order, so the generated cids are stable; @KEY@
  // in a line stands for the key the last analyze returned.
  const std::string Esc = support::Telemetry::jsonEscape(
      "int x; int y; int *g;\n"
      "int main(void) { int *p; int *q; p = &x; q = p; g = &y; return *p; }\n");
  const std::string Other = support::Telemetry::jsonEscape(
      "int a; int *r;\nint main(void) { r = &a; return 0; }\n");
  const std::string FnPtr = support::Telemetry::jsonEscape(
      "int id(int a) { return a; }\n"
      "int main(void) { int (*fp)(int); int r; fp = &id; r = (*fp)(1); "
      "return r; }\n");
  const std::pair<std::string, std::string> Table[] = {
      // No prior analyze.
      {R"({"id":1,"method":"alias","a":"*p","b":"*q"})",
       R"pin({"id":1,"ok":false,"degraded":false,"cached":false,"elapsed_ms":0,"cid":"r1","error":"no result to query: analyze first or pass a \"key\""})pin"},
      {R"({"id":2,"method":"points_to","name":"p"})",
       R"pin({"id":2,"ok":false,"degraded":false,"cached":false,"elapsed_ms":0,"cid":"r2","error":"no result to query: analyze first or pass a \"key\""})pin"},
      {R"({"id":3,"method":"points_to","name":"p","strategy":"exhaustive"})",
       R"pin({"id":3,"ok":false,"degraded":false,"cached":false,"elapsed_ms":0,"cid":"r3","error":"no result to query: analyze first or pass a \"key\""})pin"},
      {R"({"id":4,"method":"alias","a":"*p","b":"*q","strategy":"demand"})",
       R"pin({"id":4,"ok":false,"degraded":false,"cached":false,"elapsed_ms":0,"cid":"r4","error":"demand strategy needs a \"source\" or \"corpus\" member, or a prior analyze"})pin"},
      {R"({"id":5,"method":"points_to","name":"p","strategy":"demand"})",
       R"pin({"id":5,"ok":false,"degraded":false,"cached":false,"elapsed_ms":0,"cid":"r5","error":"demand strategy needs a \"source\" or \"corpus\" member, or a prior analyze"})pin"},
      {R"({"id":6,"method":"points_to","name":"r","strategy":"demand","source":")" +
           Other + "\"}",
       R"pin({"id":6,"ok":true,"degraded":false,"cached":false,"elapsed_ms":0,"cid":"r6","strategy":"demand","visited_stmts":4,"skipped_stmts":0,"targets":[{"target":"a","definite":true}]})pin"},
      {R"({"id":7,"method":"points_to","name":"p","strategy":"demand","corpus":"nosuch"})",
       R"pin({"id":7,"ok":false,"degraded":false,"cached":false,"elapsed_ms":0,"cid":"r7","error":"unknown corpus program 'nosuch'"})pin"},
      {R"({"id":8,"method":"alias","a":"*p","b":"*q","strategy":"psychic"})",
       R"pin({"id":8,"ok":false,"degraded":false,"cached":false,"elapsed_ms":0,"cid":"r8","error":"unknown strategy 'psychic' (expected \"demand\" or \"exhaustive\")"})pin"},
      {R"({"id":9,"method":"points_to","strategy":"exhaustive"})",
       R"pin({"id":9,"ok":false,"degraded":false,"cached":false,"elapsed_ms":0,"cid":"r9","error":"no result to query: analyze first or pass a \"key\""})pin"},
      // One analyzed program.
      {R"({"id":10,"method":"analyze","source":")" + Esc + "\"}",
       R"pin({"id":10,"ok":true,"degraded":false,"cached":false,"elapsed_ms":0,"cid":"r10","key":"@KEY@","analyzed":true,"locations":6,"ig_nodes":1,"main_out_pairs":3,"alias_pairs":4,"warnings":[],"degradations":[]})pin"},
      {R"({"id":11,"method":"points_to","name":"p"})",
       R"pin({"id":11,"ok":true,"degraded":false,"cached":true,"elapsed_ms":0,"cid":"r11","targets":[{"target":"x","definite":true}]})pin"},
      {R"({"id":12,"method":"points_to","name":"p","strategy":"exhaustive"})",
       R"pin({"id":12,"ok":true,"degraded":false,"cached":true,"elapsed_ms":0,"cid":"r12","strategy":"exhaustive","targets":[{"target":"x","definite":true}]})pin"},
      {R"({"id":13,"method":"points_to","name":"p","strategy":"demand"})",
       R"pin({"id":13,"ok":true,"degraded":false,"cached":false,"elapsed_ms":0,"cid":"r13","strategy":"demand","visited_stmts":4,"skipped_stmts":3,"targets":[{"target":"x","definite":true}]})pin"},
      {R"({"id":14,"method":"alias","a":"*p","b":"*q"})",
       R"pin({"id":14,"ok":true,"degraded":false,"cached":true,"elapsed_ms":0,"cid":"r14","aliased":true})pin"},
      {R"({"id":15,"method":"alias","a":"*p","b":"*q","strategy":"exhaustive"})",
       R"pin({"id":15,"ok":true,"degraded":false,"cached":true,"elapsed_ms":0,"cid":"r15","strategy":"exhaustive","aliased":true})pin"},
      {R"({"id":16,"method":"alias","a":"*p","b":"*q","strategy":"demand"})",
       R"pin({"id":16,"ok":true,"degraded":false,"cached":false,"elapsed_ms":0,"cid":"r16","strategy":"demand","visited_stmts":5,"skipped_stmts":2,"aliased":true})pin"},
      {R"({"id":17,"method":"alias","a":"*p","b":"*g","strategy":"demand"})",
       R"pin({"id":17,"ok":true,"degraded":false,"cached":false,"elapsed_ms":0,"cid":"r17","strategy":"demand","visited_stmts":5,"skipped_stmts":2,"aliased":false})pin"},
      // Unknown names.
      {R"({"id":18,"method":"points_to","name":"nosuch"})",
       R"pin({"id":18,"ok":false,"degraded":false,"cached":true,"elapsed_ms":0,"cid":"r18","error":"unknown location 'nosuch'"})pin"},
      {R"({"id":19,"method":"points_to","name":"nosuch","strategy":"exhaustive"})",
       R"pin({"id":19,"ok":false,"degraded":false,"cached":true,"elapsed_ms":0,"cid":"r19","error":"unknown location 'nosuch'","strategy":"exhaustive"})pin"},
      {R"({"id":20,"method":"points_to","name":"nosuch","strategy":"demand"})",
       R"pin({"id":20,"ok":false,"degraded":false,"cached":false,"elapsed_ms":0,"cid":"r20","error":"unknown location 'nosuch'","fallback_reason":"unresolved-name"})pin"},
      {R"({"id":21,"method":"alias","a":"*nosuch","b":"*p","strategy":"demand"})",
       R"pin({"id":21,"ok":true,"degraded":false,"cached":false,"elapsed_ms":0,"cid":"r21","strategy":"exhaustive","fallback_reason":"unresolved-name","aliased":false})pin"},
      // Missing members.
      {R"({"id":22,"method":"points_to"})",
       R"pin({"id":22,"ok":false,"degraded":false,"cached":true,"elapsed_ms":0,"cid":"r22","error":"points_to needs a \"name\" member"})pin"},
      {R"({"id":23,"method":"points_to","strategy":"exhaustive"})",
       R"pin({"id":23,"ok":false,"degraded":false,"cached":true,"elapsed_ms":0,"cid":"r23","error":"points_to needs a \"name\" member","strategy":"exhaustive"})pin"},
      {R"({"id":24,"method":"points_to","strategy":"demand"})",
       R"pin({"id":24,"ok":false,"degraded":false,"cached":false,"elapsed_ms":0,"cid":"r24","error":"points_to needs a \"name\" member"})pin"},
      {R"({"id":25,"method":"alias","a":"*p"})",
       R"pin({"id":25,"ok":false,"degraded":false,"cached":true,"elapsed_ms":0,"cid":"r25","error":"alias needs \"a\" and \"b\" access expressions"})pin"},
      {R"({"id":26,"method":"alias","b":"*p","strategy":"exhaustive"})",
       R"pin({"id":26,"ok":false,"degraded":false,"cached":true,"elapsed_ms":0,"cid":"r26","error":"alias needs \"a\" and \"b\" access expressions","strategy":"exhaustive"})pin"},
      {R"({"id":27,"method":"alias","a":"*p","strategy":"demand"})",
       R"pin({"id":27,"ok":false,"degraded":false,"cached":false,"elapsed_ms":0,"cid":"r27","error":"alias needs \"a\" and \"b\" access expressions"})pin"},
      {R"({"id":28,"method":"alias"})",
       R"pin({"id":28,"ok":false,"degraded":false,"cached":true,"elapsed_ms":0,"cid":"r28","error":"alias needs \"a\" and \"b\" access expressions"})pin"},
      // Statement scope.
      {R"({"id":29,"method":"points_to","name":"p","stmt":3})",
       R"pin({"id":29,"ok":true,"degraded":false,"cached":true,"elapsed_ms":0,"cid":"r29","targets":[{"target":"x","definite":true}]})pin"},
      {R"({"id":30,"method":"points_to","name":"p","stmt":3,"strategy":"exhaustive"})",
       R"pin({"id":30,"ok":true,"degraded":false,"cached":true,"elapsed_ms":0,"cid":"r30","strategy":"exhaustive","targets":[{"target":"x","definite":true}]})pin"},
      {R"({"id":31,"method":"points_to","name":"p","stmt":3,"strategy":"demand"})",
       R"pin({"id":31,"ok":true,"degraded":false,"cached":false,"elapsed_ms":0,"cid":"r31","strategy":"exhaustive","fallback_reason":"stmt-scope","targets":[{"target":"x","definite":true}]})pin"},
      // Key-addressed.
      {R"({"id":32,"method":"points_to","name":"g","key":"@KEY@"})",
       R"pin({"id":32,"ok":true,"degraded":false,"cached":true,"elapsed_ms":0,"cid":"r32","targets":[{"target":"y","definite":true}]})pin"},
      {R"({"id":33,"method":"alias","a":"*p","b":"*q","key":"@KEY@","strategy":"exhaustive"})",
       R"pin({"id":33,"ok":true,"degraded":false,"cached":true,"elapsed_ms":0,"cid":"r33","strategy":"exhaustive","aliased":true})pin"},
      {R"({"id":34,"method":"points_to","name":"g","key":"00000000000000000000000000000000"})",
       R"pin({"id":34,"ok":false,"degraded":false,"cached":false,"elapsed_ms":0,"cid":"r34","error":"no cached result for key 00000000000000000000000000000000"})pin"},
      {R"({"id":35,"method":"points_to","name":"g","key":"@KEY@","strategy":"demand"})",
       R"pin({"id":35,"ok":true,"degraded":false,"cached":false,"elapsed_ms":0,"cid":"r35","strategy":"demand","visited_stmts":4,"skipped_stmts":3,"targets":[{"target":"y","definite":true}]})pin"},
      // Unknown strategy after an analyze.
      {R"({"id":36,"method":"points_to","name":"p","strategy":"psychic"})",
       R"pin({"id":36,"ok":false,"degraded":false,"cached":false,"elapsed_ms":0,"cid":"r36","error":"unknown strategy 'psychic' (expected \"demand\" or \"exhaustive\")"})pin"},
      // Demand on another source, then on the resident one again.
      {R"({"id":37,"method":"points_to","name":"r","strategy":"demand","source":")" +
           Other + "\"}",
       R"pin({"id":37,"ok":true,"degraded":false,"cached":false,"elapsed_ms":0,"cid":"r37","strategy":"demand","visited_stmts":4,"skipped_stmts":0,"targets":[{"target":"a","definite":true}]})pin"},
      {R"({"id":38,"method":"alias","a":"*r","b":"a","strategy":"demand","source":")" +
           Other + "\"}",
       R"pin({"id":38,"ok":true,"degraded":false,"cached":false,"elapsed_ms":0,"cid":"r38","strategy":"demand","visited_stmts":4,"skipped_stmts":0,"aliased":true})pin"},
      {R"({"id":39,"method":"points_to","name":"g","strategy":"demand"})",
       R"pin({"id":39,"ok":true,"degraded":false,"cached":false,"elapsed_ms":0,"cid":"r39","strategy":"demand","visited_stmts":4,"skipped_stmts":3,"targets":[{"target":"y","definite":true}]})pin"},
      // A function-pointer program: demand falls back to exhaustive.
      {R"({"id":40,"method":"analyze","source":")" + FnPtr + "\"}",
       R"pin({"id":40,"ok":true,"degraded":false,"cached":false,"elapsed_ms":0,"cid":"r40","key":"@KEY@","analyzed":true,"locations":3,"ig_nodes":2,"main_out_pairs":1,"alias_pairs":1,"warnings":[],"degradations":[]})pin"},
      {R"({"id":41,"method":"points_to","name":"fp","strategy":"demand"})",
       R"pin({"id":41,"ok":true,"degraded":false,"cached":false,"elapsed_ms":0,"cid":"r41","strategy":"exhaustive","fallback_reason":"fnptr","targets":[{"target":"id","definite":true}]})pin"},
      {R"({"id":42,"method":"points_to","name":"fp"})",
       R"pin({"id":42,"ok":true,"degraded":false,"cached":true,"elapsed_ms":0,"cid":"r42","targets":[{"target":"id","definite":true}]})pin"},
      {R"({"id":43,"method":"alias","a":"*fp","b":"id","strategy":"demand"})",
       R"pin({"id":43,"ok":true,"degraded":false,"cached":false,"elapsed_ms":0,"cid":"r43","strategy":"exhaustive","fallback_reason":"fnptr","aliased":true})pin"},
      {R"({"id":44,"method":"points_to","name":"nosuch","strategy":"demand"})",
       R"pin({"id":44,"ok":false,"degraded":false,"cached":false,"elapsed_ms":0,"cid":"r44","error":"unknown location 'nosuch'","fallback_reason":"fnptr"})pin"},
      // A degraded result on the snapshot path and the demand path.
      {R"({"id":45,"method":"analyze","source":")" + FnPtr +
           R"(","limits":{"max_ig_nodes":1}})",
       R"pin({"id":45,"ok":true,"degraded":true,"cached":false,"elapsed_ms":0,"cid":"r45","key":"@KEY@","analyzed":true,"locations":3,"ig_nodes":2,"main_out_pairs":1,"alias_pairs":1,"warnings":["analysis degraded [ig_nodes] invocation-graph node cap reached: new contexts share one canonical invocation node per function; remaining calls use context-insensitive merged summaries"],"degradations":[{"kind":"ig_nodes","context":"invocation-graph node cap reached","action":"new contexts share one canonical invocation node per function; remaining calls use context-insensitive merged summaries"}]})pin"},
      {R"({"id":46,"method":"points_to","name":"fp"})",
       R"pin({"id":46,"ok":true,"degraded":true,"cached":true,"elapsed_ms":0,"cid":"r46","targets":[{"target":"id","definite":true}]})pin"},
      {R"({"id":47,"method":"points_to","name":"fp","strategy":"demand"})",
       R"pin({"id":47,"ok":true,"degraded":false,"cached":false,"elapsed_ms":0,"cid":"r47","strategy":"exhaustive","fallback_reason":"fnptr","targets":[{"target":"id","definite":true}]})pin"},
      // After invalidate.
      {R"({"id":48,"method":"invalidate"})",
       R"pin({"id":48,"ok":true,"degraded":false,"cached":false,"elapsed_ms":0,"cid":"r48","removed_blobs":3})pin"},
      {R"({"id":49,"method":"points_to","name":"fp"})",
       R"pin({"id":49,"ok":false,"degraded":false,"cached":false,"elapsed_ms":0,"cid":"r49","error":"no result to query: analyze first or pass a \"key\""})pin"},
      {R"({"id":50,"method":"alias","a":"*p","b":"*q","strategy":"demand"})",
       R"pin({"id":50,"ok":false,"degraded":false,"cached":false,"elapsed_ms":0,"cid":"r50","error":"demand strategy needs a \"source\" or \"corpus\" member, or a prior analyze"})pin"},
      {R"({"id":51,"method":"points_to","name":"fp","strategy":"exhaustive"})",
       R"pin({"id":51,"ok":false,"degraded":false,"cached":false,"elapsed_ms":0,"cid":"r51","error":"no result to query: analyze first or pass a \"key\""})pin"},
  };
  ServerFixture F;
  std::string Key;
  for (const auto &[Line, Want] : Table) {
    std::string Req = Line;
    for (size_t Pos; (Pos = Req.find("@KEY@")) != std::string::npos;)
      Req.replace(Pos, 5, Key);
    bool Shut = false;
    std::string Got = F.S.handleLine(Req, Shut, F.Log);
    JsonValue R = parseResponse(Got);
    if (!R.getString("key", "").empty())
      Key = R.getString("key", "");
    EXPECT_EQ(maskResponse(Got, Key), Want) << Line;
  }
}

TEST(ServerTest, DegradationWarningsAreDeduplicated) {
  ServerFixture F;
  // Two analyses degrading the same way: the log gets one warning line
  // per (kind, context), not one per request.
  F.request("{\"id\":1,\"method\":\"analyze\",\"corpus\":\"hash\","
            "\"limits\":{\"max_ig_nodes\":2}}");
  std::string After1 = F.Log.str();
  EXPECT_NE(After1.find("degraded"), std::string::npos);

  F.request("{\"id\":2,\"method\":\"analyze\",\"corpus\":\"hash\","
            "\"limits\":{\"max_ig_nodes\":2}}"); // cached: no new analysis
  F.request("{\"id\":3,\"method\":\"invalidate\"}");
  F.request("{\"id\":4,\"method\":\"analyze\",\"corpus\":\"hash\","
            "\"limits\":{\"max_ig_nodes\":2}}"); // re-analyzed, same degradations
  EXPECT_EQ(F.Log.str(), After1)
      << "repeated identical degradations must not re-log";
}

} // namespace
