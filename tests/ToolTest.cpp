//===- ToolTest.cpp - pta-tool CLI smoke tests ---------------------------------===//
//
// End-to-end checks of the command-line driver: real process, real
// files, real output.
//
//===----------------------------------------------------------------------===//

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>

namespace {

struct ToolRun {
  int ExitCode = -1;
  std::string Output;
};

/// Runs a shell command line, capturing its stdout.
ToolRun runShell(const std::string &Cmd) {
  ToolRun R;
  FILE *Pipe = popen(Cmd.c_str(), "r");
  if (!Pipe)
    return R;
  char Buf[4096];
  while (size_t N = fread(Buf, 1, sizeof(Buf), Pipe))
    R.Output.append(Buf, N);
  int Status = pclose(Pipe);
  R.ExitCode = WEXITSTATUS(Status);
  return R;
}

ToolRun runTool(const std::string &Args) {
  return runShell(std::string(PTA_TOOL_PATH) + " " + Args + " 2>&1");
}

std::string writeTemp(const std::string &Contents) {
  std::string Path =
      ::testing::TempDir() + "/pta_tool_test_" +
      std::to_string(reinterpret_cast<uintptr_t>(&Contents)) + ".c";
  std::ofstream Out(Path);
  Out << Contents;
  return Path;
}

TEST(ToolTest, NoArgsShowsUsage) {
  ToolRun R = runTool("");
  EXPECT_EQ(R.ExitCode, 1); // exit 2 is reserved for --strict degradation
  EXPECT_NE(R.Output.find("usage:"), std::string::npos);
}

TEST(ToolTest, ListCorpus) {
  ToolRun R = runTool("--list-corpus");
  EXPECT_EQ(R.ExitCode, 0);
  EXPECT_NE(R.Output.find("genetic"), std::string::npos);
  EXPECT_NE(R.Output.find("lws"), std::string::npos);
}

TEST(ToolTest, StatsOnCorpusProgram) {
  ToolRun R = runTool("--stats --corpus hash");
  EXPECT_EQ(R.ExitCode, 0);
  EXPECT_NE(R.Output.find("indirect refs:"), std::string::npos);
  EXPECT_NE(R.Output.find("IG: nodes="), std::string::npos);
}

TEST(ToolTest, DumpSimpleOnFile) {
  std::string Path = writeTemp(
      "int main(void) { int x; int *p; p = &x; return *p; }");
  ToolRun R = runTool("--dump-simple --dump-pointsto " + Path);
  EXPECT_EQ(R.ExitCode, 0);
  EXPECT_NE(R.Output.find("p = &x;"), std::string::npos) << R.Output;
  EXPECT_NE(R.Output.find("(p,x,D)"), std::string::npos) << R.Output;
  std::remove(Path.c_str());
}

TEST(ToolTest, DumpInvocationGraph) {
  std::string Path = writeTemp(R"(
    void f(int n) { if (n) f(n - 1); }
    int main(void) { f(2); return 0; })");
  ToolRun R = runTool("--dump-ig " + Path);
  EXPECT_EQ(R.ExitCode, 0);
  EXPECT_NE(R.Output.find("f [R]"), std::string::npos) << R.Output;
  EXPECT_NE(R.Output.find("f [A]"), std::string::npos) << R.Output;
  std::remove(Path.c_str());
}

TEST(ToolTest, ParseErrorsExitNonzero) {
  std::string Path = writeTemp("int main(void) { return oops; }");
  ToolRun R = runTool(Path);
  EXPECT_EQ(R.ExitCode, 1);
  EXPECT_NE(R.Output.find("error:"), std::string::npos);
  std::remove(Path.c_str());
}

TEST(ToolTest, MissingFileExitsNonzero) {
  ToolRun R = runTool("/nonexistent/file.c");
  EXPECT_EQ(R.ExitCode, 1);
}

TEST(ToolTest, UnknownCorpusName) {
  ToolRun R = runTool("--corpus doesnotexist");
  EXPECT_EQ(R.ExitCode, 1);
}

TEST(ToolTest, FnPtrModeFlags) {
  ToolRun Precise = runTool("--stats --fnptr=precise --corpus toplev");
  ToolRun All = runTool("--stats --fnptr=all --corpus toplev");
  EXPECT_EQ(Precise.ExitCode, 0);
  EXPECT_EQ(All.ExitCode, 0);
  // The all-functions instantiation yields a larger invocation graph.
  auto Nodes = [](const std::string &Out) {
    size_t Pos = Out.find("IG: nodes=");
    return Pos == std::string::npos
               ? -1
               : std::atoi(Out.c_str() + Pos + 10);
  };
  EXPECT_GT(Nodes(All.Output), Nodes(Precise.Output));
}

TEST(ToolTest, ContextInsensitiveFlag) {
  ToolRun R = runTool("--stats --context-insensitive --corpus dry");
  EXPECT_EQ(R.ExitCode, 0);
}

TEST(ToolTest, ProfileFlagPrintsPhaseTable) {
  ToolRun R = runTool("--profile --corpus hash");
  EXPECT_EQ(R.ExitCode, 0);
  EXPECT_NE(R.Output.find("phase"), std::string::npos) << R.Output;
  for (const char *Phase : {"lex", "parse", "simplify", "pointsto", "total"})
    EXPECT_NE(R.Output.find(Phase), std::string::npos) << Phase;
}

TEST(ToolTest, StatsJsonExport) {
  std::string Path = ::testing::TempDir() + "/pta_tool_stats.json";
  ToolRun R = runTool("--json " + Path + " --corpus hash");
  EXPECT_EQ(R.ExitCode, 0);
  std::ifstream In(Path);
  ASSERT_TRUE(In.good());
  std::string J((std::istreambuf_iterator<char>(In)),
                std::istreambuf_iterator<char>());
  EXPECT_NE(J.find("\"counters\""), std::string::npos);
  EXPECT_NE(J.find("\"pta.memo_hits\""), std::string::npos);
  EXPECT_NE(J.find("\"mu.map_calls\""), std::string::npos);
  EXPECT_NE(J.find("\"phases_us\""), std::string::npos);
  std::remove(Path.c_str());
}

TEST(ToolTest, TraceJsonExport) {
  std::string Path = ::testing::TempDir() + "/pta_tool_trace.json";
  ToolRun R = runTool("--trace-json " + Path + " --corpus hash");
  EXPECT_EQ(R.ExitCode, 0);
  std::ifstream In(Path);
  ASSERT_TRUE(In.good());
  std::string J((std::istreambuf_iterator<char>(In)),
                std::istreambuf_iterator<char>());
  EXPECT_NE(J.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(J.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(J.find("\"name\":\"pointsto\""), std::string::npos);
  std::remove(Path.c_str());
}

TEST(ToolTest, AllObservabilityFlagsTogether) {
  // The acceptance-criteria invocation: profile table + stats JSON +
  // trace JSON from one run, against a real source file.
  std::string Src = writeTemp(R"(
    int g;
    void set(int **out, int *value) { *out = value; }
    int main(void) {
      int *p;
      set(&p, &g);
      return *p;
    })");
  std::string Stats = ::testing::TempDir() + "/pta_tool_all_stats.json";
  std::string Trace = ::testing::TempDir() + "/pta_tool_all_trace.json";
  ToolRun R = runTool("--profile --json " + Stats + " --trace-json " +
                      Trace + " " + Src);
  EXPECT_EQ(R.ExitCode, 0);
  EXPECT_NE(R.Output.find("phase"), std::string::npos);
  EXPECT_TRUE(std::ifstream(Stats).good());
  EXPECT_TRUE(std::ifstream(Trace).good());
  std::remove(Src.c_str());
  std::remove(Stats.c_str());
  std::remove(Trace.c_str());
}

TEST(ToolTest, JsonFlagWithoutPathIsUsageError) {
  ToolRun R = runTool("--json");
  EXPECT_EQ(R.ExitCode, 1);
  EXPECT_NE(R.Output.find("usage:"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Resource governance (docs/ROBUSTNESS.md)
//===----------------------------------------------------------------------===//

TEST(ToolTest, GenStressEmitsValidProgram) {
  ToolRun Gen = runTool("--gen-stress=3");
  EXPECT_EQ(Gen.ExitCode, 0);
  EXPECT_NE(Gen.Output.find("int main(void)"), std::string::npos);
  // The emitted program must analyze cleanly when ungoverned.
  std::string Path = writeTemp(Gen.Output);
  ToolRun R = runTool(Path);
  EXPECT_EQ(R.ExitCode, 0) << R.Output;
  std::remove(Path.c_str());
}

TEST(ToolTest, TimeoutDegradesAndExitsZero) {
  // Pathological program under a tight deadline: terminates, reports
  // the degradation, still exits 0 without --strict.
  ToolRun Gen = runTool("--gen-stress=8");
  ASSERT_EQ(Gen.ExitCode, 0);
  std::string Path = writeTemp(Gen.Output);
  ToolRun R = runTool("--timeout-ms=50 " + Path);
  EXPECT_EQ(R.ExitCode, 0) << R.Output;
  EXPECT_NE(R.Output.find("degraded: [deadline]"), std::string::npos)
      << R.Output;
  EXPECT_NE(R.Output.find("analysis degraded"), std::string::npos);
  std::remove(Path.c_str());
}

TEST(ToolTest, StrictModeExitsTwoOnDegradation) {
  ToolRun Gen = runTool("--gen-stress=8");
  ASSERT_EQ(Gen.ExitCode, 0);
  std::string Path = writeTemp(Gen.Output);
  ToolRun R = runTool("--strict --timeout-ms=50 " + Path);
  EXPECT_EQ(R.ExitCode, 2) << R.Output;
  std::remove(Path.c_str());
}

TEST(ToolTest, StrictModeExitsZeroWhenClean) {
  std::string Path = writeTemp(
      "int main(void) { int x; int *p; p = &x; return *p; }");
  ToolRun R = runTool("--strict --timeout-ms=10000 " + Path);
  EXPECT_EQ(R.ExitCode, 0) << R.Output;
  std::remove(Path.c_str());
}

TEST(ToolTest, StrictQueryExitsTwoOnADegradedAnswerOnBothStrategies) {
  // Under the visit budget the demand strategy falls back to the
  // exhaustive answer, degraded like the exhaustive strategy's own:
  // --strict exits 2 on both, and both print the same answer.
  ToolRun Gen = runTool("--gen-stress=6");
  ASSERT_EQ(Gen.ExitCode, 0);
  std::string Path = writeTemp(Gen.Output);
  const std::string Query = "--max-stmt-visits=50 --points-to=gp ";
  ToolRun Demand = runTool("--strict " + Query + "--strategy=demand " + Path);
  ToolRun Exh = runTool("--strict " + Query + "--strategy=exhaustive " + Path);
  EXPECT_EQ(Demand.ExitCode, 2) << Demand.Output;
  EXPECT_EQ(Exh.ExitCode, 2) << Exh.Output;
  size_t DemandAnswer = Demand.Output.find("points_to(gp):");
  size_t ExhAnswer = Exh.Output.find("points_to(gp):");
  ASSERT_NE(DemandAnswer, std::string::npos) << Demand.Output;
  ASSERT_NE(ExhAnswer, std::string::npos) << Exh.Output;
  EXPECT_EQ(Demand.Output.substr(DemandAnswer), Exh.Output.substr(ExhAnswer));
  EXPECT_EQ(runTool(Query + "--strategy=demand " + Path).ExitCode, 0);
  std::remove(Path.c_str());
}

TEST(ToolTest, QueryOnAProgramWithoutMainAnswersOnBothStrategies) {
  // Without main both strategies answer from the unanalyzed snapshot:
  // the demand strategy through its no-main fallback, the exhaustive one
  // directly. Neither is an error.
  std::string Path = writeTemp("int x; int *p; void f(void) { p = &x; }\n");
  ToolRun Demand = runTool("--alias='*p:x' --strategy=demand " + Path);
  ToolRun Exh = runTool("--alias='*p:x' --strategy=exhaustive " + Path);
  EXPECT_EQ(Demand.ExitCode, 0) << Demand.Output;
  EXPECT_EQ(Exh.ExitCode, 0) << Exh.Output;
  EXPECT_NE(Demand.Output.find("fallback_reason: no-main"), std::string::npos)
      << Demand.Output;
  EXPECT_NE(Exh.Output.find("strategy: exhaustive"), std::string::npos)
      << Exh.Output;
  size_t DemandAnswer = Demand.Output.find("alias(*p, x): no");
  size_t ExhAnswer = Exh.Output.find("alias(*p, x): no");
  ASSERT_NE(DemandAnswer, std::string::npos) << Demand.Output;
  ASSERT_NE(ExhAnswer, std::string::npos) << Exh.Output;
  EXPECT_EQ(Demand.Output.substr(DemandAnswer), Exh.Output.substr(ExhAnswer));
  std::remove(Path.c_str());
}

TEST(ToolTest, IGNodeCapDegrades) {
  ToolRun Gen = runTool("--gen-stress=6");
  ASSERT_EQ(Gen.ExitCode, 0);
  std::string Path = writeTemp(Gen.Output);
  ToolRun R = runTool("--max-ig-nodes=50 " + Path);
  EXPECT_EQ(R.ExitCode, 0) << R.Output;
  EXPECT_NE(R.Output.find("degraded: [ig_nodes]"), std::string::npos)
      << R.Output;
  std::remove(Path.c_str());
}

TEST(ToolTest, BadLimitNumberIsError) {
  ToolRun R = runTool("--timeout-ms=abc --corpus hash");
  EXPECT_EQ(R.ExitCode, 1);
  EXPECT_NE(R.Output.find("invalid number"), std::string::npos);
}

TEST(ToolTest, BatchIsolatesFailures) {
  std::string Dir = ::testing::TempDir() + "/pta_tool_batch";
  std::filesystem::create_directories(Dir);
  {
    std::ofstream(Dir + "/good.c")
        << "int main(void) { int x; int *p; p = &x; return 0; }";
    std::ofstream(Dir + "/bad.c") << "int main(void { broken";
  }
  ToolRun R = runTool("--batch " + Dir);
  EXPECT_EQ(R.ExitCode, 1) << R.Output; // one file errored
  EXPECT_NE(R.Output.find("good.c: ok"), std::string::npos) << R.Output;
  EXPECT_NE(R.Output.find("bad.c: error"), std::string::npos) << R.Output;
  std::filesystem::remove_all(Dir);
}

TEST(ToolTest, BatchUsesSummaryCache) {
  std::string Dir = ::testing::TempDir() + "/pta_tool_batch_cache";
  std::string CacheDir = ::testing::TempDir() + "/pta_tool_batch_cache_dir";
  std::filesystem::create_directories(Dir);
  std::filesystem::remove_all(CacheDir);
  {
    std::ofstream(Dir + "/one.c")
        << "int main(void) { int x; int *p; p = &x; return 0; }";
    std::ofstream(Dir + "/two.c")
        << "int g; int main(void) { g = 1; return g; }";
  }
  // Cold run: everything analyzes, nothing hits.
  ToolRun R1 = runTool("--batch " + Dir + " --cache-dir=" + CacheDir);
  EXPECT_EQ(R1.ExitCode, 0) << R1.Output;
  EXPECT_NE(R1.Output.find("one.c: ok"), std::string::npos) << R1.Output;
  EXPECT_NE(R1.Output.find("batch: 2 file(s), 0 cache hit(s)"),
            std::string::npos)
      << R1.Output;

  // Second run over the same directory: both files served from cache.
  ToolRun R2 = runTool("--batch " + Dir + " --cache-dir=" + CacheDir);
  EXPECT_EQ(R2.ExitCode, 0) << R2.Output;
  EXPECT_NE(R2.Output.find("one.c: ok (cached)"), std::string::npos)
      << R2.Output;
  EXPECT_NE(R2.Output.find("batch: 2 file(s), 2 cache hit(s)"),
            std::string::npos)
      << R2.Output;

  // Without --cache-dir the batch never consults a cache.
  ToolRun R3 = runTool("--batch " + Dir);
  EXPECT_NE(R3.Output.find("batch: 2 file(s), 0 cache hit(s)"),
            std::string::npos)
      << R3.Output;
  std::filesystem::remove_all(Dir);
  std::filesystem::remove_all(CacheDir);
}

TEST(ToolTest, IncrementalBaselineChainsRuns) {
  std::string Src = writeTemp("void leaf(int *p) { *p = 1; }\n"
                              "void other(int *q) { *q = 2; }\n"
                              "int main(void) { int x; leaf(&x); "
                              "other(&x); return x; }");
  std::string Baseline = ::testing::TempDir() + "/pta_tool_incr.snapshot";
  std::remove(Baseline.c_str());

  ToolRun R1 = runTool("--incremental-baseline=" + Baseline + " " + Src);
  EXPECT_EQ(R1.ExitCode, 0) << R1.Output;
  EXPECT_NE(R1.Output.find("incremental: baseline created"),
            std::string::npos)
      << R1.Output;

  // Edit one constant: the next run re-analyzes only what changed.
  {
    std::ofstream Out(Src);
    Out << "void leaf(int *p) { *p = 3; }\n"
           "void other(int *q) { *q = 2; }\n"
           "int main(void) { int x; leaf(&x); other(&x); return x; }";
  }
  ToolRun R2 = runTool("--incremental-baseline=" + Baseline + " " + Src);
  EXPECT_EQ(R2.ExitCode, 0) << R2.Output;
  EXPECT_NE(R2.Output.find("incremental: dirty_functions=2"),
            std::string::npos)
      << R2.Output;
  EXPECT_NE(R2.Output.find("memo_reuse=1"), std::string::npos) << R2.Output;

  // The flag refuses to combine with serve mode.
  ToolRun R3 = runTool("--incremental-baseline=" + Baseline +
                       " --serve </dev/null");
  EXPECT_EQ(R3.ExitCode, 1);
  EXPECT_NE(R3.Output.find("does not apply"), std::string::npos) << R3.Output;
  std::remove(Src.c_str());
  std::remove(Baseline.c_str());
}

TEST(ToolTest, IncrementalBaselineOnMainlessFileSucceedsEveryRun) {
  // A program without main() is a result (analyzed: false), with or
  // without a baseline.
  std::string Src = writeTemp("int g; int f(void) { return g; }");
  std::string Baseline = ::testing::TempDir() + "/pta_tool_nomain.snapshot";
  std::remove(Baseline.c_str());
  ToolRun R1 = runTool("--incremental-baseline=" + Baseline + " " + Src);
  EXPECT_EQ(R1.ExitCode, 0) << R1.Output;
  EXPECT_NE(R1.Output.find("incremental: baseline created"),
            std::string::npos)
      << R1.Output;
  ToolRun R2 = runTool("--incremental-baseline=" + Baseline + " " + Src);
  EXPECT_EQ(R2.ExitCode, 0) << R2.Output;
  EXPECT_NE(R2.Output.find("incremental: full re-analysis"),
            std::string::npos)
      << R2.Output;
  std::remove(Src.c_str());
  std::remove(Baseline.c_str());
}

TEST(ToolTest, IncrementalBaselineCreatingRunRecordsTelemetry) {
  std::string Src = writeTemp("int g; int *p;\n"
                              "int main(void) { p = &g; return *p; }");
  std::string Baseline = ::testing::TempDir() + "/pta_tool_telem.snapshot";
  std::string Json = ::testing::TempDir() + "/pta_tool_incr_stats.json";
  std::remove(Baseline.c_str());
  ToolRun R = runTool("--incremental-baseline=" + Baseline + " --json " +
                      Json + " " + Src);
  EXPECT_EQ(R.ExitCode, 0) << R.Output;
  EXPECT_NE(R.Output.find("incremental: baseline created"), std::string::npos)
      << R.Output;
  std::ifstream In(Json);
  ASSERT_TRUE(In.good());
  std::string J((std::istreambuf_iterator<char>(In)),
                std::istreambuf_iterator<char>());
  const std::string Name = "\"pta.stmt_visits\":";
  size_t Pos = J.find(Name);
  ASSERT_NE(Pos, std::string::npos) << J;
  EXPECT_GT(std::strtoull(J.c_str() + Pos + Name.size(), nullptr, 10), 0u)
      << J;
  std::remove(Src.c_str());
  std::remove(Baseline.c_str());
  std::remove(Json.c_str());
}

TEST(ToolTest, BatchIncrementalBaselinesChainRuns) {
  std::string Dir = ::testing::TempDir() + "/pta_tool_batch_incr";
  std::string BaseDir = ::testing::TempDir() + "/pta_tool_batch_incr_base";
  std::filesystem::remove_all(Dir);
  std::filesystem::remove_all(BaseDir);
  std::filesystem::create_directories(Dir);
  {
    std::ofstream(Dir + "/one.c")
        << "int main(void) { int x; int *p; p = &x; return 0; }";
    std::ofstream(Dir + "/two.c")
        << "int g; int main(void) { g = 1; return g; }";
  }

  // Cold run: every file creates its baseline.
  ToolRun R1 = runTool("--batch " + Dir + " --incremental-baseline=" +
                       BaseDir);
  EXPECT_EQ(R1.ExitCode, 0) << R1.Output;
  EXPECT_NE(R1.Output.find("one.c: incremental: baseline created"),
            std::string::npos)
      << R1.Output;
  EXPECT_NE(R1.Output.find("two.c: incremental: baseline created"),
            std::string::npos)
      << R1.Output;
  EXPECT_TRUE(
      std::filesystem::exists(BaseDir + "/one.snapshot") &&
      std::filesystem::exists(BaseDir + "/two.snapshot"))
      << R1.Output;

  // Warm run over unchanged sources: every file goes through the
  // incremental engine (not a fallback, not a baseline re-creation).
  ToolRun R2 = runTool("--batch " + Dir + " --incremental-baseline=" +
                       BaseDir);
  EXPECT_EQ(R2.ExitCode, 0) << R2.Output;
  EXPECT_NE(R2.Output.find("one.c: incremental: dirty_functions="),
            std::string::npos)
      << R2.Output;
  EXPECT_NE(R2.Output.find("two.c: incremental: dirty_functions="),
            std::string::npos)
      << R2.Output;
  EXPECT_EQ(R2.Output.find("full re-analysis"), std::string::npos)
      << R2.Output;
  std::filesystem::remove_all(Dir);
  std::filesystem::remove_all(BaseDir);
}

TEST(ToolTest, BatchIncrementalRejectsOptionsMismatchedBaseline) {
  // A baseline recorded under one options fingerprint must not seed a
  // run under another: the engine falls back to a full analysis and
  // says why.
  std::string Dir = ::testing::TempDir() + "/pta_tool_batch_incr_opts";
  std::string BaseDir =
      ::testing::TempDir() + "/pta_tool_batch_incr_opts_base";
  std::filesystem::remove_all(Dir);
  std::filesystem::remove_all(BaseDir);
  std::filesystem::create_directories(Dir);
  std::ofstream(Dir + "/one.c")
      << "int main(void) { int x; int *p; p = &x; return 0; }";

  ToolRun R1 = runTool("--batch " + Dir + " --incremental-baseline=" +
                       BaseDir);
  EXPECT_EQ(R1.ExitCode, 0) << R1.Output;

  ToolRun R2 = runTool("--batch " + Dir + " --incremental-baseline=" +
                       BaseDir + " --context-insensitive");
  EXPECT_EQ(R2.ExitCode, 0) << R2.Output;
  EXPECT_NE(
      R2.Output.find("one.c: incremental: full re-analysis (options-mismatch)"),
      std::string::npos)
      << R2.Output;

  // The fallback rewrote the baseline under the new fingerprint: the
  // repeat run no longer reports a mismatch (context-insensitive
  // results are never seeded, so the next gate reports that instead).
  ToolRun R3 = runTool("--batch " + Dir + " --incremental-baseline=" +
                       BaseDir + " --context-insensitive");
  EXPECT_EQ(R3.ExitCode, 0) << R3.Output;
  EXPECT_NE(R3.Output.find(
                "one.c: incremental: full re-analysis (options-unsupported)"),
            std::string::npos)
      << R3.Output;
  std::filesystem::remove_all(Dir);
  std::filesystem::remove_all(BaseDir);
}

TEST(ToolTest, BatchStrictReportsDegraded) {
  std::string Dir = ::testing::TempDir() + "/pta_tool_batch_strict";
  std::filesystem::create_directories(Dir);
  ToolRun Gen = runTool("--gen-stress=8");
  ASSERT_EQ(Gen.ExitCode, 0);
  {
    std::ofstream(Dir + "/stress.c") << Gen.Output;
    std::ofstream(Dir + "/tiny.c")
        << "int main(void) { int x; int *p; p = &x; return 0; }";
  }
  ToolRun R = runTool("--batch " + Dir + " --strict --timeout-ms=50");
  EXPECT_EQ(R.ExitCode, 2) << R.Output;
  EXPECT_NE(R.Output.find("stress.c: degraded"), std::string::npos)
      << R.Output;
  EXPECT_NE(R.Output.find("tiny.c: ok"), std::string::npos) << R.Output;
  std::filesystem::remove_all(Dir);
}

TEST(ToolTest, BatchOutputSameAtEveryWidth) {
  // One child at a time (width 1) and four at once (width 4) print the
  // same merged stdout+stderr: every file's diagnostics land after the
  // earlier files' status lines, cold and warm alike.
  std::string Dir = ::testing::TempDir() + "/pta_tool_batch_width";
  std::string CacheRoot = ::testing::TempDir() + "/pta_tool_batch_width_cache";
  std::filesystem::remove_all(Dir);
  std::filesystem::remove_all(CacheRoot);
  std::filesystem::create_directories(Dir);
  ToolRun Gen = runTool("--gen-stress=4");
  ASSERT_EQ(Gen.ExitCode, 0);
  {
    std::ofstream(Dir + "/clean.c")
        << "int main(void) { int x; int *p; p = &x; return 0; }";
    std::ofstream(Dir + "/fnptr.c")
        << "int g;\n"
           "void set(int **out, int *value) { *out = value; }\n"
           "int apply(void (*fn)(int **, int *), int **o, int *v) "
           "{ fn(o, v); return 0; }\n"
           "int main(void) { int *p; apply(set, &p, &g); return *p; }\n";
    std::ofstream(Dir + "/parse_error.c") << "int main(void) { return y; }";
    std::ofstream(Dir + "/stress.c") << Gen.Output;
  }
  const std::string Base =
      "--batch " + Dir + " --stats --max-ig-nodes=20 --strict";
  for (const char *Phase : {"cold", "warm"}) {
    ToolRun Runs[2];
    unsigned Widths[2] = {1, 4};
    for (int I = 0; I < 2; ++I)
      Runs[I] = runTool(Base + " --analysis-threads=" +
                        std::to_string(Widths[I]) + " --cache-dir=" +
                        CacheRoot + "/w" + std::to_string(Widths[I]));
    EXPECT_EQ(Runs[0].ExitCode, 1) << Phase << "\n" << Runs[0].Output;
    EXPECT_EQ(Runs[1].ExitCode, Runs[0].ExitCode) << Phase;
    EXPECT_EQ(Runs[1].Output, Runs[0].Output) << Phase;
    EXPECT_NE(Runs[0].Output.find("error: use of undeclared identifier"),
              std::string::npos)
        << Runs[0].Output;
    EXPECT_NE(Runs[0].Output.find("stress.c: degraded"), std::string::npos)
        << Runs[0].Output;
  }
  std::filesystem::remove_all(Dir);
  std::filesystem::remove_all(CacheRoot);
}

TEST(ToolTest, BatchWidthFlagRejectedWithoutBatch) {
  std::string Path =
      writeTemp("int main(void) { int x; int *p; p = &x; return 0; }");
  ToolRun R = runTool("--analysis-threads=2 " + Path);
  EXPECT_EQ(R.ExitCode, 1) << R.Output;
  EXPECT_NE(R.Output.find("--analysis-threads applies only to --batch"),
            std::string::npos)
      << R.Output;
  std::remove(Path.c_str());
}

TEST(ToolTest, BatchWidthFlagRejectedWithServe) {
  ToolRun R = runTool("--serve --analysis-threads=2 < /dev/null");
  EXPECT_EQ(R.ExitCode, 1) << R.Output;
  EXPECT_NE(R.Output.find("--analysis-threads applies only to --batch"),
            std::string::npos)
      << R.Output;
}

TEST(ToolTest, BatchIncrementalSameAtEveryWidth) {
  // The incremental batch prints the same output and writes the same
  // baseline bytes at width 1 and width 4, cold and warm.
  namespace fs = std::filesystem;
  std::string Dir = ::testing::TempDir() + "/pta_tool_batch_incr_width";
  std::string BaseRoot = ::testing::TempDir() + "/pta_tool_batch_incr_width_b";
  fs::remove_all(Dir);
  fs::remove_all(BaseRoot);
  fs::create_directories(Dir);
  {
    std::ofstream(Dir + "/one.c")
        << "int main(void) { int x; int *p; p = &x; return 0; }";
    std::ofstream(Dir + "/two.c")
        << "int g; int main(void) { g = 1; return g; }";
    std::ofstream(Dir + "/fnptr.c")
        << "int g;\n"
           "void set(int **out, int *value) { *out = value; }\n"
           "int apply(void (*fn)(int **, int *), int **o, int *v) "
           "{ fn(o, v); return 0; }\n"
           "int main(void) { int *p; apply(set, &p, &g); return *p; }\n";
  }
  auto Slurp = [](const std::string &Path) {
    std::ifstream In(Path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(In), {});
  };
  for (const char *Phase : {"cold", "warm"}) {
    ToolRun Runs[2];
    for (int I = 0; I < 2; ++I)
      Runs[I] = runTool("--batch " + Dir + " --analysis-threads=" +
                        (I ? "4" : "1") + " --incremental-baseline=" +
                        BaseRoot + "/w" + std::to_string(I));
    EXPECT_EQ(Runs[0].ExitCode, 0) << Phase << "\n" << Runs[0].Output;
    EXPECT_EQ(Runs[1].ExitCode, 0) << Phase;
    EXPECT_EQ(Runs[1].Output, Runs[0].Output) << Phase;
    EXPECT_NE(Runs[0].Output.find(std::string("two.c: incremental: ") +
                                  (Phase[0] == 'c' ? "baseline created"
                                                   : "dirty_functions=")),
              std::string::npos)
        << Runs[0].Output;
    for (const char *Stem : {"one", "two", "fnptr"}) {
      std::string B0 = Slurp(BaseRoot + "/w0/" + Stem + ".snapshot");
      EXPECT_FALSE(B0.empty()) << Phase << " " << Stem;
      EXPECT_EQ(Slurp(BaseRoot + "/w1/" + Stem + ".snapshot"), B0)
          << Phase << " " << Stem;
    }
  }
  fs::remove_all(Dir);
  fs::remove_all(BaseRoot);
}

TEST(ToolTest, BatchIsolatesCrashAtEveryWidth) {
  // A file that dies on a signal (here: the CPU-time limit) is reported
  // as CRASHED and the rest of the batch still runs, at every width.
  std::string Dir = ::testing::TempDir() + "/pta_tool_batch_crash";
  std::filesystem::remove_all(Dir);
  std::filesystem::create_directories(Dir);
  ToolRun Gen = runTool("--gen-stress=8");
  ASSERT_EQ(Gen.ExitCode, 0);
  {
    std::ofstream(Dir + "/stress.c") << Gen.Output;
    std::ofstream(Dir + "/tiny.c")
        << "int main(void) { int x; int *p; p = &x; return 0; }";
  }
  for (const char *Width : {"1", "4"}) {
    ToolRun R = runShell("sh -c 'ulimit -t 1; " + std::string(PTA_TOOL_PATH) +
                         " --batch " + Dir + " --analysis-threads=" + Width +
                         "' 2>&1");
    EXPECT_EQ(R.ExitCode, 1) << "width " << Width << "\n" << R.Output;
    EXPECT_NE(R.Output.find("stress.c: CRASHED (signal"), std::string::npos)
        << "width " << Width << "\n" << R.Output;
    EXPECT_NE(R.Output.find("tiny.c: ok"), std::string::npos)
        << "width " << Width << "\n" << R.Output;
  }
  std::filesystem::remove_all(Dir);
}

TEST(ToolTest, BatchProfilePrintsEachFilesTable) {
  // --profile inside a batch prints each analyzed file's own phase
  // table in that file's block, also when files run concurrently.
  std::string Dir = ::testing::TempDir() + "/pta_tool_batch_profile";
  std::filesystem::remove_all(Dir);
  std::filesystem::create_directories(Dir);
  {
    std::ofstream(Dir + "/a.c")
        << "int main(void) { int x; int *p; p = &x; return 0; }";
    std::ofstream(Dir + "/b.c") << "int g; int main(void) { g = 1; return g; }";
    std::ofstream(Dir + "/c.c")
        << "int *id(int *q) { return q; }\n"
           "int main(void) { int x; int *p; p = id(&x); return *p; }\n";
  }
  ToolRun R = runTool("--batch " + Dir + " --profile --analysis-threads=4");
  EXPECT_EQ(R.ExitCode, 0) << R.Output;
  unsigned Tables = 0;
  std::istringstream Lines(R.Output);
  for (std::string Line; std::getline(Lines, Line);) {
    unsigned long long TotalUs = 0;
    if (std::sscanf(Line.c_str(), "total %llu", &TotalUs) == 1) {
      EXPECT_GT(TotalUs, 0u) << R.Output;
      ++Tables;
    }
  }
  EXPECT_EQ(Tables, 3u) << R.Output;
  // Each table closes its own file's block, before that file's status.
  EXPECT_LT(R.Output.find("total "), R.Output.find("a.c: ok")) << R.Output;
  EXPECT_EQ(R.Output.find("\nphase", R.Output.find("c.c: ok")),
            std::string::npos)
      << R.Output;
  std::filesystem::remove_all(Dir);
}

TEST(ToolTest, BatchRejectsJsonExports) {
  // Every file's child would write the same path: a usage error.
  std::string Dir = ::testing::TempDir() + "/pta_tool_batch_json";
  std::string Json = ::testing::TempDir() + "/pta_tool_batch_json.json";
  std::filesystem::remove_all(Dir);
  std::filesystem::create_directories(Dir);
  std::ofstream(Dir + "/one.c")
      << "int main(void) { int x; int *p; p = &x; return 0; }";
  for (const char *Flag : {"--json", "--trace-json"}) {
    std::remove(Json.c_str());
    ToolRun R = runTool("--batch " + Dir + " " + Flag + " " + Json);
    EXPECT_EQ(R.ExitCode, 1) << Flag << "\n" << R.Output;
    EXPECT_NE(R.Output.find("do not apply to --batch"), std::string::npos)
        << R.Output;
    EXPECT_FALSE(std::filesystem::exists(Json)) << Flag;
  }
  std::filesystem::remove_all(Dir);
}

} // namespace
