//===- ToolMain.cpp - pta-tool command line driver -----------------------------===//
//
// Part of the mcpta project (PLDI'94 points-to analysis reproduction).
//
// Usage:
//   pta-tool [options] file.c
//   pta-tool [options] --corpus NAME      (embedded benchmark)
//   pta-tool [options] --batch DIR        (every *.c file, isolated)
//   pta-tool [options] --serve            (NDJSON daemon on stdin/stdout)
//   pta-tool --list-corpus
//   pta-tool --gen-stress[=DEPTH]         (print a pathological program)
//   pta-tool --version
//
// Options:
//   --dump-simple     print the SIMPLE lowering
//   --dump-ig         print the invocation graph
//   --dump-pointsto   print the points-to set at the end of main
//   --stats           print Tables 3-6 style statistics
//   --fnptr=MODE      precise | all | address-taken
//   --context-insensitive
//   --profile         print a per-phase wall-time table, hottest phase
//                     first, with a final mem.* summary line (peak RSS,
//                     set-heap peak, location-table sizes)
//   --json FILE       write flat stats JSON (counters/histograms/phases)
//   --trace-json FILE write Chrome trace_event JSON (chrome://tracing,
//                     Perfetto)
//
// Batch parallelism (docs/PARALLEL.md):
//   --analysis-threads=N  --batch only: keep up to N forked children
//                         analyzing files at once (default 1). Every
//                         file keeps its own process, and its output is
//                         replayed in input order, so the output is
//                         byte-identical at any N. Rejected without
//                         --batch. --json and --trace-json are rejected
//                         with --batch; --profile prints each file's
//                         own phase table.
//
// Resource governance (docs/ROBUSTNESS.md):
//   --timeout-ms=N        wall-clock deadline for the analysis
//   --max-stmt-visits=N   statement-visit budget
//   --max-locations=N     abstract-location cap
//   --max-ig-nodes=N      invocation-graph node cap
//   --max-rec-passes=N    recursion-generalization pass cap
//   --strict              exit 2 when the analysis degraded
//
// Serving (docs/SERVING.md):
//   --serve               long-lived NDJSON request loop over
//                         stdin/stdout (analyze/alias/points_to/
//                         read_write_sets/stats/invalidate/shutdown)
//   --cache-dir=DIR       persistent summary-cache directory (default
//                         $MCPTA_CACHE_DIR, else .mcpta-cache; "" for
//                         a memory-only cache). Also threads the cache
//                         through --batch: cached files skip analysis
//                         and the batch summary line reports hits.
//   --serve-threads=N     worker threads for the daemon (default 1 =
//                         each line answered inline, in order; N > 1
//                         enables the bounded queue + pool, responses
//                         may be out of order)
//   --serve-queue-cap=N   bounded request-queue capacity (default 128);
//                         a full queue sheds with an overloaded error
//   --serve-deadline-ms=N per-request deadline budget; queue wait
//                         counts against it and pressure tightens it
//   --serve-max-line-bytes=N
//                         NDJSON input-line bound (default 8 MiB)
//   --fault-inject=SPEC   deterministic fault injection for chaos
//                         testing (docs/ROBUSTNESS.md grammar); "on"
//                         accepts per-request "fault" members only
//
// Incremental re-analysis (docs/INCREMENTAL.md):
//   --incremental-baseline=PATH
//                         single-source mode: re-analyze against the
//                         snapshot in file PATH (when it exists)
//                         through the incremental engine, then write
//                         the new snapshot back. The first run creates
//                         the baseline with a full analysis.
//                         batch mode: PATH is a directory holding one
//                         baseline per source file (<stem>.snapshot);
//                         each file re-analyzes against and updates its
//                         own baseline. In both modes a baseline
//                         recorded under a different options
//                         fingerprint is never reused: the run falls
//                         back to a full analysis with the reason
//                         printed and recorded as an incr.fallback.*
//                         counter. A baseline in an older format version
//                         is ignored as unreadable and recreated. Not
//                         applicable to --serve.
//
// One-shot demand queries (docs/DEMAND.md):
//   --points-to=NAME      print the points-to targets of location NAME
//                         at the end of main, then exit
//   --alias=A:B           print whether access paths A and B (zero or
//                         more '*' prefixes on a variable) may alias
//   --strategy=MODE       demand (default; liveness-pruned run with
//                         exhaustive fallback) | exhaustive
//
// Exit codes: 0 = clean run (degraded runs included unless --strict),
// 1 = usage/input/diagnostics error, 2 = analysis degraded under
// --strict.
//
//===----------------------------------------------------------------------===//

#include "clients/GeneralStats.h"
#include "clients/IGStats.h"
#include "clients/IndirectRefStats.h"
#include "corpus/Corpus.h"
#include "demand/DemandQuery.h"
#include "driver/Pipeline.h"
#include "incr/IncrementalEngine.h"
#include "serve/Serialize.h"
#include "serve/Server.h"
#include "serve/SummaryCache.h"
#include "support/Version.h"
#include "wlgen/WorkloadGen.h"

#include <memory>

#include <algorithm>
#include <iostream>
#include <map>
#include <set>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

using namespace mcpta;

namespace {

struct ToolConfig {
  bool DumpSimple = false;
  bool DumpIG = false;
  bool DumpPointsTo = false;
  bool Stats = false;
  bool Profile = false;
  bool Strict = false;
  /// --analysis-threads: --batch width, the number of forked children
  /// analyzing files at once.
  unsigned BatchThreads = 1;
  pta::Analyzer::Options Opts;
  std::string StatsJsonPath, TraceJsonPath;
};

int usage() {
  std::fprintf(
      stderr,
      "usage: pta-tool [--dump-simple] [--dump-ig] "
      "[--dump-pointsto] [--stats]\n"
      "                [--fnptr=precise|all|address-taken] "
      "[--context-insensitive]\n"
      "                [--profile] [--json FILE] [--trace-json FILE]\n"
      "                [--analysis-threads=N (with --batch)]\n"
      "                [--timeout-ms=N] [--max-stmt-visits=N] "
      "[--max-locations=N]\n"
      "                [--max-ig-nodes=N] [--max-rec-passes=N] [--strict]\n"
      "                [--cache-dir=DIR] [--incremental-baseline=PATH]\n"
      "                [--serve-threads=N] [--serve-queue-cap=N]\n"
      "                [--serve-deadline-ms=N] [--serve-max-line-bytes=N]\n"
      "                [--fault-inject=SPEC]\n"
      "                [--points-to=NAME | --alias=A:B] "
      "[--strategy=demand|exhaustive]\n"
      "                (file.c | --corpus NAME | --batch DIR | --serve |\n"
      "                 --list-corpus | --gen-stress[=DEPTH] | --version)\n");
  return 1;
}

/// Parses "--name=NUM" into \p Out. Returns false when \p Arg does not
/// start with "--name="; a malformed number is reported and exits 1
/// through \p Bad.
bool parseU64Flag(const std::string &Arg, const char *Name, uint64_t &Out,
                  bool &Bad) {
  std::string Prefix = std::string(Name) + "=";
  if (Arg.compare(0, Prefix.size(), Prefix) != 0)
    return false;
  const std::string Val = Arg.substr(Prefix.size());
  char *End = nullptr;
  unsigned long long N = std::strtoull(Val.c_str(), &End, 10);
  if (Val.empty() || !End || *End != '\0') {
    std::fprintf(stderr, "error: invalid number in '%s'\n", Arg.c_str());
    Bad = true;
    return true;
  }
  Out = N;
  return true;
}

/// Analyzes one source text; prints per the config. Returns the process
/// exit code (0 clean, 1 error, 2 degraded under --strict). When
/// \p CaptureOut is non-null and the analysis ran, the result snapshot
/// is captured into it (for the batch-mode summary cache).
int runOne(const std::string &Source, const ToolConfig &Cfg,
           serve::ResultSnapshot *CaptureOut = nullptr) {
  pta::Analyzer::Options Opts = Cfg.Opts;
  // Any observability flag turns on the instrumented pipeline; the
  // default path stays uninstrumented (no telemetry overhead at all).
  bool WantTelemetry = Cfg.Profile || !Cfg.StatsJsonPath.empty() ||
                       !Cfg.TraceJsonPath.empty();
  Pipeline P = WantTelemetry ? Pipeline::analyzeSourceTraced(Source, Opts)
                             : Pipeline::analyzeSource(Source, Opts);
  if (P.Diags.hasErrors()) {
    std::fputs(P.Diags.dump().c_str(), stderr);
    return 1;
  }
  // Analysis warnings (e.g. a MaxLoopIterations safety-valve trip or an
  // unresolved function pointer) are surfaced through the diagnostics
  // engine; never drop them silently.
  for (const Diagnostic &D : P.Diags.diagnostics())
    if (D.Level == DiagLevel::Warning)
      std::fprintf(stderr, "warning: %s\n", D.Message.c_str());

  // Budget degradations: one structured line per distinct (kind,
  // context category), plus a headline so batch logs stay greppable.
  // Under sustained budget pressure the contexts name individual
  // functions/call sites; printing every one would flood the log, so
  // repeats of the same failure mode are summarized — full counts stay
  // in the pta.degraded.* counters and in P.Analysis.Degradations.
  if (P.degraded()) {
    std::set<std::string> Printed;
    unsigned Suppressed = 0;
    for (const support::Degradation &D : P.Analysis.Degradations) {
      std::string Key = std::string(support::limitKindName(D.Kind)) + "|" +
                        support::degradationCategory(D.Context);
      if (!Printed.insert(Key).second) {
        ++Suppressed;
        continue;
      }
      std::fprintf(stderr, "degraded: [%s] %s: %s\n",
                   support::limitKindName(D.Kind), D.Context.c_str(),
                   D.Action.c_str());
    }
    if (Suppressed)
      std::fprintf(stderr,
                   "note: %u similar degradation line(s) suppressed (see "
                   "pta.degraded.* counters for full counts)\n",
                   Suppressed);
    std::fprintf(stderr,
                 "note: analysis degraded (%zu fallback(s)); results are "
                 "conservative but less precise\n",
                 P.Analysis.Degradations.size());
  }

  if (Cfg.DumpSimple)
    std::fputs(P.Prog->str().c_str(), stdout);
  if (Cfg.DumpIG && P.Analysis.IG)
    std::fputs(P.Analysis.IG->str().c_str(), stdout);
  if (Cfg.DumpPointsTo && P.Analysis.MainOut)
    std::printf("%s\n", P.Analysis.MainOut->str(*P.Analysis.Locs).c_str());

  if (Cfg.Stats) {
    support::Telemetry::Span ClientsSpan(P.Telem.get(), "clients");
    auto IR = clients::IndirectRefAnalysis::compute(*P.Prog, P.Analysis);
    auto GS = clients::GeneralStats::compute(*P.Prog, P.Analysis);
    auto IS = clients::IGStats::compute(*P.Prog, P.Analysis);
    std::printf("SIMPLE stmts:        %u\n", P.Prog->numBasicStmts());
    std::printf("indirect refs:       %u (avg targets %.2f)\n",
                IR.Stats.IndirectRefs, IR.Stats.average());
    std::printf("  1D=%u 1P=%u 2=%u 3=%u 4+=%u replaceable=%u\n",
                IR.Stats.OneD.total(), IR.Stats.OneP.total(),
                IR.Stats.TwoP.total(), IR.Stats.ThreeP.total(),
                IR.Stats.FourPlusP.total(), IR.Stats.ScalarReplaceable);
    std::printf("pairs: SS=%llu SH=%llu HH=%llu HS=%llu avg=%.1f max=%u\n",
                GS.StackToStack, GS.StackToHeap, GS.HeapToHeap,
                GS.HeapToStack, GS.average(), GS.MaxPerStmt);
    std::printf("IG: nodes=%u callsites=%u fns=%u R=%u A=%u "
                "avgc=%.2f avgf=%.2f\n",
                IS.Nodes, IS.CallSites, IS.Functions, IS.Recursive,
                IS.Approximate, IS.avgPerCallSite(), IS.avgPerFunction());
  }

  if (Cfg.Profile && P.Telem)
    std::fputs(P.Telem->profileTable().c_str(), stdout);
  if (!Cfg.StatsJsonPath.empty() && P.Telem &&
      !P.Telem->writeStatsJsonFile(Cfg.StatsJsonPath)) {
    std::fprintf(stderr, "error: cannot write stats JSON to '%s'\n",
                 Cfg.StatsJsonPath.c_str());
    return 1;
  }
  if (!Cfg.TraceJsonPath.empty() && P.Telem &&
      !P.Telem->writeTraceJsonFile(Cfg.TraceJsonPath)) {
    std::fprintf(stderr, "error: cannot write trace JSON to '%s'\n",
                 Cfg.TraceJsonPath.c_str());
    return 1;
  }
  if (CaptureOut)
    *CaptureOut = serve::ResultSnapshot::capture(
        *P.Prog, P.Analysis, serve::optionsFingerprint(Opts));
  return (Cfg.Strict && P.degraded()) ? 2 : 0;
}

bool readFile(const std::string &Path, std::string &Out) {
  std::ifstream In(Path);
  if (!In)
    return false;
  std::ostringstream SS;
  SS << In.rdbuf();
  Out = SS.str();
  return true;
}

int runIncremental(const std::string &Source, const ToolConfig &Cfg,
                   const std::string &BaselinePath);

struct FileCloser {
  void operator()(FILE *F) const { std::fclose(F); }
};
using FilePtr = std::unique_ptr<FILE, FileCloser>;

/// Reads back and closes one of a batch child's capture files.
std::string slurp(FilePtr F) {
  std::string S;
  std::rewind(F.get());
  char Buf[65536];
  while (size_t N = std::fread(Buf, 1, sizeof(Buf), F.get()))
    S.append(Buf, N);
  return S;
}

/// Batch mode: analyzes every *.c file under \p Dir, each in a forked
/// child so one pathological or crashing input cannot take down the
/// rest of the batch. Up to Cfg.BatchThreads children run at once. Each
/// child's stdout and stderr go to two unlinked temp files (a pipe would
/// block a child whose output outgrows the pipe buffer while the parent
/// is still replaying an earlier file). The parent replays each file's
/// stderr, then its stdout, then its status line, strictly in input
/// order, so the output is the same at every width; a summary line
/// closes the batch.
///
/// When \p CacheDir is non-empty, the parent looks every file up in the
/// summary cache there before forking: a hit skips the fork and the
/// analysis entirely, and children store their results into the shared
/// disk tier. A file whose content matches one still being analyzed
/// waits for it, so it hits the cache exactly as it would at width 1.
/// When \p IncrDir is non-empty, every file runs through the incremental
/// engine against its own baseline snapshot at IncrDir/<stem>.snapshot
/// (created on the first run, updated on every run); baseline reuse
/// supersedes the content cache, so the summary cache is not consulted
/// in that mode.
int runBatch(const std::string &Dir, const ToolConfig &Cfg,
             const std::string &CacheDir, const std::string &IncrDir) {
  namespace fs = std::filesystem;
  std::error_code EC;
  std::vector<std::string> Files;
  for (const fs::directory_entry &E : fs::directory_iterator(Dir, EC))
    if (E.is_regular_file() && E.path().extension() == ".c")
      Files.push_back(E.path().string());
  if (EC) {
    std::fprintf(stderr, "error: cannot read directory '%s': %s\n",
                 Dir.c_str(), EC.message().c_str());
    return 1;
  }
  if (Files.empty()) {
    std::fprintf(stderr, "error: no .c files in '%s'\n", Dir.c_str());
    return 1;
  }
  std::sort(Files.begin(), Files.end());

  const bool Incremental = !IncrDir.empty();
  if (Incremental) {
    std::error_code DirEC;
    fs::create_directories(IncrDir, DirEC);
    if (DirEC) {
      std::fprintf(stderr, "error: cannot create baseline directory '%s': %s\n",
                   IncrDir.c_str(), DirEC.message().c_str());
      return 1;
    }
  }

  std::unique_ptr<serve::SummaryCache> Cache;
  serve::SummaryCache::Config CacheCfg;
  if (!CacheDir.empty() && !Incremental) {
    CacheCfg.Dir = CacheDir;
    Cache = std::make_unique<serve::SummaryCache>(CacheCfg, nullptr);
  }
  const std::string FP = serve::optionsFingerprint(Cfg.Opts);

  struct FileRun {
    std::string Key;
    std::string Err, Out; // parent warnings + child stderr; child stdout
    FilePtr ErrF, OutF; // the child's capture files while it runs
    bool Running = false, OpenFailed = false, Cached = false;
    bool CachedDegraded = false;
    int Code = 1, Signal = 0; // child exit code, or its fatal signal
  };
  std::vector<FileRun> Runs(Files.size());
  std::map<pid_t, size_t> Children;

  // Forks file I's child; a failed start is recorded as the file's error.
  auto Launch = [&](size_t I, const std::string &Source) {
    FileRun &R = Runs[I];
    R.OutF.reset(std::tmpfile());
    R.ErrF.reset(std::tmpfile());
    // The child inherits stdio buffers; flush so nothing is emitted
    // twice (parent) or dropped at _exit (child flushes explicitly).
    std::fflush(stdout);
    std::fflush(stderr);
    pid_t Pid = R.OutF && R.ErrF ? fork() : -1;
    if (Pid < 0) {
      R.Err += "error: cannot start the analysis of '" + Files[I] +
               "': " + std::strerror(errno) + "\n";
      R.OutF.reset();
      R.ErrF.reset();
      return;
    }
    if (Pid == 0) {
      dup2(fileno(R.OutF.get()), STDOUT_FILENO);
      dup2(fileno(R.ErrF.get()), STDERR_FILENO);
      int Code;
      if (Incremental) {
        Code = runIncremental(
            Source, Cfg,
            (fs::path(IncrDir) / (fs::path(Files[I]).stem().string() +
                                  ".snapshot"))
                .string());
      } else {
        serve::ResultSnapshot Snap;
        Code = runOne(Source, Cfg, Cache ? &Snap : nullptr);
        if (Cache && Code != 1) {
          // The disk tier is shared with the parent and the other
          // children: files analyzed here are hits for identical inputs
          // later in this batch and in the next run. Blob temp names
          // carry the pid, so concurrent stores do not collide.
          serve::SummaryCache ChildCache(CacheCfg, nullptr);
          std::string StoreWarning;
          ChildCache.store(R.Key, std::move(Snap), &StoreWarning);
          if (!StoreWarning.empty())
            std::fprintf(stderr, "warning: %s\n", StoreWarning.c_str());
        }
      }
      std::fflush(stdout);
      std::fflush(stderr);
      _exit(Code);
    }
    R.Running = true;
    Children[Pid] = I;
  };

  // Worst outcome across the batch: error (1) beats degraded-under-
  // strict (2) beats clean (0).
  bool AnyError = false, AnyDegraded = false;
  uint64_t CacheHits = 0;
  auto Replay = [&](size_t I) {
    const FileRun &R = Runs[I];
    const char *F = Files[I].c_str();
    // Flushing stdout before a file's stderr keeps the two streams in
    // order when they share one pipe (2>&1).
    std::fflush(stdout);
    std::fwrite(R.Err.data(), 1, R.Err.size(), stderr);
    if (R.OpenFailed) {
      std::fprintf(stderr, "error: cannot open '%s'\n", F);
      std::printf("%s: error\n", F);
      AnyError = true;
      return;
    }
    if (R.Cached) {
      AnyDegraded |= R.CachedDegraded;
      std::printf("%s: %s (cached)\n", F, R.CachedDegraded ? "degraded" : "ok");
      return;
    }
    // An incremental child prints the engine's status (e.g.
    // "incremental: dirty_functions=0 ...") as the rest of this line;
    // the parent completes it only when the child could not.
    if (Incremental)
      std::printf("%s: ", F);
    std::fwrite(R.Out.data(), 1, R.Out.size(), stdout);
    const bool Failed = R.Signal || (R.Code != 0 && R.Code != 2);
    AnyError |= Failed;
    AnyDegraded |= !Failed && R.Code == 2;
    if (!Incremental)
      std::printf("%s: ", F);
    if (R.Signal)
      std::printf("CRASHED (signal %d)\n", R.Signal);
    else if (Failed)
      std::fputs("error\n", stdout);
    else if (!Incremental)
      std::fputs(R.Code == 2 ? "degraded\n" : "ok\n", stdout);
  };

  const size_t Width = std::max(1u, Cfg.BatchThreads);
  size_t Next = 0, Replayed = 0;
  std::string Source; // Files[Next]'s text, once read
  bool HaveSource = false;
  while (Replayed < Files.size()) {
    while (Next < Files.size() && Children.size() < Width) {
      FileRun &R = Runs[Next];
      if (!HaveSource) {
        if (!readFile(Files[Next], Source)) {
          R.OpenFailed = true;
          ++Next;
          continue;
        }
        HaveSource = true;
        if (Cache)
          R.Key = serve::SummaryCache::key(Source, FP);
      }
      if (Cache && std::any_of(Children.begin(), Children.end(),
                               [&](const auto &C) {
                                 return Runs[C.second].Key == R.Key;
                               }))
        break; // same content still running: wait for its stored result
      HaveSource = false;
      if (Cache) {
        std::string Warning;
        if (auto Snap = Cache->lookup(R.Key, &Warning)) {
          ++CacheHits;
          R.Cached = true;
          R.CachedDegraded = Cfg.Strict && Snap->degraded();
          ++Next;
          continue;
        }
        if (!Warning.empty())
          R.Err += "warning: " + Warning + "\n";
      }
      Launch(Next++, Source);
    }
    while (Replayed < Next && !Runs[Replayed].Running)
      Replay(Replayed++);
    if (Children.empty())
      continue;
    int Status = 0;
    pid_t Pid = waitpid(-1, &Status, 0);
    if (Pid < 0) {
      if (errno == EINTR)
        continue;
      std::fprintf(stderr, "error: waitpid failed: %s\n",
                   std::strerror(errno));
      return 1;
    }
    auto It = Children.find(Pid);
    if (It == Children.end())
      continue;
    FileRun &R = Runs[It->second];
    Children.erase(It);
    R.Running = false;
    if (WIFSIGNALED(Status))
      R.Signal = WTERMSIG(Status);
    else
      R.Code = WIFEXITED(Status) ? WEXITSTATUS(Status) : 1;
    R.Err += slurp(std::move(R.ErrF));
    R.Out = slurp(std::move(R.OutF));
  }
  std::printf("batch: %zu file(s), %llu cache hit(s)\n", Files.size(),
              static_cast<unsigned long long>(CacheHits));
  if (AnyError)
    return 1;
  return AnyDegraded ? 2 : 0;
}

/// Incremental single-source mode (docs/INCREMENTAL.md): re-analyze
/// \p Source against the snapshot stored at \p BaselinePath when one
/// exists (full analysis otherwise), print what the engine did, and
/// write the new snapshot back so consecutive runs chain.
int runIncremental(const std::string &Source, const ToolConfig &Cfg,
                   const std::string &BaselinePath) {
  bool WantTelemetry = Cfg.Profile || !Cfg.StatsJsonPath.empty() ||
                       !Cfg.TraceJsonPath.empty();
  support::Telemetry Telem(WantTelemetry);

  serve::ResultSnapshot Baseline;
  bool HaveBaseline = false;
  std::string Blob;
  if (readFile(BaselinePath, Blob) && !Blob.empty()) {
    std::string Err;
    if (serve::deserialize(Blob, Baseline, Err)) {
      HaveBaseline = true;
    } else {
      std::fprintf(stderr,
                   "warning: ignoring unreadable baseline '%s': %s\n",
                   BaselinePath.c_str(), Err.c_str());
    }
  }

  incr::IncrOutput O = incr::IncrementalEngine::reanalyze(
      HaveBaseline ? &Baseline : nullptr, Source, Cfg.Opts,
      WantTelemetry ? &Telem : nullptr);
  if (!O.Ok) {
    std::fputs(O.Diags.dump().c_str(), stderr);
    return 1;
  }
  if (!HaveBaseline)
    std::printf("incremental: baseline created\n");
  else if (O.Stats.UsedIncremental)
    std::printf("incremental: dirty_functions=%llu memo_reuse=%llu "
                "seed_hits=%llu\n",
                static_cast<unsigned long long>(O.Stats.DirtyFunctions),
                static_cast<unsigned long long>(O.Stats.MemoReuse),
                static_cast<unsigned long long>(O.Stats.SeedHits));
  else
    std::printf("incremental: full re-analysis (%s)\n",
                O.Stats.FallbackReason.c_str());

  std::ofstream Out(BaselinePath, std::ios::binary | std::ios::trunc);
  if (!Out.write(O.Blob.data(),
                 static_cast<std::streamsize>(O.Blob.size()))) {
    std::fprintf(stderr, "error: cannot write baseline '%s'\n",
                 BaselinePath.c_str());
    return 1;
  }

  if (Cfg.Profile)
    std::fputs(Telem.profileTable().c_str(), stdout);
  if (!Cfg.StatsJsonPath.empty() &&
      !Telem.writeStatsJsonFile(Cfg.StatsJsonPath)) {
    std::fprintf(stderr, "error: cannot write stats JSON to '%s'\n",
                 Cfg.StatsJsonPath.c_str());
    return 1;
  }
  if (!Cfg.TraceJsonPath.empty() &&
      !Telem.writeTraceJsonFile(Cfg.TraceJsonPath)) {
    std::fprintf(stderr, "error: cannot write trace JSON to '%s'\n",
                 Cfg.TraceJsonPath.c_str());
    return 1;
  }
  return (Cfg.Strict && O.Snapshot.degraded()) ? 2 : 0;
}

/// One-shot demand query (--points-to / --alias): frontends the source,
/// runs the DemandEngine, prints the answer and which strategy produced
/// it. --strategy=exhaustive answers from the exhaustive snapshot
/// instead (same output shape, for diffing the two).
int runQuery(const std::string &Source, const ToolConfig &Cfg,
             const std::string &PointsToName, const std::string &AliasA,
             const std::string &AliasB, const std::string &Strategy) {
  Pipeline FE = Pipeline::frontend(Source);
  if (!FE.Prog) {
    std::fputs(FE.Diags.dump().c_str(), stderr);
    return 1;
  }
  demand::DemandOptions DO;
  DO.Analyzer = Cfg.Opts;
  demand::DemandEngine Engine(*FE.Prog, DO);

  const bool IsAlias = !AliasA.empty() || !AliasB.empty();
  const demand::Query Q = IsAlias ? demand::Query::alias(AliasA, AliasB)
                                  : demand::Query::pointsTo(PointsToName);
  demand::Answer A;
  if (Strategy == "exhaustive") {
    // A program without main answers from its unanalyzed snapshot, as
    // the demand strategy's no-main fallback does.
    std::printf("strategy: exhaustive\n");
    A = demand::answerFrom(Q, Engine.exhaustiveSnapshot());
  } else {
    A = Engine.query(Q);
  }
  if (!A.Ok) {
    std::fprintf(stderr, "error: %s\n", A.Error.c_str());
    return 1;
  }
  if (!A.Strategy.empty())
    std::printf("strategy: %s\n", A.Strategy.c_str());
  if (!A.FallbackReason.empty())
    std::printf("fallback_reason: %s\n", A.FallbackReason.c_str());
  if (A.answeredByDemand())
    std::printf("visited_stmts: %llu\nskipped_stmts: %llu\n",
                static_cast<unsigned long long>(A.VisitedStmts),
                static_cast<unsigned long long>(A.SkippedStmts));
  if (IsAlias) {
    std::printf("alias(%s, %s): %s\n", AliasA.c_str(), AliasB.c_str(),
                A.Aliased ? "yes" : "no");
  } else {
    std::printf("points_to(%s):\n", PointsToName.c_str());
    for (const auto &[Target, Definite] : A.Targets)
      std::printf("  %s (%s)\n", Target.c_str(),
                  Definite ? "definite" : "possible");
  }
  return (Cfg.Strict && A.Degraded) ? 2 : 0;
}

/// Serve-daemon knobs collected from the command line (--serve-* and
/// --fault-inject); zero means "keep the Server::Config default".
struct ServeConfig {
  uint64_t Threads = 0;
  uint64_t QueueCap = 0;
  uint64_t DeadlineMs = 0;
  uint64_t MaxLineBytes = 0;
  std::string FaultSpec;
};

/// The long-lived daemon: NDJSON requests on stdin, one-line responses
/// on stdout, operational log on stderr (docs/SERVING.md).
int runServe(const ToolConfig &Cfg, const std::string &CacheDir,
             const ServeConfig &Serve) {
  serve::Server::Config SC;
  SC.Cache.Dir = CacheDir;
  SC.DefaultOpts = Cfg.Opts;
  if (Serve.Threads)
    SC.Threads = static_cast<unsigned>(Serve.Threads);
  if (Serve.QueueCap)
    SC.QueueCap = static_cast<size_t>(Serve.QueueCap);
  SC.RequestDeadlineMs = Serve.DeadlineMs;
  if (Serve.MaxLineBytes)
    SC.MaxLineBytes = static_cast<size_t>(Serve.MaxLineBytes);
  SC.FaultSpec = Serve.FaultSpec;
  serve::Server S(SC);
  return S.run(std::cin, std::cout, std::cerr);
}

} // namespace

int main(int argc, char **argv) {
  ToolConfig Cfg;
  std::string File, CorpusName, BatchDir, IncrBaselinePath;
  std::string QueryPointsTo, QueryAliasA, QueryAliasB;
  std::string QueryStrategy = "demand";
  bool HaveQuery = false;
  bool Serve = false;
  ServeConfig ServeCfg;
  const char *EnvCacheDir = std::getenv("MCPTA_CACHE_DIR");
  std::string CacheDir = EnvCacheDir ? EnvCacheDir : ".mcpta-cache";
  // Batch mode only caches when a directory was actually requested
  // (flag or environment), never through the silent default.
  bool CacheDirRequested = EnvCacheDir != nullptr;
  bool BadNumber = false;
  uint64_t BatchThreads = 0;
  bool BatchThreadsGiven = false;

  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    if (Arg == "--version") {
      std::printf("pta-tool %s (result format %s, version %u)\n",
                  mcpta::version::kToolVersion,
                  mcpta::version::kResultFormatName,
                  mcpta::version::kResultFormatVersion);
      return 0;
    } else if (Arg == "--serve")
      Serve = true;
    else if (parseU64Flag(Arg, "--serve-threads", ServeCfg.Threads,
                          BadNumber) ||
             parseU64Flag(Arg, "--serve-queue-cap", ServeCfg.QueueCap,
                          BadNumber) ||
             parseU64Flag(Arg, "--serve-deadline-ms", ServeCfg.DeadlineMs,
                          BadNumber) ||
             parseU64Flag(Arg, "--serve-max-line-bytes",
                          ServeCfg.MaxLineBytes, BadNumber)) {
      if (BadNumber)
        return 1;
    } else if (Arg.compare(0, 15, "--fault-inject=") == 0) {
      ServeCfg.FaultSpec = Arg.substr(15);
      // Validate up front: a typo'd point name should fail loudly at
      // startup, not after the daemon is wired into a pipeline.
      support::FaultInjection FI;
      std::string Err;
      if (!FI.parse(ServeCfg.FaultSpec, Err)) {
        std::fprintf(stderr, "error: bad --fault-inject spec: %s\n",
                     Err.c_str());
        return 1;
      }
    } else if (Arg.compare(0, 12, "--cache-dir=") == 0) {
      CacheDir = Arg.substr(12);
      CacheDirRequested = true;
    } else if (Arg.compare(0, 23, "--incremental-baseline=") == 0)
      IncrBaselinePath = Arg.substr(23);
    else if (Arg == "--dump-simple")
      Cfg.DumpSimple = true;
    else if (Arg == "--dump-ig")
      Cfg.DumpIG = true;
    else if (Arg == "--dump-pointsto")
      Cfg.DumpPointsTo = true;
    else if (Arg == "--stats")
      Cfg.Stats = true;
    else if (Arg == "--profile")
      Cfg.Profile = true;
    else if (Arg == "--strict")
      Cfg.Strict = true;
    else if (Arg == "--fnptr=precise")
      Cfg.Opts.FnPtr = pta::FnPtrMode::Precise;
    else if (Arg == "--fnptr=all")
      Cfg.Opts.FnPtr = pta::FnPtrMode::AllFunctions;
    else if (Arg == "--fnptr=address-taken")
      Cfg.Opts.FnPtr = pta::FnPtrMode::AddressTaken;
    else if (Arg == "--context-insensitive")
      Cfg.Opts.ContextSensitive = false;
    else if (parseU64Flag(Arg, "--analysis-threads", BatchThreads,
                          BadNumber)) {
      if (BadNumber)
        return 1;
      // 0 and 1 both mean one child at a time.
      Cfg.BatchThreads =
          static_cast<unsigned>(std::min<uint64_t>(BatchThreads, 256));
      BatchThreadsGiven = true;
    } else if (parseU64Flag(Arg, "--timeout-ms", Cfg.Opts.Limits.TimeoutMs,
                          BadNumber) ||
             parseU64Flag(Arg, "--max-stmt-visits",
                          Cfg.Opts.Limits.MaxStmtVisits, BadNumber) ||
             parseU64Flag(Arg, "--max-locations",
                          Cfg.Opts.Limits.MaxLocations, BadNumber) ||
             parseU64Flag(Arg, "--max-ig-nodes",
                          Cfg.Opts.Limits.MaxIGNodes, BadNumber) ||
             parseU64Flag(Arg, "--max-rec-passes",
                          Cfg.Opts.Limits.MaxRecPasses, BadNumber)) {
      if (BadNumber)
        return 1;
    } else if (Arg == "--json" && I + 1 < argc)
      Cfg.StatsJsonPath = argv[++I];
    else if (Arg == "--trace-json" && I + 1 < argc)
      Cfg.TraceJsonPath = argv[++I];
    else if (Arg == "--list-corpus") {
      for (const corpus::CorpusProgram &P : corpus::corpus())
        std::printf("%-10s %s\n", P.Name, P.Description);
      return 0;
    } else if (Arg == "--gen-stress" ||
               Arg.compare(0, 13, "--gen-stress=") == 0) {
      // Emit a terminating but analysis-hostile program (deep direct-
      // call fan-out + function-pointer dispatch + bounded recursion)
      // for budget-exhaustion smoke tests.
      unsigned Depth = 8;
      if (Arg.size() > 13) {
        uint64_t D = 0;
        bool Bad = false;
        if (!parseU64Flag(Arg, "--gen-stress", D, Bad) || Bad || D == 0)
          return usage();
        Depth = static_cast<unsigned>(D);
      }
      std::fputs(wlgen::pathologicalSource(Depth).c_str(), stdout);
      return 0;
    } else if (Arg.compare(0, 12, "--points-to=") == 0) {
      QueryPointsTo = Arg.substr(12);
      HaveQuery = true;
    } else if (Arg.compare(0, 8, "--alias=") == 0) {
      std::string Pair = Arg.substr(8);
      size_t Colon = Pair.find(':');
      if (Colon == std::string::npos) {
        std::fprintf(stderr, "error: --alias wants A:B access paths\n");
        return 1;
      }
      QueryAliasA = Pair.substr(0, Colon);
      QueryAliasB = Pair.substr(Colon + 1);
      HaveQuery = true;
    } else if (Arg.compare(0, 11, "--strategy=") == 0) {
      QueryStrategy = Arg.substr(11);
      if (QueryStrategy != "demand" && QueryStrategy != "exhaustive") {
        std::fprintf(stderr,
                     "error: --strategy wants demand or exhaustive\n");
        return 1;
      }
    } else if (Arg == "--corpus" && I + 1 < argc) {
      CorpusName = argv[++I];
    } else if (Arg == "--batch" && I + 1 < argc) {
      BatchDir = argv[++I];
    } else if (!Arg.empty() && Arg[0] == '-') {
      return usage();
    } else {
      File = Arg;
    }
  }

  if (!IncrBaselinePath.empty() && Serve) {
    std::fprintf(stderr, "error: --incremental-baseline does not apply to "
                         "--serve (the daemon caches by content)\n");
    return 1;
  }
  if (!Serve && (ServeCfg.Threads || ServeCfg.QueueCap ||
                 ServeCfg.DeadlineMs || ServeCfg.MaxLineBytes ||
                 !ServeCfg.FaultSpec.empty())) {
    std::fprintf(stderr, "error: --serve-* and --fault-inject flags apply "
                         "only to --serve\n");
    return 1;
  }
  if (BatchThreadsGiven && (BatchDir.empty() || Serve)) {
    std::fprintf(stderr, "error: --analysis-threads applies only to --batch\n");
    return 1;
  }
  if (!BatchDir.empty() &&
      (!Cfg.StatsJsonPath.empty() || !Cfg.TraceJsonPath.empty())) {
    // Every file's child would write the same path concurrently.
    std::fprintf(stderr, "error: --json and --trace-json do not apply to "
                         "--batch (use --profile for per-file phases)\n");
    return 1;
  }
  if (Serve)
    return runServe(Cfg, CacheDir, ServeCfg);
  if (!BatchDir.empty())
    return runBatch(BatchDir, Cfg, CacheDirRequested ? CacheDir : "",
                    IncrBaselinePath);

  std::string Source;
  if (!CorpusName.empty()) {
    const corpus::CorpusProgram *P = corpus::find(CorpusName);
    if (!P) {
      std::fprintf(stderr, "error: unknown corpus program '%s'\n",
                   CorpusName.c_str());
      return 1;
    }
    Source = P->Source;
  } else if (!File.empty()) {
    if (!readFile(File, Source)) {
      std::fprintf(stderr, "error: cannot open '%s'\n", File.c_str());
      return 1;
    }
  } else {
    return usage();
  }

  if (HaveQuery) {
    if (!QueryPointsTo.empty() &&
        (!QueryAliasA.empty() || !QueryAliasB.empty())) {
      std::fprintf(stderr,
                   "error: --points-to and --alias are exclusive\n");
      return 1;
    }
    return runQuery(Source, Cfg, QueryPointsTo, QueryAliasA, QueryAliasB,
                    QueryStrategy);
  }
  if (!IncrBaselinePath.empty())
    return runIncremental(Source, Cfg, IncrBaselinePath);
  return runOne(Source, Cfg);
}
