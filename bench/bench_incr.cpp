//===- bench_incr.cpp - incremental re-analysis speedup ------------------------===//
//
// The incremental engine's reason to exist (docs/INCREMENTAL.md): after
// a single-function edit, re-analyzing against the previous snapshot
// must be much cheaper than analyzing from scratch, while producing a
// byte-identical result (IncrementalTest proves the equivalence; this
// binary measures the payoff).
//
// Method: take the largest corpus program (incrstress — thousands of
// calling contexts over 64 functions), apply each wlgen mutation kind
// as the "developer edit", and compare
//   cold:        Pipeline::analyzeSource + capture + serialize
//   incremental: IncrementalEngine::reanalyze (same artifacts out)
// with the median of three runs each. Set-preserving edits (constant
// tweaks, renames, local-to-local copies, added calls) must hit the
// incremental path with memo_reuse > 0, and the best single-function
// edit must show at least a 5x wall-clock speedup — the binary exits 1
// otherwise, so CI catches a regressed graft path. Set-perturbing edits
// (RemoveAssignment) legitimately fall back with a recorded reason and
// are reported without the speedup requirement.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "incr/IncrementalEngine.h"
#include "serve/Serialize.h"
#include "wlgen/WorkloadGen.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <vector>

using namespace mcpta;
using namespace mcpta::benchutil;

namespace {

using Clock = std::chrono::steady_clock;

double msSince(Clock::time_point Start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - Start)
      .count();
}

/// Analysis options for the comparison. Per-statement set recording is
/// a query-layer feature with identical cost on both sides; it is off
/// here so the numbers isolate the analysis itself.
pta::Analyzer::Options benchOptions() {
  pta::Analyzer::Options Opts;
  Opts.RecordStmtSets = false;
  return Opts;
}

const corpus::CorpusProgram &largestCorpusProgram() {
  const corpus::CorpusProgram *Largest = nullptr;
  for (const corpus::CorpusProgram &CP : corpus::corpus())
    if (!Largest || std::strlen(CP.Source) > std::strlen(Largest->Source))
      Largest = &CP;
  return *Largest;
}

/// Cold path: everything reanalyze() produces, from scratch.
std::string coldRun(const std::string &Source,
                    const pta::Analyzer::Options &Opts) {
  Pipeline P = Pipeline::analyzeSource(Source, Opts);
  if (P.Diags.hasErrors() || !P.Analysis.Analyzed) {
    std::fprintf(stderr, "FATAL: bench source failed to analyze:\n%s",
                 P.Diags.dump().c_str());
    std::abort();
  }
  return serve::serialize(serve::ResultSnapshot::capture(
      *P.Prog, P.Analysis, serve::optionsFingerprint(Opts)));
}

double medianOf3(double A, double B, double C) {
  double V[3] = {A, B, C};
  std::sort(V, V + 3);
  return V[1];
}

struct KindResult {
  const char *Name = "";
  double ColdMs = 0, IncrMs = 0;
  incr::IncrStats Stats;
};

int runComparison() {
  const corpus::CorpusProgram &CP = largestCorpusProgram();
  const std::string Seed = CP.Source;
  const pta::Analyzer::Options Opts = benchOptions();

  serve::ResultSnapshot Baseline;
  {
    Pipeline P = Pipeline::analyzeSource(Seed, Opts);
    Baseline = serve::ResultSnapshot::capture(
        *P.Prog, P.Analysis, serve::optionsFingerprint(Opts));
  }

  printHeader("Incremental re-analysis",
              "single-function edit: from-scratch vs. snapshot reuse");
  std::printf("largest corpus program: %s (%u lines, %zu baseline contexts)\n\n",
              CP.Name, countLines(CP.Source), Baseline.IG.size());
  std::printf("%-18s %10s %10s %9s %7s %10s  %s\n", "edit kind", "cold(ms)",
              "incr(ms)", "speedup", "dirty", "memo_reuse", "path");

  std::vector<KindResult> Results;
  for (wlgen::MutationKind K : wlgen::AllMutationKinds) {
    const std::string Edited = wlgen::mutateSource(Seed, K);
    KindResult R;
    R.Name = wlgen::mutationKindName(K);

    double Cold[3], Incr[3];
    for (int I = 0; I < 3; ++I) {
      Clock::time_point T0 = Clock::now();
      std::string Blob = coldRun(Edited, Opts);
      Cold[I] = msSince(T0);
      benchmark::DoNotOptimize(Blob.data());

      T0 = Clock::now();
      incr::IncrOutput O =
          incr::IncrementalEngine::reanalyze(Baseline, Edited, Opts);
      Incr[I] = msSince(T0);
      if (!O.Ok) {
        std::fprintf(stderr, "FATAL: reanalyze failed for %s: %s\n", R.Name,
                     O.Diags.dump().c_str());
        return 1;
      }
      R.Stats = O.Stats;
    }
    R.ColdMs = medianOf3(Cold[0], Cold[1], Cold[2]);
    R.IncrMs = medianOf3(Incr[0], Incr[1], Incr[2]);

    std::string Path = R.Stats.UsedIncremental
                           ? "incremental"
                           : "fallback (" + R.Stats.FallbackReason + ")";
    std::printf("%-18s %10.1f %10.1f %8.1fx %7llu %10llu  %s\n", R.Name,
                R.ColdMs, R.IncrMs, R.ColdMs / R.IncrMs,
                static_cast<unsigned long long>(R.Stats.DirtyFunctions),
                static_cast<unsigned long long>(R.Stats.MemoReuse),
                Path.c_str());
    Results.push_back(R);
  }
  std::printf("\n");

  // The regression gate. Every edit must either reuse memoized results
  // or say why it could not; the best single-function edit must repay
  // the snapshot with at least a 5x wall-clock win.
  double BestSpeedup = 0;
  bool BestHadReuse = false;
  for (const KindResult &R : Results) {
    if (!R.Stats.UsedIncremental && R.Stats.FallbackReason.empty()) {
      std::fprintf(stderr, "FATAL: %s fell back without a recorded reason\n",
                   R.Name);
      return 1;
    }
    if (R.Stats.UsedIncremental && R.Stats.MemoReuse == 0) {
      std::fprintf(stderr, "FATAL: %s used the incremental path but reused "
                           "nothing\n",
                   R.Name);
      return 1;
    }
    double Speedup = R.ColdMs / R.IncrMs;
    if (R.Stats.UsedIncremental && Speedup > BestSpeedup) {
      BestSpeedup = Speedup;
      BestHadReuse = R.Stats.MemoReuse > 0;
    }
  }
  if (BestSpeedup < 5.0 || !BestHadReuse) {
    std::fprintf(stderr,
                 "FATAL: best incremental speedup %.1fx < required 5x "
                 "(memo_reuse %s)\n",
                 BestSpeedup, BestHadReuse ? ">0" : "==0");
    return 1;
  }
  std::printf("best single-function edit speedup: %.1fx (requirement: >=5x, "
              "memo_reuse > 0)\n\n",
              BestSpeedup);
  return 0;
}

void BM_ColdAnalyze(benchmark::State &State) {
  const corpus::CorpusProgram &CP = largestCorpusProgram();
  const pta::Analyzer::Options Opts = benchOptions();
  std::string Edited =
      wlgen::mutateSource(CP.Source, wlgen::MutationKind::TweakConstant);
  for (auto _ : State) {
    std::string Blob = coldRun(Edited, Opts);
    benchmark::DoNotOptimize(Blob.data());
  }
}
BENCHMARK(BM_ColdAnalyze)->Unit(benchmark::kMillisecond);

void BM_IncrementalReanalyze(benchmark::State &State) {
  const corpus::CorpusProgram &CP = largestCorpusProgram();
  const pta::Analyzer::Options Opts = benchOptions();
  serve::ResultSnapshot Baseline;
  {
    Pipeline P = Pipeline::analyzeSource(CP.Source, Opts);
    Baseline = serve::ResultSnapshot::capture(
        *P.Prog, P.Analysis, serve::optionsFingerprint(Opts));
  }
  std::string Edited =
      wlgen::mutateSource(CP.Source, wlgen::MutationKind::TweakConstant);
  for (auto _ : State) {
    incr::IncrOutput O =
        incr::IncrementalEngine::reanalyze(Baseline, Edited, Opts);
    benchmark::DoNotOptimize(O.Stats.MemoReuse);
  }
}
BENCHMARK(BM_IncrementalReanalyze)->Unit(benchmark::kMillisecond);

} // namespace

int main(int argc, char **argv) {
  std::string StatsJson = mcpta::benchutil::statsJsonPath(argc, argv);
  int RC = runComparison();
  if (RC != 0)
    return RC;
  if (!StatsJson.empty() &&
      !mcpta::benchutil::writeCorpusStatsJson(StatsJson, "incr"))
    return 1;
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
