//===- bench_parallel.cpp - in-process concurrent-analysis speedup -------------===//
//
// The payoff of running whole analyses side by side in one process
// (docs/PARALLEL.md): the 18-program corpus analyzed in-process, one
// file per task on a shared ThreadPool — the shape of the serve worker
// pool and of mcptabench's paper-corpus workload. (`pta-tool --batch`
// forks one child per file instead, and is not timed here.) Each
// analysis runs start to finish on its own thread, so files are
// independent and this is the near-linear axis. Each side is the
// median of three runs at T=1 and T=4.
//
// --par-bench-json=FILE (or MCPTA_PAR_BENCH_JSON) exports an
// `mcpta-par-bench-v1` document with a `cores` field from
// hardware_concurrency(): the perf-smoke gate (check_perf_smoke.py)
// only enforces its min-speedup floors when the host actually has the
// cores — on a 1-core runner a 4-thread run cannot speed up, and the
// numbers printed here are still useful as overhead measurements.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "support/ThreadPool.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

using namespace mcpta;
using namespace mcpta::benchutil;

namespace {

using Clock = std::chrono::steady_clock;

constexpr unsigned kParThreads = 4;

double msSince(Clock::time_point Start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - Start)
      .count();
}

double medianOf(std::vector<double> V) {
  std::sort(V.begin(), V.end());
  return V[V.size() / 2];
}

/// One full single-file analysis; aborts on any frontend or analysis
/// failure (corpus programs are known-good).
Pipeline analyzeOne(const std::string &Source) {
  Pipeline P = Pipeline::analyzeSource(Source, pta::Analyzer::Options());
  if (P.Diags.hasErrors() || !P.Analysis.Analyzed) {
    std::fprintf(stderr, "FATAL: bench source failed to analyze:\n%s",
                 P.Diags.dump().c_str());
    std::abort();
  }
  return P;
}

/// Wall time for the whole corpus as in-process concurrent analyses: one
/// analysis per program submitted to a shared pool. Threads == 1
/// degrades to an inline pool, i.e. a plain in-order loop.
double batchRun(unsigned Threads) {
  support::ThreadPool Pool(Threads);
  Clock::time_point T0 = Clock::now();
  for (const corpus::CorpusProgram &C : corpus::corpus())
    Pool.submit([&C] {
      Pipeline P = analyzeOne(C.Source);
      benchmark::DoNotOptimize(P.Analysis.Analyzed);
    });
  Pool.wait();
  return msSince(T0);
}

/// Extracts `--par-bench-json=FILE` before google-benchmark sees it,
/// mirroring BenchUtil::statsJsonPath. MCPTA_PAR_BENCH_JSON is the env
/// fallback for CI.
std::string parBenchJsonPath(int &argc, char **argv) {
  std::string Path;
  int W = 1;
  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    if (Arg.rfind("--par-bench-json=", 0) == 0) {
      Path = Arg.substr(std::strlen("--par-bench-json="));
      continue;
    }
    if (Arg == "--par-bench-json" && I + 1 < argc) {
      Path = argv[++I];
      continue;
    }
    argv[W++] = argv[I];
  }
  argc = W;
  if (Path.empty())
    if (const char *Env = std::getenv("MCPTA_PAR_BENCH_JSON"))
      Path = Env;
  return Path;
}

struct BenchReport {
  unsigned Cores = 0;
  unsigned Threads = kParThreads;
  unsigned BatchPrograms = 0;
  double BatchSeqMs = 0, BatchParMs = 0, BatchSpeedup = 0;
};

void runComparison(BenchReport &Report) {
  Report.Cores = std::max(1u, std::thread::hardware_concurrency());
  for (const corpus::CorpusProgram &C : corpus::corpus()) {
    (void)C;
    ++Report.BatchPrograms;
  }

  printHeader("Batch parallelism speedup",
              "in-process corpus batch at T=1 vs T=4");
  std::printf("host cores: %u (speedup floors apply only when cores >= "
              "threads)\n\n",
              Report.Cores);

  std::vector<double> Seq, Par;
  for (int I = 0; I < 3; ++I) {
    Seq.push_back(batchRun(1));
    Par.push_back(batchRun(kParThreads));
  }
  Report.BatchSeqMs = medianOf(Seq);
  Report.BatchParMs = medianOf(Par);
  Report.BatchSpeedup = Report.BatchSeqMs / std::max(Report.BatchParMs, 0.01);

  std::printf("%-22s %10s %10s %9s\n", "workload", "T=1 (ms)", "T=4 (ms)",
              "speedup");
  std::printf("%-22s %10.1f %10.1f %8.2fx\n", "batch (18 programs)",
              Report.BatchSeqMs, Report.BatchParMs, Report.BatchSpeedup);
  std::printf("\n");
}

bool writeParBenchJson(const std::string &Path, const BenchReport &R) {
  std::ofstream OS(Path);
  if (!OS) {
    std::fprintf(stderr, "error: cannot write parallel bench JSON to '%s'\n",
                 Path.c_str());
    return false;
  }
  OS << "{\"format\":\"mcpta-par-bench-v1\",\"tool_version\":\""
     << support::Telemetry::jsonEscape(version::kToolVersion)
     << "\",\"cores\":" << R.Cores << ",\"threads\":" << R.Threads
     << ",\"batch\":{\"programs\":" << R.BatchPrograms
     << ",\"seq_ms\":" << R.BatchSeqMs << ",\"par_ms\":" << R.BatchParMs
     << ",\"speedup\":" << R.BatchSpeedup << "}}\n";
  return bool(OS);
}

void BM_CorpusBatch(benchmark::State &State) {
  const unsigned Threads = unsigned(State.range(0));
  for (auto _ : State)
    benchmark::DoNotOptimize(batchRun(Threads));
}
BENCHMARK(BM_CorpusBatch)
    ->Arg(1)
    ->Arg(kParThreads)
    ->Unit(benchmark::kMillisecond);

} // namespace

int main(int argc, char **argv) {
  std::string ParJson = parBenchJsonPath(argc, argv);
  std::string StatsJson = mcpta::benchutil::statsJsonPath(argc, argv);
  BenchReport Report;
  runComparison(Report);
  if (!ParJson.empty() && !writeParBenchJson(ParJson, Report))
    return 1;
  if (!StatsJson.empty() &&
      !mcpta::benchutil::writeCorpusStatsJson(StatsJson, "parallel"))
    return 1;
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
