//===- main.cpp - The mcpta benchmark entry point -------------------------===//
//
// Usage:
//   mcptabench --workload NAME --seed N --seconds S --trace 0|1
//              --golden DIR [--trace-json FILE]
//   mcptabench --print-digests
//
// Runs one workload (deep-contexts, paper-corpus, serve-session), prints
// every metric by name with its unit, then one JSON object as the last
// line: {"correct", "attempted", "failed", "metrics"}. The metrics are
// the end-to-end set with --trace 0 and the per-layer set with --trace 1
// (see mcptabench/README.md). --print-digests prints the result digests
// of the fixed programs, the content of golden/result-digests.txt.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "corpus/Corpus.h"
#include "driver/Pipeline.h"
#include "serve/Serialize.h"
#include "wlgen/WorkloadGen.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>

using namespace mcpta;
using namespace mcptabench;

namespace {

/// A metric the JSON line carries, with its unit (BENCHMARK.json).
struct Declared {
  const char *Name;
  const char *Unit;
};

/// The end-to-end metrics of every workload, in output order.
const Declared EndToEnd[] = {
    {"setup_s", "s"},           {"analyze_p50_ms", "ms"},
    {"analyze_tail_ms", "ms"},  {"throughput_ops_s", "ops/s"},
    {"peak_rss_mb", "MiB"},
};

/// The per-layer metrics the traced run reports for every workload.
/// Counts of a layer a workload does not exercise read 0; every timing
/// here is exercised by all three workloads. Layer timings only some
/// workloads exercise are printed above the JSON line.
const Declared PerLayer[] = {
    {"cfront.lex_ms", "ms"},
    {"cfront.parse_ms", "ms"},
    {"cfront.tokens_per_s", "1/s"},
    {"simple.simplify_ms", "ms"},
    {"simple.basic_stmts", "count"},
    {"pointsto.run_ms", "ms"},
    {"pointsto.ig_build_ms", "ms"},
    {"pointsto.solve_ms", "ms"},
    {"pta.stmt_visits", "count"},
    {"pta.body_analyses", "count"},
    {"pta.memo_hit_ratio", "ratio"},
    {"pta.loop_iterations", "count"},
    {"pta.fixpoint_restarts", "count"},
    {"pta.indirect_calls_resolved", "count"},
    {"pta.set.kernel_calls", "count"},
    {"pta.set.cow_detaches", "count"},
    {"mu.map_calls", "count"},
    {"mu.unmap_calls", "count"},
    {"ig.nodes", "count"},
    {"ig.nodes_created", "count"},
    {"mem.set_heap_bytes_peak", "bytes"},
    {"mem.location_table_locations", "count"},
    {"serve.blob_bytes", "bytes"},
    {"cache.hit_ratio", "ratio"},
    {"cache.evictions", "count"},
    {"incr.dirty_functions", "count"},
    {"incr.memo_reuse", "count"},
    {"incr.seed_hits", "count"},
    {"incr.fallbacks", "count"},
    {"demand.relevance_passes", "count"},
    {"demand.relevance_edges", "count"},
    {"demand.visited_stmts", "count"},
    {"demand.answered_ratio", "ratio"},
    {"pool.busy_frac", "ratio"},
    {"trace.overhead_frac", "ratio"},
};

void usage() {
  std::fprintf(stderr,
               "usage: mcptabench --workload deep-contexts|paper-corpus|"
               "serve-session --seed N --seconds S --trace 0|1 --golden DIR "
               "[--trace-json FILE]\n"
               "       mcptabench --print-digests\n");
}

/// Prints the digests of the programs whose result bytes are fixed.
int printDigests() {
  std::vector<std::pair<std::string, std::string>> Programs;
  for (const corpus::CorpusProgram &P : corpus::corpus())
    Programs.emplace_back(P.Name, P.Source);
  Programs.emplace_back("livc", wlgen::livcSource());
  std::printf("# mcpta-result-v3 digests (FNV-1a 64 of the serialized "
              "result, default options)\n");
  for (const auto &[Name, Src] : Programs) {
    Pipeline P = Pipeline::analyzeSource(Src);
    if (!P.ok()) {
      std::fprintf(stderr, "error: %s does not analyze\n", Name.c_str());
      return 1;
    }
    std::string Blob = serve::serialize(serve::ResultSnapshot::capture(
        *P.Prog, P.Analysis,
        serve::optionsFingerprint(pta::Analyzer::Options())));
    std::printf("%s %s\n", Name.c_str(), hexDigest(Blob).c_str());
  }
  return 0;
}

/// A finite number printed with all its digits.
std::string number(double V) {
  if (!std::isfinite(V))
    return "0";
  return fmt("%.17g", V);
}

} // namespace

int main(int argc, char **argv) {
  Options O;
  bool HaveWorkload = false, HaveSeed = false, HaveSeconds = false,
       HaveTrace = false;
  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    if (Arg == "--print-digests")
      return printDigests();
    if (I + 1 >= argc) {
      usage();
      return 2;
    }
    std::string Val = argv[++I];
    char *End = nullptr;
    if (Arg == "--workload") {
      O.Workload = Val;
      HaveWorkload = true;
    } else if (Arg == "--seed") {
      O.Seed = std::strtoull(Val.c_str(), &End, 10);
      HaveSeed = End && *End == '\0' && !Val.empty();
    } else if (Arg == "--seconds") {
      O.Seconds = std::strtod(Val.c_str(), &End);
      HaveSeconds = End && *End == '\0' && O.Seconds > 0 && O.Seconds <= 600;
    } else if (Arg == "--trace") {
      O.Trace = Val == "1";
      HaveTrace = Val == "0" || Val == "1";
    } else if (Arg == "--golden") {
      O.GoldenDir = Val;
    } else if (Arg == "--trace-json") {
      O.TraceJson = Val;
    } else {
      usage();
      return 2;
    }
  }
  if (!HaveWorkload || !HaveSeed || !HaveSeconds || !HaveTrace ||
      O.GoldenDir.empty()) {
    usage();
    return 2;
  }

  Report R;
  int Code = 0;
  if (O.Workload == "deep-contexts")
    Code = runDeepContexts(O, R);
  else if (O.Workload == "paper-corpus")
    Code = runPaperCorpus(O, R);
  else if (O.Workload == "serve-session")
    Code = runServeSession(O, R);
  else {
    usage();
    return 2;
  }
  std::printf("workload %s, seed %llu, %.1f s measured, trace %d\n",
              O.Workload.c_str(), static_cast<unsigned long long>(O.Seed),
              O.Seconds, O.Trace ? 1 : 0);
  for (const std::string &N : R.Notes)
    std::printf("%s\n", N.c_str());
  if (Code != 0) {
    std::fprintf(stderr, "error: workload %s did not run\n",
                 O.Workload.c_str());
    return Code;
  }
  double FailedFrac =
      R.Attempted ? double(R.Failed) / double(R.Attempted) : 1.0;
  std::printf("failed_frac %.6f ratio (%llu failed / %llu attempted)\n",
              FailedFrac, static_cast<unsigned long long>(R.Failed),
              static_cast<unsigned long long>(R.Attempted));
  for (const std::string &F : R.Failures)
    std::printf("check failed: %s\n", F.c_str());

  // Every metric, by name with its unit; the JSON line carries the set
  // the mode defines.
  std::map<std::string, Metric> All;
  for (const Metric &M : R.EndToEnd)
    All[M.Name] = M;
  for (const Metric &M : R.PerLayer)
    All[M.Name] = M;
  std::vector<Declared> Names;
  if (O.Trace)
    Names.assign(std::begin(PerLayer), std::end(PerLayer));
  else
    Names.assign(std::begin(EndToEnd), std::end(EndToEnd));
  for (const Declared &D : Names) {
    auto It = All.find(D.Name);
    if (It != All.end() && It->second.Unit != D.Unit) {
      std::fprintf(stderr, "error: %s reported in %s, declared in %s\n",
                   D.Name, It->second.Unit.c_str(), D.Unit);
      return 1;
    }
    if (It != All.end())
      continue;
    // Only counts and ratios of a layer the workload does not exercise
    // may be absent; a missing timing is a benchmark bug.
    std::string_view Unit = D.Unit;
    if (!O.Trace || Unit == "ms" || Unit == "s" || Unit == "1/s") {
      std::fprintf(stderr, "error: workload did not report %s\n", D.Name);
      return 1;
    }
    All[D.Name] = {D.Name, 0, D.Unit};
    std::printf("%s: layer not exercised by this workload (0)\n", D.Name);
  }
  for (const auto &[Name, M] : All)
    std::printf("metric %-34s %16.6f %s\n", Name.c_str(), M.Value,
                M.Unit.c_str());

  std::string Json = fmt("{\"correct\": %s, \"attempted\": %llu, \"failed\": "
                         "%llu, \"metrics\": {",
                         R.Correct && R.Failed == 0 ? "true" : "false",
                         static_cast<unsigned long long>(R.Attempted),
                         static_cast<unsigned long long>(R.Failed));
  for (size_t I = 0; I < Names.size(); ++I) {
    const Metric &M = All[Names[I].Name];
    Json += fmt("%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}", I ? ", " : "",
                M.Name.c_str(), number(M.Value).c_str(), M.Unit.c_str());
  }
  Json += "}}";
  std::printf("%s\n", Json.c_str());
  return 0;
}
