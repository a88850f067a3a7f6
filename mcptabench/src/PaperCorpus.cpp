//===- PaperCorpus.cpp - The paper-corpus workload ------------------------===//
//
// The 17 Table-2 stand-ins, livc, and 16 programs generated from the
// seed. One op is one file taken through what `pta-tool --batch --stats`
// does on a cache miss: frontend, Analyzer::run, the statistics clients,
// capture and serialize. Files fan out over a support::ThreadPool of
// width 2; one round is the whole file set, and rounds repeat in a
// closed loop.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Layers.h"

#include "clients/GeneralStats.h"
#include "clients/IGStats.h"
#include "clients/IndirectRefStats.h"
#include "corpus/Corpus.h"
#include "interp/Interpreter.h"
#include "serve/Serialize.h"
#include "support/Telemetry.h"
#include "support/ThreadPool.h"
#include "wlgen/WorkloadGen.h"

using namespace mcpta;
using namespace mcptabench;

namespace {

constexpr unsigned kPoolWidth = 2;
/// Generated programs are drawn until one's analysis makes between these
/// many statement visits: a deterministic size band (about 2.5-5 ms per
/// op on the reference host), so the file mix, and with it the op
/// latency distribution, barely depends on the seed.
constexpr uint64_t kMinVisits = 2000;
constexpr uint64_t kMaxVisits = 4000;

struct Input {
  std::string Name;
  std::string Source;
  bool Generated = false;
};

std::vector<Input> makeInputs(uint64_t Seed) {
  std::vector<Input> In;
  for (const corpus::CorpusProgram &P : corpus::corpus())
    if (std::string_view(P.Name) != "incrstress")
      In.push_back({P.Name, P.Source, false});
  In.push_back({"livc", wlgen::livcSource(), false});
  Rng G(Seed);
  for (unsigned I = 0; I < 16; ++I) {
    const bool FnPtr = I < 8;
    for (;;) {
      wlgen::GenConfig C;
      C.Seed = G.next();
      C.NumFunctions = FnPtr ? 3 : 6;
      C.UseFunctionPointers = FnPtr;
      C.UseRecursion = true;
      std::string Src = wlgen::generateProgram(C);
      // The visit budget cuts oversized candidates short (they degrade).
      support::Telemetry T(/*Enabled=*/true);
      pta::Analyzer::Options Probe;
      Probe.Telem = &T;
      Probe.Limits.MaxStmtVisits = kMaxVisits;
      Pipeline P = Pipeline::analyzeSource(Src, Probe);
      if (!P.ok() || P.degraded() ||
          T.countersSnapshot()["pta.stmt_visits"] < kMinVisits)
        continue;
      In.push_back({fmt("gen-%s-%016llx", FnPtr ? "fnptr" : "rec",
                        static_cast<unsigned long long>(C.Seed)),
                    std::move(Src), true});
      break;
    }
  }
  return In;
}

/// One file through the --batch --stats miss path. Returns the result
/// blob ("" when the file failed to analyze).
std::string analyzeFile(const std::string &Src, Tracer *T, uint64_t Op,
                        int32_t Parent, std::vector<double> *IgBuildMs,
                        std::vector<double> *SolveMs, uint64_t *Tokens) {
  Tracer::Span OpSpan(T, "op", Op, Parent);
  Pipeline P = T ? spannedFrontend(Src, T, Op, Tokens)
                 : Pipeline::frontend(Src);
  if (!P.Prog)
    return "";
  pta::Analyzer::Options Opts;
  AnalyzerTelemetry AT;
  pta::Analyzer::Result Res = T ? spannedAnalyze(*P.Prog, Opts, T, Op, AT)
                                : pta::Analyzer::run(*P.Prog, Opts);
  if (!Res.Analyzed)
    return "";
  if (T) {
    IgBuildMs->push_back(AT.IgBuildMs);
    SolveMs->push_back(AT.SolveMs);
  }
  {
    Tracer::Span S(T, "clients.stats", Op);
    auto IR = clients::IndirectRefAnalysis::compute(*P.Prog, Res);
    auto GS = clients::GeneralStats::compute(*P.Prog, Res);
    auto IS = clients::IGStats::compute(*P.Prog, Res);
    (void)IR;
    (void)GS;
    (void)IS;
  }
  serve::ResultSnapshot Snap;
  {
    Tracer::Span S(T, "serve.capture", Op);
    Snap = serve::ResultSnapshot::capture(*P.Prog, Res,
                                          serve::optionsFingerprint(Opts));
  }
  Tracer::Span S(T, "serve.serialize", Op);
  return serve::serialize(Snap);
}

/// Per-round bookkeeping shared by the pool tasks.
struct RoundStats {
  std::mutex Mu;
  Samples OpMs;
  TimedSamples TimedOpMs; ///< OpMs tagged with the round's reference pass
  Samples QueueWaitMs;
  double BusyMs = 0;
  std::vector<double> IgBuildMs, SolveMs;
  uint64_t Tokens = 0;
};

} // namespace

int mcptabench::runPaperCorpus(const Options &O, Report &R) {
  std::map<std::string, std::string> Golden;
  std::string Error;
  if (!readGolden(O.GoldenDir + "/result-digests.txt", Golden, Error)) {
    R.note("error: " + Error);
    return 1;
  }

  support::ThreadPool Pool(kPoolWidth);
  uint64_t NextOp = 1;
  // Digest per file: the committed one for fixed programs; for generated
  // programs, the first round's.
  std::vector<std::string> Expected;
  std::vector<Input> Inputs;

  // One round over every file; returns its wall time in ms.
  auto Round = [&](Tracer *T, RoundStats &RS, bool Record,
                   std::vector<std::string> *Digests, size_t Pass) {
    Tracer::Span RoundSpan(T, "round", NextOp);
    int32_t Parent = RoundSpan.id();
    Clock::time_point T0 = Clock::now();
    for (size_t I = 0; I < Inputs.size(); ++I) {
      uint64_t Op = NextOp++;
      Clock::time_point Submitted = Clock::now();
      Pool.submit([&, I, Op, Submitted, Parent, Pass] {
        Clock::time_point Start = Clock::now();
        std::vector<double> Ig, Solve;
        uint64_t Tokens = 0;
        std::string Blob = analyzeFile(Inputs[I].Source, T, Op, Parent, &Ig,
                                       &Solve, &Tokens);
        double Ms = msSince(Start);
        std::string Digest = Blob.empty() ? "" : hexDigest(Blob);
        std::lock_guard<std::mutex> Lock(RS.Mu);
        if (Digests)
          (*Digests)[I] = Digest;
        if (!Record)
          return;
        ++R.Attempted;
        if (Digest.empty() || Digest != Expected[I]) {
          ++R.Failed;
          R.fail("paper-corpus " + Inputs[I].Name + ": " +
                 (Digest.empty() ? "analysis failed"
                                 : "digest " + Digest + " != " + Expected[I]));
          return;
        }
        RS.OpMs.add(Ms);
        RS.TimedOpMs.add(Ms, Pass);
        RS.QueueWaitMs.add(
            std::chrono::duration<double, std::milli>(Start - Submitted)
                .count());
        RS.BusyMs += Ms;
        RS.IgBuildMs.insert(RS.IgBuildMs.end(), Ig.begin(), Ig.end());
        RS.SolveMs.insert(RS.SolveMs.end(), Solve.begin(), Solve.end());
        RS.Tokens += Tokens;
      });
    }
    Pool.wait();
    return msSince(T0);
  };

  // Set-up, three times: generate the inputs and run one warm-up round.
  HostSpeed Speed;
  TimedSamples SetupMs;
  for (int I = 0; I < 3; ++I) {
    size_t Pass = Speed.sample();
    Clock::time_point T0 = Clock::now();
    Inputs = makeInputs(O.Seed);
    Expected.assign(Inputs.size(), "");
    RoundStats Warm;
    Round(nullptr, Warm, /*Record=*/false, &Expected, Pass);
    SetupMs.add(msSince(T0), Pass);
  }
  std::string All;
  for (const Input &In : Inputs)
    All += In.Name + "\n" + In.Source + "\n";
  R.note(fmt("inputs: %zu files (17 Table-2 stand-ins, livc, 16 generated "
             "from seed %llu), digest %s",
             Inputs.size(), static_cast<unsigned long long>(O.Seed),
             hexDigest(All).c_str()));

  Tracer Tr;
  RoundStats Untraced, Traced;
  TimedSamples UntracedRounds; // wall time of each untraced round
  double UntracedWallMs = 0, TracedWallMs = 0;
  uint64_t Rounds = 0;
  while (UntracedWallMs + TracedWallMs < O.Seconds * 1000.0 ||
         (O.Trace && Traced.OpMs.size() == 0)) {
    // The traced run alternates traced and untraced rounds.
    bool T = O.Trace && (Rounds % 2 == 1);
    size_t Pass = Speed.sample();
    double Wall = Round(T ? &Tr : nullptr, T ? Traced : Untraced,
                        /*Record=*/true, nullptr, Pass);
    (T ? TracedWallMs : UntracedWallMs) += Wall;
    if (!T)
      UntracedRounds.add(Wall, Pass);
    ++Rounds;
  }
  Speed.sample(); // the pass after the last round
  double PeakMiB = double(support::peakRssKb()) / 1024.0;

  // Output checks, outside the timed window: fixed programs against the
  // committed digests (the first round's digests were compared with every
  // later round above); generated programs against the interpreter
  // oracle (Def. 3.3).
  for (size_t I = 0; I < Inputs.size(); ++I) {
    if (!Inputs[I].Generated) {
      auto It = Golden.find(Inputs[I].Name);
      if (It == Golden.end() || It->second != Expected[I])
        R.fail("paper-corpus " + Inputs[I].Name + ": digest " + Expected[I] +
               " != recorded " +
               (It == Golden.end() ? std::string("(none)") : It->second));
      continue;
    }
    Pipeline P = Pipeline::analyzeSource(Inputs[I].Source);
    interp::RunResult RR =
        interp::runAndCheck(*P.Prog, P.Analysis, interp::InterpOptions());
    if (!RR.Completed || !RR.Violations.empty() || !RR.Error.empty())
      R.fail("paper-corpus " + Inputs[I].Name + ": interpreter oracle: " +
             (RR.Violations.empty() ? RR.Error : RR.Violations.front()));
  }

  R.e2e("setup_s", SetupMs.scaled(Speed).median() / 1000.0, "s");
  R.latency("analyze", Untraced.TimedOpMs.scaled(Speed));
  R.e2e("throughput_ops_s",
        double(Untraced.OpMs.size()) /
            (UntracedRounds.scaledSumMs(Speed) / 1000.0),
        "ops/s");
  R.e2e("peak_rss_mb", PeakMiB, "MiB");
  R.note(Speed.describe());
  R.note(fmt("unscaled: setup_s %.4f, analyze_p50_ms %.4f, "
             "throughput_ops_s %.3f",
             SetupMs.raw().median() / 1000.0, Untraced.OpMs.median(),
             double(Untraced.OpMs.size()) / (UntracedWallMs / 1000.0)));
  R.note(fmt("pool.queue_wait_ms %.3f (p50 over %zu tasks), pool.busy_frac "
             "base: %.1f ms busy / (%u x %.1f ms wall)",
             Untraced.QueueWaitMs.median(), Untraced.QueueWaitMs.size(),
             Untraced.BusyMs, kPoolWidth, UntracedWallMs));
  if (!O.Trace)
    return 0;

  reportAnalyzerTimes(R, Tr, Traced.IgBuildMs, Traced.SolveMs, Traced.Tokens);
  R.layer("clients.stats_ms", Tr.medianPerOpMs("clients.stats"), "ms");
  R.layer("serve.capture_ms", Tr.medianPerOpMs("serve.capture"), "ms");
  R.layer("serve.serialize_ms", Tr.medianPerOpMs("serve.serialize"), "ms");
  R.layer("pool.queue_wait_ms", Untraced.QueueWaitMs.median(), "ms");
  R.layer("pool.busy_frac",
          Untraced.BusyMs / (kPoolWidth * UntracedWallMs), "ratio");

  // Counts: one sequential pass over the file set, so counters that the
  // analyzer keeps process-wide are not mixed between pool threads.
  AnalyzerCounts Counts;
  uint64_t BlobBytes = 0;
  for (const Input &In : Inputs) {
    Pipeline P = Pipeline::frontend(In.Source);
    AnalyzerTelemetry AT;
    pta::Analyzer::Options Opts;
    pta::Analyzer::Result Res = spannedAnalyze(*P.Prog, Opts, nullptr, 0, AT);
    Counts.add(AT, P.Prog->numBasicStmts());
    BlobBytes += serve::serialize(serve::ResultSnapshot::capture(
                                      *P.Prog, Res,
                                      serve::optionsFingerprint(Opts)))
                     .size();
  }
  Counts.report(R);
  R.layer("serve.blob_bytes", double(BlobBytes), "bytes");
  reportOverhead(R, Traced.OpMs, Untraced.OpMs);
  finishTrace(R, Tr, O);
  return 0;
}
