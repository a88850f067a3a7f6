//===- DeepContexts.cpp - The deep-contexts workload ----------------------===//
//
// One op is `pta-tool file.c` on incrstress: Pipeline::frontend, then
// Analyzer::run with default options. One caller in a closed loop. This
// is the paper's exponential-context worst case, where the points-to
// kernel does nearly all the work.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Layers.h"

#include "corpus/Corpus.h"
#include "serve/Serialize.h"
#include "support/Telemetry.h"

using namespace mcpta;
using namespace mcptabench;

namespace {

/// A cheap per-op signature of the result: every op must agree with the
/// first, whose bytes are checked against the committed digest.
std::string signature(const pta::Analyzer::Result &Res) {
  return fmt("body=%u loops=%u memo=%u main_out=%zu locs=%u ig=%u",
             Res.BodyAnalyses, Res.LoopIterations, Res.MemoHits,
             Res.MainOut ? Res.MainOut->size() : size_t(0),
             Res.Locs ? Res.Locs->numLocations() : 0u,
             Res.IG ? Res.IG->numNodes() : 0u);
}

struct DeepOp {
  DeepOp(const std::string &Src, Report &R) : Src(Src), R(R) {}

  const std::string &Src;
  Report &R;
  std::string FirstSig;
  // Traced-run state.
  Tracer *T = nullptr;
  AnalyzerCounts Counts;
  bool Counted = false;
  std::vector<double> IgBuildMs, SolveMs;
  uint64_t Tokens = 0;

  /// Runs one op; returns its latency in ms, or a negative value when it
  /// failed.
  double run(uint64_t OpId, bool Traced) {
    Tracer *Tr = Traced ? T : nullptr;
    std::string Sig;
    bool Ok = false;
    Clock::time_point T0 = Clock::now();
    {
      Tracer::Span OpSpan(Tr, "op", OpId);
      Pipeline P = Traced ? spannedFrontend(Src, Tr, OpId, &Tokens)
                          : Pipeline::frontend(Src);
      if (P.Prog) {
        pta::Analyzer::Options Opts;
        AnalyzerTelemetry AT;
        pta::Analyzer::Result Res =
            Traced ? spannedAnalyze(*P.Prog, Opts, Tr, OpId, AT)
                   : pta::Analyzer::run(*P.Prog, Opts);
        Ok = Res.Analyzed && !Res.degraded();
        Sig = signature(Res);
        if (Traced) {
          IgBuildMs.push_back(AT.IgBuildMs);
          SolveMs.push_back(AT.SolveMs);
          if (!Counted) {
            Counts.add(AT, P.Prog->numBasicStmts());
            Counted = true;
          }
        }
      }
    }
    double Ms = msSince(T0);
    ++R.Attempted;
    if (FirstSig.empty())
      FirstSig = Sig;
    if (!Ok || Sig != FirstSig) {
      ++R.Failed;
      R.fail("deep-contexts op " + std::to_string(OpId) + ": " +
             (Ok ? "result differs (" + Sig + ")" : "analysis failed"));
      return -1;
    }
    return Ms;
  }
};

} // namespace

int mcptabench::runDeepContexts(const Options &O, Report &R) {
  std::map<std::string, std::string> Golden;
  std::string Error;
  if (!readGolden(O.GoldenDir + "/result-digests.txt", Golden, Error)) {
    R.note("error: " + Error);
    return 1;
  }

  // Set-up, three times: input generation and one warm-up op.
  HostSpeed Speed;
  std::string Src;
  TimedSamples SetupMs;
  uint64_t NextOp = 1;
  Report Warm; // warm-up ops are not part of the measured counts
  for (int I = 0; I < 3; ++I) {
    size_t Pass = Speed.sample();
    Clock::time_point T0 = Clock::now();
    const corpus::CorpusProgram *CP = corpus::find("incrstress");
    if (!CP) {
      R.note("error: corpus program 'incrstress' missing");
      return 1;
    }
    Src = CP->Source;
    DeepOp W(Src, Warm);
    W.run(NextOp++, /*Traced=*/false);
    SetupMs.add(msSince(T0), Pass);
  }
  R.note(fmt("inputs: incrstress (%zu bytes), digest %s; the seed does not "
             "change this workload's input",
             Src.size(), hexDigest(Src).c_str()));

  Tracer Tr;
  DeepOp Op(Src, R);
  Op.T = &Tr;
  Samples Untraced, Traced;
  TimedSamples Timed; // the untraced ops, for the end-to-end metrics
  double MeasuredMs = 0;
  uint64_t Completed = 0;
  for (uint64_t I = 0; MeasuredMs < O.Seconds * 1000.0 ||
                       (O.Trace && Traced.size() < 2);
       ++I) {
    // The traced run alternates traced and untraced ops, so the tracing
    // overhead is measured under the same conditions.
    bool T = O.Trace && (I % 2 == 1);
    size_t Pass = Speed.sample();
    double Ms = Op.run(NextOp++, T);
    if (Ms < 0)
      continue;
    MeasuredMs += Ms;
    ++Completed;
    (T ? Traced : Untraced).add(Ms);
    if (!T)
      Timed.add(Ms, Pass);
  }
  Speed.sample(); // the pass after the last op
  double PeakMiB = double(support::peakRssKb()) / 1024.0;

  // Output check, outside the timed window: the result bytes of this
  // commit's analysis equal the digest recorded with the benchmark.
  {
    Pipeline P = Pipeline::analyzeSource(Src);
    std::string Digest =
        P.ok() ? hexDigest(serve::serialize(serve::ResultSnapshot::capture(
                     *P.Prog, P.Analysis,
                     serve::optionsFingerprint(pta::Analyzer::Options()))))
               : "analysis-failed";
    auto It = Golden.find("incrstress");
    if (It == Golden.end() || It->second != Digest)
      R.fail("incrstress result digest " + Digest + " != recorded " +
             (It == Golden.end() ? std::string("(none)") : It->second));
  }

  R.e2e("setup_s", SetupMs.scaled(Speed).median() / 1000.0, "s");
  R.latency("analyze", Timed.scaled(Speed));
  R.e2e("throughput_ops_s",
        double(Timed.size()) / (Timed.scaledSumMs(Speed) / 1000.0), "ops/s");
  R.e2e("peak_rss_mb", PeakMiB, "MiB");
  R.note(Speed.describe());
  R.note(fmt("unscaled: setup_s %.4f, analyze_p50_ms %.3f, "
             "throughput_ops_s %.4f",
             SetupMs.raw().median() / 1000.0, Untraced.median(),
             double(Completed) / (MeasuredMs / 1000.0)));
  if (O.Trace) {
    reportAnalyzerTimes(R, Tr, Op.IgBuildMs, Op.SolveMs, Op.Tokens);
    Op.Counts.report(R);
    reportOverhead(R, Traced, Untraced);
    finishTrace(R, Tr, O);
  }
  return 0;
}
