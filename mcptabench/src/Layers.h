//===- Layers.h - Spanned calls into the program's layers -------*- C++ -*-===//
//
// Part of the mcpta project (PLDI'94 points-to analysis reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The traced run's view of the frontend and the analyzer: the same
/// public calls Pipeline::frontend and Pipeline::analyzeSource make, one
/// span per layer, plus the analyzer's own counters and phase times read
/// from a per-run Telemetry (the stats export of
/// Pipeline::analyzeSourceTraced). Also the per-layer count table shared
/// by the workloads.
///
//===----------------------------------------------------------------------===//

#ifndef MCPTABENCH_LAYERS_H
#define MCPTABENCH_LAYERS_H

#include "Bench.h"

#include "driver/Pipeline.h"

#include <map>
#include <string>

namespace mcptabench {

/// Lex, parse and simplify \p Source through cfront::Lexer,
/// cfront::Parser and simple::Simplifier, one span each. Adds the token
/// count to \p Tokens when non-null.
mcpta::Pipeline spannedFrontend(const std::string &Source, Tracer *T,
                                uint64_t Op, uint64_t *Tokens = nullptr);

/// What one instrumented Analyzer::run reported.
struct AnalyzerTelemetry {
  std::map<std::string, uint64_t, std::less<>> Counters;
  std::map<std::string, uint64_t, std::less<>> Gauges;
  double IgBuildMs = 0; ///< the analyzer's "ig-build" phase span
  double SolveMs = 0;   ///< the analyzer's "pointsto" phase span
};

/// Analyzer::run under a "pointsto.run" span with a private enabled
/// Telemetry attached, whose counters, gauges and phase times land in
/// \p Out.
mcpta::pta::Analyzer::Result
spannedAnalyze(const mcpta::simple::Program &Prog,
               mcpta::pta::Analyzer::Options Opts, Tracer *T, uint64_t Op,
               AnalyzerTelemetry &Out);

/// Sums of the analyzer counts over a fixed set of runs (the per-layer
/// count metrics). Gauges fold as: peaks take the maximum, table sizes
/// add.
class AnalyzerCounts {
public:
  void add(const AnalyzerTelemetry &T, uint64_t BasicStmts);
  /// Adds the analyzer-layer count metrics to \p R.
  void report(Report &R) const;

private:
  std::map<std::string, uint64_t> C;
  uint64_t HeapPeak = 0;
  uint64_t Locations = 0;
  uint64_t BasicStmts = 0;
};

/// Adds the frontend/analyzer timing metrics every workload reports:
/// per-op medians of the lex/parse/simplify/pointsto.run spans, the
/// analyzer's ig-build/pointsto phases, and the lexer's token rate.
void reportAnalyzerTimes(Report &R, const Tracer &T,
                         const std::vector<double> &IgBuildMs,
                         const std::vector<double> &SolveMs, uint64_t Tokens);

/// Prints the traced run's per-layer self-time table into \p R's notes
/// and writes the Chrome trace when the options name a file.
void finishTrace(Report &R, const Tracer &T, const Options &O);

/// Reports trace.overhead_frac from the traced and untraced op latencies
/// measured in the same run.
void reportOverhead(Report &R, const Samples &Traced, const Samples &Untraced);

} // namespace mcptabench

#endif // MCPTABENCH_LAYERS_H
