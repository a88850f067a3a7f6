//===- Layers.cpp - Spanned calls into the program's layers ---------------===//

#include "Layers.h"

#include "cfront/Lexer.h"

using namespace mcpta;
using namespace mcptabench;

Pipeline mcptabench::spannedFrontend(const std::string &Source, Tracer *T,
                                     uint64_t Op, uint64_t *Tokens) {
  Pipeline P;
  P.Ctx = std::make_unique<cfront::ASTContext>();
  std::vector<cfront::Token> Toks;
  {
    Tracer::Span S(T, "cfront.lex", Op);
    cfront::Lexer Lex(Source, P.Diags);
    Toks = Lex.lexAll();
  }
  if (Tokens)
    *Tokens += Toks.size();
  {
    Tracer::Span S(T, "cfront.parse", Op);
    cfront::Parser Par(std::move(Toks), *P.Ctx, P.Diags);
    P.Unit = Par.parseTranslationUnit();
  }
  if (P.Diags.hasErrors())
    return P;
  {
    Tracer::Span S(T, "simple.simplify", Op);
    simple::Simplifier Simp(*P.Unit, P.Diags);
    P.Prog = Simp.run();
  }
  return P;
}

pta::Analyzer::Result
mcptabench::spannedAnalyze(const simple::Program &Prog,
                           pta::Analyzer::Options Opts, Tracer *T, uint64_t Op,
                           AnalyzerTelemetry &Out) {
  support::Telemetry Telem(/*Enabled=*/true);
  Opts.Telem = &Telem;
  pta::Analyzer::Result Res;
  {
    Tracer::Span S(T, "pointsto.run", Op);
    Res = pta::Analyzer::run(Prog, Opts);
  }
  Out.Counters = Telem.countersSnapshot();
  Out.Gauges = Telem.gauges();
  Out.IgBuildMs = double(Telem.phaseUs("ig-build")) / 1000.0;
  Out.SolveMs = double(Telem.phaseUs("pointsto")) / 1000.0;
  return Res;
}

namespace {
/// Analyzer counters summed into per-layer count metrics.
const char *const SummedCounters[] = {
    "pta.stmt_visits",        "pta.body_analyses",
    "pta.memo_hits",          "pta.memo_misses",
    "pta.loop_iterations",    "pta.fixpoint_restarts",
    "pta.indirect_calls_resolved", "pta.set.kernel_calls",
    "pta.set.cow_detaches",   "mu.map_calls",
    "mu.unmap_calls",         "ig.nodes",
    "ig.nodes_created",
};
} // namespace

void AnalyzerCounts::add(const AnalyzerTelemetry &T, uint64_t Basic) {
  for (const char *Name : SummedCounters) {
    auto It = T.Counters.find(Name);
    C[Name] += It == T.Counters.end() ? 0 : It->second;
  }
  auto Gauge = [&T](const char *Name) -> uint64_t {
    auto It = T.Gauges.find(Name);
    return It == T.Gauges.end() ? 0 : It->second;
  };
  HeapPeak = std::max(HeapPeak, Gauge("mem.set_heap_bytes_peak"));
  Locations += Gauge("mem.location_table_locations");
  BasicStmts += Basic;
}

void AnalyzerCounts::report(Report &R) const {
  auto Get = [this](const char *Name) -> uint64_t {
    auto It = C.find(Name);
    return It == C.end() ? 0 : It->second;
  };
  R.layer("simple.basic_stmts", double(BasicStmts), "count");
  for (const char *Name : SummedCounters)
    if (std::string_view(Name) != "pta.memo_hits" &&
        std::string_view(Name) != "pta.memo_misses")
      R.layer(Name, double(Get(Name)), "count");
  uint64_t Hits = Get("pta.memo_hits"), Misses = Get("pta.memo_misses");
  R.layer("pta.memo_hit_ratio",
          Hits + Misses ? double(Hits) / double(Hits + Misses) : 0, "ratio");
  R.note(fmt("pta.memo_hit_ratio base: %llu hits / %llu lookups",
             static_cast<unsigned long long>(Hits),
             static_cast<unsigned long long>(Hits + Misses)));
  R.layer("mem.set_heap_bytes_peak", double(HeapPeak), "bytes");
  R.layer("mem.location_table_locations", double(Locations), "count");
}

void mcptabench::reportAnalyzerTimes(Report &R, const Tracer &T,
                                     const std::vector<double> &IgBuildMs,
                                     const std::vector<double> &SolveMs,
                                     uint64_t Tokens) {
  R.layer("cfront.lex_ms", T.medianPerOpMs("cfront.lex"), "ms");
  R.layer("cfront.parse_ms", T.medianPerOpMs("cfront.parse"), "ms");
  R.layer("simple.simplify_ms", T.medianPerOpMs("simple.simplify"), "ms");
  R.layer("pointsto.run_ms", T.medianPerOpMs("pointsto.run"), "ms");
  R.layer("pointsto.ig_build_ms", medianOf(IgBuildMs), "ms");
  R.layer("pointsto.solve_ms", medianOf(SolveMs), "ms");
  double LexMs = 0;
  for (const Tracer::LayerRow &Row : T.layerTable())
    if (Row.Name == "cfront.lex")
      LexMs = Row.TotalMs;
  R.layer("cfront.tokens_per_s", LexMs > 0 ? double(Tokens) / (LexMs / 1000.0)
                                           : 0,
          "1/s");
}

void mcptabench::finishTrace(Report &R, const Tracer &T, const Options &O) {
  std::vector<Tracer::LayerRow> Rows = T.layerTable();
  double AllSelf = 0;
  for (const Tracer::LayerRow &Row : Rows)
    AllSelf += Row.SelfMs;
  R.note(fmt("%-28s %8s %12s %12s %7s", "span (self time = span minus "
             "children)", "calls", "total ms", "self ms", "self %"));
  for (const Tracer::LayerRow &Row : Rows)
    R.note(fmt("%-28s %8llu %12.2f %12.2f %6.1f%%", Row.Name.c_str(),
               static_cast<unsigned long long>(Row.Calls), Row.TotalMs,
               Row.SelfMs, AllSelf > 0 ? 100.0 * Row.SelfMs / AllSelf : 0));
  if (O.TraceJson.empty())
    return;
  if (T.writeChromeTrace(O.TraceJson))
    R.note("chrome trace: " + O.TraceJson);
  else
    R.note("warning: cannot write chrome trace to " + O.TraceJson);
}

void mcptabench::reportOverhead(Report &R, const Samples &Traced,
                                const Samples &Untraced) {
  double U = Untraced.median();
  double Frac = U > 0 ? Traced.median() / U - 1.0 : 0;
  R.layer("trace.overhead_frac", Frac, "ratio");
  R.note(fmt("trace.overhead_frac base: traced p50 %.3f ms (%zu ops) vs "
             "untraced p50 %.3f ms (%zu ops)",
             Traced.median(), Traced.size(), U, Untraced.size()));
}
