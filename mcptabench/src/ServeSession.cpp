//===- ServeSession.cpp - The serve-session workload ----------------------===//
//
// One client in a closed loop calls Server::handleLine on an in-process
// daemon (one worker, memory-only cache, default options). Set-up runs a
// cold analyze of incrstress. Each cycle then sends an incremental
// analyze of a seeded single-function edit of the base source, three
// snapshot queries addressed by the returned key, and the two demand
// queries that ask the same questions as the first two snapshot queries.
//
// The traced run spans each handleLine call by request class, reads the
// daemon's stats counters after a fixed number of cycles, and replays
// those cycles' inner public calls (frontend, Analyzer::run, capture,
// serialize, IncrementalEngine::reanalyze, SummaryCache store/lookup,
// DemandEngine) to attribute time per layer.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Layers.h"

#include "corpus/Corpus.h"
#include "demand/DemandQuery.h"
#include "incr/IncrementalEngine.h"
#include "serve/Json.h"
#include "serve/Serialize.h"
#include "serve/Server.h"
#include "serve/SummaryCache.h"
#include "support/Telemetry.h"
#include "support/ThreadPool.h"
#include "wlgen/WorkloadGen.h"

#include <set>
#include <sstream>

using namespace mcpta;
using namespace mcptabench;

namespace {

/// Cycles whose daemon counters and inner calls the traced run reports.
/// A fixed count, so every count metric repeats exactly across runs.
constexpr unsigned kTracedCycles = 3;
/// Threads that re-analyze each edit from scratch after the timed window.
constexpr unsigned kCheckThreads = 3;
/// peak_rss_mb is read after this many cycles: the daemon's cache grows
/// with every distinct edit until its LRU bound, so a later reading
/// would grow with throughput.
constexpr unsigned kRssCycles = 8;

/// RemoveAssignment is left out: on incrstress it falls back to a full
/// re-analysis, which would make edit latency bimodal.
const wlgen::MutationKind EditKinds[] = {
    wlgen::MutationKind::RenameLocal, wlgen::MutationKind::TweakConstant,
    wlgen::MutationKind::AddAssignment, wlgen::MutationKind::AddCall};

std::string trim(const std::string &S) {
  size_t B = S.find_first_not_of(" \t");
  size_t E = S.find_last_not_of(" \t\r");
  return B == std::string::npos ? "" : S.substr(B, E - B + 1);
}

/// Pointer locals declared in main's body (`T *name;` lines).
std::vector<std::string> mainPointerLocals(const std::string &Src) {
  std::vector<std::string> Out;
  size_t Pos = Src.find("\nint main(");
  if (Pos == std::string::npos)
    return Out;
  std::istringstream In(Src.substr(Pos + 1));
  std::string Line;
  std::getline(In, Line); // the signature
  while (std::getline(In, Line) && Line != "}") {
    std::string T = trim(Line);
    size_t Star = T.rfind('*');
    if (T.empty() || T.back() != ';' || Star == std::string::npos ||
        T.find_first_of("=()") != std::string::npos)
      continue;
    Out.push_back(trim(T.substr(Star + 1, T.size() - Star - 2)));
  }
  return Out;
}

/// Names of the functions defined at the start of a line (`T name(...) {`).
std::vector<std::string> definedFunctions(const std::string &Src) {
  std::vector<std::string> Out;
  std::istringstream In(Src);
  std::string Line;
  while (std::getline(In, Line)) {
    if (Line.empty() || Line[0] == ' ' || Line.back() != '{')
      continue;
    size_t Paren = Line.find('(');
    size_t Space = Line.rfind(' ', Paren);
    if (Paren == std::string::npos || Space == std::string::npos)
      continue;
    Out.push_back(Line.substr(Space + 1, Paren - Space - 1));
  }
  return Out;
}

std::string quoted(const std::string &S) {
  return "\"" + support::Telemetry::jsonEscape(S) + "\"";
}

/// One cycle's requests and what its checks need.
struct Cycle {
  std::string Edit;  ///< the edited source
  std::string Label; ///< mutation kind and salt
  std::string N1, N2, Fn; ///< query names and the read/write-set function
};

/// The seeded request stream. Edits are distinct (a repeat would be a
/// cache hit, not an edit) and always apply to the base source.
class CycleGen {
public:
  CycleGen(const std::string &Base, uint64_t Seed) : Base(Base), G(Seed) {}

  Cycle next() {
    Cycle C;
    for (;;) {
      wlgen::MutationKind K = EditKinds[G.below(std::size(EditKinds))];
      uint64_t Salt = G.below(1u << 20);
      C.Edit = wlgen::mutateSource(Base, K, Salt);
      C.Label = fmt("%s/%llu", wlgen::mutationKindName(K),
                    static_cast<unsigned long long>(Salt));
      if (C.Edit != Base && Seen.insert(hexDigest(C.Edit)).second)
        break;
    }
    std::vector<std::string> Locals = mainPointerLocals(C.Edit);
    std::vector<std::string> Fns = definedFunctions(C.Edit);
    if (Locals.empty() || Fns.empty()) {
      C.N1 = C.N2 = C.Fn = "";
      return C;
    }
    C.N1 = Locals[G.below(Locals.size())];
    C.N2 = Locals[G.below(Locals.size())];
    C.Fn = Fns[G.below(Fns.size())];
    return C;
  }

private:
  const std::string &Base;
  Rng G;
  std::set<std::string> Seen;
};

enum class Class { Edit, SnapshotQuery, DemandQuery };
const char *className(Class C) {
  switch (C) {
  case Class::Edit:
    return "edit";
  case Class::SnapshotQuery:
    return "snapshot_query";
  case Class::DemandQuery:
    return "demand_query";
  }
  return "?";
}

/// A points_to answer rendered canonically ("x:D,y:P"), or the aliased
/// bit, for comparing a demand answer with the snapshot answer.
std::string answerOf(const serve::JsonValue &Resp) {
  if (const serve::JsonValue *A = Resp.find("aliased"))
    return A->asBool() ? "aliased" : "not-aliased";
  std::string Out;
  if (const serve::JsonValue *T = Resp.find("targets"))
    for (const serve::JsonValue &E : T->elements())
      Out += E.getString("target") + (E.getBool("definite") ? ":D," : ":P,");
  return Out;
}

/// One scratch pipeline run: the bytes a from-scratch analysis of \p Src
/// serializes to, with optional spans for the replay.
struct Scratch {
  std::string Digest;
  serve::ResultSnapshot Snap;
  uint64_t BasicStmts = 0;
};

Scratch scratchAnalyze(const std::string &Src, Tracer *T, uint64_t Op,
                       AnalyzerTelemetry *AT, uint64_t *Tokens) {
  Scratch S;
  Pipeline P = spannedFrontend(Src, T, Op, Tokens);
  if (!P.Prog)
    return S;
  S.BasicStmts = P.Prog->numBasicStmts();
  pta::Analyzer::Options Opts;
  AnalyzerTelemetry Local;
  pta::Analyzer::Result Res =
      spannedAnalyze(*P.Prog, Opts, T, Op, AT ? *AT : Local);
  if (!Res.Analyzed)
    return S;
  {
    Tracer::Span Sp(T, "serve.capture", Op);
    S.Snap = serve::ResultSnapshot::capture(*P.Prog, Res,
                                            serve::optionsFingerprint(Opts));
  }
  Tracer::Span Sp(T, "serve.serialize", Op);
  S.Digest = hexDigest(serve::serialize(S.Snap));
  return S;
}

uint64_t counter(const serve::JsonValue &Counters, const std::string &Name) {
  return static_cast<uint64_t>(Counters.getNumber(Name, 0));
}

} // namespace

int mcptabench::runServeSession(const Options &O, Report &R) {
  const corpus::CorpusProgram *CP = corpus::find("incrstress");
  if (!CP) {
    R.note("error: corpus program 'incrstress' missing");
    return 1;
  }
  std::ostringstream Log; // the daemon's operational log
  bool Shutdown = false;
  uint64_t NextId = 1;

  // Set-up, three times: input generation, a fresh daemon and a cold
  // analyze of the base source.
  HostSpeed Speed;
  std::string Base;
  std::unique_ptr<serve::Server> Srv;
  TimedSamples SetupMs;
  for (int I = 0; I < 3; ++I) {
    size_t Pass = Speed.sample();
    Clock::time_point T0 = Clock::now();
    Base = CP->Source;
    serve::Server::Config Cfg;
    Cfg.Cache.Dir = "";
    Cfg.Threads = 1;
    Srv = std::make_unique<serve::Server>(Cfg);
    std::string Resp = Srv->handleLine(
        fmt("{\"id\":%llu,\"method\":\"analyze\",\"source\":",
            static_cast<unsigned long long>(NextId++)) +
            quoted(Base) + "}",
        Shutdown, Log);
    serve::JsonValue J;
    std::string Err;
    if (!serve::parseJson(Resp, J, Err) || !J.getBool("ok")) {
      R.note("error: cold analyze failed: " + Resp.substr(0, 200));
      return 1;
    }
    SetupMs.add(msSince(T0), Pass);
  }

  CycleGen Gen(Base, O.Seed);
  Tracer Tr;
  std::map<Class, Samples> Lat, TracedLat;
  std::map<Class, TimedSamples> Timed; // Lat, for the end-to-end metrics
  double MeasuredMs = 0;
  uint64_t Requests = 0, Fallbacks = 0;
  std::vector<Cycle> Cycles;
  std::vector<std::string> ServerDigests;
  // The checks' own lookups in the daemon's cache (each one a hit), in
  // total and when the traced run read the daemon's counters.
  uint64_t BenchLookups = 0, StatsBenchLookups = 0;
  std::string InputDigests;
  serve::JsonValue StatsCounters;
  std::string Err;
  double PeakMiB = 0;

  auto ServerDigest = [&](size_t CycleIdx, const std::string &Key) {
    // const_cast: the daemon owns a non-const cache; lookup only bumps
    // its recency stamp and hit counters.
    auto Snap = const_cast<serve::SummaryCache &>(Srv->cache()).lookup(Key);
    ++BenchLookups;
    ServerDigests[CycleIdx] =
        Snap ? hexDigest(serve::serialize(*Snap)) : "missing-from-cache";
  };

  for (uint64_t CycleNo = 0;
       MeasuredMs < O.Seconds * 1000.0 || CycleNo < kRssCycles;
       ++CycleNo) {
    if (CycleNo == kRssCycles)
      PeakMiB = double(support::peakRssKb()) / 1024.0;
    const size_t Pass = Speed.sample();
    Cycle C = Gen.next();
    // The digest covers the cycles every run makes, so runs of one seed
    // print the same digest however many cycles fit in the time.
    if (CycleNo < kRssCycles)
      InputDigests += hexDigest(C.Edit) + C.N1 + C.N2 + C.Fn;
    const bool Traced = O.Trace && CycleNo % 2 == 1;
    std::string AnalyzeLine =
        fmt("{\"id\":%llu,\"method\":\"analyze\",\"incremental\":true,"
            "\"source\":",
            static_cast<unsigned long long>(NextId++)) +
        quoted(C.Edit) + "}";

    // Sends one request, timed; returns the parsed response (ok:false
    // responses count as failed ops).
    auto Send = [&](Class K, const std::string &Line, serve::JsonValue &J) {
      Clock::time_point T0 = Clock::now();
      std::string Resp;
      {
        Tracer::Span S(Traced ? &Tr : nullptr,
                       std::string("serve.handle.") + className(K), CycleNo);
        Resp = Srv->handleLine(Line, Shutdown, Log);
      }
      double Ms = msSince(T0);
      MeasuredMs += Ms;
      ++Requests;
      ++R.Attempted;
      (Traced ? TracedLat : Lat)[K].add(Ms);
      if (!Traced)
        Timed[K].add(Ms, Pass);
      if (!serve::parseJson(Resp, J, Err) || !J.getBool("ok")) {
        ++R.Failed;
        R.fail(std::string(className(K)) + " request failed: " +
               Resp.substr(0, 200));
        return false;
      }
      return true;
    };

    serve::JsonValue Edit;
    if (!Send(Class::Edit, AnalyzeLine, Edit) || C.N1.empty()) {
      if (C.N1.empty())
        R.fail("edit " + C.Label + ": main has no pointer locals to query");
      continue;
    }
    if (!Edit.getBool("incremental"))
      ++Fallbacks;
    const std::string Key = Edit.getString("key");
    ServerDigests.push_back("");
    ServerDigest(Cycles.size(), Key);

    const std::string PtArgs = ",\"name\":" + quoted(C.N1) + "}";
    const std::string AliasArgs = ",\"a\":" + quoted("*" + C.N1) +
                                  ",\"b\":" + quoted("*" + C.N2) + "}";
    auto Line = [&](const char *Method, const std::string &Extra) {
      return fmt("{\"id\":%llu,\"method\":\"%s\"",
                 static_cast<unsigned long long>(NextId++), Method) +
             Extra;
    };
    const std::string KeyArg = ",\"key\":" + quoted(Key);
    const std::string Demand = ",\"strategy\":\"demand\"";
    serve::JsonValue SnapPt, SnapAlias, Rw, DemPt, DemAlias;
    bool Ok = Send(Class::SnapshotQuery, Line("points_to", KeyArg + PtArgs),
                   SnapPt);
    Ok &= Send(Class::SnapshotQuery, Line("alias", KeyArg + AliasArgs),
               SnapAlias);
    Ok &= Send(Class::SnapshotQuery,
               Line("read_write_sets",
                    KeyArg + ",\"function\":" + quoted(C.Fn) + "}"),
               Rw);
    Ok &= Send(Class::DemandQuery, Line("points_to", Demand + PtArgs), DemPt);
    Ok &= Send(Class::DemandQuery, Line("alias", Demand + AliasArgs),
               DemAlias);
    if (Ok && (answerOf(DemPt) != answerOf(SnapPt) ||
               answerOf(DemAlias) != answerOf(SnapAlias)))
      R.fail("edit " + C.Label + ": demand answer differs from snapshot");
    Cycles.push_back(std::move(C));

    if (O.Trace && CycleNo + 1 == kTracedCycles) {
      // The daemon's counters after exactly kTracedCycles cycles.
      serve::JsonValue Stats;
      if (serve::parseJson(Srv->handleLine("{\"id\":0,\"method\":\"stats\"}",
                                           Shutdown, Log),
                           Stats, Err))
        if (const serve::JsonValue *Ctr = Stats.find("counters"))
          StatsCounters = *Ctr;
      StatsBenchLookups = BenchLookups;
    }
  }
  Speed.sample(); // the pass after the last cycle
  if (PeakMiB == 0)
    PeakMiB = double(support::peakRssKb()) / 1024.0;
  R.note(fmt("inputs: base incrstress digest %s; %zu edits from seed %llu, "
             "digest of the first %u cycles' requests %s",
             hexDigest(Base).c_str(), Cycles.size(),
             static_cast<unsigned long long>(O.Seed), kRssCycles,
             hexDigest(InputDigests).c_str()));

  // Traced run: replay the first cycles' inner calls, one span per layer.
  std::vector<std::string> ScratchDigests(Cycles.size());
  AnalyzerCounts Counts;
  std::vector<double> IgBuildMs, SolveMs;
  uint64_t Tokens = 0, RelPasses = 0, RelEdges = 0, Visited = 0,
           BlobBytes = 0;
  if (O.Trace) {
    Scratch BaseRun = scratchAnalyze(Base, nullptr, 0, nullptr, nullptr);
    serve::ResultSnapshot Prev = BaseRun.Snap;
    serve::SummaryCache Cache(serve::SummaryCache::Config{}, nullptr);
    pta::Analyzer::Options Opts;
    for (size_t I = 0; I < Cycles.size() && I < kTracedCycles; ++I) {
      const Cycle &C = Cycles[I];
      uint64_t Op = 1000000 + I;
      Tracer::Span Replay(&Tr, "replay", Op);
      AnalyzerTelemetry AT;
      Scratch S = scratchAnalyze(C.Edit, &Tr, Op, &AT, &Tokens);
      ScratchDigests[I] = S.Digest;
      IgBuildMs.push_back(AT.IgBuildMs);
      SolveMs.push_back(AT.SolveMs);

      support::Telemetry IncrTelem(/*Enabled=*/true);
      incr::IncrOutput IO;
      {
        Tracer::Span Sp(&Tr, "incr.reanalyze", Op);
        IO = incr::IncrementalEngine::reanalyze(Prev, C.Edit, Opts, &IncrTelem);
      }
      if (hexDigest(IO.Blob) != S.Digest)
        R.fail("replay " + C.Label + ": incremental bytes differ from scratch");
      BlobBytes += IO.Blob.size();
      AnalyzerTelemetry IncrAT;
      IncrAT.Counters = IncrTelem.countersSnapshot();
      IncrAT.Gauges = IncrTelem.gauges();
      Counts.add(IncrAT, S.BasicStmts);
      Prev = IO.Snapshot;

      const std::string Key = serve::SummaryCache::key(C.Edit, Opts);
      {
        Tracer::Span Sp(&Tr, "cache.store", Op);
        Cache.store(Key, std::move(IO.Snapshot));
      }
      {
        Tracer::Span Sp(&Tr, "cache.lookup", Op);
        if (!Cache.lookup(Key))
          R.fail("replay " + C.Label + ": cache lookup missed");
      }

      demand::DemandOptions DO;
      std::unique_ptr<Pipeline> FE;
      std::unique_ptr<demand::DemandEngine> Engine;
      demand::Answer A1, A2;
      {
        Tracer::Span Sp(&Tr, "demand.setup", Op);
        FE = std::make_unique<Pipeline>(Pipeline::frontend(C.Edit));
        Engine = std::make_unique<demand::DemandEngine>(*FE->Prog, DO);
        A1 = Engine->query(demand::Query::pointsTo(C.N1));
      }
      {
        Tracer::Span Sp(&Tr, "demand.query", Op);
        A2 = Engine->query(demand::Query::alias("*" + C.N1, "*" + C.N2));
      }
      demand::Relevance::Stats RS = Engine->relevanceStats();
      RelPasses += RS.Passes;
      RelEdges += RS.Edges;
      Visited += A1.VisitedStmts + A2.VisitedStmts;
    }
  }

  // Output check, outside the timed window: every edit's served result
  // equals a from-scratch analysis of the same source, byte for byte.
  {
    support::ThreadPool Pool(kCheckThreads);
    for (size_t I = 0; I < Cycles.size(); ++I)
      if (ScratchDigests[I].empty())
        Pool.submit([&, I] {
          ScratchDigests[I] =
              scratchAnalyze(Cycles[I].Edit, nullptr, 0, nullptr, nullptr)
                  .Digest;
        });
    Pool.wait();
    for (size_t I = 0; I < Cycles.size(); ++I)
      if (ServerDigests[I] != ScratchDigests[I])
        R.fail("edit " + Cycles[I].Label + ": served digest " +
               ServerDigests[I] + " != scratch " + ScratchDigests[I]);
  }

  R.e2e("setup_s", SetupMs.scaled(Speed).median() / 1000.0, "s");
  const Samples EditMs = Timed[Class::Edit].scaled(Speed);
  R.latency("analyze", EditMs);
  R.latency("edit", EditMs);
  R.latency("query", Timed[Class::DemandQuery].scaled(Speed));
  R.latency("snapshot_query", Timed[Class::SnapshotQuery].scaled(Speed));
  double ScaledMs = 0;
  size_t ScaledRequests = 0;
  for (const auto &[K, TS] : Timed) {
    ScaledMs += TS.scaledSumMs(Speed);
    ScaledRequests += TS.size();
  }
  R.e2e("throughput_ops_s", double(ScaledRequests) / (ScaledMs / 1000.0),
        "ops/s");
  R.e2e("peak_rss_mb", PeakMiB, "MiB");
  R.note(Speed.describe());
  R.note(fmt("unscaled: setup_s %.4f, analyze_p50_ms %.3f, query_p50_ms "
             "%.3f, throughput_ops_s %.4f",
             SetupMs.raw().median() / 1000.0, Lat[Class::Edit].median(),
             Lat[Class::DemandQuery].median(),
             double(Requests) / (MeasuredMs / 1000.0)));
  R.note(fmt("edits answered by a full re-analysis instead of incrementally: "
             "%llu of %zu",
             static_cast<unsigned long long>(Fallbacks), Cycles.size()));
  if (!O.Trace)
    return 0;

  reportAnalyzerTimes(R, Tr, IgBuildMs, SolveMs, Tokens);
  for (Class K : {Class::Edit, Class::SnapshotQuery, Class::DemandQuery}) {
    const char *Name = className(K);
    R.layer(std::string("serve.handle_ms.") + Name,
            TracedLat[K].median(), "ms");
  }
  R.layer("serve.capture_ms", Tr.medianPerOpMs("serve.capture"), "ms");
  R.layer("serve.serialize_ms", Tr.medianPerOpMs("serve.serialize"), "ms");
  R.layer("serve.blob_bytes", double(BlobBytes), "bytes");
  R.layer("cache.store_ms", Tr.medianPerOpMs("cache.store"), "ms");
  R.layer("cache.lookup_ms", Tr.medianPerOpMs("cache.lookup"), "ms");
  R.layer("incr.reanalyze_ms", Tr.medianPerOpMs("incr.reanalyze"), "ms");
  R.layer("demand.setup_ms", Tr.medianPerOpMs("demand.setup"), "ms");
  R.layer("demand.query_ms", Tr.medianPerOpMs("demand.query"), "ms");
  Counts.report(R);

  const serve::JsonValue &Ctr = StatsCounters;
  uint64_t Hits = counter(Ctr, "cache.hits") - StatsBenchLookups,
           Misses = counter(Ctr, "cache.misses");
  R.layer("cache.hit_ratio",
          Hits + Misses ? double(Hits) / double(Hits + Misses) : 0, "ratio");
  R.note(fmt("cache.hit_ratio base: %llu hits / %llu lookups (daemon counters "
             "after %u cycles)",
             static_cast<unsigned long long>(Hits),
             static_cast<unsigned long long>(Hits + Misses), kTracedCycles));
  R.layer("cache.evictions", double(counter(Ctr, "cache.evictions")), "count");
  for (const char *Name :
       {"incr.dirty_functions", "incr.memo_reuse", "incr.seed_hits"})
    R.layer(Name, double(counter(Ctr, Name)), "count");
  uint64_t IncrFallbacks = 0;
  for (const auto &[Name, V] : Ctr.members())
    if (Name.rfind("incr.fallback.", 0) == 0)
      IncrFallbacks += static_cast<uint64_t>(V.asNumber());
  R.layer("incr.fallbacks", double(IncrFallbacks), "count");
  uint64_t Queries = counter(Ctr, "demand.queries"),
           Answered = counter(Ctr, "demand.answered");
  R.layer("demand.answered_ratio",
          Queries ? double(Answered) / double(Queries) : 0, "ratio");
  R.note(fmt("demand.answered_ratio base: %llu answered / %llu queries",
             static_cast<unsigned long long>(Answered),
             static_cast<unsigned long long>(Queries)));
  R.layer("demand.relevance_passes", double(RelPasses), "count");
  R.layer("demand.relevance_edges", double(RelEdges), "count");
  R.layer("demand.visited_stmts", double(Visited), "count");
  reportOverhead(R, TracedLat[Class::Edit], Lat[Class::Edit]);
  finishTrace(R, Tr, O);
  return 0;
}
