//===- Server.cpp - Long-lived NDJSON query daemon -----------------------------===//

#include "serve/Server.h"

#include "corpus/Corpus.h"
#include "driver/Pipeline.h"
#include "incr/IncrementalEngine.h"
#include "serve/Json.h"
#include "serve/RequestQueue.h"
#include "support/Version.h"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <istream>
#include <optional>
#include <ostream>
#include <sstream>
#include <thread>
#include <vector>

using namespace mcpta;
using namespace mcpta::serve;

using support::FaultInjection;
using support::FlightRecorder;
using support::Telemetry;

//===----------------------------------------------------------------------===//
// Response assembly
//===----------------------------------------------------------------------===//

namespace {

/// How often the watchdog sweeps the in-flight registry.
constexpr uint64_t kWatchdogPollMs = 10;

std::string quoted(std::string_view S) {
  return "\"" + Telemetry::jsonEscape(S) + "\"";
}

/// Renders a request id for echoing. Anything unexpected echoes null.
std::string renderId(const JsonValue *Id) {
  if (!Id)
    return "null";
  switch (Id->kind()) {
  case JsonValue::Kind::Number: {
    double D = Id->asNumber();
    if (D == std::floor(D) && std::abs(D) < 9e15) {
      char Buf[32];
      std::snprintf(Buf, sizeof(Buf), "%lld", static_cast<long long>(D));
      return Buf;
    }
    char Buf[32];
    std::snprintf(Buf, sizeof(Buf), "%g", D);
    return Buf;
  }
  case JsonValue::Kind::String:
    return quoted(Id->asString());
  case JsonValue::Kind::Bool:
    return Id->asBool() ? "true" : "false";
  default:
    return "null";
  }
}

uint64_t getU64(const JsonValue &Obj, std::string_view Name,
                uint64_t Default) {
  double D = Obj.getNumber(Name, static_cast<double>(Default));
  return D <= 0 ? 0 : static_cast<uint64_t>(D);
}

/// Best-effort extraction of the request's "cid" member without a full
/// JSON parse — the reader runs this on every admitted line, and the
/// admission path must stay cheap. A miss (no cid, exotic escaping)
/// returns "" and the request lands in the shared anonymous fairness
/// bucket; fairness accounting tolerates that.
std::string scrapeCid(const std::string &Line) {
  size_t Pos = Line.find("\"cid\"");
  if (Pos == std::string::npos)
    return "";
  Pos += 5;
  while (Pos < Line.size() &&
         (Line[Pos] == ' ' || Line[Pos] == '\t' || Line[Pos] == ':'))
    ++Pos;
  if (Pos >= Line.size() || Line[Pos] != '"')
    return "";
  ++Pos;
  std::string Cid;
  while (Pos < Line.size() && Line[Pos] != '"') {
    if (Line[Pos] == '\\') // escaped cids are rare; skip the escape pair
      ++Pos;
    if (Pos < Line.size())
      Cid += Line[Pos++];
  }
  return Cid;
}

/// True when \p Line is a shutdown request. Only a line that spells the
/// word, or could through a \u escape, is parsed.
bool isShutdownLine(const std::string &Line) {
  if (Line.find("shutdown") == std::string::npos &&
      Line.find("\\u") == std::string::npos)
    return false;
  JsonValue Req;
  std::string Error;
  return parseJson(Line, Req, Error) && Req.isObject() &&
         Req.getString("method") == "shutdown";
}

/// The methods the daemon understands; per-method error counters and
/// latency recorders key off this list so telemetry names stay bounded
/// no matter what clients send.
bool isKnownMethod(std::string_view M) {
  return M == "analyze" || M == "alias" || M == "points_to" ||
         M == "read_write_sets" || M == "stats" || M == "events" ||
         M == "invalidate" || M == "shutdown";
}

double msSince(std::chrono::steady_clock::time_point T) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - T)
      .count();
}

/// Strict UTF-8 validation (rejects overlongs, surrogates, > U+10FFFF).
/// The protocol is JSON, which is UTF-8 by definition; a line that is
/// not gets a protocol error before the parser ever sees it.
bool isValidUtf8(std::string_view S) {
  size_t I = 0;
  while (I < S.size()) {
    unsigned char C = static_cast<unsigned char>(S[I]);
    if (C < 0x80) {
      ++I;
      continue;
    }
    size_t Need;
    if (C >= 0xc2 && C < 0xe0)
      Need = 1;
    else if (C >= 0xe0 && C < 0xf0)
      Need = 2;
    else if (C >= 0xf0 && C < 0xf5)
      Need = 3;
    else
      return false; // bare continuation, overlong lead, or > U+10FFFF
    if (S.size() - I - 1 < Need)
      return false;
    unsigned char C1 = static_cast<unsigned char>(S[I + 1]);
    unsigned char Lo = 0x80, Hi = 0xbf;
    if (C == 0xe0)
      Lo = 0xa0; // overlong 3-byte
    else if (C == 0xed)
      Hi = 0x9f; // UTF-16 surrogates
    else if (C == 0xf0)
      Lo = 0x90; // overlong 4-byte
    else if (C == 0xf4)
      Hi = 0x8f; // > U+10FFFF
    if (C1 < Lo || C1 > Hi)
      return false;
    for (size_t K = 2; K <= Need; ++K) {
      unsigned char CK = static_cast<unsigned char>(S[I + K]);
      if (CK < 0x80 || CK > 0xbf)
        return false;
    }
    I += Need + 1;
  }
  return true;
}

/// The message of the first error in \p Diags, or \p Fallback when it
/// holds none: what an `error` member reports for a source that fails.
std::string firstError(const DiagnosticsEngine &Diags, const char *Fallback) {
  for (const Diagnostic &D : Diags.diagnostics())
    if (D.Level == DiagLevel::Error)
      return D.Message;
  return Fallback;
}

/// The program text a request names: its "source" member or an embedded
/// "corpus" program (handy for smoke tests — no C-in-JSON escaping
/// needed). False when it names neither; an unknown corpus name also
/// sets \p Error.
bool requestSource(const JsonValue &Req, std::string &Source,
                   std::string &Error) {
  if (const JsonValue *Src = Req.find("source")) {
    Source = Src->asString();
    return true;
  }
  if (const JsonValue *Name = Req.find("corpus")) {
    if (const corpus::CorpusProgram *P = corpus::find(Name->asString())) {
      Source = P->Source;
      return true;
    }
    Error = "unknown corpus program '" + Name->asString() + "'";
  }
  return false;
}

enum class LineRead { Ok, Eof, TooLong };

/// getline with a byte bound: an over-long line is consumed to its
/// newline (so the stream stays line-synchronized) but never buffered
/// beyond the cap — the defense the bound exists for.
LineRead readBoundedLine(std::istream &In, std::string &Line, size_t Max) {
  Line.clear();
  std::streambuf *SB = In.rdbuf();
  bool Over = false;
  while (true) {
    int C = SB ? SB->sbumpc() : std::char_traits<char>::eof();
    if (C == std::char_traits<char>::eof()) {
      In.setstate(std::ios::eofbit);
      if (Over)
        return LineRead::TooLong;
      return Line.empty() ? LineRead::Eof : LineRead::Ok;
    }
    if (C == '\n')
      return Over ? LineRead::TooLong : LineRead::Ok;
    if (!Over) {
      if (Line.size() >= Max) {
        Over = true;
        Line.clear();
      } else {
        Line.push_back(static_cast<char>(C));
      }
    }
  }
}

} // namespace

/// The analyzed program the daemon keeps between requests: the text of
/// the most recent successful analyze, its result, and what a demand
/// query on it needs. Source is fixed at construction.
///
/// Key, Snapshot and Cancelled are guarded by Server::StateMu and follow
/// every analyze of the text: keyless queries answer from Snapshot, and
/// a demand fallback answers from it too when the watchdog did not cut
/// it short. The rest is built at most once, under Mu: an analyze that
/// ran the frontend hands its parse and metadata over before the record
/// is shared (a cache hit hands over the cached snapshot's metadata);
/// otherwise the first demand query parses, and the engine (with its
/// Relevance solution) is built by the first demand query either way.
/// Requests hold the record by shared_ptr, so an analyze of another
/// text can replace it while a query still reads the old program. A
/// demand query on another text builds a record of its own (no Key or
/// Snapshot), dropped with the request.
struct Server::ResidentProgram {
  explicit ResidentProgram(std::string Source) : Source(std::move(Source)) {}

  const std::string Source;
  std::string Key;
  std::shared_ptr<const ResultSnapshot> Snapshot;
  bool Cancelled = false;
  /// Serializes the demand queries on this program: the engine is not
  /// thread-safe.
  std::mutex Mu;
  /// Parsed and lowered (FE.Prog null until then); no analysis state.
  Pipeline FE;
  /// incr::computeMeta(*FE.Prog) when the analyze computed it or
  /// served a cached snapshot (which carries it); the engine computes
  /// its own otherwise.
  std::optional<incr::ProgramMeta> Meta;
  std::unique_ptr<demand::DemandEngine> Engine;
};

struct Server::Response {
  std::string IdJson = "null";
  bool Ok = true;
  bool Degraded = false;
  bool Cached = false;
  std::string Error;
  std::string Cid;
  /// Method-specific members, each pre-rendered as `,"name":value`.
  std::string Extra;

  void fail(std::string Msg) {
    Ok = false;
    Error = std::move(Msg);
  }
  void member(std::string_view Name, const std::string &RenderedValue) {
    Extra += ",";
    Extra += quoted(Name);
    Extra += ":";
    Extra += RenderedValue;
  }

  /// Renders a query answer: the one place an alias/points_to answer
  /// becomes response members, whichever path produced it.
  void answer(const demand::Answer &A, demand::Query::Kind K) {
    if (!A.Ok)
      fail(A.Error);
    else if (!A.Strategy.empty())
      member("strategy", quoted(A.Strategy));
    if (!A.FallbackReason.empty())
      member("fallback_reason", quoted(A.FallbackReason));
    if (!A.Ok)
      return;
    Degraded = A.Degraded;
    if (A.answeredByDemand()) {
      member("visited_stmts", std::to_string(A.VisitedStmts));
      member("skipped_stmts", std::to_string(A.SkippedStmts));
    }
    if (K == demand::Query::Kind::Alias) {
      member("aliased", A.Aliased ? "true" : "false");
      return;
    }
    std::string Targets = "[";
    for (const auto &[Target, Definite] : A.Targets) {
      if (Targets.size() > 1)
        Targets += ",";
      Targets += "{\"target\":" + quoted(Target) +
                 ",\"definite\":" + (Definite ? "true" : "false") + "}";
    }
    member("targets", Targets + "]");
  }

  std::string render(double ElapsedMs) const {
    char Elapsed[32];
    std::snprintf(Elapsed, sizeof(Elapsed), "%.3f", ElapsedMs);
    std::string Out = "{\"id\":" + IdJson;
    Out += ",\"ok\":";
    Out += Ok ? "true" : "false";
    Out += ",\"degraded\":";
    Out += Degraded ? "true" : "false";
    Out += ",\"cached\":";
    Out += Cached ? "true" : "false";
    Out += ",\"elapsed_ms\":";
    Out += Elapsed;
    if (!Cid.empty())
      Out += ",\"cid\":" + quoted(Cid);
    if (!Ok)
      Out += ",\"error\":" + quoted(Error);
    Out += Extra;
    Out += "}";
    return Out;
  }
};

/// RAII registration in the watchdog's in-flight registry.
class Server::InFlightGuard {
public:
  InFlightGuard(Server &S, uint64_t Seq, const std::string &Cid,
                uint64_t HardDeadlineMs,
                std::shared_ptr<std::atomic<bool>> Cancel)
      : S(S), Seq(Seq) {
    S.registerInFlight(Seq, Cid, HardDeadlineMs, std::move(Cancel));
  }
  ~InFlightGuard() { S.deregisterInFlight(Seq); }
  InFlightGuard(const InFlightGuard &) = delete;
  InFlightGuard &operator=(const InFlightGuard &) = delete;

private:
  Server &S;
  uint64_t Seq;
};

//===----------------------------------------------------------------------===//
// Server
//===----------------------------------------------------------------------===//

Server::Server(Config C)
    : Cfg(std::move(C)),
      Telem(std::make_unique<Telemetry>(/*Enabled=*/true)),
      Recorder(std::make_unique<FlightRecorder>()),
      Cache(std::make_unique<SummaryCache>(Cfg.Cache, Telem.get())),
      StartTime(std::chrono::steady_clock::now()) {
  Cache->setFlightRecorder(Recorder.get());
  if (!Cfg.FaultSpec.empty()) {
    auto FI = std::make_unique<FaultInjection>();
    std::string Err;
    if (FI->parse(Cfg.FaultSpec, Err)) {
      Faults = std::move(FI);
      FaultsEnabled = true;
      Cache->setFaultInjection(Faults.get());
    } else {
      FaultSpecError = "bad --fault-inject spec: " + Err;
    }
  }
}

Server::~Server() = default;

int Server::run(std::istream &In, std::ostream &Out, std::ostream &Log) {
  if (!FaultSpecError.empty()) {
    std::lock_guard<std::mutex> LogLock(LogMu);
    Log << "error: " << FaultSpecError << "\n" << std::flush;
    return 1;
  }
  {
    std::lock_guard<std::mutex> LogLock(LogMu);
    Log << "pta-serve " << version::kToolVersion << " (result format "
        << version::kResultFormatName << ", version "
        << version::kResultFormatVersion << ", source digest "
        << version::sourceDigest() << ") ready; cache dir: "
        << (Cfg.Cache.Dir.empty() ? "<memory only>" : Cfg.Cache.Dir.c_str())
        << "; threads: " << (Cfg.Threads ? Cfg.Threads : 1);
    if (Cfg.Threads > 1)
      Log << "; queue capacity: " << Cfg.QueueCap;
    if (Cfg.RequestDeadlineMs)
      Log << "; request deadline: " << Cfg.RequestDeadlineMs << " ms";
    if (FaultsEnabled)
      Log << "; fault injection: " << Cfg.FaultSpec;
    Log << "\n" << std::flush;
  }

  // The watchdog outlives the read loop: it cancels analyses past their
  // hard deadline even when the reader itself (Threads <= 1) is the
  // thread stuck running them.
  std::atomic<bool> StopWatchdog{false};
  std::thread Watchdog([this, &StopWatchdog] {
    while (!StopWatchdog.load(std::memory_order_relaxed)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(kWatchdogPollMs));
      watchdogSweep();
    }
  });

  int Code = readLoop(In, Out, Log);

  StopWatchdog.store(true, std::memory_order_relaxed);
  Watchdog.join();

  // Black-box dump: the recent event history goes to the log so a
  // post-mortem has more than aggregate counters to work with.
  std::vector<FlightRecorder::Event> Events = Recorder->snapshot();
  std::lock_guard<std::mutex> LogLock(LogMu);
  Log << "flight recorder: " << Events.size() << " event(s) retained, "
      << Recorder->dropped() << " dropped, capacity "
      << Recorder->capacity() << "\n";
  for (const FlightRecorder::Event &E : Events)
    Log << "  " << FlightRecorder::eventJson(E) << "\n";
  Log << std::flush;
  return Code;
}

int Server::readLoop(std::istream &In, std::ostream &Out, std::ostream &Log) {
  std::mutex OutMu;
  auto Write = [&Out, &OutMu](const std::string &Response) {
    std::lock_guard<std::mutex> OutLock(OutMu);
    Out << Response << "\n" << std::flush;
  };

  // With Threads > 1 the reader feeds a bounded queue drained by a worker
  // pool. Otherwise there is no queue: the reader answers each line
  // itself, in order, so nothing is read ahead, shed, or answered after
  // a shutdown.
  std::unique_ptr<RequestQueue> Queue;
  std::vector<std::thread> Workers;
  if (Cfg.Threads > 1) {
    Queue = std::make_unique<RequestQueue>(Cfg.QueueCap);
    Workers.reserve(Cfg.Threads);
    for (unsigned T = 0; T < Cfg.Threads; ++T) {
      Workers.emplace_back([this, &Queue, &Write, &Log] {
        RequestQueue::Item It;
        while (Queue->pop(It)) {
          Admission Adm;
          Adm.QueueWaitMs = msSince(It.EnqueuedAt);
          Adm.QueueDepth = Queue->depth();
          Adm.QueueCap = Queue->capacity();
          bool WantShutdown = false; // the reader stops at the shutdown
          Write(handleLine(It.Line, WantShutdown, Log, Adm));
        }
      });
    }
  }

  // This thread is the reader: it owns the istream, bounds each line,
  // and never blocks on the queue — admission control sheds instead.
  // Once it admits a shutdown it reads no further, as the unqueued
  // reader does (a client may hold its end of the stream open); closing
  // the queue below lets every admitted request drain to its answer.
  std::string Line;
  bool AdmittedShutdown = false;
  while (!AdmittedShutdown) {
    LineRead R = readBoundedLine(In, Line, Cfg.MaxLineBytes);
    if (R == LineRead::Eof)
      break;
    std::string Reject;
    if (R == LineRead::TooLong) {
      Reject = rejectLine(nullptr,
                          "request line exceeds the " +
                              std::to_string(Cfg.MaxLineBytes) +
                              "-byte bound and was discarded",
                          "protocol");
    } else if (Line.empty()) {
      continue;
    } else if (!isValidUtf8(Line)) {
      Reject = rejectLine(nullptr, "request line is not valid UTF-8",
                          "protocol");
    } else if (!Queue) {
      bool WantShutdown = false;
      Write(handleLine(Line, WantShutdown, Log));
      if (WantShutdown)
        break;
    } else if (Faults && Faults->shouldFire("serve.queue_full")) {
      // Injected overload: exercise the shed path without needing a
      // genuinely saturated pool.
      Telem->add("serve.admission.shed", 1);
      Telem->add("serve.admission.shed_full", 1);
      Recorder->record("admission.shed", "", "reason=queue_full injected=1");
      Reject = rejectLine(&Line, "overloaded: request queue is full",
                          "overloaded");
    } else {
      RequestQueue::Item It;
      It.Line = Line;
      It.Cid = scrapeCid(Line);
      const bool IsShutdown = isShutdownLine(Line);
      It.EnqueuedAt = std::chrono::steady_clock::now();
      RequestQueue::Item Evicted;
      bool DidEvict = false;
      switch (Queue->pushFair(std::move(It), Evicted, DidEvict)) {
      case RequestQueue::PushResult::Ok:
        Telem->add("serve.admission.admitted", 1);
        AdmittedShutdown = IsShutdown;
        if (DidEvict) {
          // Per-cid fairness: the queue was full and some tenant held
          // strictly more slots than this request's — its newest queued
          // item was traded out and is rejected here, so overload sheds
          // the queue hog rather than whoever arrives next.
          Telem->add("serve.admission.shed", 1);
          Telem->add("serve.admission.per_cid_shed", 1);
          Recorder->record("admission.shed", Evicted.Cid,
                           "reason=per_cid_fairness depth=" +
                               std::to_string(Queue->depth()));
          Write(rejectLine(&Evicted.Line,
                           "overloaded: shed for per-cid fairness",
                           "overloaded"));
        }
        break;
      case RequestQueue::PushResult::Full:
        Telem->add("serve.admission.shed", 1);
        Telem->add("serve.admission.shed_full", 1);
        Recorder->record("admission.shed", "",
                         "reason=queue_full depth=" +
                             std::to_string(Queue->depth()));
        Reject = rejectLine(&Line, "overloaded: request queue is full",
                            "overloaded");
        break;
      case RequestQueue::PushResult::Closed:
        Reject = rejectLine(&Line, "daemon is shutting down", "shutdown");
        break;
      }
    }
    if (!Reject.empty())
      Write(Reject);
  }

  if (Queue) {
    Queue->close();
    for (std::thread &W : Workers)
      W.join();
  }
  return 0;
}

std::string Server::rejectLine(const std::string *Line, const std::string &Msg,
                               const char *Kind) {
  auto Start = std::chrono::steady_clock::now();
  uint64_t Seq = RequestSeq.fetch_add(1, std::memory_order_relaxed) + 1;
  Telem->add("serve.requests", 1);

  Response Resp;
  Resp.Cid = "r" + std::to_string(Seq);
  if (Line) {
    // Best-effort id/cid echo so the client can correlate the
    // rejection. Oversized or non-UTF8 input never gets here — those
    // bytes are not worth parsing.
    JsonValue Req;
    std::string ParseError;
    if (parseJson(*Line, Req, ParseError) && Req.isObject()) {
      Resp.IdJson = renderId(Req.find("id"));
      std::string Cid = Req.getString("cid");
      if (!Cid.empty())
        Resp.Cid = Cid;
    }
  }
  if (std::string_view(Kind) == "overloaded")
    Resp.member("overloaded", "true");
  Resp.fail(Msg);
  Telem->add("serve.errors", 1);
  Telem->add(std::string("serve.errors.") + Kind, 1);
  Recorder->record("request.error", Resp.Cid, std::string("reason=") + Kind);
  return Resp.render(msSince(Start));
}

//===----------------------------------------------------------------------===//
// Watchdog
//===----------------------------------------------------------------------===//

void Server::registerInFlight(uint64_t Seq, const std::string &Cid,
                              uint64_t HardDeadlineMs,
                              std::shared_ptr<std::atomic<bool>> Cancel) {
  std::lock_guard<std::mutex> Lock(InFlightMu);
  InFlightReqs[Seq] =
      InFlight{Cid, std::chrono::steady_clock::now(), HardDeadlineMs,
               std::move(Cancel)};
}

void Server::deregisterInFlight(uint64_t Seq) {
  std::lock_guard<std::mutex> Lock(InFlightMu);
  InFlightReqs.erase(Seq);
}

size_t Server::watchdogSweep() {
  size_t Fired = 0;
  {
    std::lock_guard<std::mutex> Lock(InFlightMu);
    for (auto &[Seq, IF] : InFlightReqs) {
      if (!IF.HardDeadlineMs || !IF.Cancel)
        continue;
      double ElapsedMs = msSince(IF.Start);
      if (ElapsedMs > static_cast<double>(IF.HardDeadlineMs) &&
          !IF.Cancel->load(std::memory_order_relaxed)) {
        // Setting the flag forces the existing deadline-cut path: the
        // request's BudgetMeter reads it as an expired deadline, trips,
        // and the analysis degrades soundly instead of running away.
        IF.Cancel->store(true, std::memory_order_relaxed);
        ++Fired;
        Telem->add("serve.watchdog.fired", 1);
        char Detail[96];
        std::snprintf(Detail, sizeof(Detail),
                      "elapsed_ms=%.0f hard_deadline_ms=%llu", ElapsedMs,
                      static_cast<unsigned long long>(IF.HardDeadlineMs));
        Recorder->record("watchdog.cancel", IF.Cid, Detail);
      }
    }
  }
  Telem->add("serve.watchdog.sweeps", 1);
  return Fired;
}

//===----------------------------------------------------------------------===//
// Request dispatch
//===----------------------------------------------------------------------===//

std::string Server::handleLine(const std::string &Line, bool &WantShutdown,
                               std::ostream &Log) {
  return handleLine(Line, WantShutdown, Log, Admission{});
}

std::string Server::handleLine(const std::string &Line, bool &WantShutdown,
                               std::ostream &Log, const Admission &Adm) {
  auto Start = std::chrono::steady_clock::now();
  uint64_t Seq = RequestSeq.fetch_add(1, std::memory_order_relaxed) + 1;
  Telem->add("serve.requests", 1);
  if (Adm.QueueCap) {
    Telem->latency("serve.latency.queue_wait").recordMs(Adm.QueueWaitMs);
    Telem->gauge("serve.admission.queue_depth", Adm.QueueDepth);
  }

  Response Resp;
  JsonValue Req;
  std::string ParseError;
  std::string Method;
  bool Dispatched = false;
  // Request-scoped child telemetry: the analyzer, the cache, and the
  // incremental engine write here; the daemon aggregate absorbs it when
  // the request completes. Spans stay in the child, so per-request trace
  // fragments are available without growing daemon state.
  Telemetry ReqTelem(/*Enabled=*/true);
  RequestCtx Ctx;
  Ctx.Telem = &ReqTelem;
  Ctx.Seq = Seq;
  bool ShedAtAdmission = false;

  if (!parseJson(Line, Req, ParseError)) {
    Telem->add("serve.parse_errors", 1);
    Resp.fail("request is not valid JSON: " + ParseError);
  } else if (!Req.isObject()) {
    Resp.fail("request must be a JSON object");
  } else {
    Resp.IdJson = renderId(Req.find("id"));
    Method = Req.getString("method");
    Ctx.Cid = Req.getString("cid");
    if (Ctx.Cid.empty())
      Ctx.Cid = "r" + std::to_string(Seq);
    Resp.Cid = Ctx.Cid;
    ReqTelem.setCorrelationId(Ctx.Cid);
    Recorder->record("request.start", Ctx.Cid,
                     "method=" + (Method.empty() ? "?" : Method));
    Dispatched = true;

    // Admission: queue pressure maps to a quantized degradation-ladder
    // level (depth >= 50% of capacity -> 1, >= 75% -> 2, long wait ->
    // at least 1). Quantized so tightened requests still share cache
    // keys — an exact per-request budget would make every key unique.
    if (Adm.QueueCap) {
      unsigned Level = 0;
      if (Adm.QueueDepth * 4 >= Adm.QueueCap * 3)
        Level = 2;
      else if (Adm.QueueDepth * 2 >= Adm.QueueCap)
        Level = 1;
      if (Level == 0 && Cfg.RequestDeadlineMs &&
          Adm.QueueWaitMs * 2 >= static_cast<double>(Cfg.RequestDeadlineMs))
        Level = 1;
      Ctx.LadderLevel = Level;
    }

    // Late shedding: a request that already burned its whole deadline
    // waiting in the queue is not worth starting.
    bool &Shed = ShedAtAdmission;
    if (Method == "analyze" && Cfg.RequestDeadlineMs &&
        Adm.QueueWaitMs >= static_cast<double>(Cfg.RequestDeadlineMs)) {
      Telem->add("serve.admission.shed", 1);
      Telem->add("serve.admission.shed_wait", 1);
      char Detail[96];
      std::snprintf(Detail, sizeof(Detail),
                    "reason=queue_wait waited_ms=%.1f deadline_ms=%llu",
                    Adm.QueueWaitMs,
                    static_cast<unsigned long long>(Cfg.RequestDeadlineMs));
      Recorder->record("admission.shed", Ctx.Cid, Detail);
      Resp.member("overloaded", "true");
      char Msg[128];
      std::snprintf(Msg, sizeof(Msg),
                    "overloaded: request waited %.0f ms in queue, deadline "
                    "is %llu ms",
                    Adm.QueueWaitMs,
                    static_cast<unsigned long long>(Cfg.RequestDeadlineMs));
      Resp.fail(Msg);
      Shed = true;
    }

    if (Shed) {
      // Response already carries the overloaded error.
    } else if (Method == "analyze") {
      handleAnalyze(Req, Resp, Log, Ctx);
    } else if (Method == "alias") {
      handleQuery(Req, Resp, Ctx, demand::Query::Kind::Alias);
    } else if (Method == "points_to") {
      handleQuery(Req, Resp, Ctx, demand::Query::Kind::PointsTo);
    } else if (Method == "read_write_sets") {
      handleReadWriteSets(Req, Resp, Ctx);
    } else if (Method == "stats") {
      handleStats(Resp);
    } else if (Method == "events") {
      handleEvents(Req, Resp);
    } else if (Method == "invalidate") {
      handleInvalidate(Resp);
    } else if (Method == "shutdown") {
      Telem->add("serve.shutdown", 1);
      Recorder->record("serve.shutdown", Ctx.Cid, "");
      WantShutdown = true;
    } else {
      Resp.fail(Method.empty() ? "missing \"method\" member"
                               : "unknown method '" + Method + "'");
    }
  }
  if (!Method.empty() && Method != "shutdown")
    Telem->add("serve." + Method, Resp.Ok ? 1 : 0);
  if (!Resp.Ok) {
    Telem->add("serve.errors", 1);
    // Per-method attribution: protocol failures (bad JSON, non-object,
    // unknown/missing method) are one bucket; each known method gets
    // its own, so "analyze requests failing" and "clients sending
    // garbage" are distinguishable.
    Telem->add("serve.errors." +
                   (isKnownMethod(Method) ? Method : std::string("protocol")),
               1);
  }

  double ElapsedMs = msSince(Start);
  // Shed requests are an admission outcome, not a service latency: the
  // serve.latency.* quantiles describe requests that were actually
  // served (queue wait has its own recorder).
  if (isKnownMethod(Method) && !ShedAtAdmission)
    Telem->latency("serve.latency." + Method).recordMs(ElapsedMs);

  if (Dispatched) {
    // Per-request trace fragment on demand, before the child merges
    // away. The fragment is a complete Chrome-trace document rendered
    // as a JSON value inside the response.
    if (Req.getBool("trace", false)) {
      std::ostringstream TS;
      ReqTelem.writeTraceJson(TS);
      std::string Trace = TS.str();
      while (!Trace.empty() &&
             (Trace.back() == '\n' || Trace.back() == '\r'))
        Trace.pop_back();
      Resp.member("trace", Trace);
    }
    Telem->mergeFrom(ReqTelem);
    char Buf[96];
    std::snprintf(Buf, sizeof(Buf), "method=%s ok=%d elapsed_ms=%.3f",
                  Method.empty() ? "?" : Method.c_str(), Resp.Ok ? 1 : 0,
                  ElapsedMs);
    Recorder->record(Resp.Ok ? "request.end" : "request.error", Ctx.Cid,
                     Buf);
  }
  return Resp.render(ElapsedMs);
}

//===----------------------------------------------------------------------===//
// analyze
//===----------------------------------------------------------------------===//

void Server::handleAnalyze(const JsonValue &Req, Response &Resp,
                           std::ostream &Log, RequestCtx &Ctx) {
  std::string Source, SourceError;
  if (!requestSource(Req, Source, SourceError)) {
    Resp.fail(SourceError.empty()
                  ? "analyze needs a \"source\" or \"corpus\" member"
                  : SourceError);
    return;
  }

  // Per-request fault injection: tests only, gated on the daemon having
  // fault injection enabled at all (any --fault-inject spec, including
  // the arm-less "on").
  FaultInjection ReqFI;
  if (const JsonValue *F = Req.find("fault")) {
    if (!FaultsEnabled) {
      Resp.fail("per-request fault injection requires the daemon to run "
                "with --fault-inject");
      return;
    }
    std::string FaultError;
    if (!ReqFI.parse(F->asString(), FaultError)) {
      Resp.fail("bad fault spec: " + FaultError);
      return;
    }
    Ctx.ReqFaults = &ReqFI;
  }
  FaultInjection *FI = Ctx.ReqFaults ? Ctx.ReqFaults : Faults.get();

  // Per-request options/limits override the server defaults and ride on
  // the existing resource-governance layer.
  pta::Analyzer::Options Opts = Cfg.DefaultOpts;
  // The child telemetry observes the analysis without affecting it: the
  // options fingerprint (and therefore the cache key) excludes the
  // sink, and the analyzer's behavior never branches on it.
  Opts.Telem = Ctx.Telem;
  if (const JsonValue *O = Req.find("options")) {
    std::string FnPtr = O->getString("fnptr");
    if (FnPtr == "precise")
      Opts.FnPtr = pta::FnPtrMode::Precise;
    else if (FnPtr == "all")
      Opts.FnPtr = pta::FnPtrMode::AllFunctions;
    else if (FnPtr == "address-taken")
      Opts.FnPtr = pta::FnPtrMode::AddressTaken;
    else if (!FnPtr.empty()) {
      Resp.fail("unknown fnptr mode '" + FnPtr + "'");
      return;
    }
    Opts.ContextSensitive =
        O->getBool("context_sensitive", Opts.ContextSensitive);
    Opts.RecordStmtSets = O->getBool("record_stmt_sets", Opts.RecordStmtSets);
    Opts.SymbolicLevelLimit = static_cast<unsigned>(
        getU64(*O, "symbolic_level_limit", Opts.SymbolicLevelLimit));
    Opts.MaxLoopIterations = static_cast<unsigned>(
        getU64(*O, "max_loop_iterations", Opts.MaxLoopIterations));
  }
  if (const JsonValue *L = Req.find("limits")) {
    support::AnalysisLimits &Lim = Opts.Limits;
    Lim.TimeoutMs = getU64(*L, "timeout_ms", Lim.TimeoutMs);
    Lim.MaxStmtVisits = getU64(*L, "max_stmt_visits", Lim.MaxStmtVisits);
    Lim.MaxLocations = getU64(*L, "max_locations", Lim.MaxLocations);
    Lim.MaxIGNodes = getU64(*L, "max_ig_nodes", Lim.MaxIGNodes);
    Lim.MaxRecPasses = getU64(*L, "max_rec_passes", Lim.MaxRecPasses);
  }

  // Allocation-pressure fault: run this request under a tiny location
  // budget. Applied before the fingerprint so the (soundly) degraded
  // result is cached under its own key, never poisoning the clean one.
  if (FI && FI->shouldFire("alloc.pressure")) {
    uint64_t Cap = FI->param("alloc.pressure", "max", 8);
    support::AnalysisLimits &Lim = Opts.Limits;
    Lim.MaxLocations = Lim.MaxLocations ? std::min(Lim.MaxLocations, Cap)
                                        : Cap;
    Ctx.Telem->add("fault.injected.alloc.pressure", 1);
    Recorder->record("fault.injected", Ctx.Cid,
                     "point=alloc.pressure max=" + std::to_string(Cap));
  }

  // The per-request deadline budget folds into TimeoutMs. BaseOpts
  // (level 0) keeps a fallback cache key so a tightened request can
  // still serve an already-computed full-budget result.
  pta::Analyzer::Options BaseOpts = Opts;
  applyDeadline(BaseOpts.Limits, 0);
  applyDeadline(Opts.Limits, Ctx.LadderLevel);
  if (Ctx.LadderLevel) {
    Telem->add("serve.admission.tightened", 1);
    Telem->add("serve.admission.tightened.l" +
                   std::to_string(Ctx.LadderLevel),
               1);
    Recorder->record("admission.tighten", Ctx.Cid,
                     "level=" + std::to_string(Ctx.LadderLevel) +
                         " timeout_ms=" +
                         std::to_string(Opts.Limits.TimeoutMs));
    Resp.member("ladder_level", std::to_string(Ctx.LadderLevel));
  }

  const std::string FP = optionsFingerprint(Opts);
  const std::string Key = SummaryCache::key(Source, FP);
  const std::string BaseFP =
      Ctx.LadderLevel ? optionsFingerprint(BaseOpts) : FP;
  const std::string BaseKey =
      Ctx.LadderLevel ? SummaryCache::key(Source, BaseFP) : Key;
  const bool WantIncremental = Req.getBool("incremental", false);
  const SummaryCache::RequestScope Scope{Ctx.Telem, Ctx.Cid, Ctx.ReqFaults};

  // Watchdog wiring: any request with a wall-clock budget gets a cancel
  // flag the BudgetMeter polls (AnalysisLimits::CancelFlag — set after
  // the fingerprint is computed; it is per-run plumbing, not identity).
  std::shared_ptr<std::atomic<bool>> Cancel;
  uint64_t HardMs = 0;
  if (Opts.Limits.TimeoutMs) {
    HardMs = Opts.Limits.TimeoutMs * 4;
    if (HardMs < Opts.Limits.TimeoutMs + 50)
      HardMs = Opts.Limits.TimeoutMs + 50;
  }
  std::unique_ptr<InFlightGuard> Guard;
  if (HardMs || (FI && FI->armed("serve.stall"))) {
    Cancel = std::make_shared<std::atomic<bool>>(false);
    Opts.Limits.CancelFlag = Cancel.get();
    Guard = std::make_unique<InFlightGuard>(*this, Ctx.Seq, Ctx.Cid, HardMs,
                                            Cancel);
  }

  // Stalled-request fault: burn wall clock before doing any work, in
  // small cancellable slices, so watchdog coverage is testable without
  // a genuinely slow analysis.
  if (FI && FI->shouldFire("serve.stall")) {
    uint64_t StallMs = FI->param("serve.stall", "ms", 200);
    Ctx.Telem->add("fault.injected.serve.stall", 1);
    Recorder->record("fault.injected", Ctx.Cid,
                     "point=serve.stall ms=" + std::to_string(StallMs));
    auto Until = std::chrono::steady_clock::now() +
                 std::chrono::milliseconds(StallMs);
    while (std::chrono::steady_clock::now() < Until) {
      if (Cancel && Cancel->load(std::memory_order_relaxed))
        break;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }

  std::string CacheWarning;
  std::shared_ptr<const ResultSnapshot> Snap =
      Cache->lookup(Key, &CacheWarning, Scope);
  bool ServedFromBaseKey = false;
  if (!Snap && BaseKey != Key) {
    // A tightened request gladly serves the full-budget result when one
    // is already cached: strictly more precise, and free.
    Snap = Cache->lookup(BaseKey, nullptr, Scope);
    if (Snap) {
      ServedFromBaseKey = true;
      Telem->add("serve.admission.base_key_hits", 1);
    }
  }
  if (!CacheWarning.empty()) {
    std::lock_guard<std::mutex> LogLock(LogMu);
    Log << "warning: " << CacheWarning << "\n";
  }

  std::shared_ptr<const ResultSnapshot> Baseline;
  // The resident program this request replaces, destroyed outside
  // StateMu. A compute releases the previous program before it parses
  // (one program in memory at a time); the text stays resident, so a
  // source that fails to parse leaves demand queries where they were.
  std::shared_ptr<ResidentProgram> Released;
  if (!Snap) {
    std::lock_guard<std::mutex> Lock(StateMu);
    if (WantIncremental) {
      auto BaselineIt = BaselineByFingerprint.find(FP);
      if (BaselineIt != BaselineByFingerprint.end())
        Baseline = BaselineIt->second;
    }
    if (Resident) {
      Released = std::move(Resident);
      Resident = std::make_shared<ResidentProgram>(Released->Source);
      Resident->Key = Released->Key;
      Resident->Snapshot = Released->Snapshot;
      Resident->Cancelled = Released->Cancelled;
    }
  }
  Released.reset();

  // True when the watchdog cancelled this request mid-flight. Checked
  // after the compute paths; a cancelled (degraded) result is returned
  // but never cached — cancellation depends on scheduler timing, and a
  // cache key must map to a deterministic result.
  auto WasCancelled = [&Cancel] {
    return Cancel && Cancel->load(std::memory_order_relaxed);
  };
  bool Cancelled = false;
  std::shared_ptr<ResidentProgram> Program;

  if (Snap) {
    Resp.Cached = true;
    if (WantIncremental) {
      // An exact cache hit answers without re-analyzing anything.
      Resp.member("incremental", "false");
      Resp.member("fallback_reason", quoted("cache-hit"));
    }
  } else {
    incr::IncrOutput O = incr::IncrementalEngine::analyze(
        Baseline.get(), Source, Opts, Ctx.Telem);
    if (!O.Ok) {
      // Frontend failures are not cached: the response carries the
      // first error and the next attempt re-parses.
      Resp.fail(firstError(O.Diags, "analysis failed"));
      return;
    }
    if (Baseline && !O.Stats.FallbackReason.empty())
      Recorder->record("incr.fallback", Ctx.Cid,
                       "reason=" + O.Stats.FallbackReason);
    Program = std::make_shared<ResidentProgram>(Source);
    Program->FE = std::move(O.Frontend);
    Program->Meta = std::move(O.Meta);
    Cancelled = WasCancelled();
    if (Cancelled) {
      Snap = std::make_shared<const ResultSnapshot>(std::move(O.Snapshot));
      Ctx.Telem->add("serve.watchdog.uncached_results", 1);
    } else {
      std::string StoreWarning;
      Snap = Cache->store(Key, std::move(O.Snapshot), &StoreWarning, Scope);
      if (!StoreWarning.empty()) {
        std::lock_guard<std::mutex> LogLock(LogMu);
        Log << "warning: " << StoreWarning << "\n";
      }
    }
    if (Baseline) {
      Resp.member("incremental", O.Stats.UsedIncremental ? "true" : "false");
      Resp.member("dirty_functions", std::to_string(O.Stats.DirtyFunctions));
      Resp.member("memo_reuse", std::to_string(O.Stats.MemoReuse));
      if (!O.Stats.FallbackReason.empty())
        Resp.member("fallback_reason", quoted(O.Stats.FallbackReason));
    } else if (WantIncremental) {
      // First analysis under these options: nothing to diff against.
      Resp.member("incremental", "false");
      Resp.member("fallback_reason", quoted(O.Stats.FallbackReason));
    }
  }

  const std::string &ServedKey = ServedFromBaseKey ? BaseKey : Key;
  {
    std::lock_guard<std::mutex> Lock(StateMu);
    // A cache hit keeps the resident program when it holds this text;
    // otherwise the text becomes resident with the snapshot's meta, and
    // the first demand query parses it.
    if (Program || !Resident || Resident->Source != Source) {
      Released = std::move(Resident);
      if (!Program) {
        Program = std::make_shared<ResidentProgram>(Source);
        Program->Meta = Snap->Meta;
      }
      Resident = std::move(Program);
    }
    Resident->Key = ServedKey;
    Resident->Snapshot = Snap;
    Resident->Cancelled = Cancelled;
    // Whatever this request produced (or re-validated) is the baseline
    // for the next incremental request under the same options — unless
    // the watchdog cut it short: a cancelled result is timing-dependent
    // and must not seed future incremental runs.
    if (!Cancelled)
      BaselineByFingerprint[ServedFromBaseKey ? BaseFP : FP] = Snap;
  }
  Released.reset();

  Resp.Degraded = Snap->degraded();
  // Degradations go to the daemon log once per (kind, context) for the
  // server's lifetime; the structured list is always in the response,
  // and each one leaves a flight-recorder event attributed to this
  // request's correlation id.
  for (const DegradationRecord &D : Snap->Degradations) {
    const char *KindName =
        support::limitKindName(static_cast<support::LimitKind>(D.Kind));
    Recorder->record("degradation", Ctx.Cid,
                     std::string(KindName) + ": " + D.Context);
    bool ShouldLog = false;
    {
      std::lock_guard<std::mutex> Lock(StateMu);
      ShouldLog =
          LoggedDegradations.insert(std::string(KindName) + "|" + D.Context)
              .second;
    }
    if (ShouldLog) {
      std::lock_guard<std::mutex> LogLock(LogMu);
      Log << "degraded: [" << KindName << "] " << D.Context << ": "
          << D.Action << "\n";
    }
  }

  Resp.member("key", quoted(ServedKey));
  Resp.member("analyzed", Snap->Analyzed ? "true" : "false");
  Resp.member("locations", std::to_string(Snap->Locations.size()));
  Resp.member("ig_nodes", std::to_string(Snap->IG.size()));
  Resp.member("main_out_pairs", std::to_string(Snap->MainOut.size()));
  Resp.member("alias_pairs", std::to_string(Snap->AliasPairs.size()));
  std::string Warnings = "[";
  for (size_t I = 0; I < Snap->Warnings.size(); ++I) {
    if (I)
      Warnings += ",";
    Warnings += quoted(Snap->Warnings[I]);
  }
  Warnings += "]";
  Resp.member("warnings", Warnings);
  std::string Degs = "[";
  for (size_t I = 0; I < Snap->Degradations.size(); ++I) {
    const DegradationRecord &D = Snap->Degradations[I];
    if (I)
      Degs += ",";
    Degs += "{\"kind\":" +
            quoted(support::limitKindName(
                static_cast<support::LimitKind>(D.Kind))) +
            ",\"context\":" + quoted(D.Context) +
            ",\"action\":" + quoted(D.Action) + "}";
  }
  Degs += "]";
  Resp.member("degradations", Degs);
}

//===----------------------------------------------------------------------===//
// Queries
//===----------------------------------------------------------------------===//

std::shared_ptr<const ResultSnapshot>
Server::querySnapshot(const JsonValue &Req, std::string &Error,
                      const RequestCtx &Ctx) {
  std::string Key = Req.getString("key");
  {
    std::lock_guard<std::mutex> Lock(StateMu);
    std::shared_ptr<const ResultSnapshot> Last =
        Resident ? Resident->Snapshot : nullptr;
    if (Key.empty()) {
      if (Last)
        return Last;
      Error = "no result to query: analyze first or pass a \"key\"";
      return nullptr;
    }
    if (Last && Key == Resident->Key)
      return Last;
  }
  std::shared_ptr<const ResultSnapshot> Snap =
      Cache->lookup(Key, nullptr, SummaryCache::RequestScope{Ctx.Telem,
                                                             Ctx.Cid});
  if (!Snap)
    Error = "no cached result for key " + Key;
  return Snap;
}

/// The question an alias/points_to request asks, read from its
/// members into \p Q. Returns the protocol error when a member it needs
/// is missing, "" otherwise.
static std::string parseQuery(const JsonValue &Req, demand::Query::Kind K,
                              demand::Query &Q) {
  if (K == demand::Query::Kind::Alias) {
    const JsonValue *A = Req.find("a");
    const JsonValue *B = Req.find("b");
    if (!A || !B)
      return "alias needs \"a\" and \"b\" access expressions";
    Q = demand::Query::alias(A->asString(), B->asString());
    return "";
  }
  std::string Name = Req.getString("name");
  if (Name.empty())
    return "points_to needs a \"name\" member";
  int64_t StmtId = -1;
  if (const JsonValue *S = Req.find("stmt"))
    StmtId = static_cast<int64_t>(S->asNumber(-1));
  Q = demand::Query::pointsTo(std::move(Name), StmtId);
  return "";
}

void Server::applyDeadline(support::AnalysisLimits &Lim,
                           unsigned Level) const {
  if (!Cfg.RequestDeadlineMs)
    return;
  uint64_t Effective = Cfg.RequestDeadlineMs >> Level;
  if (!Effective)
    Effective = 1;
  Lim.TimeoutMs =
      Lim.TimeoutMs ? std::min(Lim.TimeoutMs, Effective) : Effective;
}

void Server::handleQuery(const JsonValue &Req, Response &Resp,
                         const RequestCtx &Ctx, demand::Query::Kind K) {
  const std::string Strategy = Req.getString("strategy");
  if (!Strategy.empty() && Strategy != "demand" && Strategy != "exhaustive") {
    Resp.fail("unknown strategy '" + Strategy +
              "' (expected \"demand\" or \"exhaustive\")");
    return;
  }
  demand::Query Q;
  const std::string QueryError = parseQuery(Req, K, Q);

  // The demand path (docs/DEMAND.md) runs on request, or by auto pick:
  // when admission tightened this request (ladder level >= 1) the pruned
  // run is the cheaper way to answer — unless the client pinned a
  // snapshot ("key") or the strategy. It runs on the request's own text,
  // or on the resident program; an auto pick with neither falls through
  // to the snapshot path.
  const bool AutoPicked =
      Strategy.empty() && Ctx.LadderLevel >= 1 && !Req.find("key");
  std::shared_ptr<ResidentProgram> Program;
  std::shared_ptr<const ResultSnapshot> Exhaustive;
  if (Strategy == "demand" || AutoPicked) {
    std::string Source, SourceError;
    bool HaveSource = requestSource(Req, Source, SourceError);
    if (SourceError.empty()) {
      std::lock_guard<std::mutex> Lock(StateMu);
      if (Resident && (HaveSource ? Resident->Source == Source
                                  : !Resident->Source.empty())) {
        Program = Resident;
        HaveSource = true;
        if (!Resident->Cancelled)
          Exhaustive = Resident->Snapshot;
      }
    }
    if (HaveSource || !SourceError.empty() || !AutoPicked) {
      if (AutoPicked)
        Ctx.Telem->add("demand.auto_picked", 1);
      if (!SourceError.empty()) {
        Resp.fail(SourceError);
        return;
      }
      if (!HaveSource) {
        Resp.fail("demand strategy needs a \"source\" or \"corpus\" "
                  "member, or a prior analyze");
        return;
      }
      if (!QueryError.empty()) {
        Resp.fail(QueryError);
        return;
      }
      // Another text gets a program of its own, dropped with this
      // request.
      if (!Program)
        Program = std::make_shared<ResidentProgram>(std::move(Source));
    }
  }

  if (Program) {
    Ctx.Telem->add("demand.queries", 1);
    auto Start = std::chrono::steady_clock::now();
    demand::Answer A;
    {
      std::lock_guard<std::mutex> Lock(Program->Mu);
      if (Program->FE.Prog) {
        Ctx.Telem->add("demand.program_reuse", 1);
      } else {
        Program->FE = Pipeline::frontend(Program->Source);
        if (!Program->FE.Prog) {
          Resp.fail(
              firstError(Program->FE.Diags, "demand: source does not parse"));
          Program->FE = Pipeline();
          return;
        }
      }
      if (!Program->Engine) {
        // The options a default analyze of this text runs under (the
        // level-0 deadline included), so a fallback can answer from its
        // snapshot.
        demand::DemandOptions DO;
        DO.Analyzer = Cfg.DefaultOpts;
        DO.Analyzer.Telem = nullptr;
        applyDeadline(DO.Analyzer.Limits, 0);
        Program->Engine = std::make_unique<demand::DemandEngine>(
            *Program->FE.Prog, DO, Program->Meta ? &*Program->Meta : nullptr);
      }
      // A fallback answers from the analyze's own exhaustive result when
      // that ran under the engine's options.
      Program->Engine->offerExhaustive(std::move(Exhaustive));
      A = Program->Engine->query(Q, Ctx.Telem);
    }
    Ctx.Telem->latency("demand.latency").recordMs(msSince(Start));

    const std::string Method =
        K == demand::Query::Kind::Alias ? "alias" : "points_to";
    if (A.answeredByDemand()) {
      Ctx.Telem->add("demand.answered", 1);
      Recorder->record("demand.answered", Ctx.Cid,
                       "method=" + Method +
                           " visited=" + std::to_string(A.VisitedStmts) +
                           " skipped=" + std::to_string(A.SkippedStmts));
    } else {
      Ctx.Telem->add("demand.fallbacks", 1);
      Ctx.Telem->add("demand.fallback." + A.FallbackReason, 1);
      Recorder->record("demand.fallback", Ctx.Cid,
                       "method=" + Method + " reason=" + A.FallbackReason);
    }
    Resp.answer(A, K);
    return;
  }

  std::string Error;
  auto Snap = querySnapshot(Req, Error, Ctx);
  if (!Snap) {
    Resp.fail(Error);
    return;
  }
  Resp.Degraded = Snap->degraded();
  Resp.Cached = true;
  if (Strategy == "exhaustive")
    Resp.member("strategy", quoted("exhaustive"));
  if (!QueryError.empty()) {
    Resp.fail(QueryError);
    return;
  }
  Resp.answer(demand::answerFrom(Q, *Snap), K);
}

void Server::handleReadWriteSets(const JsonValue &Req, Response &Resp,
                                 const RequestCtx &Ctx) {
  std::string Error;
  auto Snap = querySnapshot(Req, Error, Ctx);
  if (!Snap) {
    Resp.fail(Error);
    return;
  }
  Resp.Degraded = Snap->degraded();
  Resp.Cached = true;
  std::string Function = Req.getString("function");

  auto RenderMap =
      [&](const std::map<std::string, std::vector<std::string>> &M) {
        std::string Out = "{";
        bool FirstFn = true;
        for (const auto &[Fn, Names] : M) {
          if (!Function.empty() && Fn != Function)
            continue;
          if (!FirstFn)
            Out += ",";
          FirstFn = false;
          Out += quoted(Fn) + ":[";
          for (size_t I = 0; I < Names.size(); ++I) {
            if (I)
              Out += ",";
            Out += quoted(Names[I]);
          }
          Out += "]";
        }
        Out += "}";
        return Out;
      };

  if (!Function.empty() && !Snap->Reads.count(Function) &&
      !Snap->Writes.count(Function)) {
    Resp.fail("unknown function '" + Function + "'");
    return;
  }
  Resp.member("reads", RenderMap(Snap->Reads));
  Resp.member("writes", RenderMap(Snap->Writes));
}

//===----------------------------------------------------------------------===//
// stats / events / invalidate
//===----------------------------------------------------------------------===//

void Server::handleStats(Response &Resp) {
  Resp.member("tool_version", quoted(version::kToolVersion));
  Resp.member("result_format", quoted(version::kResultFormatName));
  Resp.member("result_format_version",
              std::to_string(version::kResultFormatVersion));

  double UptimeMs = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - StartTime)
                        .count();
  char Uptime[32];
  std::snprintf(Uptime, sizeof(Uptime), "%.3f", UptimeMs);
  Resp.member("uptime_ms", Uptime);

  const SummaryCache::Stats CS = Cache->stats();
  uint64_t HitCount = CS.Hits; // MemHits is a subset of Hits
  uint64_t Lookups = HitCount + CS.Misses;
  char Ratio[32];
  std::snprintf(Ratio, sizeof(Ratio), "%.4f",
                Lookups ? static_cast<double>(HitCount) / Lookups : 0.0);
  Resp.member("cache_hit_ratio", Ratio);
  std::string CacheObj =
      "{\"hits\":" + std::to_string(CS.Hits) +
      ",\"mem_hits\":" + std::to_string(CS.MemHits) +
      ",\"misses\":" + std::to_string(CS.Misses) +
      ",\"evictions\":" + std::to_string(CS.Evictions) +
      ",\"bytes_stored\":" + std::to_string(CS.BytesStored) +
      ",\"mem_entries\":" + std::to_string(CS.MemEntries) +
      ",\"mem_bytes\":" + std::to_string(CS.MemBytes) +
      ",\"bad_blobs\":" + std::to_string(CS.BadBlobs) +
      ",\"quarantined\":" + std::to_string(CS.Quarantined) +
      ",\"write_retries\":" + std::to_string(CS.WriteRetries) + "}";
  Resp.member("cache", CacheObj);

  // Refresh the daemon memory gauges at observation time, so the stats
  // response and the next stats-JSON export agree.
  Telem->gauge("mem.peak_rss_kb", support::peakRssKb());
  Telem->gauge("mem.cache_resident_bytes", CS.MemBytes);
  std::string MemObj = "{";
  bool First = true;
  for (const auto &[Name, V] : Telem->gauges()) {
    if (Name.rfind("mem.", 0) != 0)
      continue;
    if (!First)
      MemObj += ",";
    First = false;
    MemObj += quoted(Name) + ":" + std::to_string(V);
  }
  MemObj += "}";
  Resp.member("mem", MemObj);

  Resp.member("latency", Telem->latencyJson());

  // Snapshot under the telemetry lock: other requests register counter
  // names concurrently (StateMu does not cover the telemetry maps), so
  // the raw counters() map must not be iterated live here.
  std::string Counters = "{";
  First = true;
  for (const auto &[Name, V] : Telem->countersSnapshot()) {
    if (!First)
      Counters += ",";
    First = false;
    Counters += quoted(Name) + ":" + std::to_string(V);
  }
  Counters += "}";
  Resp.member("counters", Counters);
}

void Server::handleEvents(const JsonValue &Req, Response &Resp) {
  uint64_t Limit = getU64(Req, "limit", 0);
  std::vector<FlightRecorder::Event> Events =
      Recorder->snapshot(static_cast<size_t>(Limit));
  std::string Arr = "[";
  for (size_t I = 0; I < Events.size(); ++I) {
    if (I)
      Arr += ",";
    Arr += FlightRecorder::eventJson(Events[I]);
  }
  Arr += "]";
  Resp.member("events", Arr);
  Resp.member("recorded", std::to_string(Recorder->totalRecorded()));
  Resp.member("dropped", std::to_string(Recorder->dropped()));
  Resp.member("capacity", std::to_string(Recorder->capacity()));
}

void Server::handleInvalidate(Response &Resp) {
  uint64_t Removed = Cache->invalidate();
  std::shared_ptr<ResidentProgram> Released;
  {
    std::lock_guard<std::mutex> Lock(StateMu);
    Released = std::move(Resident);
  }
  Resp.member("removed_blobs", std::to_string(Removed));
}
