//===- Server.h - Long-lived NDJSON query daemon ----------------*- C++ -*-===//
//
// Part of the mcpta project (PLDI'94 points-to analysis reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The `pta-serve` daemon behind `pta-tool --serve`: a long-lived
/// request/response loop speaking NDJSON (one JSON object per line)
/// over an istream/ostream pair — stdin/stdout in production, string
/// streams in tests.
///
/// Methods: `analyze`, `alias`, `points_to`, `read_write_sets`,
/// `stats`, `events`, `invalidate`, `shutdown` (schemas in
/// docs/SERVING.md). Every `analyze` consults the SummaryCache before
/// running the pipeline; query methods are answered from cached
/// ResultSnapshots without touching the analyzer at all — unless the
/// request selects `"strategy": "demand"` (or the admission ladder
/// picks it automatically under load), in which case `alias` /
/// `points_to` run the demand-driven engine (src/demand/,
/// docs/DEMAND.md) over the last analyzed source and answer from a
/// liveness-pruned analysis, falling back to exhaustive with a
/// recorded reason. That program stays resident between requests —
/// its parse, ProgramMeta and demand engine — so queries after an
/// analyze do not parse it again (docs/SERVING.md). An `analyze`
/// request carrying `"incremental": true` re-analyzes against the
/// previous result with the same options fingerprint through the
/// IncrementalEngine (docs/INCREMENTAL.md) instead of running from
/// scratch. Per-request AnalysisOptions and AnalysisLimits override the
/// server defaults and ride on the existing governance layer, so one
/// hostile request degrades soundly instead of stalling the daemon.
///
/// Every response carries `{id, ok, degraded, cached, elapsed_ms, cid}`.
/// Malformed input — bad JSON, unknown method, missing parameters —
/// produces an `ok:false` response and the loop continues; nothing a
/// client sends terminates the server except `shutdown` (or EOF).
///
/// Observability: each request runs against a request-scoped child
/// Telemetry carrying a correlation id (client-supplied `"cid"` or a
/// generated `r<seq>`), threaded through the cache, the incremental
/// engine, and the analyzer, then merged into the daemon aggregate when
/// the request completes. A request with `"trace": true` gets its own
/// Chrome-trace fragment back in the response. Per-method latency
/// recorders feed `serve.latency.<method>.*` quantiles, and a bounded
/// FlightRecorder keeps the recent event history (`events` method;
/// dumped to the log on shutdown). `handleLine` is safe to call from
/// multiple threads: shared daemon state is mutex-guarded, analyses run
/// outside any daemon lock, and the telemetry core is lock-free on its
/// hot paths.
///
/// Concurrency (docs/SERVING.md): run() has one reader loop that bounds
/// and validates every line. With `Threads <= 1` the reader answers each
/// line itself, in request order, and stops reading at `shutdown`. With
/// `Threads > 1` it feeds a bounded RequestQueue drained by a worker
/// pool; responses may then arrive out of request order — clients
/// correlate by `id`/`cid`, never by line position. The queue is the
/// admission controller: a full queue sheds the request with an
/// `overloaded` error, and queue wait tightens the request's deadline
/// budget along a quantized degradation ladder. In both shapes a
/// watchdog thread cancels requests that outlive their hard deadline
/// through the existing deadline-degradation path (serve.admission.* /
/// serve.watchdog.* counters). Fault injection (`Config::FaultSpec`,
/// per-request `"fault"`) drives the chaos suite; see
/// support/FaultInjection.h.
///
//===----------------------------------------------------------------------===//

#ifndef MCPTA_SERVE_SERVER_H
#define MCPTA_SERVE_SERVER_H

#include "demand/DemandQuery.h"
#include "serve/SummaryCache.h"
#include "support/FaultInjection.h"
#include "support/FlightRecorder.h"

#include <atomic>
#include <chrono>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>

namespace mcpta {
namespace serve {

class JsonValue;

class Server {
public:
  struct Config {
    SummaryCache::Config Cache;
    /// Defaults for analyze requests; per-request "options"/"limits"
    /// members override individual fields.
    pta::Analyzer::Options DefaultOpts;
    /// Worker threads. 0 or 1: the reader answers each line inline, in
    /// request order, with no queue; N > 1: the reader feeds a bounded
    /// queue drained by N workers, and responses may arrive out of order.
    unsigned Threads = 1;
    /// Bounded request-queue capacity (pool mode). A full queue sheds
    /// new requests with an `overloaded` error instead of blocking.
    size_t QueueCap = 128;
    /// Per-request deadline budget in milliseconds (0 = none). Queue
    /// wait counts against it: a request that already waited this long
    /// is shed, and rising queue pressure tightens the analyze
    /// TimeoutMs along the quantized ladder D, D/2, D/4. Also the basis
    /// for the watchdog's hard deadline on requests without their own
    /// timeout.
    uint64_t RequestDeadlineMs = 0;
    /// NDJSON input-line bound; longer lines are consumed and answered
    /// with a protocol error instead of growing the buffer unboundedly.
    size_t MaxLineBytes = 8u << 20;
    /// Fault-injection spec (support/FaultInjection.h grammar), or "on"
    /// to accept per-request "fault" specs with no server-wide arms.
    /// Empty disables fault injection entirely (per-request "fault" is
    /// then a protocol error).
    std::string FaultSpec;
  };

  /// Admission context a pool worker computes when it dequeues a
  /// request: how long the line waited and how deep the queue is now.
  /// The default (all zero) is a direct call — no queue, no wait.
  struct Admission {
    double QueueWaitMs = 0;
    size_t QueueDepth = 0;
    size_t QueueCap = 0;
  };

  explicit Server(Config C);
  ~Server();

  /// Serves until `shutdown` or EOF on \p In. Responses (one line each)
  /// go to \p Out; operational log lines (startup banner, deduplicated
  /// degradation warnings, the shutdown flight-recorder dump) go to
  /// \p Log. Returns the process exit code (0 on orderly shutdown/EOF).
  int run(std::istream &In, std::ostream &Out, std::ostream &Log);

  /// Handles one request line and returns the response line (no
  /// trailing newline). Exposed for in-process tests; sets
  /// \p WantShutdown on a `shutdown` request. Safe to call from
  /// multiple threads concurrently.
  std::string handleLine(const std::string &Line, bool &WantShutdown,
                         std::ostream &Log);

  /// As above, with the admission context a pool worker carries for a
  /// dequeued request (queue wait, depth). Applies late shedding and
  /// the degradation ladder before dispatch.
  std::string handleLine(const std::string &Line, bool &WantShutdown,
                         std::ostream &Log, const Admission &Adm);

  /// One watchdog pass over the in-flight registry: cancels every
  /// request past its hard deadline. Returns how many were cancelled.
  /// run() drives this from the watchdog thread; exposed so tests can
  /// sweep deterministically.
  size_t watchdogSweep();

  const SummaryCache &cache() const { return *Cache; }
  support::Telemetry &telemetry() { return *Telem; }
  support::FlightRecorder &flightRecorder() { return *Recorder; }
  /// Null unless Config::FaultSpec parsed non-empty.
  support::FaultInjection *faultInjection() { return Faults.get(); }

private:
  struct Response;
  /// Request-scoped observability context: the correlation id and the
  /// child Telemetry this request's counters land in before merging
  /// into the daemon aggregate, plus the admission state (ladder level
  /// from queue pressure) and the per-request fault registry.
  struct RequestCtx {
    std::string Cid;
    support::Telemetry *Telem = nullptr;
    uint64_t Seq = 0;
    /// Degradation-ladder level from admission (0 = untightened).
    unsigned LadderLevel = 0;
    /// Request-local fault injection parsed from a "fault" member, or
    /// null. Takes precedence over the server-wide registry in cache
    /// operations scoped to this request.
    support::FaultInjection *ReqFaults = nullptr;
  };

  /// RAII registration of an analyze request in the watchdog's
  /// in-flight registry.
  class InFlightGuard;
  /// One analyzed program kept resident between requests (Resident).
  struct ResidentProgram;

  /// Folds the per-request deadline into \p Lim along the quantized
  /// ladder: level 0 gets the full Config::RequestDeadlineMs, each level
  /// halves it. No-op without a deadline.
  void applyDeadline(support::AnalysisLimits &Lim, unsigned Level) const;
  void handleAnalyze(const JsonValue &Req, Response &Resp, std::ostream &Log,
                     RequestCtx &Ctx);
  /// alias and points_to: one handler for both strategies. Reads the
  /// query from the request, then answers it on the demand path
  /// (explicit "strategy":"demand", or the admission ladder's auto pick)
  /// by running the DemandEngine on the request's text or the resident
  /// program, or else from the snapshot querySnapshot() resolves. Both
  /// answer through demand::answerFrom and render in Response::answer.
  void handleQuery(const JsonValue &Req, Response &Resp,
                   const RequestCtx &Ctx, demand::Query::Kind K);
  void handleReadWriteSets(const JsonValue &Req, Response &Resp,
                           const RequestCtx &Ctx);
  void handleStats(Response &Resp);
  void handleEvents(const JsonValue &Req, Response &Resp);
  void handleInvalidate(Response &Resp);

  /// Resolves the snapshot a query method addresses: the request's
  /// "key" member, or the most recently analyzed result. Null plus an
  /// error message when neither resolves. Takes StateMu internally.
  std::shared_ptr<const ResultSnapshot> querySnapshot(const JsonValue &Req,
                                                      std::string &Error,
                                                      const RequestCtx &Ctx);

  /// The one read loop: bounds and validates each line, then answers it
  /// inline (Threads <= 1, in request order) or admits it to the bounded
  /// queue a pool of Cfg.Threads workers drains.
  int readLoop(std::istream &In, std::ostream &Out, std::ostream &Log);
  /// Builds a response for a line the dispatcher never ran: oversized /
  /// non-UTF8 input (\p Kind = "protocol"), a shed request
  /// ("overloaded"), or a post-shutdown arrival ("shutdown"). \p Line
  /// may be null when the raw bytes are not trustworthy enough to parse
  /// for an id echo (oversized input).
  std::string rejectLine(const std::string *Line, const std::string &Msg,
                         const char *Kind);
  /// Registers/deregisters analyze requests for the watchdog.
  void registerInFlight(uint64_t Seq, const std::string &Cid,
                        uint64_t HardDeadlineMs,
                        std::shared_ptr<std::atomic<bool>> Cancel);
  void deregisterInFlight(uint64_t Seq);

  Config Cfg;
  std::unique_ptr<support::Telemetry> Telem;
  std::unique_ptr<support::FlightRecorder> Recorder;
  std::unique_ptr<SummaryCache> Cache;
  /// Server-wide fault-injection registry (Config::FaultSpec), or null.
  std::unique_ptr<support::FaultInjection> Faults;
  /// Per-request "fault" members are honored (FaultSpec non-empty).
  bool FaultsEnabled = false;
  /// Non-empty when Config::FaultSpec failed to parse; run() refuses to
  /// start and reports it.
  std::string FaultSpecError;
  /// Construction time, for the `stats` uptime_ms member.
  std::chrono::steady_clock::time_point StartTime;
  /// Monotone request sequence, source of generated correlation ids.
  std::atomic<uint64_t> RequestSeq{0};

  /// Watchdog in-flight registry: every analyze currently running, with
  /// the cancel flag its BudgetMeter polls (AnalysisLimits::CancelFlag).
  struct InFlight {
    std::string Cid;
    std::chrono::steady_clock::time_point Start;
    uint64_t HardDeadlineMs = 0;
    std::shared_ptr<std::atomic<bool>> Cancel;
  };
  std::mutex InFlightMu;
  std::map<uint64_t, InFlight> InFlightReqs;

  /// Serializes writes to the operational log: pool workers share one
  /// ostream, and interleaved partial lines would be garbage.
  std::mutex LogMu;

  /// Guards the mutable daemon state below. The SummaryCache, the
  /// telemetry core, and the flight recorder have their own
  /// synchronization and are NOT covered — analyses and cache IO run
  /// outside this lock so the worker pool actually overlaps.
  std::mutex StateMu;
  /// The resident program: the text of the most recent successful
  /// analyze with its cache key and snapshot, which keyless queries
  /// answer from, so a later `{"strategy":"demand"}` query (or the
  /// admission ladder's automatic demand pick) also answers about it
  /// without the client resending the program; plus that text's parse,
  /// ProgramMeta and demand engine, kept between requests so queries do
  /// not rebuild them. Null before the first analyze and after
  /// `invalidate`.
  std::shared_ptr<ResidentProgram> Resident;
  /// Most recent snapshot per options fingerprint: the baseline an
  /// `analyze {"incremental": true}` request re-analyzes against. Keyed
  /// by fingerprint (not cache key) because an edited source hashes to
  /// a different key — the baseline is the previous result computed
  /// under the *same options*, whatever its source was.
  std::map<std::string, std::shared_ptr<const ResultSnapshot>>
      BaselineByFingerprint;
  /// Degradation warnings already logged, keyed by (kind, context), so
  /// sustained budget pressure cannot flood the daemon log.
  std::set<std::string> LoggedDegradations;
};

} // namespace serve
} // namespace mcpta

#endif // MCPTA_SERVE_SERVER_H
