//===- Limits.h - Resource governance for analysis runs ---------*- C++ -*-===//
//
// Part of the mcpta project (PLDI'94 points-to analysis reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Resource governance: budgets, deadlines, and the bookkeeping for
/// sound graceful degradation (see docs/ROBUSTNESS.md).
///
/// The paper's algorithm can blow up on adversarial inputs — the
/// invocation graph grows one node per (call site, callee, context)
/// chain, so a direct-call tree of depth d and fan-out f costs f^d
/// contexts before a single points-to fact is computed, and
/// function-pointer fan-out (Sec. 5) multiplies that further. A
/// production run must terminate within budget with a *sound* answer,
/// never hang or abort.
///
/// `AnalysisLimits` declares the budgets (all default to unlimited);
/// `BudgetMeter` is the cheap run-time meter checked at the existing
/// telemetry hook sites. When a budget trips the analysis does not die:
/// it switches the offending mechanism to a conservative fallback the
/// codebase already has (context-insensitive merged summaries,
/// address-taken binding for unresolved indirect calls, immediate
/// k-limit collapse for invisible-variable chains), records what
/// happened as `Degradation` entries, and keeps going. The channel is
/// exception-free by design: components poll the meter and branch; no
/// unwinding crosses layer boundaries.
///
//===----------------------------------------------------------------------===//

#ifndef MCPTA_SUPPORT_LIMITS_H
#define MCPTA_SUPPORT_LIMITS_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>

namespace mcpta {
namespace support {

/// Which budget a degradation traces back to.
enum class LimitKind : uint8_t {
  Deadline,   ///< wall-clock deadline (AnalysisLimits::TimeoutMs)
  StmtVisits, ///< statement-visit budget (MaxStmtVisits)
  Locations,  ///< abstract-location cap (MaxLocations)
  IGNodes,    ///< invocation-graph node cap (MaxIGNodes)
  RecPasses,  ///< recursion-generalization pass cap (MaxRecPasses)
};
inline constexpr unsigned NumLimitKinds = 5;

/// Stable short name, e.g. for telemetry keys ("deadline", "ig_nodes").
const char *limitKindName(LimitKind K);

/// Budgets for one analysis run. Zero means unlimited; a
/// default-constructed AnalysisLimits governs nothing and costs
/// nothing (the analyzer then allocates no meter at all).
struct AnalysisLimits {
  /// Wall-clock deadline for the whole analysis, in milliseconds.
  uint64_t TimeoutMs = 0;
  /// Total statement visits (every re-analysis of a body counts its
  /// statements again) before the run degrades.
  uint64_t MaxStmtVisits = 0;
  /// Abstract locations in the LocationTable before invisible-variable
  /// chains collapse immediately (top-saturated symbolic names).
  uint64_t MaxLocations = 0;
  /// Invocation-graph nodes before context growth stops and calls share
  /// one canonical per-function node (evaluated context-insensitively).
  uint64_t MaxIGNodes = 0;
  /// Passes of one recursion-generalization fixed point (Figure 4
  /// restarts) before the summary is cut off and demoted to possible.
  uint64_t MaxRecPasses = 0;
  /// External cancellation hook (non-owning, may be null). When the
  /// pointed-to flag becomes true the meter behaves as if the
  /// wall-clock deadline expired: the Deadline trip latches degraded
  /// mode and hardDeadline() returns true so in-flight fixed points cut
  /// themselves off at their next poll. The serve watchdog uses this to
  /// cancel runaway requests (docs/SERVING.md). Excluded from the
  /// options fingerprint: cancellation is per-run plumbing, not part of
  /// what determines the result of an uncancelled run.
  const std::atomic<bool> *CancelFlag = nullptr;

  bool any() const {
    return TimeoutMs || MaxStmtVisits || MaxLocations || MaxIGNodes ||
           MaxRecPasses || CancelFlag;
  }
};

/// One recorded degradation event: which budget tripped, where, and
/// which conservative fallback the analysis switched to.
struct Degradation {
  LimitKind Kind;
  std::string Context; ///< region that degraded, e.g. "call evaluation"
  std::string Action;  ///< fallback taken, e.g. "merged summaries"
};

/// Collapses the per-site detail of a degradation context so repeats of
/// the same failure mode group together: the 'quoted' name — function,
/// call-site expression — becomes "<...>", e.g. both "recursion fixed
/// point of 'f'" and "recursion fixed point of 'g'" map to "recursion
/// fixed point of '<...>'". Warning dedup keys on (kind, category) so a
/// run under sustained budget pressure emits one warning per failure
/// mode, not one per function; full per-event detail stays in the
/// structured Degradation list and the pta.degraded.* counters.
std::string degradationCategory(const std::string &Context);

/// The run-time meter. Hot paths hold a `BudgetMeter *` that is null
/// when no limits are set, so the ungoverned cost is one branch on a
/// null pointer (the same discipline as support::Telemetry). Checks are
/// amortized: tick() reads the clock only every DeadlineCheckMask+1
/// visits.
///
/// Trips are sticky: once a budget is exceeded the corresponding bit
/// stays set for the rest of the run, and the consumer (the analyzer)
/// latches into degraded mode on its next poll.
class BudgetMeter {
public:
  explicit BudgetMeter(const AnalysisLimits &L)
      : Limits(L), Start(std::chrono::steady_clock::now()) {}

  const AnalysisLimits &limits() const { return Limits; }

  /// Per-statement-visit tick. Returns false once any budget is
  /// tripped. Deadline is re-checked every 64 visits. A run ticks from
  /// its own thread; the counter stays atomic (docs/PARALLEL.md), and
  /// the amortized deadline check keys off the returned (unique) count
  /// so each check happens exactly once.
  bool tick() {
    uint64_t N = StmtVisits.fetch_add(1, std::memory_order_relaxed) + 1;
    if (Limits.MaxStmtVisits && N > Limits.MaxStmtVisits)
      trip(LimitKind::StmtVisits);
    if ((N & DeadlineCheckMask) == 0)
      checkDeadline();
    return !tripped();
  }

  /// Records the current abstract-location count; trips Locations when
  /// the cap is exceeded.
  void noteLocations(uint64_t N) {
    if (Limits.MaxLocations && N > Limits.MaxLocations)
      trip(LimitKind::Locations);
  }

  /// Records the current invocation-graph node count; returns false
  /// (and trips IGNodes) when the cap is exceeded. Also amortizes a
  /// deadline check so graph construction itself is governed.
  bool noteIGNode(uint64_t Total) {
    if (Limits.MaxIGNodes && Total > Limits.MaxIGNodes)
      trip(LimitKind::IGNodes);
    if ((Total & DeadlineCheckMask) == 0)
      checkDeadline();
    return !tripped(LimitKind::IGNodes) && !tripped(LimitKind::Deadline);
  }

  /// True when \p Passes of one recursion fixed point exceed the cap.
  bool recPassesExceeded(unsigned Passes) const {
    return Limits.MaxRecPasses && Passes >= Limits.MaxRecPasses;
  }

  /// Forces a clock read; trips Deadline when expired. External
  /// cancellation (AnalysisLimits::CancelFlag) reads as an expired
  /// deadline so it rides the exact degradation path the deadline
  /// budget already exercises.
  bool checkDeadline() {
    if (cancelled()) {
      trip(LimitKind::Deadline);
      return true;
    }
    if (!Limits.TimeoutMs)
      return false;
    if (elapsedMs() > Limits.TimeoutMs)
      trip(LimitKind::Deadline);
    return tripped(LimitKind::Deadline);
  }

  /// True when the run is well past its deadline (4x, floor +50ms) or
  /// externally cancelled. In-flight fixed points cut themselves off at
  /// this point so even degraded evaluation cannot run away.
  bool hardDeadline() {
    if (cancelled())
      return true;
    if (!Limits.TimeoutMs)
      return false;
    uint64_t HardMs = Limits.TimeoutMs * 4;
    if (HardMs < Limits.TimeoutMs + 50)
      HardMs = Limits.TimeoutMs + 50;
    return elapsedMs() > HardMs;
  }

  /// External cancellation requested (watchdog or caller).
  bool cancelled() const {
    return Limits.CancelFlag &&
           Limits.CancelFlag->load(std::memory_order_relaxed);
  }

  void trip(LimitKind K) {
    TrippedMask.fetch_or(bit(K), std::memory_order_relaxed);
  }
  bool tripped() const {
    return TrippedMask.load(std::memory_order_relaxed) != 0;
  }
  bool tripped(LimitKind K) const {
    return (TrippedMask.load(std::memory_order_relaxed) & bit(K)) != 0;
  }

  uint64_t stmtVisits() const {
    return StmtVisits.load(std::memory_order_relaxed);
  }

  double elapsedMs() const {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - Start)
        .count();
  }

private:
  static constexpr uint64_t DeadlineCheckMask = 63;
  static uint8_t bit(LimitKind K) {
    return static_cast<uint8_t>(1u << static_cast<uint8_t>(K));
  }

  AnalysisLimits Limits;
  std::chrono::steady_clock::time_point Start;
  /// Relaxed atomics (see tick()): the budgets are quantity caps, not
  /// synchronization points.
  std::atomic<uint64_t> StmtVisits{0};
  std::atomic<uint8_t> TrippedMask{0};
};

} // namespace support
} // namespace mcpta

#endif // MCPTA_SUPPORT_LIMITS_H
