//===- BodyKernel.h - Sequential body-transfer kernel -----------*- C++ -*-===//
//
// Part of the mcpta project (PLDI'94 points-to analysis reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The body-transfer kernel: the compositional intraprocedural rules of
/// Figure 1 (kill / change-to-possible / gen, if-merge, loop fixed
/// points, switch fall-through, and the abrupt-completion channels of
/// [13]), factored out of the interprocedural driver so "IN map +
/// body → OUT map" is one self-contained unit of work.
///
/// Purity contract: the kernel holds no global mutable state. Every
/// effect beyond the returned FlowState goes through one of
///  - the Env callback interface (interprocedural evaluation of calls,
///    per-statement IN recording, warnings, degradation records) — the
///    seam the driver plugs its memo tables and telemetry into;
///  - the HotCounters block the caller passes in (plain counters, owned
///    by the caller, one block per analysis run);
///  - the LocationTable (interning is append-only and owned by the
///    run).
/// Given the same IN map, body, and Env answers, the kernel computes
/// the same OUT map.
///
/// The assignment-rule helpers (applyAssignRule, applyStructCopy,
/// pointerSuffixPaths, applyPath) are public: the driver reuses them
/// for return-value translation and the extern-call models.
///
/// The kernel owns the L/R-location buffers LREvaluator writes into and
/// reuses them on every visit, so an assignment allocates nothing once
/// they have grown. No buffer is live across a call into Env.
///
//===----------------------------------------------------------------------===//

#ifndef MCPTA_POINTSTO_BODYKERNEL_H
#define MCPTA_POINTSTO_BODYKERNEL_H

#include "ig/InvocationGraph.h"
#include "pointsto/Analyzer.h"
#include "pointsto/LRLocations.h"
#include "pointsto/PointsToSet.h"
#include "simple/SimpleIR.h"
#include "support/Limits.h"
#include "support/Telemetry.h"

#include <optional>
#include <string>
#include <vector>

namespace mcpta {
namespace pta {

using OptSet = std::optional<PointsToSet>;

/// Bottom-aware merge: merging with an unreachable state keeps the other
/// operand unchanged (Bottom is the identity of Merge, Figure 4).
inline void mergeInto(OptSet &A, const OptSet &B) {
  if (!B)
    return;
  if (!A) {
    A = *B;
    return;
  }
  A->mergeWith(*B);
}

inline bool subsetOfOpt(const OptSet &A, const OptSet &B) {
  if (!A)
    return true; // bottom is contained in everything
  if (!B)
    return false;
  return A->subsetOf(*B);
}

/// Flow state threaded through the compositional rules: the normal
/// continuation plus the abrupt-completion channels of [13].
struct FlowState {
  OptSet Normal;
  OptSet Brk;
  OptSet Cont;
  OptSet Ret;
};

/// Unified hot-path counters. One plain struct replaces the old ad-hoc
/// ++Res.X plumbing; Result's legacy fields and the telemetry counters
/// are both published from here once, in publishTelemetry(). Mutated
/// only by the run that owns it (the kernel and the driver).
struct HotCounters {
  uint64_t BodyAnalyses = 0;
  uint64_t MemoHits = 0;
  uint64_t MemoMisses = 0;
  uint64_t LoopIterations = 0;
  uint64_t PendingEnqueues = 0;
  uint64_t FixpointRestarts = 0;
  uint64_t IndirectCallsResolved = 0;
  uint64_t IndirectTargetsTotal = 0;
  uint64_t ExternCalls = 0;
  /// process() dispatches that ran a statement's transfer function, and
  /// dispatches short-circuited by Options::LiveStmts. Their sum is the
  /// statement coverage of the run; the demand engine's visited-statement
  /// ratio is its StmtVisits over the exhaustive run's.
  uint64_t StmtVisits = 0;
  uint64_t StmtSkips = 0;
  /// Loops whose fixed point was stopped by MaxLoopIterations.
  uint64_t LoopLimitHits = 0;
  /// Degradation occurrences per LimitKind (pta.degraded.*).
  uint64_t DegradedByKind[support::NumLimitKinds] = {};
};

class BodyKernel {
public:
  /// The interprocedural seam: everything the compositional rules need
  /// from the layer above. The driver (AnalyzerImpl) implements it with
  /// its memo tables, budget governance, and warning dedup; tests can
  /// substitute a stub to exercise the kernel in isolation.
  class Env {
  public:
    virtual ~Env() = default;
    /// Figure 4/5 call evaluation: caller-domain IN → caller-domain OUT
    /// (Bottom while a recursion approximation is pending, or for a
    /// NoReturn callee).
    virtual OptSet processCall(const simple::CallInfo &CI,
                               const simple::Reference *LhsRef, OptSet In,
                               IGNode *Ign) = 0;
    /// Per-statement IN recording (budget tick + StmtIn fold).
    virtual void recordStmtIn(const simple::Stmt *S, const OptSet &In) = 0;
    /// \p Owner is the function whose evaluation raised the warning.
    virtual void warnOnce(const cfront::FunctionDecl *Owner,
                          const std::string &Key, const std::string &Msg) = 0;
    /// Records a budget-triggered degradation event.
    virtual void recordDegradation(support::LimitKind K,
                                   const std::string &Context,
                                   const std::string &Action) = 0;
  };

  /// \p Meter may be null (ungoverned run); \p HLoopIters may be null
  /// (telemetry off). Neither is owned.
  BodyKernel(const Analyzer::Options &Opts, LocationTable &Locs,
             LREvaluator &Eval, support::BudgetMeter *Meter, Env &E,
             HotCounters &C, support::Histogram *HLoopIters)
      : Opts(Opts), Locs(Locs), Eval(Eval), Meter(Meter), E(E), C(C),
        HLoopIters(HLoopIters) {}

  /// The transfer function: IN map + statement (tree) → flow state.
  FlowState process(const simple::Stmt *S, OptSet In, IGNode *Ign);

  /// Applies the basic kill/change/gen rule of Figure 1. A strong update
  /// (a single definite L-location) replaces that location's source run
  /// in one splice (PointsToSet::replaceFrom).
  void applyAssignRule(PointsToSet &S, const std::vector<LocDef> &Llocs,
                       const std::vector<LocDef> &Rlocs);

  /// Structure assignment: broken into per-pointer-component assignments
  /// (the paper's note below Figure 1). \p RhsStorage are the locations
  /// of the source aggregate. Each component is evaluated in the
  /// kernel's Llocs/Rlocs buffers, so neither argument may be one.
  void applyStructCopy(PointsToSet &S, const std::vector<LocDef> &LhsStorage,
                       const std::vector<LocDef> &RhsStorage,
                       const cfront::Type *Ty);

  /// Enumerates the relative paths of all pointer components of a type.
  static void pointerSuffixPaths(const cfront::Type *Ty,
                                 std::vector<PathElem> &Prefix,
                                 std::vector<std::vector<PathElem>> &Out);

  static const Location *applyPath(LocationTable &Locs, const Location *L,
                                   const std::vector<PathElem> &Path);

private:
  FlowState processBlock(const simple::BlockStmt *B, OptSet In, IGNode *Ign);
  FlowState processIf(const simple::IfStmt *I, OptSet In, IGNode *Ign);
  FlowState processLoop(const simple::LoopStmt *L, OptSet In, IGNode *Ign);
  FlowState processSwitch(const simple::SwitchStmt *Sw, OptSet In,
                          IGNode *Ign);
  FlowState processAssign(const simple::AssignStmt *A, OptSet In, IGNode *Ign);
  FlowState processReturn(const simple::ReturnStmt *R, OptSet In, IGNode *Ign);

  const Analyzer::Options &Opts;
  LocationTable &Locs;
  LREvaluator &Eval;
  support::BudgetMeter *Meter;
  Env &E;
  HotCounters &C;
  support::Histogram *HLoopIters;
  /// Reused evaluation buffers: an assignment's L- and R-locations, and
  /// the storage locations of an aggregate copy's two sides.
  std::vector<LocDef> Llocs, Rlocs, LhsStorage, RhsStorage;
  /// The gen pairs of a strong update, reused like the buffers above.
  std::vector<PointsToSet::Entry> Gen;
};

} // namespace pta
} // namespace mcpta

#endif // MCPTA_POINTSTO_BODYKERNEL_H
