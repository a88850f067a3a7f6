//===- Analyzer.cpp - Context-sensitive points-to analysis -------------------===//
//
// The interprocedural driver: Figures 3/4 (map, memoized evaluate,
// unmap; recursion via pending-list fixed points) and Figure 5
// (function-pointer invocation-graph growth). The intraprocedural
// compositional rules live in the extracted body-transfer kernel
// (BodyKernel.cpp). A run executes start to finish on its calling
// thread.
//
//===----------------------------------------------------------------------===//

#include "pointsto/Analyzer.h"

#include "pointsto/BodyKernel.h"

#include <algorithm>
#include <cassert>
#include <map>
#include <numeric>
#include <set>

using namespace mcpta;
using namespace mcpta::pta;
using namespace mcpta::simple;
namespace cf = mcpta::cfront;

namespace {

/// Per-function summary used by the context-insensitive baseline.
struct FnSummary {
  OptSet StoredInput;
  OptSet StoredOutput;
  bool InProgress = false;
  bool GrewWhileInProgress = false;
  unsigned MemoEpoch = 0;
  bool Valid = false;
};

/// Result::StmtIn under construction: each statement's IN merged over
/// every visit, kept during the run as a plain sorted entry run per
/// reached statement. A run grows geometrically
/// (PointsToSet::mergeIntoRun) and becomes the statement's PointsToSet
/// at hand-over. Only reached statements get a run, so a run that
/// visits few statements (a demand-pruned one) pays little more than
/// Result::StmtIn's own index.
///
/// A statement that receives the IN of an earlier recording statement
/// on every visit shares that statement's run instead of folding the
/// same sets again (see shareFolds): it is reached exactly when the
/// other is, with the same INs, so the merged sets are equal.
class StmtInAccumulator {
public:
  /// Sizes the index for \p Prog's statements; \p Share enables fold
  /// sharing.
  void start(const Program &Prog, bool Share);

  /// With sharing, computes the shared folds of \p Body (a function's
  /// body or the global initializers) from its SIMPLE tree, once per
  /// run, before its first evaluation: a run that evaluates few bodies
  /// (an incremental one) walks few trees.
  void shareBody(const BlockStmt *Body) {
    if (!Body || Root.empty() || BodyShared[Body->id()])
      return;
    BodyShared[Body->id()] = 1;
    shareFolds(Body, NoShare);
  }

  /// Folds one visit's IN into statement \p Id's set.
  void fold(unsigned Id, const PointsToSet &In) {
    if (!Root.empty() && Root[Id] != Id)
      return; // Root[Id] folds this very IN
    unsigned &K = Slot[Id];
    size_t Cap = 0;
    if (K == NoSlot) {
      K = static_cast<unsigned>(Runs.size());
      Runs.emplace_back(In.entries(), In.entries() + In.size());
      SlotStmt.push_back(Id);
    } else {
      Cap = Runs[K].capacity();
      PointsToSet::mergeIntoRun(Runs[K], In);
    }
    // The runs count toward mem.set_heap_bytes_peak like the heap
    // blocks they become.
    if (Runs[K].capacity() != Cap)
      PointsToSet::addHeapBytes(static_cast<int64_t>(
          (Runs[K].capacity() - Cap) * sizeof(PointsToSet::Entry)));
  }

  /// Moves every reached statement's set into \p Out (indexed by
  /// statement id; unreached statements stay unset). A statement
  /// sharing another's run gets a copy-on-write copy of its set.
  void handOver(std::vector<std::optional<PointsToSet>> &Out);

private:
  static constexpr unsigned NoSlot = ~0u;
  /// As a shareFolds argument: no statement's IN is known to be shared.
  static constexpr unsigned NoShare = ~0u;

  /// Records that \p S (and, for a block, its head) receives exactly the
  /// IN recorded at root statement \p Into (NoShare: no such statement),
  /// then walks \p S's children.
  void shareFolds(const Stmt *S, unsigned Into);
  /// The same over a statement sequence run in order (a block body or a
  /// switch case): the head receives \p Into, and the successor of a
  /// statement that passes its IN through unchanged receives that IN.
  void shareList(const std::vector<Stmt *> &Body, unsigned Into);

  /// Per statement id: the index of its run, or NoSlot before its
  /// first fold.
  std::vector<unsigned> Slot;
  /// The runs in first-fold order, and the statement each belongs to.
  std::vector<std::vector<PointsToSet::Entry>> Runs;
  std::vector<unsigned> SlotStmt;
  /// With sharing: per statement id, the statement whose run holds its
  /// set — itself, or an earlier statement it shares the run of (always
  /// its own root). Empty without sharing.
  std::vector<unsigned> Root;
  /// With sharing: per block id, whether shareBody walked that body.
  std::vector<uint8_t> BodyShared;
};

void StmtInAccumulator::start(const Program &Prog, bool Share) {
  Slot.assign(Prog.numStmts(), NoSlot);
  if (!Share)
    return;
  Root.resize(Prog.numStmts());
  std::iota(Root.begin(), Root.end(), 0u);
  BodyShared.assign(Prog.numStmts(), 0);
}

/// True for a statement the kernel passes its IN through unchanged on
/// every visit: a non-call assignment whose lhs holds no pointer (Figure
/// 1's first case, and an aggregate copy with no pointer component).
static bool passesInThrough(const Stmt *S) {
  const auto *A = dynCastStmt<AssignStmt>(S);
  return A && A->RK != AssignStmt::RhsKind::Call &&
         (!A->Lhs.Ty || !A->Lhs.Ty->isPointerBearing());
}

void StmtInAccumulator::shareFolds(const Stmt *S, unsigned Into) {
  if (!S)
    return;
  switch (S->kind()) {
  case Stmt::Kind::Block: // records nothing; its head gets its IN
    shareList(castStmt<BlockStmt>(S)->Body, Into);
    return;
  case Stmt::Kind::Break:
  case Stmt::Kind::Continue: // record nothing
    return;
  default:
    break;
  }
  if (Into != NoShare)
    Root[S->id()] = Into;
  switch (S->kind()) {
  case Stmt::Kind::If: {
    // Both branches start from the if's own IN.
    const auto *I = castStmt<IfStmt>(S);
    shareFolds(I->Then, Root[S->id()]);
    shareFolds(I->Else, Root[S->id()]);
    return;
  }
  case Stmt::Kind::Loop: {
    // The body starts from the generalized loop-head state.
    const auto *L = castStmt<LoopStmt>(S);
    shareFolds(L->Body, NoShare);
    shareFolds(L->Trailer, NoShare);
    return;
  }
  case Stmt::Kind::Switch:
    // A case starts from the switch's IN merged with the fall-through.
    for (const SwitchStmt::Case &C : castStmt<SwitchStmt>(S)->Cases)
      shareList(C.Body, NoShare);
    return;
  default:
    return;
  }
}

void StmtInAccumulator::shareList(const std::vector<Stmt *> &Body,
                                  unsigned Into) {
  for (const Stmt *C : Body) {
    shareFolds(C, Into);
    Into = passesInThrough(C) ? Root[C->id()] : NoShare;
  }
}

void StmtInAccumulator::handOver(std::vector<std::optional<PointsToSet>> &Out) {
  Out.resize(Slot.size());
  for (size_t K = 0; K < Runs.size(); ++K) {
    // The set keeps exactly its entries: a long-lived result carries no
    // growth slack. Its heap block counts its own bytes from here.
    std::vector<PointsToSet::Entry> &Run = Runs[K];
    PointsToSet::addHeapBytes(
        -static_cast<int64_t>(Run.capacity() * sizeof(PointsToSet::Entry)));
    Run.shrink_to_fit();
    Out[SlotStmt[K]] = PointsToSet::fromSortedRun(std::move(Run));
  }
  for (unsigned I = 0; I < Root.size(); ++I)
    if (Root[I] != I && Slot[Root[I]] != NoSlot)
      Out[I] = *Out[Root[I]];
}

class AnalyzerImpl : public BodyKernel::Env {
public:
  AnalyzerImpl(const Program &Prog, const Analyzer::Options &Opts,
               Analyzer::Result &Res)
      : Prog(Prog), Opts(Opts), Res(Res), Locs(*Res.Locs), Eval(Locs),
        MeterStorage(Opts.Limits.any()
                         ? std::make_unique<support::BudgetMeter>(Opts.Limits)
                         : nullptr),
        Meter(MeterStorage.get()), MU(Locs, Prog, Meter),
        Telem(Opts.Telem && Opts.Telem->enabled() ? Opts.Telem : nullptr),
        HStmtIn(Telem ? &Telem->histogram("pta.stmt_in_size") : nullptr),
        HLoopIters(Telem ? &Telem->histogram("pta.loop_fixpoint_iters")
                         : nullptr),
        Kernel(Opts, Locs, Eval, Meter, *this, C, HLoopIters) {
    Locs.setSymbolicLevelLimit(Opts.SymbolicLevelLimit);
    // pta.set.* counters are process-wide; publishTelemetry() reports
    // this run's deltas. The peaks are per-run high-water marks (and,
    // when analyses run side by side in one process, per-process
    // approximations — see docs/PARALLEL.md).
    PointsToSet::stats().PeakPairs.store(0, std::memory_order_relaxed);
    PointsToSet::stats().HeapBytesPeak.store(
        PointsToSet::stats().HeapBytes.load(std::memory_order_relaxed),
        std::memory_order_relaxed);
    SetStatsBegin = PointsToSet::stats().snapshot();
  }

  void run();

  /// Publishes the unified counters: fills Result's legacy fields and,
  /// when telemetry is attached, the pta.* / mu.* / ig.* counters.
  void publishTelemetry();

private:
  //===--------------------------------------------------------------------===//
  // BodyKernel::Env (the intraprocedural kernel's seam back into the
  // interprocedural driver)
  //===--------------------------------------------------------------------===//
  OptSet processCall(const CallInfo &CI, const Reference *LhsRef, OptSet In,
                     IGNode *Ign) override;
  void recordStmtIn(const Stmt *S, const OptSet &In) override;
  void warnOnce(const cf::FunctionDecl *Owner, const std::string &Key,
                const std::string &Msg) override;
  void recordDegradation(support::LimitKind K, const std::string &Context,
                         const std::string &Action) override;

  //===--------------------------------------------------------------------===//
  // Interprocedural rules (Figures 4 & 5)
  //===--------------------------------------------------------------------===//
  OptSet processCallTarget(const cf::FunctionDecl *Callee,
                           const CallInfo &CI, const Reference *LhsRef,
                           const PointsToSet &S, IGNode *Ign);
  /// Figure 4: evaluate one invocation-graph node on a callee-domain
  /// input; returns the callee-domain output (bottom while a recursion
  /// approximation is pending).
  OptSet evaluateCall(IGNode *Node, const PointsToSet &FuncInput);
  OptSet evaluateCallCI(IGNode *Node, const PointsToSet &FuncInput);
  OptSet runRecursionFixpoint(IGNode *Node, const PointsToSet &FuncInput);
  OptSet processBody(IGNode *Node, const PointsToSet &FuncInput);

  /// The global initializers, then main's body: the part of run() that
  /// records StmtIn.
  void analyzeFromGlobals();

  /// Conservative models for library functions without bodies.
  OptSet applyExtern(const cf::FunctionDecl *Callee, const CallInfo &CI,
                     const Reference *LhsRef, PointsToSet S, IGNode *Ign);

  /// Figure 5: makeDefinitePointsTo — inside the target's analysis the
  /// function pointer definitely points to it.
  PointsToSet makeDefinite(const PointsToSet &S, const Location *FptrLoc,
                           const cf::FunctionDecl *Fn);

  std::vector<const cf::FunctionDecl *>
  indirectTargets(const CallInfo &CI, const PointsToSet &S);

  /// Memo-dependency bookkeeping: a node's stored output is valid while
  /// every proper-ancestor Recursive summary it could have consumed is
  /// unchanged.
  static bool memoDepsValid(const IGNode *Node);
  static void recordMemoDeps(IGNode *Node);

  //===--------------------------------------------------------------------===//
  // Resource governance (docs/ROBUSTNESS.md)
  //===--------------------------------------------------------------------===//

  /// Per-statement budget tick: visit counting, amortized deadline and
  /// location-cap checks. One null-pointer branch when ungoverned.
  void budgetTick() {
    if (!Meter)
      return;
    Meter->tick();
    if ((Meter->stmtVisits() & 255) == 0)
      Meter->noteLocations(Locs.numLocations());
    if (Meter->tripped())
      noteTrips();
  }

  /// Latches degraded mode and records one Degradation entry per newly
  /// tripped global budget (deadline, statement visits, locations,
  /// invocation-graph nodes). Per-region cuts (recursion pass cap,
  /// deadline cut of an in-flight fixed point) are recorded at their
  /// sites instead.
  void noteTrips();

  /// First tripped global budget, for attributing secondary fallbacks.
  support::LimitKind primaryTrippedKind() const;

  const Program &Prog;
  const Analyzer::Options &Opts;
  Analyzer::Result &Res;
  LocationTable &Locs;
  LREvaluator Eval;
  /// Reused evaluation buffers for call binding, return-value
  /// translation and the extern models. The actuals are consumed by
  /// map() before the callee is evaluated, and the rest are filled only
  /// after it returns, so nested calls cannot clobber a live buffer.
  std::vector<std::vector<LocDef>> ActualRLocs;
  std::vector<LocDef> Llocs, Rlocs, Scratch;
  /// Owns the budget meter iff any limit is set; components share the
  /// raw pointer and pay one branch when it is null.
  std::unique_ptr<support::BudgetMeter> MeterStorage;
  support::BudgetMeter *Meter;
  MapUnmap MU;

  /// Sticky: set when a global budget trips. From then on every call is
  /// evaluated through the context-insensitive merged summaries and the
  /// invocation graph stops materializing new contexts.
  bool DegradedMode = false;
  bool TripRecorded[support::NumLimitKinds] = {};
  std::set<std::string> DegradationKeys;

  /// Global memoization epoch; bumped whenever a recursion summary
  /// grows, invalidating dependent memo entries.
  unsigned Epoch = 1;
  std::map<const cf::FunctionDecl *, FnSummary> Summaries; // CI baseline
  /// CI baseline: map information merged over every call site of a
  /// function — the context-sensitive per-call map info is precisely
  /// what the ablation removes.
  std::map<const cf::FunctionDecl *, MapResult> MergedMapInfo;
  std::set<std::string> WarnedKeys;

  /// Instrumentation: null when telemetry is off, so every site costs
  /// one branch. The histogram handles are resolved once here to keep
  /// name lookups out of the per-statement path.
  support::Telemetry *Telem;
  support::Histogram *HStmtIn;
  support::Histogram *HLoopIters;
  HotCounters C;
  /// Process-wide PointsToSet traffic at run start (pta.set.* deltas).
  PointsToSet::StatsSnapshot SetStatsBegin;
  /// Result::StmtIn while the run builds it (Options::RecordStmtSets).
  StmtInAccumulator StmtIn;

  /// The extracted intraprocedural kernel (Figure 1 rules).
  BodyKernel Kernel;
};

//===----------------------------------------------------------------------===//
// Helpers
//===----------------------------------------------------------------------===//

void AnalyzerImpl::warnOnce(const cf::FunctionDecl *Owner,
                            const std::string &Key, const std::string &Msg) {
  // Per-function attribution is recorded before the key dedup: a
  // message two bodies both trigger must appear under both owners.
  Res.WarningsByFn.add(Owner, Msg);
  if (WarnedKeys.insert(Key).second)
    Res.Warnings.push_back(Msg);
}

/// Warning-attribution owner for a node being evaluated.
static const cf::FunctionDecl *ownerName(const IGNode *Ign) {
  return Ign ? Ign->function() : nullptr;
}

static const char *trippedContext(support::LimitKind K) {
  switch (K) {
  case support::LimitKind::Deadline:
    return "wall-clock deadline reached";
  case support::LimitKind::StmtVisits:
    return "statement-visit budget exhausted";
  case support::LimitKind::Locations:
    return "abstract-location cap reached";
  case support::LimitKind::IGNodes:
    return "invocation-graph node cap reached";
  case support::LimitKind::RecPasses:
    return "recursion-generalization pass cap reached";
  }
  return "budget exhausted";
}

static const char *trippedAction(support::LimitKind K) {
  switch (K) {
  case support::LimitKind::Locations:
    return "new invisible-variable chains collapse at symbolic level 1; "
           "remaining calls use context-insensitive merged summaries";
  case support::LimitKind::IGNodes:
    return "new contexts share one canonical invocation node per function; "
           "remaining calls use context-insensitive merged summaries";
  default:
    return "remaining calls use context-insensitive merged summaries";
  }
}

support::LimitKind AnalyzerImpl::primaryTrippedKind() const {
  if (Meter)
    for (unsigned I = 0; I < support::NumLimitKinds; ++I)
      if (Meter->tripped(static_cast<support::LimitKind>(I)))
        return static_cast<support::LimitKind>(I);
  return support::LimitKind::Deadline;
}

void AnalyzerImpl::recordDegradation(support::LimitKind K,
                                     const std::string &Context,
                                     const std::string &Action) {
  ++C.DegradedByKind[static_cast<unsigned>(K)];
  std::string Key = std::string(support::limitKindName(K)) + "|" + Context;
  if (!DegradationKeys.insert(Key).second)
    return;
  Res.Degradations.push_back({K, Context, Action});
  // Warnings dedupe one level coarser than the structured record: per
  // (kind, context category), so a budget trip that degrades dozens of
  // per-function fixed points surfaces once, not once per function.
  // Full detail stays in Res.Degradations and pta.degraded.<kind>.
  warnOnce(nullptr, "degraded-" + std::string(support::limitKindName(K)) + "|" +
               support::degradationCategory(Context),
           "analysis degraded [" + std::string(support::limitKindName(K)) +
               "] " + Context + ": " + Action);
}

void AnalyzerImpl::noteTrips() {
  if (!Meter || !Meter->tripped())
    return;
  DegradedMode = true;
  for (unsigned I = 0; I < support::NumLimitKinds; ++I) {
    auto K = static_cast<support::LimitKind>(I);
    if (!Meter->tripped(K) || TripRecorded[I])
      continue;
    TripRecorded[I] = true;
    recordDegradation(K, trippedContext(K), trippedAction(K));
    // Location-table blowup: make every *new* invisible-variable chain
    // collapse immediately into the existing k-limit summary machinery
    // (top-saturated symbolic names), stopping further growth.
    if (K == support::LimitKind::Locations)
      Locs.setSymbolicLevelLimit(1);
  }
}

void AnalyzerImpl::recordStmtIn(const Stmt *S, const OptSet &In) {
  budgetTick();
  if (!In)
    return;
  if (HStmtIn)
    HStmtIn->record(In->size());
  if (Opts.RecordStmtSets)
    StmtIn.fold(S->id(), *In);
}

//===----------------------------------------------------------------------===//
// Interprocedural analysis
//===----------------------------------------------------------------------===//

PointsToSet AnalyzerImpl::makeDefinite(const PointsToSet &S,
                                       const Location *FptrLoc,
                                       const cf::FunctionDecl *Fn) {
  PointsToSet Out = S;
  Out.killFrom(FptrLoc);
  Out.insert(FptrLoc, Locs.fnLoc(Fn), Def::D);
  return Out;
}

std::vector<const cf::FunctionDecl *>
AnalyzerImpl::indirectTargets(const CallInfo &CI, const PointsToSet &S) {
  std::vector<const cf::FunctionDecl *> Out;
  switch (Opts.FnPtr) {
  case FnPtrMode::Precise: {
    const Location *Fptr = Locs.varLoc(CI.FnPtr.Base);
    S.forEachTarget(Fptr, Locs, [&](const Location *T, Def) {
      if (T->isFunction())
        Out.push_back(T->root()->function());
    });
    break;
  }
  case FnPtrMode::AllFunctions:
    for (const cf::FunctionDecl *F : Prog.unit().functions())
      if (F->isDefined())
        Out.push_back(F);
    break;
  case FnPtrMode::AddressTaken:
    for (const cf::FunctionDecl *F : Prog.unit().functions())
      if (F->isDefined() && F->isAddressTaken())
        Out.push_back(F);
    break;
  }
  return Out;
}

OptSet AnalyzerImpl::processCall(const CallInfo &CI, const Reference *LhsRef,
                                 OptSet In, IGNode *Ign) {
  if (!In)
    return {};
  PointsToSet S = std::move(*In);

  if (CI.NoReturn)
    return {}; // exit()/abort(): no normal continuation

  if (!CI.isIndirect())
    return processCallTarget(CI.Callee, CI, LhsRef, S, Ign);

  // Figure 5: resolve through the function pointer's points-to set.
  std::vector<const cf::FunctionDecl *> Targets = indirectTargets(CI, S);
  ++C.IndirectCallsResolved;
  C.IndirectTargetsTotal += Targets.size();
  if (Targets.empty() && DegradedMode && Opts.FnPtr == FnPtrMode::Precise) {
    // Degraded precision (a cut-short fixed point) may have lost the
    // function pointer's bindings. Fall back to the Sec. 5 address-taken
    // baseline rather than risk missing a callee.
    for (const cf::FunctionDecl *F : Prog.unit().functions())
      if (F->isDefined() && F->isAddressTaken())
        Targets.push_back(F);
    if (!Targets.empty())
      recordDegradation(primaryTrippedKind(),
                        "indirect call through '" + CI.FnPtr.str() + "'",
                        "unresolved under degraded precision; bound to "
                        "every address-taken function");
  }
  if (Targets.empty()) {
    warnOnce(ownerName(Ign),
             "fptr-unresolved@" + std::to_string(CI.CallSiteId),
             "indirect call through '" + CI.FnPtr.str() +
                 "' has no resolvable targets; treated as a no-op");
    return OptSet(std::move(S));
  }

  const Location *FptrLoc = Locs.varLoc(CI.FnPtr.Base);
  OptSet CallOutput; // starts as Bottom, merged over invocable functions
  for (const cf::FunctionDecl *Fn : Targets) {
    PointsToSet TargetIn =
        Opts.FnPtr == FnPtrMode::Precise ? makeDefinite(S, FptrLoc, Fn) : S;
    OptSet TargetOut = processCallTarget(Fn, CI, LhsRef, TargetIn, Ign);
    mergeInto(CallOutput, TargetOut);
  }
  return CallOutput;
}

OptSet AnalyzerImpl::processCallTarget(const cf::FunctionDecl *Callee,
                                       const CallInfo &CI,
                                       const Reference *LhsRef,
                                       const PointsToSet &S, IGNode *Ign) {
  const FunctionIR *FIR = Prog.findFunction(Callee);
  if (!FIR)
    return applyExtern(Callee, CI, LhsRef, S, Ign);

  // Evaluate actual R-locations and map into the callee.
  ActualRLocs.resize(CI.Args.size());
  for (size_t I = 0; I < CI.Args.size(); ++I)
    Eval.operandRLocations(CI.Args[I], S, ActualRLocs[I]);
  MapResult MR = MU.map(S, Callee, ActualRLocs, CI.Args);

  IGNode *Child = Res.IG->getOrCreateChild(Ign, CI.CallSiteId, Callee);
  Child->MapInfo = MR.MapInfo; // context-sensitive deposit (Sec. 4.1)

  // A governed run polls here: map() may have crossed the location cap
  // and getOrCreateChild() the node cap, so the very call that crosses
  // a budget is already evaluated through the fallback.
  if (Meter && Meter->tripped())
    noteTrips();
  const bool UseCI = !Opts.ContextSensitive || DegradedMode;

  // Context-insensitive evaluation (the ablation baseline, and degraded
  // mode) also merges the map information across call sites: symbolic
  // names then stand for the union of every context's invisible
  // variables, which is what makes unmapping a merged summary sound.
  const MapResult *UnmapMR = &MR;
  if (UseCI) {
    MapResult &Merged = MergedMapInfo[Callee];
    for (const MapInfoTable::Entry &E : MR.MapInfo) {
      auto &Into = Merged.MapInfo.getOrCreate(E.Sym);
      for (LocationId R : E.Reps)
        insertSortedId(Into, R);
    }
    for (LocationId Src : MR.RepresentedSources)
      insertSortedId(Merged.RepresentedSources, Src);
    UnmapMR = &Merged;
  }

  OptSet CalleeOut = UseCI ? evaluateCallCI(Child, MR.CalleeInput)
                           : evaluateCall(Child, MR.CalleeInput);
  if (!CalleeOut)
    return {};

  PointsToSet OutCaller = MU.unmap(S, *CalleeOut, Callee, *UnmapMR);

  // Return value: translate retval's relationships back and assign.
  if (LhsRef && Callee->returnType()->isPointerBearing()) {
    const Location *Ret = Locs.get(Locs.retval(Callee));
    if (Callee->returnType()->isRecord()) {
      // retval is callee storage: read each pointer component's targets
      // from the callee output and translate them back individually.
      std::vector<LocDef> &LhsStorage = Scratch;
      Eval.lvalLocations(*LhsRef, OutCaller, LhsStorage);
      std::vector<std::vector<PathElem>> Suffixes;
      std::vector<PathElem> Prefix;
      BodyKernel::pointerSuffixPaths(Callee->returnType(), Prefix, Suffixes);
      for (const std::vector<PathElem> &P : Suffixes) {
        const Location *RetP = BodyKernel::applyPath(Locs, Ret, P);
        Rlocs.clear();
        CalleeOut->forEachTarget(RetP, Locs, [&](const Location *T, Def D) {
          for (const Location *CT : MU.translateBack(T, Callee, *UnmapMR))
            Rlocs.push_back({CT, D});
        });
        Llocs.clear();
        for (const LocDef &L : LhsStorage) {
          const Location *LL = BodyKernel::applyPath(Locs, L.Loc, P);
          Def D = (L.D == Def::D && !LL->isSummary()) ? Def::D : Def::P;
          Llocs.push_back({LL, D});
        }
        normalizeLocDefs(Llocs);
        normalizeLocDefs(Rlocs);
        Kernel.applyAssignRule(OutCaller, Llocs, Rlocs);
      }
    } else {
      Rlocs.clear();
      CalleeOut->forEachTarget(Ret, Locs, [&](const Location *T, Def TD) {
        std::vector<const Location *> Back =
            MU.translateBack(T, Callee, *UnmapMR);
        Def D = Back.size() == 1 ? TD : Def::P;
        for (const Location *CT : Back)
          Rlocs.push_back({CT, D});
      });
      Eval.lvalLocations(*LhsRef, OutCaller, Llocs);
      normalizeLocDefs(Rlocs);
      Kernel.applyAssignRule(OutCaller, Llocs, Rlocs);
    }
  }
  return OptSet(std::move(OutCaller));
}

OptSet AnalyzerImpl::evaluateCall(IGNode *Node,
                                  const PointsToSet &FuncInput) {
  switch (Node->kind()) {
  case IGNode::Kind::Approximate: {
    IGNode *Rec = Node->recEdge();
    if (!Rec) {
      // A malformed approximate node has no recursion summary to
      // consult. Recover: identity transfer with definiteness dropped
      // (never claims a kill it cannot justify).
      warnOnce(ownerName(Node->parent()), "approx-no-backedge",
               "internal: approximate invocation node without back edge; "
               "call treated as an identity transfer");
      PointsToSet Out = FuncInput;
      Out.demoteAll();
      return OptSet(std::move(Out));
    }
    if (Rec->StoredInput && FuncInput.subsetOf(*Rec->StoredInput))
      return Rec->StoredOutput; // use the stored summary (may be Bottom)
    Rec->PendingList.push_back(FuncInput);
    ++C.PendingEnqueues;
    return {};
  }
  case IGNode::Kind::Recursive:
    if (Node->FixpointDone && Node->StoredInput &&
        FuncInput == *Node->StoredInput && memoDepsValid(Node)) {
      ++C.MemoHits;
      return Node->StoredOutput;
    }
    ++C.MemoMisses;
    ++Node->EvalCount;
    return runRecursionFixpoint(Node, FuncInput);
  case IGNode::Kind::Ordinary: {
    if (Node->StoredInput && FuncInput == *Node->StoredInput &&
        memoDepsValid(Node)) {
      ++C.MemoHits;
      return Node->StoredOutput;
    }
    ++C.MemoMisses;
    // Incremental re-analysis: at the node's first would-be body
    // evaluation, a successful seed graft restores the whole subtree's
    // memo state from the baseline snapshot and stands in for the
    // evaluation (EvalCount stays 0, mirroring a memo hit).
    if (Opts.Seeder && Node->EvalCount == 0 &&
        Opts.Seeder->trySeed(Node, FuncInput))
      return Node->StoredOutput;
    ++Node->EvalCount;
    OptSet Out = processBody(Node, FuncInput);
    // A function-pointer call inside the body may have discovered that
    // this node is actually recursive (Sec. 5's example): rerun as a
    // proper fixed point.
    if (Node->isRecursive())
      return runRecursionFixpoint(Node, FuncInput);
    Node->StoredInput = FuncInput;
    Node->StoredOutput = Out;
    recordMemoDeps(Node);
    return Out;
  }
  }
  return {};
}

bool AnalyzerImpl::memoDepsValid(const IGNode *Node) {
  for (const auto &[Rec, Version] : Node->MemoDeps)
    if (Rec->SummaryVersion != Version)
      return false;
  return true;
}

void AnalyzerImpl::recordMemoDeps(IGNode *Node) {
  Node->MemoDeps.clear();
  for (const IGNode *N = Node->parent(); N; N = N->parent())
    if (N->isRecursive())
      Node->MemoDeps.push_back({N, N->SummaryVersion});
}

OptSet AnalyzerImpl::runRecursionFixpoint(IGNode *Node,
                                          const PointsToSet &FuncInput) {
  Node->StoredInput = FuncInput;
  Node->StoredOutput.reset();
  Node->PendingList.clear();
  Node->FixpointDone = false;
  ++Node->SummaryVersion;

  unsigned Passes = 0;
  while (true) {
    OptSet FuncOutput = processBody(Node, *Node->StoredInput);
    ++Passes;
    // Governed cut: too many generalization passes of this one fixed
    // point, or a run well past its hard deadline. The partial summary
    // is kept but fully demoted: every pair the truncated fixed point
    // did produce survives as possible, and none of its kills is
    // trusted as definite.
    const bool CutOff =
        Meter && (Meter->recPassesExceeded(Passes) || Meter->hardDeadline());
    if (!Node->PendingList.empty()) {
      // Unresolved inputs: generalize the input estimate and restart —
      // but only when it actually grows. One k-way merge over the
      // stored input and every pending input at once.
      std::vector<const PointsToSet *> Ops;
      Ops.reserve(Node->PendingList.size() + 1);
      Ops.push_back(&*Node->StoredInput);
      for (const PointsToSet &P : Node->PendingList)
        Ops.push_back(&P);
      PointsToSet Merged = PointsToSet::mergeAll(Ops);
      bool Grew = Merged != *Node->StoredInput;
      if (Grew)
        *Node->StoredInput = std::move(Merged);
      Node->PendingList.clear();
      if (Grew && !CutOff) {
        Node->StoredOutput.reset();
        ++Node->SummaryVersion; // descendant memos are now stale
        ++C.FixpointRestarts;   // pending-list wakeup reruns the body
        continue;
      }
    }
    if (CutOff) {
      mergeInto(Node->StoredOutput, FuncOutput);
      if (Node->StoredOutput)
        Node->StoredOutput->demoteAll();
      ++Node->SummaryVersion;
      const std::string Fn = Node->function()->name();
      if (Meter->recPassesExceeded(Passes))
        recordDegradation(support::LimitKind::RecPasses,
                          "recursion fixed point of '" + Fn + "'",
                          "summary cut off after " + std::to_string(Passes) +
                              " generalization pass(es); definiteness "
                              "dropped");
      else
        recordDegradation(support::LimitKind::Deadline,
                          "recursion fixed point of '" + Fn + "'",
                          "cut short past the hard deadline; definiteness "
                          "dropped");
      break;
    }
    if (subsetOfOpt(FuncOutput, Node->StoredOutput))
      break; // output converged
    mergeInto(Node->StoredOutput, FuncOutput);
    ++Node->SummaryVersion;
  }

  // Reset the stored input to this call's input for future memoization
  // (Figure 4's final step).
  Node->StoredInput = FuncInput;
  Node->FixpointDone = true;
  recordMemoDeps(Node);
  return Node->StoredOutput;
}

OptSet AnalyzerImpl::evaluateCallCI(IGNode *Node,
                                    const PointsToSet &FuncInput) {
  FnSummary &Sum = Summaries[Node->function()];
  if (Sum.Valid && Sum.MemoEpoch == Epoch &&
      subsetOfOpt(OptSet(FuncInput), Sum.StoredInput))
    return Sum.StoredOutput;

  if (Sum.InProgress) {
    // Recursive (or re-entrant) use of the summary: consume the current
    // estimate; the outer evaluation iterates only if the input
    // actually grew (otherwise the loop would never terminate).
    if (!subsetOfOpt(OptSet(FuncInput), Sum.StoredInput)) {
      mergeInto(Sum.StoredInput, OptSet(FuncInput));
      Sum.GrewWhileInProgress = true;
    }
    return Sum.StoredOutput;
  }
  mergeInto(Sum.StoredInput, OptSet(FuncInput));

  unsigned Passes = 0;
  while (true) {
    Sum.GrewWhileInProgress = false;
    Sum.InProgress = true;
    OptSet Out = processBody(Node, *Sum.StoredInput);
    Sum.InProgress = false;
    ++Passes;
    // Governed cut for the merged-summary iteration itself; see
    // runRecursionFixpoint for the demotion rationale.
    const bool CutOff =
        Meter && (Meter->recPassesExceeded(Passes) || Meter->hardDeadline());
    if (Sum.GrewWhileInProgress && !CutOff) {
      Sum.StoredOutput.reset();
      ++Epoch;
      continue;
    }
    if (CutOff &&
        (Sum.GrewWhileInProgress || !subsetOfOpt(Out, Sum.StoredOutput))) {
      mergeInto(Sum.StoredOutput, Out);
      if (Sum.StoredOutput)
        Sum.StoredOutput->demoteAll();
      ++Epoch;
      const std::string Fn = Node->function()->name();
      if (Meter->recPassesExceeded(Passes))
        recordDegradation(support::LimitKind::RecPasses,
                          "merged summary of '" + Fn + "'",
                          "summary cut off after " + std::to_string(Passes) +
                              " pass(es); definiteness dropped");
      else
        recordDegradation(support::LimitKind::Deadline,
                          "merged summary of '" + Fn + "'",
                          "cut short past the hard deadline; definiteness "
                          "dropped");
      break;
    }
    if (subsetOfOpt(Out, Sum.StoredOutput))
      break;
    mergeInto(Sum.StoredOutput, Out);
    ++Epoch;
  }
  Sum.Valid = true;
  Sum.MemoEpoch = Epoch;
  return Sum.StoredOutput;
}

OptSet AnalyzerImpl::processBody(IGNode *Node,
                                 const PointsToSet &FuncInput) {
  const FunctionIR *FIR = Prog.findFunction(Node->function());
  if (!FIR) {
    // Callers filter extern functions before evaluating; reaching here
    // means the graph and the program disagree. Recover: treat the call
    // as an identity transfer instead of dying on malformed input.
    warnOnce(ownerName(Node->parent()),
             "body-missing-" + Node->function()->name(),
             "internal: no body for '" + Node->function()->name() +
                 "'; call treated as an identity transfer");
    return OptSet(FuncInput);
  }
  ++C.BodyAnalyses;

  // Local pointer variables are initialized to NULL (Sec. 4.1).
  PointsToSet S = FuncInput;
  for (const cf::VarDecl *V : FIR->Locals) {
    std::vector<const Location *> Subs;
    Locs.pointerSubLocations(Locs.varLoc(V), Subs);
    for (const Location *Sub : Subs)
      S.insert(Sub, Locs.null(), Sub->isSummary() ? Def::P : Def::D);
  }

  if (Opts.RecordStmtSets)
    StmtIn.shareBody(FIR->Body);
  FlowState FS = Kernel.process(FIR->Body, OptSet(std::move(S)), Node);
  OptSet Out = std::move(FS.Normal);
  mergeInto(Out, FS.Ret);
  return Out;
}

//===----------------------------------------------------------------------===//
// Extern models
//===----------------------------------------------------------------------===//

OptSet AnalyzerImpl::applyExtern(const cf::FunctionDecl *Callee,
                                 const CallInfo &CI, const Reference *LhsRef,
                                 PointsToSet S, IGNode *Ign) {
  (void)Ign;
  ++C.ExternCalls;
  const std::string &Name = Callee->name();
  const ExternModel Model = externCallModel(Name);
  const bool IsReturnsArg0 = Model == ExternModel::ReturnsArg0;

  if (LhsRef && LhsRef->Ty && LhsRef->Ty->isPointerBearing()) {
    Rlocs.clear();
    if (IsReturnsArg0 && !CI.Args.empty()) {
      // The result may point anywhere inside the object arg0 points to.
      std::vector<LocDef> &Arg0Targets = Scratch;
      Eval.operandRLocations(CI.Args[0], S, Arg0Targets);
      for (const LocDef &T : Arg0Targets) {
        if (T.Loc->isNull())
          continue;
        Eval.applyIndexToTarget(T.Loc, IndexKind::Unknown, Def::P, Rlocs);
      }
    } else if (Callee->returnType()->isPointerBearing()) {
      // Unknown library function returning a pointer: assume a heap (or
      // library-internal) object.
      warnOnce(ownerName(Ign), "extern-ptr-" + Name,
               "extern function '" + Name +
                   "' returns a pointer; modeled as pointing to heap");
      Rlocs.assign(1, {Locs.heap(), Def::P});
    }
    Eval.lvalLocations(*LhsRef, S, Llocs);
    normalizeLocDefs(Rlocs);
    Kernel.applyAssignRule(S, Llocs, Rlocs);
  }

  // Known pointer-neutral library functions need no warning; anything
  // else gets a one-time note that its side effects are ignored.
  if (Model == ExternModel::Unknown)
    warnOnce(ownerName(Ign), "extern-" + Name,
             "extern function '" + Name +
                 "' has no body; its pointer side effects are ignored");

  return OptSet(std::move(S));
}

//===----------------------------------------------------------------------===//
// Top level
//===----------------------------------------------------------------------===//

void AnalyzerImpl::run() {
  {
    support::Telemetry::Span S(Telem, "ig-build");
    Res.IG = InvocationGraph::build(Prog, Meter);
  }
  if (!Res.IG) {
    Res.Warnings.push_back("program has no defined main(); nothing to do");
    return;
  }
  // The eager invocation-graph expansion may already have crossed the
  // node cap (or the deadline): enter degraded mode before the first
  // statement is processed.
  if (Meter && Meter->tripped())
    noteTrips();
  if (Opts.Seeder)
    Opts.Seeder->begin(Prog, *Res.IG, Locs);
  support::Telemetry::Span PtaSpan(Telem, "pointsto");
  // Under a statement-liveness filter a dead statement records nothing,
  // so no statement may stand in for another's folds.
  if (Opts.RecordStmtSets)
    StmtIn.start(Prog, /*Share=*/!Opts.LiveStmts);
  analyzeFromGlobals();
  if (Opts.RecordStmtSets)
    StmtIn.handOver(Res.StmtIn);
}

void AnalyzerImpl::analyzeFromGlobals() {
  // Startup state: globals' pointer components are NULL unless
  // initialized; then the lowered global initializers run.
  PointsToSet S;
  for (const cf::VarDecl *G : Prog.globals()) {
    std::vector<const Location *> Subs;
    Locs.pointerSubLocations(Locs.varLoc(G), Subs);
    for (const Location *Sub : Subs)
      S.insert(Sub, Locs.null(), Sub->isSummary() ? Def::P : Def::D);
  }

  IGNode *Root = Res.IG->root();
  if (Opts.RecordStmtSets)
    StmtIn.shareBody(Prog.globalInit());
  FlowState InitFS =
      Kernel.process(Prog.globalInit(), OptSet(std::move(S)), Root);
  OptSet MainIn = std::move(InitFS.Normal);
  if (!MainIn)
    MainIn.emplace();

  // main's own locals are initialized inside processBody.
  const FunctionIR *MainIR = Prog.findFunction(Root->function());
  if (!MainIR) {
    Res.Warnings.push_back(
        "invocation-graph root has no analyzable body; nothing to do");
    return;
  }
  PointsToSet S2 = std::move(*MainIn);
  for (const cf::VarDecl *V : MainIR->Locals) {
    std::vector<const Location *> Subs;
    Locs.pointerSubLocations(Locs.varLoc(V), Subs);
    for (const Location *Sub : Subs)
      S2.insert(Sub, Locs.null(), Sub->isSummary() ? Def::P : Def::D);
  }
  ++C.BodyAnalyses;
  ++Root->EvalCount; // main is processed directly, bypassing evaluateCall
  if (Opts.RecordStmtSets)
    StmtIn.shareBody(MainIR->Body);
  FlowState FS = Kernel.process(MainIR->Body, OptSet(std::move(S2)), Root);
  OptSet Out = std::move(FS.Normal);
  mergeInto(Out, FS.Ret);
  Res.MainOut = std::move(Out);
  Res.Analyzed = true;
}

void AnalyzerImpl::publishTelemetry() {
  Res.BodyAnalyses = static_cast<unsigned>(C.BodyAnalyses);
  Res.LoopIterations = static_cast<unsigned>(C.LoopIterations);
  Res.MemoHits = static_cast<unsigned>(C.MemoHits);
  if (!Telem)
    return;

  Telem->add("pta.body_analyses", C.BodyAnalyses);
  Telem->add("pta.memo_hits", C.MemoHits);
  Telem->add("pta.memo_misses", C.MemoMisses);
  Telem->add("pta.loop_iterations", C.LoopIterations);
  Telem->add("pta.pending_enqueues", C.PendingEnqueues);
  Telem->add("pta.fixpoint_restarts", C.FixpointRestarts);
  Telem->add("pta.indirect_calls_resolved", C.IndirectCallsResolved);
  Telem->add("pta.indirect_targets", C.IndirectTargetsTotal);
  Telem->add("pta.extern_calls", C.ExternCalls);
  Telem->add("pta.stmt_visits", C.StmtVisits);
  Telem->add("pta.stmt_skips", C.StmtSkips);
  Telem->add("pta.loop_limit_hits", C.LoopLimitHits);
  Telem->add("pta.degradations", Res.Degradations.size());
  for (unsigned I = 0; I < support::NumLimitKinds; ++I)
    Telem->add("pta.degraded." +
                   std::string(support::limitKindName(
                       static_cast<support::LimitKind>(I))),
               C.DegradedByKind[I]);
  Telem->add("pta.warnings", Res.Warnings.size());
  if (Res.MainOut)
    Telem->add("pta.main_out_pairs", Res.MainOut->size());

  PointsToSet::StatsSnapshot SS = PointsToSet::stats().snapshot();
  Telem->add("pta.set.peak_pairs", SS.PeakPairs);
  Telem->add("pta.set.cow_shares", SS.CowShares - SetStatsBegin.CowShares);
  Telem->add("pta.set.cow_detaches",
             SS.CowDetaches - SetStatsBegin.CowDetaches);
  Telem->add("pta.set.kernel_calls",
             SS.KernelCalls - SetStatsBegin.KernelCalls);

  const MapUnmap::Counters &MC = MU.counters();
  Telem->add("mu.map_calls", MC.MapCalls);
  Telem->add("mu.unmap_calls", MC.UnmapCalls);
  Telem->add("mu.mapped_sources", MC.MappedSources);
  Telem->add("mu.invisible_vars", MC.InvisibleVars);
  Telem->add("mu.unmap_pairs", MC.UnmapPairs);

  uint64_t Entities = 0;
  Locs.forEachEntity([&Entities](const Entity *) { ++Entities; });
  Telem->add("loc.entities", Entities);

  // Memory gauges: point-in-time footprint snapshots (not totals), so
  // they land in the stats export's "gauges" section. The set-heap peak
  // is the CoW heap tier's high-water mark over this run.
  Telem->gauge("mem.peak_rss_kb", support::peakRssKb());
  Telem->gauge("mem.set_heap_bytes_peak", SS.HeapBytesPeak);
  Telem->gauge("mem.location_table_locations", Locs.numLocations());
  Telem->gauge("mem.location_table_entities", Entities);

  if (Res.IG) {
    Telem->add("ig.nodes", Res.IG->numNodes());
    Telem->add("ig.recursive_nodes", Res.IG->numRecursive());
    Telem->add("ig.approximate_nodes", Res.IG->numApproximate());
    Telem->add("ig.functions_covered", Res.IG->numFunctionsCovered());
    Telem->add("ig.nodes_created", Res.IG->buildCounters().NodesCreated);
    Telem->add("ig.child_cache_hits",
               Res.IG->buildCounters().ChildCacheHits);
    Telem->add("ig.canonical_fallbacks",
               Res.IG->buildCounters().CanonicalFallbacks);
  }
}

} // namespace

//===----------------------------------------------------------------------===//
// Extern-call model
//===----------------------------------------------------------------------===//

ExternModel mcpta::pta::externCallModel(const std::string &Name) {
  // Functions that return (a pointer into) their first argument.
  static const char *const ReturnsArg0[] = {
      "strcpy", "strncpy", "strcat", "strncat", "memcpy",
      "memmove", "memset",  "strchr", "strrchr", "strstr",
      "strpbrk", "strtok",  "gets",   "fgets",
  };
  for (const char *N : ReturnsArg0)
    if (Name == N)
      return ExternModel::ReturnsArg0;

  static const char *const Neutral[] = {
      "printf", "fprintf", "sprintf", "snprintf", "puts",   "putchar",
      "scanf",  "fscanf",  "sscanf",  "getchar",  "free",   "strlen",
      "strcmp", "strncmp", "atoi",    "atof",     "abs",    "rand",
      "srand",  "time",    "clock",   "fopen",    "fclose", "fread",
      "fwrite", "fflush",  "feof",    "qsort",    "sqrt",   "pow",
      "sin",    "cos",     "tan",     "exp",      "log",    "floor",
      "ceil",   "fabs",    "toupper", "tolower",  "isalpha", "isdigit",
      "isspace",
  };
  for (const char *N : Neutral)
    if (Name == N)
      return ExternModel::Neutral;
  return ExternModel::Unknown;
}

//===----------------------------------------------------------------------===//
// FunctionWarningLog
//===----------------------------------------------------------------------===//

bool FunctionWarningLog::add(const cf::FunctionDecl *Fn,
                             const std::string &Msg) {
  OwnerEntry *E = nullptr;
  for (OwnerEntry &O : Owners)
    if (O.Fn == Fn) {
      E = &O;
      break;
    }
  if (!E) {
    Owners.push_back(OwnerEntry{Fn, {}});
    E = &Owners.back();
  }
  auto It = std::lower_bound(E->Msgs.begin(), E->Msgs.end(), Msg);
  if (It != E->Msgs.end() && *It == Msg)
    return false;
  E->Msgs.insert(It, Msg);
  return true;
}

std::vector<std::pair<std::string, std::vector<std::string>>>
FunctionWarningLog::sortedByName() const {
  std::vector<std::pair<std::string, std::vector<std::string>>> Out;
  Out.reserve(Owners.size());
  for (const OwnerEntry &O : Owners)
    Out.emplace_back(O.Fn ? O.Fn->name() : std::string(), O.Msgs);
  std::sort(Out.begin(), Out.end(),
            [](const auto &A, const auto &B) { return A.first < B.first; });
  return Out;
}

const std::vector<std::string> *
FunctionWarningLog::messagesOf(const cf::FunctionDecl *Fn) const {
  for (const OwnerEntry &O : Owners)
    if (O.Fn == Fn)
      return &O.Msgs;
  return nullptr;
}

Analyzer::Result Analyzer::run(const Program &Prog, const Options &Opts) {
  Result Res;
  Res.Locs = std::make_unique<LocationTable>();
  AnalyzerImpl Impl(Prog, Opts, Res);
  Impl.run();
  Impl.publishTelemetry();
  return Res;
}

Analyzer::Result Analyzer::run(const Program &Prog) {
  return run(Prog, Options());
}
