//===- Analyzer.h - Context-sensitive points-to analysis --------*- C++ -*-===//
//
// Part of the mcpta project (PLDI'94 points-to analysis reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The points-to analysis driver: the compositional intraprocedural
/// rules of Figure 1 (kill / change-to-possible / gen, if-merge, loop
/// fixed points, plus the full break/continue/return channels of [13]),
/// the interprocedural strategy of Figures 3/4 (map, memoized evaluate,
/// unmap; recursion via pending-list fixed points over Recursive /
/// Approximate invocation-graph nodes), and the function-pointer
/// algorithm of Figure 5 (invocation-graph growth driven by the
/// function pointer's own points-to set, with makeDefinitePointsTo
/// specializing the input per target).
///
/// Two ablation switches reproduce the paper's baselines:
///  - FnPtrMode::AllFunctions / AddressTaken implement the naive call
///    graph instantiation strategies of Sec. 5 (the 'livc' study);
///  - ContextSensitive=false degrades the analysis to one merged
///    summary per function (inputs unioned over all call sites).
///
//===----------------------------------------------------------------------===//

#ifndef MCPTA_POINTSTO_ANALYZER_H
#define MCPTA_POINTSTO_ANALYZER_H

#include "ig/InvocationGraph.h"
#include "pointsto/LRLocations.h"
#include "pointsto/MapUnmap.h"
#include "pointsto/PointsToSet.h"
#include "simple/SimpleIR.h"
#include "support/Limits.h"
#include "support/Telemetry.h"

#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

namespace mcpta {
namespace pta {

/// Per-function warning attribution, keyed by the owning FunctionDecl
/// (null for warnings raised outside any body, e.g. at global init).
/// Messages are deduped per owner. The deterministic view sorts owners
/// by function name (null renders as "") and messages lexicographically
/// — exactly the order the previous string-keyed map produced, computed
/// once at read time instead of on every insertion.
class FunctionWarningLog {
public:
  /// Records \p Msg under \p Fn. Returns true when new for that owner.
  bool add(const cfront::FunctionDecl *Fn, const std::string &Msg);

  bool empty() const { return Owners.empty(); }

  /// (owner name, sorted messages) pairs, sorted by owner name.
  std::vector<std::pair<std::string, std::vector<std::string>>>
  sortedByName() const;

  /// The messages attributed to \p Fn (unsorted owner lookup; messages
  /// are sorted and unique).
  const std::vector<std::string> *
  messagesOf(const cfront::FunctionDecl *Fn) const;

private:
  struct OwnerEntry {
    const cfront::FunctionDecl *Fn = nullptr;
    std::vector<std::string> Msgs; ///< sorted, unique
  };
  /// A handful of owners at most: linear decl lookup, no ordered map.
  std::vector<OwnerEntry> Owners;
};

/// How the analyzer models a call to a function without a body. The
/// flow-insensitive solver (baselines::AndersenSolver) must
/// over-approximate the analyzer's extern semantics, so the
/// classification is shared rather than duplicated.
enum class ExternModel {
  /// Returns (a pointer into) its first argument (strcpy family): the
  /// call's only pointer effect is `lhs <- targets of arg0` (possible,
  /// unknown index).
  ReturnsArg0,
  /// Known pointer-neutral library function: no pointer effect at all
  /// beyond `lhs <- heap` when the return type is pointer-bearing.
  Neutral,
  /// Anything else: a one-time warning, and the same `lhs <- heap`
  /// model as Neutral. No other location is written.
  Unknown,
};

/// Classification used by the extern-call transfer function.
ExternModel externCallModel(const std::string &Name);

/// How indirect call sites are bound to callees.
enum class FnPtrMode {
  Precise,      ///< Figure 5: the function pointer's points-to set
  AllFunctions, ///< naive baseline: every function in the program
  AddressTaken, ///< baseline: every function whose address is taken
};

/// Hook the incremental engine (src/incr/) uses to seed the invocation
/// graph's memo tables from a previous run's snapshot. When installed
/// via Options::Seeder, the analyzer consults it exactly once per node,
/// at the node's first would-be body evaluation: a successful trySeed
/// must leave the node (and its grafted subtree) in the same state a
/// fresh evaluation would have produced — StoredInput/StoredOutput set,
/// FixpointDone for recursive nodes, memo dependencies recorded — and
/// the analyzer then consumes Node->StoredOutput without touching the
/// body.
class MemoSeeder {
public:
  virtual ~MemoSeeder() = default;

  /// Called once after the initial invocation-graph build, before any
  /// evaluation, handing over the live structures seeds graft into.
  virtual void begin(const simple::Program &Prog, InvocationGraph &IG,
                     LocationTable &Locs) = 0;

  /// Attempts to satisfy the first evaluation of \p Node (its EvalCount
  /// is still 0) for calling context \p Input. Returns true on a
  /// successful graft.
  virtual bool trySeed(IGNode *Node, const PointsToSet &Input) = 0;
};

/// Entry point of the points-to analysis.
class Analyzer {
public:
  struct Options {
    FnPtrMode FnPtr = FnPtrMode::Precise;
    /// When false, one merged summary per function replaces the
    /// per-invocation-context memoization (ablation baseline).
    bool ContextSensitive = true;
    /// Record the merged input points-to set at every statement
    /// (required by the Tables 3-5 statistics clients).
    bool RecordStmtSets = true;
    /// K-limit for symbolic-name chains (see LocationTable).
    unsigned SymbolicLevelLimit = 5;
    /// Safety valve for loop fixed points.
    unsigned MaxLoopIterations = 10000;
    /// Resource budgets (wall-clock deadline, statement-visit budget,
    /// abstract-location cap, invocation-graph node cap, recursion
    /// pass cap). Default: all unlimited, no meter allocated, zero
    /// overhead. When any budget trips the run does not die — it
    /// degrades soundly and visibly; see Result::Degradations and
    /// docs/ROBUSTNESS.md for the fallback semantics.
    support::AnalysisLimits Limits;
    /// Optional instrumentation sink. When null (the default), the
    /// analysis records nothing and pays only a null-pointer branch at
    /// each instrumented site. When set, phase spans (ig-build,
    /// pointsto), hot-path counters (pta.*, mu.*, ig.*), and size
    /// histograms are recorded into it (see docs/OBSERVABILITY.md).
    support::Telemetry *Telem = nullptr;
    /// Memo-table seeding hook for incremental re-analysis; null (the
    /// default) for ordinary from-scratch runs.
    MemoSeeder *Seeder = nullptr;
    /// Statement-liveness filter for demand-driven queries (src/demand/),
    /// indexed by simple::Stmt::id(). A statement whose entry is 0 is an
    /// identity transfer: its points-to effect (and, for calls, the
    /// entire invocation subtree underneath it) is skipped. Ids at or
    /// beyond the vector's size are treated as live, and null (the
    /// default) analyzes everything. The caller is responsible for only
    /// marking statements dead when skipping them cannot change the
    /// projection of the result it intends to read (see docs/DEMAND.md
    /// for the exactness argument the demand engine relies on).
    const std::vector<uint8_t> *LiveStmts = nullptr;
  };

  struct Result {
    /// Owns every Entity/Location the sets refer to.
    std::unique_ptr<LocationTable> Locs;
    /// The invocation graph, completed with function-pointer targets.
    std::unique_ptr<InvocationGraph> IG;
    /// Per-statement input points-to set, merged over all invocation
    /// contexts reaching the statement (index: simple::Stmt::id()).
    /// Unset entries are statements never reached.
    std::vector<std::optional<PointsToSet>> StmtIn;
    /// Points-to set at the end of main.
    std::optional<PointsToSet> MainOut;
    /// False when the program has no defined main.
    bool Analyzed = false;

    /// Headline counters, published once at the end of the run. These
    /// are thin reads of the unified telemetry counters (pta.*): when
    /// Options::Telem is set, the same values appear there under
    /// "pta.body_analyses", "pta.loop_iterations", and "pta.memo_hits".
    unsigned BodyAnalyses = 0;
    unsigned LoopIterations = 0;
    /// Calls answered from a node's memoized IN/OUT pair without
    /// re-analyzing the body (the paper's Sec. 4 advantage (3)).
    unsigned MemoHits = 0;
    std::vector<std::string> Warnings;
    /// Every warning message keyed by the FunctionDecl whose evaluation
    /// emitted it (null for warnings raised outside any function body,
    /// e.g. at global init). Unlike Warnings this is not deduplicated
    /// across functions: a message two bodies both trigger appears
    /// under both. The incremental engine restores a skipped clean
    /// function's warnings from its baseline entry.
    FunctionWarningLog WarningsByFn;

    /// Every budget-triggered degradation the run took, in the order
    /// they were entered (also mirrored as pta.degraded.* telemetry
    /// counters and surfaced as warnings by the Pipeline). Empty for a
    /// clean run. A degraded result is still safe to consume: each
    /// fallback over-approximates (merged summaries, address-taken
    /// binding, immediate k-limit collapse), except where the entry's
    /// Action says a fixed point was cut short (see docs/ROBUSTNESS.md
    /// for the per-fallback soundness argument).
    std::vector<support::Degradation> Degradations;
    bool degraded() const { return !Degradations.empty(); }
  };

  /// Runs the analysis over a simplified program.
  static Result run(const simple::Program &Prog, const Options &Opts);
  /// Runs with default options.
  static Result run(const simple::Program &Prog);
};

} // namespace pta
} // namespace mcpta

#endif // MCPTA_POINTSTO_ANALYZER_H
