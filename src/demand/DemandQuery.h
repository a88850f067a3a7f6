//===- DemandQuery.h - Demand-driven points-to queries ----------*- C++ -*-===//
//
// Part of the mcpta project (PLDI'94 points-to analysis reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The demand-driven query engine: answers a single `points_to` or
/// `alias` question about main's final points-to state without running
/// the full exhaustive analysis. The third rung of the ROADMAP's
/// exhaustive / summary / demand strategy ladder.
///
/// Strategy: a query names one or two access-path roots. The engine
/// seeds the Relevance pre-pass's liveness fixpoint with those roots,
/// obtains a live-statement filter over main's body + the global
/// initializers, and runs the ordinary context-sensitive analyzer
/// (pta::Analyzer) with Options::LiveStmts installed — skipped
/// statements become identity transfers, and a skipped call skips its
/// entire invocation subtree. The projection of the result onto the
/// query's roots is *exactly* the exhaustive projection (docs/DEMAND.md
/// has the argument), so the answer is byte-equal to the exhaustive
/// answer — never approximate.
///
/// When a query (or program) escapes the engine's exactness envelope it
/// *falls back* to the exhaustive engine with a recorded reason
/// (Answer::FallbackReason, surfaced as `demand.fallback.<reason>`
/// serve counters):
///   - "no-main"         program has no defined main
///   - "fnptr"           any indirect call site (Figure 5 IG growth can
///                       bind callees the static slice cannot see)
///   - "recursion"       direct-call cycle reachable from main (the
///                       pending-list approximation's trajectory is not
///                       projection-local)
///   - "options"         non-default analyzer semantics requested
///                       (context-insensitive or fnptr-mode ablations,
///                       incremental seeding)
///   - "stmt-scope"      points_to at a specific statement (needs
///                       RecordStmtSets, i.e. every statement visited)
///   - "unresolved-name" query names no program variable (compound
///                       paths, symbolics, heap/NULL, bad syntax)
///   - "ambiguous-name"  display name matches several variables (or a
///                       variable and a function) program-wide
///   - "not-main-scope"  a unique variable, but local to another
///                       function (demand answers about main's frame
///                       and globals)
///   - "unmentioned"     the pruned run's result never mentions the
///                       queried location (the exhaustive location
///                       table may still know it via statement sets)
///   - "degraded"        the pruned run tripped a resource budget
///
//===----------------------------------------------------------------------===//

#ifndef MCPTA_DEMAND_DEMANDQUERY_H
#define MCPTA_DEMAND_DEMANDQUERY_H

#include "demand/Relevance.h"
#include "pointsto/Analyzer.h"
#include "serve/Serialize.h"

#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

namespace mcpta {
namespace demand {

/// One demand question about main's final points-to state.
struct Query {
  enum class Kind { PointsTo, Alias };
  Kind K = Kind::PointsTo;

  /// PointsTo: a location display name (demand resolves plain variable
  /// names; anything else falls back).
  std::string Name;
  /// PointsTo: statement scope; >= 0 falls back ("stmt-scope").
  int64_t StmtId = -1;

  /// Alias: two access-path expressions in the alias-pair vocabulary —
  /// zero or more '*' prefixes on a variable name (e.g. "p", "*p",
  /// "**q").
  std::string A, B;

  static Query pointsTo(std::string Name, int64_t StmtId = -1) {
    Query Q;
    Q.K = Kind::PointsTo;
    Q.Name = std::move(Name);
    Q.StmtId = StmtId;
    return Q;
  }
  static Query alias(std::string A, std::string B) {
    Query Q;
    Q.K = Kind::Alias;
    Q.A = std::move(A);
    Q.B = std::move(B);
    return Q;
  }
};

struct DemandOptions {
  /// Analyzer configuration for both the pruned run and the exhaustive
  /// fallback. The demand run itself always forces RecordStmtSets=false
  /// and Seeder=nullptr. Telem is the sink of query(Q) and
  /// exhaustiveSnapshot(); a long-lived engine leaves it null and passes
  /// each query's sink to query(Q, Telem) instead. Non-default
  /// FnPtr/ContextSensitive settings gate every query to the fallback
  /// ("options").
  pta::Analyzer::Options Analyzer;
};

/// The outcome of one query.
struct Answer {
  /// False only on an unknown location (points_to naming a location the
  /// answering snapshot does not hold); Error then says which.
  bool Ok = false;
  std::string Error;
  /// "demand" or "exhaustive" when the engine answered; empty from
  /// answerFrom(), whose caller knows which result it passed.
  std::string Strategy;
  /// Empty for a demand answer; the gate that fired otherwise.
  std::string FallbackReason;
  /// The answering snapshot degraded under a resource budget. Only an
  /// exhaustive snapshot can: a degraded pruned run falls back.
  bool Degraded = false;

  /// Alias payload.
  bool Aliased = false;
  /// PointsTo payload: (target display name, definite) in canonical
  /// order — byte-equal to the exhaustive answer.
  std::vector<std::pair<std::string, bool>> Targets;

  /// Pruned-run statistics (zero for fallback/trivial answers):
  /// statements the analyzer visited / skipped (pta.stmt_visits /
  /// pta.stmt_skips of the pruned run), and the liveness pass's view of
  /// the pruned region.
  uint64_t VisitedStmts = 0;
  uint64_t SkippedStmts = 0;
  uint64_t SliceBasic = 0;
  uint64_t LiveBasic = 0;

  bool answeredByDemand() const { return Ok && Strategy == "demand"; }
};

/// Answers \p Q from \p S: the one routine that answers alias and
/// points_to from a result, whichever strategy produced it. Strategy
/// and FallbackReason are left empty for the caller to fill.
Answer answerFrom(const Query &Q, const serve::ResultSnapshot &S);

/// Per-program query engine. Builds its gates eagerly (cheap scans) and
/// the Relevance solution and program metadata lazily on the first
/// query that needs them; all are reused across queries, as is the
/// exhaustive fallback snapshot, so a query burst against one program
/// pays each cost once. Not thread-safe: the serve daemon keeps one per
/// resident program and serializes its queries on a mutex.
class DemandEngine {
public:
  /// \p Prog must outlive the engine. \p Meta, when given, is
  /// incr::computeMeta(Prog) already in hand and must outlive the engine
  /// too; otherwise the engine computes it once, on first use.
  DemandEngine(const simple::Program &Prog, DemandOptions Opts,
               const incr::ProgramMeta *Meta = nullptr);
  ~DemandEngine();

  /// Answers \p Q. The pruned run's pta.* counters, and the exhaustive
  /// run's when this query is the first to need it, are recorded into
  /// \p Telem (may be null); the engine keeps no pointer to it.
  Answer query(const Query &Q, support::Telemetry *Telem);
  /// As above, recording into DemandOptions::Analyzer.Telem.
  Answer query(const Query &Q) { return query(Q, Opts.Analyzer.Telem); }

  /// The whole-program gate ("" when demand can run): "no-main",
  /// "options", "fnptr", or "recursion".
  const std::string &programGate() const { return ProgramGate; }

  /// The exhaustive result, run on first use and cached (also used by
  /// fallbacks). Never null; Analyzed=0 inside when the program has no
  /// main.
  const serve::ResultSnapshot &exhaustiveSnapshot() {
    return exhaustive(Opts.Analyzer.Telem);
  }

  /// Offers an exhaustive result of this program that the caller
  /// already holds, so fallbacks answer from it instead of running the
  /// analysis. Taken only while the engine has none and when \p S was
  /// computed under this engine's options fingerprint; the caller vouches
  /// that it is a complete run (not one a watchdog cut short).
  void offerExhaustive(std::shared_ptr<const serve::ResultSnapshot> S);

  /// Relevance statistics (zeros until the first non-gated query forces
  /// the build).
  Relevance::Stats relevanceStats() const;

private:
  /// exhaustiveSnapshot(), recording a first run into \p Telem.
  const serve::ResultSnapshot &exhaustive(support::Telemetry *Telem);
  Answer fallback(const Query &Q, const std::string &Reason,
                  support::Telemetry *Telem);
  const incr::ProgramMeta &meta();
  /// Resolves a plain variable name to a relevance root; on failure
  /// returns -1 with the gate reason in \p GateOut.
  int resolveRoot(const std::string &Name, std::string &GateOut);
  const Relevance &relevance();

  const simple::Program &Prog;
  DemandOptions Opts;
  std::string ProgramGate;
  const simple::FunctionIR *Main = nullptr;
  std::unique_ptr<Relevance> Rel;
  std::shared_ptr<const serve::ResultSnapshot> Exh;
  /// The caller's metadata, or OwnMeta once computed.
  const incr::ProgramMeta *Meta;
  std::unique_ptr<incr::ProgramMeta> OwnMeta;
  /// Display name -> every VarDecl carrying it, program-wide (globals,
  /// params, locals, temps). >1 entry = ambiguous.
  std::map<std::string, std::vector<const cfront::VarDecl *>> VarsByName;
  std::set<std::string> FunctionNames;
};

/// Splits an alias-side expression into (star count, base name).
/// Returns star count -1 when the expression is not `'*'* identifier`.
std::pair<int, std::string> parseAliasExpr(const std::string &Expr);

} // namespace demand
} // namespace mcpta

#endif // MCPTA_DEMAND_DEMANDQUERY_H
