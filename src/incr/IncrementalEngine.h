//===- IncrementalEngine.h - Incremental re-analysis engine -----*- C++ -*-===//
//
// Part of the mcpta project (PLDI'94 points-to analysis reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Layer 2 of the incremental re-analysis subsystem: given a baseline
/// result snapshot (mcpta-result-v3) and an edited source text,
/// re-analyze only what the edit can affect.
///
/// The contract is *exact equivalence*: the snapshot an incremental run
/// produces is byte-identical to a from-scratch run of the same source
/// with the same options (IncrementalTest proves this over the whole
/// corpus x every mutation kind). That is only possible because reuse is
/// gated three ways:
///
///  1. a *dirty set* — changed functions plus everything that can
///     observe them (transitive callers over direct-call edges, baseline
///     invocation-graph parent edges for indirect calls, referencers of
///     changed globals, and — because indirect extern calls leave no
///     edge at all — every indirect-calling function when any extern
///     declaration changes);
///  2. *donor eligibility* — a baseline invocation-graph subtree is
///     reusable only if every function in it is clean, it evaluated
///     exactly once, and no recursion back edge escapes it;
///  3. *input matching* — a donor fires only for a live calling context
///     whose input points-to set is structurally identical to the
///     donor's memoized input (locations compared by the same canonical
///     keys serve::capture sorts by).
///
/// When any gate cannot be established the engine falls back to a full
/// re-analysis and says why (IncrStats::FallbackReason, surfaced as an
/// `incr.fallback.<reason>` telemetry counter) — degradation is never
/// silent, matching the robustness layer's philosophy.
///
//===----------------------------------------------------------------------===//

#ifndef MCPTA_INCR_INCREMENTALENGINE_H
#define MCPTA_INCR_INCREMENTALENGINE_H

#include "driver/Pipeline.h"
#include "serve/Serialize.h"
#include "support/Diagnostics.h"
#include "support/Telemetry.h"

#include <cstdint>
#include <set>
#include <string>

namespace mcpta {
namespace incr {

/// What one reanalyze() call did, for callers and telemetry.
struct IncrStats {
  /// True when memo seeding ran to completion; false means a full
  /// from-scratch analysis was performed instead.
  bool UsedIncremental = false;
  /// Why the engine fell back ("" when UsedIncremental). One of:
  /// no-baseline (no baseline was given: the first run, recorded as no
  /// incr.fallback.* counter), options-mismatch (baseline produced under
  /// a different options fingerprint), options-unsupported,
  /// baseline-unanalyzed, baseline-degraded, frontend-error,
  /// types-changed, no-main, analysis-failed, graft-failed, coverage,
  /// restore-failed.
  std::string FallbackReason;
  /// Live defined functions in the dirty closure.
  uint64_t DirtyFunctions = 0;
  /// Baseline body evaluations whose replay was skipped (sum of donor
  /// EvalCount over fired grafts).
  uint64_t MemoReuse = 0;
  /// Grafts that fired (donor subtrees spliced into the live graph).
  uint64_t SeedHits = 0;
  /// Baseline per-statement rows of grafted functions: carried into the
  /// snapshot in canonical form, or built as live sets (merged with a
  /// live row, or because their function's read/write sets must be
  /// recomputed).
  uint64_t RowsCarried = 0;
  uint64_t RowsMaterialized = 0;
};

struct IncrOutput {
  serve::ResultSnapshot Snapshot;
  /// Snapshot serialized (current mcpta-result format); reanalyze()
  /// fills it, analyze() does not.
  std::string Blob;
  IncrStats Stats;
  /// False only when the source fails to parse or lower. A program
  /// without main() is Ok: its snapshot is captured with Analyzed false.
  bool Ok = false;
  /// Set when !Ok: the diagnostics of the failed frontend run, errors
  /// included. Each surface renders them in its own form.
  DiagnosticsEngine Diags;
  /// Set when Ok: the parsed and lowered program the snapshot was
  /// computed from, with its analysis state dropped (Frontend.Analysis
  /// is empty), and its computeMeta. A caller that keeps answering
  /// questions about the same text (the serve daemon's resident
  /// program) takes them instead of parsing the source again.
  Pipeline Frontend;
  ProgramMeta Meta;
};

/// The dirty closure: names of functions whose analysis results may
/// differ from the baseline's. Includes baseline-only (deleted) names;
/// gate donors on membership, count live members for reporting.
/// Exposed separately for the dependency-edge unit tests.
std::set<std::string> computeDirtySet(const serve::ResultSnapshot &Baseline,
                                      const ProgramMeta &Live);

class IncrementalEngine {
public:
  /// Analyzes \p Source, re-using \p Baseline when one is given: the
  /// one place that turns a source text into a snapshot for the serve
  /// and incremental surfaces. Always produces a complete snapshot
  /// (incremental when every gate holds, a full analysis otherwise —
  /// see IncrStats); a null \p Baseline is a full analysis with
  /// FallbackReason "no-baseline". The source is parsed at most once: a
  /// fallback after the frontend ran analyzes that program. Ok is false
  /// only when the source does not parse or lower. \p Telem (optional)
  /// receives incr.dirty_functions / incr.memo_reuse / incr.seed_hits /
  /// incr.rows_carried / incr.rows_materialized / incr.fallback.*
  /// counters and is forwarded to the analyzer. Leaves Blob empty: a
  /// caller that stores the snapshot (SummaryCache::store) serializes it
  /// only if it persists it.
  static IncrOutput analyze(const serve::ResultSnapshot *Baseline,
                            const std::string &Source,
                            const pta::Analyzer::Options &Opts,
                            support::Telemetry *Telem = nullptr);
  /// analyze(), plus Blob = serialize(Snapshot) when Ok: for callers
  /// that write or compare the bytes.
  static IncrOutput reanalyze(const serve::ResultSnapshot *Baseline,
                              const std::string &Source,
                              const pta::Analyzer::Options &Opts,
                              support::Telemetry *Telem = nullptr);
  static IncrOutput reanalyze(const serve::ResultSnapshot &Baseline,
                              const std::string &Source,
                              const pta::Analyzer::Options &Opts,
                              support::Telemetry *Telem = nullptr) {
    return reanalyze(&Baseline, Source, Opts, Telem);
  }
};

} // namespace incr
} // namespace mcpta

#endif // MCPTA_INCR_INCREMENTALENGINE_H
