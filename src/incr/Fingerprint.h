//===- Fingerprint.h - Function fingerprints for incremental reuse -*- C++ -*-===//
//
// Part of the mcpta project (PLDI'94 points-to analysis reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Layer 1 of the incremental re-analysis subsystem (docs/INCREMENTAL.md):
/// a stable content hash per function over its SIMPLE IR, plus the
/// per-function structural metadata the incremental engine needs to
/// correlate a baseline snapshot with a freshly lowered program.
///
/// The hash must be stable under *unrelated* edits: SIMPLE statement ids,
/// call-site ids, string-literal ids and `$tN` temporary names are all
/// program-wide dense counters, so an edit to one function shifts them in
/// every function lowered after it. canonicalizeBody() therefore rewrites
/// `$t<N>` and `str#<N>` tokens to per-function first-occurrence indices
/// before hashing, and the id lists (StmtIds, CallSiteIds, StringIds) are
/// serialized so the engine can remap baseline ids to live ids
/// positionally (valid exactly when the fingerprint is unchanged, which
/// guarantees both walks have the same shape).
///
/// The dependency map for dirty-set closure comes from CalleeNames
/// (static direct calls, including extern targets so a definedness flip
/// dirties the caller) and GlobalRefs; indirect-call edges are recovered
/// from the baseline invocation graph by the engine.
///
//===----------------------------------------------------------------------===//

#ifndef MCPTA_INCR_FINGERPRINT_H
#define MCPTA_INCR_FINGERPRINT_H

#include "simple/SimpleIR.h"
#include "support/Hash.h"

#include <cstdint>
#include <string>
#include <vector>

namespace mcpta {
namespace incr {

/// FNV-1a, the format's only hash (support/Hash.h).
using support::fnv1a;

/// Structural metadata of one declared function (defined or extern),
/// serialized into mcpta-result-v3 snapshots.
struct FunctionMeta {
  std::string Name;
  uint8_t Defined = 0;
  /// Whether the body contains at least one call through a function
  /// pointer. Indirect calls have no CalleeNames edge, so a changed
  /// extern reachable only through a pointer would otherwise escape the
  /// dirty closure; the engine dirties every indirect-calling function
  /// when any extern declaration changes.
  uint8_t HasIndirectCalls = 0;
  /// Content hash: canonicalized body print + signature (return/param
  /// types and names) + address-taken flag + referenced globals
  /// (name + type). For extern declarations: signature only.
  uint64_t Fingerprint = 0;

  std::vector<std::string> ParamNames;
  /// FunctionIR::Locals order (declaration order, simplifier temps
  /// included). Baseline index k corresponds to live index k whenever
  /// the fingerprint is unchanged.
  std::vector<std::string> LocalNames;
  /// Direct callee names in first-call order, deduplicated; extern
  /// callees included.
  std::vector<std::string> CalleeNames;
  /// Referenced global variables, sorted, deduplicated.
  std::vector<std::string> GlobalRefs;
  /// Statement ids of the body in preorder walk order.
  std::vector<uint32_t> StmtIds;
  /// Call-site ids in FunctionIR::Calls (program) order.
  std::vector<uint32_t> CallSiteIds;
  /// String-literal ids in operand walk order (duplicates preserved).
  std::vector<uint32_t> StringIds;

  bool operator==(const FunctionMeta &O) const {
    return Name == O.Name && Defined == O.Defined &&
           HasIndirectCalls == O.HasIndirectCalls &&
           Fingerprint == O.Fingerprint && ParamNames == O.ParamNames &&
           LocalNames == O.LocalNames && CalleeNames == O.CalleeNames &&
           GlobalRefs == O.GlobalRefs && StmtIds == O.StmtIds &&
           CallSiteIds == O.CallSiteIds && StringIds == O.StringIds;
  }
};

/// One global variable: name + content hash over its type and the
/// lowered initializer statements whose L-value root is the global.
struct GlobalMeta {
  std::string Name;
  uint64_t Fingerprint = 0;

  bool operator==(const GlobalMeta &O) const {
    return Name == O.Name && Fingerprint == O.Fingerprint;
  }
};

/// Program-level dependency metadata, captured into every v2 snapshot.
struct ProgramMeta {
  std::vector<FunctionMeta> Functions; ///< translation-unit order
  std::vector<GlobalMeta> Globals;     ///< Program::globals() order
  /// Hash of every record layout (field names and types). Record edits
  /// change analysis behavior without changing body prints, so a
  /// mismatch forces full re-analysis.
  uint64_t TypesFingerprint = 0;
  /// Hash of the whole lowered global-initializer block (canonicalized),
  /// covering initializer statements not attributable to a single
  /// global (temp computations). A mismatch conservatively dirties
  /// every global.
  uint64_t GlobalInitFingerprint = 0;
  /// String-literal ids appearing in globalInit operands, walk order.
  std::vector<uint32_t> GlobalInitStringIds;

  bool operator==(const ProgramMeta &O) const {
    return Functions == O.Functions && Globals == O.Globals &&
           TypesFingerprint == O.TypesFingerprint &&
           GlobalInitFingerprint == O.GlobalInitFingerprint &&
           GlobalInitStringIds == O.GlobalInitStringIds;
  }
};

/// Rewrites program-wide `$t<N>` / `str#<N>` tokens in a statement print
/// to first-occurrence indices, making the text invariant under edits to
/// other functions. Exposed for tests.
std::string canonicalizeBody(const std::string &Print);

/// Computes the full metadata for a lowered program.
ProgramMeta computeMeta(const simple::Program &Prog);

} // namespace incr
} // namespace mcpta

#endif // MCPTA_INCR_FINGERPRINT_H
