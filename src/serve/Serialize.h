//===- Serialize.h - mcpta-result-v3 binary serialization -------*- C++ -*-===//
//
// Part of the mcpta project (PLDI'94 points-to analysis reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The serve layer's result model and its versioned binary format.
///
/// A live pta::Analyzer::Result is riddled with pointers into the AST
/// and the LocationTable of the run that produced it, so it cannot
/// outlive its Pipeline. ResultSnapshot is the self-contained mirror:
/// every data structure the analysis produces — abstract locations,
/// per-point points-to triples (x, y, D/P), the invocation-graph shape
/// with node kinds and memoized IN/OUT sets, degradation records,
/// warnings, and the client outputs (alias pairs, per-function
/// read/write sets) — flattened to dense ids and interned strings. A
/// snapshot answers every query the serve daemon exposes (alias,
/// points_to, read_write_sets, stats) without the source, the AST, or
/// a re-run.
///
/// In memory every set is a PackedSet: one 8-byte word per (x, y, D/P)
/// relationship over canonical ids, in the same layout as a live
/// PointsToSet entry, so capture remaps a live entry run word by word
/// and the writer reads each per-source run straight off the words.
/// (There is no separate triple struct: a word is the triple.) In a
/// blob every set is its v3 encoding: the run count, then per source
/// its id, its pair count and its (dst u32, definite u8) pairs, all
/// little-endian. The writer counts the blob's bytes in a first pass,
/// then writes it once into a buffer of exactly that size, storing each
/// set's runs in place.
///
/// Version 2 changes (all in service of the incremental engine,
/// src/incr/, whose oracle is byte-identity of snapshots):
///  - the location table is *canonical*: only locations referenced by
///    some serialized set (plus their transitive symbolic parents)
///    appear, sorted by a structural key and densely renumbered, so the
///    bytes no longer depend on LocationTable creation order;
///  - location records carry the structure needed to re-intern them in
///    a fresh LocationTable (root identity, local index, symbolic
///    parent link, path elements);
///  - invocation-graph nodes carry EvalCount;
///  - warnings are serialized sorted and deduplicated, plus a
///    per-function attribution map (WarningsByFn);
///  - per-function fingerprints and dependency metadata
///    (incr::ProgramMeta) are embedded;
///  - the run-history counters of v1 (BodyAnalyses, LoopIterations,
///    MemoHits) are gone — they described the trajectory, not the
///    result, and an incremental run legitimately has a different
///    trajectory.
///
/// The binary format `mcpta-result-v3` (support/Version.h) is
/// deterministic: the same snapshot always serializes to the same
/// bytes, so serialize → deserialize → serialize round-trips
/// byte-identically (SerializeTest relies on this, and the summary
/// cache deduplicates on it). Layout: a fixed header (magic, format
/// version, options fingerprint), a string-interning table, then the
/// sections in a fixed order, all integers little-endian fixed-width.
/// deserialize() is corruption-tolerant: truncated, oversized, or
/// inconsistent input yields `false` and an error message, never a
/// crash or an out-of-bounds read (the cache maps that to a miss).
/// Only the current version is read: a v1 or v2 blob fails with
/// "unsupported format version".
///
//===----------------------------------------------------------------------===//

#ifndef MCPTA_SERVE_SERIALIZE_H
#define MCPTA_SERVE_SERIALIZE_H

#include "incr/Fingerprint.h"
#include "pointsto/Analyzer.h"

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace mcpta {
namespace serve {

/// One abstract location, flattened. Index in ResultSnapshot::Locations
/// equals the canonical id (dense, sorted by structural key).
struct LocationRecord {
  uint32_t Id = 0;
  uint8_t EntityKind = 0; ///< pta::Entity::Kind
  uint8_t Summary = 0;    ///< Location::isSummary()
  uint8_t Collapsed = 0;  ///< k-limit folded entity
  uint32_t SymbolicLevel = 0;
  std::string Name;  ///< display name, e.g. "x", "s.next", "2_x"
  std::string Owner; ///< owning function, "" for globals/program-wide

  /// Structural identity:
  std::string RootName; ///< root entity display name
  /// For frame Variable roots: index into the owner's params+locals
  /// list; -1 for globals and non-variable roots. Disambiguates
  /// shadowed same-name locals.
  int32_t LocalIndex = -1;
  /// For Symbolic roots: canonical id of the parent location the
  /// entity's dereference stands for; -1 otherwise. May be larger than
  /// Id (canonical order is not topological).
  int32_t SymParent = -1;
  uint32_t StringId = 0; ///< for String roots: simple::Program literal id
  /// Access path: PathElem kinds (0=Field, 1=Head, 2=Tail) with the
  /// qualified "Record::field" names of the Field elements, in order
  /// (qualified because same-named fields of different records are
  /// distinct path elements).
  std::vector<uint8_t> PathKinds;
  std::vector<std::string> FieldNames;

  bool operator==(const LocationRecord &O) const {
    return Id == O.Id && EntityKind == O.EntityKind && Summary == O.Summary &&
           Collapsed == O.Collapsed && SymbolicLevel == O.SymbolicLevel &&
           Name == O.Name && Owner == O.Owner && RootName == O.RootName &&
           LocalIndex == O.LocalIndex && SymParent == O.SymParent &&
           StringId == O.StringId && PathKinds == O.PathKinds &&
           FieldNames == O.FieldNames;
  }
};

/// A points-to set over canonical location ids: one packed word per
/// relationship (x, y, D|P), in the pta::PointsToSet::Entry layout
/// (Src << 32) | (Dst << 1) | isP, sorted ascending — that is, by
/// (Src, Dst) — so each source's pairs are contiguous, as the v3
/// per-source runs need. Dst must be below 2^31.
using PackedSet = std::vector<uint64_t>;

inline uint64_t packTriple(uint32_t Src, uint32_t Dst, bool Definite) {
  return (static_cast<uint64_t>(Src) << 32) | (static_cast<uint64_t>(Dst) << 1) |
         (Definite ? 0u : 1u);
}
inline uint32_t tripleSrc(uint64_t W) { return static_cast<uint32_t>(W >> 32); }
inline uint32_t tripleDst(uint64_t W) {
  return static_cast<uint32_t>((W & 0xffffffffu) >> 1);
}
inline bool tripleDefinite(uint64_t W) { return (W & 1) == 0; }

/// The merged input points-to set recorded at one statement.
struct StmtSetRecord {
  uint32_t StmtId = 0;
  PackedSet Set;

  bool operator==(const StmtSetRecord &O) const {
    return StmtId == O.StmtId && Set == O.Set;
  }
};

/// One invocation-graph node in preorder. Parent/RecEdge are preorder
/// indices (-1 for none); preorder preserves child order, so the graph
/// shape reconstructs exactly.
struct IGNodeRecord {
  std::string Function;
  uint8_t Kind = 0; ///< pta::IGNode::Kind
  uint32_t CallSiteId = 0;
  int32_t Parent = -1;
  int32_t RecEdge = -1;
  /// Body-evaluation episodes. The incremental engine only trusts a
  /// node as a subtree-graft donor when it evaluated exactly once.
  uint32_t EvalCount = 0;
  uint8_t HasInput = 0;
  uint8_t HasOutput = 0;
  PackedSet Input;  ///< memoized IN, when stored
  PackedSet Output; ///< memoized OUT, when stored

  bool operator==(const IGNodeRecord &O) const {
    return Function == O.Function && Kind == O.Kind &&
           CallSiteId == O.CallSiteId && Parent == O.Parent &&
           RecEdge == O.RecEdge && EvalCount == O.EvalCount &&
           HasInput == O.HasInput && HasOutput == O.HasOutput &&
           Input == O.Input && Output == O.Output;
  }
};

/// One budget-triggered degradation (support::Degradation, flattened).
struct DegradationRecord {
  uint8_t Kind = 0; ///< support::LimitKind
  std::string Context;
  std::string Action;

  bool operator==(const DegradationRecord &O) const {
    return Kind == O.Kind && Context == O.Context && Action == O.Action;
  }
};

struct ResultSnapshot;

/// Baseline per-statement rows that an incremental run carries into its
/// snapshot in canonical form instead of rebuilding them as live sets
/// (incr::IncrementalEngine). Capture emits each row at its live
/// statement, remapped from baseline canonical ids to the new ones.
struct CarriedRows {
  const ResultSnapshot *Baseline = nullptr;
  /// Per live statement id: index into Baseline->StmtIn, or -1. A
  /// statement with a live set never has a carried row.
  std::vector<int32_t> RowAt;
  /// Per baseline canonical id: the live location it resolves to, for
  /// every id the carried rows use; NotUsed for the others.
  static constexpr uint32_t NotUsed = UINT32_MAX;
  std::vector<pta::LocationId> LiveLoc;
  /// Functions whose read/write-set entries are the baseline's: every
  /// row they have is carried, and no string-literal id moved (the
  /// entries name "str$N" locations by program-wide literal ids).
  std::vector<std::string> BaselineRW;
};

/// Everything one analysis run produced, self-contained.
struct ResultSnapshot {
  /// Fingerprint of the Analyzer options + limits that produced this
  /// result (optionsFingerprint below); stored in the blob header so a
  /// loaded result is attributable.
  std::string OptionsFingerprint;
  uint8_t Analyzed = 0;
  uint32_t NumStmts = 0;

  std::vector<LocationRecord> Locations;
  uint8_t HasMainOut = 0;
  PackedSet MainOut;
  std::vector<StmtSetRecord> StmtIn;
  std::vector<IGNodeRecord> IG;
  std::vector<DegradationRecord> Degradations;
  /// Sorted and deduplicated.
  std::vector<std::string> Warnings;
  /// v2: every warning message keyed by the emitting function ("" for
  /// warnings raised outside any body). Values sorted, deduplicated.
  std::map<std::string, std::vector<std::string>> WarningsByFn;

  /// v2: per-function fingerprints and dependency metadata.
  incr::ProgramMeta Meta;

  /// Client outputs: canonical "(a,b)" alias pairs over MainOut
  /// (clients::aliasPairs, sorted), and per-function read/write
  /// location-name sets (clients::ReadWriteSets, sorted).
  std::vector<std::pair<std::string, std::string>> AliasPairs;
  std::map<std::string, std::vector<std::string>> Reads;
  std::map<std::string, std::vector<std::string>> Writes;

  bool degraded() const { return !Degradations.empty(); }

  /// Flattens a live result. \p Prog must be the program \p Res was
  /// computed from (needed for the read/write-set client and the
  /// dependency metadata). Deterministic: two Results with equal
  /// analysis state capture to equal snapshots even when their
  /// LocationTables interned locations in different orders.
  ///
  /// Works over dense location ids in one pass: the referenced
  /// locations and their canonical ids live in vectors indexed by
  /// LocationId, each location's structural key is computed once, and
  /// every set is remapped straight off its packed entry run. The
  /// invocation graph is indexed by preorder position.
  static ResultSnapshot capture(const simple::Program &Prog,
                                const pta::Analyzer::Result &Res,
                                std::string OptionsFingerprint);
  /// As above, with \p Meta = incr::computeMeta(Prog) already in hand:
  /// callers that keep a program's metadata (the incremental engine, the
  /// demand engine) compute it once per program instead of per capture.
  /// \p Carried (optional) adds an incremental run's carried baseline
  /// rows to the live ones in Res.StmtIn.
  static ResultSnapshot capture(const simple::Program &Prog,
                                const pta::Analyzer::Result &Res,
                                std::string OptionsFingerprint,
                                incr::ProgramMeta Meta,
                                const CarriedRows *Carried = nullptr);

  //===--------------------------------------------------------------------===//
  // Queries (what the serve daemon answers without re-analysis)
  //===--------------------------------------------------------------------===//

  /// Location id for a display name; -1 when unknown.
  int64_t locationIdByName(std::string_view Name) const;

  /// Points-to targets of \p Name as (target name, definite) pairs, read
  /// from the end-of-main set, or from the merged per-statement input
  /// set when \p StmtId >= 0.
  std::vector<std::pair<std::string, bool>>
  pointsToTargets(std::string_view Name, int64_t StmtId = -1) const;

  /// True when the canonical alias pair (A,B) (either order) is present.
  bool aliased(const std::string &A, const std::string &B) const;

  bool operator==(const ResultSnapshot &O) const;
  bool operator!=(const ResultSnapshot &O) const { return !(*this == O); }
};

/// Position of every parameter and IR local in its function's
/// params+locals concatenation — the LocalIndex vocabulary of v2
/// location records. Exposed for the incremental engine.
std::map<const cfront::VarDecl *, int32_t>
localIndexMap(const simple::Program &Prog);

/// Computes the structural key of live locations — the canonical sort
/// key of capture(). The incremental engine matches baseline location
/// records against live locations by recomputing identical keys from
/// the serialized structural fields, so key construction must stay in
/// lockstep with the LocationRecord layout. Memoizing by location id;
/// one instance per (LocationTable, program) pair. Returned references
/// stay valid for the instance's lifetime.
class StructuralKeys {
public:
  explicit StructuralKeys(std::map<const cfront::VarDecl *, int32_t> LocalIdx)
      : LocalIdx(std::move(LocalIdx)) {}

  const std::string &key(const pta::Location *L);

private:
  std::string rootKey(const pta::Entity *E);

  std::map<const cfront::VarDecl *, int32_t> LocalIdx;
  /// Indexed by LocationId; "" = not computed yet (no key is empty). A
  /// deque, so growing it never moves a key already handed out.
  std::deque<std::string> Memo;
};

/// Stable fingerprint of every analyzer knob that can change the result:
/// Options (fnptr mode, context sensitivity, stmt-set recording, k-limit,
/// loop cap) and AnalysisLimits (all five budgets). Two runs with equal
/// fingerprints over equal sources produce equal results, so the
/// fingerprint is a summary-cache key component.
std::string optionsFingerprint(const pta::Analyzer::Options &Opts);

/// Serializes to the mcpta-result-v3 binary format. Deterministic:
/// equal snapshots yield equal bytes.
std::string serialize(const ResultSnapshot &S);

/// serialize(S).size(), from the writer's counting pass alone: no blob
/// is built.
size_t serializedSize(const ResultSnapshot &S);

/// Parses a blob produced by serialize() in the current format version.
/// Returns false with an error message on any malformed input (wrong
/// magic, unknown format version, truncation, out-of-range indices);
/// never throws or crashes.
bool deserialize(std::string_view Blob, ResultSnapshot &Out,
                 std::string &Error);

} // namespace serve
} // namespace mcpta

#endif // MCPTA_SERVE_SERIALIZE_H
