//===- MapUnmap.h - Interprocedural map/unmap -------------------*- C++ -*-===//
//
// Part of the mcpta project (PLDI'94 points-to analysis reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Sec. 4.1: mapping points-to information from a call site into the
/// callee's name space, and unmapping the callee's output back.
///
/// Mapping: formals inherit the relationships of the corresponding
/// actuals; globals keep theirs; relationships reachable through
/// multi-level pointers are mapped recursively. Targets that are not in
/// the callee's scope (*invisible variables*) are renamed to symbolic
/// locations (1_x, 2_x, ...). An invisible variable maps to at most one
/// symbolic name (Property 3.1); one symbolic name may stand for several
/// invisible variables, in which case pairs involving it are demoted to
/// possible. Invisibles reached through definite relationships are
/// mapped before those reached through possible ones (the paper's
/// accuracy heuristic).
///
/// Unmapping: relationships of represented caller locations are replaced
/// wholesale by the translation of the callee's output; unrepresented
/// locations (inaccessible to the callee) keep their pairs. If one
/// caller location receives pairs translated from more than one distinct
/// callee location (overlapping aggregate views), its pairs are demoted
/// to possible — spurious definiteness would be unsafe (Def. 3.3).
///
//===----------------------------------------------------------------------===//

#ifndef MCPTA_POINTSTO_MAPUNMAP_H
#define MCPTA_POINTSTO_MAPUNMAP_H

#include "pointsto/MapInfo.h"
#include "pointsto/PointsToSet.h"
#include "simple/SimpleIR.h"
#include "support/Limits.h"

#include <vector>

namespace mcpta {
namespace pta {

/// Result of mapping a call site's points-to set into a callee.
struct MapResult {
  /// The callee's input points-to set (before local NULL
  /// initialization, which the analyzer applies at function entry).
  PointsToSet CalleeInput;

  /// Symbolic location id -> the ids of the invisible caller locations
  /// it represents in this context. This is the per-invocation-graph-
  /// node map information the paper deposits for later analyses.
  MapInfoTable MapInfo;

  /// Every caller location whose outgoing pairs were mapped into the
  /// callee; their relationships are killed and replaced on unmap.
  /// Sorted ascending, unique — fed straight to the killFromAll batch
  /// kernel.
  std::vector<LocationId> RepresentedSources;
};

/// Performs map/unmap against one program's location table.
class MapUnmap {
public:
  /// Hot-path traffic counters, accumulated over the lifetime of this
  /// MapUnmap (i.e. one analysis run). The analyzer publishes them as
  /// the mu.* telemetry counters.
  struct Counters {
    uint64_t MapCalls = 0;       ///< map() invocations
    uint64_t UnmapCalls = 0;     ///< unmap() invocations
    uint64_t MappedSources = 0;  ///< caller locations mapped into callees
    uint64_t InvisibleVars = 0;  ///< symbolic stand-ins created (Sec. 4.1)
    uint64_t UnmapPairs = 0;     ///< pairs translated back on unmap
  };

  /// \p Meter, when non-null, governs the abstract-location budget:
  /// map() reports the location-table size after every traversal (the
  /// traversal is where invisible-variable chains mint new symbolic
  /// entities), so the Locations cap trips at the site that grows it.
  MapUnmap(LocationTable &Locs, const simple::Program &Prog,
           support::BudgetMeter *Meter = nullptr)
      : Locs(Locs), Prog(Prog), Meter(Meter) {}

  const Counters &counters() const { return Ctrs; }

  /// Maps \p CallerS into \p Callee. \p ActualRLocs holds, per formal
  /// parameter (in order), the R-location set of the corresponding
  /// actual argument evaluated at the call site. Extra actuals (varargs)
  /// are not mapped: the callee cannot name them in our model (va_arg is
  /// not modeled), so their relationships survive the call unchanged.
  MapResult map(const PointsToSet &CallerS,
                const cfront::FunctionDecl *Callee,
                const std::vector<std::vector<LocDef>> &ActualRLocs,
                const std::vector<simple::Operand> &Actuals);

  /// Translates one callee-domain location back to the caller domain.
  /// Returns an empty vector for callee-private storage.
  std::vector<const Location *>
  translateBack(const Location *CalleeLoc, const cfront::FunctionDecl *Callee,
                const MapResult &M) const;

  /// Unmaps \p CalleeOut into the caller: kills represented sources'
  /// pairs in \p CallerS and unions the translated output.
  PointsToSet unmap(const PointsToSet &CallerS, const PointsToSet &CalleeOut,
                    const cfront::FunctionDecl *Callee,
                    const MapResult &M) const;

private:
  struct MapState;
  void traverse(MapState &St, const Location *CalleeLoc,
                const Location *CallerLoc);
  const Location *translateTarget(MapState &St, const Location *Target,
                                  const Location *ParentCalleeLoc);

  LocationTable &Locs;
  const simple::Program &Prog;
  support::BudgetMeter *Meter;
  /// mutable: unmap()/translateBack() are logically const queries.
  mutable Counters Ctrs;
};

} // namespace pta
} // namespace mcpta

#endif // MCPTA_POINTSTO_MAPUNMAP_H
