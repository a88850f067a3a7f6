//===- MapUnmap.cpp - Interprocedural map/unmap ------------------------------===//

#include "pointsto/MapUnmap.h"

#include <algorithm>
#include <cassert>

using namespace mcpta;
using namespace mcpta::pta;
using namespace mcpta::simple;
namespace cf = mcpta::cfront;

namespace {

/// A location is visible inside any callee iff its storage is
/// program-global. Frame entities — including the *caller's* locals,
/// params, temps, and symbolics — are invisible: even under recursion
/// they denote a different activation than the callee's own frame.
bool isGloballyVisible(const Location *L) {
  const Entity *Root = L->root();
  switch (Root->kind()) {
  case Entity::Kind::Heap:
  case Entity::Kind::Null:
  case Entity::Kind::Function:
  case Entity::Kind::String:
    return true;
  case Entity::Kind::Variable:
    return Root->var()->isGlobal();
  case Entity::Kind::Retval:
  case Entity::Kind::Symbolic:
    return false;
  }
  return false;
}

/// Can this location hold (or contain) pointers that the traversal must
/// follow?
bool isPointerBearingStorage(const Location *L) {
  if (L->isHeap())
    return true;
  const cf::Type *Ty = L->type();
  return Ty && Ty->isPointerBearing();
}

} // namespace

struct MapUnmap::MapState {
  const PointsToSet *CallerS = nullptr;
  const cf::FunctionDecl *Callee = nullptr;
  MapResult R;
  /// Caller invisible location id -> its unique symbolic stand-in.
  /// Sorted by id, binary-search lookup.
  std::vector<std::pair<LocationId, const Location *>> InvMap;
  /// (callee id << 32 | caller id) pairs already traversed, sorted.
  std::vector<uint64_t> Visited;
  /// Symbolic root entities standing for more than one invisible
  /// (a handful at most; linear membership).
  std::vector<const Entity *> MultiSyms;

  const Location *findInv(LocationId Id) const {
    auto It = std::lower_bound(
        InvMap.begin(), InvMap.end(), Id,
        [](const std::pair<LocationId, const Location *> &P, LocationId I) {
          return P.first < I;
        });
    return (It != InvMap.end() && It->first == Id) ? It->second : nullptr;
  }
};

const Location *MapUnmap::translateTarget(MapState &St,
                                          const Location *Target,
                                          const Location *ParentCalleeLoc) {
  if (isGloballyVisible(Target))
    return Target;

  if (const Location *Sym = St.findInv(Target->id()))
    return Sym; // one invisible -> at most one symbolic name

  const Entity *SymE = Locs.symbolic(St.Callee, ParentCalleeLoc);
  const Location *SymLoc = Locs.get(SymE);
  auto It = std::lower_bound(
      St.InvMap.begin(), St.InvMap.end(), Target->id(),
      [](const std::pair<LocationId, const Location *> &P, LocationId I) {
        return P.first < I;
      });
  St.InvMap.insert(It, {Target->id(), SymLoc});
  ++Ctrs.InvisibleVars;
  auto &Reps = St.R.MapInfo.getOrCreate(SymLoc->id());
  Reps.push_back(Target->id());
  if (Reps.size() > 1 &&
      std::find(St.MultiSyms.begin(), St.MultiSyms.end(), SymE) ==
          St.MultiSyms.end())
    St.MultiSyms.push_back(SymE);
  return SymLoc;
}

void MapUnmap::traverse(MapState &St, const Location *CalleeLoc,
                        const Location *CallerLoc) {
  const cf::Type *Ty = CallerLoc->type();

  // Aggregate storage: descend into pointer-bearing components.
  if (!CallerLoc->isHeap() && Ty) {
    if (const auto *RT = cf::dynCast<cf::RecordType>(Ty)) {
      for (const cf::FieldDecl *F : RT->decl()->fields())
        if (F->type()->isPointerBearing())
          traverse(St, Locs.withField(CalleeLoc, F),
                   Locs.withField(CallerLoc, F));
      return;
    }
    if (const auto *AT = cf::dynCast<cf::ArrayType>(Ty)) {
      if (!AT->element()->isPointerBearing())
        return;
      traverse(St, Locs.withElem(CalleeLoc, true),
               Locs.withElem(CallerLoc, true));
      traverse(St, Locs.withElem(CalleeLoc, false),
               Locs.withElem(CallerLoc, false));
      return;
    }
    if (!Ty->isPointer())
      return;
  }

  uint64_t Key =
      (static_cast<uint64_t>(CalleeLoc->id()) << 32) | CallerLoc->id();
  auto VIt = std::lower_bound(St.Visited.begin(), St.Visited.end(), Key);
  if (VIt != St.Visited.end() && *VIt == Key)
    return;
  St.Visited.insert(VIt, Key);

  // Map the pointer's relationships, definite ones first (the paper's
  // accuracy heuristic for assigning symbolic names).
  std::vector<LocDef> Targets = St.CallerS->targetsOf(CallerLoc, Locs);
  std::stable_sort(Targets.begin(), Targets.end(),
                   [](const LocDef &A, const LocDef &B) {
                     return A.D < B.D; // D before P
                   });
  if (!Targets.empty())
    St.R.RepresentedSources.push_back(CallerLoc->id());
  for (const LocDef &T : Targets) {
    const Location *CT = translateTarget(St, T.Loc, CalleeLoc);
    St.R.CalleeInput.insert(CalleeLoc, CT, T.D);
    if (isPointerBearingStorage(T.Loc))
      traverse(St, CT, T.Loc);
  }
}

MapResult MapUnmap::map(const PointsToSet &CallerS,
                        const cf::FunctionDecl *Callee,
                        const std::vector<std::vector<LocDef>> &ActualRLocs,
                        const std::vector<Operand> &Actuals) {
  ++Ctrs.MapCalls;
  MapState St;
  St.CallerS = &CallerS;
  St.Callee = Callee;

  // 1. Formals inherit the relationships of the corresponding actuals.
  const auto &Formals = Callee->params();
  for (size_t I = 0; I < Formals.size(); ++I) {
    const Location *FLoc = Locs.varLoc(Formals[I]);
    const cf::Type *FTy = Formals[I]->type();

    if (FTy->isRecord()) {
      // By-value struct: associate storage fieldwise with the actual.
      if (I < Actuals.size() && Actuals[I].isRef() &&
          Actuals[I].Ref.isValid() && !Actuals[I].Ref.Deref &&
          Actuals[I].Ref.Path.empty()) {
        const Location *ALoc = Locs.varLoc(Actuals[I].Ref.Base);
        traverse(St, FLoc, ALoc);
      }
      continue;
    }

    if (!FTy->isPointerBearing())
      continue;
    if (I >= ActualRLocs.size())
      continue;
    for (const LocDef &T : ActualRLocs[I]) {
      const Location *CT = translateTarget(St, T.Loc, FLoc);
      St.R.CalleeInput.insert(FLoc, CT, T.D);
      if (isPointerBearingStorage(T.Loc))
        traverse(St, CT, T.Loc);
    }
  }

  // 2. Globals (and the heap summary) keep their relationships; their
  // reachable invisible targets are renamed.
  for (const cf::VarDecl *G : Prog.globals()) {
    if (!G->type()->isPointerBearing())
      continue;
    const Location *GL = Locs.varLoc(G);
    traverse(St, GL, GL);
  }
  traverse(St, Locs.heap(), Locs.heap());
  // String storage holds no pointers (char arrays), so it needs no
  // traversal.

  // 3. Demote every pair involving a symbolic that stands for more than
  // one invisible variable (Property 3.1 would otherwise be violated by
  // a definite claim).
  if (!St.MultiSyms.empty()) {
    // One linear pass over the sorted entry run: demotion never adds or
    // reorders pairs, so the rebuilt run appends in key order.
    auto isMulti = [&](LocationId Id) {
      const Entity *Root = Locs.byId(Id)->root();
      return std::find(St.MultiSyms.begin(), St.MultiSyms.end(), Root) !=
             St.MultiSyms.end();
    };
    PointsToSet Demoted;
    const PointsToSet::Entry *E = St.R.CalleeInput.entries();
    for (size_t I = 0, N = St.R.CalleeInput.size(); I < N; ++I) {
      bool Multi = isMulti(E[I].src()) || isMulti(E[I].dst());
      Demoted.insertKey(E[I].key(), Multi ? Def::P : E[I].def());
    }
    St.R.CalleeInput = std::move(Demoted);
  }

  // Deterministic map info: representative lists sorted by location id.
  St.R.MapInfo.normalize();

  auto &Reps = St.R.RepresentedSources;
  std::sort(Reps.begin(), Reps.end());
  Reps.erase(std::unique(Reps.begin(), Reps.end()), Reps.end());

  Ctrs.MappedSources += Reps.size();
  // The traversal above is where invisible-variable chains mint new
  // symbolic entities; report the table size so the Locations budget
  // trips at the site responsible for the growth.
  if (Meter)
    Meter->noteLocations(Locs.numLocations());
  return std::move(St.R);
}

std::vector<const Location *>
MapUnmap::translateBack(const Location *CalleeLoc,
                        const cf::FunctionDecl *Callee,
                        const MapResult &M) const {
  const Entity *Root = CalleeLoc->root();
  switch (Root->kind()) {
  case Entity::Kind::Heap:
  case Entity::Kind::Null:
  case Entity::Kind::Function:
  case Entity::Kind::String:
    return {CalleeLoc};
  case Entity::Kind::Variable:
    if (Root->var()->isGlobal())
      return {CalleeLoc};
    return {}; // callee-private storage dies at return
  case Entity::Kind::Retval:
    return {}; // handled separately by the analyzer
  case Entity::Kind::Symbolic: {
    (void)Callee;
    const std::vector<LocationId> *Reps =
        M.MapInfo.find(Locs.get(Root)->id());
    if (!Reps)
      return {}; // not bound in this context
    std::vector<const Location *> Out;
    for (LocationId BaseId : *Reps) {
      const Location *Base = Locs.byId(BaseId);
      // Re-apply the callee location's path on the caller side.
      const Location *L = Base;
      for (const PathElem &PE : CalleeLoc->path()) {
        switch (PE.K) {
        case PathElem::Kind::Field:
          L = Locs.withField(L, PE.Field);
          break;
        case PathElem::Kind::Head:
          L = Locs.withElem(L, true);
          break;
        case PathElem::Kind::Tail:
          L = Locs.withElem(L, false);
          break;
        }
      }
      Out.push_back(L);
    }
    return Out;
  }
  }
  return {};
}

PointsToSet MapUnmap::unmap(const PointsToSet &CallerS,
                            const PointsToSet &CalleeOut,
                            const cf::FunctionDecl *Callee,
                            const MapResult &M) const {
  ++Ctrs.UnmapCalls;
  PointsToSet Out = CallerS;
  Out.killFromAll(M.RepresentedSources);

  // Track how many distinct callee sources feed each caller source; a
  // caller location assembled from several callee views cannot keep
  // definite claims. Flat (caller id << 32 | callee id) pairs, counted
  // after one sort.
  std::vector<uint64_t> Contributors;

  CalleeOut.forEach(Locs, [&](const Location *P, const Location *Q, Def D) {
    std::vector<const Location *> Srcs = translateBack(P, Callee, M);
    if (Srcs.empty())
      return;
    std::vector<const Location *> Dsts = translateBack(Q, Callee, M);
    if (Dsts.empty())
      return;
    Def DP = (Srcs.size() == 1 && Dsts.size() == 1) ? D : Def::P;
    for (const Location *S : Srcs) {
      Contributors.push_back((static_cast<uint64_t>(S->id()) << 32) |
                             P->id());
      Def DS = (DP == Def::D && !S->isSummary()) ? Def::D : Def::P;
      for (const Location *T : Dsts) {
        Out.insert(S, T, DS);
        ++Ctrs.UnmapPairs;
      }
    }
  });

  // Sources with more than one distinct contributing callee location.
  std::sort(Contributors.begin(), Contributors.end());
  Contributors.erase(std::unique(Contributors.begin(), Contributors.end()),
                     Contributors.end());
  std::vector<LocationId> MultiFed;
  for (size_t I = 0; I < Contributors.size();) {
    LocationId Src = static_cast<LocationId>(Contributors[I] >> 32);
    size_t J = I;
    while (J < Contributors.size() &&
           static_cast<LocationId>(Contributors[J] >> 32) == Src)
      ++J;
    if (J - I > 1)
      MultiFed.push_back(Src);
    I = J;
  }
  Out.demoteFromAll(MultiFed);

  return Out;
}
