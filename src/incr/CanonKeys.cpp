//===- CanonKeys.cpp - Interned structural keys of a session -------------===//

#include "incr/CanonKeys.h"

#include "support/Hash.h"

#include <algorithm>

using namespace mcpta;
using namespace mcpta::incr;

CanonKeys::CanonKeys(const serve::ResultSnapshot &Baseline,
                     const simple::Program &Live,
                     const pta::LocationTable &Locs, FrameFn FrameComparable,
                     StringFn LiveString)
    : Baseline(Baseline), Locs(Locs),
      FrameComparable(std::move(FrameComparable)),
      LiveString(std::move(LiveString)),
      LiveKeys(serve::localIndexMap(Live)),
      RkMemo(Baseline.Locations.size()),
      RkStatus(Baseline.Locations.size(), 0),
      BaseIds(Baseline.Locations.size(), Unset) {}

uint32_t CanonKeys::intern(const std::string &K) {
  return Ids.try_emplace(K, static_cast<uint32_t>(Ids.size())).first->second;
}

const std::string &CanonKeys::baselineKey(uint32_t Bid) {
  static const std::string Empty;
  if (Bid >= Baseline.Locations.size())
    return Empty;
  if (RkStatus[Bid] == 2)
    return RkMemo[Bid];
  if (RkStatus[Bid] == 1)
    return Empty; // SymParent cycle in a corrupt snapshot
  RkStatus[Bid] = 1;

  const serve::LocationRecord &R = Baseline.Locations[Bid];
  std::string K;
  switch ((pta::Entity::Kind)R.EntityKind) {
  case pta::Entity::Kind::Variable:
    if (R.Owner.empty()) {
      K = "v||" + R.RootName + "|-1";
    } else if (R.LocalIndex >= 0 && FrameComparable(R.Owner)) {
      // Frame locals are only comparable when the frame is clean: the
      // LocalIndex vocabulary of a dirty function may have shifted.
      K = "v|" + R.Owner + "|" + R.RootName + "|" +
          std::to_string(R.LocalIndex);
    }
    break;
  case pta::Entity::Kind::Retval:
    K = "r|" + R.Owner;
    break;
  case pta::Entity::Kind::Function:
    K = "f|" + R.RootName;
    break;
  case pta::Entity::Kind::String:
    if (std::optional<uint32_t> Id = LiveString(R.StringId))
      K = "s|" + std::to_string(*Id);
    break;
  case pta::Entity::Kind::Heap:
    K = "h";
    break;
  case pta::Entity::Kind::Null:
    K = "n";
    break;
  case pta::Entity::Kind::Symbolic:
    if (R.SymParent >= 0) {
      const std::string &PK = baselineKey((uint32_t)R.SymParent);
      if (!PK.empty())
        K = "y|" + R.Owner + "|" + PK + "|";
    }
    break;
  }
  if (!K.empty()) {
    size_t FieldCursor = 0;
    for (uint8_t PK : R.PathKinds) {
      if (PK == 0) {
        if (FieldCursor >= R.FieldNames.size()) {
          K.clear();
          break;
        }
        K += ".f:" + R.FieldNames[FieldCursor++];
      } else if (PK == 1) {
        K += "[0]";
      } else {
        K += "[1..]";
      }
    }
  }
  RkStatus[Bid] = 2;
  RkMemo[Bid] = std::move(K);
  return RkMemo[Bid];
}

uint32_t CanonKeys::baselineId(uint32_t Bid) {
  if (Bid >= BaseIds.size())
    return NoKey;
  if (BaseIds[Bid] == Unset) {
    const std::string &K = baselineKey(Bid);
    BaseIds[Bid] = K.empty() ? NoKey : intern(K);
  }
  return BaseIds[Bid];
}

uint32_t CanonKeys::liveId(pta::LocationId L) {
  if (L >= LiveIds.size())
    LiveIds.resize(Locs.numLocations(), Unset);
  if (LiveIds[L] == Unset)
    LiveIds[L] = intern(LiveKeys.key(Locs.byId(L)));
  return LiveIds[L];
}

bool CanonKeys::baseline(const serve::PackedSet &Ws, CanonSet &Out) {
  Out.clear();
  Out.reserve(Ws.size());
  for (uint64_t W : Ws) {
    uint32_t A = baselineId(serve::tripleSrc(W));
    uint32_t B = baselineId(serve::tripleDst(W));
    if (A == NoKey || B == NoKey)
      return false;
    Out.push_back(serve::packTriple(A, B, serve::tripleDefinite(W)));
  }
  std::sort(Out.begin(), Out.end());
  return true;
}

void CanonKeys::live(const pta::PointsToSet &S, CanonSet &Out) {
  Out.clear();
  Out.reserve(S.size());
  const pta::PointsToSet::Entry *E = S.entries();
  for (size_t I = 0, N = S.size(); I < N; ++I)
    Out.push_back(serve::packTriple(liveId(E[I].src()), liveId(E[I].dst()),
                                    E[I].def() == pta::Def::D));
  std::sort(Out.begin(), Out.end());
}

uint64_t CanonKeys::hash(const CanonSet &C) {
  return support::fnv1a(std::string_view(
      reinterpret_cast<const char *>(C.data()), C.size() * sizeof(uint64_t)));
}
