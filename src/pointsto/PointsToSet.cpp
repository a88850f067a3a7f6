//===- PointsToSet.cpp - Points-to triple sets -------------------------------===//

#include "pointsto/PointsToSet.h"

#include <algorithm>
#include <cassert>

using namespace mcpta;
using namespace mcpta::pta;

namespace {

/// Comparator for lower_bound over the sorted entry run. \p K has its
/// flag bit clear (a pair key or a source-range bound), so an entry is
/// below K exactly when its pair is.
inline bool entryLess(const PointsToSet::Entry &E, uint64_t K) {
  return E.Bits < K;
}

constexpr uint64_t PBit = static_cast<uint64_t>(Def::P);

thread_local uint64_t ThreadKernelCalls = 0;

using Entry = PointsToSet::Entry;

/// Where a changing merge writes: Out has room for the merged run, and
/// From holds the receiving run's entries (From == Out when that run was
/// grown in place).
struct MergeTarget {
  Entry *Out;
  const Entry *From;
};

/// The Merge law over sorted entry runs, the one routine behind
/// mergeWith and mergeIntoRun: merges B[0, M) into A[0, N), a pair
/// definite iff definite in both operands (Figure 1 / Definition 3.3).
/// An allocation-free scan decides first whether anything changes; most
/// folds change nothing and return false there, without calling Place.
/// Otherwise Place(NewN) says where the NewN merged entries go, and
/// they are written walking both inputs from the back, so each write
/// lands above every still-unread entry of From.
template <typename PlaceFn>
bool mergeRuns(const Entry *A, size_t N, const Entry *B, size_t M,
               PlaceFn Place) {
  const Entry *AE = A + N;
  const Entry *BE = B + M;

  // Count the pairs only B has and look for a definite pair that
  // weakens. Two entries hold the same pair iff their words differ at
  // most in the flag bit; otherwise the words order as their pairs do.
  size_t Extra = 0;
  bool Weakens = false;
  const Entry *I = A;
  const Entry *J = B;
  while (I != AE && J != BE) {
    uint64_t X = I->Bits;
    uint64_t Y = J->Bits;
    if ((X ^ Y) <= PBit) {
      Weakens |= X < Y; // definite in A, possible in B
      ++I;
      ++J;
    } else if (X < Y) {
      Weakens |= !(X & PBit);
      ++I;
    } else {
      ++Extra;
      ++J;
    }
  }
  Extra += static_cast<size_t>(BE - J);
  for (; I != AE && !Weakens; ++I)
    Weakens = !(I->Bits & PBit);
  if (Extra == 0 && !Weakens)
    return false;

  size_t NewN = N + Extra;
  MergeTarget T = Place(NewN);
  const Entry *P = T.From + N;
  const Entry *Q = BE;
  Entry *W = T.Out + NewN;
  while (Q != B) {
    if (P != T.From && (P - 1)->key() > (Q - 1)->key()) {
      --P;
      *--W = {P->Bits | PBit};
    } else if (P != T.From && (P - 1)->key() == (Q - 1)->key()) {
      --P;
      --Q;
      *--W = {P->Bits | Q->Bits}; // meet: P if either is P
    } else {
      --Q;
      *--W = {Q->Bits | PBit};
    }
  }
  while (P != T.From) {
    --P;
    *--W = {P->Bits | PBit};
  }
  return true;
}

/// Sorts \p Raw by pair and folds repeated pairs into one entry, P
/// unless every copy is D — the set inserting each entry in turn builds.
void canonicalize(std::vector<Entry> &Raw) {
  // Copies of one pair sort adjacent, D (bit 0 clear) before P, so the
  // last copy carries insert's verdict: P if any copy is P.
  std::sort(Raw.begin(), Raw.end(), [](const Entry &A, const Entry &B) {
    return A.Bits < B.Bits;
  });
  size_t Out = 0;
  for (size_t I = 0; I < Raw.size(); ++I) {
    if (Out && Raw[Out - 1].key() == Raw[I].key())
      --Out;
    Raw[Out++] = Raw[I];
  }
  Raw.resize(Out);
}

/// True if \p Run is strictly increasing by pair (sorted, no repeats).
bool strictlySorted(const std::vector<Entry> &Run) {
  for (size_t I = 1; I < Run.size(); ++I)
    if (Run[I - 1].key() >= Run[I].key())
      return false;
  return true;
}

} // namespace

uint64_t PointsToSet::threadKernelCalls() { return ThreadKernelCalls; }

const PointsToSet::Entry *PointsToSet::findKey(PairKey K) const {
  const Entry *B = entries();
  const Entry *E = B + size();
  const Entry *It = std::lower_bound(B, E, K, entryLess);
  return (It != E && It->key() == K) ? It : nullptr;
}

PointsToSet::Entry *PointsToSet::detachForWrite() {
  if (!Heap)
    return InlineBuf;
  if (!Heap.unique()) {
    Heap = RepPtr(new Rep(*Heap));
    stats().CowDetaches.fetch_add(1, std::memory_order_relaxed);
  }
  return Heap->E.data();
}

void PointsToSet::adopt(std::vector<Entry> V) {
  notePeak(V.size());
  if (!Heap && V.size() <= InlineCap) {
    InlineN = static_cast<uint32_t>(V.size());
    std::copy(V.begin(), V.end(), InlineBuf);
    return;
  }
  if (Heap && Heap.unique()) {
    Heap->E = std::move(V); // reuse the private block's capacity
    Heap->sync();
  } else {
    Heap = RepPtr(new Rep(std::move(V)));
  }
  InlineN = 0;
}

PointsToSet PointsToSet::fromEntries(std::vector<Entry> Raw) {
  canonicalize(Raw);
  PointsToSet S;
  S.adopt(std::move(Raw));
  return S;
}

PointsToSet PointsToSet::fromSortedRun(std::vector<Entry> Run) {
  assert(strictlySorted(Run) && "a sorted run holds each pair once");
  PointsToSet S;
  S.adopt(std::move(Run));
  return S;
}

bool PointsToSet::insertKey(PairKey K, Def D) {
  const Entry *B = entries();
  size_t N = size();
  const Entry *It = std::lower_bound(B, B + N, K, entryLess);
  size_t Pos = static_cast<size_t>(It - B);

  if (It != B + N && It->key() == K) {
    // Present: conflicting definiteness weakens to possible.
    if (It->def() == D || It->def() == Def::P)
      return false;
    detachForWrite()[Pos].Bits |= PBit;
    return true;
  }

  notePeak(N + 1);
  if (!Heap) {
    if (InlineN < InlineCap) {
      std::copy_backward(InlineBuf + Pos, InlineBuf + InlineN,
                         InlineBuf + InlineN + 1);
      InlineBuf[Pos] = Entry::make(K, D);
      ++InlineN;
      return true;
    }
    // Inline tier is full: promote to a heap block.
    RepPtr R(new Rep());
    R->E.reserve(InlineN + 1);
    R->E.assign(InlineBuf, InlineBuf + InlineN);
    R->E.insert(R->E.begin() + static_cast<ptrdiff_t>(Pos), Entry::make(K, D));
    R->sync();
    Heap = std::move(R);
    InlineN = 0;
    return true;
  }

  detachForWrite();
  Heap->E.insert(Heap->E.begin() + static_cast<ptrdiff_t>(Pos),
                 Entry::make(K, D));
  Heap->sync();
  return true;
}

bool PointsToSet::killFrom(const Location *Src) {
  ++ThreadKernelCalls;
  uint64_t Lo = static_cast<uint64_t>(Src->id()) << 32;
  uint64_t Hi = (static_cast<uint64_t>(Src->id()) + 1) << 32;
  const Entry *B = entries();
  size_t N = size();
  size_t First = std::lower_bound(B, B + N, Lo, entryLess) - B;
  size_t Last = std::lower_bound(B, B + N, Hi, entryLess) - B;
  if (First == Last)
    return false;
  if (!Heap) {
    std::copy(InlineBuf + Last, InlineBuf + InlineN, InlineBuf + First);
    InlineN -= static_cast<uint32_t>(Last - First);
    return true;
  }
  detachForWrite();
  Heap->E.erase(Heap->E.begin() + static_cast<ptrdiff_t>(First),
                Heap->E.begin() + static_cast<ptrdiff_t>(Last));
  return true;
}

bool PointsToSet::replaceFrom(const Location *Src, std::vector<Entry> &Gen) {
  ++ThreadKernelCalls;
  if (!strictlySorted(Gen))
    canonicalize(Gen);
  uint64_t Lo = static_cast<uint64_t>(Src->id()) << 32;
  uint64_t Hi = (static_cast<uint64_t>(Src->id()) + 1) << 32;
  assert(std::all_of(Gen.begin(), Gen.end(),
                     [&](const Entry &X) { return X.src() == Src->id(); }) &&
         "every gen pair originates at the updated source");
  const Entry *B = entries();
  size_t N = size();
  size_t First = std::lower_bound(B, B + N, Lo, entryLess) - B;
  size_t Last = std::lower_bound(B, B + N, Hi, entryLess) - B;
  size_t M = Gen.size();
  size_t NewN = N - (Last - First) + M;
  if (M)
    notePeak(NewN);
  if (Last - First == M && std::equal(Gen.begin(), Gen.end(), B + First))
    return false;

  if (!Heap && NewN <= InlineCap) {
    Entry Tail[InlineCap];
    std::copy(InlineBuf + Last, InlineBuf + N, Tail);
    std::copy(Gen.begin(), Gen.end(), InlineBuf + First);
    std::copy(Tail, Tail + (N - Last), InlineBuf + First + M);
    InlineN = static_cast<uint32_t>(NewN);
    return true;
  }
  if (Heap && Heap.unique()) {
    // The one splice: overwrite the old run's slots, then erase or
    // insert only the difference in length.
    std::vector<Entry> &Run = Heap->E;
    size_t Common = std::min(Last - First, M);
    std::copy(Gen.begin(), Gen.begin() + Common, Run.begin() + First);
    if (M < Last - First)
      Run.erase(Run.begin() + First + M, Run.begin() + Last);
    else
      Run.insert(Run.begin() + Last, Gen.begin() + Common, Gen.end());
    Heap->sync();
    return true;
  }
  // An inline set outgrowing the inline tier, or a shared block: one
  // private block of exactly the new size. Replacing a shared block is a
  // CoW detach, as killFrom's would have been.
  if (Heap)
    stats().CowDetaches.fetch_add(1, std::memory_order_relaxed);
  std::vector<Entry> Out;
  Out.reserve(NewN);
  Out.insert(Out.end(), B, B + First);
  Out.insert(Out.end(), Gen.begin(), Gen.end());
  Out.insert(Out.end(), B + Last, B + N);
  Heap = RepPtr(new Rep(std::move(Out)));
  InlineN = 0;
  return true;
}

bool PointsToSet::killFromAll(const std::vector<LocationId> &SortedSrcIds) {
  ++ThreadKernelCalls;
  if (SortedSrcIds.empty() || empty())
    return false;
  const Entry *B = entries();
  size_t N = size();

  // First pass: is anything killed at all? (Avoids detaching a shared
  // block when the answer is no — the common case once callees stop
  // touching most caller state.)
  auto srcKilled = [&](const Entry &X) {
    return std::binary_search(SortedSrcIds.begin(), SortedSrcIds.end(),
                              X.src());
  };
  size_t I = 0;
  while (I < N && !srcKilled(B[I]))
    ++I;
  if (I == N)
    return false;

  std::vector<Entry> Out;
  Out.reserve(N - 1);
  Out.assign(B, B + I);
  for (++I; I < N; ++I)
    if (!srcKilled(B[I]))
      Out.push_back(B[I]);
  adopt(std::move(Out));
  return true;
}

void PointsToSet::demoteFrom(const Location *Src) {
  ++ThreadKernelCalls;
  uint64_t Lo = static_cast<uint64_t>(Src->id()) << 32;
  uint64_t Hi = (static_cast<uint64_t>(Src->id()) + 1) << 32;
  const Entry *B = entries();
  size_t N = size();
  size_t First = std::lower_bound(B, B + N, Lo, entryLess) - B;
  size_t Last = std::lower_bound(B, B + N, Hi, entryLess) - B;
  // Only touch (and possibly detach) the run when a definite pair
  // actually weakens.
  bool Any = false;
  for (size_t I = First; I < Last && !Any; ++I)
    Any = B[I].def() == Def::D;
  if (!Any)
    return;
  Entry *W = detachForWrite();
  for (size_t I = First; I < Last; ++I)
    W[I].Bits |= PBit;
}

void PointsToSet::demoteFromAll(const std::vector<LocationId> &SortedSrcIds) {
  ++ThreadKernelCalls;
  if (SortedSrcIds.empty() || empty())
    return;
  const Entry *B = entries();
  size_t N = size();
  auto hit = [&](const Entry &X) {
    return X.def() == Def::D &&
           std::binary_search(SortedSrcIds.begin(), SortedSrcIds.end(),
                              X.src());
  };
  bool Any = false;
  for (size_t I = 0; I < N && !Any; ++I)
    Any = hit(B[I]);
  if (!Any)
    return;
  Entry *W = detachForWrite();
  for (size_t I = 0; I < N; ++I)
    if (hit(W[I]))
      W[I].Bits |= PBit;
}

void PointsToSet::demoteAll() {
  const Entry *B = entries();
  size_t N = size();
  bool Any = false;
  for (size_t I = 0; I < N && !Any; ++I)
    Any = B[I].def() == Def::D;
  if (!Any)
    return;
  Entry *W = detachForWrite();
  for (size_t I = 0; I < N; ++I)
    W[I].Bits |= PBit;
}

std::optional<Def> PointsToSet::lookup(const Location *Src,
                                       const Location *Dst) const {
  const Entry *E = findKey(key(Src, Dst));
  if (!E)
    return std::nullopt;
  return E->def();
}

std::vector<LocDef> PointsToSet::targetsOf(const Location *Src,
                                           const LocationTable &Locs) const {
  std::vector<LocDef> Out;
  forEachTarget(Src, Locs,
                [&](const Location *Dst, Def D) { Out.push_back({Dst, D}); });
  return Out;
}

bool PointsToSet::hasTargets(const Location *Src) const {
  uint64_t Lo = static_cast<uint64_t>(Src->id()) << 32;
  const Entry *B = entries();
  const Entry *E = B + size();
  const Entry *It = std::lower_bound(B, E, Lo, entryLess);
  return It != E && It->src() == Src->id();
}

bool PointsToSet::mergeWith(const PointsToSet &Other) {
  ++ThreadKernelCalls;
  // Merging with the very same entries is the fixed-point steady state:
  // a pair present (and definite) in both operands keeps its flag, so
  // nothing changes.
  if (Heap && Heap == Other.Heap)
    return false;

  // A shared block, or an inline set outgrowing the inline tier, is
  // rebuilt into one private block of exactly the merged size. That is
  // not a CoW detach, and is not counted as one.
  std::vector<Entry> Rebuilt;
  bool Changed = mergeRuns(
      entries(), size(), Other.entries(), Other.size(),
      [&](size_t NewN) -> MergeTarget {
        notePeak(NewN);
        if (!Heap && NewN <= InlineCap) {
          InlineN = static_cast<uint32_t>(NewN);
          return {InlineBuf, InlineBuf};
        }
        if (Heap && Heap.unique()) {
          std::vector<Entry> &Run = Heap->E;
          if (Run.capacity() < NewN)
            Run.reserve(NewN); // exact: no geometric slack
          Run.resize(NewN);
          return {Run.data(), Run.data()};
        }
        Rebuilt.resize(NewN);
        return {Rebuilt.data(), entries()};
      });
  if (!Changed)
    return false;
  if (!Rebuilt.empty())
    adopt(std::move(Rebuilt));
  else if (Heap)
    Heap->sync();
  return true;
}

bool PointsToSet::mergeIntoRun(std::vector<Entry> &Run,
                               const PointsToSet &In) {
  ++ThreadKernelCalls;
  return mergeRuns(Run.data(), Run.size(), In.entries(), In.size(),
                   [&](size_t NewN) -> MergeTarget {
                     notePeak(NewN);
                     // Grow by half: amortized like a doubling, with
                     // less slack held while the run is building.
                     if (Run.capacity() < NewN)
                       Run.reserve(
                           std::max(NewN, Run.capacity() + Run.capacity() / 2));
                     Run.resize(NewN);
                     return {Run.data(), Run.data()};
                   });
}

PointsToSet
PointsToSet::mergeAll(const std::vector<const PointsToSet *> &Sets) {
  if (Sets.empty())
    return PointsToSet();
  if (Sets.size() == 1)
    return *Sets[0]; // shares the operand's heap block
  ++ThreadKernelCalls;

  // K-way merge over the sorted runs: each output pair is the union
  // member at the minimal outstanding key, definite iff present and
  // definite in every operand (the same law folding mergeWith pairwise
  // reaches, applied once).
  size_t K = Sets.size();
  std::vector<const Entry *> Cur(K), End(K);
  size_t Total = 0;
  for (size_t S = 0; S < K; ++S) {
    Cur[S] = Sets[S]->entries();
    End[S] = Cur[S] + Sets[S]->size();
    Total += Sets[S]->size();
  }
  std::vector<Entry> Out;
  Out.reserve(Total);
  for (;;) {
    PairKey Min = ~PairKey(0);
    bool AnyLeft = false;
    for (size_t S = 0; S < K; ++S)
      if (Cur[S] != End[S]) {
        AnyLeft = true;
        if (Cur[S]->key() < Min)
          Min = Cur[S]->key();
      }
    if (!AnyLeft)
      break;
    size_t Present = 0;
    bool AllD = true;
    for (size_t S = 0; S < K; ++S)
      if (Cur[S] != End[S] && Cur[S]->key() == Min) {
        ++Present;
        AllD &= Cur[S]->def() == Def::D;
        ++Cur[S];
      }
    Out.push_back(Entry::make(Min, (Present == K && AllD) ? Def::D : Def::P));
  }

  PointsToSet R;
  R.adopt(std::move(Out));
  return R;
}

bool PointsToSet::subsetOf(const PointsToSet &Other) const {
  ++ThreadKernelCalls;
  if (Heap && Heap == Other.Heap)
    return true;
  if (size() > Other.size())
    return false;
  // Two-pointer scan: every pair of *this must appear in Other, and a
  // possible pair may not be covered by a definite one.
  const Entry *I = entries();
  const Entry *IE = I + size();
  const Entry *J = Other.entries();
  const Entry *JE = J + Other.size();
  while (I != IE) {
    while (J != JE && J->Bits < I->key())
      ++J;
    if (J == JE || J->key() != I->key())
      return false;
    if (I->Bits > J->Bits) // possible here, definite in Other
      return false;
    ++I;
    ++J;
  }
  return true;
}

bool PointsToSet::operator==(const PointsToSet &O) const {
  if (Heap && Heap == O.Heap)
    return true;
  size_t N = size();
  if (N != O.size())
    return false;
  const Entry *A = entries();
  const Entry *B = O.entries();
  for (size_t I = 0; I < N; ++I)
    if (!(A[I] == B[I]))
      return false;
  return true;
}

std::vector<PointsToSet::Pair>
PointsToSet::pairs(const LocationTable &Locs) const {
  std::vector<Pair> Out;
  Out.reserve(size());
  const Entry *B = entries();
  for (size_t I = 0, N = size(); I < N; ++I)
    Out.push_back({Locs.byId(B[I].src()), Locs.byId(B[I].dst()), B[I].def()});
  return Out;
}

std::string PointsToSet::str(const LocationTable &Locs) const {
  std::vector<std::string> Rendered;
  const Entry *B = entries();
  for (size_t I = 0, N = size(); I < N; ++I) {
    const Location *Src = Locs.byId(B[I].src());
    const Location *Dst = Locs.byId(B[I].dst());
    Rendered.push_back("(" + Src->str() + "," + Dst->str() + "," +
                       (B[I].def() == Def::D ? "D" : "P") + ")");
  }
  std::sort(Rendered.begin(), Rendered.end());
  std::string Out;
  for (const std::string &S : Rendered) {
    if (!Out.empty())
      Out += " ";
    Out += S;
  }
  return Out;
}
