//===- PointsToSetTest.cpp - lattice unit tests --------------------------------===//
//
// Unit and property tests for the points-to set lattice operations
// (merge, subset, kill, demote) — DESIGN.md property P4.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "pointsto/PointsToSet.h"
#include "wlgen/WorkloadGen.h"

#include <gtest/gtest.h>

#include <map>

using namespace mcpta;
using namespace mcpta::pta;
using namespace mcpta::cfront;

namespace {

/// Fixture providing a handful of variable locations.
class PointsToSetTest : public ::testing::Test {
protected:
  void SetUp() override {
    for (int I = 0; I < 6; ++I) {
      auto VD = std::make_unique<VarDecl>(
          "v" + std::to_string(I), SourceLoc(), nullptr,
          VarDecl::Storage::Global);
      L[I] = Locs.varLoc(VD.get());
      Vars.push_back(std::move(VD));
    }
  }

  LocationTable Locs;
  std::vector<std::unique_ptr<VarDecl>> Vars;
  const Location *L[6];
};

TEST_F(PointsToSetTest, InsertAndLookup) {
  PointsToSet S;
  EXPECT_TRUE(S.insert(L[0], L[1], Def::D));
  EXPECT_FALSE(S.insert(L[0], L[1], Def::D)) << "re-insert is a no-op";
  ASSERT_TRUE(S.lookup(L[0], L[1]).has_value());
  EXPECT_EQ(*S.lookup(L[0], L[1]), Def::D);
  EXPECT_FALSE(S.lookup(L[1], L[0]).has_value());
}

TEST_F(PointsToSetTest, ConflictingDefinitenessWeakens) {
  PointsToSet S;
  S.insert(L[0], L[1], Def::D);
  S.insert(L[0], L[1], Def::P);
  EXPECT_EQ(*S.lookup(L[0], L[1]), Def::P);

  PointsToSet T;
  T.insert(L[0], L[1], Def::P);
  T.insert(L[0], L[1], Def::D);
  EXPECT_EQ(*T.lookup(L[0], L[1]), Def::P) << "P is sticky";
}

/// Entries pack (src << 32) | (dst << 1) | isP into one word: the ids at
/// both ends of the 31-bit range and the flag must round-trip, and the
/// packed keys must order exactly as (src, dst) pairs do.
TEST_F(PointsToSetTest, PackedEntriesRoundTripAndOrderAsPairs) {
  const LocationId Ids[] = {0, 1, MaxLocationId};
  EXPECT_EQ(MaxLocationId, (1u << 31) - 1);
  std::vector<std::pair<LocationId, LocationId>> Pairs;
  std::vector<PointsToSet::PairKey> Keys;
  for (LocationId Src : Ids)
    for (LocationId Dst : Ids) {
      PointsToSet::PairKey K = PointsToSet::keyIds(Src, Dst);
      EXPECT_EQ(K & 1, 0u) << "a pair key leaves the flag bit clear";
      for (Def D : {Def::D, Def::P}) {
        PointsToSet::Entry E = PointsToSet::Entry::make(K, D);
        EXPECT_EQ(E.src(), Src);
        EXPECT_EQ(E.dst(), Dst);
        EXPECT_EQ(E.def(), D);
        EXPECT_EQ(E.key(), K);
      }
      Pairs.push_back({Src, Dst});
      Keys.push_back(K);
    }
  for (size_t I = 0; I < Pairs.size(); ++I)
    for (size_t J = 0; J < Pairs.size(); ++J) {
      EXPECT_EQ(Keys[I] < Keys[J], Pairs[I] < Pairs[J]) << I << " vs " << J;
      EXPECT_EQ(Keys[I] == Keys[J], Pairs[I] == Pairs[J]) << I << " vs " << J;
    }
}

TEST_F(PointsToSetTest, KillRemovesAllFromSource) {
  PointsToSet S;
  S.insert(L[0], L[1], Def::P);
  S.insert(L[0], L[2], Def::P);
  S.insert(L[3], L[1], Def::D);
  EXPECT_TRUE(S.killFrom(L[0]));
  EXPECT_FALSE(S.killFrom(L[0])) << "second kill removes nothing";
  EXPECT_FALSE(S.contains(L[0], L[1]));
  EXPECT_FALSE(S.contains(L[0], L[2]));
  EXPECT_TRUE(S.contains(L[3], L[1])) << "other sources untouched";
}

TEST_F(PointsToSetTest, DemoteWeakensOnlySource) {
  PointsToSet S;
  S.insert(L[0], L[1], Def::D);
  S.insert(L[2], L[3], Def::D);
  S.demoteFrom(L[0]);
  EXPECT_EQ(*S.lookup(L[0], L[1]), Def::P);
  EXPECT_EQ(*S.lookup(L[2], L[3]), Def::D);
}

TEST_F(PointsToSetTest, MergeDefiniteOnlyWhenBothDefinite) {
  PointsToSet A, B;
  A.insert(L[0], L[1], Def::D); // in both as D
  B.insert(L[0], L[1], Def::D);
  A.insert(L[2], L[3], Def::D); // only in A
  B.insert(L[4], L[5], Def::D); // only in B
  A.insert(L[1], L[2], Def::D); // D in A, P in B
  B.insert(L[1], L[2], Def::P);

  A.mergeWith(B);
  EXPECT_EQ(*A.lookup(L[0], L[1]), Def::D);
  EXPECT_EQ(*A.lookup(L[2], L[3]), Def::P);
  EXPECT_EQ(*A.lookup(L[4], L[5]), Def::P);
  EXPECT_EQ(*A.lookup(L[1], L[2]), Def::P);
}

TEST_F(PointsToSetTest, MergeIsIdempotent) {
  PointsToSet A;
  A.insert(L[0], L[1], Def::D);
  A.insert(L[2], L[3], Def::P);
  PointsToSet B = A;
  A.mergeWith(B);
  EXPECT_EQ(A, B);
}

TEST_F(PointsToSetTest, MergeIsCommutative) {
  PointsToSet A, B;
  A.insert(L[0], L[1], Def::D);
  A.insert(L[1], L[2], Def::P);
  B.insert(L[0], L[1], Def::P);
  B.insert(L[3], L[4], Def::D);

  PointsToSet AB = A;
  AB.mergeWith(B);
  PointsToSet BA = B;
  BA.mergeWith(A);
  EXPECT_EQ(AB, BA);
}

TEST_F(PointsToSetTest, MergeIsAssociative) {
  PointsToSet A, B, C;
  A.insert(L[0], L[1], Def::D);
  B.insert(L[0], L[1], Def::D);
  B.insert(L[1], L[2], Def::D);
  C.insert(L[2], L[3], Def::P);

  PointsToSet AB_C = A;
  AB_C.mergeWith(B);
  AB_C.mergeWith(C);

  PointsToSet BC = B;
  BC.mergeWith(C);
  PointsToSet A_BC = A;
  A_BC.mergeWith(BC);

  EXPECT_EQ(AB_C, A_BC);
}

TEST_F(PointsToSetTest, SubsetSemantics) {
  PointsToSet Small, Big;
  Small.insert(L[0], L[1], Def::D);
  Big.insert(L[0], L[1], Def::P);
  Big.insert(L[2], L[3], Def::P);

  // D pair covered by the same pair as P.
  EXPECT_TRUE(Small.subsetOf(Big));
  EXPECT_FALSE(Big.subsetOf(Small));

  // A possible pair is NOT covered by a definite pair.
  PointsToSet PossOnly, DefOnly;
  PossOnly.insert(L[0], L[1], Def::P);
  DefOnly.insert(L[0], L[1], Def::D);
  EXPECT_FALSE(PossOnly.subsetOf(DefOnly));
  EXPECT_TRUE(DefOnly.subsetOf(PossOnly));
}

TEST_F(PointsToSetTest, MergeUpperBounds) {
  // Merge produces an upper bound of both operands.
  PointsToSet A, B;
  A.insert(L[0], L[1], Def::D);
  A.insert(L[1], L[2], Def::P);
  B.insert(L[0], L[1], Def::P);
  B.insert(L[4], L[5], Def::D);
  PointsToSet M = A;
  M.mergeWith(B);
  EXPECT_TRUE(A.subsetOf(M));
  EXPECT_TRUE(B.subsetOf(M));
}

TEST_F(PointsToSetTest, TargetsOfSortedByLocationId) {
  PointsToSet S;
  S.insert(L[0], L[3], Def::P);
  S.insert(L[0], L[1], Def::D);
  S.insert(L[0], L[2], Def::P);
  auto Ts = S.targetsOf(L[0], Locs);
  ASSERT_EQ(Ts.size(), 3u);
  EXPECT_EQ(Ts[0].Loc, L[1]);
  EXPECT_EQ(Ts[1].Loc, L[2]);
  EXPECT_EQ(Ts[2].Loc, L[3]);
}

TEST_F(PointsToSetTest, StrIsSortedAndStable) {
  PointsToSet S;
  S.insert(L[2], L[0], Def::P);
  S.insert(L[0], L[1], Def::D);
  EXPECT_EQ(S.str(Locs), "(v0,v1,D) (v2,v0,P)");
}

//===----------------------------------------------------------------------===//
// Randomized equivalence: flat representation vs naive reference
//===----------------------------------------------------------------------===//

/// Reference implementation: the ordered-map representation the flat
/// vector replaced, with every operation spelled directly from the
/// paper's definitions. The flat set must agree with it on every
/// operation's result AND return value.
struct NaiveSet {
  std::map<PointsToSet::PairKey, Def> M;

  bool insert(PointsToSet::PairKey K, Def D) {
    auto [It, New] = M.emplace(K, D);
    if (New)
      return true;
    Def Weakened = meet(It->second, D);
    bool Changed = Weakened != It->second;
    It->second = Weakened;
    return Changed;
  }
  bool killFrom(LocationId Src) {
    bool Any = false;
    for (auto It = M.begin(); It != M.end();)
      if (static_cast<LocationId>(It->first >> 32) == Src) {
        It = M.erase(It);
        Any = true;
      } else
        ++It;
    return Any;
  }
  void demoteFrom(LocationId Src) {
    for (auto &[K, D] : M)
      if (static_cast<LocationId>(K >> 32) == Src)
        D = Def::P;
  }
  bool mergeWith(const NaiveSet &O) {
    std::map<PointsToSet::PairKey, Def> Out;
    for (const auto &[K, D] : M) {
      auto It = O.M.find(K);
      Out[K] = It == O.M.end() ? Def::P : meet(D, It->second);
    }
    for (const auto &[K, D] : O.M)
      if (!M.count(K))
        Out[K] = Def::P;
    bool Changed = Out != M;
    M = std::move(Out);
    return Changed;
  }
  bool subsetOf(const NaiveSet &O) const {
    for (const auto &[K, D] : M) {
      auto It = O.M.find(K);
      if (It == O.M.end() || (D == Def::P && It->second == Def::D))
        return false;
    }
    return true;
  }
};

/// Deterministic 64-bit LCG; the test is reproducible per seed.
struct Rng {
  uint64_t State;
  explicit Rng(uint64_t Seed) : State(Seed * 2862933555777941757ULL + 1) {}
  uint32_t next(uint32_t Bound) {
    State = State * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<uint32_t>((State >> 33) % Bound);
  }
};

std::vector<PointsToSet::Entry> entriesOf(const PointsToSet &S) {
  return {S.entries(), S.entries() + S.size()};
}

std::vector<PointsToSet::Entry> entriesOf(const NaiveSet &S) {
  std::vector<PointsToSet::Entry> Out;
  for (const auto &[K, D] : S.M)
    Out.push_back(PointsToSet::Entry::make(K, D));
  return Out;
}

TEST_F(PointsToSetTest, RandomizedOpsMatchNaiveReference) {
  for (uint64_t Seed = 1; Seed <= 25; ++Seed) {
    Rng R(Seed);
    PointsToSet Flat, FlatB;
    NaiveSet Ref, RefB;
    for (int Op = 0; Op < 300; ++Op) {
      LocationId S = L[R.next(6)]->id();
      LocationId D = L[R.next(6)]->id();
      PointsToSet::PairKey K = PointsToSet::keyIds(S, D);
      Def Dd = R.next(2) ? Def::D : Def::P;
      switch (R.next(8)) {
      case 0:
      case 1:
      case 2: // bias toward growth so kills have something to do
        EXPECT_EQ(Flat.insertKey(K, Dd), Ref.insert(K, Dd));
        break;
      case 3:
        EXPECT_EQ(Flat.killFrom(Locs.byId(S)), Ref.killFrom(S));
        break;
      case 4:
        Flat.demoteFrom(Locs.byId(S));
        Ref.demoteFrom(S);
        break;
      case 5: // batch kill/demote over a random sorted id subset
      {
        std::vector<LocationId> Ids;
        for (int I = 0; I < 6; ++I)
          if (R.next(3) == 0)
            Ids.push_back(L[I]->id());
        std::sort(Ids.begin(), Ids.end());
        if (R.next(2)) {
          bool Changed = false;
          NaiveSet Before = Ref;
          for (LocationId Id : Ids)
            Changed |= Ref.killFrom(Id);
          EXPECT_EQ(Flat.killFromAll(Ids), Changed);
          (void)Before;
        } else {
          Flat.demoteFromAll(Ids);
          for (LocationId Id : Ids)
            Ref.demoteFrom(Id);
        }
        break;
      }
      case 6:
        EXPECT_EQ(Flat.insertKey(K, Dd), Ref.insert(K, Dd));
        FlatB.insertKey(K, Dd);
        RefB.insert(K, Dd);
        break;
      case 7:
        EXPECT_EQ(Flat.mergeWith(FlatB), Ref.mergeWith(RefB));
        break;
      }
      ASSERT_EQ(entriesOf(Flat), entriesOf(Ref))
          << "seed " << Seed << " op " << Op;
      EXPECT_EQ(Flat.subsetOf(FlatB), Ref.subsetOf(RefB));
      EXPECT_EQ(FlatB.subsetOf(Flat), RefB.subsetOf(Ref));
    }
  }
}

/// mergeWith's write paths, one case per path: a block owned outright
/// (merged in place), a block shared with a live copy (rebuilt
/// privately), a self-merge, a change of definiteness only, and no
/// change at all — each with a receiving set that is inline or on the
/// heap tier and sized on both sides of InlineCap (4).
TEST_F(PointsToSetTest, MergeWithWritePathsMatchNaiveReference) {
  // Grows Flat by N random pairs (sources v0..v4). With Heap set, five
  // v5 pairs first push it past the inline tier and are then killed, so
  // a set of any size lives on the heap tier.
  auto Build = [&](Rng &R, uint32_t N, bool Heap, PointsToSet &Flat,
                   NaiveSet &Ref) {
    if (Heap)
      for (int I = 0; I < 5; ++I)
        Flat.insertKey(PointsToSet::keyIds(L[5]->id(), L[I]->id()), Def::D);
    for (uint32_t I = 0; I < N; ++I) {
      PointsToSet::PairKey K =
          PointsToSet::keyIds(L[R.next(5)]->id(), L[R.next(6)]->id());
      Def D = R.next(2) ? Def::D : Def::P;
      Flat.insertKey(K, D);
      Ref.insert(K, D);
    }
    if (Heap)
      Flat.killFrom(L[5]);
  };
  enum Case { Owned, Shared, Self, WeakenOnly, NoChange };
  const std::atomic<uint64_t> &Detaches = PointsToSet::stats().CowDetaches;
  for (uint64_t Seed = 1; Seed <= 60; ++Seed)
    for (Case C : {Owned, Shared, Self, WeakenOnly, NoChange})
      for (bool Heap : {false, true}) {
        Rng R(Seed * 8 + C);
        PointsToSet A, B;
        NaiveSet RA, RB;
        Build(R, R.next(7), Heap, A, RA);
        switch (C) {
        case Owned:
        case Shared:
          Build(R, R.next(7), R.next(2), B, RB);
          break;
        case Self:
          break;
        case WeakenOnly: // A's pairs, some definite ones now possible
          for (const auto &[K, D] : RA.M) {
            Def BD = R.next(2) ? Def::P : D;
            B.insertKey(K, BD);
            RB.insert(K, BD);
          }
          break;
        case NoChange: // A's definite pairs, and some possible ones
          for (const auto &[K, D] : RA.M)
            if (D == Def::D || R.next(2)) {
              Def BD = R.next(2) ? Def::D : D;
              B.insertKey(K, BD);
              RB.insert(K, BD);
            }
          break;
        }
        PointsToSet Copy;
        if (C == Shared)
          Copy = A;
        std::vector<PointsToSet::Entry> CopyBefore = entriesOf(Copy);

        uint64_t DetachesBefore = Detaches.load();
        bool Changed = C == Self ? A.mergeWith(A) : A.mergeWith(B);
        EXPECT_EQ(Detaches.load(), DetachesBefore)
            << "a merge rebuilds, it never detaches";
        bool RefChanged = C == Self ? RA.mergeWith(RA) : RA.mergeWith(RB);
        EXPECT_EQ(Changed, RefChanged) << "seed " << Seed << " case " << C;
        if (C == Self || C == NoChange)
          EXPECT_FALSE(Changed);
        ASSERT_EQ(entriesOf(A), entriesOf(RA))
            << "seed " << Seed << " case " << C << " heap " << Heap;
        EXPECT_EQ(entriesOf(Copy), CopyBefore)
            << "the live copy keeps its entries";
      }
}

/// replaceFrom, the strong-update splice, against its definition: kill
/// every pair of the source, then insert each gen pair in turn. Covers
/// inline sets, inline sets promoted to the heap tier, owned and shared
/// heap blocks, runs that grow, shrink or keep their length (including
/// an unchanged run, which must not detach a shared block), gen lists in
/// any order with repeated pairs, and an empty gen list.
TEST_F(PointsToSetTest, ReplaceFromMatchesKillThenInsert) {
  enum Tier { Inline, Owned, Shared };
  enum Length { Grow, Shrink, Keep, Same, Empty };
  const std::atomic<uint64_t> &Detaches = PointsToSet::stats().CowDetaches;
  bool SawPromotion = false, SawGrowOwned = false, SawShrinkOwned = false,
       SawSharedChange = false, SawSharedSame = false;
  for (uint64_t Seed = 1; Seed <= 60; ++Seed)
    for (Tier T : {Inline, Owned, Shared})
      for (Length Len : {Grow, Shrink, Keep, Same, Empty}) {
        Rng R(Seed * 16 + T * 5 + Len);
        PointsToSet A;
        NaiveSet Ref;
        if (T != Inline) // five v5 pairs push A onto the heap tier, then go
          for (int I = 0; I < 5; ++I)
            A.insertKey(PointsToSet::keyIds(L[5]->id(), L[I]->id()), Def::D);
        for (uint32_t I = 0, N = T == Inline ? R.next(4) : R.next(12); I < N;
             ++I) {
          PointsToSet::PairKey K =
              PointsToSet::keyIds(L[R.next(5)]->id(), L[R.next(6)]->id());
          Def D = R.next(2) ? Def::D : Def::P;
          A.insertKey(K, D);
          Ref.insert(K, D);
        }
        if (T != Inline)
          A.killFrom(L[5]);

        const Location *Src = L[R.next(5)];
        std::vector<PointsToSet::Entry> Old;
        for (const auto &[K, D] : Ref.M)
          if (static_cast<LocationId>(K >> 32) == Src->id())
            Old.push_back(PointsToSet::Entry::make(K, D));
        size_t Want = 0;
        switch (Len) {
        case Grow:
          Want = Old.size() + 1 + R.next(4);
          break;
        case Shrink:
          Want = Old.empty() ? 0 : R.next(static_cast<uint32_t>(Old.size()));
          break;
        case Keep:
        case Same:
          Want = Old.size();
          break;
        case Empty:
          break;
        }
        std::vector<PointsToSet::Entry> Gen;
        if (Len == Same) {
          Gen = Old;
        } else {
          // Distinct targets (v0..v5 and a repeat of one of them), then
          // shuffled: gen lists need not be sorted or free of repeats.
          for (size_t I = 0; I < Want && I < 6; ++I)
            Gen.push_back(PointsToSet::Entry::make(
                PointsToSet::key(Src, L[(I + Seed) % 6]),
                R.next(2) ? Def::D : Def::P));
          if (!Gen.empty() && R.next(3) == 0)
            Gen.push_back(PointsToSet::Entry::make(
                Gen[0].key(), R.next(2) ? Def::D : Def::P));
          for (size_t I = Gen.size(); I > 1; --I)
            std::swap(Gen[I - 1], Gen[R.next(static_cast<uint32_t>(I))]);
        }

        NaiveSet Expected = Ref;
        Expected.killFrom(Src->id());
        for (const PointsToSet::Entry &E : Gen)
          Expected.insert(E.key(), E.def());
        bool RefChanged = Expected.M != Ref.M;

        PointsToSet Copy;
        if (T == Shared)
          Copy = A;
        std::vector<PointsToSet::Entry> CopyBefore = entriesOf(Copy);
        size_t SizeBefore = A.size();
        uint64_t DetachesBefore = Detaches.load();

        bool Changed = A.replaceFrom(Src, Gen);
        EXPECT_EQ(Changed, RefChanged)
            << "seed " << Seed << " tier " << T << " length " << Len;
        ASSERT_EQ(entriesOf(A), entriesOf(Expected))
            << "seed " << Seed << " tier " << T << " length " << Len;
        if (Len == Same) {
          EXPECT_FALSE(Changed);
        }
        EXPECT_EQ(Detaches.load() - DetachesBefore,
                  T == Shared && Changed ? 1u : 0u)
            << "only a changed shared block detaches";
        EXPECT_EQ(entriesOf(Copy), CopyBefore)
            << "the live copy keeps its entries";

        SawPromotion |= T == Inline && SizeBefore <= 4 && A.size() > 4;
        SawGrowOwned |= T == Owned && A.size() > SizeBefore;
        SawShrinkOwned |= T == Owned && A.size() < SizeBefore;
        SawSharedChange |= T == Shared && Changed;
        SawSharedSame |= T == Shared && Len == Same;
      }
  EXPECT_TRUE(SawPromotion);
  EXPECT_TRUE(SawGrowOwned);
  EXPECT_TRUE(SawShrinkOwned);
  EXPECT_TRUE(SawSharedChange);
  EXPECT_TRUE(SawSharedSame);
}

/// mergeIntoRun folds into a plain run by the same law as mergeWith.
TEST_F(PointsToSetTest, MergeIntoRunMatchesMergeWith) {
  for (uint64_t Seed = 1; Seed <= 40; ++Seed) {
    Rng R(Seed);
    PointsToSet Set;
    std::vector<PointsToSet::Entry> Run;
    for (int Fold = 0; Fold < 8; ++Fold) {
      PointsToSet In;
      for (uint32_t I = 0, N = R.next(10); I < N; ++I)
        In.insertKey(
            PointsToSet::keyIds(L[R.next(6)]->id(), L[R.next(6)]->id()),
            R.next(2) ? Def::D : Def::P);
      bool Changed = Set.mergeWith(In);
      bool RunChanged = PointsToSet::mergeIntoRun(Run, In);
      EXPECT_EQ(RunChanged, Changed) << "seed " << Seed << " fold " << Fold;
      ASSERT_EQ(Run, entriesOf(Set)) << "seed " << Seed << " fold " << Fold;
    }
    EXPECT_EQ(entriesOf(PointsToSet::fromSortedRun(Run)), entriesOf(Set));
  }
}

TEST_F(PointsToSetTest, RandomizedMergeAllMatchesSequentialFold) {
  for (uint64_t Seed = 1; Seed <= 20; ++Seed) {
    Rng R(Seed);
    std::vector<PointsToSet> Sets(2 + R.next(4));
    for (PointsToSet &S : Sets)
      for (uint32_t I = 0, N = R.next(12); I < N; ++I)
        S.insertKey(PointsToSet::keyIds(L[R.next(6)]->id(), L[R.next(6)]->id()),
                    R.next(2) ? Def::D : Def::P);

    std::vector<const PointsToSet *> Ptrs;
    for (const PointsToSet &S : Sets)
      Ptrs.push_back(&S);
    PointsToSet KWay = PointsToSet::mergeAll(Ptrs);

    PointsToSet Fold = Sets[0];
    for (size_t I = 1; I < Sets.size(); ++I)
      Fold.mergeWith(Sets[I]);
    EXPECT_EQ(entriesOf(KWay), entriesOf(Fold)) << "seed " << Seed;
  }
}

TEST_F(PointsToSetTest, BulkBuilderMatchesSequentialInsert) {
  // Sizes on both sides of the inline tier (4), and well past it.
  for (uint32_t Size : {0u, 1u, 3u, 4u, 5u, 8u, 30u})
    for (uint64_t Seed = 1; Seed <= 20; ++Seed) {
      Rng R(Seed * 131 + Size);
      std::vector<PointsToSet::Entry> Raw;
      for (uint32_t I = 0; I < Size; ++I) {
        PointsToSet::PairKey K =
            PointsToSet::keyIds(L[R.next(6)]->id(), L[R.next(6)]->id());
        Def D = R.next(2) ? Def::D : Def::P;
        Raw.push_back(PointsToSet::Entry::make(K, D));
        // Repeat some pairs with mixed definiteness, possibly later.
        if (R.next(3) == 0)
          Raw.push_back(PointsToSet::Entry::make(K, R.next(2) ? Def::D : Def::P));
      }
      // Shuffled order: the builder must not depend on input order.
      for (size_t I = Raw.size(); I > 1; --I)
        std::swap(Raw[I - 1], Raw[R.next(static_cast<uint32_t>(I))]);

      PointsToSet Seq;
      NaiveSet Ref;
      for (const PointsToSet::Entry &E : Raw) {
        Seq.insertKey(E.key(), E.def());
        Ref.insert(E.key(), E.def());
      }
      PointsToSet Bulk = PointsToSet::fromEntries(Raw);
      EXPECT_EQ(entriesOf(Bulk), entriesOf(Seq))
          << "size " << Size << " seed " << Seed;
      EXPECT_EQ(entriesOf(Bulk), entriesOf(Ref))
          << "size " << Size << " seed " << Seed;
      EXPECT_TRUE(Bulk == Seq);

      // The built set is an ordinary set: later inserts and merges act
      // on it exactly as on the sequentially built one.
      PointsToSet::PairKey K =
          PointsToSet::keyIds(L[R.next(6)]->id(), L[R.next(6)]->id());
      EXPECT_EQ(Bulk.insertKey(K, Def::D), Seq.insertKey(K, Def::D));
      EXPECT_EQ(Bulk.mergeWith(Seq), false);
      EXPECT_EQ(entriesOf(Bulk), entriesOf(Seq));
    }
}

TEST_F(PointsToSetTest, BulkBuilderRepeatedPairIsPUnlessAllD) {
  PointsToSet::PairKey K = PointsToSet::key(L[0], L[1]);
  auto E = [&](Def D) { return PointsToSet::Entry::make(K, D); };
  EXPECT_EQ(*PointsToSet::fromEntries({E(Def::D), E(Def::D)}).lookup(L[0], L[1]),
            Def::D);
  EXPECT_EQ(*PointsToSet::fromEntries({E(Def::D), E(Def::P)}).lookup(L[0], L[1]),
            Def::P);
  EXPECT_EQ(*PointsToSet::fromEntries({E(Def::P), E(Def::D)}).lookup(L[0], L[1]),
            Def::P);
  EXPECT_EQ(PointsToSet::fromEntries({E(Def::P), E(Def::D), E(Def::D)}).size(),
            1u);
}

//===----------------------------------------------------------------------===//
// wlgen-driven lattice laws on real analysis sets
//===----------------------------------------------------------------------===//

/// Harvests every points-to set a real analysis run materializes:
/// per-statement inputs, memoized IG inputs/outputs, and main's output.
std::vector<PointsToSet> harvestSets(const Pipeline &P) {
  std::vector<PointsToSet> Out;
  for (const auto &S : P.Analysis.StmtIn)
    if (S && !S->empty())
      Out.push_back(*S);
  P.Analysis.IG->forEachNode([&](const IGNode *N) {
    if (N->StoredInput && !N->StoredInput->empty())
      Out.push_back(*N->StoredInput);
    if (N->StoredOutput && !N->StoredOutput->empty())
      Out.push_back(*N->StoredOutput);
  });
  if (P.Analysis.MainOut)
    Out.push_back(*P.Analysis.MainOut);
  return Out;
}

TEST(PointsToSetLawsTest, WlgenProgramsObeyLatticeLaws) {
  for (uint64_t Seed = 1; Seed <= 6; ++Seed) {
    wlgen::GenConfig Cfg;
    Cfg.Seed = Seed;
    Cfg.NumFunctions = 5;
    Cfg.StmtsPerFunction = 8;
    Cfg.UseFunctionPointers = Seed % 2 == 0;
    auto P = testutil::analyze(wlgen::generateProgram(Cfg));
    ASSERT_TRUE(P.Analysis.Analyzed) << "seed " << Seed;
    std::vector<PointsToSet> Sets = harvestSets(P);
    ASSERT_GE(Sets.size(), 3u) << "seed " << Seed;

    Rng R(Seed);
    for (int Round = 0; Round < 40; ++Round) {
      const PointsToSet &A = Sets[R.next(static_cast<uint32_t>(Sets.size()))];
      const PointsToSet &B = Sets[R.next(static_cast<uint32_t>(Sets.size()))];
      const PointsToSet &C = Sets[R.next(static_cast<uint32_t>(Sets.size()))];

      // Idempotent: A ∪ A = A.
      PointsToSet AA = A;
      AA.mergeWith(A);
      EXPECT_EQ(AA, A);

      // Commutative: A ∪ B = B ∪ A.
      PointsToSet AB = A, BA = B;
      AB.mergeWith(B);
      BA.mergeWith(A);
      EXPECT_EQ(AB, BA);

      // Associative: (A ∪ B) ∪ C = A ∪ (B ∪ C).
      PointsToSet AB_C = AB, BC = B;
      AB_C.mergeWith(C);
      BC.mergeWith(C);
      PointsToSet A_BC = A;
      A_BC.mergeWith(BC);
      EXPECT_EQ(AB_C, A_BC);

      // subsetOf is a partial order over merge results: reflexive,
      // both operands below the join, and transitive up a join chain.
      EXPECT_TRUE(A.subsetOf(A));
      EXPECT_TRUE(A.subsetOf(AB));
      EXPECT_TRUE(B.subsetOf(AB));
      EXPECT_TRUE(A.subsetOf(AB_C)) << "transitivity through A ∪ B";
      if (AB.subsetOf(A))
        EXPECT_EQ(AB, A) << "antisymmetry";

      // Definition 3.3: a pair is definite in the merge iff present and
      // definite in BOTH operands; pairs of one operand only are
      // possible.
      size_t IA = 0, NA = A.size();
      const PointsToSet::Entry *EA = A.entries();
      for (size_t I = 0, N = AB.size(); I < N; ++I) {
        const PointsToSet::Entry &E = AB.entries()[I];
        while (IA < NA && EA[IA].key() < E.key())
          ++IA;
        bool InA = IA < NA && EA[IA].key() == E.key();
        const PointsToSet::Entry *InB = nullptr;
        for (size_t J = 0, M = B.size(); J < M; ++J)
          if (B.entries()[J].key() == E.key()) {
            InB = &B.entries()[J];
            break;
          }
        ASSERT_TRUE(InA || InB);
        Def Expect = (InA && InB) ? meet(EA[IA].def(), InB->def()) : Def::P;
        EXPECT_EQ(E.def(), Expect) << "D-in-both-stays-D (Def. 3.3)";
      }

      // mergeAll(A, B, C) = fold of pairwise merges.
      PointsToSet KWay = PointsToSet::mergeAll({&A, &B, &C});
      PointsToSet Fold = AB_C;
      EXPECT_EQ(KWay, Fold);
    }
  }
}

} // namespace
