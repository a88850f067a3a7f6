//===- PointsToSet.h - Points-to triple sets --------------------*- C++ -*-===//
//
// Part of the mcpta project (PLDI'94 points-to analysis reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The analysis value: a set of (x, y, D|P) triples over abstract stack
/// locations (Definitions 3.1/3.2 of the paper). Deterministic iteration
/// order (sorted by source then target id). The lattice operations match
/// Figure 1/4:
///   - Merge: union where a pair definite in both stays definite and is
///     possible otherwise (a relationship holding on only some paths is
///     possible, Definition 3.3);
///   - subset (containment) for the recursion memoization check, where a
///     definite pair is covered by the same pair possible;
///   - Bottom (unreachable) is represented externally as an empty
///     std::optional.
///
/// Representation: a flat vector of 8-byte entries sorted by pair key.
/// An entry packs a whole triple into one word,
/// (SrcId << 32) | (DstId << 1) | isP, so target ids are 31 bits (see
/// MaxLocationId) and a run compares, merges and demotes as plain
/// integers. There are two storage tiers:
///   - small sets (up to a handful of pairs) live inline in the object,
///     no allocation at all;
///   - larger sets live in a shared, copy-on-write heap block. Copying
///     a set (per-statement IN snapshots, memoized IG inputs/outputs,
///     the unmap base copy) is then O(1); the copy materializes only if
///     one side is later mutated.
/// The batch kernels (mergeWith/mergeIntoRun/mergeAll/subsetOf/
/// killFromAll/demoteFromAll/replaceFrom) are linear merges and scans
/// over the sorted entries instead of per-element ordered-map
/// operations. mergeWith and mergeIntoRun (the per-statement StmtIn
/// fold, most of whose calls change nothing) share one merge routine:
/// it first scans both runs without writing, and writes only when the
/// set changes, merging in place from the back. mergeWith grows an
/// owned block to exactly the merged size, merges inline when the
/// result fits, and replaces a shared block by one private block of
/// the merged contents, which is not counted as a CoW detach;
/// mergeIntoRun grows its plain run geometrically. Process-wide
/// traffic counters (PointsToSet::stats) surface as the pta.set.*
/// telemetry.
///
//===----------------------------------------------------------------------===//

#ifndef MCPTA_POINTSTO_POINTSTOSET_H
#define MCPTA_POINTSTO_POINTSTOSET_H

#include "pointsto/Location.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace mcpta {
namespace pta {

/// Definiteness of a points-to relationship. The value is the isP bit of
/// a packed PointsToSet::Entry.
enum class Def : uint8_t {
  D = 0, ///< definitely points-to (holds on every path; both ends single)
  P = 1, ///< possibly points-to
};

/// Conjunction d1 ∧ d2 used throughout Table 1's R-location rules.
inline Def meet(Def A, Def B) { return (A == Def::D && B == Def::D) ? Def::D : Def::P; }

/// A location together with a definiteness flag — the element type of
/// L-location and R-location sets (Sec. 3.2).
struct LocDef {
  const Location *Loc = nullptr;
  Def D = Def::P;

  bool operator==(const LocDef &O) const { return Loc == O.Loc && D == O.D; }
  bool operator<(const LocDef &O) const {
    if (Loc != O.Loc)
      return Loc->id() < O.Loc->id();
    return D < O.D;
  }
};

/// A points-to set: sorted flat triples keyed by (source, target) id.
class PointsToSet {
public:
  /// (SrcId << 32) | (DstId << 1): a pair with its flag bit clear.
  /// Packed keys order exactly as (source id, target id).
  using PairKey = uint64_t;
  static PairKey key(const Location *Src, const Location *Dst) {
    return keyIds(Src->id(), Dst->id());
  }
  static PairKey keyIds(LocationId Src, LocationId Dst) {
    assert(Src <= MaxLocationId && Dst <= MaxLocationId &&
           "location id does not fit a packed pair key");
    return (static_cast<uint64_t>(Src) << 32) |
           (static_cast<uint64_t>(Dst) << 1);
  }

  /// One stored triple: its pair key with the definiteness in bit 0
  /// (set iff possible). Entries are strictly increasing by key, and
  /// since no two share a key, by Bits as well.
  struct Entry {
    uint64_t Bits;

    static Entry make(PairKey K, Def D) {
      return {K | static_cast<uint64_t>(D)};
    }
    PairKey key() const { return Bits & ~uint64_t(1); }
    Def def() const { return static_cast<Def>(Bits & 1); }
    LocationId src() const { return static_cast<LocationId>(Bits >> 32); }
    LocationId dst() const {
      return static_cast<LocationId>((Bits & 0xffffffffu) >> 1);
    }
    bool operator==(const Entry &O) const { return Bits == O.Bits; }
  };
  static_assert(sizeof(Entry) == 8, "an entry is one packed word");

  /// Plain-value copy of the process-wide traffic counters, for
  /// run-start snapshots and delta arithmetic (see Stats::snapshot).
  struct StatsSnapshot {
    uint64_t PeakPairs = 0;
    uint64_t CowShares = 0;
    uint64_t CowDetaches = 0;
    uint64_t KernelCalls = 0;
    uint64_t HeapBytes = 0;
    uint64_t HeapBytesPeak = 0;
  };

  /// Process-wide representation traffic, published per analysis run as
  /// the pta.set.* telemetry counters (the analyzer snapshots them at
  /// run start and reports the deltas; PeakPairs is reset per run).
  /// Kernel calls are counted per thread instead (threadKernelCalls).
  /// Relaxed atomics: concurrent analyses in one process (in-process
  /// --batch tasks, serve workers) all update them, and these counters
  /// only need to count — no
  /// cross-counter consistency, no ordering with the set data itself
  /// (the CoW shared_ptr control block provides that).
  struct Stats {
    std::atomic<uint64_t> PeakPairs{0};   ///< largest single set materialized
    std::atomic<uint64_t> CowShares{0};   ///< copies answered by sharing
    std::atomic<uint64_t> CowDetaches{0}; ///< shared blocks copied on mutation
    /// Live heap-tier footprint: the sum of every Rep block's vector
    /// capacity in bytes. Maintained by Rep's constructors/destructor
    /// and re-synced after capacity-changing mutations.
    std::atomic<uint64_t> HeapBytes{0};
    /// High-water mark of HeapBytes; the analyzer resets it to the
    /// current HeapBytes at run start and publishes the per-run peak as
    /// the `mem.set_heap_bytes_peak` gauge. Maintained with a CAS max,
    /// so concurrent syncs can only raise it.
    std::atomic<uint64_t> HeapBytesPeak{0};

    StatsSnapshot snapshot() const {
      StatsSnapshot S;
      S.PeakPairs = PeakPairs.load(std::memory_order_relaxed);
      S.CowShares = CowShares.load(std::memory_order_relaxed);
      S.CowDetaches = CowDetaches.load(std::memory_order_relaxed);
      S.KernelCalls = threadKernelCalls();
      S.HeapBytes = HeapBytes.load(std::memory_order_relaxed);
      S.HeapBytesPeak = HeapBytesPeak.load(std::memory_order_relaxed);
      return S;
    }
  };
  static Stats &stats() {
    static Stats S;
    return S;
  }

  /// Kernel invocations made on the calling thread so far. Every StmtIn
  /// fold is one, so they are counted in a plain thread-local counter:
  /// a locked process-wide increment per fold was a measurable share of
  /// a run. An analysis runs start to finish on its calling thread, so
  /// the difference of two reads is exactly that run's count, also when
  /// analyses run side by side in one process.
  static uint64_t threadKernelCalls();

  /// Adds \p Delta bytes to Stats::HeapBytes and raises HeapBytesPeak
  /// to the new total. Heap blocks report through it, and so does entry
  /// storage kept outside any set (the analyzer's StmtIn accumulator).
  static void addHeapBytes(int64_t Delta) {
    Stats &S = stats();
    uint64_t D = static_cast<uint64_t>(Delta);
    uint64_t Total = S.HeapBytes.fetch_add(D, std::memory_order_relaxed) + D;
    uint64_t Peak = S.HeapBytesPeak.load(std::memory_order_relaxed);
    while (Total > Peak && !S.HeapBytesPeak.compare_exchange_weak(
                               Peak, Total, std::memory_order_relaxed))
      ;
  }

  PointsToSet() = default;
  PointsToSet(const PointsToSet &O) : Heap(O.Heap), InlineN(O.InlineN) {
    if (Heap)
      stats().CowShares.fetch_add(1, std::memory_order_relaxed);
    else
      std::copy_n(O.InlineBuf, InlineN, InlineBuf);
  }
  PointsToSet(PointsToSet &&O) noexcept
      : Heap(std::move(O.Heap)), InlineN(O.InlineN) {
    if (!Heap)
      std::copy_n(O.InlineBuf, InlineN, InlineBuf);
    O.InlineN = 0;
  }
  PointsToSet &operator=(const PointsToSet &O) {
    if (this == &O)
      return *this;
    Heap = O.Heap;
    InlineN = O.InlineN;
    if (Heap)
      stats().CowShares.fetch_add(1, std::memory_order_relaxed);
    else
      std::copy_n(O.InlineBuf, InlineN, InlineBuf);
    return *this;
  }
  PointsToSet &operator=(PointsToSet &&O) noexcept {
    if (this == &O)
      return *this;
    Heap = std::move(O.Heap);
    InlineN = O.InlineN;
    if (!Heap)
      std::copy_n(O.InlineBuf, InlineN, InlineBuf);
    O.InlineN = 0;
    return *this;
  }

  bool empty() const { return size() == 0; }
  size_t size() const { return Heap ? Heap->E.size() : InlineN; }

  /// Inserts or weakens a pair; conflicting definiteness resolves to P
  /// (always safe, possibly less precise). Returns true if the set
  /// changed.
  bool insert(const Location *Src, const Location *Dst, Def D) {
    return insertKey(key(Src, Dst), D);
  }
  bool insertKey(PairKey K, Def D);

  /// Bulk builder: the set that inserting every entry of \p Raw in turn
  /// would produce (a repeated pair is P unless every copy is D), built
  /// with one sort and one adopt instead of one insert per entry.
  /// \p Raw may be in any order.
  static PointsToSet fromEntries(std::vector<Entry> Raw);

  /// Removes every pair originating at Src. Returns true if any removed.
  bool killFrom(const Location *Src);

  /// Strong update of one source: replaces every pair originating at
  /// \p Src with \p Gen, whose entries must all originate at Src — the
  /// effect of killFrom(Src) and then inserting each of Gen in turn,
  /// done in one splice. \p Gen may be in any order (it is sorted in
  /// place when it is not; a repeated pair is P unless every copy is
  /// D). Returns true if the set changed; an unchanged run is neither
  /// written nor detached.
  bool replaceFrom(const Location *Src, std::vector<Entry> &Gen);

  /// Batch kernel: removes every pair originating at any id in
  /// \p SortedSrcIds (ascending, unique) in one linear scan. Returns
  /// true if any removed.
  bool killFromAll(const std::vector<LocationId> &SortedSrcIds);

  /// Weakens every definite pair originating at Src to possible.
  void demoteFrom(const Location *Src);

  /// Batch kernel: demotes from every id in \p SortedSrcIds (ascending,
  /// unique) in one linear scan.
  void demoteFromAll(const std::vector<LocationId> &SortedSrcIds);

  /// Weakens every definite pair in the set to possible. Used by the
  /// resource-governed bailouts: a fixed point cut off before
  /// convergence cannot vouch for any definiteness (Definition 3.3), so
  /// its estimate survives only with every pair possible.
  void demoteAll();

  bool contains(const Location *Src, const Location *Dst) const {
    return findKey(key(Src, Dst)) != nullptr;
  }
  /// Returns the definiteness of (Src, Dst), or nullopt if absent.
  std::optional<Def> lookup(const Location *Src, const Location *Dst) const;

  /// All (target, def) pairs for a source.
  std::vector<LocDef> targetsOf(const Location *Src,
                                const LocationTable &Locs) const;
  /// Calls F(target, def) for each pair of Src in target-id order,
  /// straight off the entry run — targetsOf without the vector.
  template <typename Fn>
  void forEachTarget(const Location *Src, const LocationTable &Locs,
                     Fn F) const {
    uint64_t Lo = static_cast<uint64_t>(Src->id()) << 32;
    uint64_t Hi = (static_cast<uint64_t>(Src->id()) + 1) << 32;
    const Entry *B = entries();
    const Entry *E = B + size();
    for (const Entry *It = std::lower_bound(
             B, E, Lo, [](const Entry &X, uint64_t K) { return X.Bits < K; });
         It != E && It->Bits < Hi; ++It)
      F(Locs.byId(It->dst()), It->def());
  }
  bool hasTargets(const Location *Src) const;

  /// Merge per Figure 1: definite iff definite in both operands.
  /// Returns true if this set changed. A read-only scan of the two
  /// sorted entry runs decides that first; only a change writes, in
  /// place when this set owns its block.
  bool mergeWith(const PointsToSet &Other);

  /// The same fold into a plain sorted entry run: \p Run becomes the
  /// merge of Run and \p In. Where mergeWith grows its block to the
  /// exact merged size, Run grows geometrically (by half its capacity),
  /// so a run folded into many times (a StmtIn accumulator slot)
  /// reallocates O(log n) times.
  /// Returns true if Run changed.
  static bool mergeIntoRun(std::vector<Entry> &Run, const PointsToSet &In);

  /// The set holding exactly \p Run, which must be sorted and free of
  /// repeated pairs (as mergeIntoRun keeps it). Adopts the run's
  /// storage, capacity included, without copying it.
  static PointsToSet fromSortedRun(std::vector<Entry> Run);

  /// Batch kernel: the simultaneous merge of every set in \p Sets — the
  /// union of all pairs, definite iff present and definite in every
  /// operand. Equivalent to (and a k-way replacement for) folding
  /// mergeWith left to right, in one pass over all runs.
  static PointsToSet mergeAll(const std::vector<const PointsToSet *> &Sets);

  /// True if every pair of *this is covered by Other (same pair with any
  /// definiteness covers a definite pair; a possible pair is covered
  /// only by a possible pair — covering P with D would claim more than
  /// the summary supports).
  bool subsetOf(const PointsToSet &Other) const;

  bool operator==(const PointsToSet &O) const;
  bool operator!=(const PointsToSet &O) const { return !(*this == O); }

  /// Deterministic iteration (sorted by source id, then target id).
  struct Pair {
    const Location *Src;
    const Location *Dst;
    Def D;
  };
  std::vector<Pair> pairs(const LocationTable &Locs) const;

  template <typename Fn> void forEach(const LocationTable &Locs, Fn F) const {
    const Entry *E = entries();
    for (size_t I = 0, N = size(); I < N; ++I)
      F(Locs.byId(E[I].src()), Locs.byId(E[I].dst()), E[I].def());
  }

  /// Raw sorted entry run (packed triples).
  const Entry *entries() const { return Heap ? Heap->E.data() : InlineBuf; }

  /// Renders as "(x,y,D) (a,b,P) ..." sorted by location name for stable
  /// test expectations.
  std::string str(const LocationTable &Locs) const;

private:
  struct Rep {
    std::vector<Entry> E;
    /// Bytes this block currently contributes to Stats::HeapBytes.
    uint64_t TrackedBytes = 0;
    /// Intrusive share count. shared_ptr's use_count() is a relaxed
    /// read, which cannot order an in-place mutation after another
    /// thread's reads of the shared block — the CoW unique-owner check
    /// needs an acquire load paired with the release half of the last
    /// other owner's decrement. Each analysis run keeps its sets on its
    /// own thread, but several runs share one process under in-process
    /// --batch and the serve pool (docs/PARALLEL.md), so the count stays
    /// atomic. RepPtr spells those orders out.
    std::atomic<uint32_t> RC{1};

    Rep() = default;
    Rep(const Rep &O) : E(O.E) { sync(); }
    explicit Rep(std::vector<Entry> V) : E(std::move(V)) { sync(); }
    Rep &operator=(const Rep &) = delete;
    ~Rep() {
      stats().HeapBytes.fetch_sub(TrackedBytes, std::memory_order_relaxed);
    }

    /// Reconciles HeapBytes with this block's current capacity; call
    /// after any mutation that may have reallocated.
    void sync() {
      uint64_t Now = E.capacity() * sizeof(Entry);
      if (Now == TrackedBytes)
        return; // most mutations keep the capacity: no shared write
      addHeapBytes(static_cast<int64_t>(Now - TrackedBytes));
      TrackedBytes = Now;
    }
  };

  /// Minimal intrusive owner of a Rep. Copy bumps the count (relaxed —
  /// acquiring a share needs no ordering), drop is a release decrement
  /// (acq_rel: the deleter must also observe every other owner's
  /// writes), and unique() is the acquire load that makes
  /// mutate-in-place safe after concurrent readers dropped out.
  class RepPtr {
  public:
    RepPtr() = default;
    /// Adopts a freshly allocated block (RC already 1).
    explicit RepPtr(Rep *R) : P(R) {}
    RepPtr(const RepPtr &O) : P(O.P) {
      if (P)
        P->RC.fetch_add(1, std::memory_order_relaxed);
    }
    RepPtr(RepPtr &&O) noexcept : P(O.P) { O.P = nullptr; }
    RepPtr &operator=(const RepPtr &O) {
      if (P != O.P) {
        reset();
        P = O.P;
        if (P)
          P->RC.fetch_add(1, std::memory_order_relaxed);
      }
      return *this;
    }
    RepPtr &operator=(RepPtr &&O) noexcept {
      if (this != &O) {
        reset();
        P = O.P;
        O.P = nullptr;
      }
      return *this;
    }
    ~RepPtr() { reset(); }

    Rep *operator->() const { return P; }
    Rep &operator*() const { return *P; }
    explicit operator bool() const { return P != nullptr; }
    bool operator==(const RepPtr &O) const { return P == O.P; }
    /// True iff this is the only owner — and, via acquire, every read a
    /// departed owner made of the block happens-before what the caller
    /// does to it next.
    bool unique() const { return P->RC.load(std::memory_order_acquire) == 1; }

  private:
    void reset() {
      if (P && P->RC.fetch_sub(1, std::memory_order_acq_rel) == 1)
        delete P;
      P = nullptr;
    }
    Rep *P = nullptr;
  };

  static constexpr uint32_t InlineCap = 4;

  /// The entry holding pair \p K, or null.
  const Entry *findKey(PairKey K) const;
  /// Makes the entry run privately writable without changing its size
  /// (detaches a shared heap block). Returns the writable run.
  Entry *detachForWrite();
  /// Replaces the contents with \p V, choosing inline vs heap storage.
  void adopt(std::vector<Entry> V);
  static void notePeak(size_t N) {
    Stats &S = stats();
    uint64_t Peak = S.PeakPairs.load(std::memory_order_relaxed);
    while (N > Peak && !S.PeakPairs.compare_exchange_weak(
                           Peak, N, std::memory_order_relaxed))
      ;
  }

  /// Heap tier: engaged once the set outgrows InlineCap (and kept from
  /// then on — a shrunk set stays heap; logical content is what the
  /// entry run says, not which tier holds it). Shared between copies
  /// until one side mutates.
  RepPtr Heap;
  /// Inline tier: the first InlineN of InlineBuf, valid iff !Heap.
  Entry InlineBuf[InlineCap];
  uint32_t InlineN = 0;
};

} // namespace pta
} // namespace mcpta

#endif // MCPTA_POINTSTO_POINTSTOSET_H
