//===- SummaryCache.h - Persistent analysis-result cache --------*- C++ -*-===//
//
// Part of the mcpta project (PLDI'94 points-to analysis reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The serve-from-cache layer: a content-addressed store of serialized
/// analysis results (mcpta-result-v3 blobs, see Serialize.h) with two
/// tiers — a bounded in-memory LRU of deserialized snapshots, and an
/// on-disk blob directory that survives process restarts.
///
/// The key is a hash of everything that determines the result:
///
///   key = H(format version ⊕ source digest ⊕ options fingerprint ⊕
///           source bytes)
///
/// so byte-identical re-analyses hit, any change to the source, the
/// AnalysisOptions, the AnalysisLimits, the blob layout or the analyzer
/// build misses, and stale blobs from older format versions or other
/// builds are simply never addressed (no migration logic needed). The
/// source digest (version::sourceDigest) hashes the library's own
/// sources at build time: a change that alters results without a format
/// bump still gets fresh keys. The store is corruption-tolerant by
/// contract: a truncated or bit-flipped blob deserializes to an error,
/// which lookup() converts into a miss plus a warning — a poisoned
/// cache can cost time, never correctness or a crash. The corrupt blob
/// is quarantined (renamed to `<key>.mcpta.bad`) and the key
/// negative-cached so it is reported once, not on every request; a
/// store under the same key republishes it. Disk writes retry with
/// bounded, jittered backoff before degrading to memory-only.
///
/// Thread-safe, with striped locking: the entry map and negative cache
/// are split into NumShards shards keyed by the content hash, each
/// behind its own mutex, so lookups for different keys never contend.
/// Recency is a per-entry stamp from a global monotonic clock rather
/// than a shared intrusive list — eviction selects the globally
/// smallest stamp, which preserves *exact* LRU order (identical to the
/// old single-list implementation) while keeping the hot hit path
/// shard-local. Serialization, disk reads/writes, and the write-retry
/// backoff all run outside every lock; only the map mutations are
/// covered.
///
/// Telemetry: hits/misses/evictions/stored-bytes are kept in a local
/// Stats block (atomic counters) and mirrored to `cache.*` counters
/// when a Telemetry sink is attached (see docs/OBSERVABILITY.md).
///
//===----------------------------------------------------------------------===//

#ifndef MCPTA_SERVE_SUMMARYCACHE_H
#define MCPTA_SERVE_SUMMARYCACHE_H

#include "serve/Serialize.h"
#include "support/FlightRecorder.h"
#include "support/Telemetry.h"
#include "support/Version.h"

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <string_view>

namespace mcpta {
namespace support {
class FaultInjection;
} // namespace support

namespace serve {

class SummaryCache {
public:
  struct Config {
    /// Blob directory. Empty disables the disk tier (memory-only LRU).
    /// Created on first store if missing.
    std::string Dir;
    /// In-memory LRU bounds: entry count and total serialized bytes.
    /// Whichever trips first evicts the least recently used snapshot
    /// (its disk blob, if any, stays).
    size_t MaxMemEntries = 64;
    uint64_t MaxMemBytes = 64 * 1024 * 1024;
  };

  struct Stats {
    uint64_t Hits = 0;       ///< lookups answered (memory or disk)
    uint64_t MemHits = 0;    ///< subset of Hits answered from the LRU
    uint64_t Misses = 0;     ///< lookups that found nothing usable
    uint64_t Evictions = 0;  ///< LRU entries dropped to respect bounds
    uint64_t BytesStored = 0;///< cumulative blob bytes stored
    uint64_t MemBytes = 0;   ///< current LRU footprint (serialized size)
    uint64_t MemEntries = 0; ///< current LRU entry count
    uint64_t BadBlobs = 0;   ///< corrupt disk blobs tolerated as misses
    uint64_t Quarantined = 0;  ///< corrupt blobs renamed aside + negative-cached
    uint64_t WriteRetries = 0; ///< disk-write attempts beyond the first
    uint64_t ReadIoErrors = 0; ///< disk reads that failed mid-blob
  };

  /// \p Telem may be null; when set, cache.{hits,misses,evictions,
  /// bytes,bad_blobs} counters mirror the Stats increments.
  explicit SummaryCache(Config C, support::Telemetry *Telem = nullptr);

  /// Attaches a flight recorder; cache hits/misses/evictions/bad blobs
  /// and stores then leave structured events attributed to the
  /// correlation id of the request driving the operation (see the
  /// RequestScope parameters below). May be null (the default).
  void setFlightRecorder(support::FlightRecorder *FR) { Recorder = FR; }

  /// Attaches a fault-injection registry consulted by every disk
  /// operation (points cache.read_io / cache.write_io / cache.corrupt,
  /// see support/FaultInjection.h). May be null (the default). A
  /// request-scoped registry in RequestScope::Faults takes precedence
  /// for the operations of that request.
  void setFaultInjection(support::FaultInjection *FI) { Faults = FI; }

  /// Per-request attribution for one cache operation: when \p Telem is
  /// set, counters go to it *instead of* the construction-time
  /// aggregate sink (the caller is expected to fold the request scope
  /// into the aggregate via Telemetry::mergeFrom, as the serve daemon
  /// does — writing both would double-count), and flight-recorder
  /// events carry \p Cid. Both optional.
  struct RequestScope {
    support::Telemetry *Telem;
    std::string_view Cid;
    /// Request-local fault injection (per-request "fault" member in
    /// tests); consulted before the cache-wide registry.
    support::FaultInjection *Faults;
    // Explicit constructors (not default member initializers): the
    // default argument `RequestScope()` below would otherwise need the
    // initializers before this enclosing class is complete.
    RequestScope() : Telem(nullptr), Cid(), Faults(nullptr) {}
    RequestScope(support::Telemetry *T, std::string_view C,
                 support::FaultInjection *F = nullptr)
        : Telem(T), Cid(C), Faults(F) {}
  };

  /// The content address for one (source, options) pair under the
  /// current result-format version and, by default, this build's source
  /// digest. 32 hex characters.
  static std::string key(std::string_view Source,
                         const pta::Analyzer::Options &Opts);
  static std::string
  key(std::string_view Source, std::string_view OptionsFingerprint,
      std::string_view SourceDigest = version::sourceDigest());

  /// Returns the cached snapshot for \p Key, consulting the LRU first
  /// and the disk tier second (a disk hit repopulates the LRU). Returns
  /// null on a miss. A corrupt disk blob counts as a miss; the
  /// diagnostic lands in \p Warning when the caller passes one.
  std::shared_ptr<const ResultSnapshot> lookup(const std::string &Key,
                                               std::string *Warning = nullptr,
                                               RequestScope Req = RequestScope());

  /// Stores \p Snapshot under \p Key in both tiers and returns the
  /// shared snapshot. With a disk tier the snapshot is serialized once
  /// and the blob published atomically (temp file + rename); disk-tier
  /// failures degrade to memory-only with a warning. A memory-only cache
  /// builds no blob: it takes the size from the writer's counting pass
  /// (serializedSize). Either way cache.bytes, the cache.store event and
  /// the LRU byte bound count exactly serialize(Snapshot).size().
  std::shared_ptr<const ResultSnapshot>
  store(const std::string &Key, ResultSnapshot Snapshot,
        std::string *Warning = nullptr, RequestScope Req = RequestScope());

  /// Drops every entry: the whole LRU, every *.mcpta blob in the disk
  /// directory, every quarantined *.bad carcass, and the negative
  /// cache. Returns the number of disk blobs removed.
  uint64_t invalidate();

  /// Copy of the counters. Each counter is individually coherent
  /// (atomic); at quiescence the copy is exact.
  Stats stats() const {
    Stats Out;
    Out.Hits = S.Hits.load(std::memory_order_relaxed);
    Out.MemHits = S.MemHits.load(std::memory_order_relaxed);
    Out.Misses = S.Misses.load(std::memory_order_relaxed);
    Out.Evictions = S.Evictions.load(std::memory_order_relaxed);
    Out.BytesStored = S.BytesStored.load(std::memory_order_relaxed);
    Out.MemBytes = S.MemBytes.load(std::memory_order_relaxed);
    Out.MemEntries = S.MemEntries.load(std::memory_order_relaxed);
    Out.BadBlobs = S.BadBlobs.load(std::memory_order_relaxed);
    Out.Quarantined = S.Quarantined.load(std::memory_order_relaxed);
    Out.WriteRetries = S.WriteRetries.load(std::memory_order_relaxed);
    Out.ReadIoErrors = S.ReadIoErrors.load(std::memory_order_relaxed);
    return Out;
  }
  const Config &config() const { return Cfg; }

private:
  struct Entry {
    std::shared_ptr<const ResultSnapshot> Snapshot;
    uint64_t Bytes = 0; ///< serialized size (the LRU's byte accounting)
    /// Global recency stamp from Clock; larger = more recently used.
    /// Eviction removes the entry with the smallest stamp cache-wide,
    /// which is exactly the least recently used one.
    uint64_t Stamp = 0;
  };

  /// One lock stripe: a slice of the entry map plus the matching slice
  /// of the negative cache, both guarded by the shard mutex. Keys land
  /// in a shard by content-hash, so the hit path for distinct keys is
  /// contention-free. Padded to a cache line to avoid false sharing.
  static constexpr unsigned NumShards = 16;
  struct Shard {
    alignas(64) mutable std::mutex Mu;
    std::map<std::string, Entry> Mem;
    /// Negative cache of quarantined keys: a corrupt blob is reported
    /// once, then reads skip the disk until a store republishes it.
    std::set<std::string> Quarantined;
  };

  Shard &shardFor(const std::string &Key) {
    return Shards[std::hash<std::string>{}(Key) % NumShards];
  }
  uint64_t nextStamp() { return Clock.fetch_add(1, std::memory_order_relaxed) + 1; }

  std::string blobPath(const std::string &Key) const;
  /// Inserts (or replaces) the entry in its shard, then evicts to the
  /// configured bounds. Takes the shard lock internally.
  void insertMem(const std::string &Key,
                 std::shared_ptr<const ResultSnapshot> Snap, uint64_t Bytes,
                 const RequestScope &Req);
  /// Evicts globally-least-recently-used entries until the bounds hold.
  /// Serialized on EvictMu; takes shard locks one at a time (never two
  /// at once — lock order is EvictMu, then a single Shard::Mu).
  void evictToFit(const RequestScope &Req);
  void bump(const char *Name, uint64_t Delta = 1,
            const RequestScope &Req = RequestScope());
  void event(std::string_view Kind, const RequestScope &Req,
             std::string_view Detail);
  /// The fault registry for one operation: request-local first, then
  /// the cache-wide one. Null when neither is attached.
  support::FaultInjection *faults(const RequestScope &Req) const;
  /// Moves the corrupt blob aside (rename to <key>.mcpta.bad, delete on
  /// rename failure) and negative-caches the key. Takes the shard lock
  /// for the negative-cache insert; the rename runs outside it.
  void quarantineBlob(const std::string &Key, const RequestScope &Req);

  Config Cfg;
  support::Telemetry *Telem;
  support::FlightRecorder *Recorder = nullptr;
  support::FaultInjection *Faults = nullptr;

  /// Counters are atomics so shards update them without a global lock.
  struct Counters {
    std::atomic<uint64_t> Hits{0}, MemHits{0}, Misses{0}, Evictions{0},
        BytesStored{0}, MemBytes{0}, MemEntries{0}, BadBlobs{0},
        Quarantined{0}, WriteRetries{0}, ReadIoErrors{0};
  };
  Counters S;
  /// Monotonic recency clock; every hit/insert stamps the entry.
  std::atomic<uint64_t> Clock{0};
  /// Disambiguates temp-file names of concurrent stores in one process.
  std::atomic<uint64_t> TmpSeq{0};
  /// Serializes evictions (and invalidate) so two threads never race to
  /// pick victims; individual shard operations do not take it.
  std::mutex EvictMu;
  std::array<Shard, NumShards> Shards;
};

} // namespace serve
} // namespace mcpta

#endif // MCPTA_SERVE_SUMMARYCACHE_H
