//===- SummaryCache.cpp - Persistent analysis-result cache ---------------------===//

#include "serve/SummaryCache.h"

#include "support/FaultInjection.h"
#include "support/Hash.h"
#include "support/Version.h"

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <thread>

#include <unistd.h>

using namespace mcpta;
using namespace mcpta::serve;

namespace fs = std::filesystem;

//===----------------------------------------------------------------------===//
// Content addressing
//===----------------------------------------------------------------------===//

namespace {

std::string hex64(uint64_t V) {
  char Buf[17];
  std::snprintf(Buf, sizeof(Buf), "%016llx",
                static_cast<unsigned long long>(V));
  return Buf;
}

} // namespace

std::string SummaryCache::key(std::string_view Source,
                              std::string_view OptionsFingerprint,
                              std::string_view SourceDigest) {
  // Separators keep (digest, fingerprint, source) concatenation
  // unambiguous.
  std::string Material = std::string(version::kResultFormatName) + ":" +
                         std::to_string(version::kResultFormatVersion) + "\x1f";
  Material.append(SourceDigest);
  Material += '\x1f';
  Material.append(OptionsFingerprint);
  Material += '\x1f';
  Material.append(Source);
  // FNV-1a run twice with different offset bases for a 128-bit address.
  // Not cryptographic — the cache defends against accidents, not
  // adversaries; a collision requires ~2^64 distinct translation units
  // in one cache directory.
  uint64_t H1 = support::fnv1a(Material);
  uint64_t H2 = support::fnv1a(Material, 0x9ae16a3b2f90404full);
  return hex64(H1) + hex64(H2);
}

std::string SummaryCache::key(std::string_view Source,
                              const pta::Analyzer::Options &Opts) {
  return key(Source, optionsFingerprint(Opts));
}

//===----------------------------------------------------------------------===//
// Cache
//===----------------------------------------------------------------------===//

SummaryCache::SummaryCache(Config C, support::Telemetry *Telem)
    : Cfg(std::move(C)), Telem(Telem) {}

void SummaryCache::bump(const char *Name, uint64_t Delta,
                        const RequestScope &Req) {
  // Exactly one sink per increment: the request scope when one is
  // attached (the server folds it into the daemon aggregate via
  // Telemetry::mergeFrom when the request completes), otherwise the
  // construction-time aggregate directly. Writing to both would double
  // the aggregate after the merge.
  if (Req.Telem && Req.Telem != Telem)
    Req.Telem->add(Name, Delta);
  else if (Telem)
    Telem->add(Name, Delta);
}

void SummaryCache::event(std::string_view Kind, const RequestScope &Req,
                         std::string_view Detail) {
  if (Recorder)
    Recorder->record(Kind, Req.Cid, Detail);
}

support::FaultInjection *SummaryCache::faults(const RequestScope &Req) const {
  return Req.Faults ? Req.Faults : Faults;
}

void SummaryCache::quarantineBlob(const std::string &Key,
                                  const RequestScope &Req) {
  // Move the carcass aside rather than deleting it: a post-mortem can
  // still inspect <key>.mcpta.bad, and the .mcpta path is free for the
  // next store to republish. Rename failure falls back to removal so
  // the poisoned blob never survives under its addressable name.
  std::error_code EC;
  fs::rename(blobPath(Key), blobPath(Key) + ".bad", EC);
  if (EC)
    fs::remove(blobPath(Key), EC);
  {
    Shard &Sh = shardFor(Key);
    std::lock_guard<std::mutex> Lock(Sh.Mu);
    Sh.Quarantined.insert(Key);
  }
  S.Quarantined.fetch_add(1, std::memory_order_relaxed);
  bump("cache.quarantined", 1, Req);
  event("cache.quarantine", Req, "key=" + Key);
}

std::string SummaryCache::blobPath(const std::string &Key) const {
  return Cfg.Dir + "/" + Key + ".mcpta";
}

void SummaryCache::evictToFit(const RequestScope &Req) {
  // Fast path: bounds hold, no eviction lock taken.
  if (S.MemEntries.load(std::memory_order_relaxed) <= Cfg.MaxMemEntries &&
      S.MemBytes.load(std::memory_order_relaxed) <= Cfg.MaxMemBytes)
    return;

  std::lock_guard<std::mutex> EvictLock(EvictMu);
  while (S.MemEntries.load(std::memory_order_relaxed) > Cfg.MaxMemEntries ||
         S.MemBytes.load(std::memory_order_relaxed) > Cfg.MaxMemBytes) {
    // Pick the globally-oldest entry: smallest recency stamp across all
    // shards. The scan is O(entries) but the LRU is bounded and small
    // (default 64 entries) and eviction is the cold path — the trade
    // buys a contention-free, list-free hit path.
    Shard *VictimShard = nullptr;
    std::string VictimKey;
    uint64_t VictimStamp = std::numeric_limits<uint64_t>::max();
    for (Shard &Sh : Shards) {
      std::lock_guard<std::mutex> Lock(Sh.Mu);
      for (const auto &[Key, E] : Sh.Mem) {
        if (E.Stamp < VictimStamp) {
          VictimStamp = E.Stamp;
          VictimKey = Key;
          VictimShard = &Sh;
        }
      }
    }
    if (!VictimShard)
      return; // nothing left to evict

    std::lock_guard<std::mutex> Lock(VictimShard->Mu);
    auto It = VictimShard->Mem.find(VictimKey);
    if (It == VictimShard->Mem.end() || It->second.Stamp != VictimStamp)
      continue; // touched or replaced between scan and erase: re-pick
    event("cache.eviction", Req, "key=" + VictimKey);
    S.MemBytes.fetch_sub(It->second.Bytes, std::memory_order_relaxed);
    S.MemEntries.fetch_sub(1, std::memory_order_relaxed);
    VictimShard->Mem.erase(It);
    S.Evictions.fetch_add(1, std::memory_order_relaxed);
    bump("cache.evictions", 1, Req);
  }
}

void SummaryCache::insertMem(const std::string &Key,
                             std::shared_ptr<const ResultSnapshot> Snap,
                             uint64_t Bytes, const RequestScope &Req) {
  Shard &Sh = shardFor(Key);
  {
    std::lock_guard<std::mutex> Lock(Sh.Mu);
    auto It = Sh.Mem.find(Key);
    if (It != Sh.Mem.end()) {
      S.MemBytes.fetch_sub(It->second.Bytes, std::memory_order_relaxed);
      It->second = Entry{std::move(Snap), Bytes, nextStamp()};
    } else {
      Sh.Mem[Key] = Entry{std::move(Snap), Bytes, nextStamp()};
      S.MemEntries.fetch_add(1, std::memory_order_relaxed);
    }
    S.MemBytes.fetch_add(Bytes, std::memory_order_relaxed);
  }
  evictToFit(Req);
}

std::shared_ptr<const ResultSnapshot>
SummaryCache::lookup(const std::string &Key, std::string *Warning,
                     RequestScope Req) {
  Shard &Sh = shardFor(Key);
  {
    std::lock_guard<std::mutex> Lock(Sh.Mu);
    auto It = Sh.Mem.find(Key);
    if (It != Sh.Mem.end()) {
      It->second.Stamp = nextStamp();
      S.Hits.fetch_add(1, std::memory_order_relaxed);
      S.MemHits.fetch_add(1, std::memory_order_relaxed);
      bump("cache.hits", 1, Req);
      bump("cache.mem_hits", 1, Req);
      event("cache.hit", Req, "tier=mem key=" + Key);
      return It->second.Snapshot;
    }

    // Negative cache: a quarantined key was already reported once; skip
    // the disk (the carcass lives at <key>.mcpta.bad) until a store
    // republishes it.
    if (Sh.Quarantined.count(Key)) {
      S.Misses.fetch_add(1, std::memory_order_relaxed);
      bump("cache.misses", 1, Req);
      bump("cache.quarantine_skips", 1, Req);
      event("cache.miss", Req, "key=" + Key + " quarantined=1");
      return nullptr;
    }
  }

  // Disk tier — no locks held across the read or the deserialize. Two
  // threads racing on the same cold key may both read the blob; the
  // second insertMem replaces the first with identical content.
  if (!Cfg.Dir.empty()) {
    std::ifstream In(blobPath(Key), std::ios::binary);
    if (In) {
      support::FaultInjection *FI = faults(Req);
      if (FI && FI->shouldFire("cache.read_io")) {
        // Injected transient read failure: a miss with a warning, no
        // quarantine — the blob itself is presumed fine.
        S.ReadIoErrors.fetch_add(1, std::memory_order_relaxed);
        bump("cache.read_io_errors", 1, Req);
        event("cache.read_error", Req, "key=" + Key + " injected=1");
        if (Warning)
          *Warning = "cache blob for key " + Key +
                     " could not be read (IO error); treated as a miss";
      } else {
        std::ostringstream SS;
        SS << In.rdbuf();
        std::string Blob = SS.str();
        if (In.bad()) {
          S.ReadIoErrors.fetch_add(1, std::memory_order_relaxed);
          bump("cache.read_io_errors", 1, Req);
          event("cache.read_error", Req, "key=" + Key);
          if (Warning)
            *Warning = "cache blob for key " + Key +
                       " could not be read (IO error); treated as a miss";
        } else {
          if (FI && !Blob.empty() && FI->shouldFire("cache.corrupt")) {
            // Injected corruption: mangle the bytes we just read so the
            // real deserialize-failure path runs end to end.
            Blob.resize(Blob.size() / 2 + 1);
            Blob[0] ^= 0x5a;
          }
          ResultSnapshot Snap;
          std::string Err;
          if (deserialize(Blob, Snap, Err)) {
            auto Shared =
                std::make_shared<const ResultSnapshot>(std::move(Snap));
            insertMem(Key, Shared, Blob.size(), Req);
            S.Hits.fetch_add(1, std::memory_order_relaxed);
            bump("cache.hits", 1, Req);
            bump("cache.disk_hits", 1, Req);
            event("cache.hit", Req, "tier=disk key=" + Key);
            return Shared;
          }
          // Bad blob: tolerate as a miss, report once, and quarantine
          // so the next lookup neither re-reads nor re-warns.
          S.BadBlobs.fetch_add(1, std::memory_order_relaxed);
          bump("cache.bad_blobs", 1, Req);
          event("cache.bad_blob", Req, "key=" + Key);
          if (Warning)
            *Warning = "cache blob for key " + Key +
                       " is unreadable and was quarantined: " + Err;
          quarantineBlob(Key, Req);
        }
      }
    }
  }

  S.Misses.fetch_add(1, std::memory_order_relaxed);
  bump("cache.misses", 1, Req);
  event("cache.miss", Req, "key=" + Key);
  return nullptr;
}

std::shared_ptr<const ResultSnapshot>
SummaryCache::store(const std::string &Key, ResultSnapshot Snapshot,
                    std::string *Warning, RequestScope Req) {
  // Only the disk tier needs the bytes; the memory tier keeps the
  // snapshot and counts the blob it would be (the same number). Disk IO
  // runs lock-free; only the shard-map mutations below take a mutex.
  std::string Blob;
  uint64_t Bytes;
  if (Cfg.Dir.empty()) {
    Bytes = serializedSize(Snapshot);
  } else {
    Blob = serialize(Snapshot);
    Bytes = Blob.size();
  }
  S.BytesStored.fetch_add(Bytes, std::memory_order_relaxed);
  bump("cache.bytes", Bytes, Req);
  bump("cache.stores", 1, Req);
  event("cache.store", Req, "key=" + Key + " bytes=" + std::to_string(Bytes));
  // A fresh blob under this key lifts any quarantine: the key is
  // addressable again.
  {
    Shard &Sh = shardFor(Key);
    std::lock_guard<std::mutex> Lock(Sh.Mu);
    Sh.Quarantined.erase(Key);
  }

  if (!Cfg.Dir.empty()) {
    std::error_code EC;
    fs::create_directories(Cfg.Dir, EC);
    // Atomic publish: write a temp file, then rename into place, so a
    // concurrent reader (or a crash mid-write) never sees a torn blob.
    // The temp name carries a process-wide sequence number so two
    // threads storing the same key never share a temp file. Transient
    // write failures (disk pressure, injected cache.write_io) retry
    // with bounded exponential backoff plus a deterministic per-key
    // jitter; no lock is held across the sleeps.
    const std::string Tmp =
        blobPath(Key) + ".tmp." + std::to_string(::getpid()) + "." +
        std::to_string(TmpSeq.fetch_add(1, std::memory_order_relaxed));
    support::FaultInjection *FI = faults(Req);
    constexpr unsigned MaxAttempts = 3;
    bool Written = false;
    for (unsigned Attempt = 0; Attempt < MaxAttempts && !Written; ++Attempt) {
      if (Attempt) {
        S.WriteRetries.fetch_add(1, std::memory_order_relaxed);
        bump("cache.write_retries", 1, Req);
        event("cache.write_retry", Req,
              "key=" + Key + " attempt=" + std::to_string(Attempt + 1));
        uint64_t BackoffUs = 1000ull << (Attempt - 1);
        BackoffUs +=
            support::fnv1a(Key, 0xcbf29ce484222325ull + Attempt) % 400;
        std::this_thread::sleep_for(std::chrono::microseconds(BackoffUs));
      }
      if (FI && FI->shouldFire("cache.write_io"))
        continue; // injected write failure: this attempt never happened
      {
        std::ofstream Out(Tmp, std::ios::binary | std::ios::trunc);
        Out.write(Blob.data(), static_cast<std::streamsize>(Blob.size()));
        Written = bool(Out);
      }
      if (Written) {
        fs::rename(Tmp, blobPath(Key), EC);
        if (EC)
          Written = false;
      }
      if (!Written)
        fs::remove(Tmp, EC);
    }
    if (!Written) {
      if (Warning)
        *Warning = "cache: cannot persist blob for key " + Key + " under '" +
                   Cfg.Dir + "' after " + std::to_string(MaxAttempts) +
                   " attempts; continuing memory-only";
      bump("cache.write_failures", 1, Req);
      event("cache.write_failure", Req, "key=" + Key);
    }
  }

  auto Shared = std::make_shared<const ResultSnapshot>(std::move(Snapshot));
  insertMem(Key, Shared, Bytes, Req);
  return Shared;
}

uint64_t SummaryCache::invalidate() {
  // EvictMu keeps a concurrent eviction from racing the teardown; shard
  // locks are taken one at a time, so a concurrent store lands either
  // before the sweep of its shard (dropped) or after (kept).
  std::lock_guard<std::mutex> EvictLock(EvictMu);
  for (Shard &Sh : Shards) {
    std::lock_guard<std::mutex> Lock(Sh.Mu);
    for (const auto &[Key, E] : Sh.Mem) {
      S.MemBytes.fetch_sub(E.Bytes, std::memory_order_relaxed);
      S.MemEntries.fetch_sub(1, std::memory_order_relaxed);
    }
    Sh.Mem.clear();
    Sh.Quarantined.clear();
  }

  uint64_t Removed = 0;
  if (!Cfg.Dir.empty()) {
    std::error_code EC;
    for (const fs::directory_entry &E : fs::directory_iterator(Cfg.Dir, EC)) {
      if (!E.is_regular_file())
        continue;
      // Live blobs count toward the removal total; quarantined *.bad
      // carcasses are swept alongside but are already non-addressable.
      if (E.path().extension() == ".mcpta") {
        std::error_code RemoveEC;
        if (fs::remove(E.path(), RemoveEC))
          ++Removed;
      } else if (E.path().extension() == ".bad") {
        std::error_code RemoveEC;
        fs::remove(E.path(), RemoveEC);
      }
    }
  }
  bump("cache.invalidations");
  return Removed;
}
