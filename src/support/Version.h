//===- Version.h - Tool and artifact format versions ------------*- C++ -*-===//
//
// Part of the mcpta project (PLDI'94 points-to analysis reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The single source of truth for every version that leaves the
/// process: the tool version, and the name + version of the binary
/// result format (`mcpta-result-v1`, see src/serve/Serialize.h). Both
/// are embedded in the `mcpta-stats-v1` JSON export and in every
/// serialized result header, so cache keys, stats files, and stored
/// blobs are attributable to the code that produced them.
///
/// Bump kResultFormatVersion on ANY change to the serialized layout —
/// the version participates in the summary-cache key, so a bump
/// invalidates every stored blob instead of misreading it.
///
//===----------------------------------------------------------------------===//

#ifndef MCPTA_SUPPORT_VERSION_H
#define MCPTA_SUPPORT_VERSION_H

#include <cstdint>

namespace mcpta {
namespace version {

/// Tool/library release. Advanced with user-visible feature changes.
inline constexpr const char *kToolVersion = "0.4.0";

/// Name of the binary result format produced by serve::serialize.
inline constexpr const char *kResultFormatName = "mcpta-result-v3";

/// Layout revision of that format. Part of every cache key.
/// Version 2 canonicalizes the location table (referenced locations
/// only, sorted by name), drops run-history counters from the wire,
/// and adds the per-function fingerprints and dependency metadata the
/// incremental engine (src/incr/) diffs against. Version 3 writes
/// every points-to set as id-sorted per-source runs (one source id
/// followed by its (dst, definite) pairs) instead of flat triples —
/// the shape the flat-vector PointsToSet representation produces
/// directly. deserialize() reads this version only: an older blob is
/// rejected as unreadable (a cache miss, or a recreated baseline).
inline constexpr uint32_t kResultFormatVersion = 3;

/// Digest of the library's sources: 16 hex digits of a SHA-256 over
/// every file under src/, generated at build time
/// (support/SourceDigest.cmake). Part of every cache key, so blobs that
/// another build stored are never served, and printed in the serve
/// daemon's ready line.
const char *sourceDigest();

} // namespace version
} // namespace mcpta

#endif // MCPTA_SUPPORT_VERSION_H
