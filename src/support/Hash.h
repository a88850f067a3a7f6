//===- Hash.h - The project's one string hash -------------------*- C++ -*-===//
//
// Part of the mcpta project (PLDI'94 points-to analysis reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// 64-bit FNV-1a: summary-cache keys, fault-injection draws and the
/// incremental engine's function fingerprints all hash with it, so its
/// values are part of the stored result format. Not cryptographic.
///
//===----------------------------------------------------------------------===//

#ifndef MCPTA_SUPPORT_HASH_H
#define MCPTA_SUPPORT_HASH_H

#include <cstdint>
#include <string_view>

namespace mcpta {
namespace support {

/// FNV-1a over \p S, continuing from \p H (the standard offset basis by
/// default; pass a previous result to hash a sequence of strings).
inline uint64_t fnv1a(std::string_view S,
                      uint64_t H = 0xcbf29ce484222325ull) {
  for (unsigned char C : S) {
    H ^= C;
    H *= 0x100000001b3ull;
  }
  return H;
}

} // namespace support
} // namespace mcpta

#endif // MCPTA_SUPPORT_HASH_H
