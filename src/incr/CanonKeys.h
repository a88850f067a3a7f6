//===- CanonKeys.h - Interned structural keys of a session ----*- C++ -*-===//
//
// Part of the mcpta project (PLDI'94 points-to analysis reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The incremental engine reuses a baseline context's memoized output
/// when the live calling input equals the donor's stored input under
/// canonical structural keys (Figure 4's memo test, across program
/// versions). A baseline location's key is rebuilt from its serialized
/// record; a live location's is serve::StructuralKeys::key(). The two
/// agree by construction on every location both programs share.
///
/// CanonKeys interns each key string once per session, so a set's
/// canonical form is a sorted vector of packed words
/// (keyId(src) << 32) | (keyId(dst) << 1) | isP. Comparing two forms
/// compares words, not strings, and the result is the same as comparing
/// the sorted "A>B:D" line lists the keys spell: keys contain neither
/// '>' nor a line break, so a list splits back into exactly one multiset
/// of (A, B, D/P) triples, and equal keys share one id.
///
//===----------------------------------------------------------------------===//

#ifndef MCPTA_INCR_CANONKEYS_H
#define MCPTA_INCR_CANONKEYS_H

#include "serve/Serialize.h"

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace mcpta {
namespace incr {

/// A points-to set in canonical form: one word per relationship, as
/// above, sorted ascending. Duplicate words are kept, as the line list
/// keeps duplicate lines.
using CanonSet = std::vector<uint64_t>;

class CanonKeys {
public:
  /// Says whether the frame locals of the named function are
  /// comparable across the two programs (its LocalIndex vocabulary is
  /// the baseline's). Locals of other frames have no key.
  using FrameFn = std::function<bool(const std::string &Owner)>;
  /// Maps a baseline string-literal id to the live id; nullopt when the
  /// literal is unmappable (such a location has no key).
  using StringFn = std::function<std::optional<uint32_t>(uint32_t)>;

  /// \p Locs is the live run's table; \p Live the program it analyzes.
  CanonKeys(const serve::ResultSnapshot &Baseline, const simple::Program &Live,
            const pta::LocationTable &Locs, FrameFn FrameComparable,
            StringFn LiveString);

  /// The canonical form of baseline set \p Ws into \p Out; false when
  /// some location in it has no key.
  bool baseline(const serve::PackedSet &Ws, CanonSet &Out);
  /// The canonical form of live set \p S into \p Out.
  void live(const pta::PointsToSet &S, CanonSet &Out);
  static uint64_t hash(const CanonSet &C);

  /// The structural key of baseline record \p Bid; "" when it has none
  /// (an unmappable frame local or literal, an id out of range, or a
  /// symbolic-parent cycle in a corrupt snapshot).
  const std::string &baselineKey(uint32_t Bid);

private:
  static constexpr uint32_t NoKey = UINT32_MAX;
  static constexpr uint32_t Unset = UINT32_MAX - 1;

  uint32_t intern(const std::string &K);
  uint32_t baselineId(uint32_t Bid);
  uint32_t liveId(pta::LocationId L);

  const serve::ResultSnapshot &Baseline;
  const pta::LocationTable &Locs;
  FrameFn FrameComparable;
  StringFn LiveString;
  serve::StructuralKeys LiveKeys;

  /// Key ids by key text. The views point into RkMemo and LiveKeys,
  /// whose strings never move.
  std::unordered_map<std::string_view, uint32_t> Ids;
  /// Per baseline record: its key (built once, with a 0/1/2 visit
  /// status for cycle protection) and its key id.
  std::vector<std::string> RkMemo;
  std::vector<uint8_t> RkStatus;
  std::vector<uint32_t> BaseIds;
  /// Per live location id: its key id.
  std::vector<uint32_t> LiveIds;
};

} // namespace incr
} // namespace mcpta

#endif // MCPTA_INCR_CANONKEYS_H
