#pragma once
// Mark-and-sweep garbage collection for a result store.
//
// Mark: the union of every fingerprint referenced by any readable
// manifest in the store — grids name their full cell list up front
// (manifest.h), so manifest reachability IS liveness. Sweep: every
// record file under objects/ that no manifest references is deleted;
// every reachable record is re-validated (frame checksum, and
// optionally the caller's payload decoder) and deleted too when it
// fails — it could only ever read as a miss, so keeping the bytes
// would just hide the damage until the next sweep recomputes through
// it. Deleting is always safe in this store: a record is a cache entry
// addressed by everything that determines it, so the worst case of an
// over-eager sweep is a recompute, never a wrong result.
//
// GC is an offline operation: run it only while no sweep is writing to
// the store (it clears the tmp/ staging area and removes files that a
// concurrent writer may be about to reference).

#include <cstddef>
#include <functional>
#include <string>

#include "store/result_store.h"

namespace falvolt::store {

struct GcStats {
  std::size_t manifests = 0;           ///< readable manifests marked from
  std::size_t manifests_invalid = 0;   ///< unreadable manifests removed
  std::size_t live = 0;                ///< reachable + valid, kept
  std::size_t unreachable = 0;         ///< deleted: no manifest references
  std::size_t invalid = 0;             ///< deleted: reachable but corrupt /
                                       ///< stale-format (recompute-on-read)
  std::size_t tmp_removed = 0;         ///< staging leftovers cleared

  std::size_t deleted() const { return unreachable + invalid; }
  std::string to_string() const;
};

/// Validates a record payload beyond the store frame. The store layer
/// cannot decode payloads (the codec lives above it, in core), so the
/// caller passes its decoder; an empty function skips payload checks
/// and GC validates frames only.
using PayloadCheck = std::function<bool(const std::string&)>;

/// Mark-and-sweep the store. Damage is never fatal: a corrupt record or
/// manifest is counted and removed, and the function only throws when
/// the store root itself is unusable. See the header comment for the
/// quiescence requirement.
GcStats prune_store(const LocalDirStore& store, const PayloadCheck& check = {});

}  // namespace falvolt::store
