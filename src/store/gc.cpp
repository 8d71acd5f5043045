#include "store/gc.h"

#include <filesystem>
#include <set>

#include "io/env.h"
#include "store/manifest.h"

namespace fs = std::filesystem;

namespace falvolt::store {

std::string GcStats::to_string() const {
  return std::to_string(live) + " live record(s) kept, " +
         std::to_string(unreachable) + " unreachable + " +
         std::to_string(invalid) + " invalid deleted, " +
         std::to_string(manifests) + " manifest(s) (" +
         std::to_string(manifests_invalid) + " unreadable removed), " +
         std::to_string(tmp_removed) + " staging file(s) cleared";
}

GcStats prune_store(const LocalDirStore& store, const PayloadCheck& check) {
  GcStats stats;
  std::error_code ec;

  // Mark. An unreadable manifest contributes no roots: its grid's
  // records become unreachable and the next sweep of that grid
  // recomputes them — the same degrade-to-recompute contract as a
  // damaged record. The dead file itself is removed so it stops
  // shadowing the bench's manifest listing.
  std::set<std::string> reachable;
  for (const std::string& path : list_manifests(store)) {
    const std::optional<Manifest> m = read_manifest(path);
    if (!m) {
      if (io::env().unlink_file(path)) ++stats.manifests_invalid;
      continue;
    }
    ++stats.manifests;
    for (const auto& [fp, key] : m->entries) {
      (void)key;
      reachable.insert(fp);
    }
  }

  // Sweep objects/. fingerprints() lists record files by name only;
  // get() re-validates the full frame (magic, epoch, length, SHA-256).
  for (const std::string& fp : store.fingerprints()) {
    const std::string path = store.object_path(fp);
    // Counters only move when the remove actually happened — a
    // read-only mount must not report reclamation it never did.
    if (!reachable.count(fp)) {
      if (io::env().unlink_file(path)) ++stats.unreachable;
      continue;
    }
    const std::optional<std::string> payload = store.get(fp);
    if (!payload || (check && !check(*payload))) {
      // Corrupt, foreign-epoch, or codec-stale: every future read is a
      // miss anyway, so reclaim the bytes and let the owning sweep
      // recompute the cell.
      if (io::env().unlink_file(path)) ++stats.invalid;
      continue;
    }
    ++stats.live;
  }

  // Drop the 2-hex-char shard directories emptied by the sweep (harmless
  // to keep, but a pruned store should not advertise dead shards).
  const fs::path objects = fs::path(store.root()) / "objects";
  for (fs::directory_iterator it(objects, ec), end; !ec && it != end;
       it.increment(ec)) {
    if (it->is_directory(ec) && fs::is_empty(it->path(), ec)) {
      fs::remove(it->path(), ec);
    }
  }

  // Staging leftovers from crashed writers. GC requires quiescence (see
  // gc.h), so anything still in tmp/ is garbage by definition.
  const fs::path tmp = fs::path(store.root()) / "tmp";
  for (fs::directory_iterator it(tmp, ec), end; !ec && it != end;
       it.increment(ec)) {
    if (io::env().unlink_file(it->path().string())) ++stats.tmp_removed;
  }

  return stats;
}

}  // namespace falvolt::store
