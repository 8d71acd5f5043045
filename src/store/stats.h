#pragma once
// Store usage statistics for `sweep_merge --list`: how much of a store
// each bench's grid occupies, which format epochs its records were
// written under, and how much the manifests share.
//
// Bench attribution goes through the manifests (records themselves do
// not name their bench — the bench name is hashed into the fingerprint,
// not stored): a record is charged to the first manifest that references
// it, further references are counted as deduplicated, and records no
// manifest references (left behind by flag changes or epoch bumps, the
// population `--prune` reclaims) land in a "(unreferenced)" bucket.
//
// The epoch histogram reads each record's PAYLOAD via a caller-supplied
// probe (the scenario-result codec lives above this layer in core/, so
// the store cannot decode its own payloads): the probe returns the
// provenance store-epoch of a payload, or nullopt when the payload is
// from a foreign codec. Records whose FRAME fails validation (truncated,
// foreign frame epoch, checksum mismatch) never yield a payload at all
// and are counted as unreadable — the population a prune would reclaim.

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "store/result_store.h"

namespace falvolt::store {

struct StoreStats {
  struct BenchUsage {
    std::string bench;        ///< manifest bench name, or "(unreferenced)"
    std::size_t records = 0;  ///< records charged to this bench
    std::uint64_t bytes = 0;  ///< on-disk bytes of those records
  };

  std::size_t total_records = 0;  ///< record files under objects/
  std::uint64_t total_bytes = 0;  ///< their on-disk bytes
  /// Per-bench usage in manifest order; the "(unreferenced)" bucket, if
  /// non-empty, is last.
  std::vector<BenchUsage> benches;
  /// Manifest references beyond the first per record — cells shared by
  /// several grid manifests that content addressing stores only once.
  std::size_t deduplicated_refs = 0;
  /// Validated records per provenance store-epoch. Readable records
  /// whose payload the probe rejects (foreign codec) count under
  /// `stale_payloads` instead.
  std::map<std::uint32_t, std::size_t> epoch_histogram;
  std::size_t stale_payloads = 0;
  /// Records whose frame failed validation (get() returned nothing).
  std::size_t unreadable_records = 0;

  /// Human-readable multi-line report (the `--list` output block).
  std::string to_text() const;

  /// Machine-readable JSON object (sweep_merge --stats-json), flattened
  /// to "store.*" samples and rendered by the same encoder as the fleet
  /// summary's "metrics" block (obs::encode_metrics_json), so fleet and
  /// merge telemetry share one schema. `indent` as for the encoder.
  std::string to_json(int indent = 0) const;
};

/// Scan every record and manifest of `rs`.
/// `epoch_of` extracts the provenance store-epoch from a validated
/// payload (nullopt = foreign codec); sweep_merge passes
/// core::decode_scenario_result.
StoreStats collect_store_stats(
    const LocalDirStore& rs,
    const std::function<std::optional<std::uint32_t>(const std::string&)>&
        epoch_of);

}  // namespace falvolt::store
