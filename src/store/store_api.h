#pragma once
// StoreApi — the abstract interface every result-store consumer
// programs against (the Nix store-api.hh/substituter split is the
// exemplar). A store maps content-address fingerprints to validated
// record payloads and holds grid manifests:
//
//   LocalDirStore   loose objects/<fp[0:2]>/<fp>.rec files + manifests
//                   (result_store.h) — the one on-disk layout.
//   LayeredStore    ordered read-through chain: get() takes the first
//                   layer that has a valid record, put() writes to the
//                   front. This is how a worker substitutes cells
//                   computed elsewhere (--substituters: read-only
//                   stores consulted behind the local one).
//
// The contract every backend honors: get() validates the full record
// frame and returns nullopt on ANY damage (recompute, never throw);
// put() is atomic and durable (readers never see partial records, and
// a crash after put() returns cannot lose it); fingerprints() lists
// names without validating. The sweep engine, merge tool, and fleet
// driver only ever see this interface.

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "store/manifest.h"

namespace falvolt::store {

class StoreApi {
 public:
  virtual ~StoreApi() = default;

  /// Human-readable identity for logs and errors, e.g. "dir:/x/store".
  virtual std::string describe() const = 0;

  /// True when a record file/entry exists under `fingerprint`
  /// (unvalidated — a corrupt record still "exists" until GC'd).
  virtual bool contains(const std::string& fingerprint) const = 0;

  /// Read and validate the record; nullopt means "no usable record"
  /// (missing, foreign epoch, truncated, bit-flipped...). Never throws
  /// on damage.
  virtual std::optional<std::string> get(
      const std::string& fingerprint) const = 0;

  /// Store `payload` under `fingerprint` (atomic + durable; an existing
  /// record is replaced). Throws on I/O errors and on read-only stores.
  virtual void put(const std::string& fingerprint,
                   const std::string& payload) = 0;

  /// Every fingerprint with a record in this store (names only,
  /// unvalidated), sorted and deduplicated.
  virtual std::vector<std::string> fingerprints() const = 0;

  /// Publish a grid manifest (atomic + durable). Throws on read-only
  /// stores.
  virtual void put_manifest(const Manifest& m) = 0;

  /// Every readable manifest, optionally filtered to one bench.
  virtual std::vector<Manifest> manifests(
      const std::string& bench = "") const = 0;
};

/// Ordered read-through chain over owned backends. Reads consult layers
/// front to back and return the first valid hit; writes (records and
/// manifests) always land in the front layer, which must be writable.
/// fingerprints()/manifests() union all layers (fingerprints deduped).
class LayeredStore : public StoreApi {
 public:
  /// `layers` must be non-empty; layers[0] is the local root and the
  /// write target, every later layer a substituter (hits from there
  /// feed the store.substituter.hit counter).
  explicit LayeredStore(std::vector<std::unique_ptr<StoreApi>> layers);

  std::string describe() const override;
  bool contains(const std::string& fingerprint) const override;
  std::optional<std::string> get(
      const std::string& fingerprint) const override;
  void put(const std::string& fingerprint,
           const std::string& payload) override;
  std::vector<std::string> fingerprints() const override;
  void put_manifest(const Manifest& m) override;
  std::vector<Manifest> manifests(const std::string& bench) const override;

  std::size_t layer_count() const { return layers_.size(); }
  const StoreApi& layer(std::size_t i) const { return *layers_.at(i); }

 private:
  std::vector<std::unique_ptr<StoreApi>> layers_;
  // Chain telemetry (obs/metrics.h), resolved once at construction so
  // the read path pays only relaxed adds: which layer POSITION served
  // each hit ("store.chain.layer<i>.hit" — layer 0 is the local root,
  // substituters from 1 on), whole-chain misses, and the
  // substituter-served subset. Registry entries are immortal, so these
  // pointers never dangle.
  std::vector<obs::Counter*> layer_hit_;
  obs::Counter* chain_miss_ = nullptr;
  obs::Counter* substituter_hit_ = nullptr;
};

struct MergeStats {
  int copied = 0;    ///< records imported from src
  int present = 0;   ///< already in dst (content-addressed skip)
  int corrupt = 0;   ///< records in src that failed validation
};

/// Union src's records into dst. Every candidate is re-validated before
/// import (a corrupt source record is skipped and counted, never
/// propagated); records dst already has are kept — with content
/// addressing both sides agree, so skip-if-present is harmless.
MergeStats merge_records(StoreApi& dst, const StoreApi& src);

/// Parse a store spec into the store's root directory. Everywhere a
/// store is named on a command line (`--store`, `--substituters`,
/// sweep_merge's `--into`/`--from`) the same grammar applies:
///
///   local:<dir>    the loose-object store rooted at <dir>
///   <dir>          bare path (no scheme), same as local:<dir>
///
/// A leading `[A-Za-z][A-Za-z0-9+.-]*:` is a scheme (so absolute and
/// relative paths can never be mistaken for one); anything else is a
/// bare path. Throws std::invalid_argument naming the supported forms
/// on an unknown scheme or an empty path — CLI drivers print the
/// message and exit 1.
std::string parse_store_spec(const std::string& spec);

/// Does `spec` already hold a store (an objects/ directory)? Read-side
/// callers check this before opening so a typo'd path is an error, not
/// a silently-materialized empty store.
bool store_spec_exists(const std::string& spec);

/// Open the store named by spec `dir` with a read-only chain per
/// substituter spec layered behind it. Creating the root's directories
/// is the default (it is a sweep's destination); with create=false
/// nothing is materialized and the root opens read-only. Substituter
/// roots are never created and must already hold a store (throws
/// std::invalid_argument otherwise — a typo'd substituter must not
/// silently read as "everything misses").
std::unique_ptr<LayeredStore> open_store(
    const std::string& dir,
    const std::vector<std::string>& substituters = {}, bool create = true);

}  // namespace falvolt::store
