#ifndef POLARIS_LST_SNAPSHOT_BUILDER_H_
#define POLARIS_LST_SNAPSHOT_BUILDER_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "lst/table_snapshot.h"
#include "storage/object_store.h"

namespace polaris::lst {

/// Reference to one committed manifest, as served by the catalog's
/// Manifests table: sequence order + blob path.
struct ManifestRef {
  uint64_t sequence_id = 0;
  std::string path;

  friend bool operator==(const ManifestRef&, const ManifestRef&) = default;
};

/// Reference to a checkpoint covering manifests with sequence ids
/// <= sequence_id.
struct CheckpointRef {
  uint64_t sequence_id = 0;
  std::string path;
};

/// BE-side physical-metadata layer (paper §3.2.1): reconstructs table
/// snapshots from manifest blobs, optionally starting from a checkpoint,
/// with caching so the state "can be efficiently reconstructed as of any
/// point in time" and incrementally extended as transactions commit.
///
/// Two cache levels, both keyed on immutable inputs and safe to share:
///  * parsed-manifest cache: blob path -> parsed entries + commit time;
///  * snapshot cache: one snapshot per table, the newest one built, keyed
///    by the manifest directory of its chain's last manifest
///    (`tables/<id>/manifests/`). A newer read copies it and extends it
///    incrementally; a read of an older version misses and replays from
///    its checkpoint plus the parsed-manifest cache. This cache's memory is
///    therefore bounded by tables x live files, not commits x live files.
class SnapshotBuilder {
 public:
  explicit SnapshotBuilder(storage::ObjectStore* store) : store_(store) {}

  /// Builds the snapshot defined by `manifests` (ascending sequence ids).
  /// If `checkpoint` is provided, manifests with sequence_id <= the
  /// checkpoint's are skipped and replay starts from the checkpoint state.
  common::Result<TableSnapshot> Build(
      const std::vector<ManifestRef>& manifests,
      const std::optional<CheckpointRef>& checkpoint = std::nullopt);

  /// Cache statistics, for the checkpoint/caching benchmarks.
  struct CacheStats {
    uint64_t manifest_hits = 0;
    uint64_t manifest_misses = 0;
    uint64_t snapshot_hits = 0;
    uint64_t snapshot_misses = 0;
    uint64_t manifests_replayed = 0;
    uint64_t snapshots_cached = 0;  // entries held now: at most one per table
  };
  CacheStats cache_stats() const;
  void ClearCache();

 private:
  struct ParsedManifest {
    std::vector<ManifestEntry> entries;
    common::Micros commit_time = 0;
  };

  /// Loads a manifest through the parsed-manifest cache.
  common::Result<std::shared_ptr<const ParsedManifest>> LoadManifest(
      const std::string& path);

  storage::ObjectStore* store_;

  mutable std::mutex mu_;
  std::map<std::string, std::shared_ptr<const ParsedManifest>>
      manifest_cache_;
  /// The newest snapshot built for one table. `last_manifest` is the path
  /// of the last manifest applied to it — a precise identity for "the
  /// state after replaying this chain" because manifests are immutable
  /// and totally ordered per table.
  struct CachedSnapshot {
    std::string last_manifest;
    std::shared_ptr<const TableSnapshot> snapshot;
  };
  /// Keyed by manifest directory; see the class comment.
  std::map<std::string, CachedSnapshot> snapshot_cache_;
  CacheStats stats_;
};

}  // namespace polaris::lst

#endif  // POLARIS_LST_SNAPSHOT_BUILDER_H_
