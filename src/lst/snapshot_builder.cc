#include "lst/snapshot_builder.h"

#include "lst/checkpoint.h"

namespace polaris::lst {

using common::Result;
using common::Status;

namespace {

/// `tables/<id>/manifests/<name>` -> `tables/<id>/manifests/`: one
/// snapshot-cache slot per table.
std::string ManifestDir(const std::string& path) {
  return path.substr(0, path.rfind('/') + 1);
}

}  // namespace

Result<std::shared_ptr<const SnapshotBuilder::ParsedManifest>>
SnapshotBuilder::LoadManifest(const std::string& path) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = manifest_cache_.find(path);
    if (it != manifest_cache_.end()) {
      ++stats_.manifest_hits;
      return it->second;
    }
    ++stats_.manifest_misses;
  }
  POLARIS_ASSIGN_OR_RETURN(std::string blob, store_->Get(path));
  POLARIS_ASSIGN_OR_RETURN(storage::BlobInfo info, store_->Stat(path));
  auto parsed = std::make_shared<ParsedManifest>();
  POLARIS_ASSIGN_OR_RETURN(parsed->entries, ParseEntries(blob));
  parsed->commit_time = info.created_at;
  std::lock_guard<std::mutex> lock(mu_);
  manifest_cache_[path] = parsed;
  return std::shared_ptr<const ParsedManifest>(parsed);
}

Result<TableSnapshot> SnapshotBuilder::Build(
    const std::vector<ManifestRef>& manifests,
    const std::optional<CheckpointRef>& checkpoint) {
  // Determine the replay suffix after the checkpoint (if any).
  uint64_t base_seq = checkpoint ? checkpoint->sequence_id : 0;
  const std::string table_key =
      manifests.empty() ? std::string() : ManifestDir(manifests.back().path);

  // The table's cached snapshot serves this build if its last applied
  // manifest lies in this chain past the checkpoint; scan from the end.
  std::shared_ptr<const TableSnapshot> cached;
  size_t start = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = snapshot_cache_.find(table_key);
    if (it != snapshot_cache_.end()) {
      for (size_t i = manifests.size(); i > 0; --i) {
        const ManifestRef& ref = manifests[i - 1];
        if (ref.sequence_id <= base_seq) break;
        if (ref.path == it->second.last_manifest) {
          cached = it->second.snapshot;
          start = i;
          break;
        }
      }
    }
    if (cached) {
      ++stats_.snapshot_hits;
    } else {
      ++stats_.snapshot_misses;
    }
  }

  TableSnapshot snapshot;
  if (cached) {
    snapshot = *cached;  // copy; extended below
  } else if (checkpoint) {
    POLARIS_ASSIGN_OR_RETURN(std::string blob, store_->Get(checkpoint->path));
    POLARIS_ASSIGN_OR_RETURN(snapshot, Checkpoint::Deserialize(blob));
    if (snapshot.sequence_id() != checkpoint->sequence_id) {
      return Status::Corruption("checkpoint sequence mismatch");
    }
  }

  uint64_t last_seq = snapshot.sequence_id();
  for (size_t i = start; i < manifests.size(); ++i) {
    const ManifestRef& ref = manifests[i];
    if (ref.sequence_id <= last_seq) continue;  // covered by checkpoint/cache
    POLARIS_ASSIGN_OR_RETURN(auto parsed, LoadManifest(ref.path));
    POLARIS_RETURN_IF_ERROR(
        snapshot.Apply(parsed->entries, parsed->commit_time));
    snapshot.set_sequence_id(ref.sequence_id);
    last_seq = ref.sequence_id;
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.manifests_replayed;
    }
  }

  // A full hit (nothing left to apply) leaves the cached entry as it was;
  // any other build replaces the table's entry unless that one is newer.
  if (start < manifests.size()) {
    auto fresh = std::make_shared<const TableSnapshot>(snapshot);
    std::lock_guard<std::mutex> lock(mu_);
    CachedSnapshot& slot = snapshot_cache_[table_key];
    if (!slot.snapshot ||
        fresh->sequence_id() >= slot.snapshot->sequence_id()) {
      slot = {manifests.back().path, std::move(fresh)};
    }
  }
  return snapshot;
}

SnapshotBuilder::CacheStats SnapshotBuilder::cache_stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  CacheStats stats = stats_;
  stats.snapshots_cached = snapshot_cache_.size();
  return stats;
}

void SnapshotBuilder::ClearCache() {
  std::lock_guard<std::mutex> lock(mu_);
  manifest_cache_.clear();
  snapshot_cache_.clear();
  stats_ = CacheStats{};
}

}  // namespace polaris::lst
