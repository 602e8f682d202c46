#ifndef POLARIS_STORAGE_LOCAL_FILE_OBJECT_STORE_H_
#define POLARIS_STORAGE_LOCAL_FILE_OBJECT_STORE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "storage/object_store.h"

namespace polaris::storage {

/// ObjectStore backed by a local directory — the durable stand-in for
/// OneLake/ADLS. Slots under the FaultInjection -> Retrying decorator
/// stack exactly like MemoryObjectStore.
///
/// Layout under `root`:
///   objects/<encoded path>.blob      committed blobs (one file each)
///   staged/<encoded path>.blocks/    one file per staged block
///   tmp/                             in-flight writes (guid-named)
///
/// Every blob file is self-describing: a header carries the blob kind,
/// creation time, generation counter and the committed block table,
/// followed by the concatenated payload. Because all metadata lives in
/// the same file as the data, a single write-temp + fsync + atomic
/// rename commits content and metadata together — a reader (or a
/// recovering process) sees either the old committed state or the new
/// one, never a mixture. Path segments are percent-encoded so arbitrary
/// blob paths map onto filesystem names without collisions.
///
/// On construction, leftover `staged/` and `tmp/` entries from a crashed
/// process are swept away: uncommitted blocks are invisible by contract,
/// so discarding them is exactly the abort semantics the block-blob
/// protocol promises (paper §4.3).
///
/// In read-only mode (replicas attaching to a live primary's directory)
/// the constructor neither sweeps nor creates anything — the primary's
/// in-flight staged blocks are its own state — and every mutating
/// operation returns FailedPrecondition. Reads remain safe against a
/// concurrent primary because commits are atomic renames: a Get sees
/// either the old or the new committed file, never a mixture.
class LocalFileObjectStore : public ObjectStore {
 public:
  /// `clock` stamps created_at; if null an internal SimClock is used.
  /// Construction cannot fail — check init_status() before use.
  explicit LocalFileObjectStore(std::string root,
                                common::Clock* clock = nullptr,
                                bool read_only = false);

  /// Non-OK when the directory layout could not be created or scanned.
  const common::Status& init_status() const { return init_status_; }

  const std::string& root() const { return root_; }

  bool read_only() const { return read_only_.load(std::memory_order_acquire); }

  /// Makes a read-only store writable — the storage half of replica
  /// promotion. Creates the staged/ and tmp/ working directories (a
  /// read-only open never made them) but deliberately does NOT sweep:
  /// the fenced ex-primary's staged blocks are dead-but-harmless state
  /// (uncommitted blocks are invisible by contract) and are swept by the
  /// next full reopen. Idempotent; no-op when already writable.
  common::Status ExitReadOnly();

  /// Makes the store reject every mutating operation again — a failed
  /// promotion's way back to replica mode.
  void EnterReadOnly() { read_only_.store(true, std::memory_order_release); }

  /// Largest created_at stamp across blobs found at open time (0 when
  /// empty). A reopening engine advances its virtual clock past this so
  /// GC's created_at comparisons stay monotone across restarts.
  common::Micros max_created_at() const { return max_created_at_.load(); }

  /// Staged block files swept away by the constructor (crash leftovers).
  uint64_t swept_staged_blocks() const { return swept_staged_blocks_; }

  /// Staged (uncommitted) block files currently on disk.
  uint64_t StagedBlockCount() const;

  common::Status Put(const std::string& path, std::string data) override;
  common::Result<std::string> Get(const std::string& path) override;
  common::Result<BlobInfo> Stat(const std::string& path) override;
  common::Status Delete(const std::string& path) override;
  common::Result<std::vector<BlobInfo>> List(
      const std::string& prefix) override;

  common::Status StageBlock(const std::string& path,
                            const std::string& block_id,
                            std::string data) override;
  common::Status CommitBlockList(
      const std::string& path,
      const std::vector<std::string>& block_ids) override;
  common::Status CommitBlockListIf(const std::string& path,
                                   const std::vector<std::string>& block_ids,
                                   uint64_t expected_generation) override;
  common::Result<std::vector<std::string>> GetCommittedBlockList(
      const std::string& path) override;

 private:
  struct Header {
    bool is_block_blob = false;
    common::Micros created_at = 0;
    uint64_t generation = 0;
    // (block id, payload size) in committed order.
    std::vector<std::pair<std::string, uint64_t>> blocks;
    size_t payload_offset = 0;
    uint64_t payload_size() const;
  };

  static common::Status ParseHeader(const std::string& content,
                                    const std::string& path, Header* header);

  /// Filesystem location of the committed blob file for `path`.
  std::string ObjectFile(const std::string& path) const;
  /// Filesystem directory holding `path`'s staged blocks.
  std::string StagedDir(const std::string& path) const;

  /// Serializes header+payload, writes to tmp/, fsyncs, atomically
  /// renames over `file` and fsyncs the parent directory. `crash_point`
  /// fires between fsync and rename (temp durable, commit not).
  common::Status WriteBlobFileLocked(
      const std::string& file, const Header& header,
      const std::vector<std::string>& block_payloads,
      const char* crash_point);

  common::Status CommitBlockListLocked(
      const std::string& path, const std::vector<std::string>& block_ids,
      std::optional<uint64_t> expected_generation);

  common::Status SweepAndScan();

  mutable std::mutex mu_;
  std::string root_;
  // Atomic because promotion flips it while reader/writer threads check
  // it outside mu_.
  std::atomic<bool> read_only_{false};
  std::unique_ptr<common::SimClock> owned_clock_;
  common::Clock* clock_;
  common::Status init_status_;
  std::atomic<common::Micros> max_created_at_{0};
  uint64_t swept_staged_blocks_ = 0;
};

}  // namespace polaris::storage

#endif  // POLARIS_STORAGE_LOCAL_FILE_OBJECT_STORE_H_
