#ifndef PERFBENCH_COUNTING_STORE_H_
#define PERFBENCH_COUNTING_STORE_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "blob_class.h"
#include "storage/object_store.h"

namespace perfbench {

/// Byte and operation totals of a CountingStore at one instant.
struct StoreCounts {
  /// Bytes handed to Put/StageBlock, by the blob class of the path.
  uint64_t bytes_written[kBlobClassCount] = {};
  /// Blob-level writes: Put plus every (conditional) CommitBlockList.
  uint64_t writes = 0;

  uint64_t total_bytes_written() const;
  StoreCounts operator-(const StoreCounts& earlier) const;
};

/// Pass-through ObjectStore decorator that counts the writes flowing
/// through it.
/// It sits directly on the benchmark's MemoryObjectStore, beneath the
/// engine's own decorator stack, so it sees exactly the traffic that
/// reaches the store (retries included).
class CountingStore : public polaris::storage::ObjectStore {
 public:
  /// `base` must outlive this store.
  explicit CountingStore(polaris::storage::ObjectStore* base) : base_(base) {}

  StoreCounts Snapshot() const;

  polaris::common::Status Put(const std::string& path,
                              std::string data) override;
  polaris::common::Result<std::string> Get(const std::string& path) override;
  polaris::common::Result<polaris::storage::BlobInfo> Stat(
      const std::string& path) override;
  polaris::common::Status Delete(const std::string& path) override;
  polaris::common::Result<std::vector<polaris::storage::BlobInfo>> List(
      const std::string& prefix) override;
  polaris::common::Status StageBlock(const std::string& path,
                                     const std::string& block_id,
                                     std::string data) override;
  polaris::common::Status CommitBlockList(
      const std::string& path,
      const std::vector<std::string>& block_ids) override;
  polaris::common::Status CommitBlockListIf(
      const std::string& path, const std::vector<std::string>& block_ids,
      uint64_t expected_generation) override;
  polaris::common::Result<std::vector<std::string>> GetCommittedBlockList(
      const std::string& path) override;

 private:
  void CountWrite(const std::string& path, size_t bytes);

  polaris::storage::ObjectStore* base_;
  std::atomic<uint64_t> bytes_written_[kBlobClassCount] = {};
  std::atomic<uint64_t> writes_{0};
};

}  // namespace perfbench

#endif  // PERFBENCH_COUNTING_STORE_H_
