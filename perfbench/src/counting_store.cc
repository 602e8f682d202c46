#include "counting_store.h"

namespace perfbench {

using polaris::common::Result;
using polaris::common::Status;
using polaris::storage::BlobInfo;

uint64_t StoreCounts::total_bytes_written() const {
  uint64_t total = 0;
  for (uint64_t b : bytes_written) total += b;
  return total;
}

StoreCounts StoreCounts::operator-(const StoreCounts& earlier) const {
  StoreCounts d;
  for (int i = 0; i < kBlobClassCount; ++i) {
    d.bytes_written[i] = bytes_written[i] - earlier.bytes_written[i];
  }
  d.writes = writes - earlier.writes;
  return d;
}

StoreCounts CountingStore::Snapshot() const {
  StoreCounts s;
  for (int i = 0; i < kBlobClassCount; ++i) {
    s.bytes_written[i] = bytes_written_[i].load(std::memory_order_relaxed);
  }
  s.writes = writes_.load(std::memory_order_relaxed);
  return s;
}

void CountingStore::CountWrite(const std::string& path, size_t bytes) {
  bytes_written_[static_cast<int>(ClassifyBlob(path))].fetch_add(
      bytes, std::memory_order_relaxed);
}

Status CountingStore::Put(const std::string& path, std::string data) {
  const size_t bytes = data.size();
  Status st = base_->Put(path, std::move(data));
  if (st.ok()) {
    CountWrite(path, bytes);
    writes_.fetch_add(1, std::memory_order_relaxed);
  }
  return st;
}

Result<std::string> CountingStore::Get(const std::string& path) {
  return base_->Get(path);
}

Result<BlobInfo> CountingStore::Stat(const std::string& path) {
  return base_->Stat(path);
}

Status CountingStore::Delete(const std::string& path) {
  return base_->Delete(path);
}

Result<std::vector<BlobInfo>> CountingStore::List(const std::string& prefix) {
  return base_->List(prefix);
}

Status CountingStore::StageBlock(const std::string& path,
                                 const std::string& block_id,
                                 std::string data) {
  const size_t bytes = data.size();
  Status st = base_->StageBlock(path, block_id, std::move(data));
  if (st.ok()) CountWrite(path, bytes);
  return st;
}

Status CountingStore::CommitBlockList(
    const std::string& path, const std::vector<std::string>& block_ids) {
  Status st = base_->CommitBlockList(path, block_ids);
  if (st.ok()) writes_.fetch_add(1, std::memory_order_relaxed);
  return st;
}

Status CountingStore::CommitBlockListIf(
    const std::string& path, const std::vector<std::string>& block_ids,
    uint64_t expected_generation) {
  Status st = base_->CommitBlockListIf(path, block_ids, expected_generation);
  if (st.ok()) writes_.fetch_add(1, std::memory_order_relaxed);
  return st;
}

Result<std::vector<std::string>> CountingStore::GetCommittedBlockList(
    const std::string& path) {
  return base_->GetCommittedBlockList(path);
}

}  // namespace perfbench
