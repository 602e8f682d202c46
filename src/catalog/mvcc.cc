#include "catalog/mvcc.h"

#include <algorithm>
#include <chrono>
#include <string_view>
#include <unordered_set>

#include "common/crashpoint.h"
#include "common/trace_context.h"

namespace polaris::catalog {

using common::Result;
using common::Status;

namespace {

/// How many installed commits the gate keeps around (seq + written keys)
/// for serializable read re-validation. A pre-validation older than the
/// ring falls back to a full rescan of the read set.
constexpr size_t kRecentCommitCap = 256;

/// Overlays `writes` restricted to `prefix` onto the sorted (key, value)
/// vector `out`: values replace or insert, tombstones erase.
void OverlayPrefix(
    std::vector<std::pair<std::string, std::string>>* out,
    const std::map<std::string, std::optional<std::string>>& writes,
    const std::string& prefix) {
  for (auto it = writes.lower_bound(prefix); it != writes.end(); ++it) {
    if (it->first.compare(0, prefix.size(), prefix) != 0) break;
    auto pos = std::lower_bound(
        out->begin(), out->end(), it->first,
        [](const auto& pair, const std::string& key) {
          return pair.first < key;
        });
    bool exists = pos != out->end() && pos->first == it->first;
    if (it->second.has_value()) {
      if (exists) {
        pos->second = *it->second;
      } else {
        out->insert(pos, {it->first, *it->second});
      }
    } else if (exists) {
      out->erase(pos);
    }
  }
}

}  // namespace

std::string_view IsolationModeName(IsolationMode mode) {
  switch (mode) {
    case IsolationMode::kSnapshot:
      return "Snapshot";
    case IsolationMode::kReadCommittedSnapshot:
      return "ReadCommittedSnapshot";
    case IsolationMode::kSerializable:
      return "Serializable";
  }
  return "Unknown";
}

std::unique_ptr<MvccTransaction> MvccStore::Begin(IsolationMode mode) {
  std::lock_guard<std::mutex> lock(mu_);
  auto txn = std::unique_ptr<MvccTransaction>(new MvccTransaction());
  txn->id_ = next_txn_id_++;
  txn->begin_seq_ = commit_seq_;
  txn->mode_ = mode;
  return txn;
}

uint64_t MvccStore::ReadSnapshotLocked(const MvccTransaction* txn) const {
  if (txn->mode_ == IsolationMode::kReadCommittedSnapshot) {
    return commit_seq_;  // latest committed at each read
  }
  return txn->begin_seq_;
}

std::optional<std::string> MvccStore::GetAtLocked(const std::string& key,
                                                  uint64_t seq) const {
  auto it = rows_.find(key);
  if (it == rows_.end()) return std::nullopt;
  // Versions are appended in commit order; find the newest visible one.
  for (auto v = it->second.rbegin(); v != it->second.rend(); ++v) {
    if (v->created_seq <= seq) {
      if (v->deleted_seq == 0 || v->deleted_seq > seq) return v->value;
      return std::nullopt;  // newest visible version is a deleted one
    }
  }
  return std::nullopt;
}

Result<std::optional<std::string>> MvccStore::Get(MvccTransaction* txn,
                                                  const std::string& key) {
  if (txn->finished_) {
    return Status::FailedPrecondition("transaction already finished");
  }
  auto write = txn->writes_.find(key);
  if (write != txn->writes_.end()) {
    return write->second;  // own write (value or tombstone)
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (txn->mode_ == IsolationMode::kSerializable) {
    txn->read_keys_.push_back(key);
  }
  return GetAtLocked(key, ReadSnapshotLocked(txn));
}

Result<std::vector<std::pair<std::string, std::string>>> MvccStore::Scan(
    MvccTransaction* txn, const std::string& prefix) {
  if (txn->finished_) {
    return Status::FailedPrecondition("transaction already finished");
  }
  std::vector<std::pair<std::string, std::string>> out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (txn->mode_ == IsolationMode::kSerializable) {
      txn->read_prefixes_.push_back(prefix);
    }
    uint64_t seq = ReadSnapshotLocked(txn);
    for (auto it = rows_.lower_bound(prefix); it != rows_.end(); ++it) {
      if (it->first.compare(0, prefix.size(), prefix) != 0) break;
      auto value = GetAtLocked(it->first, seq);
      if (value) out.emplace_back(it->first, std::move(*value));
    }
  }
  // Overlay own writes (and drop own deletes).
  OverlayPrefix(&out, txn->writes_, prefix);
  return out;
}

Status MvccStore::Put(MvccTransaction* txn, const std::string& key,
                      std::string value) {
  if (txn->finished_) {
    return Status::FailedPrecondition("transaction already finished");
  }
  txn->writes_[key] = std::move(value);
  return Status::OK();
}

Status MvccStore::Delete(MvccTransaction* txn, const std::string& key) {
  if (txn->finished_) {
    return Status::FailedPrecondition("transaction already finished");
  }
  txn->writes_[key] = std::nullopt;
  return Status::OK();
}

std::optional<std::string> MvccStore::CommitContext::ReadLatest(
    const std::string& key) const {
  // Own writes win: hook-staged first, then the transaction's.
  auto staged = staged_.find(key);
  if (staged != staged_.end()) return staged->second;
  auto write = txn_->writes_.find(key);
  if (write != txn_->writes_.end()) return write->second;
  // Commits sequenced ahead of us but still waiting on their durability
  // batch are logically committed before us; newest wins.
  {
    std::lock_guard<std::mutex> lock(store_->commit_mu_);
    for (auto it = store_->pending_.rbegin(); it != store_->pending_.rend();
         ++it) {
      auto w = (*it)->writes.find(key);
      if (w != (*it)->writes.end()) return w->second;
    }
  }
  std::lock_guard<std::mutex> lock(store_->mu_);
  return store_->GetAtLocked(key, store_->commit_seq_);
}

std::vector<std::pair<std::string, std::string>>
MvccStore::CommitContext::ScanLatest(const std::string& prefix) const {
  std::vector<std::pair<std::string, std::string>> out;
  {
    // Installed rows and the pending queue are read in one critical
    // section: a batch installed and dequeued between two separate reads
    // would be in neither, and a hook assigning manifest sequence ids
    // would hand out an id a commit ahead of it already claimed. The
    // hook runs with commit_mu_ released, so taking it here (in the
    // commit_mu_ -> mu_ order) cannot self-deadlock.
    std::lock_guard<std::mutex> commit_lock(store_->commit_mu_);
    std::lock_guard<std::mutex> lock(store_->mu_);
    for (auto it = store_->rows_.lower_bound(prefix);
         it != store_->rows_.end(); ++it) {
      if (it->first.compare(0, prefix.size(), prefix) != 0) break;
      auto value = store_->GetAtLocked(it->first, store_->commit_seq_);
      if (value) out.emplace_back(it->first, std::move(*value));
    }
    // Overlay sequenced-but-uninstalled commits in sequence order.
    for (const auto& entry : store_->pending_) {
      OverlayPrefix(&out, entry->writes, prefix);
    }
  }
  OverlayPrefix(&out, txn_->writes_, prefix);
  OverlayPrefix(&out, staged_, prefix);
  return out;
}

void MvccStore::CommitContext::Write(const std::string& key,
                                     std::string value) {
  staged_[key] = std::move(value);
}

Status MvccStore::ValidateReadsAgainstRowsLocked(
    const MvccTransaction* txn) const {
  auto invalidated = [&](const std::string& key) {
    auto it = rows_.find(key);
    if (it == rows_.end()) return false;
    const Version& last = it->second.back();
    return last.created_seq > txn->begin_seq_ ||
           last.deleted_seq > txn->begin_seq_;
  };
  for (const auto& key : txn->read_keys_) {
    if (invalidated(key)) {
      return Status::Conflict("serializable read conflict on key: " + key);
    }
  }
  for (const auto& prefix : txn->read_prefixes_) {
    for (auto it = rows_.lower_bound(prefix); it != rows_.end(); ++it) {
      if (it->first.compare(0, prefix.size(), prefix) != 0) break;
      if (invalidated(it->first)) {
        return Status::Conflict("serializable range conflict at key: " +
                                it->first);
      }
    }
  }
  return Status::OK();
}

Status MvccStore::ValidateForSequencing(MvccTransaction* txn,
                                        uint64_t observed_seq) {
  const bool check_reads =
      txn->mode_ == IsolationMode::kSerializable &&
      (!txn->read_keys_.empty() || !txn->read_prefixes_.empty());
  // The pipeline lock guards the write-set/intent state this validation
  // reads; acquiring it contends with barrier waiters and enqueuers.
  std::unique_lock<std::mutex> plk(commit_mu_, std::defer_lock);
  {
    common::ScopedWait lock_wait(wait_stats_,
                                 common::WaitClass::kLockIntent);
    plk.lock();
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    // First-committer-wins on the write set: if any written key has a
    // version created or deleted after our snapshot, a concurrent
    // transaction got there first.
    for (const auto& [key, value] : txn->writes_) {
      (void)value;
      auto it = rows_.find(key);
      if (it == rows_.end()) continue;
      for (auto v = it->second.rbegin(); v != it->second.rend(); ++v) {
        if (v->created_seq > txn->begin_seq_ ||
            v->deleted_seq > txn->begin_seq_) {
          return Status::Conflict("write-write conflict on key: " + key);
        }
        // Versions are ordered; once we see one at/below the snapshot we
        // can stop.
        if (v->created_seq <= txn->begin_seq_) break;
      }
    }
    // The ring covers (recent_trimmed_to_, commit_seq_]; if the gate's
    // pre-validation is older than that, rescan the read set against the
    // installed store (rare: the store moved more than kRecentCommitCap
    // commits while this committer queued).
    if (check_reads && observed_seq < recent_trimmed_to_) {
      stat_revalidation_fallbacks_++;
      POLARIS_RETURN_IF_ERROR(ValidateReadsAgainstRowsLocked(txn));
      observed_seq = commit_seq_;
    }
  }
  // First-committer-wins against commits sequenced but not yet installed:
  // every pending sequence is newer than any live snapshot, so overlap is
  // a conflict outright. (A pending commit whose batch later fails makes
  // this a false positive — conservative, never unsound.)
  for (const auto& entry : pending_) {
    for (const auto& [key, value] : txn->writes_) {
      (void)value;
      if (entry->writes.count(key) != 0) {
        return Status::Conflict("write-write conflict on key: " + key);
      }
    }
  }
  if (check_reads) {
    std::unordered_set<std::string_view> read_keys(txn->read_keys_.begin(),
                                                   txn->read_keys_.end());
    auto touches = [&](const std::string& key) {
      if (read_keys.count(key) != 0) return true;
      for (const auto& prefix : txn->read_prefixes_) {
        if (key.compare(0, prefix.size(), prefix) == 0) return true;
      }
      return false;
    };
    // Installed after the pre-validation observed the store...
    for (auto it = recent_commits_.rbegin();
         it != recent_commits_.rend() && it->first > observed_seq; ++it) {
      for (const auto& key : it->second) {
        if (touches(key)) {
          return Status::Conflict("serializable read conflict on key: " + key);
        }
      }
    }
    // ...or sequenced and still queued for durability.
    for (const auto& entry : pending_) {
      for (const auto& [key, value] : entry->writes) {
        (void)value;
        if (touches(key)) {
          return Status::Conflict("serializable read conflict on key: " + key);
        }
      }
    }
  }
  return Status::OK();
}

void MvccStore::FlushRoundLocked(std::unique_lock<std::mutex>& lk) {
  flush_in_progress_ = true;
  std::vector<std::shared_ptr<CommitEntry>> batch;
  batch.swap(queue_);
  const CommitListener& listener = commit_listener_;
  lk.unlock();

  const auto wall_start = std::chrono::steady_clock::now();
  Status st = Status::OK();
  if (common::CrashPoints::Fire(common::crash::kCommitBatchFormed)) {
    // Crash before the durability point: nothing in this batch reached
    // the journal, so recovery must not observe any of it.
    st = Status::Internal(std::string("crash point fired: ") +
                          common::crash::kCommitBatchFormed);
  }
  bool durable = false;
  if (st.ok()) {
    if (listener) {
      // The batch's durability must not ride one member's statement
      // budget: the leader flushes under a neutral deadline, and a
      // cancelled member detaches at the barrier instead of cancelling
      // the shared append.
      common::ScopedWait io_wait(wait_stats_, common::WaitClass::kStoreIo);
      common::ScopedDeadline neutral{common::Deadline()};
      std::vector<CommitRecord> records;
      records.reserve(batch.size());
      for (const auto& entry : batch) {
        records.push_back({entry->seq, &entry->writes});
      }
      st = listener(records);
    }
    durable = st.ok();
  }
  bool installed = false;
  if (durable && common::CrashPoints::Fire(common::crash::kCommitBatchAppended)) {
    // The batch IS durable but the process dies before install: the
    // in-memory catalog is now behind the journal, so the pipeline fails
    // closed (reopen recovers the batch from the journal).
    st = Status::Internal(std::string("crash point fired: ") +
                          common::crash::kCommitBatchAppended);
  } else if (durable) {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& entry : batch) {
      for (const auto& [key, value] : entry->writes) {
        auto& chain = rows_[key];
        if (!chain.empty() && chain.back().deleted_seq == 0) {
          chain.back().deleted_seq = entry->seq;
        }
        if (value.has_value()) {
          Version v;
          v.value = *value;
          v.created_seq = entry->seq;
          chain.push_back(std::move(v));
        } else if (chain.empty()) {
          rows_.erase(key);  // delete of a never-existing key: no-op
        }
      }
      commit_seq_ = entry->seq;
    }
    installed = true;
    if (common::CrashPoints::Fire(common::crash::kCommitBatchInstalled)) {
      // Durable AND installed; only the acknowledgement is lost — the
      // classic lost-ack outcome, reported as an error to every waiter.
      st = Status::Internal(std::string("crash point fired: ") +
                            common::crash::kCommitBatchInstalled);
    }
  }
  if (metrics_ != nullptr) {
    metrics_->Add("catalog.commit.batches");
    metrics_->Observe("catalog.commit.batch_records",
                      static_cast<int64_t>(batch.size()));
    metrics_->Observe(
        "catalog.commit.flush_us",
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - wall_start)
            .count());
    if (installed) {
      metrics_->Add("catalog.commit.committed", batch.size());
    }
  }

  lk.lock();
  if (durable && !installed) pipeline_poisoned_ = true;
  const int64_t done_at_us =
      wait_stats_ != nullptr ? common::WaitStats::NowMicros() : 0;
  for (const auto& entry : batch) {
    pending_.erase(std::remove(pending_.begin(), pending_.end(), entry),
                   pending_.end());
    if (installed) {
      std::vector<std::string> keys;
      keys.reserve(entry->writes.size());
      for (const auto& [key, value] : entry->writes) {
        (void)value;
        keys.push_back(key);
      }
      recent_commits_.emplace_back(entry->seq, std::move(keys));
    }
    entry->status = st;
    entry->done_at_us = done_at_us;
    entry->done = true;
  }
  while (recent_commits_.size() > kRecentCommitCap) {
    recent_trimmed_to_ = recent_commits_.front().first;
    recent_commits_.pop_front();
  }
  stat_batches_++;
  stat_batch_records_ += batch.size();
  stat_max_batch_ = std::max<uint64_t>(stat_max_batch_, batch.size());
  if (installed) {
    stat_commits_ += batch.size();
  } else {
    stat_flush_failures_++;
  }
  flush_in_progress_ = false;
  flush_cv_.notify_all();
}

Status MvccStore::Commit(MvccTransaction* txn, const CommitHook& hook) {
  if (txn->finished_) {
    return Status::FailedPrecondition("transaction already finished");
  }
  if (read_only_.load(std::memory_order_relaxed)) {
    // Replica: read-only commits finish without claiming a commit
    // sequence — the replicated journal stream owns the sequence space,
    // and a locally claimed sequence would collide with it. Anything
    // that stages a write is rejected; the hook still runs (CatalogDb
    // always passes one, and with nothing pending it stages nothing).
    txn->finished_ = true;
    if (!txn->writes_.empty()) {
      return Status::FailedPrecondition(
          "read-only replica: catalog writes are not allowed");
    }
    CommitContext ctx(this, txn, 0);
    if (hook) POLARIS_RETURN_IF_ERROR(hook(&ctx));
    if (!ctx.staged_.empty()) {
      return Status::FailedPrecondition(
          "read-only replica: catalog writes are not allowed");
    }
    return Status::OK();
  }
  // Benchmark baseline: one lock across the whole commit, IO included.
  std::unique_lock<std::mutex> serial_lk;
  if (serial_commit_.load(std::memory_order_relaxed)) {
    common::ScopedWait gate_wait(wait_stats_,
                                 common::WaitClass::kCommitGate);
    serial_lk = std::unique_lock<std::mutex>(serial_gate_);
  }
  const common::Deadline deadline = common::CurrentDeadline();
  if (deadline.bounded()) {
    // A commit whose budget is already spent must not enter the gate at
    // all: fail fast instead of occupying a sequencing slot it would only
    // detach from.
    Status early = deadline.Check("catalog.commit");
    if (!early.ok()) {
      txn->finished_ = true;
      return early;
    }
  }

  // --- Pre-validation (outside the gate) ----------------------------------
  // Serializable read sets can be arbitrarily wide (prefix scans), so the
  // O(matching rows) walk happens here against the installed store; the
  // gate then re-validates only what changed after `observed_seq`, using
  // the recent-commit ring and the pending queue.
  uint64_t observed_seq = 0;
  if (txn->mode_ == IsolationMode::kSerializable &&
      (!txn->read_keys_.empty() || !txn->read_prefixes_.empty())) {
    Status preval;
    {
      std::lock_guard<std::mutex> lock(mu_);
      observed_seq = commit_seq_;
      preval = ValidateReadsAgainstRowsLocked(txn);
    }
    if (!preval.ok()) {
      // Lock order is commit_mu_ -> mu_, so mu_ must drop before the
      // counter update takes commit_mu_.
      txn->finished_ = true;
      std::lock_guard<std::mutex> plk(commit_mu_);
      stat_conflicts_++;
      return preval;
    }
    stat_prevalidated_.fetch_add(1, std::memory_order_relaxed);
  }

  // --- Sequencing gate: priority-ordered admission ------------------------
  std::unique_lock<std::mutex> lk(commit_mu_, std::defer_lock);
  {
    common::ScopedWait gate_wait(wait_stats_,
                                 common::WaitClass::kCommitGate);
    lk.lock();
    const auto me = std::pair<int, uint64_t>(
        -static_cast<int>(txn->priority_), ++gate_ticket_);
    gate_waiters_.insert(me);
    while (sequencing_ || *gate_waiters_.begin() != me) {
      if (deadline.bounded()) {
        gate_cv_.wait_for(lk, std::chrono::milliseconds(1));
        if (!sequencing_ && *gate_waiters_.begin() == me) break;
        Status st = deadline.Check("catalog.commit.sequence");
        if (!st.ok()) {
          gate_waiters_.erase(me);
          gate_cv_.notify_all();
          txn->finished_ = true;
          return st;
        }
      } else {
        gate_cv_.wait(lk);
      }
    }
    gate_waiters_.erase(me);
  }
  if (pipeline_poisoned_) {
    gate_cv_.notify_all();
    txn->finished_ = true;
    return Status::Internal(
        "commit pipeline failed closed after a partial group commit; "
        "reopen the database to recover");
  }
  sequencing_ = true;
  lk.unlock();

  // --- Sequencing critical section (exclusive, no IO) ---------------------
  // Other committers may queue at the gate (by priority) while this runs;
  // the durability flush of earlier batches proceeds concurrently.
  Status st = ValidateForSequencing(txn, observed_seq);
  const uint64_t seq = sequenced_seq_ + 1;
  CommitContext ctx(this, txn, seq);
  if (st.ok() && hook) st = hook(&ctx);
  if (!st.ok()) {
    // Validation or hook failure: the sequence is not consumed.
    lk.lock();
    if (st.IsConflict()) stat_conflicts_++;
    sequencing_ = false;
    gate_cv_.notify_all();
    lk.unlock();
    txn->finished_ = true;
    return st;
  }

  // --- Sequence allocation + enqueue --------------------------------------
  lk.lock();
  // Merge hook-staged writes into the commit's effective write set only
  // now: the transaction's own write set stays clean if the durability
  // point is never reached.
  auto entry = std::make_shared<CommitEntry>();
  entry->seq = seq;
  entry->writes = txn->writes_;
  for (auto& [key, value] : ctx.staged_) {
    entry->writes[key] = std::move(value);
  }
  sequenced_seq_ = seq;
  queue_.push_back(entry);
  pending_.push_back(entry);
  if (txn->priority_ == CommitPriority::kHigh) stat_high_priority_++;
  sequencing_ = false;
  gate_cv_.notify_all();

  // --- Group-commit barrier -----------------------------------------------
  {
    // The whole barrier section is COMMIT_BARRIER time; the leader's
    // journal append inside FlushRoundLocked is a nested STORE_IO wait,
    // so barrier self-time excludes it (the classes partition).
    common::ScopedWait barrier_wait(wait_stats_,
                                    common::WaitClass::kCommitBarrier);
    while (!entry->done) {
      if (!flush_in_progress_) {
        FlushRoundLocked(lk);  // leader: flush everything queued, us included
        continue;
      }
      if (deadline.bounded()) {
        flush_cv_.wait_for(lk, std::chrono::milliseconds(1));
        if (entry->done) break;
        Status dst = deadline.Check("catalog.commit.flush-wait");
        if (!dst.ok()) {
          // Detach without stalling the batch: the leader still resolves
          // the entry, so the commit's outcome is in doubt (it may land).
          entry->detached = true;
          stat_waiters_detached_++;
          if (metrics_ != nullptr) {
            metrics_->Add("catalog.commit.waiters_detached");
          }
          txn->finished_ = true;
          return dst;
        }
      } else {
        flush_cv_.wait(lk);
      }
    }
    // Signal-vs-resource split: the entry was resolved at done_at_us; any
    // time past that is wake latency, not work the waiter was blocked on.
    if (wait_stats_ != nullptr && wait_stats_->enabled() &&
        entry->done_at_us != 0) {
      wait_stats_->RecordSignal(
          common::WaitClass::kCommitBarrier,
          common::WaitStats::NowMicros() - entry->done_at_us);
    }
  }
  // If the queue holds only entries whose waiters detached, drain them
  // now rather than leaving them for the next committer.
  if (!flush_in_progress_ && !queue_.empty()) {
    bool orphans_only = true;
    for (const auto& e : queue_) {
      if (!e->detached) {
        orphans_only = false;
        break;
      }
    }
    if (orphans_only) FlushRoundLocked(lk);
  }
  txn->finished_ = true;
  if (entry->status.ok()) txn->commit_seq_ = entry->seq;
  return entry->status;
}

Status MvccStore::ApplyReplicated(
    uint64_t commit_seq,
    const std::vector<std::pair<std::string, std::optional<std::string>>>&
        writes) {
  std::lock_guard<std::mutex> plk(commit_mu_);
  std::lock_guard<std::mutex> lock(mu_);
  // Idempotence: a tail pass re-reading records below the watermark
  // (after a re-bootstrap, or a diff applied at a sequence the cursor
  // already passed) must be a no-op.
  if (commit_seq <= commit_seq_) return Status::OK();
  std::vector<std::string> keys;
  keys.reserve(writes.size());
  for (const auto& [key, value] : writes) {
    auto& chain = rows_[key];
    if (!chain.empty() && chain.back().deleted_seq == 0) {
      chain.back().deleted_seq = commit_seq;
    }
    if (value.has_value()) {
      Version v;
      v.value = *value;
      v.created_seq = commit_seq;
      chain.push_back(std::move(v));
    } else if (chain.empty()) {
      rows_.erase(key);  // delete of a never-existing key: no-op
    }
    keys.push_back(key);
  }
  // Version chains grew exactly as a local install would have grown
  // them, so snapshot readers pinned below `commit_seq` are unaffected.
  commit_seq_ = commit_seq;
  sequenced_seq_ = commit_seq;
  recent_commits_.emplace_back(commit_seq, std::move(keys));
  while (recent_commits_.size() > kRecentCommitCap) {
    recent_trimmed_to_ = recent_commits_.front().first;
    recent_commits_.pop_front();
  }
  return Status::OK();
}

void MvccStore::Abort(MvccTransaction* txn) {
  txn->writes_.clear();
  txn->finished_ = true;
}

uint64_t MvccStore::LatestCommitSeq() const {
  std::lock_guard<std::mutex> lock(mu_);
  return commit_seq_;
}

MvccStore::CommitPipelineStats MvccStore::PipelineStats() const {
  std::lock_guard<std::mutex> lock(commit_mu_);
  CommitPipelineStats stats;
  stats.commits = stat_commits_;
  stats.conflicts = stat_conflicts_;
  stats.batches = stat_batches_;
  stats.batch_records = stat_batch_records_;
  stats.max_batch = stat_max_batch_;
  stats.flush_failures = stat_flush_failures_;
  stats.waiters_detached = stat_waiters_detached_;
  stats.high_priority = stat_high_priority_;
  stats.prevalidated = stat_prevalidated_.load(std::memory_order_relaxed);
  stats.revalidation_fallbacks = stat_revalidation_fallbacks_;
  stats.gate_waiters = gate_waiters_.size();
  stats.pending = pending_.size();
  return stats;
}

uint64_t MvccStore::Vacuum(uint64_t horizon_seq) {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t removed = 0;
  for (auto it = rows_.begin(); it != rows_.end();) {
    auto& chain = it->second;
    size_t before = chain.size();
    chain.erase(std::remove_if(chain.begin(), chain.end(),
                               [&](const Version& v) {
                                 return v.deleted_seq != 0 &&
                                        v.deleted_seq <= horizon_seq;
                               }),
                chain.end());
    removed += before - chain.size();
    if (chain.empty()) {
      it = rows_.erase(it);
    } else {
      ++it;
    }
  }
  return removed;
}

std::vector<std::pair<std::string, std::string>> MvccStore::ExportLatest(
    uint64_t* commit_seq_out) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (commit_seq_out != nullptr) *commit_seq_out = commit_seq_;
  std::vector<std::pair<std::string, std::string>> out;
  for (const auto& [key, chain] : rows_) {
    if (!chain.empty() && chain.back().deleted_seq == 0) {
      out.emplace_back(key, chain.back().value);
    }
  }
  return out;
}

void MvccStore::ImportSnapshot(
    const std::vector<std::pair<std::string, std::string>>& rows,
    uint64_t commit_seq) {
  std::lock_guard<std::mutex> commit_lock(commit_mu_);
  std::lock_guard<std::mutex> lock(mu_);
  rows_.clear();
  for (const auto& [key, value] : rows) {
    Version v;
    v.value = value;
    v.created_seq = commit_seq;
    rows_[key].push_back(std::move(v));
  }
  commit_seq_ = commit_seq;
  // Reset the commit pipeline: the caller guarantees quiescence, so no
  // sequenced-but-uninstalled commit can exist.
  sequenced_seq_ = commit_seq;
  queue_.clear();
  pending_.clear();
  recent_commits_.clear();
  recent_trimmed_to_ = commit_seq;
  pipeline_poisoned_ = false;
}

uint64_t MvccStore::LiveKeyCount() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t n = 0;
  for (const auto& [key, chain] : rows_) {
    (void)key;
    if (!chain.empty() && chain.back().deleted_seq == 0) ++n;
  }
  return n;
}

}  // namespace polaris::catalog
