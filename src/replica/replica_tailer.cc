#include "replica/replica_tailer.h"

#include <algorithm>
#include <chrono>
#include <optional>
#include <utility>
#include <vector>

#include "common/deadline.h"
#include "common/logging.h"
#include "common/trace_context.h"

namespace polaris::replica {

using common::Result;
using common::Status;

namespace {

/// Difference `to - from` over two key-sorted live-row snapshots, as a
/// write set: upserts for keys added or changed, tombstones for keys
/// gone. Applying it to `from` yields exactly `to`.
std::vector<std::pair<std::string, std::optional<std::string>>> DiffRows(
    const std::vector<std::pair<std::string, std::string>>& from,
    const std::vector<std::pair<std::string, std::string>>& to) {
  std::vector<std::pair<std::string, std::optional<std::string>>> diff;
  size_t i = 0, j = 0;
  while (i < from.size() || j < to.size()) {
    if (i == from.size()) {
      diff.emplace_back(to[j].first, to[j].second);
      ++j;
    } else if (j == to.size()) {
      diff.emplace_back(from[i].first, std::nullopt);
      ++i;
    } else if (from[i].first < to[j].first) {
      diff.emplace_back(from[i].first, std::nullopt);
      ++i;
    } else if (to[j].first < from[i].first) {
      diff.emplace_back(to[j].first, to[j].second);
      ++j;
    } else {
      if (from[i].second != to[j].second) {
        diff.emplace_back(to[j].first, to[j].second);
      }
      ++i;
      ++j;
    }
  }
  return diff;
}

}  // namespace

ReplicaTailer::ReplicaTailer(storage::ObjectStore* store,
                             catalog::CatalogJournalOptions journal_options,
                             catalog::MvccStore* catalog, common::Clock* clock,
                             obs::MetricsRegistry* metrics, obs::Tracer* tracer,
                             obs::EventLog* events, ReplicaOptions options)
    : store_(store),
      journal_options_(journal_options),
      catalog_(catalog),
      clock_(clock),
      metrics_(metrics),
      tracer_(tracer),
      events_(events),
      options_(options),
      replayer_(store, std::move(journal_options)) {}

ReplicaTailer::~ReplicaTailer() { Stop(); }

Status ReplicaTailer::BootstrapInitial() {
  std::lock_guard<std::mutex> poll_lock(poll_mu_);
  const auto wall_start = std::chrono::steady_clock::now();
  POLARIS_ASSIGN_OR_RETURN(auto boot, replayer_.Bootstrap());
  // ImportSnapshot requires quiescence, which holds only here: Open has
  // not returned yet, so no reader can hold a snapshot. Later catch-ups
  // (RebootstrapLocked) must go through ApplyReplicated instead.
  if (boot.state.commit_seq > 0) {
    catalog_->ImportSnapshot(boot.state.rows, boot.state.commit_seq);
  }
  cursor_ = boot.cursor;
  Publish(boot.state.commit_seq);
  double ms = std::chrono::duration<double, std::milli>(
                  std::chrono::steady_clock::now() - wall_start)
                  .count();
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    state_ = "tailing";
    bootstrap_records_ = boot.state.records_replayed;
    bootstrap_segments_ = boot.state.segments_scanned;
    bootstrap_ms_ = ms;
    torn_tail_pending_ = boot.state.torn_tail;
    caught_up_at_us_ = clock_->Now();
  }
  if (metrics_ != nullptr) {
    metrics_->Add("replica.bootstraps");
    metrics_->Observe("replica.bootstrap_records",
                      static_cast<common::Micros>(boot.state.records_replayed));
  }
  if (events_ != nullptr) {
    events_->Emit(obs::EventLevel::kInfo, "replica", "replica.bootstrap",
                  {{"watermark", std::to_string(boot.state.commit_seq)},
                   {"checkpoint_seq", std::to_string(boot.state.checkpoint_seq)},
                   {"records", std::to_string(boot.state.records_replayed)},
                   {"segments", std::to_string(boot.state.segments_scanned)}},
                  "replica bootstrapped from checkpoint + journal");
  }
  POLARIS_LOG(kInfo, "replica")
      << "bootstrapped at watermark " << boot.state.commit_seq << " ("
      << boot.state.records_replayed << " records over "
      << boot.state.segments_scanned << " segments, " << ms << " ms)";
  return Status::OK();
}

void ReplicaTailer::Start() {
  if (options_.poll_interval_micros <= 0) return;
  std::lock_guard<std::mutex> lock(thread_mu_);
  if (poll_thread_.joinable() || stop_requested_) return;
  poll_thread_ = std::thread([this] { PollLoop(); });
}

void ReplicaTailer::PollLoop() {
  std::unique_lock<std::mutex> lk(thread_mu_);
  while (!stop_requested_) {
    stop_cv_.wait_for(
        lk, std::chrono::microseconds(options_.poll_interval_micros));
    if (stop_requested_) break;
    lk.unlock();
    // Errors are recorded in the status surface and retried next tick:
    // transient store failures must not kill the apply loop.
    (void)PollOnce();
    lk.lock();
  }
}

void ReplicaTailer::Stop() {
  {
    std::lock_guard<std::mutex> lock(thread_mu_);
    stop_requested_ = true;
  }
  stop_cv_.notify_all();
  if (poll_thread_.joinable()) poll_thread_.join();
  stopped_.store(true, std::memory_order_release);
  wait_cv_.notify_all();
  std::lock_guard<std::mutex> lock(stats_mu_);
  state_ = "stopped";
}

void ReplicaTailer::Publish(uint64_t seq) {
  if (seq <= watermark_.load(std::memory_order_relaxed)) return;
  {
    std::lock_guard<std::mutex> lock(wait_mu_);
    watermark_.store(seq, std::memory_order_release);
  }
  wait_cv_.notify_all();
}

Status ReplicaTailer::PollOnce() {
  std::lock_guard<std::mutex> poll_lock(poll_mu_);
  obs::Span span(tracer_, "replica.poll");
  const auto wall_start = std::chrono::steady_clock::now();
  auto result = replayer_.TailOnce(
      &cursor_, [this](uint64_t seq,
                       const std::vector<std::pair<
                           std::string, std::optional<std::string>>>& writes) {
        POLARIS_RETURN_IF_ERROR(catalog_->ApplyReplicated(seq, writes));
        Publish(seq);
        return Status::OK();
      });
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    polls_++;
  }
  if (metrics_ != nullptr) {
    metrics_->Add("replica.polls");
    metrics_->Observe(
        "replica.poll_us",
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - wall_start)
            .count());
  }
  if (!result.ok()) {
    if (result.status().IsNotFound()) {
      // The primary's GC truncated the journal past our cursor; the
      // missing records are only reachable through a checkpoint.
      span.AddAttr("rebootstrap", "true");
      return RebootstrapLocked();
    }
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      tail_errors_++;
      last_error_ = result.status().ToString();
    }
    if (metrics_ != nullptr) metrics_->Add("replica.tail_errors");
    if (events_ != nullptr) {
      events_->Emit(obs::EventLevel::kWarn, "replica", "replica.tail_error",
                    {{"error", result.status().ToString()}});
    }
    return result.status();
  }
  span.AddAttr("records_applied", result->records_applied);
  span.AddAttr("watermark", watermark());
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    records_applied_ += result->records_applied;
    segments_visited_ += result->segments_visited;
    torn_tail_pending_ = result->torn_tail;
    caught_up_at_us_ = clock_->Now();
  }
  if (metrics_ != nullptr && result->records_applied > 0) {
    metrics_->Add("replica.records_applied", result->records_applied);
  }
  return Status::OK();
}

Status ReplicaTailer::RebootstrapLocked() {
  const auto wall_start = std::chrono::steady_clock::now();
  auto boot_or = replayer_.Bootstrap();
  if (!boot_or.ok()) {
    std::lock_guard<std::mutex> lock(stats_mu_);
    tail_errors_++;
    last_error_ = boot_or.status().ToString();
    return boot_or.status();
  }
  auto& boot = *boot_or;
  // The catalog may already hold applied state with live snapshot
  // readers, so a store-resetting ImportSnapshot is off the table.
  // Instead the bootstrap state is installed as the *difference* against
  // the current live rows, as one ordinary replicated commit at the
  // bootstrap's sequence: readers pinned below it keep consistent views
  // through the version chains. The bootstrap sequence is always at or
  // past the watermark — GC only deletes checkpoint-covered segments, so
  // the checkpoint that replaced our missing tail is newer than it.
  auto diff = DiffRows(catalog_->ExportLatest(), boot.state.rows);
  POLARIS_RETURN_IF_ERROR(
      catalog_->ApplyReplicated(boot.state.commit_seq, diff));
  cursor_ = boot.cursor;
  Publish(boot.state.commit_seq);
  double ms = std::chrono::duration<double, std::milli>(
                  std::chrono::steady_clock::now() - wall_start)
                  .count();
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    rebootstraps_++;
    torn_tail_pending_ = boot.state.torn_tail;
    caught_up_at_us_ = clock_->Now();
  }
  if (metrics_ != nullptr) metrics_->Add("replica.rebootstraps");
  if (events_ != nullptr) {
    events_->Emit(obs::EventLevel::kWarn, "replica", "replica.rebootstrap",
                  {{"watermark", std::to_string(boot.state.commit_seq)},
                   {"diff_keys", std::to_string(diff.size())}},
                  "journal truncated past cursor; re-bootstrapped from "
                  "checkpoint");
  }
  POLARIS_LOG(kWarn, "replica")
      << "re-bootstrapped from checkpoint at watermark "
      << boot.state.commit_seq << " (" << diff.size() << " keys changed, "
      << ms << " ms)";
  return Status::OK();
}

Status ReplicaTailer::WaitForCommit(uint64_t seq) {
  // Already caught up: don't record a zero-length wait event.
  if (watermark_.load(std::memory_order_acquire) >= seq) return Status::OK();
  const common::Deadline deadline = common::CurrentDeadline();
  common::ScopedWait wait(wait_stats_,
                          common::WaitClass::kReplicaWaitForCommit);
  std::unique_lock<std::mutex> lk(wait_mu_);
  while (watermark_.load(std::memory_order_acquire) < seq) {
    if (stopped_.load(std::memory_order_acquire)) {
      return Status::Unavailable(
          "replica tailer stopped while waiting for commit " +
          std::to_string(seq));
    }
    POLARIS_RETURN_IF_ERROR(deadline.Check("replica.wait_for_commit"));
    wait_cv_.wait_for(lk, std::chrono::milliseconds(1));
    // A parked waiter does no IO, so nothing else moves a virtual engine
    // clock while it sleeps — and a SimClock-based deadline would never
    // expire. Burn the real wait slice against the clock (a no-op on
    // wall clocks), the same accounting rule the storage retry layer
    // applies to its backoff sleeps.
    if (deadline.has_deadline()) clock_->Advance(1'000);
  }
  return Status::OK();
}

Status ReplicaTailer::EnsureFresh(common::Micros bound_us) {
  auto staleness = [this]() -> common::Micros {
    std::lock_guard<std::mutex> lock(stats_mu_);
    return caught_up_at_us_ > 0 ? clock_->Now() - caught_up_at_us_ : 0;
  };
  common::Micros observed = staleness();
  if (observed <= bound_us) return Status::OK();
  if (stopped_.load(std::memory_order_acquire)) {
    return Status::Unavailable(
        "replica staleness " + std::to_string(observed) +
        "us exceeds MAX_STALENESS " + std::to_string(bound_us) +
        "us and the tailer is stopped; the bound can never be met");
  }
  // Catch up actively instead of parking: a successful poll reaches the
  // journal tip, which by definition satisfies any bound.
  Status st = PollOnce();
  if (metrics_ != nullptr) metrics_->Add("replica.staleness_catchups");
  if (!st.ok()) {
    return Status::Unavailable(
        "replica staleness " + std::to_string(observed) +
        "us exceeds MAX_STALENESS " + std::to_string(bound_us) +
        "us and catch-up failed: " + st.message());
  }
  return Status::OK();
}

uint64_t ReplicaTailer::LagLowerBound() const {
  const uint64_t watermark = watermark_.load(std::memory_order_acquire);
  auto segments = catalog::ListJournalSegmentsSince(store_, journal_options_,
                                                    watermark + 1);
  if (!segments.ok() || segments->empty()) return 0;
  // Every record in segments *before* the newest one is known committed
  // (a new segment only opens after its predecessor is sealed), so the
  // newest segment's first sequence bounds the lag from below. Records
  // inside the newest segment are uncounted — only a parse (i.e. a poll)
  // can see them.
  const uint64_t tip_floor = segments->back().first_seq;
  return tip_floor > watermark + 1 ? tip_floor - watermark - 1 : 0;
}

ReplicaStatus ReplicaTailer::GetStatus() const {
  ReplicaStatus out;
  std::lock_guard<std::mutex> lock(stats_mu_);
  out.state = state_;
  out.watermark = watermark_.load(std::memory_order_acquire);
  out.records_applied = records_applied_;
  out.segments_visited = segments_visited_;
  out.polls = polls_;
  out.tail_errors = tail_errors_;
  out.rebootstraps = rebootstraps_;
  out.bootstrap_records = bootstrap_records_;
  out.bootstrap_segments = bootstrap_segments_;
  out.bootstrap_ms = bootstrap_ms_;
  out.torn_tail_pending = torn_tail_pending_;
  out.staleness_us =
      caught_up_at_us_ > 0 ? clock_->Now() - caught_up_at_us_ : 0;
  out.last_error = last_error_;
  return out;
}

}  // namespace polaris::replica
