#ifndef POLARIS_REPLICA_REPLICA_TAILER_H_
#define POLARIS_REPLICA_REPLICA_TAILER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "catalog/journal_replayer.h"
#include "catalog/mvcc.h"
#include "common/clock.h"
#include "common/result.h"
#include "common/status.h"
#include "common/wait_stats.h"
#include "obs/event_log.h"
#include "obs/metrics.h"
#include "obs/tracer.h"
#include "storage/object_store.h"

namespace polaris::replica {

/// Knobs for a replica engine's continuous-apply loop.
struct ReplicaOptions {
  /// Wall-clock interval between background tail polls. 0 disables the
  /// background thread entirely — tests and benches then drive the loop
  /// with explicit PollOnce calls for determinism.
  int64_t poll_interval_micros = 20'000;
};

/// Point-in-time view of the tailer, surfaced by sys.dm_replica.
struct ReplicaStatus {
  std::string state;             ///< "bootstrapping" | "tailing" | "stopped"
  uint64_t watermark = 0;        ///< highest commit_seq applied (visible seq)
  uint64_t records_applied = 0;  ///< replicated records applied since open
  uint64_t segments_visited = 0;
  uint64_t polls = 0;
  uint64_t tail_errors = 0;   ///< polls that failed (excluding re-bootstraps)
  uint64_t rebootstraps = 0;  ///< checkpoint re-bootstraps after journal GC
  uint64_t bootstrap_records = 0;   ///< journal records replayed at open
  uint64_t bootstrap_segments = 0;  ///< segments scanned at open
  double bootstrap_ms = 0;          ///< wall time of the initial catch-up
  /// The newest segment currently ends in an unparsable frame (primary
  /// mid-append, or a poisoned remnant awaiting a successor segment).
  bool torn_tail_pending = false;
  /// Engine-clock micros since the replica last confirmed it was caught
  /// up with the journal tip (upper bound on read staleness).
  common::Micros staleness_us = 0;
  std::string last_error;
};

/// The replica subsystem's engine room: bootstraps the catalog from the
/// shared store's checkpoint + journal, then tails new journal records
/// into the catalog via MvccStore::ApplyReplicated, publishing a
/// monotonic apply watermark.
///
/// Tailer state machine:
///
///   BOOTSTRAPPING --BootstrapInitial--> TAILING --Stop--> STOPPED
///        ^                                 |
///        '---- checkpoint re-bootstrap ----'   (TailOnce => NotFound)
///
/// Within TAILING each poll is one JournalReplayer::TailOnce pass over
/// the cursor. Torn tails hold the cursor (same rule recovery applies:
/// an unparsable frame in the newest segment never advances anything);
/// NotFound means the primary's GC truncated the journal past the cursor
/// and triggers a diff-based re-bootstrap from the latest checkpoint —
/// existing snapshot readers keep their views because the diff is
/// installed as one ordinary replicated commit at the checkpoint's
/// sequence, not a store reset.
///
/// Thread-safe. Reads go through whatever ObjectStore it is given — the
/// engine passes its decorated stack, so retries/breaker apply for free.
class ReplicaTailer {
 public:
  /// All pointers must outlive the tailer; metrics/tracer/events may be
  /// null (standalone tests).
  ReplicaTailer(storage::ObjectStore* store,
                catalog::CatalogJournalOptions journal_options,
                catalog::MvccStore* catalog, common::Clock* clock,
                obs::MetricsRegistry* metrics, obs::Tracer* tracer,
                obs::EventLog* events, ReplicaOptions options);
  ~ReplicaTailer();

  ReplicaTailer(const ReplicaTailer&) = delete;
  ReplicaTailer& operator=(const ReplicaTailer&) = delete;

  /// Initial catch-up: checkpoint+journal replay imported into the
  /// catalog as one snapshot. Must run before the catalog serves any
  /// transaction (PolarisEngine::Open calls it before returning).
  common::Status BootstrapInitial();

  /// Starts the background poll thread (no-op when poll_interval is 0).
  void Start();

  /// Stops and joins the background thread; wakes all WaitForCommit
  /// blockers with Unavailable. Idempotent.
  void Stop();

  /// One tail pass: apply every new journal record, advance the
  /// watermark, re-bootstrap if the journal was truncated past the
  /// cursor. Safe to call concurrently with the background thread (polls
  /// serialize on an internal mutex).
  common::Status PollOnce();

  /// Highest commit sequence applied — reads at or below this are
  /// consistent with a primary snapshot at the same sequence.
  uint64_t watermark() const {
    return watermark_.load(std::memory_order_acquire);
  }

  /// Attaches the wait-event registry (may be null); WaitForCommit park
  /// time is then recorded as REPLICA_WAIT_FOR_COMMIT.
  void set_wait_stats(common::WaitStats* waits) { wait_stats_ = waits; }

  /// Blocks until the watermark reaches `seq`, honoring the ambient
  /// deadline/cancellation (SET WAIT FOR COMMIT and MinReadWatermark).
  /// Unavailable if the tailer stops while waiting.
  common::Status WaitForCommit(uint64_t seq);

  /// Staleness-bounded read gate (SET MAX_STALENESS): returns OK when the
  /// engine-clock staleness is within `bound_us`; otherwise drives one
  /// explicit PollOnce to catch up (a successful poll reaches the journal
  /// tip, resetting staleness to 0) and propagates its failure with
  /// context. Unavailable once the tailer is stopped — a stopped replica
  /// can never again bound its staleness.
  common::Status EnsureFresh(common::Micros bound_us);

  ReplicaStatus GetStatus() const;

  /// Lower bound on the record lag behind the journal: commits known to
  /// exist (from the segment listing alone, without parsing) beyond the
  /// watermark. 0 whenever the last poll drained the tail; storage
  /// errors also report 0 (the staleness_us surface carries those).
  uint64_t LagLowerBound() const;

 private:
  void PollLoop();
  /// Re-derives the catalog from the latest checkpoint after journal
  /// truncation, installing the difference against the current live
  /// state as one replicated commit. Runs under poll_mu_.
  common::Status RebootstrapLocked();
  void Publish(uint64_t seq);

  storage::ObjectStore* store_;
  catalog::CatalogJournalOptions journal_options_;
  catalog::MvccStore* catalog_;
  common::Clock* clock_;
  obs::MetricsRegistry* metrics_;
  obs::Tracer* tracer_;
  obs::EventLog* events_;
  ReplicaOptions options_;
  common::WaitStats* wait_stats_ = nullptr;
  catalog::JournalReplayer replayer_;

  /// Serializes polls (background thread vs explicit PollOnce).
  std::mutex poll_mu_;
  catalog::ReplayCursor cursor_;  // guarded by poll_mu_

  std::atomic<uint64_t> watermark_{0};
  mutable std::mutex wait_mu_;
  std::condition_variable wait_cv_;  // watermark advances + stop

  mutable std::mutex stats_mu_;
  std::string state_ = "bootstrapping";  // guarded by stats_mu_
  uint64_t records_applied_ = 0;
  uint64_t segments_visited_ = 0;
  uint64_t polls_ = 0;
  uint64_t tail_errors_ = 0;
  uint64_t rebootstraps_ = 0;
  uint64_t bootstrap_records_ = 0;
  uint64_t bootstrap_segments_ = 0;
  double bootstrap_ms_ = 0;
  bool torn_tail_pending_ = false;
  common::Micros caught_up_at_us_ = 0;  // engine clock, last tip-reaching poll
  std::string last_error_;

  std::mutex thread_mu_;
  std::thread poll_thread_;
  std::condition_variable stop_cv_;
  bool stop_requested_ = false;  // guarded by thread_mu_
  std::atomic<bool> stopped_{false};
};

}  // namespace polaris::replica

#endif  // POLARIS_REPLICA_REPLICA_TAILER_H_
