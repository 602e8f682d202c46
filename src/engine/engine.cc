#include "engine/engine.h"

#include <algorithm>
#include <chrono>
#include <functional>
#include <map>
#include <mutex>

#include "common/bytes.h"
#include "common/crashpoint.h"
#include "common/logging.h"
#include "common/trace_context.h"
#include "engine/system_views.h"

namespace polaris::engine {

using catalog::IsolationMode;
using catalog::TableMeta;
using common::Result;
using common::Status;
using format::RecordBatch;

namespace {
/// Aligns dependent sub-option defaults with the top-level options.
EngineOptions NormalizeOptions(EngineOptions options) {
  options.sto_options.file_options = options.file_options;
  return options;
}
}  // namespace

PolarisEngine::PolarisEngine(EngineOptions options,
                             storage::ObjectStore* store,
                             common::Clock* clock)
    : options_(NormalizeOptions(options)),
      owned_clock_(clock != nullptr
                       ? nullptr
                       : std::make_unique<common::SimClock>(1'000'000)),
      clock_(clock != nullptr ? clock : owned_clock_.get()),
      events_(clock_, options_.event_log_capacity),
      owned_store_(store != nullptr || !options_.data_dir.empty()
                       ? nullptr
                       : std::make_unique<storage::MemoryObjectStore>(clock_)),
      owned_local_store_(
          store == nullptr && !options_.data_dir.empty()
              ? std::make_unique<storage::LocalFileObjectStore>(
                    options_.data_dir, clock_,
                    /*read_only=*/options_.replica)
              : nullptr),
      fault_store_(std::make_unique<storage::FaultInjectionStore>(
          store != nullptr
              ? store
              : (owned_local_store_ != nullptr
                     ? static_cast<storage::ObjectStore*>(
                           owned_local_store_.get())
                     : owned_store_.get()),
          options_.fault_seed, clock_)),
      retry_store_(std::make_unique<storage::RetryingObjectStore>(
          fault_store_.get(), clock_, options_.storage_retry, &metrics_)),
      breaker_store_(std::make_unique<storage::CircuitBreakerStore>(
          retry_store_.get(), clock_, options_.circuit_breaker)),
      store_(breaker_store_.get()),
      admission_(options_.admission),
      catalog_(clock_),
      builder_(store_),
      cache_(store_, options_.cache_capacity),
      topology_(dcp::Topology::ReadWritePools(options_.read_pool_max_nodes,
                                              options_.write_pool_max_nodes)),
      scheduler_(&topology_, options_.worker_threads),
      txn_manager_(&catalog_, store_, &builder_, clock_,
                   options_.txn_options),
      sto_(&txn_manager_, &cache_, &scheduler_, options_.sto_options),
      query_store_(clock_, options_.query_store),
      recorder_(&metrics_, options_.metrics_history_capacity),
      watchdog_(&recorder_, &events_, &metrics_) {
  fault_store_->set_policy(options_.fault_policy);
  wait_stats_.set_enabled(options_.wait_stats_enabled);
  catalog_.store()->set_wait_stats(&wait_stats_);
  admission_.set_wait_stats(&wait_stats_);
  retry_store_->set_wait_stats(&wait_stats_);
  cache_.set_wait_stats(&wait_stats_);
  scheduler_.set_wait_stats(&wait_stats_);
  cache_.set_metrics(&metrics_);
  scheduler_.set_metrics(&metrics_);
  sto_.set_metrics(&metrics_);
  sto_.set_tracer(&tracer_);
  retry_store_->set_event_log(&events_);
  breaker_store_->set_metrics(&metrics_);
  breaker_store_->set_event_log(&events_);
  admission_.set_metrics(&metrics_);
  catalog_.store()->set_metrics(&metrics_);
  admission_.set_event_log(&events_);
  txn_manager_.set_event_log(&events_);
  sto_.set_event_log(&events_);
  views_ = std::make_unique<SystemViews>(this);
  // Crash points are process-global test machinery; the observer follows
  // the same last-engine-wins convention as Arm and is cleared on
  // destruction, turning fired points into typed events.
  common::CrashPoints::SetFireObserver([this](std::string_view point) {
    events_.Emit(obs::EventLevel::kWarn, "crash", "crashpoint.fired",
                 {{"point", std::string(point)}});
  });
  role_.store(options_.replica ? EngineRole::kReplica : EngineRole::kPrimary,
              std::memory_order_release);
  InstallDefaultSloRules();
  StartSampler();
  if (owned_local_store_ != nullptr) {
    // Persisted created_at stamps must stay in the past of the (virtual)
    // clock, or GC's created_at-vs-active-transaction comparisons would
    // misclassify old blobs as in-flight after a reopen.
    common::Micros max_seen = owned_local_store_->max_created_at();
    if (max_seen >= clock_->Now()) {
      clock_->Advance(max_seen + 1 - clock_->Now());
    }
  }
}

PolarisEngine::~PolarisEngine() {
  // Deterministic teardown ordering (DESIGN.md §12): refuse any new
  // promotion, wait out an in-flight one, then stop the background
  // threads youngest-dependency-first — heartbeat (may call Promote or
  // Fence), tailer (reads the decorators, writes the catalog), sampler.
  shutting_down_.store(true, std::memory_order_release);
  {
    // Barrier: an in-flight Promote finishes here; later ones see
    // shutting_down_ and refuse before touching any member.
    std::lock_guard<std::mutex> lifecycle(lifecycle_mu_);
  }
  StopFailoverThread();
  if (replica_tailer_ != nullptr) replica_tailer_->Stop();
  common::CrashPoints::SetFireObserver({});
  {
    std::lock_guard<std::mutex> lock(sampler_mu_);
    sampler_stop_ = true;
  }
  sampler_cv_.notify_all();
  if (sampler_thread_.joinable()) sampler_thread_.join();
}

void PolarisEngine::StartFailoverThread() {
  if (options_.failover.heartbeat_period_micros <= 0) return;
  if (lease_ == nullptr) return;
  std::lock_guard<std::mutex> lock(hb_mu_);
  if (hb_thread_.joinable() || hb_stop_ ||
      shutting_down_.load(std::memory_order_acquire)) {
    return;
  }
  hb_thread_ = std::thread([this] {
    std::unique_lock<std::mutex> lock(hb_mu_);
    while (!hb_stop_) {
      hb_cv_.wait_for(lock, std::chrono::microseconds(
                                options_.failover.heartbeat_period_micros));
      if (hb_stop_) break;
      lock.unlock();
      (void)HeartbeatOnce();
      lock.lock();
    }
  });
}

void PolarisEngine::StopFailoverThread() {
  std::thread to_join;
  {
    std::lock_guard<std::mutex> lock(hb_mu_);
    hb_stop_ = true;
    to_join = std::move(hb_thread_);
  }
  hb_cv_.notify_all();
  if (to_join.joinable()) to_join.join();
}

void PolarisEngine::StartSampler() {
  if (options_.sampler_period_micros == 0) return;
  sampler_thread_ = std::thread([this] {
    std::unique_lock<std::mutex> lock(sampler_mu_);
    while (!sampler_stop_) {
      sampler_cv_.wait_for(
          lock, std::chrono::microseconds(options_.sampler_period_micros));
      if (sampler_stop_) break;
      lock.unlock();
      SampleObservabilityOnce();
      lock.lock();
    }
  });
}

void PolarisEngine::SampleObservabilityOnce() {
  std::vector<std::pair<std::string, double>> gauges;
  gauges.emplace_back("txn.active",
                      static_cast<double>(txn_manager_.active_transactions()));
  gauges.emplace_back("sto.manifests_backlog",
                      static_cast<double>(sto_.pending_manifests_total()));
  gauges.emplace_back("tracer.dropped_spans",
                      static_cast<double>(tracer_.dropped_spans()));
  gauges.emplace_back("tracer.ring_spans",
                      static_cast<double>(tracer_.size()));
  gauges.emplace_back("cache.entries", static_cast<double>(cache_.size()));
  gauges.emplace_back("query_store.fingerprints",
                      static_cast<double>(query_store_.fingerprints()));
  {
    // Cumulative per-class wait totals as gauges: dm_metrics_history then
    // holds the series, and window deltas read as wait rates.
    common::WaitStats::Snapshot waits = wait_stats_.TakeSnapshot();
    gauges.emplace_back("waits.total_us",
                        static_cast<double>(waits.total_us()));
    for (int i = 0; i < common::kWaitClassCount; ++i) {
      if (waits.classes[i].count == 0) continue;
      gauges.emplace_back(
          "waits." +
              std::string(common::WaitClassName(
                  static_cast<common::WaitClass>(i))) +
              ".us",
          static_cast<double>(waits.classes[i].total_us));
    }
  }
  // Breaker state as a severity gauge: 0 closed, 1 half-open, 2 open —
  // ordered so above-is-bad SLO thresholds read naturally.
  double breaker_severity = 0.0;
  switch (breaker_store_->state()) {
    case storage::CircuitBreakerStore::State::kClosed:
      breaker_severity = 0.0;
      break;
    case storage::CircuitBreakerStore::State::kHalfOpen:
      breaker_severity = 1.0;
      break;
    case storage::CircuitBreakerStore::State::kOpen:
      breaker_severity = 2.0;
      break;
  }
  gauges.emplace_back("store.breaker.state", breaker_severity);
  AdmissionController::Stats admission = admission_.stats();
  gauges.emplace_back("admission.running",
                      static_cast<double>(admission.running));
  gauges.emplace_back("admission.queued",
                      static_cast<double>(admission.queued));
  if (replica_tailer_ != nullptr) {
    replica::ReplicaStatus rs = replica_tailer_->GetStatus();
    gauges.emplace_back("replica.watermark",
                        static_cast<double>(rs.watermark));
    gauges.emplace_back("replica.staleness_us",
                        static_cast<double>(rs.staleness_us));
  }
  common::Micros now = clock_->Now();
  recorder_.SampleOnce(now, gauges);
  watchdog_.Evaluate(now);
}

void PolarisEngine::InstallDefaultSloRules() {
  {
    obs::SloRule rule;
    rule.name = "storage-retry-rate";
    rule.description = "store retries per operation over the sample window";
    rule.kind = obs::SloRule::Kind::kRatio;
    rule.metric = "store.retries.total";
    rule.denominators = {"store.ops.total"};
    rule.warn_threshold = 0.1;
    rule.fail_threshold = 0.5;
    rule.min_activity = 10;
    watchdog_.AddRule(rule);
  }
  {
    obs::SloRule rule;
    rule.name = "storage-retry-exhaustion";
    rule.description =
        "operations that failed after exhausting the retry budget";
    rule.kind = obs::SloRule::Kind::kDelta;
    rule.metric = "store.exhausted.total";
    rule.warn_threshold = 0;  // any exhaustion over the window warns
    rule.fail_threshold = 5;
    watchdog_.AddRule(rule);
  }
  {
    obs::SloRule rule;
    rule.name = "journal-append-p99";
    rule.description = "catalog journal append p99 latency (us)";
    rule.kind = obs::SloRule::Kind::kGauge;
    rule.metric = "catalog.journal.append_us.p99";
    rule.warn_threshold = 100'000;
    rule.fail_threshold = 1'000'000;
    watchdog_.AddRule(rule);
  }
  {
    obs::SloRule rule;
    rule.name = "sto-checkpoint-backlog";
    rule.description = "manifests accumulated past the newest checkpoints";
    rule.kind = obs::SloRule::Kind::kGauge;
    rule.metric = "sto.manifests_backlog";
    double per = static_cast<double>(
        std::max<uint64_t>(1, options_.sto_options.manifests_per_checkpoint));
    rule.warn_threshold = per * 2;
    rule.fail_threshold = per * 5;
    watchdog_.AddRule(rule);
  }
  {
    obs::SloRule rule;
    rule.name = "cache-hit-rate";
    rule.description = "data cache hit rate floor over the sample window";
    rule.kind = obs::SloRule::Kind::kRatio;
    rule.metric = "cache.hits";
    rule.denominators = {"cache.hits", "cache.misses"};
    rule.above_is_bad = false;
    rule.warn_threshold = 0.5;
    rule.fail_threshold = 0.2;
    rule.min_activity = 20;
    watchdog_.AddRule(rule);
  }
  {
    obs::SloRule rule;
    rule.name = "storage-circuit-breaker";
    rule.description =
        "circuit breaker state (0 closed, 1 half-open, 2 open)";
    rule.kind = obs::SloRule::Kind::kGauge;
    rule.metric = "store.breaker.state";
    rule.warn_threshold = 0.5;  // half-open warns
    rule.fail_threshold = 1.5;  // open fails
    watchdog_.AddRule(rule);
  }
  {
    obs::SloRule rule;
    rule.name = "admission-shed-rate";
    rule.description = "statements shed at admission over the sample window";
    rule.kind = obs::SloRule::Kind::kDelta;
    rule.metric = "admission.shed.total";
    rule.warn_threshold = 0;  // any shedding over the window warns
    rule.fail_threshold = 100;
    watchdog_.AddRule(rule);
  }
  {
    obs::SloRule rule;
    rule.name = "query-store-latency-regression";
    rule.description =
        "worst per-fingerprint p99 vs trailing-interval baseline (ratio)";
    rule.kind = obs::SloRule::Kind::kProbe;
    rule.probe = [this](bool* has_data) {
      obs::QueryStore::Regression worst;
      if (!query_store_.WorstRegression(&worst)) {
        *has_data = false;
        return 0.0;
      }
      return worst.ratio;
    };
    rule.warn_threshold = 2.0;   // current p99 doubled vs baseline
    rule.fail_threshold = 10.0;  // order-of-magnitude regression
    watchdog_.AddRule(rule);
  }
  {
    obs::SloRule rule;
    rule.name = "wait-share";
    rule.description =
        "largest wait class's share of statement wall time over the window";
    rule.kind = obs::SloRule::Kind::kProbe;
    // Window deltas of cumulative totals, carried across evaluations. The
    // denominator is recorded statement wall time, so the rule abstains
    // when the query store is off or the window saw < 100ms of statements
    // (a share over near-zero wall time is noise, not a diagnosis).
    struct WaitShareState {
      common::WaitStats::Snapshot prev_waits;
      int64_t prev_wall_us = 0;
      bool primed = false;
    };
    auto state = std::make_shared<WaitShareState>();
    rule.probe = [this, state](bool* has_data) {
      common::WaitStats::Snapshot now = wait_stats_.TakeSnapshot();
      const int64_t wall_us = query_store_.total_wall_us();
      const bool primed = state->primed;
      int64_t worst_delta_us = 0;
      for (int i = 0; i < common::kWaitClassCount; ++i) {
        worst_delta_us = std::max(
            worst_delta_us, now.classes[i].total_us -
                                state->prev_waits.classes[i].total_us);
      }
      const int64_t wall_delta_us = wall_us - state->prev_wall_us;
      state->prev_waits = now;
      state->prev_wall_us = wall_us;
      state->primed = true;
      if (!primed || !wait_stats_.enabled() || !query_store_.enabled() ||
          wall_delta_us < 100'000) {
        *has_data = false;
        return 0.0;
      }
      return static_cast<double>(worst_delta_us) /
             static_cast<double>(wall_delta_us);
    };
    rule.warn_threshold = options_.wait_share_warn;
    rule.fail_threshold = options_.wait_share_fail;
    watchdog_.AddRule(rule);
  }
  if (options_.replica) {
    {
      obs::SloRule rule;
      rule.name = "replica-staleness";
      rule.description =
          "engine-clock micros since the replica last reached the journal "
          "tip (read-staleness upper bound)";
      rule.kind = obs::SloRule::Kind::kProbe;
      rule.probe = [this](bool* has_data) {
        // The tailer attaches after construction (AttachReplica); the
        // rule is installed first, so probe defensively.
        if (replica_tailer_ == nullptr) {
          *has_data = false;
          return 0.0;
        }
        return static_cast<double>(replica_tailer_->GetStatus().staleness_us);
      };
      rule.warn_threshold = 5e6;   // 5 s behind warns
      rule.fail_threshold = 60e6;  // a minute behind fails
      watchdog_.AddRule(rule);
    }
    {
      obs::SloRule rule;
      rule.name = "replica-tail-errors";
      rule.description = "failed tail polls over the sample window";
      rule.kind = obs::SloRule::Kind::kDelta;
      rule.metric = "replica.tail_errors";
      rule.warn_threshold = 0;  // any failed poll over the window warns
      rule.fail_threshold = 10;
      watchdog_.AddRule(rule);
    }
  }
  {
    obs::SloRule rule;
    rule.name = "lease-expiry";
    rule.description =
        "micros of validity left on the primary's epoch lease (goes "
        "negative once expired; a third of the duration left warns)";
    rule.kind = obs::SloRule::Kind::kProbe;
    // Abstains unless this node holds the lease AND a heartbeat is
    // renewing it — without a heartbeat, expiry is expected (tests that
    // advance the virtual clock freely) and not a health signal.
    rule.probe = [this](bool* has_data) {
      if (lease_ == nullptr || !lease_->held() ||
          role() != EngineRole::kPrimary ||
          options_.failover.heartbeat_period_micros <= 0) {
        *has_data = false;
        return 0.0;
      }
      return static_cast<double>(lease_->expires_at()) -
             static_cast<double>(clock_->Now());
    };
    rule.above_is_bad = false;
    rule.warn_threshold =
        static_cast<double>(options_.failover.lease_duration_micros) / 3.0;
    rule.fail_threshold = 0.0;
    watchdog_.AddRule(rule);
  }
  {
    obs::SloRule rule;
    rule.name = "tracer-drops";
    rule.description = "spans evicted from the tracer ring (truncated traces)";
    rule.kind = obs::SloRule::Kind::kDelta;
    rule.metric = "tracer.dropped_spans";
    rule.warn_threshold = 0;   // any drop over the window warns
    rule.fail_threshold = 1e12;  // drops degrade traces, never the engine
    watchdog_.AddRule(rule);
  }
}

common::Result<std::unique_ptr<PolarisEngine>> PolarisEngine::Open(
    EngineOptions options, common::Clock* clock) {
  if (options.replica && options.data_dir.empty()) {
    return Status::InvalidArgument(
        "replica mode needs a shared store: set data_dir or use OpenOn");
  }
  auto engine = std::make_unique<PolarisEngine>(options, nullptr, clock);
  if (!options.data_dir.empty()) {
    POLARIS_RETURN_IF_ERROR(engine->owned_local_store_->init_status());
    if (options.replica) {
      POLARIS_RETURN_IF_ERROR(engine->AttachReplica());
    } else {
      POLARIS_RETURN_IF_ERROR(engine->RecoverCatalog());
    }
  }
  return engine;
}

common::Result<std::unique_ptr<PolarisEngine>> PolarisEngine::OpenOn(
    EngineOptions options, storage::ObjectStore* store, common::Clock* clock) {
  if (store == nullptr) {
    return Status::InvalidArgument("OpenOn needs an external store");
  }
  options.data_dir.clear();  // the external store is the database
  auto engine = std::make_unique<PolarisEngine>(options, store, clock);
  if (options.replica) {
    POLARIS_RETURN_IF_ERROR(engine->AttachReplica());
  } else {
    POLARIS_RETURN_IF_ERROR(engine->RecoverCatalog());
  }
  return engine;
}

Status PolarisEngine::AttachReplica() {
  // Reject catalog writes at the root: even a code path that slips past
  // the engine-level CheckWritable guards cannot claim commit sequences.
  catalog_.store()->set_read_only(true);
  replica_tailer_ = std::make_unique<replica::ReplicaTailer>(
      store_, options_.journal_options, catalog_.store(), clock_, &metrics_,
      &tracer_, &events_, options_.replica_options);
  replica_tailer_->set_wait_stats(&wait_stats_);
  POLARIS_RETURN_IF_ERROR(replica_tailer_->BootstrapInitial());
  replica_tailer_->Start();
  // The replica watches (but does not claim) the primary's epoch lease:
  // the heartbeat observes expiry for supervised auto-promotion, and
  // Promote() claims the next epoch through this same object. A durable
  // replica's store stays read-only until Promote() flips it writable.
  lease_ = std::make_unique<replica::EpochLease>(
      store_, options_.journal_options.prefix + "lease", clock_,
      options_.failover);
  StartFailoverThread();
  replica::ReplicaStatus rs = replica_tailer_->GetStatus();
  events_.Emit(obs::EventLevel::kInfo, "engine", "engine.replica_attached",
               {{"data_dir", options_.data_dir},
                {"watermark", std::to_string(rs.watermark)},
                {"bootstrap_records", std::to_string(rs.bootstrap_records)},
                {"bootstrap_segments", std::to_string(rs.bootstrap_segments)}});
  POLARIS_LOG(kInfo, "engine")
      << "attached read-only replica"
      << (options_.data_dir.empty() ? "" : " at " + options_.data_dir)
      << ": watermark " << rs.watermark << ", bootstrap replayed "
      << rs.bootstrap_records << " records over " << rs.bootstrap_segments
      << " segments";
  return Status::OK();
}

Status PolarisEngine::CheckWritable(const char* op) const {
  switch (role()) {
    case EngineRole::kPrimary:
      return Status::OK();
    case EngineRole::kReplica:
      return Status::FailedPrecondition(std::string("read-only replica: ") +
                                        op + " is not allowed");
    case EngineRole::kFenced:
      return Status::FailedPrecondition(
          std::string("fenced: ") + op +
          " rejected because a newer epoch owns this database; this "
          "ex-primary serves reads only");
  }
  return Status::OK();  // unreachable
}

Status PolarisEngine::MinReadWatermark(uint64_t seq) {
  // A primary's committed sequences are visible the moment Commit
  // returns; only a replica can lag behind.
  if (replica_tailer_ == nullptr) return Status::OK();
  return replica_tailer_->WaitForCommit(seq);
}

Status PolarisEngine::RecoverCatalog() {
  journal_ = std::make_unique<catalog::CatalogJournal>(
      store_, options_.journal_options, &metrics_);
  POLARIS_ASSIGN_OR_RETURN(recovery_, journal_->Recover());
  if (recovery_.commit_seq > 0) {
    catalog_.store()->ImportSnapshot(recovery_.rows, recovery_.commit_seq);
  }
  recovery_.rows.clear();  // imported; keep only the summary
  catalog_.store()->SetCommitListener(
      [this](const std::vector<catalog::CommitRecord>& records) {
        return journal_->AppendBatch(records);
      });
  sto_.set_catalog_journal(journal_.get());
  // Claim the epoch lease before serving writes: if another node already
  // holds a newer epoch we must not come up as a second writer. The claim
  // is administrative (CAS to epoch+1, no expiry wait) — a crashed
  // primary's stale lease never blocks its own restart.
  lease_ = std::make_unique<replica::EpochLease>(
      store_, options_.journal_options.prefix + "lease", clock_,
      options_.failover);
  POLARIS_RETURN_IF_ERROR(lease_->Claim());
  metrics_.Add("failover.lease_claims");
  journal_->set_epoch(lease_->epoch());
  WireFencing();
  StartFailoverThread();
  const uint64_t swept = owned_local_store_ != nullptr
                             ? owned_local_store_->swept_staged_blocks()
                             : 0;
  events_.Emit(
      obs::EventLevel::kInfo, "engine", "engine.recovered",
      {{"data_dir", options_.data_dir},
       {"checkpoint_seq", std::to_string(recovery_.checkpoint_seq)},
       {"records_replayed", std::to_string(recovery_.records_replayed)},
       {"commit_seq", std::to_string(recovery_.commit_seq)},
       {"torn_tail", recovery_.torn_tail ? "true" : "false"},
       {"swept_staged_blocks", std::to_string(swept)}});
  POLARIS_LOG(kInfo, "engine")
      << "opened durable database"
      << (options_.data_dir.empty() ? "" : " at " + options_.data_dir)
      << ": checkpoint seq " << recovery_.checkpoint_seq << ", replayed "
      << recovery_.records_replayed << " journal records to seq "
      << recovery_.commit_seq
      << (recovery_.torn_tail ? " (dropped torn tail record)" : "")
      << ", swept " << swept << " orphaned staged blocks";
  return Status::OK();
}

void PolarisEngine::WireFencing() {
  // The guard runs at the top of every journal append, under the
  // journal's own mutex: a primary that already knows it lost the lease
  // (or let it expire unrenewed while a heartbeat was supposed to renew
  // it) refuses the batch before wasting a CAS round-trip. Expiry is only
  // enforced when a heartbeat is actually running — without one, clock
  // advances past the lease duration are routine (virtual-clock tests),
  // not evidence of a second writer.
  journal_->set_fence_guard([this]() -> Status {
    if (role() == EngineRole::kFenced) {
      return Status::FailedPrecondition(
          "fenced: this primary lost the epoch lease");
    }
    if (lease_ != nullptr && lease_->held() &&
        options_.failover.heartbeat_period_micros > 0 &&
        clock_->Now() > lease_->expires_at()) {
      return Status::FailedPrecondition(
          "fenced: epoch lease " + std::to_string(lease_->epoch()) +
          " expired unrenewed; refusing to append as a possibly "
          "superseded writer");
    }
    return Status::OK();
  });
  // The listener fires when an append loses the storage CAS — the
  // authoritative fencing signal (a promoted successor sealed our
  // segment). Called outside the journal mutex, so Fence can take the
  // engine's own locks freely.
  journal_->set_fence_listener(
      [this](const Status& why) { Fence(why.message()); });
}

void PolarisEngine::Fence(const std::string& reason) {
  // Only a primary can be fenced; replicas are already read-only and a
  // second Fence is a no-op (first reason wins).
  EngineRole expected = EngineRole::kPrimary;
  if (!role_.compare_exchange_strong(expected, EngineRole::kFenced,
                                     std::memory_order_acq_rel)) {
    return;
  }
  {
    std::lock_guard<std::mutex> lock(failover_mu_);
    fence_reason_ = reason;
  }
  if (lease_ != nullptr) lease_->Release();
  if (journal_ != nullptr) journal_->Fence();
  // Root-level write rejection: in-flight commits that already passed
  // CheckWritable die at the commit listener; new ones die here.
  catalog_.store()->set_read_only(true);
  metrics_.Add("failover.fences");
  events_.Emit(obs::EventLevel::kError, "failover", "failover.fenced",
               {{"reason", reason}});
  POLARIS_LOG(kError, "failover")
      << "fenced: " << reason << "; degrading to read-only";
}

Status PolarisEngine::HeartbeatOnce() {
  switch (role()) {
    case EngineRole::kFenced:
      return Status::FailedPrecondition("fenced: heartbeat has no lease");
    case EngineRole::kPrimary: {
      if (lease_ == nullptr) return Status::OK();  // in-memory engine
      Status st = lease_->Renew();
      if (st.ok()) {
        std::lock_guard<std::mutex> lock(failover_mu_);
        ++heartbeats_;
        metrics_.Add("failover.lease_renewals");
        return st;
      }
      if (st.IsFailedPrecondition()) {
        // Another node claimed a newer epoch out from under us. Fence
        // now rather than waiting to lose the journal CAS.
        {
          std::lock_guard<std::mutex> lock(failover_mu_);
          ++lease_losses_;
        }
        metrics_.Add("failover.lease_losses");
        Fence("lease lost: " + st.message());
        return st;
      }
      // Transient storage error. Survivable while the lease is still
      // valid, but once the clock passes expiry a successor may already
      // be writing — self-fence rather than risk a dual write.
      if (clock_->Now() > lease_->expires_at()) {
        Fence("lease expired unrenewed: " + st.message());
      }
      return st;
    }
    case EngineRole::kReplica: {
      if (lease_ == nullptr) return Status::OK();
      common::Result<replica::LeaseInfo> info = lease_->Read();
      if (!info.ok()) return info.status();
      bool expired = false;
      {
        std::lock_guard<std::mutex> lock(failover_mu_);
        ++heartbeats_;
        observed_lease_ = *info;
        expired = observed_lease_.epoch > 0 &&
                  clock_->Now() > observed_lease_.expires_at;
      }
      if (expired && options_.failover.auto_promote) {
        common::Result<PromoteResult> promoted = Promote();
        if (!promoted.ok()) return promoted.status();
      }
      return Status::OK();
    }
  }
  return Status::OK();  // unreachable
}

common::Result<PromoteResult> PolarisEngine::Promote() {
  // lifecycle_mu_ serializes promotion against itself (heartbeat
  // auto-promote racing an explicit PROMOTE) and against the destructor.
  std::lock_guard<std::mutex> lifecycle(lifecycle_mu_);
  if (shutting_down_.load(std::memory_order_acquire)) {
    return Status::Unavailable("PROMOTE: engine is shutting down");
  }
  if (role() != EngineRole::kReplica) {
    return Status::FailedPrecondition(
        "PROMOTE: only a replica can be promoted (role is " +
        std::string(role() == EngineRole::kPrimary ? "primary" : "fenced") +
        ")");
  }
  if (replica_tailer_ == nullptr || lease_ == nullptr) {
    return Status::FailedPrecondition(
        "PROMOTE: this replica has no tailer or lease to promote through");
  }
  obs::Span span(&tracer_, "failover.promote");
  const auto t0 = std::chrono::steady_clock::now();
  const uint64_t before_applied = replica_tailer_->GetStatus().records_applied;

  // 0. The lease claim and the seal are writes a durable replica's store
  //    must take while the engine is still a replica, so the store turns
  //    writable here. ExitReadOnly never sweeps, so the live primary's
  //    staged blocks survive. Any return short of a completed promotion
  //    puts the store back to read-only.
  struct ReadOnlyUnlessPromoted {
    storage::LocalFileObjectStore* store;
    bool promoted = false;
    ~ReadOnlyUnlessPromoted() {
      if (store != nullptr && !promoted) store->EnterReadOnly();
    }
  };
  if (owned_local_store_ != nullptr) {
    POLARIS_RETURN_IF_ERROR(owned_local_store_->ExitReadOnly());
  }
  ReadOnlyUnlessPromoted store_guard{owned_local_store_.get()};

  // 1. Claim epoch+1. From here on the old primary's heartbeat renewals
  //    lose their CAS and it self-fences on the next beat.
  POLARIS_RETURN_IF_ERROR(lease_->Claim());
  const uint64_t epoch = lease_->epoch();
  POLARIS_CRASH_POINT(common::crash::kPromoteClaimed);

  // 2. Stop tailing and seal the incumbent's open journal segment: its
  //    next group-commit append loses the storage CAS and it fences even
  //    if its heartbeat is wedged. The fence is in the data path, not
  //    just the control path.
  replica_tailer_->Stop();
  POLARIS_ASSIGN_OR_RETURN(
      std::string sealed,
      replica::SealNewestSegment(store_, options_.journal_options, epoch));
  POLARIS_CRASH_POINT(common::crash::kPromoteSealed);

  // 3. Drain the remaining journal tail. PollOnce still works after
  //    Stop — it only needs the poll mutex — and a successful pass means
  //    every acked commit up to the seal is applied locally.
  POLARIS_RETURN_IF_ERROR(replica_tailer_->PollOnce());
  const uint64_t watermark = replica_tailer_->watermark();
  const uint64_t tail_records =
      replica_tailer_->GetStatus().records_applied - before_applied;
  POLARIS_CRASH_POINT(common::crash::kPromoteReplayed);

  // 4. Become the writer: a fresh journal primed at the watermark (no
  //    replay — the tailer already applied everything), stamped with the
  //    new epoch, wired for fencing, and the catalog flipped writable.
  journal_ = std::make_unique<catalog::CatalogJournal>(
      store_, options_.journal_options, &metrics_);
  POLARIS_RETURN_IF_ERROR(journal_->PrimeAfterPromotion(watermark));
  journal_->set_epoch(epoch);
  WireFencing();
  catalog_.store()->SetCommitListener(
      [this](const std::vector<catalog::CommitRecord>& records) {
        return journal_->AppendBatch(records);
      });
  sto_.set_catalog_journal(journal_.get());
  catalog_.store()->set_read_only(false);
  POLARIS_CRASH_POINT(common::crash::kPromoteWritable);
  store_guard.promoted = true;
  role_.store(EngineRole::kPrimary, std::memory_order_release);
  StartFailoverThread();

  const double promote_ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                t0)
          .count();
  {
    std::lock_guard<std::mutex> lock(failover_mu_);
    ++promotions_;
    last_promote_ms_ = promote_ms;
    last_promote_tail_records_ = tail_records;
  }
  metrics_.Add("failover.promotions");
  metrics_.Observe("failover.promote_us",
                   static_cast<common::Micros>(promote_ms * 1000.0));
  events_.Emit(obs::EventLevel::kInfo, "failover", "failover.promoted",
               {{"epoch", std::to_string(epoch)},
                {"watermark", std::to_string(watermark)},
                {"tail_records", std::to_string(tail_records)},
                {"sealed_segment", sealed}});
  POLARIS_LOG(kInfo, "failover")
      << "promoted to primary at epoch " << epoch << ": watermark "
      << watermark << ", drained " << tail_records << " tail records in "
      << promote_ms << " ms"
      << (sealed.empty() ? " (no segment to seal)" : ", sealed " + sealed);
  PromoteResult result;
  result.epoch = epoch;
  result.watermark = watermark;
  result.tail_records = tail_records;
  result.promote_ms = promote_ms;
  result.sealed_segment = sealed;
  return result;
}

Status PolarisEngine::EnsureReplicaFresh(common::Micros bound_us) {
  if (bound_us <= 0) return Status::OK();
  if (role() != EngineRole::kReplica) return Status::OK();
  if (replica_tailer_ == nullptr) return Status::OK();
  return replica_tailer_->EnsureFresh(bound_us);
}

FailoverStatus PolarisEngine::GetFailoverStatus() const {
  FailoverStatus fs;
  const EngineRole r = role();
  fs.role = r == EngineRole::kPrimary
                ? "primary"
                : (r == EngineRole::kReplica ? "replica" : "fenced");
  if (lease_ != nullptr) {
    if (r == EngineRole::kReplica) {
      // Report the lease as last observed by the heartbeat (or a live
      // read when no heartbeat runs) — the replica never holds it.
      replica::LeaseInfo info;
      {
        std::lock_guard<std::mutex> lock(failover_mu_);
        info = observed_lease_;
      }
      if (info.epoch == 0) {
        common::Result<replica::LeaseInfo> live = lease_->Read();
        if (live.ok()) info = *live;
      }
      fs.epoch = info.epoch;
      fs.lease_held = false;
      fs.lease_expires_at = info.expires_at;
      fs.lease_owner = info.owner;
    } else {
      fs.epoch = lease_->epoch();
      fs.lease_held = lease_->held();
      fs.lease_expires_at = lease_->expires_at();
      fs.lease_owner = options_.failover.node_name;
      fs.lease_renewals = lease_->renewals();
    }
    fs.lease_remaining_us =
        static_cast<int64_t>(fs.lease_expires_at) -
        static_cast<int64_t>(clock_->Now());
  }
  std::lock_guard<std::mutex> lock(failover_mu_);
  fs.heartbeats = heartbeats_;
  fs.lease_losses = lease_losses_;
  fs.promotions = promotions_;
  fs.last_promote_tail_records = last_promote_tail_records_;
  fs.last_promote_ms = last_promote_ms_;
  fs.fenced = r == EngineRole::kFenced;
  fs.fence_reason = fence_reason_;
  return fs;
}

Status PolarisEngine::CheckpointCatalog() {
  POLARIS_RETURN_IF_ERROR(CheckWritable("CHECKPOINT"));
  if (journal_ == nullptr) {
    return Status::FailedPrecondition("not a durable engine");
  }
  uint64_t seq = 0;
  auto rows = catalog_.store()->ExportLatest(&seq);
  return journal_->WriteCheckpoint(seq, rows);
}

EngineStats PolarisEngine::Stats() {
  EngineStats stats;
  if (owned_store_ != nullptr) stats.store = owned_store_->stats();
  stats.cache = cache_.stats();
  stats.snapshot_cache = builder_.cache_stats();
  stats.active_transactions = txn_manager_.active_transactions();
  stats.catalog_commit_seq = catalog_.LatestCommitSeq();
  stats.catalog_live_keys = catalog_.store()->LiveKeyCount();
  auto txn = catalog_.Begin();
  auto tables = catalog_.ListTables(txn.get());
  catalog_.Abort(txn.get());
  if (tables.ok()) stats.tables = tables->size();
  stats.storage_retries = retry_store_->total_retries();
  stats.injected_faults = fault_store_->injected_failures();
  if (journal_ != nullptr) {
    stats.journal_records = journal_->records_appended();
    stats.journal_checkpoints = journal_->checkpoints_written();
  }
  if (replica_tailer_ != nullptr) {
    replica::ReplicaStatus rs = replica_tailer_->GetStatus();
    stats.replica_watermark = rs.watermark;
    stats.replica_records_applied = rs.records_applied;
  }
  return stats;
}

obs::MetricsSnapshot PolarisEngine::MetricsSnapshot() {
  obs::MetricsSnapshot snapshot = metrics_.Snapshot();
  // Counters kept outside the registry (atomics on their own subsystems)
  // are merged in so one snapshot — and sys.dm_metrics — sees everything.
  snapshot.counters["tracer.dropped_spans"] = tracer_.dropped_spans();
  snapshot.counters["tracer.ring_spans"] = tracer_.size();
  snapshot.counters["storage.injected_faults"] =
      fault_store_->injected_failures();
  snapshot.counters["events.emitted"] = events_.total_emitted();
  snapshot.counters["events.dropped"] = events_.dropped();
  snapshot.counters["storage.injected_latency_micros"] =
      fault_store_->injected_latency_micros();
  snapshot.counters["store.breaker.state"] =
      static_cast<uint64_t>(breaker_store_->state());
  AdmissionController::Stats admission = admission_.stats();
  snapshot.counters["admission.running"] = admission.running;
  snapshot.counters["admission.queued"] = admission.queued;
  snapshot.counters["query_store.recorded.total"] =
      query_store_.recorded_total();
  snapshot.counters["query_store.overflow.total"] =
      query_store_.overflow_total();
  snapshot.counters["query_store.fingerprints"] =
      query_store_.fingerprints();
  if (replica_tailer_ != nullptr) {
    snapshot.counters["replica.watermark"] = replica_tailer_->watermark();
  }
  // Wait-event totals live in their own lock-free registry; synthesizing
  // them here (rather than double-writing the metrics registry on every
  // wait) keeps the blocking paths at one atomic per class.
  common::WaitStats::Snapshot waits = wait_stats_.TakeSnapshot();
  for (int i = 0; i < common::kWaitClassCount; ++i) {
    const auto& cls = waits.classes[i];
    if (cls.count == 0) continue;
    const std::string prefix =
        "waits." + std::string(common::WaitClassName(
                       static_cast<common::WaitClass>(i)));
    snapshot.counters[prefix + ".count"] = cls.count;
    snapshot.counters[prefix + ".us"] = static_cast<uint64_t>(cls.total_us);
    snapshot.counters[prefix + ".max_us"] =
        static_cast<uint64_t>(cls.max_us);
    if (cls.signal_us > 0) {
      snapshot.counters[prefix + ".signal_us"] =
          static_cast<uint64_t>(cls.signal_us);
    }
  }
  return snapshot;
}

Result<std::unique_ptr<txn::Transaction>> PolarisEngine::Begin(
    IsolationMode mode) {
  obs::Span span(&tracer_, "engine.begin");
  return txn_manager_.Begin(mode);
}

Status PolarisEngine::Commit(txn::Transaction* txn) {
  obs::Span span(&tracer_, "engine.commit");
  std::vector<int64_t> dirty = txn->dirty_tables();
  const common::Micros commit_start = clock_->Now();
  Status st = txn_manager_.Commit(txn);
  // Commit-pipeline time is charged win or lose: a conflicting commit
  // spent real pipeline time the statement's vector should show.
  if (auto* usage = common::CurrentResourceUsage()) {
    usage->ChargeCommit(clock_->Now() - commit_start);
  }
  POLARIS_RETURN_IF_ERROR(st);
  // FE notifies STO after each commit (§5.2).
  for (int64_t table_id : dirty) sto_.OnCommit(table_id);
  return Status::OK();
}

Status PolarisEngine::Abort(txn::Transaction* txn) {
  obs::Span span(&tracer_, "engine.abort");
  return txn_manager_.Abort(txn);
}

Status PolarisEngine::KillTransaction(uint64_t txn_id) {
  return txn_manager_.Kill(txn_id);
}

Status PolarisEngine::RunInTransaction(
    const std::function<Status(txn::Transaction*)>& body, IsolationMode mode,
    int max_attempts) {
  Status last = Status::Internal("RunInTransaction: no attempts made");
  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    POLARIS_ASSIGN_OR_RETURN(auto txn, Begin(mode));
    Status st = body(txn.get());
    if (!st.ok()) {
      if (!txn->finished()) (void)Abort(txn.get());
      if (st.IsConflict()) {
        last = st;
        if (auto* usage = common::CurrentResourceUsage()) {
          usage->ChargeStatementRetry();
        }
        continue;  // optimistic retry (§3)
      }
      return st;
    }
    st = Commit(txn.get());
    if (st.ok()) return st;
    if (!st.IsConflict()) return st;
    last = st;
    if (auto* usage = common::CurrentResourceUsage()) {
      usage->ChargeStatementRetry();
    }
  }
  return last;
}

Result<TableMeta> PolarisEngine::CreateTable(const std::string& name,
                                             const format::Schema& schema,
                                             const std::string& sort_column) {
  POLARIS_RETURN_IF_ERROR(CheckWritable("CREATE TABLE"));
  TableMeta meta;
  POLARIS_RETURN_IF_ERROR(RunInTransaction([&](txn::Transaction* txn) {
    POLARIS_ASSIGN_OR_RETURN(
        meta, catalog_.CreateTable(txn->catalog_txn(), name, schema,
                                   sort_column));
    return Status::OK();
  }));
  return meta;
}

Status PolarisEngine::DropTable(const std::string& name) {
  POLARIS_RETURN_IF_ERROR(CheckWritable("DROP TABLE"));
  return RunInTransaction([&](txn::Transaction* txn) {
    return catalog_.DropTable(txn->catalog_txn(), name);
  });
}

Result<TableMeta> PolarisEngine::GetTable(const std::string& name) {
  auto txn = catalog_.Begin();
  auto meta = catalog_.GetTableByName(txn.get(), name);
  catalog_.Abort(txn.get());
  return meta;
}

exec::DmlContext PolarisEngine::MakeDmlContext(
    const TableMeta& meta, const std::string& manifest_path) {
  exec::DmlContext ctx;
  ctx.store = store_;
  ctx.cache = &cache_;
  ctx.scheduler = &scheduler_;
  ctx.pool = "write";
  ctx.table_id = meta.table_id;
  ctx.schema = meta.schema;
  ctx.manifest_path = manifest_path;
  ctx.num_cells = options_.num_cells;
  ctx.distribution_column = options_.distribution_column;
  ctx.sort_column = meta.sort_column.empty()
                        ? -1
                        : meta.schema.FindColumn(meta.sort_column);
  ctx.file_options = options_.file_options;
  ctx.cost_scale = options_.cost_scale;
  return ctx;
}

Result<uint64_t> PolarisEngine::Insert(txn::Transaction* txn,
                                       const std::string& table,
                                       const RecordBatch& rows) {
  obs::Span span(&tracer_, "engine.insert");
  if (span.active()) {
    span.AddAttr("table", table);
    span.AddAttr("rows", rows.num_rows());
  }
  POLARIS_RETURN_IF_ERROR(CheckWritable("INSERT"));
  POLARIS_RETURN_IF_ERROR(common::CheckCurrentDeadline("engine.insert"));
  POLARIS_ASSIGN_OR_RETURN(TableMeta meta,
                           catalog_.GetTableByName(txn->catalog_txn(), table));
  POLARIS_ASSIGN_OR_RETURN(std::string manifest_path,
                           txn_manager_.PrepareWrite(txn, meta.table_id));
  exec::DmlContext ctx = MakeDmlContext(meta, manifest_path);
  POLARIS_ASSIGN_OR_RETURN(exec::WriteResult result,
                           exec::InsertExecutor::Run(ctx, rows));
  POLARIS_RETURN_IF_ERROR(
      txn_manager_.FinishInsertStatement(txn, meta.table_id, result));
  return result.rows_affected;
}

Result<uint64_t> PolarisEngine::BulkLoad(
    txn::Transaction* txn, const std::string& table,
    const std::vector<RecordBatch>& sources, dcp::JobMetrics* job) {
  obs::Span span(&tracer_, "engine.bulk_load");
  if (span.active()) {
    span.AddAttr("table", table);
    span.AddAttr("sources", sources.size());
  }
  POLARIS_RETURN_IF_ERROR(CheckWritable("BULK LOAD"));
  POLARIS_RETURN_IF_ERROR(common::CheckCurrentDeadline("engine.bulk_load"));
  POLARIS_ASSIGN_OR_RETURN(TableMeta meta,
                           catalog_.GetTableByName(txn->catalog_txn(), table));
  POLARIS_ASSIGN_OR_RETURN(std::string manifest_path,
                           txn_manager_.PrepareWrite(txn, meta.table_id));
  exec::DmlContext ctx = MakeDmlContext(meta, manifest_path);
  POLARIS_ASSIGN_OR_RETURN(exec::WriteResult result,
                           exec::InsertExecutor::RunSources(ctx, sources));
  POLARIS_RETURN_IF_ERROR(
      txn_manager_.FinishInsertStatement(txn, meta.table_id, result));
  if (job != nullptr) *job = result.job;
  return result.rows_affected;
}

Result<uint64_t> PolarisEngine::Delete(txn::Transaction* txn,
                                       const std::string& table,
                                       const exec::Conjunction& filter) {
  obs::Span span(&tracer_, "engine.delete");
  if (span.active()) span.AddAttr("table", table);
  POLARIS_RETURN_IF_ERROR(CheckWritable("DELETE"));
  POLARIS_RETURN_IF_ERROR(common::CheckCurrentDeadline("engine.delete"));
  POLARIS_ASSIGN_OR_RETURN(TableMeta meta,
                           catalog_.GetTableByName(txn->catalog_txn(), table));
  POLARIS_ASSIGN_OR_RETURN(std::string manifest_path,
                           txn_manager_.PrepareWrite(txn, meta.table_id));
  POLARIS_ASSIGN_OR_RETURN(lst::TableSnapshot snapshot,
                           txn_manager_.GetSnapshot(txn, meta.table_id));
  exec::DmlContext ctx = MakeDmlContext(meta, manifest_path);
  POLARIS_ASSIGN_OR_RETURN(exec::WriteResult result,
                           exec::DeleteExecutor::Run(ctx, snapshot, filter));
  if (result.rows_affected == 0) return uint64_t{0};
  POLARIS_RETURN_IF_ERROR(
      txn_manager_.FinishMutationStatement(txn, meta.table_id, result));
  return result.rows_affected;
}

Result<uint64_t> PolarisEngine::Update(
    txn::Transaction* txn, const std::string& table,
    const exec::Conjunction& filter,
    const std::vector<exec::Assignment>& set) {
  obs::Span span(&tracer_, "engine.update");
  if (span.active()) span.AddAttr("table", table);
  POLARIS_RETURN_IF_ERROR(CheckWritable("UPDATE"));
  POLARIS_RETURN_IF_ERROR(common::CheckCurrentDeadline("engine.update"));
  POLARIS_ASSIGN_OR_RETURN(TableMeta meta,
                           catalog_.GetTableByName(txn->catalog_txn(), table));
  POLARIS_ASSIGN_OR_RETURN(std::string manifest_path,
                           txn_manager_.PrepareWrite(txn, meta.table_id));
  POLARIS_ASSIGN_OR_RETURN(lst::TableSnapshot snapshot,
                           txn_manager_.GetSnapshot(txn, meta.table_id));
  exec::DmlContext ctx = MakeDmlContext(meta, manifest_path);
  POLARIS_ASSIGN_OR_RETURN(
      exec::WriteResult result,
      exec::UpdateExecutor::Run(ctx, snapshot, filter, set));
  if (result.rows_affected == 0) return uint64_t{0};
  POLARIS_RETURN_IF_ERROR(
      txn_manager_.FinishMutationStatement(txn, meta.table_id, result));
  return result.rows_affected;
}

Result<RecordBatch> PolarisEngine::DistributedScan(
    const lst::TableSnapshot& snapshot, const TableMeta& meta,
    const QuerySpec& spec, QueryStats* stats) {
  if (stats != nullptr) stats->cache_before = cache_.stats();

  // Effective scan projection: explicit projection, or — for aggregate
  // queries — the union of group-by and aggregate input columns.
  std::vector<std::string> scan_projection = spec.projection;
  if (!spec.aggregates.empty()) {
    scan_projection = spec.group_by;
    for (const auto& agg : spec.aggregates) {
      if (agg.column.empty()) continue;
      if (std::find(scan_projection.begin(), scan_projection.end(),
                    agg.column) == scan_projection.end()) {
        scan_projection.push_back(agg.column);
      }
    }
    // COUNT(*)-only queries still need at least one physical column.
    if (scan_projection.empty() && meta.schema.num_columns() > 0) {
      scan_projection.push_back(meta.schema.column(0).name);
    }
  }
  // Typed output schema for the scan stage.
  std::vector<format::ColumnDesc> scan_descs;
  if (scan_projection.empty()) {
    scan_descs = meta.schema.columns();
  } else {
    for (const auto& name : scan_projection) {
      int idx = meta.schema.FindColumn(name);
      if (idx < 0) {
        return Status::InvalidArgument("unknown column: " + name);
      }
      scan_descs.push_back(meta.schema.column(idx));
    }
  }

  // One scan task per cell group, on the read pool.
  std::map<uint32_t, lst::TableSnapshot> groups;
  for (const auto& [path, state] : snapshot.files()) {
    (void)path;
    groups[state.info.cell_id].InsertFile(state);
  }
  struct Slot {
    RecordBatch batch;
    exec::ScanMetrics metrics;
  };
  std::vector<Slot> slots(groups.size());
  std::mutex slots_mu;
  dcp::TaskDag dag;
  size_t idx = 0;
  for (auto& [cell, group] : groups) {
    dcp::Task task;
    task.kind = "scan";
    task.cells = {cell};
    for (const auto& [path, state] : group.files()) {
      (void)path;
      task.cost.input_bytes += state.info.byte_size * options_.cost_scale;
      task.cost.rows += state.info.row_count * options_.cost_scale;
      task.cost.files_touched += 1;
    }
    const lst::TableSnapshot* group_ptr = &group;
    size_t my_slot = idx++;
    // Average declared bytes per row in this group, used to convert the
    // scan's *measured* row counts back into cost-model bytes.
    uint64_t bytes_per_row =
        task.cost.rows > 0 ? std::max<uint64_t>(
                                 task.cost.input_bytes / task.cost.rows, 1)
                           : 1;
    task.measured_cost = std::make_shared<dcp::TaskCost>(task.cost);
    auto measured = task.measured_cost;
    task.work = [this, group_ptr, &scan_projection, &spec, &slots, &slots_mu,
                 my_slot, measured,
                 bytes_per_row](const dcp::TaskContext&) -> Status {
      // The deadline rides into the worker via the thread pool's trace
      // binding; a scan task whose statement is already dead (or killed)
      // stops before touching storage.
      POLARIS_RETURN_IF_ERROR(common::CheckCurrentDeadline("scan.task"));
      exec::TableScanner scanner(&cache_, group_ptr);
      exec::ScanOptions options;
      options.projection = scan_projection;
      options.filter = spec.filter;
      exec::ScanMetrics metrics;
      POLARIS_ASSIGN_OR_RETURN(RecordBatch batch,
                               scanner.ScanAll(options, &metrics));
      // Report what the scan actually touched: row groups skipped by zone
      // maps were never read, so selective queries cost less virtual time.
      measured->rows = metrics.rows_read * options_.cost_scale;
      measured->input_bytes =
          metrics.rows_read * bytes_per_row * options_.cost_scale;
      measured->output_bytes =
          metrics.rows_output * bytes_per_row * options_.cost_scale / 4;
      measured->files_touched = static_cast<uint32_t>(metrics.files_scanned);
      std::lock_guard<std::mutex> lock(slots_mu);
      slots[my_slot] = Slot{std::move(batch), metrics};
      return Status::OK();
    };
    dag.Add(std::move(task));
  }

  POLARIS_ASSIGN_OR_RETURN(dcp::JobMetrics job,
                           scheduler_.Run(dag, "read"));

  RecordBatch all{format::Schema(scan_descs)};
  exec::ScanMetrics total_metrics;
  for (auto& slot : slots) {
    if (slot.batch.num_columns() > 0) {
      POLARIS_RETURN_IF_ERROR(all.Append(slot.batch));
    }
    total_metrics.files_scanned += slot.metrics.files_scanned;
    total_metrics.row_groups_read += slot.metrics.row_groups_read;
    total_metrics.row_groups_skipped += slot.metrics.row_groups_skipped;
    total_metrics.rows_read += slot.metrics.rows_read;
    total_metrics.rows_dv_filtered += slot.metrics.rows_dv_filtered;
    total_metrics.rows_output += slot.metrics.rows_output;
  }
  if (stats != nullptr) {
    stats->job = job;
    stats->scan = total_metrics;
    stats->cache_after = cache_.stats();
  }
  if (!spec.aggregates.empty()) {
    return exec::HashAggregate(all, spec.group_by, spec.aggregates);
  }
  return all;
}

Result<RecordBatch> PolarisEngine::Query(txn::Transaction* txn,
                                         const std::string& table,
                                         const QuerySpec& spec,
                                         QueryStats* stats) {
  obs::Span span(&tracer_, "engine.query");
  if (span.active()) span.AddAttr("table", table);
  POLARIS_RETURN_IF_ERROR(common::CheckCurrentDeadline("engine.query"));
  POLARIS_ASSIGN_OR_RETURN(TableMeta meta,
                           catalog_.GetTableByName(txn->catalog_txn(), table));
  POLARIS_ASSIGN_OR_RETURN(lst::TableSnapshot snapshot,
                           txn_manager_.GetSnapshot(txn, meta.table_id));
  return DistributedScan(snapshot, meta, spec, stats);
}

Result<RecordBatch> PolarisEngine::QueryAsOf(txn::Transaction* txn,
                                             const std::string& table,
                                             common::Micros as_of,
                                             const QuerySpec& spec,
                                             QueryStats* stats) {
  obs::Span span(&tracer_, "engine.query_as_of");
  if (span.active()) span.AddAttr("table", table);
  POLARIS_RETURN_IF_ERROR(common::CheckCurrentDeadline("engine.query_as_of"));
  POLARIS_ASSIGN_OR_RETURN(TableMeta meta,
                           catalog_.GetTableByName(txn->catalog_txn(), table));
  POLARIS_ASSIGN_OR_RETURN(
      lst::TableSnapshot snapshot,
      txn_manager_.GetSnapshotAsOf(txn, meta.table_id, as_of));
  return DistributedScan(snapshot, meta, spec, stats);
}

Result<TableMeta> PolarisEngine::CloneTable(
    const std::string& source, const std::string& dest,
    std::optional<common::Micros> as_of) {
  POLARIS_RETURN_IF_ERROR(CheckWritable("CLONE TABLE"));
  // A clone copies only the logical metadata: the dest table plus one
  // Manifests row per source manifest, re-keyed to the new table id
  // (§6.2). The same SI semantics as any transaction guarantee a
  // consistent cut of the source.
  auto txn = catalog_.Begin();
  auto src = catalog_.GetTableByName(txn.get(), source);
  if (!src.ok()) {
    catalog_.Abort(txn.get());
    return src.status();
  }
  auto records =
      as_of.has_value()
          ? catalog_.GetManifestsAsOf(txn.get(), src->table_id, *as_of)
          : catalog_.GetManifests(txn.get(), src->table_id);
  if (!records.ok()) {
    catalog_.Abort(txn.get());
    return records.status();
  }
  auto dest_meta = catalog_.CreateTable(txn.get(), dest, src->schema);
  if (!dest_meta.ok()) {
    catalog_.Abort(txn.get());
    return dest_meta.status();
  }
  std::vector<catalog::PendingManifest> pending;
  pending.reserve(records->size());
  for (const auto& record : *records) {
    pending.push_back({dest_meta->table_id, record.path});
  }
  POLARIS_RETURN_IF_ERROR(catalog_.Commit(txn.get(), pending));
  return *dest_meta;
}

Result<std::string> PolarisEngine::BackupDatabase() {
  // Zero-data-copy backup (§6.3): only the catalog rows are captured; all
  // data/metadata blobs stay where they are in the store.
  auto rows = catalog_.store()->ExportLatest();
  common::ByteWriter out;
  out.PutU32(0x504c4250);  // "PLBP"
  out.PutVarint(rows.size());
  for (const auto& [key, value] : rows) {
    out.PutString(key);
    out.PutString(value);
  }
  return out.Release();
}

Status PolarisEngine::RestoreDatabase(const std::string& image) {
  POLARIS_RETURN_IF_ERROR(CheckWritable("RESTORE"));
  if (txn_manager_.active_transactions() != 0) {
    return Status::FailedPrecondition(
        "cannot restore with active transactions");
  }
  common::ByteReader in(image);
  uint32_t magic;
  POLARIS_RETURN_IF_ERROR(in.GetU32(&magic));
  if (magic != 0x504c4250) return Status::Corruption("bad backup magic");
  uint64_t count;
  POLARIS_RETURN_IF_ERROR(in.GetVarint(&count));
  std::vector<std::pair<std::string, std::string>> rows;
  rows.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    std::string key;
    std::string value;
    POLARIS_RETURN_IF_ERROR(in.GetString(&key));
    POLARIS_RETURN_IF_ERROR(in.GetString(&value));
    rows.emplace_back(std::move(key), std::move(value));
  }
  if (!in.AtEnd()) return Status::Corruption("trailing backup bytes");
  if (journal_ != nullptr) {
    // Durable restore: the imported state supersedes the whole journal,
    // so persist it as a checkpoint at a fresh sequence *first* (if the
    // write fails, in-memory state is untouched). Replay after the next
    // reopen starts from this checkpoint; older records are skipped.
    uint64_t seq = catalog_.store()->LatestCommitSeq() + 1;
    POLARIS_RETURN_IF_ERROR(journal_->WriteCheckpoint(seq, rows));
    catalog_.store()->ImportSnapshot(rows, seq);
  } else {
    catalog_.store()->ImportSnapshot(rows);
  }
  POLARIS_LOG(kInfo, "engine") << "restored database from backup ("
                               << rows.size() << " catalog rows)";
  return Status::OK();
}

}  // namespace polaris::engine
