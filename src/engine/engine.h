#ifndef POLARIS_ENGINE_ENGINE_H_
#define POLARIS_ENGINE_ENGINE_H_

#include <condition_variable>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "catalog/catalog_db.h"
#include "catalog/catalog_journal.h"
#include "common/clock.h"
#include "common/deadline.h"
#include "common/result.h"
#include "common/wait_stats.h"
#include "dcp/scheduler.h"
#include "engine/admission.h"
#include "exec/aggregate.h"
#include "exec/data_cache.h"
#include "exec/dml.h"
#include "exec/expression.h"
#include "exec/scan.h"
#include "format/column.h"
#include "lst/snapshot_builder.h"
#include "obs/event_log.h"
#include "obs/metrics.h"
#include "obs/query_store.h"
#include "obs/time_series.h"
#include "obs/tracer.h"
#include "replica/failover.h"
#include "replica/replica_tailer.h"
#include "sto/sto.h"
#include "storage/circuit_breaker_store.h"
#include "storage/fault_injection_store.h"
#include "storage/local_file_object_store.h"
#include "storage/memory_object_store.h"
#include "storage/retrying_object_store.h"
#include "txn/transaction_manager.h"

namespace polaris::engine {

class SystemViews;

/// Configuration of a Polaris engine instance.
struct EngineOptions {
  /// Distribution bucket count per table (the d(r) dimension, §2.3).
  uint32_t num_cells = 16;
  /// Column index whose hash distributes rows; -1 = round-robin.
  int distribution_column = 0;
  format::FileWriterOptions file_options;
  txn::TransactionManagerOptions txn_options;
  sto::StoOptions sto_options;
  /// Elastic caps for the WLM pools (0 = unbounded).
  uint32_t read_pool_max_nodes = 0;
  uint32_t write_pool_max_nodes = 0;
  size_t cache_capacity = 4096;
  /// Real worker threads backing the DCP.
  size_t worker_threads = 4;
  /// Virtual-cost multiplier for scaled-down benchmark reproductions
  /// (see exec::DmlContext::cost_scale).
  uint64_t cost_scale = 1;
  /// Fault injection applied between the base store and the retry layer
  /// (the engine always composes base -> FaultInjectionStore ->
  /// RetryingObjectStore; a zero-probability policy is a pass-through).
  storage::FaultPolicy fault_policy;
  uint64_t fault_seed = 42;
  /// Backoff/budget for the storage retry layer.
  storage::RetryPolicy storage_retry;
  /// Circuit breaker on top of the retry layer. `failure_threshold == 0`
  /// leaves the decorator in pass-through mode (default), preserving the
  /// retry-until-exhausted behavior; set a threshold to trip open after
  /// that many consecutive post-retry storage failures.
  storage::CircuitBreakerOptions circuit_breaker{/*failure_threshold=*/0};
  /// Statement admission control (max_concurrent == 0 disables it).
  AdmissionOptions admission;
  /// When non-empty, the engine is durable: blobs live in a
  /// LocalFileObjectStore rooted at this directory and every catalog
  /// commit is journaled there. Use PolarisEngine::Open to construct a
  /// durable engine — it recovers any existing state on reopen.
  std::string data_dir;
  /// Segment/checkpoint cadence for the catalog journal (durable mode).
  catalog::CatalogJournalOptions journal_options;
  /// Period of the background observability sampler thread that feeds
  /// sys.dm_metrics_history and the health watchdog (real time; the
  /// engine's virtual clock only stamps the samples). 0 disables the
  /// thread — tests drive SampleObservabilityOnce() deterministically.
  common::Micros sampler_period_micros = 1'000'000;
  /// Bounded ring capacities for the structured event log and the
  /// per-metric time-series rings.
  size_t event_log_capacity = 4096;
  size_t metrics_history_capacity = 512;
  /// The per-fingerprint workload repository behind sys.query_store
  /// (enabled by default; see obs::QueryStoreOptions).
  obs::QueryStoreOptions query_store;
  /// Wait-event accounting behind sys.dm_wait_stats and the per-statement
  /// wait breakdown. Enabled by default; the < 5% overhead budget is
  /// asserted by bench/micro_txn_contention's A/B gate.
  bool wait_stats_enabled = true;
  /// Watchdog thresholds for the wait-share rule: the largest single wait
  /// class's share of statement wall time over the sample window. A share
  /// past warn means statements mostly wait on one resource (the taxonomy
  /// table in DESIGN.md maps each class to its relieving knob).
  double wait_share_warn = 0.6;
  double wait_share_fail = 0.95;
  /// Opens the database as a read-only replica: the same `data_dir` (or
  /// externally provided store, see PolarisEngine::OpenOn) is attached
  /// read-only, the catalog is bootstrapped from the latest checkpoint +
  /// journal, and a background tailer continuously applies the primary's
  /// journal records. All DML/DDL returns FailedPrecondition; reads are
  /// snapshot-isolated at the replica's apply watermark.
  bool replica = false;
  /// Tailer knobs (poll cadence); replica mode only.
  replica::ReplicaOptions replica_options;
  /// Epoch-lease fencing and promotion knobs (DESIGN.md §12). A durable
  /// primary always claims the lease at open; the background heartbeat
  /// (and with it self-fencing on mere expiry) is off unless
  /// failover.heartbeat_period_micros is set.
  replica::FailoverOptions failover;
};

/// The engine's failover role. A primary that loses its epoch lease (or
/// whose journal append loses its CAS) degrades to kFenced: it keeps
/// serving reads but rejects every write with FailedPrecondition. A
/// replica becomes kPrimary via Promote().
enum class EngineRole { kPrimary, kReplica, kFenced };

/// What a successful Promote() did (sys.dm_failover keeps the last one).
struct PromoteResult {
  uint64_t epoch = 0;      ///< the claimed epoch now stamped on appends
  uint64_t watermark = 0;  ///< commit sequence the new primary starts from
  uint64_t tail_records = 0;  ///< journal records drained during promotion
  double promote_ms = 0;      ///< wall time of the whole promotion
  std::string sealed_segment;  ///< predecessor segment sealed ("" if none)
};

/// Point-in-time failover/lease state, surfaced by sys.dm_failover.
struct FailoverStatus {
  std::string role;  ///< "primary" | "replica" | "fenced"
  uint64_t epoch = 0;
  bool lease_held = false;
  common::Micros lease_expires_at = 0;
  int64_t lease_remaining_us = 0;  ///< negative once expired
  std::string lease_owner;         ///< observed holder (replicas)
  uint64_t lease_renewals = 0;
  uint64_t heartbeats = 0;
  uint64_t lease_losses = 0;
  uint64_t promotions = 0;
  uint64_t last_promote_tail_records = 0;
  double last_promote_ms = 0;
  bool fenced = false;
  std::string fence_reason;
};

/// A query: projection + filter, optionally grouped aggregation. This is
/// the programmatic equivalent of the T-SQL surface: SELECT <projection |
/// aggregates> FROM t WHERE <filter> GROUP BY <group_by>.
struct QuerySpec {
  std::vector<std::string> projection;
  exec::Conjunction filter;
  std::vector<std::string> group_by;
  std::vector<exec::AggSpec> aggregates;
};

/// Per-query observability for the benchmark harness.
struct QueryStats {
  dcp::JobMetrics job;
  exec::ScanMetrics scan;
  exec::DataCache::Stats cache_before;
  exec::DataCache::Stats cache_after;
};

/// Point-in-time aggregate counters across all subsystems — what an
/// operations dashboard for the engine would poll.
struct EngineStats {
  /// Object-store traffic (only available when the engine owns its
  /// MemoryObjectStore; zeroed for externally provided stores).
  storage::StoreStats store;
  exec::DataCache::Stats cache;
  lst::SnapshotBuilder::CacheStats snapshot_cache;
  uint64_t active_transactions = 0;
  uint64_t catalog_commit_seq = 0;
  uint64_t catalog_live_keys = 0;
  uint64_t tables = 0;
  /// Storage-resilience counters (the decorator stack).
  uint64_t storage_retries = 0;
  uint64_t injected_faults = 0;
  /// Durability counters (zero for in-memory engines).
  uint64_t journal_records = 0;
  uint64_t journal_checkpoints = 0;
  /// Replica counters (zero on primaries).
  uint64_t replica_watermark = 0;
  uint64_t replica_records_applied = 0;
};

/// The public facade over the whole system: storage engine, catalog, DCP,
/// transaction manager and STO wired together. One instance == one Fabric
/// DW database.
///
/// All DML/query methods take an explicit transaction. `AutoCommit`
/// convenience wrappers run single-statement transactions with retries on
/// conflict, the way the FE retries user transactions (§3).
class PolarisEngine {
 public:
  /// Creates an engine. If `store`/`clock` are null the engine owns a
  /// MemoryObjectStore / SimClock (virtual time starting at 1s).
  explicit PolarisEngine(EngineOptions options = {},
                         storage::ObjectStore* store = nullptr,
                         common::Clock* clock = nullptr);

  /// Opens a database. For in-memory options this is equivalent to the
  /// constructor; when `options.data_dir` is set it opens (or creates)
  /// the durable database there — loading the latest catalog checkpoint,
  /// replaying the journal tail (a torn final record is dropped), and
  /// wiring every future catalog commit through the journal. Committed
  /// snapshots are readable immediately after Open; staged blobs of
  /// transactions that never committed are invisible and reclaimed.
  static common::Result<std::unique_ptr<PolarisEngine>> Open(
      EngineOptions options = {}, common::Clock* clock = nullptr);

  /// Opens a database on an externally provided object store (tests and
  /// benches sharing one store between a primary and its replicas). With
  /// `options.replica` set the store is attached read-only and tailed;
  /// otherwise this recovers and journals exactly like a durable Open.
  static common::Result<std::unique_ptr<PolarisEngine>> OpenOn(
      EngineOptions options, storage::ObjectStore* store,
      common::Clock* clock = nullptr);

  /// Stops the observability sampler thread before members tear down.
  ~PolarisEngine();

  // Not movable: subsystems hold pointers to each other.
  PolarisEngine(const PolarisEngine&) = delete;
  PolarisEngine& operator=(const PolarisEngine&) = delete;

  // --- Subsystem access (benchmarks, tests) --------------------------------
  common::Clock* clock() { return clock_; }
  /// Top of the storage decorator stack (what every subsystem reads/writes
  /// through): base -> FaultInjectionStore -> RetryingObjectStore ->
  /// CircuitBreakerStore.
  storage::ObjectStore* store() { return store_; }
  /// The fault-injection layer, for tests that flip policies mid-run.
  storage::FaultInjectionStore* fault_store() { return fault_store_.get(); }
  /// The store beneath the decorators (the engine-owned MemoryObjectStore,
  /// or the externally provided base) — for tests inspecting raw blobs.
  storage::ObjectStore* base_store() { return fault_store_->base(); }
  /// The retry layer (retry/exhaustion counters).
  storage::RetryingObjectStore* retry_store() { return retry_store_.get(); }
  /// The circuit breaker on top of the stack (state, fast-fail counters).
  storage::CircuitBreakerStore* circuit_breaker() {
    return breaker_store_.get();
  }
  /// Statement admission control (SqlSession gates through this).
  AdmissionController* admission() { return &admission_; }
  obs::MetricsRegistry* metrics() { return &metrics_; }
  /// The engine-wide span recorder. Disabled by default; enable to capture
  /// traces (see obs::Tracer), export with Tracer::ExportChromeTrace.
  obs::Tracer* tracer() { return &tracer_; }
  catalog::CatalogDb* catalog() { return &catalog_; }
  /// The catalog journal (null for in-memory engines).
  catalog::CatalogJournal* journal() { return journal_.get(); }
  /// What recovery replayed when this durable engine was opened.
  const catalog::CatalogJournal::RecoveredState& recovery_info() const {
    return recovery_;
  }
  /// Current failover role; starts as kReplica/kPrimary per the options
  /// and changes at runtime (Promote, self-fencing).
  EngineRole role() const { return role_.load(std::memory_order_acquire); }
  /// True while this engine serves as a read-only tailing replica.
  bool is_replica() const { return role() == EngineRole::kReplica; }
  /// The epoch lease (null for in-memory engines, which have no journal
  /// and therefore nothing to fence).
  replica::EpochLease* lease() { return lease_.get(); }
  /// The continuous-apply tailer (null on primaries).
  replica::ReplicaTailer* replica() { return replica_tailer_.get(); }
  const replica::ReplicaTailer* replica() const {
    return replica_tailer_.get();
  }
  txn::TransactionManager* txn_manager() { return &txn_manager_; }
  sto::SystemTaskOrchestrator* sto() { return &sto_; }
  exec::DataCache* cache() { return &cache_; }
  dcp::Scheduler* scheduler() { return &scheduler_; }
  dcp::Topology* topology() { return &topology_; }
  const EngineOptions& options() const { return options_; }

  // --- Observability ---------------------------------------------------------
  /// The engine-wide structured event log (sys.dm_events, --log-json).
  obs::EventLog* events() { return &events_; }
  /// Per-metric sample rings fed by the sampler (sys.dm_metrics_history).
  const obs::TimeSeriesRecorder* time_series() const { return &recorder_; }
  /// The SLO watchdog (sys.dm_health).
  const obs::HealthWatchdog* health() const { return &watchdog_; }
  /// The per-fingerprint workload repository (sys.query_store).
  obs::QueryStore* query_store() { return &query_store_; }
  const obs::QueryStore* query_store() const { return &query_store_; }
  /// Engine-wide wait-event totals (sys.dm_wait_stats).
  common::WaitStats* wait_stats() { return &wait_stats_; }
  const common::WaitStats* wait_stats() const { return &wait_stats_; }
  /// The DMV provider behind `SELECT ... FROM sys.<view>`.
  const SystemViews* system_views() const { return views_.get(); }

  /// One sampler tick: snapshots the registry (plus live gauges — active
  /// transactions, STO backlog, tracer/cache occupancy) into the
  /// time-series rings and re-evaluates the health rules. The background
  /// thread calls this every `sampler_period_micros`; tests call it
  /// directly for deterministic histories.
  void SampleObservabilityOnce();

  /// Aggregated subsystem counters (see EngineStats).
  EngineStats Stats();

  /// Point-in-time copy of the unified metrics registry: per-op storage
  /// counts/retries/latencies, cache hits/misses, DCP job metrics, STO
  /// maintenance counters. Bench drivers print this next to their series.
  obs::MetricsSnapshot MetricsSnapshot();

  // --- Transactions ----------------------------------------------------------
  common::Result<std::unique_ptr<txn::Transaction>> Begin(
      catalog::IsolationMode mode = catalog::IsolationMode::kSnapshot);
  common::Status Commit(txn::Transaction* txn);
  common::Status Abort(txn::Transaction* txn);

  /// Requests cooperative cancellation of a live transaction (`KILL
  /// <txn_id>`). The owning statement observes the flip at its next
  /// cancellation point and aborts cleanly; NotFound if no such active
  /// transaction.
  common::Status KillTransaction(uint64_t txn_id);

  /// Runs `body` in a transaction, retrying on Conflict up to
  /// `max_attempts` times (the FE retry loop, §3).
  common::Status RunInTransaction(
      const std::function<common::Status(txn::Transaction*)>& body,
      catalog::IsolationMode mode = catalog::IsolationMode::kSnapshot,
      int max_attempts = 5);

  // --- DDL --------------------------------------------------------------------
  /// `sort_column` (optional) clusters every data file by that column
  /// (the Z-order analogue, §2.3), enabling zone-map range pruning.
  common::Result<catalog::TableMeta> CreateTable(
      const std::string& name, const format::Schema& schema,
      const std::string& sort_column = "");
  common::Status DropTable(const std::string& name);
  common::Result<catalog::TableMeta> GetTable(const std::string& name);

  // --- DML (within a transaction) ----------------------------------------------
  common::Result<uint64_t> Insert(txn::Transaction* txn,
                                  const std::string& table,
                                  const format::RecordBatch& rows);

  /// Bulk load from pre-partitioned source batches (one task per source
  /// file, §7.1). `job` receives the DCP metrics when non-null.
  common::Result<uint64_t> BulkLoad(
      txn::Transaction* txn, const std::string& table,
      const std::vector<format::RecordBatch>& sources,
      dcp::JobMetrics* job = nullptr);

  common::Result<uint64_t> Delete(txn::Transaction* txn,
                                  const std::string& table,
                                  const exec::Conjunction& filter);

  common::Result<uint64_t> Update(txn::Transaction* txn,
                                  const std::string& table,
                                  const exec::Conjunction& filter,
                                  const std::vector<exec::Assignment>& set);

  // --- Queries -------------------------------------------------------------------
  common::Result<format::RecordBatch> Query(txn::Transaction* txn,
                                            const std::string& table,
                                            const QuerySpec& spec,
                                            QueryStats* stats = nullptr);

  /// Time travel (§6.1): the table as of `as_of` on the commit-time axis.
  common::Result<format::RecordBatch> QueryAsOf(txn::Transaction* txn,
                                                const std::string& table,
                                                common::Micros as_of,
                                                const QuerySpec& spec,
                                                QueryStats* stats = nullptr);

  // --- Lineage features (§6) -------------------------------------------------------
  /// Zero-copy clone: duplicates only the logical metadata; both tables
  /// then evolve independently over the shared data files (§6.2).
  common::Result<catalog::TableMeta> CloneTable(
      const std::string& source, const std::string& dest,
      std::optional<common::Micros> as_of = std::nullopt);

  /// Logical-metadata-only backup image of the whole database (§6.3).
  common::Result<std::string> BackupDatabase();

  /// Restores a backup image. Requires no active transactions; data files
  /// are shared with the pre-restore state, and anything unreferenced is
  /// reclaimed by the next GC.
  common::Status RestoreDatabase(const std::string& image);

  /// Durable engines only: writes a catalog checkpoint at the current
  /// commit sequence, bounding the next reopen's journal replay.
  common::Status CheckpointCatalog();

  /// Read-your-writes across the primary/replica boundary: blocks until
  /// this engine's visible commit sequence reaches `seq`, honoring the
  /// ambient deadline/cancellation (`SET WAIT FOR COMMIT <seq>`). On a
  /// primary every committed sequence is already visible, so this returns
  /// immediately.
  common::Status MinReadWatermark(uint64_t seq);

  // --- Failover (DESIGN.md §12) --------------------------------------------
  /// Promotes this replica to primary: CAS-claims epoch+1, stops the
  /// tailer, seals the incumbent's open journal segment (its next append
  /// then loses CAS and self-fences), drains the remaining tail through
  /// the replayer, primes a fresh journal appender at the watermark, and
  /// flips the catalog and local store writable. Serialized against
  /// engine teardown; FailedPrecondition unless currently a replica. A
  /// failure mid-promotion leaves the engine in the crash-point contract
  /// state: discard it and promote a freshly attached replica (which
  /// claims the next epoch).
  common::Result<PromoteResult> Promote();

  /// Degrades a primary to read-only (idempotent; no-op for replicas):
  /// the journal refuses appends, in-flight commit waiters surface
  /// FailedPrecondition("fenced..."), reads keep working. Invoked
  /// automatically when a heartbeat loses the lease CAS or a journal
  /// append is superseded; public so chaos tests and operators can fence
  /// deterministically.
  void Fence(const std::string& reason);

  /// One heartbeat tick (the background thread calls this every
  /// failover.heartbeat_period_micros; tests drive it directly). As
  /// primary: renew the lease, fencing on CAS loss — or, after transient
  /// store errors, once the lease has expired on the engine clock. As
  /// replica: observe the incumbent's lease and, with auto_promote set,
  /// promote once it is observed expired.
  common::Status HeartbeatOnce();

  /// Staleness-bounded reads (SET MAX_STALENESS): OK on primaries; on a
  /// replica, ensures the apply watermark is within `bound_us` of the
  /// journal tip, driving a catch-up poll when it is not. bound_us <= 0
  /// means unbounded.
  common::Status EnsureReplicaFresh(common::Micros bound_us);

  FailoverStatus GetFailoverStatus() const;

 private:
  /// Durable-mode Open half: recover journal state into the catalog and
  /// install the commit listener.
  common::Status RecoverCatalog();

  /// Replica-mode Open half: mark the catalog read-only, bootstrap it
  /// from the shared store's checkpoint + journal, start the tailer.
  common::Status AttachReplica();

  /// FailedPrecondition on replicas; OK on primaries. Every write entry
  /// point checks this before touching storage.
  common::Status CheckWritable(const char* op) const;

  /// Installs the journal's fence guard + listener for the current
  /// journal_ (RecoverCatalog and Promote both call it).
  void WireFencing();
  /// Starts/stops the background heartbeat thread (no-op when the period
  /// is 0 or there is no lease).
  void StartFailoverThread();
  void StopFailoverThread();

  /// Registers the built-in SLO rules on the watchdog (retry rate, retry
  /// exhaustion, journal append p99, STO checkpoint backlog, cache
  /// hit-rate floor, tracer drops).
  void InstallDefaultSloRules();
  /// Starts the background sampler thread (no-op when the period is 0).
  void StartSampler();
  exec::DmlContext MakeDmlContext(const catalog::TableMeta& meta,
                                  const std::string& manifest_path);

  /// Distributed scan through the read pool; returns concatenated batches.
  common::Result<format::RecordBatch> DistributedScan(
      const lst::TableSnapshot& snapshot, const catalog::TableMeta& meta,
      const QuerySpec& spec, QueryStats* stats);

  EngineOptions options_;
  obs::MetricsRegistry metrics_;
  /// Declared before every subsystem that blocks (they hold a pointer to
  /// it); self-contained, so construction order is otherwise free.
  common::WaitStats wait_stats_;
  std::unique_ptr<common::SimClock> owned_clock_;
  common::Clock* clock_;
  /// Default-constructed (no clock): spans measure real wall time via
  /// steady_clock even when the engine itself runs on virtual SimClock
  /// time — profiles and Perfetto timelines stay meaningful.
  obs::Tracer tracer_;
  /// Declared before the subsystems that emit into it (txn manager, STO,
  /// retry store) so it outlives them; stamps events on the engine clock.
  obs::EventLog events_;
  std::unique_ptr<storage::MemoryObjectStore> owned_store_;
  std::unique_ptr<storage::LocalFileObjectStore> owned_local_store_;
  /// Storage decorator stack (§3.2.2 / §4.3): every subsystem reads and
  /// writes through fault injection (chaos) + retry (resilience).
  /// (base -> fault injection -> retry -> circuit breaker; the breaker is
  /// on top so it observes post-retry outcomes).
  std::unique_ptr<storage::FaultInjectionStore> fault_store_;
  std::unique_ptr<storage::RetryingObjectStore> retry_store_;
  std::unique_ptr<storage::CircuitBreakerStore> breaker_store_;
  storage::ObjectStore* store_;
  AdmissionController admission_;
  std::unique_ptr<catalog::CatalogJournal> journal_;
  catalog::CatalogJournal::RecoveredState recovery_;
  catalog::CatalogDb catalog_;
  lst::SnapshotBuilder builder_;
  exec::DataCache cache_;
  dcp::Topology topology_;
  dcp::Scheduler scheduler_;
  txn::TransactionManager txn_manager_;
  sto::SystemTaskOrchestrator sto_;
  obs::QueryStore query_store_;
  /// Replica mode only; declared after catalog_/store decorators (it
  /// reads through both) and stopped first in the destructor.
  std::unique_ptr<replica::ReplicaTailer> replica_tailer_;
  obs::TimeSeriesRecorder recorder_;
  obs::HealthWatchdog watchdog_;
  std::unique_ptr<SystemViews> views_;

  // --- Failover state ------------------------------------------------------
  std::unique_ptr<replica::EpochLease> lease_;
  std::atomic<EngineRole> role_{EngineRole::kPrimary};
  /// Serializes Promote against engine teardown: the destructor sets
  /// shutting_down_ then passes through lifecycle_mu_, so an in-flight
  /// promotion always completes before members tear down and no new one
  /// can start.
  std::mutex lifecycle_mu_;
  std::atomic<bool> shutting_down_{false};
  mutable std::mutex failover_mu_;  // guards the bookkeeping below
  std::string fence_reason_;
  uint64_t heartbeats_ = 0;
  uint64_t lease_losses_ = 0;
  uint64_t promotions_ = 0;
  uint64_t last_promote_tail_records_ = 0;
  double last_promote_ms_ = 0;
  // Last lease observed by a replica heartbeat (dm_failover surface).
  replica::LeaseInfo observed_lease_;
  std::mutex hb_mu_;
  std::condition_variable hb_cv_;
  bool hb_stop_ = false;  // guarded by hb_mu_
  std::thread hb_thread_;

  std::mutex sampler_mu_;
  std::condition_variable sampler_cv_;
  bool sampler_stop_ = false;  // guarded by sampler_mu_
  std::thread sampler_thread_;
};

}  // namespace polaris::engine

#endif  // POLARIS_ENGINE_ENGINE_H_
