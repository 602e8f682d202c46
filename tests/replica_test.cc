// Read-replica tests: a replica engine (EngineOptions::replica) attaches
// the primary's shared store read-only, bootstraps from checkpoint +
// journal, and continuously applies new journal records. Reads are
// snapshot-isolated at the apply watermark, writes are rejected,
// read-your-writes works via WAIT FOR COMMIT, and the tailer survives
// journal GC (retention floor, or checkpoint re-bootstrap on 404) and
// primary crashes (same torn-tail rules as recovery).
//
// Tests that need deterministic interleaving share one MemoryObjectStore
// between primary and replica (PolarisEngine::OpenOn) and drive the
// tailer with explicit PollOnce calls (poll_interval_micros = 0).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "catalog/catalog_journal.h"
#include "catalog/journal_replayer.h"
#include "common/clock.h"
#include "common/crashpoint.h"
#include "common/deadline.h"
#include "common/trace_context.h"
#include "engine/engine.h"
#include "sql/session.h"
#include "storage/local_file_object_store.h"
#include "storage/memory_object_store.h"

namespace polaris::engine {
namespace {

using common::Status;
using exec::AggFunc;
using exec::CompareOp;
using exec::Conjunction;
using exec::Predicate;
using format::ColumnType;
using format::RecordBatch;
using format::Schema;
using format::Value;

Schema EventsSchema() {
  return Schema({{"id", ColumnType::kInt64}, {"val", ColumnType::kInt64}});
}

RecordBatch EventRow(int64_t id, int64_t val) {
  RecordBatch batch{EventsSchema()};
  EXPECT_TRUE(batch.AppendRow({Value::Int64(id), Value::Int64(val)}).ok());
  return batch;
}

Conjunction WhereId(int64_t id) {
  Conjunction conj;
  conj.predicates.push_back(
      Predicate::Make("id", CompareOp::kEq, Value::Int64(id)));
  return conj;
}

class ReplicaTest : public ::testing::Test {
 protected:
  void SetUp() override {
    common::CrashPoints::Disarm();
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    data_dir_ = std::filesystem::path(::testing::TempDir()) /
                (std::string("polaris_replica_") + info->name());
    std::filesystem::remove_all(data_dir_);
  }

  void TearDown() override {
    common::CrashPoints::Disarm();
    std::filesystem::remove_all(data_dir_);
  }

  static EngineOptions BaseOptions() {
    EngineOptions options;
    options.num_cells = 2;
    options.worker_threads = 2;
    options.sampler_period_micros = 0;  // deterministic: no sampler thread
    return options;
  }

  EngineOptions DurableOptions() {
    EngineOptions options = BaseOptions();
    options.data_dir = data_dir_.string();
    return options;
  }

  static EngineOptions ReplicaOptionsOf(EngineOptions options,
                                        int64_t poll_micros = 0) {
    options.replica = true;
    options.replica_options.poll_interval_micros = poll_micros;
    return options;
  }

  static std::unique_ptr<PolarisEngine> MustOpen(EngineOptions options) {
    auto engine = PolarisEngine::Open(std::move(options));
    EXPECT_TRUE(engine.ok()) << engine.status().ToString();
    return std::move(*engine);
  }

  static std::unique_ptr<PolarisEngine> MustOpenOn(EngineOptions options,
                                                   storage::ObjectStore* store,
                                                   common::Clock* clock) {
    auto engine = PolarisEngine::OpenOn(std::move(options), store, clock);
    EXPECT_TRUE(engine.ok()) << engine.status().ToString();
    return std::move(*engine);
  }

  /// COUNT(*) WHERE id = `id` in a fresh transaction (works on both
  /// primary and replica — it only reads).
  static int64_t CountId(PolarisEngine* engine, int64_t id) {
    auto txn = engine->Begin();
    EXPECT_TRUE(txn.ok()) << txn.status().ToString();
    QuerySpec spec;
    spec.filter = WhereId(id);
    spec.aggregates = {{AggFunc::kCount, "", "cnt"}};
    auto result = engine->Query(txn->get(), "events", spec);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    (void)engine->Abort(txn->get());
    return result->column(0).Int64At(0);
  }

  /// Same workload shape as recovery_test: inserts (id, 100+id) and
  /// (id, 200+id), deletes the rows of id-3 for id >= 3.
  static Status RunTxn(PolarisEngine* engine, int64_t id) {
    auto txn = engine->Begin();
    if (!txn.ok()) return txn.status();
    auto run = [&]() -> Status {
      POLARIS_RETURN_IF_ERROR(
          engine->Insert(txn->get(), "events", EventRow(id, 100 + id))
              .status());
      POLARIS_RETURN_IF_ERROR(
          engine->Insert(txn->get(), "events", EventRow(id, 200 + id))
              .status());
      if (id >= 3) {
        POLARIS_RETURN_IF_ERROR(
            engine->Delete(txn->get(), "events", WhereId(id - 3)).status());
      }
      return engine->Commit(txn->get());
    };
    Status status = run();
    if (!status.ok()) (void)engine->Abort(txn->get());
    return status;
  }

  static std::vector<std::pair<std::string, std::string>> ExportCatalog(
      PolarisEngine* engine, uint64_t* seq) {
    return engine->catalog()->store()->ExportLatest(seq);
  }

  std::filesystem::path data_dir_;
};

// --- Satellite (b): ListSegmentsSince ordering/boundary contract ---------

/// The contract the tailer depends on, checked over both store backends:
/// ascending first_seq order (zero-padded names make lexicographic ==
/// numeric, exercised across the 9 -> 10 boundary), every segment with
/// first_seq >= since included, plus the one immediately preceding it
/// (so a live cursor segment always appears in its own listing).
TEST_F(ReplicaTest, ListSegmentsSinceContractOverBothStores) {
  common::SimClock clock(1'000'000);
  storage::MemoryObjectStore memory_store(&clock);
  storage::LocalFileObjectStore file_store((data_dir_ / "seg").string(),
                                           &clock);
  ASSERT_TRUE(file_store.init_status().ok());
  storage::ObjectStore* stores[] = {&memory_store, &file_store};

  for (storage::ObjectStore* store : stores) {
    SCOPED_TRACE(store == &memory_store ? "memory" : "local_file");
    catalog::CatalogJournalOptions options;
    options.records_per_segment = 1;  // one segment per commit
    catalog::CatalogJournal journal(store, options);
    ASSERT_TRUE(journal.Recover().ok());
    for (uint64_t seq = 1; seq <= 13; ++seq) {
      ASSERT_TRUE(
          journal.Append(seq, {{"k" + std::to_string(seq), "v"}}).ok());
    }

    auto all = catalog::ListJournalSegmentsSince(store, options, 1);
    ASSERT_TRUE(all.ok()) << all.status().ToString();
    ASSERT_EQ(all->size(), 13u);
    for (size_t i = 0; i < all->size(); ++i) {
      EXPECT_EQ((*all)[i].first_seq, i + 1);  // ascending despite 9 -> 10
    }

    // since = 5: segments 5.. plus the immediately preceding segment 4.
    auto tail = catalog::ListJournalSegmentsSince(store, options, 5);
    ASSERT_TRUE(tail.ok());
    ASSERT_EQ(tail->size(), 10u);
    EXPECT_EQ(tail->front().first_seq, 4u);
    EXPECT_EQ(tail->back().first_seq, 13u);

    // since beyond the tip: only the predecessor (the live tail segment).
    auto tip = catalog::ListJournalSegmentsSince(store, options, 14);
    ASSERT_TRUE(tip.ok());
    ASSERT_EQ(tip->size(), 1u);
    EXPECT_EQ(tip->front().first_seq, 13u);

    // since = 1 has no predecessor: the listing starts at 1.
    EXPECT_EQ(all->front().first_seq, 1u);
  }
}

// --- Tentpole: bootstrap, continuous apply, snapshot isolation -----------

TEST_F(ReplicaTest, BootstrapFromCheckpointAndJournalTail) {
  auto primary = MustOpen(DurableOptions());
  ASSERT_TRUE(primary->CreateTable("events", EventsSchema()).ok());
  for (int64_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(RunTxn(primary.get(), i).ok()) << i;
  }
  ASSERT_TRUE(primary->CheckpointCatalog().ok());
  ASSERT_TRUE(RunTxn(primary.get(), 4).ok());
  ASSERT_TRUE(RunTxn(primary.get(), 5).ok());

  // Attach a replica to the same directory while the primary stays open.
  auto replica = MustOpen(ReplicaOptionsOf(DurableOptions()));
  ASSERT_TRUE(replica->is_replica());
  ASSERT_NE(replica->replica(), nullptr);

  // ids 0,1,2 deleted by txns 3,4,5; ids 3,4,5 live with both rows.
  for (int64_t i = 0; i < 3; ++i) {
    EXPECT_EQ(CountId(replica.get(), i), 0) << i;
  }
  for (int64_t i = 3; i < 6; ++i) {
    EXPECT_EQ(CountId(replica.get(), i), 2) << i;
  }

  uint64_t primary_seq = primary->catalog()->store()->LatestCommitSeq();
  replica::ReplicaStatus rs = replica->replica()->GetStatus();
  EXPECT_EQ(rs.state, "tailing");
  EXPECT_EQ(rs.watermark, primary_seq);
  EXPECT_EQ(replica->replica()->watermark(), primary_seq);
  // The checkpoint bounded the bootstrap replay to the journal tail.
  EXPECT_GT(rs.bootstrap_records, 0u);
  EXPECT_LT(rs.bootstrap_records, primary->Stats().journal_records);
  EXPECT_EQ(replica->replica()->LagLowerBound(), 0u);
}

/// Bootstrap and TailOnce share one frame loop but treat a torn frame
/// differently. With the torn frame in an older segment both must step
/// over it into the next segment: Bootstrap reports torn_tail, TailOnce
/// (a later segment exists, so the torn remainder is dead) does not hold
/// there, and the two end with identical rows and cursors.
TEST_F(ReplicaTest, TornFrameInOlderSegmentBootstrapMatchesTail) {
  common::SimClock clock(1'000'000);
  storage::MemoryObjectStore store(&clock);
  catalog::CatalogJournalOptions options;
  {
    catalog::CatalogJournal journal(&store, options);
    ASSERT_TRUE(journal.Recover().ok());
    journal.set_epoch(1);  // stamp frames ride along with the records
    for (uint64_t seq = 1; seq <= 3; ++seq) {
      ASSERT_TRUE(
          journal.Append(seq, {{"k" + std::to_string(seq), "v"}}).ok());
    }
    common::CrashPoints::Arm(common::crash::kJournalAppendTorn);
    ASSERT_FALSE(journal.Append(4, {{"k4", "torn"}}).ok());
  }
  {
    // The reopened writer keeps the torn segment (it holds records) and
    // rolls a fresh one for sequence 4 on.
    catalog::CatalogJournal journal(&store, options);
    auto recovered = journal.Recover();
    ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
    ASSERT_TRUE(recovered->torn_tail);
    ASSERT_EQ(recovered->commit_seq, 3u);
    journal.set_epoch(2);
    ASSERT_TRUE(journal.Append(4, {{"k4", "v"}, {"k1", std::nullopt}}).ok());
    ASSERT_TRUE(journal.Append(5, {{"k5", "v"}}).ok());
  }
  auto segments = catalog::ListJournalSegmentsSince(&store, options, 1);
  ASSERT_TRUE(segments.ok());
  ASSERT_EQ(segments->size(), 2u);

  catalog::JournalReplayer replayer(&store, options);
  auto boot = replayer.Bootstrap();
  ASSERT_TRUE(boot.ok()) << boot.status().ToString();
  EXPECT_TRUE(boot->state.torn_tail);
  EXPECT_EQ(boot->state.commit_seq, 5u);
  EXPECT_EQ(boot->state.records_replayed, 5u);
  EXPECT_EQ(boot->state.segments_scanned, 2u);

  std::map<std::string, std::string> live;
  catalog::ReplayCursor cursor;
  auto tail = replayer.TailOnce(
      &cursor,
      [&](uint64_t, const std::vector<std::pair<
                        std::string, std::optional<std::string>>>& writes) {
        for (const auto& [key, value] : writes) {
          if (value.has_value()) {
            live[key] = *value;
          } else {
            live.erase(key);
          }
        }
        return Status::OK();
      });
  ASSERT_TRUE(tail.ok()) << tail.status().ToString();
  EXPECT_FALSE(tail->torn_tail);
  EXPECT_EQ(tail->records_applied, 5u);
  EXPECT_EQ(tail->segments_visited, 2u);

  const std::vector<std::pair<std::string, std::string>> tailed(live.begin(),
                                                                live.end());
  EXPECT_EQ(tailed, boot->state.rows);
  EXPECT_EQ(cursor.segment_first_seq, boot->cursor.segment_first_seq);
  EXPECT_EQ(cursor.byte_offset, boot->cursor.byte_offset);
  EXPECT_EQ(cursor.applied_seq, boot->cursor.applied_seq);
  EXPECT_EQ(cursor.segment_first_seq, segments->back().first_seq);
  auto newest = store.Get(segments->back().path);
  ASSERT_TRUE(newest.ok());
  EXPECT_EQ(cursor.byte_offset, newest->size());
}

TEST_F(ReplicaTest, ContinuousApplyPreservesSnapshotIsolation) {
  common::SimClock clock(1'000'000);
  storage::MemoryObjectStore store(&clock);
  auto primary = MustOpenOn(BaseOptions(), &store, &clock);
  auto replica = MustOpenOn(ReplicaOptionsOf(BaseOptions()), &store, &clock);

  ASSERT_TRUE(primary->CreateTable("events", EventsSchema()).ok());
  ASSERT_TRUE(RunTxn(primary.get(), 0).ok());
  ASSERT_TRUE(replica->replica()->PollOnce().ok());
  EXPECT_EQ(CountId(replica.get(), 0), 2);

  // Pin a snapshot on the replica, then let the primary move on.
  auto pinned = replica->Begin();
  ASSERT_TRUE(pinned.ok());
  ASSERT_TRUE(RunTxn(primary.get(), 1).ok());
  ASSERT_TRUE(RunTxn(primary.get(), 2).ok());
  ASSERT_TRUE(replica->replica()->PollOnce().ok());

  // The pinned transaction still sees the old state; a fresh one sees
  // everything up to the watermark.
  QuerySpec spec;
  spec.filter = WhereId(1);
  spec.aggregates = {{AggFunc::kCount, "", "cnt"}};
  auto pinned_count = replica->Query(pinned->get(), "events", spec);
  ASSERT_TRUE(pinned_count.ok()) << pinned_count.status().ToString();
  EXPECT_EQ(pinned_count->column(0).Int64At(0), 0);
  (void)replica->Abort(pinned->get());
  EXPECT_EQ(CountId(replica.get(), 1), 2);
  EXPECT_EQ(CountId(replica.get(), 2), 2);

  // Watermark tracks the primary exactly once the tail is drained.
  EXPECT_EQ(replica->replica()->watermark(),
            primary->catalog()->store()->LatestCommitSeq());
  replica::ReplicaStatus rs = replica->replica()->GetStatus();
  EXPECT_GT(rs.records_applied, 0u);
  EXPECT_FALSE(rs.torn_tail_pending);
}

TEST_F(ReplicaTest, WatermarkIsMonotonicAcrossPolls) {
  common::SimClock clock(1'000'000);
  storage::MemoryObjectStore store(&clock);
  auto primary = MustOpenOn(BaseOptions(), &store, &clock);
  auto replica = MustOpenOn(ReplicaOptionsOf(BaseOptions()), &store, &clock);
  ASSERT_TRUE(primary->CreateTable("events", EventsSchema()).ok());

  uint64_t last = replica->replica()->watermark();
  for (int64_t i = 0; i < 6; ++i) {
    ASSERT_TRUE(RunTxn(primary.get(), i).ok());
    ASSERT_TRUE(replica->replica()->PollOnce().ok());
    uint64_t now = replica->replica()->watermark();
    EXPECT_GE(now, last) << "watermark went backwards at txn " << i;
    last = now;
    // An idle poll (nothing new) must not move or reset anything.
    ASSERT_TRUE(replica->replica()->PollOnce().ok());
    EXPECT_EQ(replica->replica()->watermark(), last);
  }
  EXPECT_EQ(last, primary->catalog()->store()->LatestCommitSeq());
}

// --- Writes rejected -----------------------------------------------------

TEST_F(ReplicaTest, WritesAreRejectedOnReplica) {
  common::SimClock clock(1'000'000);
  storage::MemoryObjectStore store(&clock);
  auto primary = MustOpenOn(BaseOptions(), &store, &clock);
  ASSERT_TRUE(primary->CreateTable("events", EventsSchema()).ok());
  ASSERT_TRUE(RunTxn(primary.get(), 0).ok());

  auto replica = MustOpenOn(ReplicaOptionsOf(BaseOptions()), &store, &clock);

  // Engine API: DDL and DML all fail with FailedPrecondition.
  Status ddl = replica->CreateTable("other", EventsSchema()).status();
  EXPECT_TRUE(ddl.IsFailedPrecondition()) << ddl.ToString();
  EXPECT_TRUE(replica->DropTable("events").IsFailedPrecondition());
  EXPECT_TRUE(replica->CheckpointCatalog().IsFailedPrecondition());
  auto txn = replica->Begin();
  ASSERT_TRUE(txn.ok());
  auto insert = replica->Insert(txn->get(), "events", EventRow(9, 9));
  EXPECT_TRUE(insert.status().IsFailedPrecondition())
      << insert.status().ToString();
  auto del = replica->Delete(txn->get(), "events", WhereId(0));
  EXPECT_TRUE(del.status().IsFailedPrecondition());
  (void)replica->Abort(txn->get());

  // SQL surface: same verdict, reads still fine.
  sql::SqlSession session(replica.get());
  auto sql_insert = session.Execute("INSERT INTO events VALUES (9, 9)");
  ASSERT_FALSE(sql_insert.ok());
  EXPECT_TRUE(sql_insert.status().IsFailedPrecondition());
  auto sql_select = session.Execute("SELECT COUNT(*) FROM events");
  ASSERT_TRUE(sql_select.ok()) << sql_select.status().ToString();
  EXPECT_EQ(sql_select->batch.column(0).Int64At(0), 2);
}

// --- Read-your-writes: WaitForCommit / SET WAIT FOR COMMIT ---------------

TEST_F(ReplicaTest, WaitForCommitUnblocksWhenWatermarkReaches) {
  common::SimClock clock(1'000'000);
  storage::MemoryObjectStore store(&clock);
  auto primary = MustOpenOn(BaseOptions(), &store, &clock);
  ASSERT_TRUE(primary->CreateTable("events", EventsSchema()).ok());
  auto replica = MustOpenOn(ReplicaOptionsOf(BaseOptions()), &store, &clock);

  ASSERT_TRUE(RunTxn(primary.get(), 0).ok());
  const uint64_t target = primary->catalog()->store()->LatestCommitSeq();
  ASSERT_GT(target, replica->replica()->watermark());

  // A session thread blocks in MinReadWatermark until a poll applies the
  // records; an already-satisfied wait returns without blocking.
  std::atomic<bool> released{false};
  Status wait_status = Status::OK();
  std::thread waiter([&] {
    wait_status = replica->MinReadWatermark(target);
    released.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(released.load());  // still parked: nothing applied yet
  ASSERT_TRUE(replica->replica()->PollOnce().ok());
  waiter.join();
  EXPECT_TRUE(wait_status.ok()) << wait_status.ToString();
  EXPECT_TRUE(replica->MinReadWatermark(target).ok());  // instant now
  EXPECT_EQ(CountId(replica.get(), 0), 2);
}

TEST_F(ReplicaTest, WaitForCommitHonorsDeadlineAndStop) {
  common::SimClock clock(1'000'000);
  storage::MemoryObjectStore store(&clock);
  auto primary = MustOpenOn(BaseOptions(), &store, &clock);
  ASSERT_TRUE(primary->CreateTable("events", EventsSchema()).ok());
  auto replica = MustOpenOn(ReplicaOptionsOf(BaseOptions()), &store, &clock);

  const uint64_t unreachable = replica->replica()->watermark() + 1000;

  // Expired budget => DeadlineExceeded instead of an eternal park.
  {
    common::ScopedDeadline scoped(
        common::Deadline::After(replica->clock(), /*budget_micros=*/0));
    Status status = replica->MinReadWatermark(unreachable);
    EXPECT_TRUE(status.IsDeadlineExceeded()) << status.ToString();
  }

  // Cancellation token fires mid-wait.
  {
    common::CancelSource source;
    common::ScopedDeadline scoped(
        common::Deadline::CancellableOnly(source.token()));
    std::thread canceller([&] {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      source.Cancel("test cancellation");
    });
    Status status = replica->MinReadWatermark(unreachable);
    canceller.join();
    EXPECT_TRUE(status.IsCancelled()) << status.ToString();
  }

  // Stop() wakes blocked waiters with Unavailable, and later waits fail
  // fast the same way.
  std::thread stopper([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    replica->replica()->Stop();
  });
  Status stopped = replica->MinReadWatermark(unreachable);
  stopper.join();
  EXPECT_TRUE(stopped.IsUnavailable()) << stopped.ToString();
  EXPECT_TRUE(replica->MinReadWatermark(unreachable).IsUnavailable());
  EXPECT_EQ(replica->replica()->GetStatus().state, "stopped");
}

TEST_F(ReplicaTest, SqlReadYourWritesAcrossEngines) {
  common::SimClock clock(1'000'000);
  storage::MemoryObjectStore store(&clock);
  auto primary = MustOpenOn(BaseOptions(), &store, &clock);
  // Background tailer on a real (wall-clock) poll cadence: SET WAIT FOR
  // COMMIT must unblock without any explicit PollOnce.
  auto replica = MustOpenOn(
      ReplicaOptionsOf(BaseOptions(), /*poll_micros=*/2000), &store, &clock);

  sql::SqlSession write_session(primary.get());
  ASSERT_TRUE(
      write_session.Execute("CREATE TABLE t (id BIGINT, val BIGINT)").ok());
  ASSERT_TRUE(write_session.Execute("BEGIN").ok());
  ASSERT_TRUE(write_session.Execute("INSERT INTO t VALUES (1, 10)").ok());
  auto commit = write_session.Execute("COMMIT");
  ASSERT_TRUE(commit.ok()) << commit.status().ToString();
  // COMMIT surfaces the sequence a client hands to the replica.
  const std::string& msg = commit->message;
  auto pos = msg.find("commit_seq ");
  ASSERT_NE(pos, std::string::npos) << msg;
  const uint64_t seq = std::stoull(msg.substr(pos + 11));
  ASSERT_GT(seq, 0u);

  sql::SqlSession read_session(replica.get());
  auto wait =
      read_session.Execute("SET WAIT FOR COMMIT " + std::to_string(seq));
  ASSERT_TRUE(wait.ok()) << wait.status().ToString();
  EXPECT_NE(wait->message.find("visible"), std::string::npos);
  auto rows = read_session.Execute("SELECT val FROM t WHERE id = 1");
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  ASSERT_EQ(rows->batch.num_rows(), 1u);
  EXPECT_EQ(rows->batch.column(0).Int64At(0), 10);

  // Parser guards: the statement needs a positive integer sequence.
  EXPECT_FALSE(read_session.Execute("SET WAIT FOR COMMIT").ok());
  EXPECT_FALSE(read_session.Execute("SET WAIT FOR COMMIT 0").ok());
  EXPECT_FALSE(read_session.Execute("SET WAIT FOR COMMIT x").ok());
}

// --- sys.dm_replica ------------------------------------------------------

TEST_F(ReplicaTest, DmReplicaViewReportsTailerState) {
  common::SimClock clock(1'000'000);
  storage::MemoryObjectStore store(&clock);
  auto primary = MustOpenOn(BaseOptions(), &store, &clock);
  ASSERT_TRUE(primary->CreateTable("events", EventsSchema()).ok());
  ASSERT_TRUE(RunTxn(primary.get(), 0).ok());
  auto replica = MustOpenOn(ReplicaOptionsOf(BaseOptions()), &store, &clock);
  // Commit after the attach so the poll (not the bootstrap) applies it —
  // records_applied counts tailed records only.
  ASSERT_TRUE(RunTxn(primary.get(), 1).ok());
  ASSERT_TRUE(replica->replica()->PollOnce().ok());

  sql::SqlSession session(replica.get());
  auto view = session.Execute("SELECT * FROM sys.dm_replica");
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  ASSERT_EQ(view->batch.num_rows(), 1u);
  const auto& batch = view->batch;
  auto col = [&](const std::string& name) {
    int idx = batch.schema().FindColumn(name);
    EXPECT_GE(idx, 0) << name;
    return static_cast<size_t>(idx);
  };
  EXPECT_EQ(batch.column(col("state")).StringAt(0), "tailing");
  EXPECT_EQ(static_cast<uint64_t>(batch.column(col("watermark")).Int64At(0)),
            primary->catalog()->store()->LatestCommitSeq());
  EXPECT_EQ(batch.column(col("lag_records")).Int64At(0), 0);
  EXPECT_GT(batch.column(col("records_applied")).Int64At(0), 0);

  // On a primary the view exists but is empty — no tailer to report.
  sql::SqlSession primary_session(primary.get());
  auto empty = primary_session.Execute("SELECT * FROM sys.dm_replica");
  ASSERT_TRUE(empty.ok()) << empty.status().ToString();
  EXPECT_EQ(empty->batch.num_rows(), 0u);

  // Engine-level surfaces agree.
  EngineStats stats = replica->Stats();
  EXPECT_EQ(stats.replica_watermark, replica->replica()->watermark());
  EXPECT_GT(stats.replica_records_applied, 0u);
}

// --- Journal GC vs the tailer -------------------------------------------

TEST_F(ReplicaTest, RetentionFloorKeepsTailerAliveAcrossGc) {
  common::SimClock clock(1'000'000);
  storage::MemoryObjectStore store(&clock);
  EngineOptions popts = BaseOptions();
  popts.journal_options.records_per_segment = 1;
  popts.journal_options.reclaim_retain_segments = 64;  // generous floor
  auto primary = MustOpenOn(popts, &store, &clock);
  ASSERT_TRUE(primary->CreateTable("events", EventsSchema()).ok());
  ASSERT_TRUE(RunTxn(primary.get(), 0).ok());

  EngineOptions ropts = ReplicaOptionsOf(BaseOptions());
  ropts.journal_options = popts.journal_options;
  auto replica = MustOpenOn(ropts, &store, &clock);
  ASSERT_TRUE(replica->replica()->PollOnce().ok());

  // Checkpoint + reclaim while the replica is attached: the retention
  // floor keeps every segment the (caught-up) tailer could still need.
  ASSERT_TRUE(RunTxn(primary.get(), 1).ok());
  ASSERT_TRUE(primary->CheckpointCatalog().ok());
  auto reclaimed = primary->journal()->ReclaimSupersededSegments();
  ASSERT_TRUE(reclaimed.ok()) << reclaimed.status().ToString();

  ASSERT_TRUE(RunTxn(primary.get(), 2).ok());
  ASSERT_TRUE(replica->replica()->PollOnce().ok());
  EXPECT_EQ(replica->replica()->GetStatus().rebootstraps, 0u)
      << "retention floor should have made re-bootstrap unnecessary";
  EXPECT_EQ(replica->replica()->watermark(),
            primary->catalog()->store()->LatestCommitSeq());
  EXPECT_EQ(CountId(replica.get(), 2), 2);
}

TEST_F(ReplicaTest, RebootstrapsFromCheckpointAfterJournalTruncation) {
  common::SimClock clock(1'000'000);
  storage::MemoryObjectStore store(&clock);
  EngineOptions popts = BaseOptions();
  popts.journal_options.records_per_segment = 1;
  popts.journal_options.reclaim_retain_segments = 0;  // no floor: replicas
                                                      // must re-bootstrap
  auto primary = MustOpenOn(popts, &store, &clock);
  ASSERT_TRUE(primary->CreateTable("events", EventsSchema()).ok());
  ASSERT_TRUE(RunTxn(primary.get(), 0).ok());

  EngineOptions ropts = ReplicaOptionsOf(BaseOptions());
  ropts.journal_options = popts.journal_options;
  auto replica = MustOpenOn(ropts, &store, &clock);
  ASSERT_TRUE(replica->replica()->PollOnce().ok());
  const uint64_t before = replica->replica()->watermark();

  // The primary races ahead, checkpoints, and GC deletes every segment
  // the replica's cursor pointed into.
  for (int64_t i = 1; i < 5; ++i) {
    ASSERT_TRUE(RunTxn(primary.get(), i).ok());
  }
  ASSERT_TRUE(primary->CheckpointCatalog().ok());
  auto reclaimed = primary->journal()->ReclaimSupersededSegments();
  ASSERT_TRUE(reclaimed.ok());
  ASSERT_GT(*reclaimed, 0u);

  // The next poll detects the truncation and re-derives the catalog from
  // the checkpoint; a snapshot pinned across the re-bootstrap keeps its
  // view because the diff is installed as one ordinary replicated commit.
  auto pinned = replica->Begin();
  ASSERT_TRUE(pinned.ok());
  (void)replica->replica()->PollOnce();  // may report NotFound internally
  ASSERT_TRUE(replica->replica()->PollOnce().ok());
  EXPECT_GE(replica->replica()->GetStatus().rebootstraps, 1u);
  EXPECT_GT(replica->replica()->watermark(), before);
  EXPECT_EQ(replica->replica()->watermark(),
            primary->catalog()->store()->LatestCommitSeq());
  QuerySpec spec;
  spec.filter = WhereId(4);
  spec.aggregates = {{AggFunc::kCount, "", "cnt"}};
  auto pinned_count = replica->Query(pinned->get(), "events", spec);
  ASSERT_TRUE(pinned_count.ok()) << pinned_count.status().ToString();
  EXPECT_EQ(pinned_count->column(0).Int64At(0), 0);  // old view survives
  (void)replica->Abort(pinned->get());
  // Fresh reads converge with the primary.
  EXPECT_EQ(CountId(replica.get(), 0), 0);  // deleted by txn 3
  EXPECT_EQ(CountId(replica.get(), 4), 2);

  // And tailing continues normally past the re-bootstrap.
  ASSERT_TRUE(RunTxn(primary.get(), 5).ok());
  ASSERT_TRUE(replica->replica()->PollOnce().ok());
  EXPECT_EQ(CountId(replica.get(), 5), 2);
}

// --- Crash-point matrix with an attached replica -------------------------

/// The acceptance gate for replicas under primary crashes: for every
/// crash point, a replica that polled an interrupted primary, then keeps
/// polling across the primary's recovery, converges to the recovered
/// primary's exact catalog — torn tails held, dead garbage skipped,
/// reused segment names detected.
TEST_F(ReplicaTest, CrashPointMatrixWithAttachedReplica) {
  const std::string kPoints[] = {
      std::string(common::crash::kCommitAfterWriteSets),
      std::string(common::crash::kCatalogCommitBeforeManifests),
      std::string(common::crash::kCatalogCommitAfterManifests),
      std::string(common::crash::kCommitBatchFormed),
      std::string(common::crash::kCommitBatchAppended),
      std::string(common::crash::kCommitBatchInstalled),
      std::string(common::crash::kJournalAppendBefore),
      std::string(common::crash::kJournalAppendTorn),
      std::string(common::crash::kJournalAppendAfterCommit),
      std::string(common::crash::kStorePutBeforeRename),
      std::string(common::crash::kStoreCommitBeforeRename),
  };
  constexpr int64_t kTxns = 6;

  for (const auto& point : kPoints) {
    SCOPED_TRACE(point);
    std::filesystem::remove_all(data_dir_);

    std::unique_ptr<PolarisEngine> replica;
    {
      auto primary = MustOpen(DurableOptions());
      ASSERT_TRUE(primary->CreateTable("events", EventsSchema()).ok());
      ASSERT_TRUE(RunTxn(primary.get(), 0).ok());
      ASSERT_TRUE(RunTxn(primary.get(), 1).ok());
      // The replica attaches once real history exists, and outlives the
      // primary's "death" below.
      replica = MustOpen(ReplicaOptionsOf(DurableOptions()));

      uint64_t fired_before = common::CrashPoints::fired_count();
      common::CrashPoints::Arm(point, /*skip=*/1);
      for (int64_t i = 2; i < kTxns; ++i) {
        Status status = RunTxn(primary.get(), i);
        // The replica polls mid-workload: it may observe the torn tail
        // the crash leaves behind and must hold, not fail.
        (void)replica->replica()->PollOnce();
        if (!status.ok()) break;  // the primary "died" here
      }
      ASSERT_EQ(common::CrashPoints::fired_count(), fired_before + 1)
          << "crash point never fired; workload too small";
      common::CrashPoints::Disarm();
      // Primary discarded without shutdown — crash semantics.
    }

    // The primary recovers and keeps going; the replica just keeps
    // tailing (a reused segment name or truncation surfaces as NotFound
    // on one poll and is healed by the re-bootstrap on the same pass).
    auto primary = MustOpen(DurableOptions());
    ASSERT_TRUE(RunTxn(primary.get(), 100).ok());
    (void)replica->replica()->PollOnce();
    ASSERT_TRUE(replica->replica()->PollOnce().ok());

    uint64_t primary_seq = 0, replica_seq = 0;
    auto primary_rows = ExportCatalog(primary.get(), &primary_seq);
    auto replica_rows = ExportCatalog(replica.get(), &replica_seq);
    EXPECT_EQ(replica_seq, primary_seq);
    EXPECT_EQ(replica_rows, primary_rows)
        << "replica catalog diverged from recovered primary";
    EXPECT_EQ(replica->replica()->watermark(), primary_seq);
    EXPECT_EQ(CountId(replica.get(), 100), CountId(primary.get(), 100));
  }
}

}  // namespace
}  // namespace polaris::engine
