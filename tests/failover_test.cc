// Epoch-fenced failover tests: lease-based primary fencing, replica
// promotion, and the crash/chaos matrix for the handoff (DESIGN.md §12).
//
// The hard invariants checked here, per the failover design:
//   1. No acked-commit loss: every commit acknowledged to a client before
//      the primary "died" is visible after a replica promotes.
//   2. No dual-writer interleaving: once a promoting replica seals a
//      journal segment, no record frame from the fenced epoch ever
//      appears after the seal marker, and epoch stamps never decrease
//      across the journal.
//   3. A fenced ex-primary rejects every write with FailedPrecondition
//      while continuing to serve reads.
//
// Deterministic interleaving: primary and replica share one
// MemoryObjectStore (PolarisEngine::OpenOn) on a SimClock, the tailer is
// driven with explicit PollOnce (poll_interval_micros = 0), and the
// heartbeat thread is off (heartbeat_period_micros = 0) except in the
// teardown-race regression, which exists precisely to race real threads.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "catalog/catalog_journal.h"
#include "catalog/journal_format.h"
#include "common/bytes.h"
#include "common/clock.h"
#include "common/crashpoint.h"
#include "engine/engine.h"
#include "replica/failover.h"
#include "sql/session.h"
#include "storage/memory_object_store.h"

namespace polaris::engine {
namespace {

namespace jf = catalog::journal_format;

using common::Status;
using exec::AggFunc;
using exec::CompareOp;
using exec::Conjunction;
using exec::Predicate;
using format::ColumnType;
using format::RecordBatch;
using format::Schema;
using format::Value;
using replica::EpochLease;
using replica::FailoverOptions;

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

/// One decoded journal frame with its segment context, for the
/// interleaving assertions.
struct ScannedFrame {
  std::string segment;
  jf::FrameKind kind = jf::FrameKind::kTorn;
  uint64_t epoch = 0;  // epoch markers only
  bool seal = false;   // epoch markers only
  uint64_t seq = 0;    // records only
};

/// Parses every journal segment front to back. A torn suffix stops the
/// scan of that segment (same rule replay applies); everything before it
/// is returned.
std::vector<ScannedFrame> ScanJournal(
    storage::ObjectStore* store,
    const catalog::CatalogJournalOptions& options) {
  std::vector<ScannedFrame> frames;
  auto segments = catalog::ListJournalSegmentsSince(store, options, 1);
  EXPECT_TRUE(segments.ok()) << segments.status().ToString();
  if (!segments.ok()) return frames;
  for (const auto& segment : *segments) {
    auto bytes = store->Get(segment.path);
    EXPECT_TRUE(bytes.ok()) << bytes.status().ToString();
    if (!bytes.ok()) continue;
    common::ByteReader in(*bytes);
    while (!in.AtEnd()) {
      ScannedFrame frame;
      frame.segment = segment.path;
      jf::ParsedRecord record;
      jf::EpochMarker marker;
      frame.kind = jf::ParseFrame(&in, &record, &marker);
      if (frame.kind == jf::FrameKind::kTorn) break;
      if (frame.kind == jf::FrameKind::kRecord) {
        frame.seq = record.commit_seq;
      } else {
        frame.epoch = marker.epoch;
        frame.seal = marker.seal;
      }
      frames.push_back(std::move(frame));
    }
  }
  return frames;
}

/// Invariant 2: epoch stamps never decrease, and within a segment no
/// record frame follows a seal marker (a fenced writer's append after the
/// seal would be exactly that).
void AssertNoEpochInterleaving(const std::vector<ScannedFrame>& frames) {
  uint64_t last_stamp = 0;
  std::string sealed_segment;
  uint64_t sealed_epoch = 0;
  for (const auto& frame : frames) {
    if (frame.kind == jf::FrameKind::kEpoch) {
      EXPECT_GE(frame.epoch, last_stamp)
          << "epoch went backwards in " << frame.segment;
      last_stamp = std::max(last_stamp, frame.epoch);
      if (frame.seal) {
        sealed_segment = frame.segment;
        sealed_epoch = frame.epoch;
      }
    } else if (frame.kind == jf::FrameKind::kRecord) {
      EXPECT_NE(frame.segment, sealed_segment)
          << "record seq " << frame.seq << " appended after the epoch-"
          << sealed_epoch << " seal in " << frame.segment
          << " -- dual-writer interleaving";
    }
  }
}

class FailoverTest : public ::testing::Test {
 protected:
  void SetUp() override { common::CrashPoints::Disarm(); }
  void TearDown() override { common::CrashPoints::Disarm(); }

  static EngineOptions BaseOptions() {
    EngineOptions options;
    options.num_cells = 2;
    options.worker_threads = 2;
    options.sampler_period_micros = 0;  // deterministic: no sampler thread
    // Keep the active segment mid-fill across these small workloads, so a
    // fenced primary's next append deterministically targets the sealed
    // segment rather than rolling past it.
    options.journal_options.records_per_segment = 64;
    return options;
  }

  static EngineOptions ReplicaOptionsOf(EngineOptions options) {
    options.replica = true;
    options.replica_options.poll_interval_micros = 0;
    return options;
  }

  static std::unique_ptr<PolarisEngine> MustOpenOn(EngineOptions options,
                                                   storage::ObjectStore* store,
                                                   common::Clock* clock) {
    auto engine = PolarisEngine::OpenOn(std::move(options), store, clock);
    EXPECT_TRUE(engine.ok()) << engine.status().ToString();
    return std::move(*engine);
  }

  static Status InsertOne(PolarisEngine* engine, int64_t id) {
    auto txn = engine->Begin();
    if (!txn.ok()) return txn.status();
    Status status =
        engine->Insert(txn->get(), "events", EventRow(id, 100 + id)).status();
    if (status.ok()) status = engine->Commit(txn->get());
    if (!status.ok()) (void)engine->Abort(txn->get());
    return status;
  }

  static int64_t CountId(PolarisEngine* engine, int64_t id) {
    auto txn = engine->Begin();
    EXPECT_TRUE(txn.ok()) << txn.status().ToString();
    QuerySpec spec;
    spec.filter = WhereId(id);
    spec.aggregates = {{AggFunc::kCount, "", "cnt"}};
    auto result = engine->Query(txn->get(), "events", spec);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    (void)engine->Abort(txn->get());
    return result.ok() ? result->column(0).Int64At(0) : -1;
  }
};

// --- EpochLease unit behavior --------------------------------------------

TEST_F(FailoverTest, LeaseClaimRenewAndSupersede) {
  common::SimClock clock(1'000'000);
  storage::MemoryObjectStore store(&clock);
  FailoverOptions options;
  options.lease_duration_micros = 5'000'000;
  options.node_name = "a";
  EpochLease a(&store, "catalog/lease", &clock, options);
  options.node_name = "b";
  EpochLease b(&store, "catalog/lease", &clock, options);

  // Virgin store: A claims epoch 1 and can renew.
  ASSERT_TRUE(a.Claim().ok());
  EXPECT_TRUE(a.held());
  EXPECT_EQ(a.epoch(), 1u);
  EXPECT_EQ(a.expires_at(), clock.Now() + 5'000'000);
  clock.Advance(1'000'000);
  ASSERT_TRUE(a.Renew().ok());
  EXPECT_EQ(a.renewals(), 1u);
  EXPECT_EQ(a.expires_at(), clock.Now() + 5'000'000);

  // B's claim is an administrative takeover: no expiry wait, epoch 2.
  ASSERT_TRUE(b.Claim().ok());
  EXPECT_EQ(b.epoch(), 2u);

  // A's next renewal loses the CAS: FailedPrecondition naming the winner,
  // and A no longer considers itself the holder.
  Status lost = a.Renew();
  ASSERT_TRUE(lost.IsFailedPrecondition()) << lost.ToString();
  EXPECT_NE(lost.message().find("epoch 2"), std::string::npos)
      << lost.ToString();
  EXPECT_FALSE(a.held());

  // The read surface agrees with the blob.
  auto info = b.Read();
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->epoch, 2u);
  EXPECT_EQ(info->owner, "b");
  EXPECT_EQ(info->expires_at, b.expires_at());
}

TEST_F(FailoverTest, SealNewestSegmentFencesTheIncumbentAppender) {
  common::SimClock clock(1'000'000);
  storage::MemoryObjectStore store(&clock);
  catalog::CatalogJournalOptions options;
  options.records_per_segment = 64;
  catalog::CatalogJournal journal(&store, options);
  ASSERT_TRUE(journal.Recover().ok());
  journal.set_epoch(1);
  for (uint64_t seq = 1; seq <= 5; ++seq) {
    ASSERT_TRUE(journal.Append(seq, {{"k" + std::to_string(seq), "v"}}).ok());
  }

  auto sealed = replica::SealNewestSegment(&store, options, /*new_epoch=*/2);
  ASSERT_TRUE(sealed.ok()) << sealed.status().ToString();
  ASSERT_FALSE(sealed->empty());

  // The incumbent's next append targets its cached generation, loses the
  // CAS, and the journal self-fences (not merely poisons).
  Status fenced = journal.Append(6, {{"k6", "v"}});
  ASSERT_TRUE(fenced.IsFailedPrecondition()) << fenced.ToString();
  EXPECT_NE(fenced.message().find("fenced"), std::string::npos);
  EXPECT_TRUE(journal.fenced());
  // And stays fenced: the state is terminal for this process.
  EXPECT_TRUE(journal.Append(7, {{"k7", "v"}}).IsFailedPrecondition());

  // On-disk shape: stamps for epoch 1, a seal carrying epoch 2, nothing
  // after the seal.
  std::vector<ScannedFrame> frames = ScanJournal(&store, options);
  ASSERT_FALSE(frames.empty());
  EXPECT_EQ(frames.back().kind, jf::FrameKind::kEpoch);
  EXPECT_TRUE(frames.back().seal);
  EXPECT_EQ(frames.back().epoch, 2u);
  AssertNoEpochInterleaving(frames);

  // An empty journal has nothing to seal and reports that distinctly.
  storage::MemoryObjectStore empty_store(&clock);
  auto none = replica::SealNewestSegment(&empty_store, options, 2);
  ASSERT_TRUE(none.ok());
  EXPECT_TRUE(none->empty());
}

// --- Tentpole: promotion + fencing end to end ----------------------------

TEST_F(FailoverTest, PromoteTakesOverAndFencesOldPrimary) {
  common::SimClock clock(1'000'000);
  storage::MemoryObjectStore store(&clock);
  auto primary = MustOpenOn(BaseOptions(), &store, &clock);
  auto replica = MustOpenOn(ReplicaOptionsOf(BaseOptions()), &store, &clock);

  ASSERT_TRUE(primary->CreateTable("events", EventsSchema()).ok());
  for (int64_t i = 0; i < 8; ++i) {
    ASSERT_TRUE(InsertOne(primary.get(), i).ok()) << i;
  }
  EXPECT_EQ(primary->GetFailoverStatus().role, "primary");
  EXPECT_EQ(primary->GetFailoverStatus().epoch, 1u);
  EXPECT_EQ(replica->role(), EngineRole::kReplica);

  // Promote with part of the tail deliberately undrained: the last few
  // commits reach the new primary only through the promotion drain.
  ASSERT_TRUE(replica->replica()->PollOnce().ok());
  ASSERT_TRUE(InsertOne(primary.get(), 8).ok());
  ASSERT_TRUE(InsertOne(primary.get(), 9).ok());

  auto promoted = replica->Promote();
  ASSERT_TRUE(promoted.ok()) << promoted.status().ToString();
  EXPECT_EQ(promoted->epoch, 2u);
  EXPECT_GE(promoted->tail_records, 2u);
  EXPECT_FALSE(promoted->sealed_segment.empty());
  EXPECT_EQ(replica->role(), EngineRole::kPrimary);
  EXPECT_EQ(replica->GetFailoverStatus().role, "primary");
  EXPECT_EQ(replica->GetFailoverStatus().promotions, 1u);

  // Every commit the old primary acked is visible on the new one.
  for (int64_t i = 0; i < 10; ++i) {
    EXPECT_EQ(CountId(replica.get(), i), 1) << i;
  }
  // The new primary serves writes.
  ASSERT_TRUE(InsertOne(replica.get(), 100).ok());
  EXPECT_EQ(CountId(replica.get(), 100), 1);

  // The old primary's next commit loses the journal CAS against the
  // sealed segment and the engine self-fences from the commit path.
  Status fenced_write = InsertOne(primary.get(), 200);
  ASSERT_TRUE(fenced_write.IsFailedPrecondition()) << fenced_write.ToString();
  EXPECT_NE(fenced_write.message().find("fenced"), std::string::npos);
  EXPECT_EQ(primary->role(), EngineRole::kFenced);

  // Fenced: every further write dies at CheckWritable; reads still serve.
  Status rejected = InsertOne(primary.get(), 201);
  ASSERT_TRUE(rejected.IsFailedPrecondition()) << rejected.ToString();
  EXPECT_NE(rejected.message().find("fenced"), std::string::npos);
  ASSERT_TRUE(primary->CreateTable("t2", EventsSchema())
                  .status()
                  .IsFailedPrecondition());
  EXPECT_EQ(CountId(primary.get(), 0), 1);  // pre-fence state readable

  FailoverStatus fs = primary->GetFailoverStatus();
  EXPECT_EQ(fs.role, "fenced");
  EXPECT_TRUE(fs.fenced);
  EXPECT_FALSE(fs.fence_reason.empty());
  EXPECT_FALSE(fs.lease_held);

  // Neither the fenced epoch's stamps nor its records appear after the
  // seal; epochs are monotone across the whole journal.
  AssertNoEpochInterleaving(ScanJournal(&store, BaseOptions().journal_options));

  // The new primary's post-promotion commits carry epoch-2 stamps.
  std::vector<ScannedFrame> frames =
      ScanJournal(&store, BaseOptions().journal_options);
  bool saw_epoch2_stamp = false;
  for (const auto& frame : frames) {
    if (frame.kind == jf::FrameKind::kEpoch && !frame.seal &&
        frame.epoch == 2) {
      saw_epoch2_stamp = true;
    }
  }
  EXPECT_TRUE(saw_epoch2_stamp);
}

TEST_F(FailoverTest, HeartbeatLeaseLossFencesPrimaryBeforeItWrites) {
  common::SimClock clock(1'000'000);
  storage::MemoryObjectStore store(&clock);
  auto primary = MustOpenOn(BaseOptions(), &store, &clock);
  ASSERT_TRUE(primary->CreateTable("events", EventsSchema()).ok());
  ASSERT_TRUE(primary->HeartbeatOnce().ok());  // renews while unchallenged

  // Another node administratively takes the lease (epoch 2).
  FailoverOptions options;
  options.node_name = "usurper";
  EpochLease usurper(&store, "catalog/lease", &clock, options);
  ASSERT_TRUE(usurper.Claim().ok());

  // The next heartbeat loses its renewal CAS and fences the engine on the
  // control path — before any write had to die on the data path.
  Status beat = primary->HeartbeatOnce();
  ASSERT_TRUE(beat.IsFailedPrecondition()) << beat.ToString();
  EXPECT_EQ(primary->role(), EngineRole::kFenced);
  EXPECT_EQ(primary->GetFailoverStatus().lease_losses, 1u);
  EXPECT_TRUE(InsertOne(primary.get(), 0).IsFailedPrecondition());
  // Fenced heartbeats report the terminal state rather than renewing.
  EXPECT_TRUE(primary->HeartbeatOnce().IsFailedPrecondition());
}

TEST_F(FailoverTest, AutoPromoteOnObservedLeaseExpiry) {
  common::SimClock clock(1'000'000);
  storage::MemoryObjectStore store(&clock);
  EngineOptions primary_options = BaseOptions();
  primary_options.failover.lease_duration_micros = 5'000'000;
  auto primary = MustOpenOn(primary_options, &store, &clock);
  ASSERT_TRUE(primary->CreateTable("events", EventsSchema()).ok());
  ASSERT_TRUE(InsertOne(primary.get(), 1).ok());

  EngineOptions replica_options = ReplicaOptionsOf(BaseOptions());
  replica_options.failover.auto_promote = true;
  auto replica = MustOpenOn(replica_options, &store, &clock);

  // Lease still valid: the heartbeat observes it and does NOT promote.
  ASSERT_TRUE(replica->HeartbeatOnce().ok());
  EXPECT_EQ(replica->role(), EngineRole::kReplica);

  // Primary goes silent past its lease: the next observation promotes.
  clock.Advance(6'000'000);
  ASSERT_TRUE(replica->HeartbeatOnce().ok());
  EXPECT_EQ(replica->role(), EngineRole::kPrimary);
  EXPECT_EQ(replica->GetFailoverStatus().epoch, 2u);
  EXPECT_EQ(CountId(replica.get(), 1), 1);
  EXPECT_TRUE(InsertOne(primary.get(), 2).IsFailedPrecondition());
}

// --- Chaos matrix: crash points through the handoff ----------------------

/// For every instant the promoting process can die, and every instant the
/// primary's commit pipeline can die with a concurrent writer in flight:
/// discard the victim (its in-memory state is intentionally undefined
/// after a fired crash point), promote a fresh replica, and check the
/// three failover invariants.
TEST_F(FailoverTest, PromotionCrashMatrix) {
  const char* kPoints[] = {
      common::crash::kPromoteClaimed,
      common::crash::kPromoteSealed,
      common::crash::kPromoteReplayed,
      common::crash::kPromoteWritable,
  };
  for (const char* point : kPoints) {
    SCOPED_TRACE(point);
    common::CrashPoints::Disarm();
    common::SimClock clock(1'000'000);
    storage::MemoryObjectStore store(&clock);
    auto primary = MustOpenOn(BaseOptions(), &store, &clock);
    ASSERT_TRUE(primary->CreateTable("events", EventsSchema()).ok());

    // A concurrent writer racks up acked commits; everything it acked
    // must survive the entire botched-then-retried handoff. Joined before
    // the promotion so the acked set is exact.
    std::set<int64_t> acked;
    std::mutex acked_mu;
    std::thread writer([&] {
      for (int64_t i = 0; i < 10; ++i) {
        if (InsertOne(primary.get(), i).ok()) {
          std::lock_guard<std::mutex> lock(acked_mu);
          acked.insert(i);
        }
      }
    });
    writer.join();
    ASSERT_EQ(acked.size(), 10u);

    // First promotion attempt dies at the armed instant.
    auto doomed = MustOpenOn(ReplicaOptionsOf(BaseOptions()), &store, &clock);
    ASSERT_TRUE(doomed->replica()->PollOnce().ok());
    common::CrashPoints::Arm(point);
    auto crashed = doomed->Promote();
    ASSERT_FALSE(crashed.ok());
    EXPECT_NE(crashed.status().message().find("crash point"),
              std::string::npos)
        << crashed.status().ToString();
    doomed.reset();  // the dead promoter

    // A fresh replica retries the handoff and must fully succeed, at an
    // epoch above anything the dead promoter claimed.
    auto successor =
        MustOpenOn(ReplicaOptionsOf(BaseOptions()), &store, &clock);
    auto promoted = successor->Promote();
    ASSERT_TRUE(promoted.ok()) << promoted.status().ToString();
    EXPECT_GE(promoted->epoch, 3u);

    // Invariant 1: no acked-commit loss.
    for (int64_t id : acked) {
      EXPECT_EQ(CountId(successor.get(), id), 1) << "lost acked id " << id;
    }
    // The new primary serves writes.
    ASSERT_TRUE(InsertOne(successor.get(), 1000).ok());

    // Invariant 3: the old primary fences on its next write and keeps
    // serving reads.
    Status fenced = InsertOne(primary.get(), 2000);
    ASSERT_TRUE(fenced.IsFailedPrecondition()) << fenced.ToString();
    EXPECT_EQ(primary->role(), EngineRole::kFenced);
    EXPECT_EQ(CountId(primary.get(), 0), 1);

    // Invariant 2: no two-epoch interleaving after the seal.
    AssertNoEpochInterleaving(
        ScanJournal(&store, BaseOptions().journal_options));
  }
}

TEST_F(FailoverTest, CommitPipelineCrashMatrix) {
  const char* kPoints[] = {
      common::crash::kCommitBatchFormed,
      common::crash::kCommitBatchAppended,
      common::crash::kCommitBatchInstalled,
  };
  for (const char* point : kPoints) {
    SCOPED_TRACE(point);
    common::CrashPoints::Disarm();
    common::SimClock clock(1'000'000);
    storage::MemoryObjectStore store(&clock);
    auto primary = MustOpenOn(BaseOptions(), &store, &clock);
    ASSERT_TRUE(primary->CreateTable("events", EventsSchema()).ok());
    auto replica = MustOpenOn(ReplicaOptionsOf(BaseOptions()), &store, &clock);

    // The writer dies mid-commit at the armed pipeline instant; commits
    // before it are acked, the crashed one is not (even if durable — the
    // acked-loss invariant is one-directional). skip=3 lets a few batches
    // ack first so the acked set is non-trivial.
    common::CrashPoints::Arm(point, /*skip=*/3);
    std::set<int64_t> acked;
    std::mutex acked_mu;
    std::thread writer([&] {
      for (int64_t i = 0; i < 10; ++i) {
        Status st = InsertOne(primary.get(), i);
        if (!st.ok()) break;  // the simulated process death
        std::lock_guard<std::mutex> lock(acked_mu);
        acked.insert(i);
      }
    });
    writer.join();
    EXPECT_LT(acked.size(), 10u) << "crash point never fired";

    // The primary is dead. Promote the replica over whatever journal tail
    // the crash left behind.
    primary.reset();
    auto promoted = replica->Promote();
    ASSERT_TRUE(promoted.ok()) << promoted.status().ToString();
    EXPECT_EQ(replica->role(), EngineRole::kPrimary);

    // Invariant 1: every acked commit survived. (A durable-but-unacked
    // commit MAY also be visible — commit.batch.appended/installed — and
    // that is correct: durability point reached.)
    for (int64_t id : acked) {
      EXPECT_EQ(CountId(replica.get(), id), 1) << "lost acked id " << id;
    }
    ASSERT_TRUE(InsertOne(replica.get(), 1000).ok());
    AssertNoEpochInterleaving(
        ScanJournal(&store, BaseOptions().journal_options));
  }
}

// --- Satellite: SET MAX_STALENESS ----------------------------------------

TEST_F(FailoverTest, MaxStalenessBoundsReplicaReads) {
  common::SimClock clock(1'000'000);
  storage::MemoryObjectStore store(&clock);
  auto primary = MustOpenOn(BaseOptions(), &store, &clock);
  auto replica = MustOpenOn(ReplicaOptionsOf(BaseOptions()), &store, &clock);
  ASSERT_TRUE(primary->CreateTable("events", EventsSchema()).ok());
  ASSERT_TRUE(InsertOne(primary.get(), 1).ok());
  ASSERT_TRUE(replica->replica()->PollOnce().ok());

  sql::SqlSession session(replica.get());
  auto set = session.Execute("SET MAX_STALENESS 50;");
  ASSERT_TRUE(set.ok()) << set.status().ToString();
  EXPECT_EQ(set->message, "SET MAX_STALENESS 50 ms");
  EXPECT_EQ(session.max_staleness_micros(), 50'000);

  // Fresh enough: the read serves straight off the watermark.
  auto fresh = session.Execute("SELECT * FROM events;");
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  EXPECT_EQ(fresh->batch.num_rows(), 1u);

  // The replica falls behind the bound while the primary commits: the
  // next SELECT forces a catch-up poll and sees the new row without any
  // explicit PollOnce from the test.
  ASSERT_TRUE(InsertOne(primary.get(), 2).ok());
  clock.Advance(60'000);
  auto caught_up = session.Execute("SELECT * FROM events;");
  ASSERT_TRUE(caught_up.ok()) << caught_up.status().ToString();
  EXPECT_EQ(caught_up->batch.num_rows(), 2u);
  EXPECT_GE(replica->MetricsSnapshot().counter("replica.staleness_catchups"),
            1u);

  // A stopped tailer can never meet the bound again: Unavailable, not a
  // silently stale answer.
  replica->replica()->Stop();
  clock.Advance(60'000);
  auto unavailable = session.Execute("SELECT * FROM events;");
  ASSERT_FALSE(unavailable.ok());
  EXPECT_TRUE(unavailable.status().IsUnavailable())
      << unavailable.status().ToString();

  // Turning the bound off restores watermark reads on the stopped tailer.
  ASSERT_TRUE(session.Execute("SET MAX_STALENESS 0;").ok());
  auto unbounded = session.Execute("SELECT * FROM events;");
  ASSERT_TRUE(unbounded.ok()) << unbounded.status().ToString();
  EXPECT_EQ(unbounded->batch.num_rows(), 2u);
}

// --- Satellite: SQL surface + DMV ----------------------------------------

TEST_F(FailoverTest, PromoteStatementAndDmFailoverView) {
  common::SimClock clock(1'000'000);
  storage::MemoryObjectStore store(&clock);
  auto primary = MustOpenOn(BaseOptions(), &store, &clock);
  ASSERT_TRUE(primary->CreateTable("events", EventsSchema()).ok());
  ASSERT_TRUE(InsertOne(primary.get(), 1).ok());
  auto replica = MustOpenOn(ReplicaOptionsOf(BaseOptions()), &store, &clock);

  // PROMOTE is rejected on a primary...
  sql::SqlSession primary_session(primary.get());
  auto wrong = primary_session.Execute("PROMOTE;");
  ASSERT_FALSE(wrong.ok());
  EXPECT_TRUE(wrong.status().IsFailedPrecondition());

  // ...and the replica's dm_failover shows its role before the handoff.
  sql::SqlSession session(replica.get());
  auto before = session.Execute("SELECT role FROM sys.dm_failover;");
  ASSERT_TRUE(before.ok()) << before.status().ToString();
  ASSERT_EQ(before->batch.num_rows(), 1u);
  EXPECT_EQ(before->batch.column(0).StringAt(0), "replica");

  auto promoted = session.Execute("PROMOTE;");
  ASSERT_TRUE(promoted.ok()) << promoted.status().ToString();
  EXPECT_NE(promoted->message.find("PROMOTE (epoch 2"), std::string::npos)
      << promoted->message;

  auto after = session.Execute(
      "SELECT role, epoch, promotions FROM sys.dm_failover;");
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  ASSERT_EQ(after->batch.num_rows(), 1u);
  EXPECT_EQ(after->batch.column(0).StringAt(0), "primary");
  EXPECT_EQ(after->batch.column(1).Int64At(0), 2);
  EXPECT_EQ(after->batch.column(2).Int64At(0), 1);

  // The new primary takes SQL writes; the fenced one reports through its
  // own dm_failover.
  ASSERT_TRUE(
      session.Execute("INSERT INTO events VALUES (7, 707);").ok());
  auto fenced_write =
      primary_session.Execute("INSERT INTO events VALUES (8, 808);");
  ASSERT_FALSE(fenced_write.ok());
  auto fenced_view = primary_session.Execute(
      "SELECT role, fenced FROM sys.dm_failover;");
  ASSERT_TRUE(fenced_view.ok());
  EXPECT_EQ(fenced_view->batch.column(0).StringAt(0), "fenced");
  EXPECT_EQ(fenced_view->batch.column(1).Int64At(0), 1);
}

// --- Durable path: promotion over a shared directory ----------------------

/// The on-disk twin of PromoteTakesOverAndFencesOldPrimary: two engines
/// share one data_dir (the sql_shell HA quickstart shape). A durable
/// replica's one store handle is read-only until Promote() flips it
/// writable ahead of the lease claim and the segment seal — this is the
/// regression test for promotion failing with "read-only object store:
/// StageBlock rejected for catalog/lease".
TEST_F(FailoverTest, DurablePromoteFlipsItsStoreWritable) {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  const std::filesystem::path data_dir =
      std::filesystem::path(::testing::TempDir()) /
      (std::string("polaris_failover_") + info->name());
  std::filesystem::remove_all(data_dir);

  EngineOptions options = BaseOptions();
  options.data_dir = data_dir.string();
  auto primary_opened = PolarisEngine::Open(options);
  ASSERT_TRUE(primary_opened.ok()) << primary_opened.status().ToString();
  auto primary = std::move(*primary_opened);
  ASSERT_TRUE(primary->CreateTable("events", EventsSchema()).ok());
  for (int64_t id = 0; id < 3; ++id) {
    ASSERT_TRUE(InsertOne(primary.get(), id).ok());
  }

  auto replica_opened = PolarisEngine::Open(ReplicaOptionsOf(options));
  ASSERT_TRUE(replica_opened.ok()) << replica_opened.status().ToString();
  auto replica = std::move(*replica_opened);

  auto promoted = replica->Promote();
  ASSERT_TRUE(promoted.ok()) << promoted.status().ToString();
  EXPECT_EQ(promoted->epoch, 2u);
  EXPECT_FALSE(promoted->sealed_segment.empty());

  // No acked-commit loss, and the successor owns the directory.
  for (int64_t id = 0; id < 3; ++id) {
    EXPECT_EQ(CountId(replica.get(), id), 1) << "lost durable row " << id;
  }
  ASSERT_TRUE(InsertOne(replica.get(), 50).ok());

  // The old primary fences on its next append (CAS loss against the
  // sealed segment) but keeps serving reads.
  Status fenced = InsertOne(primary.get(), 99);
  ASSERT_TRUE(fenced.IsFailedPrecondition()) << fenced.ToString();
  EXPECT_NE(fenced.message().find("fenced"), std::string::npos)
      << fenced.ToString();
  EXPECT_EQ(primary->role(), EngineRole::kFenced);
  EXPECT_EQ(CountId(primary.get(), 0), 1);

  primary.reset();
  replica.reset();
  std::filesystem::remove_all(data_dir);
}

/// A durable replica whose promotion fails at the lease claim stays a
/// replica in full: its one store handle still rejects writes, its role
/// is unchanged, and it keeps serving reads. The claim's writes fail by
/// injection here, which Claim reports as final like a lost CAS race.
TEST_F(FailoverTest, FailedDurablePromotionLeavesStoreReadOnly) {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  const std::filesystem::path data_dir =
      std::filesystem::path(::testing::TempDir()) /
      (std::string("polaris_failover_") + info->name());
  std::filesystem::remove_all(data_dir);

  EngineOptions options = BaseOptions();
  options.data_dir = data_dir.string();
  auto primary_opened = PolarisEngine::Open(options);
  ASSERT_TRUE(primary_opened.ok()) << primary_opened.status().ToString();
  auto primary = std::move(*primary_opened);
  ASSERT_TRUE(primary->CreateTable("events", EventsSchema()).ok());
  ASSERT_TRUE(InsertOne(primary.get(), 1).ok());

  auto winner_opened = PolarisEngine::Open(ReplicaOptionsOf(options));
  ASSERT_TRUE(winner_opened.ok()) << winner_opened.status().ToString();
  auto winner = std::move(*winner_opened);
  auto loser_opened = PolarisEngine::Open(ReplicaOptionsOf(options));
  ASSERT_TRUE(loser_opened.ok()) << loser_opened.status().ToString();
  auto loser = std::move(*loser_opened);

  auto won = winner->Promote();
  ASSERT_TRUE(won.ok()) << won.status().ToString();
  ASSERT_TRUE(InsertOne(winner.get(), 2).ok());

  storage::FaultPolicy refuse_writes;
  refuse_writes.write_failure_probability = 1.0;
  loser->fault_store()->set_policy(refuse_writes);
  auto lost = loser->Promote();
  ASSERT_FALSE(lost.ok());
  loser->fault_store()->set_policy(storage::FaultPolicy{});

  EXPECT_EQ(loser->role(), EngineRole::kReplica);
  Status write = loser->base_store()->Put("probe/after_failed_promote", "x");
  EXPECT_TRUE(write.IsFailedPrecondition()) << write.ToString();
  // Still a working replica: it tails the winner's commit and reads it.
  ASSERT_TRUE(loser->replica()->PollOnce().ok());
  EXPECT_EQ(CountId(loser.get(), 1), 1);
  EXPECT_EQ(CountId(loser.get(), 2), 1);
  Status dml = InsertOne(loser.get(), 3);
  EXPECT_TRUE(dml.IsFailedPrecondition()) << dml.ToString();

  loser.reset();
  winner.reset();
  primary.reset();
  std::filesystem::remove_all(data_dir);
}

// --- Satellite: deterministic teardown vs in-flight promotion ------------

/// TSan regression for the shutdown ordering: a replica with a live
/// heartbeat thread and auto-promote races engine destruction against an
/// in-flight (or about-to-start) promotion. The destructor must (a) never
/// free members under a running Promote, and (b) never lose a Stop to a
/// promotion-started heartbeat thread.
TEST_F(FailoverTest, TeardownRacesInFlightPromotion) {
  for (int round = 0; round < 8; ++round) {
    common::SimClock clock(1'000'000);
    storage::MemoryObjectStore store(&clock);
    EngineOptions primary_options = BaseOptions();
    primary_options.failover.lease_duration_micros = 1'000'000;
    auto primary = MustOpenOn(primary_options, &store, &clock);
    ASSERT_TRUE(primary->CreateTable("events", EventsSchema()).ok());
    ASSERT_TRUE(InsertOne(primary.get(), round).ok());

    EngineOptions replica_options = ReplicaOptionsOf(BaseOptions());
    replica_options.failover.auto_promote = true;
    // Real heartbeat thread, aggressive cadence: promotion can begin at
    // any instant relative to the destructor below.
    replica_options.failover.heartbeat_period_micros = 100;
    auto replica = MustOpenOn(replica_options, &store, &clock);

    // Expire the primary's lease on the virtual clock so the heartbeat
    // thread's next observation triggers auto-promote.
    clock.Advance(2'000'000);
    if (round % 2 == 1) {
      // Odd rounds give the promotion a head start; even rounds tear down
      // immediately, racing the very first heartbeat.
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    replica.reset();  // must not deadlock, UAF, or leak a running thread
    primary.reset();
  }
}

}  // namespace
}  // namespace polaris::engine
