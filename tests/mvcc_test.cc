// Unit tests for the MVCC catalog store: visibility rules, the anomalies
// Snapshot Isolation must prevent (dirty read, non-repeatable read,
// phantom), first-committer-wins conflicts, RCSI and Serializable modes.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <future>
#include <thread>

#include "catalog/mvcc.h"
#include "common/clock.h"
#include "common/trace_context.h"

namespace polaris::catalog {
namespace {

using common::Status;

std::optional<std::string> Get(MvccStore& store, MvccTransaction* txn,
                               const std::string& key) {
  auto result = store.Get(txn, key);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return *result;
}

TEST(MvccTest, ReadYourOwnWrites) {
  MvccStore store;
  auto txn = store.Begin();
  ASSERT_TRUE(store.Put(txn.get(), "k", "v1").ok());
  EXPECT_EQ(Get(store, txn.get(), "k"), "v1");
  ASSERT_TRUE(store.Delete(txn.get(), "k").ok());
  EXPECT_EQ(Get(store, txn.get(), "k"), std::nullopt);
}

TEST(MvccTest, CommittedWritesVisibleToLaterTransactions) {
  MvccStore store;
  auto t1 = store.Begin();
  ASSERT_TRUE(store.Put(t1.get(), "k", "v").ok());
  ASSERT_TRUE(store.Commit(t1.get()).ok());
  auto t2 = store.Begin();
  EXPECT_EQ(Get(store, t2.get(), "k"), "v");
}

TEST(MvccTest, NoDirtyReads) {
  MvccStore store;
  auto writer = store.Begin();
  ASSERT_TRUE(store.Put(writer.get(), "k", "uncommitted").ok());
  auto reader = store.Begin();
  EXPECT_EQ(Get(store, reader.get(), "k"), std::nullopt);
}

TEST(MvccTest, NoNonRepeatableReads) {
  MvccStore store;
  auto setup = store.Begin();
  ASSERT_TRUE(store.Put(setup.get(), "k", "v1").ok());
  ASSERT_TRUE(store.Commit(setup.get()).ok());

  auto reader = store.Begin();
  EXPECT_EQ(Get(store, reader.get(), "k"), "v1");
  auto writer = store.Begin();
  ASSERT_TRUE(store.Put(writer.get(), "k", "v2").ok());
  ASSERT_TRUE(store.Commit(writer.get()).ok());
  // Snapshot reader still sees v1 after the concurrent commit.
  EXPECT_EQ(Get(store, reader.get(), "k"), "v1");
}

TEST(MvccTest, NoPhantoms) {
  MvccStore store;
  auto setup = store.Begin();
  ASSERT_TRUE(store.Put(setup.get(), "p/1", "a").ok());
  ASSERT_TRUE(store.Commit(setup.get()).ok());

  auto reader = store.Begin();
  auto scan1 = store.Scan(reader.get(), "p/");
  ASSERT_TRUE(scan1.ok());
  EXPECT_EQ(scan1->size(), 1u);

  auto writer = store.Begin();
  ASSERT_TRUE(store.Put(writer.get(), "p/2", "b").ok());
  ASSERT_TRUE(store.Commit(writer.get()).ok());

  auto scan2 = store.Scan(reader.get(), "p/");
  ASSERT_TRUE(scan2.ok());
  EXPECT_EQ(scan2->size(), 1u);  // no phantom row appears
}

TEST(MvccTest, FirstCommitterWinsOnWriteWriteConflict) {
  MvccStore store;
  auto t1 = store.Begin();
  auto t2 = store.Begin();
  ASSERT_TRUE(store.Put(t1.get(), "k", "from-t1").ok());
  ASSERT_TRUE(store.Put(t2.get(), "k", "from-t2").ok());
  ASSERT_TRUE(store.Commit(t1.get()).ok());
  EXPECT_TRUE(store.Commit(t2.get()).IsConflict());
  auto t3 = store.Begin();
  EXPECT_EQ(Get(store, t3.get(), "k"), "from-t1");
}

TEST(MvccTest, ConflictAlsoFiresOnDeleteVsPut) {
  MvccStore store;
  auto setup = store.Begin();
  ASSERT_TRUE(store.Put(setup.get(), "k", "v").ok());
  ASSERT_TRUE(store.Commit(setup.get()).ok());
  auto t1 = store.Begin();
  auto t2 = store.Begin();
  ASSERT_TRUE(store.Delete(t1.get(), "k").ok());
  ASSERT_TRUE(store.Put(t2.get(), "k", "v2").ok());
  ASSERT_TRUE(store.Commit(t1.get()).ok());
  EXPECT_TRUE(store.Commit(t2.get()).IsConflict());
}

TEST(MvccTest, DisjointWritesDoNotConflict) {
  MvccStore store;
  auto t1 = store.Begin();
  auto t2 = store.Begin();
  ASSERT_TRUE(store.Put(t1.get(), "a", "1").ok());
  ASSERT_TRUE(store.Put(t2.get(), "b", "2").ok());
  EXPECT_TRUE(store.Commit(t1.get()).ok());
  EXPECT_TRUE(store.Commit(t2.get()).ok());
}

TEST(MvccTest, AbortDiscardsWrites) {
  MvccStore store;
  auto t1 = store.Begin();
  ASSERT_TRUE(store.Put(t1.get(), "k", "v").ok());
  store.Abort(t1.get());
  auto t2 = store.Begin();
  EXPECT_EQ(Get(store, t2.get(), "k"), std::nullopt);
}

TEST(MvccTest, FinishedTransactionRejectsFurtherUse) {
  MvccStore store;
  auto t1 = store.Begin();
  ASSERT_TRUE(store.Commit(t1.get()).ok());
  EXPECT_TRUE(store.Put(t1.get(), "k", "v").IsFailedPrecondition());
  EXPECT_TRUE(store.Get(t1.get(), "k").status().IsFailedPrecondition());
  EXPECT_TRUE(store.Commit(t1.get()).IsFailedPrecondition());
}

TEST(MvccTest, ScanMergesOwnWritesInOrder) {
  MvccStore store;
  auto setup = store.Begin();
  ASSERT_TRUE(store.Put(setup.get(), "p/b", "committed-b").ok());
  ASSERT_TRUE(store.Put(setup.get(), "p/d", "committed-d").ok());
  ASSERT_TRUE(store.Commit(setup.get()).ok());

  auto txn = store.Begin();
  ASSERT_TRUE(store.Put(txn.get(), "p/a", "own-a").ok());
  ASSERT_TRUE(store.Put(txn.get(), "p/b", "own-b").ok());   // overwrite
  ASSERT_TRUE(store.Delete(txn.get(), "p/d").ok());         // delete
  ASSERT_TRUE(store.Put(txn.get(), "p/e", "own-e").ok());
  auto scan = store.Scan(txn.get(), "p/");
  ASSERT_TRUE(scan.ok());
  ASSERT_EQ(scan->size(), 3u);
  EXPECT_EQ((*scan)[0], (std::pair<std::string, std::string>{"p/a", "own-a"}));
  EXPECT_EQ((*scan)[1], (std::pair<std::string, std::string>{"p/b", "own-b"}));
  EXPECT_EQ((*scan)[2], (std::pair<std::string, std::string>{"p/e", "own-e"}));
}

TEST(MvccTest, RcsiSeesLatestCommitted) {
  MvccStore store;
  auto setup = store.Begin();
  ASSERT_TRUE(store.Put(setup.get(), "k", "v1").ok());
  ASSERT_TRUE(store.Commit(setup.get()).ok());

  auto rcsi = store.Begin(IsolationMode::kReadCommittedSnapshot);
  EXPECT_EQ(Get(store, rcsi.get(), "k"), "v1");
  auto writer = store.Begin();
  ASSERT_TRUE(store.Put(writer.get(), "k", "v2").ok());
  ASSERT_TRUE(store.Commit(writer.get()).ok());
  // RCSI is not restricted to its begin snapshot (§4.4.2).
  EXPECT_EQ(Get(store, rcsi.get(), "k"), "v2");
}

TEST(MvccTest, SnapshotAllowsWriteSkew) {
  // The classic SI non-serializable interleaving: each txn reads the
  // other's key and writes its own; both commit under SI (§4.4.2).
  MvccStore store;
  auto setup = store.Begin();
  ASSERT_TRUE(store.Put(setup.get(), "x", "0").ok());
  ASSERT_TRUE(store.Put(setup.get(), "y", "0").ok());
  ASSERT_TRUE(store.Commit(setup.get()).ok());

  auto t1 = store.Begin();
  auto t2 = store.Begin();
  ASSERT_EQ(Get(store, t1.get(), "y"), "0");
  ASSERT_EQ(Get(store, t2.get(), "x"), "0");
  ASSERT_TRUE(store.Put(t1.get(), "x", "1").ok());
  ASSERT_TRUE(store.Put(t2.get(), "y", "1").ok());
  EXPECT_TRUE(store.Commit(t1.get()).ok());
  EXPECT_TRUE(store.Commit(t2.get()).ok());  // SI permits this
}

TEST(MvccTest, SerializableRejectsWriteSkew) {
  MvccStore store;
  auto setup = store.Begin();
  ASSERT_TRUE(store.Put(setup.get(), "x", "0").ok());
  ASSERT_TRUE(store.Put(setup.get(), "y", "0").ok());
  ASSERT_TRUE(store.Commit(setup.get()).ok());

  auto t1 = store.Begin(IsolationMode::kSerializable);
  auto t2 = store.Begin(IsolationMode::kSerializable);
  ASSERT_EQ(Get(store, t1.get(), "y"), "0");
  ASSERT_EQ(Get(store, t2.get(), "x"), "0");
  ASSERT_TRUE(store.Put(t1.get(), "x", "1").ok());
  ASSERT_TRUE(store.Put(t2.get(), "y", "1").ok());
  EXPECT_TRUE(store.Commit(t1.get()).ok());
  // t2's read of "x" was invalidated by t1's commit.
  EXPECT_TRUE(store.Commit(t2.get()).IsConflict());
}

TEST(MvccTest, SerializableRejectsPhantomIntoScannedRange) {
  MvccStore store;
  auto t1 = store.Begin(IsolationMode::kSerializable);
  auto scan = store.Scan(t1.get(), "r/");
  ASSERT_TRUE(scan.ok());
  ASSERT_TRUE(store.Put(t1.get(), "out", "x").ok());

  auto t2 = store.Begin();
  ASSERT_TRUE(store.Put(t2.get(), "r/new", "phantom").ok());
  ASSERT_TRUE(store.Commit(t2.get()).ok());
  EXPECT_TRUE(store.Commit(t1.get()).IsConflict());
}

TEST(MvccTest, CommitHookRunsInsideSequencingGate) {
  MvccStore store;
  auto t1 = store.Begin();
  ASSERT_TRUE(store.Put(t1.get(), "a", "1").ok());
  bool hook_ran = false;
  ASSERT_TRUE(store
                  .Commit(t1.get(),
                          [&](MvccStore::CommitContext* ctx) {
                            hook_ran = true;
                            EXPECT_EQ(ctx->commit_seq(), 1u);
                            EXPECT_EQ(ctx->ReadLatest("a"), "1");  // own write
                            ctx->Write("hooked", "yes");
                            return Status::OK();
                          })
                  .ok());
  EXPECT_TRUE(hook_ran);
  auto t2 = store.Begin();
  EXPECT_EQ(Get(store, t2.get(), "hooked"), "yes");
}

TEST(MvccTest, CommitHookFailureAbortsTransaction) {
  MvccStore store;
  auto t1 = store.Begin();
  ASSERT_TRUE(store.Put(t1.get(), "a", "1").ok());
  EXPECT_TRUE(store
                  .Commit(t1.get(),
                          [](MvccStore::CommitContext*) {
                            return Status::Internal("hook says no");
                          })
                  .IsInternal());
  auto t2 = store.Begin();
  EXPECT_EQ(Get(store, t2.get(), "a"), std::nullopt);
}

TEST(MvccTest, VacuumDropsDeadVersions) {
  MvccStore store;
  for (int i = 0; i < 5; ++i) {
    auto txn = store.Begin();
    ASSERT_TRUE(store.Put(txn.get(), "k", "v" + std::to_string(i)).ok());
    ASSERT_TRUE(store.Commit(txn.get()).ok());
  }
  uint64_t removed = store.Vacuum(store.LatestCommitSeq());
  EXPECT_EQ(removed, 4u);
  auto txn = store.Begin();
  EXPECT_EQ(Get(store, txn.get(), "k"), "v4");
}

TEST(MvccTest, ConcurrentCommittersSerializeCorrectly) {
  MvccStore store;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 50;
  std::vector<std::thread> threads;
  std::atomic<int> conflicts{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&store, &conflicts, t] {
      for (int i = 0; i < kPerThread; ++i) {
        auto txn = store.Begin();
        auto current = store.Get(txn.get(), "counter");
        ASSERT_TRUE(current.ok());
        int value =
            current->has_value() ? std::stoi(current->value()) : 0;
        ASSERT_TRUE(
            store.Put(txn.get(), "counter", std::to_string(value + 1)).ok());
        ASSERT_TRUE(store
                        .Put(txn.get(),
                             "t" + std::to_string(t) + "/" + std::to_string(i),
                             "x")
                        .ok());
        Status st = store.Commit(txn.get());
        if (st.IsConflict()) conflicts.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  // The counter equals the number of successful increments: lost updates
  // are impossible under first-committer-wins.
  auto txn = store.Begin();
  auto final_value = store.Get(txn.get(), "counter");
  ASSERT_TRUE(final_value.ok());
  ASSERT_TRUE(final_value->has_value());
  // Lost updates are impossible under first-committer-wins: every
  // successful commit incremented the counter exactly once. (Whether any
  // conflicts occur depends on thread interleaving, so we only assert the
  // conservation invariant.)
  int committed = kThreads * kPerThread - conflicts.load();
  EXPECT_EQ(std::stoi(final_value->value()), committed);
}

// --- Commit-pipeline tests (group commit, priorities, deadlines) -----------

TEST(MvccTest, HookWritesDoNotPolluteTxnWhenListenerFails) {
  MvccStore store;
  store.SetCommitListener([](const std::vector<CommitRecord>&) {
    return Status::Internal("journal refused the batch");
  });
  auto txn = store.Begin();
  ASSERT_TRUE(store.Put(txn.get(), "user", "v").ok());
  Status st = store.Commit(txn.get(), [](MvccStore::CommitContext* ctx) {
    ctx->Write("hooked", "yes");
    return Status::OK();
  });
  EXPECT_TRUE(st.IsInternal());
  // The failed durability point must not leave the hook's write behind in
  // the transaction's own write set (write-set pollution regression).
  EXPECT_EQ(txn->written_keys(), std::vector<std::string>{"user"});
  auto reader = store.Begin();
  EXPECT_EQ(Get(store, reader.get(), "user"), std::nullopt);
  EXPECT_EQ(Get(store, reader.get(), "hooked"), std::nullopt);
  EXPECT_EQ(store.LatestCommitSeq(), 0u);
  EXPECT_EQ(store.PipelineStats().flush_failures, 1u);

  // A refused append is not poison: with a healthy listener the store keeps
  // committing, and the failed batch's sequence is left as a gap.
  store.SetCommitListener(
      [](const std::vector<CommitRecord>&) { return Status::OK(); });
  auto t2 = store.Begin();
  ASSERT_TRUE(store.Put(t2.get(), "k2", "v2").ok());
  ASSERT_TRUE(store.Commit(t2.get()).ok());
  EXPECT_EQ(store.LatestCommitSeq(), 2u);
}

TEST(MvccTest, HookFailureDoesNotConsumeItsSequence) {
  MvccStore store;
  auto t1 = store.Begin();
  ASSERT_TRUE(store.Put(t1.get(), "a", "1").ok());
  EXPECT_TRUE(store
                  .Commit(t1.get(),
                          [](MvccStore::CommitContext* ctx) {
                            ctx->Write("hooked", "x");
                            return Status::Internal("hook says no");
                          })
                  .IsInternal());
  EXPECT_EQ(t1->written_keys(), std::vector<std::string>{"a"});
  auto t2 = store.Begin();
  ASSERT_TRUE(store.Put(t2.get(), "b", "2").ok());
  ASSERT_TRUE(store.Commit(t2.get()).ok());
  // Unlike a failed durability batch, a hook failure happens before the
  // sequence is claimed, so the next commit gets seq 1 — no gap.
  EXPECT_EQ(store.LatestCommitSeq(), 1u);
}

TEST(MvccTest, ExpiredDeadlineFailsFastBeforeSequencing) {
  MvccStore store;
  common::SimClock clock;
  auto txn = store.Begin();
  ASSERT_TRUE(store.Put(txn.get(), "k", "v").ok());
  common::ScopedDeadline scoped(common::Deadline::After(&clock, 0));
  EXPECT_TRUE(store.Commit(txn.get()).IsDeadlineExceeded());
  EXPECT_TRUE(txn->finished());
  auto reader = store.Begin();
  EXPECT_EQ(Get(store, reader.get(), "k"), std::nullopt);
  EXPECT_EQ(store.PipelineStats().commits, 0u);
}

TEST(MvccTest, ExpiredWaiterDetachesWithoutStallingTheBatch) {
  MvccStore store;
  common::SimClock clock;
  std::atomic<int> listener_calls{0};
  std::promise<void> entered_promise;
  std::future<void> entered = entered_promise.get_future();
  std::promise<void> release_promise;
  std::shared_future<void> release(release_promise.get_future());
  store.SetCommitListener([&](const std::vector<CommitRecord>&) {
    if (listener_calls.fetch_add(1) == 0) {
      entered_promise.set_value();
      release.wait();  // hold the first batch at the durability point
    }
    return Status::OK();
  });

  auto ta = store.Begin();
  ASSERT_TRUE(store.Put(ta.get(), "a", "1").ok());
  std::thread leader([&] { EXPECT_TRUE(store.Commit(ta.get()).ok()); });
  entered.wait();  // the leader is now blocked inside the listener

  auto tb = store.Begin();
  ASSERT_TRUE(store.Put(tb.get(), "b", "1").ok());
  Status b_status;
  std::thread follower([&] {
    common::ScopedDeadline scoped(common::Deadline::After(&clock, 5'000));
    b_status = store.Commit(tb.get());
  });
  // Wait until the follower is sequenced and parked at the commit barrier,
  // then expire its deadline (virtual time; the leader is unbounded).
  while (store.PipelineStats().pending < 2) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  clock.Advance(10'000);
  follower.join();
  EXPECT_TRUE(b_status.IsDeadlineExceeded());
  EXPECT_EQ(store.PipelineStats().waiters_detached, 1u);
  // The detached commit is in doubt, not rolled back: nothing is installed
  // while the first batch is still at the durability point...
  EXPECT_EQ(store.LatestCommitSeq(), 0u);

  release_promise.set_value();
  leader.join();
  // ...and once the leader's batch lands it drains the orphaned entry, so
  // the detached commit resolves as applied without a waiter.
  auto reader = store.Begin();
  EXPECT_EQ(Get(store, reader.get(), "a"), "1");
  EXPECT_EQ(Get(store, reader.get(), "b"), "1");
  EXPECT_EQ(store.PipelineStats().pending, 0u);
}

TEST(MvccTest, LeaderBatchesQueuedCommitsIntoOneFlush) {
  MvccStore store;
  constexpr int kThreads = 6;
  std::atomic<int> listener_calls{0};
  store.SetCommitListener([&](const std::vector<CommitRecord>&) {
    if (listener_calls.fetch_add(1) == 0) {
      // Hold the first flush (one record: the leader sequenced and claimed
      // the queue before anyone else reached the gate) until every other
      // committer is sequenced behind it; the second flush must then carry
      // all of them as one batch.
      for (int spin = 0; spin < 10'000; ++spin) {
        if (store.PipelineStats().pending >= kThreads) break;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
    return Status::OK();
  });
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&store, t] {
      auto txn = store.Begin();
      ASSERT_TRUE(store.Put(txn.get(), "k" + std::to_string(t), "v").ok());
      EXPECT_TRUE(store.Commit(txn.get()).ok());
    });
  }
  for (auto& th : threads) th.join();
  auto stats = store.PipelineStats();
  EXPECT_EQ(stats.commits, static_cast<uint64_t>(kThreads));
  EXPECT_EQ(stats.batches, 2u);
  EXPECT_EQ(stats.max_batch, static_cast<uint64_t>(kThreads - 1));
  EXPECT_EQ(stats.pending, 0u);
  EXPECT_EQ(store.LatestCommitSeq(), static_cast<uint64_t>(kThreads));
  auto reader = store.Begin();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(Get(store, reader.get(), "k" + std::to_string(t)), "v");
  }
}

TEST(MvccTest, HighPriorityCommitterSequencesFirst) {
  MvccStore store;
  std::mutex order_mu;
  std::map<std::string, uint64_t> seq_of;
  store.SetCommitListener([&](const std::vector<CommitRecord>& records) {
    std::lock_guard<std::mutex> lock(order_mu);
    for (const auto& record : records) {
      for (const auto& [key, value] : *record.writes) {
        (void)value;
        seq_of[key] = record.commit_seq;
      }
    }
    return Status::OK();
  });

  std::promise<void> hook_entered_promise;
  std::future<void> hook_entered = hook_entered_promise.get_future();
  std::promise<void> hook_release_promise;
  std::shared_future<void> hook_release(hook_release_promise.get_future());
  auto ta = store.Begin();
  ASSERT_TRUE(store.Put(ta.get(), "a", "1").ok());
  std::thread a_thread([&] {
    EXPECT_TRUE(store
                    .Commit(ta.get(),
                            [&](MvccStore::CommitContext*) {
                              hook_entered_promise.set_value();
                              hook_release.wait();
                              return Status::OK();
                            })
                    .ok());
  });
  hook_entered.wait();  // A now occupies the sequencing gate

  auto tb = store.Begin();
  ASSERT_TRUE(store.Put(tb.get(), "b", "1").ok());
  std::thread b_thread([&] { EXPECT_TRUE(store.Commit(tb.get()).ok()); });
  while (store.PipelineStats().gate_waiters < 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  auto tc = store.Begin();
  tc->set_priority(CommitPriority::kHigh);
  ASSERT_TRUE(store.Put(tc.get(), "c", "1").ok());
  std::thread c_thread([&] { EXPECT_TRUE(store.Commit(tc.get()).ok()); });
  while (store.PipelineStats().gate_waiters < 2) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  hook_release_promise.set_value();
  a_thread.join();
  b_thread.join();
  c_thread.join();

  // C arrived at the gate after B but sequenced ahead of it.
  ASSERT_EQ(seq_of.size(), 3u);
  EXPECT_LT(seq_of["c"], seq_of["b"]);
  EXPECT_LT(seq_of["a"], seq_of["c"]);
  EXPECT_EQ(store.PipelineStats().high_priority, 1u);
}

TEST(MvccTest, SerializablePrefixValidationHappensOutsideTheGate) {
  MvccStore store;
  for (int i = 0; i < 300; ++i) {
    auto setup = store.Begin();
    ASSERT_TRUE(
        store.Put(setup.get(), "p/" + std::to_string(i), "v").ok());
    ASSERT_TRUE(store.Commit(setup.get()).ok());
  }
  auto txn = store.Begin(IsolationMode::kSerializable);
  auto scan = store.Scan(txn.get(), "p/");
  ASSERT_TRUE(scan.ok());
  ASSERT_EQ(scan->size(), 300u);
  ASSERT_TRUE(store.Put(txn.get(), "summary", "300").ok());
  EXPECT_TRUE(store.Commit(txn.get()).ok());
  // The wide range validation ran as pre-validation outside the gate; the
  // gate-side re-check was served by the recent-commit ring, never by a
  // full rescan.
  auto stats = store.PipelineStats();
  EXPECT_GE(stats.prevalidated, 1u);
  EXPECT_EQ(stats.revalidation_fallbacks, 0u);
}

/// A commit hook that assigns ids from ScanLatest (the manifest
/// next-id pattern) must see every commit sequenced ahead of it. A batch
/// installed and dequeued between a scan of the installed rows and a scan
/// of the pending queue used to be invisible to both, so two commits took
/// the same id and one acknowledged commit overwrote the other.
TEST(MvccTest, ScanLatestSeesBatchesInstalledMidScan) {
  MvccStore store;
  // A short durability point keeps batches pending while later commits
  // run their hooks, so installs race those hooks' scans.
  store.SetCommitListener([](const std::vector<CommitRecord>&) {
    std::this_thread::yield();
    return Status::OK();
  });
  constexpr int kThreads = 16;
  constexpr int kPerThread = 200;
  std::atomic<int> committed{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&store, &committed] {
      for (int i = 0; i < kPerThread; ++i) {
        auto txn = store.Begin();
        Status st = store.Commit(txn.get(), [](MvccStore::CommitContext* ctx) {
          char key[32];
          std::snprintf(key, sizeof(key), "id/%08zu",
                        ctx->ScanLatest("id/").size());
          ctx->Write(key, "x");
          return Status::OK();
        });
        if (st.ok()) committed.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  auto reader = store.Begin();
  auto ids = store.Scan(reader.get(), "id/");
  ASSERT_TRUE(ids.ok()) << ids.status().ToString();
  EXPECT_EQ(committed.load(), kThreads * kPerThread);
  EXPECT_EQ(static_cast<int>(ids->size()), committed.load())
      << "an acknowledged commit's id was taken again by a later commit";
}

TEST(MvccTest, GateRevalidationCatchesSequencedButUninstalledConflicts) {
  MvccStore store;
  std::atomic<int> listener_calls{0};
  std::promise<void> entered_promise;
  std::future<void> entered = entered_promise.get_future();
  std::promise<void> release_promise;
  std::shared_future<void> release(release_promise.get_future());
  store.SetCommitListener([&](const std::vector<CommitRecord>&) {
    if (listener_calls.fetch_add(1) == 0) {
      entered_promise.set_value();
      release.wait();
    }
    return Status::OK();
  });

  auto reader = store.Begin(IsolationMode::kSerializable);
  auto scan = store.Scan(reader.get(), "p/");
  ASSERT_TRUE(scan.ok());
  ASSERT_TRUE(store.Put(reader.get(), "out", "x").ok());

  auto writer = store.Begin();
  ASSERT_TRUE(store.Put(writer.get(), "p/new", "phantom").ok());
  std::thread w([&] { EXPECT_TRUE(store.Commit(writer.get()).ok()); });
  entered.wait();
  // The writer is sequenced but not installed (its batch is held at the
  // durability point), so the reader's pre-validation against the
  // installed store passes — only the gate-side re-check against the
  // pending queue can see the phantom.
  EXPECT_TRUE(store.Commit(reader.get()).IsConflict());
  release_promise.set_value();
  w.join();
  auto t2 = store.Begin();
  EXPECT_EQ(Get(store, t2.get(), "p/new"), "phantom");
}

}  // namespace
}  // namespace polaris::catalog
