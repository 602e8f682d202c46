// End-to-end tests of the PolarisEngine facade: DDL, CRUD, queries,
// transaction retries, time travel, zero-copy clone, backup/restore.

#include <gtest/gtest.h>

#include <functional>

#include "engine/engine.h"

namespace polaris::engine {
namespace {

using catalog::IsolationMode;
using common::Status;
using exec::AggFunc;
using exec::CompareOp;
using exec::Conjunction;
using exec::Predicate;
using format::ColumnType;
using format::RecordBatch;
using format::Schema;
using format::Value;

Schema OrdersSchema() {
  return Schema({{"order_id", ColumnType::kInt64},
                 {"amount", ColumnType::kDouble},
                 {"status", ColumnType::kString}});
}

RecordBatch Orders(std::vector<std::tuple<int64_t, double, std::string>> rows) {
  RecordBatch batch{OrdersSchema()};
  for (auto& [id, amount, status] : rows) {
    EXPECT_TRUE(batch
                    .AppendRow({Value::Int64(id), Value::Double(amount),
                                Value::String(status)})
                    .ok());
  }
  return batch;
}

Conjunction WhereStatus(const std::string& s) {
  Conjunction conj;
  conj.predicates.push_back(
      Predicate::Make("status", CompareOp::kEq, Value::String(s)));
  return conj;
}

class EngineTest : public ::testing::Test {
 protected:
  EngineTest() : engine_(MakeOptions()) {}

  static EngineOptions MakeOptions() {
    EngineOptions options;
    options.num_cells = 4;
    options.worker_threads = 2;
    return options;
  }

  /// COUNT(*) of a table in a fresh transaction.
  int64_t Count(const std::string& table) {
    auto txn = engine_.Begin();
    EXPECT_TRUE(txn.ok());
    QuerySpec spec;
    spec.aggregates = {{AggFunc::kCount, "", "cnt"}};
    auto result = engine_.Query(txn->get(), table, spec);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    (void)engine_.Abort(txn->get());
    return result->column(0).Int64At(0);
  }

  double SumAmount(const std::string& table) {
    auto txn = engine_.Begin();
    EXPECT_TRUE(txn.ok());
    QuerySpec spec;
    spec.aggregates = {{AggFunc::kSum, "amount", "total"}};
    auto result = engine_.Query(txn->get(), table, spec);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    (void)engine_.Abort(txn->get());
    if (result->column(0).IsNull(0)) return 0.0;
    return result->column(0).DoubleAt(0);
  }

  PolarisEngine engine_;
};

TEST_F(EngineTest, CreateInsertQueryRoundTrip) {
  ASSERT_TRUE(engine_.CreateTable("orders", OrdersSchema()).ok());
  ASSERT_TRUE(engine_
                  .RunInTransaction([&](txn::Transaction* txn) {
                    return engine_
                        .Insert(txn, "orders",
                                Orders({{1, 10.0, "open"},
                                        {2, 20.0, "open"},
                                        {3, 30.0, "shipped"}}))
                        .status();
                  })
                  .ok());
  EXPECT_EQ(Count("orders"), 3);
  EXPECT_DOUBLE_EQ(SumAmount("orders"), 60.0);

  // Filtered projection query.
  auto txn = engine_.Begin();
  QuerySpec spec;
  spec.projection = {"order_id"};
  spec.filter = WhereStatus("open");
  auto result = engine_.Query(txn->get(), "orders", spec);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->num_rows(), 2u);
}

TEST_F(EngineTest, CreateTableTwiceFails) {
  ASSERT_TRUE(engine_.CreateTable("t", OrdersSchema()).ok());
  EXPECT_TRUE(engine_.CreateTable("t", OrdersSchema()).status().IsAlreadyExists());
}

TEST_F(EngineTest, QueryUnknownTableFails) {
  auto txn = engine_.Begin();
  EXPECT_TRUE(
      engine_.Query(txn->get(), "ghost", QuerySpec{}).status().IsNotFound());
}

TEST_F(EngineTest, DeleteAndUpdate) {
  ASSERT_TRUE(engine_.CreateTable("orders", OrdersSchema()).ok());
  ASSERT_TRUE(engine_
                  .RunInTransaction([&](txn::Transaction* txn) {
                    return engine_
                        .Insert(txn, "orders",
                                Orders({{1, 10, "open"},
                                        {2, 20, "open"},
                                        {3, 30, "shipped"}}))
                        .status();
                  })
                  .ok());
  // DELETE WHERE status = 'shipped'.
  ASSERT_TRUE(engine_
                  .RunInTransaction([&](txn::Transaction* txn) {
                    auto n = engine_.Delete(txn, "orders",
                                            WhereStatus("shipped"));
                    POLARIS_RETURN_IF_ERROR(n.status());
                    EXPECT_EQ(*n, 1u);
                    return Status::OK();
                  })
                  .ok());
  EXPECT_EQ(Count("orders"), 2);
  // UPDATE amount += 5 WHERE status = 'open'.
  ASSERT_TRUE(engine_
                  .RunInTransaction([&](txn::Transaction* txn) {
                    std::vector<exec::Assignment> set = {
                        {"amount", exec::Assignment::Kind::kAddDouble,
                         Value::Double(5.0)}};
                    auto n = engine_.Update(txn, "orders",
                                            WhereStatus("open"), set);
                    POLARIS_RETURN_IF_ERROR(n.status());
                    EXPECT_EQ(*n, 2u);
                    return Status::OK();
                  })
                  .ok());
  EXPECT_DOUBLE_EQ(SumAmount("orders"), 40.0);
}

TEST_F(EngineTest, DeleteAndUpdateSpanningRowGroupsOfOneFile) {
  // One cell and four-row row groups: the 24 rows land in one data file
  // of six row groups, so every statement below matches rows in several
  // row groups of the same file and must write one DV for it.
  EngineOptions options = MakeOptions();
  options.num_cells = 1;
  options.file_options.rows_per_row_group = 4;
  PolarisEngine engine(options);
  ASSERT_TRUE(engine.CreateTable("orders", OrdersSchema()).ok());
  std::vector<std::tuple<int64_t, double, std::string>> rows;
  for (int64_t id = 0; id < 24; ++id) {
    rows.emplace_back(id, static_cast<double>(id),
                      id % 3 == 0 ? "shipped" : "open");
  }
  ASSERT_TRUE(engine
                  .RunInTransaction([&](txn::Transaction* txn) {
                    return engine.Insert(txn, "orders", Orders(rows)).status();
                  })
                  .ok());
  auto count_and_sum = [&](int64_t* count, double* sum) {
    auto txn = engine.Begin();
    ASSERT_TRUE(txn.ok());
    QuerySpec spec;
    spec.aggregates = {{AggFunc::kCount, "", "cnt"},
                       {AggFunc::kSum, "amount", "total"}};
    auto result = engine.Query(txn->get(), "orders", spec);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    *count = result->column(0).Int64At(0);
    *sum = result->column(1).DoubleAt(0);
    (void)engine.Abort(txn->get());
  };
  auto run = [&](const std::function<common::Result<uint64_t>(
                     txn::Transaction*)>& statement,
                 uint64_t expected_affected) {
    Status st = engine.RunInTransaction([&](txn::Transaction* txn) {
      auto n = statement(txn);
      POLARIS_RETURN_IF_ERROR(n.status());
      EXPECT_EQ(*n, expected_affected);
      return Status::OK();
    });
    ASSERT_TRUE(st.ok()) << st.ToString();
  };
  int64_t count = 0;
  double sum = 0;

  // Every third row, in all six row groups; the file has no DV yet.
  run([&](txn::Transaction* txn) {
        return engine.Delete(txn, "orders", WhereStatus("shipped"));
      },
      8);
  count_and_sum(&count, &sum);
  EXPECT_EQ(count, 16);
  EXPECT_DOUBLE_EQ(sum, 276.0 - 84.0);

  // The open rows of the last three row groups, merged into the DV the
  // first delete wrote.
  Conjunction upper;
  upper.predicates.push_back(
      Predicate::Make("order_id", CompareOp::kGe, Value::Int64(12)));
  run([&](txn::Transaction* txn) {
        return engine.Delete(txn, "orders", upper);
      },
      8);
  count_and_sum(&count, &sum);
  EXPECT_EQ(count, 8);
  EXPECT_DOUBLE_EQ(sum, 48.0);

  // The eight survivors span the first three row groups.
  run([&](txn::Transaction* txn) {
        return engine.Update(txn, "orders", WhereStatus("open"),
                             {{"amount", exec::Assignment::Kind::kAddDouble,
                               Value::Double(100.0)}});
      },
      8);
  count_and_sum(&count, &sum);
  EXPECT_EQ(count, 8);
  EXPECT_DOUBLE_EQ(sum, 848.0);
}

TEST_F(EngineTest, GroupByQuery) {
  ASSERT_TRUE(engine_.CreateTable("orders", OrdersSchema()).ok());
  ASSERT_TRUE(engine_
                  .RunInTransaction([&](txn::Transaction* txn) {
                    return engine_
                        .Insert(txn, "orders",
                                Orders({{1, 10, "a"},
                                        {2, 20, "a"},
                                        {3, 5, "b"}}))
                        .status();
                  })
                  .ok());
  auto txn = engine_.Begin();
  QuerySpec spec;
  spec.group_by = {"status"};
  spec.aggregates = {{AggFunc::kSum, "amount", "total"},
                     {AggFunc::kCount, "", "cnt"}};
  auto result = engine_.Query(txn->get(), "orders", spec);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->num_rows(), 2u);
  std::map<std::string, double> totals;
  for (size_t r = 0; r < result->num_rows(); ++r) {
    totals[result->column(0).StringAt(r)] = result->column(1).DoubleAt(r);
  }
  EXPECT_DOUBLE_EQ(totals["a"], 30.0);
  EXPECT_DOUBLE_EQ(totals["b"], 5.0);
}

TEST_F(EngineTest, EmptyTableAggregatesAndScans) {
  ASSERT_TRUE(engine_.CreateTable("empty", OrdersSchema()).ok());
  EXPECT_EQ(Count("empty"), 0);
  auto txn = engine_.Begin();
  QuerySpec spec;
  spec.projection = {"order_id"};
  auto result = engine_.Query(txn->get(), "empty", spec);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->num_rows(), 0u);
  EXPECT_EQ(result->num_columns(), 1u);
}

TEST_F(EngineTest, RunInTransactionRetriesConflicts) {
  ASSERT_TRUE(engine_.CreateTable("t", OrdersSchema()).ok());
  ASSERT_TRUE(engine_
                  .RunInTransaction([&](txn::Transaction* txn) {
                    return engine_
                        .Insert(txn, "t", Orders({{1, 1, "x"}, {2, 2, "y"}}))
                        .status();
                  })
                  .ok());
  // Interleave two deletes so the second body sees a conflict and retries.
  int attempts = 0;
  auto victim = engine_.Begin();
  ASSERT_TRUE(victim.ok());
  ASSERT_TRUE(engine_.Delete(victim->get(), "t", WhereStatus("x")).ok());
  Status st = engine_.RunInTransaction([&](txn::Transaction* txn) {
    ++attempts;
    POLARIS_RETURN_IF_ERROR(
        engine_.Delete(txn, "t", WhereStatus("y")).status());
    if (attempts == 1) {
      // Commit the competing transaction first: ours must conflict.
      POLARIS_RETURN_IF_ERROR(engine_.Commit(victim->get()));
    }
    return Status::OK();
  });
  EXPECT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(attempts, 2);
  EXPECT_EQ(Count("t"), 0);
}

TEST_F(EngineTest, SnapshotIsolationAcrossEngineApi) {
  ASSERT_TRUE(engine_.CreateTable("t", OrdersSchema()).ok());
  auto reader = engine_.Begin();
  ASSERT_TRUE(reader.ok());
  auto initial = engine_.Query(reader->get(), "t", QuerySpec{});
  ASSERT_TRUE(initial.ok());
  EXPECT_EQ(initial->num_rows(), 0u);
  ASSERT_TRUE(engine_
                  .RunInTransaction([&](txn::Transaction* txn) {
                    return engine_.Insert(txn, "t", Orders({{1, 1, "x"}}))
                        .status();
                  })
                  .ok());
  // The old reader's snapshot still sees zero rows.
  QuerySpec spec;
  spec.aggregates = {{AggFunc::kCount, "", "cnt"}};
  auto result = engine_.Query(reader->get(), "t", spec);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->column(0).Int64At(0), 0);
}

TEST_F(EngineTest, TimeTravelQueryAsOf) {
  ASSERT_TRUE(engine_.CreateTable("t", OrdersSchema()).ok());
  ASSERT_TRUE(engine_
                  .RunInTransaction([&](txn::Transaction* txn) {
                    return engine_.Insert(txn, "t", Orders({{1, 10, "v1"}}))
                        .status();
                  })
                  .ok());
  common::Micros v1_time = engine_.clock()->Now();
  engine_.clock()->Advance(10'000);
  ASSERT_TRUE(engine_
                  .RunInTransaction([&](txn::Transaction* txn) {
                    POLARIS_RETURN_IF_ERROR(
                        engine_.Delete(txn, "t", WhereStatus("v1")).status());
                    return engine_.Insert(txn, "t", Orders({{2, 20, "v2"}}))
                        .status();
                  })
                  .ok());
  EXPECT_EQ(Count("t"), 1);
  auto txn = engine_.Begin();
  QuerySpec spec;
  spec.projection = {"status"};
  auto old_result = engine_.QueryAsOf(txn->get(), "t", v1_time, spec);
  ASSERT_TRUE(old_result.ok());
  ASSERT_EQ(old_result->num_rows(), 1u);
  EXPECT_EQ(old_result->column(0).StringAt(0), "v1");
}

TEST_F(EngineTest, ZeroCopyClone) {
  ASSERT_TRUE(engine_.CreateTable("src", OrdersSchema()).ok());
  ASSERT_TRUE(engine_
                  .RunInTransaction([&](txn::Transaction* txn) {
                    return engine_
                        .Insert(txn, "src", Orders({{1, 10, "a"}, {2, 20, "b"}}))
                        .status();
                  })
                  .ok());
  auto store_stats_before =
      static_cast<storage::MemoryObjectStore*>(engine_.base_store())->stats();
  auto clone = engine_.CloneTable("src", "dst");
  ASSERT_TRUE(clone.ok()) << clone.status().ToString();
  // The clone wrote no data blobs (bytes_written unchanged): metadata only.
  auto store_stats_after =
      static_cast<storage::MemoryObjectStore*>(engine_.base_store())->stats();
  EXPECT_EQ(store_stats_after.bytes_written,
            store_stats_before.bytes_written);
  EXPECT_EQ(Count("dst"), 2);

  // The tables evolve independently after the clone (§6.2).
  ASSERT_TRUE(engine_
                  .RunInTransaction([&](txn::Transaction* txn) {
                    return engine_.Delete(txn, "dst", WhereStatus("a"))
                        .status();
                  })
                  .ok());
  EXPECT_EQ(Count("dst"), 1);
  EXPECT_EQ(Count("src"), 2);
  ASSERT_TRUE(engine_
                  .RunInTransaction([&](txn::Transaction* txn) {
                    return engine_.Insert(txn, "src", Orders({{3, 30, "c"}}))
                        .status();
                  })
                  .ok());
  EXPECT_EQ(Count("src"), 3);
  EXPECT_EQ(Count("dst"), 1);
}

TEST_F(EngineTest, CloneAsOfEarlierPoint) {
  ASSERT_TRUE(engine_.CreateTable("src", OrdersSchema()).ok());
  ASSERT_TRUE(engine_
                  .RunInTransaction([&](txn::Transaction* txn) {
                    return engine_.Insert(txn, "src", Orders({{1, 10, "a"}}))
                        .status();
                  })
                  .ok());
  common::Micros early = engine_.clock()->Now();
  engine_.clock()->Advance(1000);
  ASSERT_TRUE(engine_
                  .RunInTransaction([&](txn::Transaction* txn) {
                    return engine_.Insert(txn, "src", Orders({{2, 20, "b"}}))
                        .status();
                  })
                  .ok());
  auto clone = engine_.CloneTable("src", "old", early);
  ASSERT_TRUE(clone.ok());
  EXPECT_EQ(Count("old"), 1);
  EXPECT_EQ(Count("src"), 2);
}

TEST_F(EngineTest, BackupAndRestore) {
  ASSERT_TRUE(engine_.CreateTable("t", OrdersSchema()).ok());
  ASSERT_TRUE(engine_
                  .RunInTransaction([&](txn::Transaction* txn) {
                    return engine_.Insert(txn, "t", Orders({{1, 10, "keep"}}))
                        .status();
                  })
                  .ok());
  auto image = engine_.BackupDatabase();
  ASSERT_TRUE(image.ok());

  // Post-backup changes...
  ASSERT_TRUE(engine_
                  .RunInTransaction([&](txn::Transaction* txn) {
                    POLARIS_RETURN_IF_ERROR(
                        engine_.Insert(txn, "t", Orders({{2, 20, "new"}}))
                            .status());
                    return Status::OK();
                  })
                  .ok());
  ASSERT_TRUE(engine_.CreateTable("post_backup", OrdersSchema()).ok());
  EXPECT_EQ(Count("t"), 2);

  // ...are undone by the restore (zero data copies involved).
  ASSERT_TRUE(engine_.RestoreDatabase(*image).ok());
  EXPECT_EQ(Count("t"), 1);
  EXPECT_TRUE(engine_.GetTable("post_backup").status().IsNotFound());
}

TEST_F(EngineTest, RestoreRejectsCorruptImage) {
  EXPECT_TRUE(engine_.RestoreDatabase("garbage").IsCorruption());
}

TEST_F(EngineTest, MultiStatementExplicitTransaction) {
  ASSERT_TRUE(engine_.CreateTable("t", OrdersSchema()).ok());
  auto txn = engine_.Begin();
  ASSERT_TRUE(txn.ok());
  ASSERT_TRUE(engine_.Insert(txn->get(), "t", Orders({{1, 10, "a"}})).ok());
  // Statement 2 sees statement 1's rows.
  QuerySpec spec;
  spec.aggregates = {{AggFunc::kCount, "", "cnt"}};
  auto mid = engine_.Query(txn->get(), "t", spec);
  ASSERT_TRUE(mid.ok());
  EXPECT_EQ(mid->column(0).Int64At(0), 1);
  ASSERT_TRUE(engine_.Delete(txn->get(), "t", WhereStatus("a")).ok());
  auto after = engine_.Query(txn->get(), "t", spec);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->column(0).Int64At(0), 0);
  ASSERT_TRUE(engine_.Commit(txn->get()).ok());
  EXPECT_EQ(Count("t"), 0);
}

TEST_F(EngineTest, EngineStatsAggregateSubsystems) {
  auto before = engine_.Stats();
  EXPECT_EQ(before.tables, 0u);
  ASSERT_TRUE(engine_.CreateTable("t", OrdersSchema()).ok());
  ASSERT_TRUE(engine_
                  .RunInTransaction([&](txn::Transaction* txn) {
                    return engine_.Insert(txn, "t", Orders({{1, 1, "x"}}))
                        .status();
                  })
                  .ok());
  (void)Count("t");
  auto after = engine_.Stats();
  EXPECT_EQ(after.tables, 1u);
  EXPECT_GT(after.catalog_commit_seq, before.catalog_commit_seq);
  EXPECT_GT(after.store.bytes_written, before.store.bytes_written);
  EXPECT_GT(after.catalog_live_keys, before.catalog_live_keys);
  EXPECT_EQ(after.active_transactions, 0u);
}

TEST_F(EngineTest, QueryStatsReportScanAndJob) {
  ASSERT_TRUE(engine_.CreateTable("t", OrdersSchema()).ok());
  ASSERT_TRUE(engine_
                  .RunInTransaction([&](txn::Transaction* txn) {
                    RecordBatch big{OrdersSchema()};
                    for (int i = 0; i < 1000; ++i) {
                      EXPECT_TRUE(big
                                      .AppendRow({Value::Int64(i),
                                                  Value::Double(i),
                                                  Value::String("s")})
                                      .ok());
                    }
                    return engine_.Insert(txn, "t", big).status();
                  })
                  .ok());
  auto txn = engine_.Begin();
  QueryStats stats;
  auto result = engine_.Query(txn->get(), "t", QuerySpec{}, &stats);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->num_rows(), 1000u);
  EXPECT_GT(stats.scan.files_scanned, 0u);
  EXPECT_EQ(stats.scan.rows_output, 1000u);
  EXPECT_GT(stats.job.makespan_micros, 0);
  EXPECT_GT(stats.job.tasks_run, 0u);
}

}  // namespace
}  // namespace polaris::engine
