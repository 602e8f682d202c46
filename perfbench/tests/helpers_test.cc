// Tests for the benchmark's own helpers. Build and run:
//   cmake -S perfbench -B <dir> && cmake --build <dir> --target perfbench_test
//   <dir>/perfbench_test

#include <gtest/gtest.h>

#include <filesystem>
#include <map>

#include "blob_class.h"
#include "common/clock.h"
#include "counting_store.h"
#include "engine/engine.h"
#include "host_probe.h"
#include "layers.h"
#include "query_sql.h"
#include "sql/parser.h"
#include "sql/session.h"
#include "stats.h"
#include "storage/memory_object_store.h"
#include "storage/path_util.h"
#include "trickle_db.h"
#include "trickle_oracle.h"
#include "workloads.h"

namespace perfbench {
namespace {

using polaris::format::Value;
using polaris::sql::SqlSession;
using polaris::storage::PathUtil;

std::vector<double> Range(int n) {
  std::vector<double> v;
  for (int i = 1; i <= n; ++i) v.push_back(i);
  return v;
}

// --- Percentile rule -------------------------------------------------------

TEST(PercentileTest, NearestRankWithTenSamplesBeyond) {
  const Percentile p95 = PercentileOf(Range(200), 0.95);
  EXPECT_EQ(p95.value, 190);
  EXPECT_EQ(p95.beyond, 10u);
  EXPECT_TRUE(p95.supported);

  const Percentile short95 = PercentileOf(Range(199), 0.95);
  EXPECT_EQ(short95.beyond, 9u);
  EXPECT_FALSE(short95.supported);

  EXPECT_TRUE(PercentileOf(Range(20), 0.5).supported);
  EXPECT_FALSE(PercentileOf(Range(19), 0.5).supported);
  EXPECT_EQ(PercentileOf(Range(20), 0.5).value, 10);
}

TEST(PercentileTest, OrderDoesNotMatterAndEmptyIsUnsupported) {
  std::vector<double> shuffled = {5, 1, 4, 2, 3};
  EXPECT_EQ(PercentileOf(shuffled, 0.5).value, 3);
  EXPECT_EQ(PercentileOf(shuffled, 1.0).value, 5);
  const Percentile empty = PercentileOf({}, 0.5);
  EXPECT_EQ(empty.value, 0);
  EXPECT_EQ(empty.samples, 0u);
  EXPECT_FALSE(empty.supported);
  EXPECT_EQ(Median({4, 1, 3, 2}), 2.5);
}

// --- QuerySpec -> SQL ---------------------------------------------------------

TEST(QuerySqlTest, EveryTpchLikeQueryParsesBackToItsSpec) {
  for (const auto& q : polaris::bench::TpchLikeQueries()) {
    auto sql = RenderQuerySql("lineitem", q.spec);
    ASSERT_TRUE(sql.ok()) << q.name << ": " << sql.status().ToString();
    auto parsed = polaris::sql::Parse(*sql);
    ASSERT_TRUE(parsed.ok()) << *sql << ": " << parsed.status().ToString();
    EXPECT_EQ(parsed->table, "lineitem");
    EXPECT_TRUE(SameSpec(SpecFromParsed(*parsed), q.spec)) << *sql;
  }
}

TEST(QuerySqlTest, LiteralsKeepTheirTypes) {
  polaris::engine::QuerySpec spec;
  spec.projection = {"a", "b"};
  spec.filter.predicates = {
      polaris::exec::Predicate::Make("a", polaris::exec::CompareOp::kNe,
                                     Value::String("it's")),
      polaris::exec::Predicate::Make("b", polaris::exec::CompareOp::kLt,
                                     Value::Double(2.5)),
      polaris::exec::Predicate::Make("c", polaris::exec::CompareOp::kGe,
                                     Value::Double(10)),
      polaris::exec::Predicate::Make("d", polaris::exec::CompareOp::kEq,
                                     Value::Int64(-7))};
  auto sql = RenderQuerySql("t", spec);
  ASSERT_TRUE(sql.ok());
  auto parsed = polaris::sql::Parse(*sql);
  ASSERT_TRUE(parsed.ok()) << *sql;
  EXPECT_TRUE(SameSpec(SpecFromParsed(*parsed), spec)) << *sql;

  // A DOUBLE literal must not come back as an integer.
  polaris::engine::QuerySpec as_int = spec;
  as_int.filter.predicates[2].literal = Value::Int64(10);
  EXPECT_FALSE(SameSpec(SpecFromParsed(*parsed), as_int));
}

TEST(QuerySqlTest, RejectsLiteralsSqlCannotSpell) {
  polaris::engine::QuerySpec spec;
  spec.filter.predicates = {polaris::exec::Predicate::Make(
      "x", polaris::exec::CompareOp::kLt, Value::Double(1e300))};
  EXPECT_FALSE(RenderQuerySql("t", spec).ok());
}

// --- Blob classes -------------------------------------------------------------

TEST(BlobClassTest, PathLayout) {
  EXPECT_EQ(ClassifyBlob(PathUtil::DataFilePath(7, "g")), BlobClass::kData);
  EXPECT_EQ(ClassifyBlob(PathUtil::DeleteVectorPath(7, "g")), BlobClass::kDv);
  EXPECT_EQ(ClassifyBlob(PathUtil::ManifestPath(7, "g")), BlobClass::kManifest);
  EXPECT_EQ(ClassifyBlob(PathUtil::CheckpointPath(7, 3)),
            BlobClass::kLstCheckpoint);
  EXPECT_EQ(ClassifyBlob(PathUtil::PublishedDeltaLogPath("t", 1)),
            BlobClass::kDeltaLog);
  EXPECT_EQ(ClassifyBlob("catalog/journal/00000000000000000001.seg"),
            BlobClass::kJournal);
  EXPECT_EQ(ClassifyBlob("catalog/ckpt/00000000000000000001.ckpt"),
            BlobClass::kCatalogCheckpoint);
  EXPECT_EQ(ClassifyBlob("catalog/lease"), BlobClass::kOther);
  EXPECT_EQ(ClassifyBlob("root/tables/7/data/g.parquet"), BlobClass::kData);
  EXPECT_EQ(ClassifyBlob("mytables/7/data/g.parquet"), BlobClass::kOther);
}

TEST(BlobClassTest, EveryBlobAnEngineWritesIsClassified) {
  MemoryDb db;
  ASSERT_TRUE(db.Open().ok());
  SqlSession sql(db.engine.get());
  ASSERT_TRUE(sql.Execute("CREATE TABLE t (k BIGINT, v BIGINT)").ok());
  for (int i = 0; i < 12; ++i) {
    ASSERT_TRUE(sql.Execute("INSERT INTO t VALUES (" + std::to_string(i) +
                            ", 1), (" + std::to_string(i + 100) + ", 2)")
                    .ok());
  }
  ASSERT_TRUE(sql.Execute("DELETE FROM t WHERE k = 3").ok());
  auto meta = db.engine->GetTable("t");
  ASSERT_TRUE(meta.ok());
  ASSERT_TRUE(db.engine->sto()->ForceCheckpoint(meta->table_id).ok());
  ASSERT_TRUE(db.engine->sto()->PublishTable(meta->table_id).ok());
  ASSERT_TRUE(db.engine->CheckpointCatalog().ok());

  auto blobs = db.memory.List("");
  ASSERT_TRUE(blobs.ok());
  std::map<BlobClass, int> seen;
  for (const auto& blob : *blobs) {
    const BlobClass cls = ClassifyBlob(blob.path);
    ++seen[cls];
    if (cls == BlobClass::kOther) {
      // Only the epoch lease and the published table's shortcut are
      // neither data nor metadata the metrics track.
      EXPECT_TRUE(blob.path == "catalog/lease" ||
                  blob.path.find("_shortcut") != std::string::npos)
          << blob.path;
    }
  }
  for (BlobClass cls :
       {BlobClass::kData, BlobClass::kDv, BlobClass::kManifest,
        BlobClass::kLstCheckpoint, BlobClass::kJournal,
        BlobClass::kCatalogCheckpoint, BlobClass::kDeltaLog}) {
    EXPECT_GT(seen[cls], 0) << BlobClassName(cls);
  }

  // The counting store attributed written bytes to the same classes.
  const StoreCounts counts = db.store.Snapshot();
  EXPECT_GT(counts.bytes_written[static_cast<int>(BlobClass::kData)], 0u);
  EXPECT_GT(counts.bytes_written[static_cast<int>(BlobClass::kJournal)], 0u);
  EXPECT_GT(counts.writes, 0u);
}

// --- trickle_dml oracle ---------------------------------------------------------

TrickleConfig SmallConfig() {
  TrickleConfig config;
  config.sessions = 2;
  config.ops_per_session = 60;
  config.base_rows = 200;
  config.customers = 20;
  config.session_keys = 16;
  return config;
}

TEST(TrickleOracleTest, DeterministicFromTheSeed) {
  const TricklePlan a = PlanTrickle(SmallConfig(), 7);
  const TricklePlan b = PlanTrickle(SmallConfig(), 7);
  const TricklePlan c = PlanTrickle(SmallConfig(), 8);
  ASSERT_EQ(a.sessions.size(), 2u);
  for (size_t s = 0; s < a.sessions.size(); ++s) {
    ASSERT_EQ(a.sessions[s].size(), 60u);
    for (size_t i = 0; i < a.sessions[s].size(); ++i) {
      EXPECT_EQ(a.sessions[s][i].sql, b.sessions[s][i].sql);
    }
  }
  EXPECT_EQ(a.final_orders_sum, b.final_orders_sum);
  EXPECT_NE(a.final_orders_sum, c.final_orders_sum);
  EXPECT_EQ(a.write_ops + a.read_ops, 120u);
  for (const auto& ops : a.sessions) {
    for (const auto& op : ops) {
      if (op.kind == OpKind::kSelect) {
        EXPECT_LE(op.min_sum, op.max_sum);
      }
    }
  }
}

TEST(TrickleOracleTest, MatchesTheEngineRunSequentially) {
  const TrickleConfig config = SmallConfig();
  const uint64_t seed = 3;
  const TricklePlan plan = PlanTrickle(config, seed);
  MemoryDb db;
  ASSERT_TRUE(db.Open().ok());
  ASSERT_TRUE(LoadTrickleTables(db.engine.get(), config, seed).ok());
  SqlSession sql(db.engine.get());
  // Session 0 entirely, then session 1: every read must land in its
  // [min_sum, max_sum] window and every write must affect what the oracle
  // predicts.
  for (const auto& ops : plan.sessions) {
    for (const TrickleOp& op : ops) {
      auto r = sql.Execute(op.sql);
      ASSERT_TRUE(r.ok()) << op.sql << ": " << r.status().ToString();
      if (op.kind == OpKind::kSelect) {
        const Value v = r->batch.GetRow(0)[0];
        const int64_t sum = v.is_null ? 0 : v.i64;
        EXPECT_GE(sum, op.min_sum) << op.sql;
        EXPECT_LE(sum, op.max_sum) << op.sql;
      } else {
        EXPECT_EQ(r->affected_rows, op.expect_affected) << op.sql;
      }
    }
  }
  const auto verified = VerifyTrickleState(db.engine.get(), plan, 0);
  EXPECT_TRUE(verified.ok()) << verified.ToString();
  // One extra row the oracle does not know about is caught.
  ASSERT_TRUE(sql.Execute("INSERT INTO orders VALUES (-1, 0, 1)").ok());
  EXPECT_FALSE(VerifyTrickleState(db.engine.get(), plan, 0).ok());
  EXPECT_TRUE(VerifyTrickleState(db.engine.get(), plan, 1).ok());
}

// --- Host probe --------------------------------------------------------------

TEST(HostProbeTest, NormalizeScalesToTheReferenceProbe) {
  const double ref = HostProbe::kReferenceMs;
  EXPECT_DOUBLE_EQ(HostProbe::Normalize(100, ref), 100);
  // A host twice as slow doubles both the call and the probe.
  EXPECT_DOUBLE_EQ(HostProbe::Normalize(200, 2 * ref), 100);
  // A program twice as slow doubles only the call.
  EXPECT_DOUBLE_EQ(HostProbe::Normalize(200, ref), 200);
  EXPECT_EQ(HostProbe::Normalize(100, 0), 0);
}

TEST(HostProbeTest, RunsOverItsOwnFileTree) {
  const std::string dir = ::testing::TempDir() + "/perfbench_probe";
  HostProbe probe;
  ASSERT_TRUE(HostProbe::Create(dir, &probe).ok());
  size_t files = 0;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(dir)) {
    files += entry.is_regular_file();
  }
  EXPECT_EQ(files, 2048u);
  EXPECT_GT(probe.RunMs(), 0);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace perfbench
