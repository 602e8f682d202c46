// Property-based tests: a randomized workload driven against the engine
// is checked after every step against an in-memory oracle; plus
// representation-level properties (checkpoint equivalence, deletion-vector
// algebra) swept over seeds with parameterized gtest.

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "common/random.h"
#include "engine/engine.h"
#include "lst/checkpoint.h"
#include "lst/deletion_vector.h"
#include "lst/manifest_io.h"

namespace polaris {
namespace {

using common::Random;
using common::Status;
using exec::CompareOp;
using exec::Conjunction;
using exec::Predicate;
using format::ColumnType;
using format::RecordBatch;
using format::Schema;
using format::Value;

Schema KvSchema() {
  return Schema({{"k", ColumnType::kInt64}, {"v", ColumnType::kInt64}});
}

/// The oracle: a plain multiset of (k, v) rows with SQL-equivalent
/// semantics for the operations the workload performs.
class Oracle {
 public:
  void Insert(int64_t k, int64_t v) { rows_.insert({k, v}); }

  uint64_t DeleteRange(int64_t lo, int64_t hi) {
    uint64_t n = 0;
    for (auto it = rows_.begin(); it != rows_.end();) {
      if (it->first >= lo && it->first < hi) {
        it = rows_.erase(it);
        ++n;
      } else {
        ++it;
      }
    }
    return n;
  }

  uint64_t UpdateRange(int64_t lo, int64_t hi, int64_t delta) {
    std::multiset<std::pair<int64_t, int64_t>> next;
    uint64_t n = 0;
    for (const auto& [k, v] : rows_) {
      if (k >= lo && k < hi) {
        next.insert({k, v + delta});
        ++n;
      } else {
        next.insert({k, v});
      }
    }
    rows_ = std::move(next);
    return n;
  }

  const std::multiset<std::pair<int64_t, int64_t>>& rows() const {
    return rows_;
  }

 private:
  std::multiset<std::pair<int64_t, int64_t>> rows_;
};

Conjunction RangeFilter(int64_t lo, int64_t hi) {
  Conjunction conj;
  conj.predicates.push_back(
      Predicate::Make("k", CompareOp::kGe, Value::Int64(lo)));
  conj.predicates.push_back(
      Predicate::Make("k", CompareOp::kLt, Value::Int64(hi)));
  return conj;
}

std::multiset<std::pair<int64_t, int64_t>> ScanEngine(
    engine::PolarisEngine& engine, const std::string& table) {
  auto txn = engine.Begin();
  EXPECT_TRUE(txn.ok());
  auto batch = engine.Query(txn->get(), table, engine::QuerySpec{});
  EXPECT_TRUE(batch.ok()) << batch.status().ToString();
  (void)engine.Abort(txn->get());
  std::multiset<std::pair<int64_t, int64_t>> rows;
  for (size_t r = 0; r < batch->num_rows(); ++r) {
    rows.insert({batch->column(0).Int64At(r), batch->column(1).Int64At(r)});
  }
  return rows;
}

class RandomWorkloadTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomWorkloadTest, EngineMatchesOracleUnderRandomOps) {
  const uint64_t seed = GetParam();
  Random rng(seed);
  engine::EngineOptions options;
  options.num_cells = 4;
  options.worker_threads = 2;
  options.sto_options.min_file_rows = 2;
  options.sto_options.max_deleted_fraction = 0.3;
  options.sto_options.manifests_per_checkpoint = 5;
  engine::PolarisEngine engine(options);
  ASSERT_TRUE(engine.CreateTable("t", KvSchema()).ok());
  Oracle oracle;

  constexpr int kOps = 40;
  for (int op = 0; op < kOps; ++op) {
    engine.clock()->Advance(1000);
    switch (rng.Uniform(6)) {
      case 0:
      case 1: {  // insert a small batch (weighted x2: insert-heavy)
        int n = 1 + static_cast<int>(rng.Uniform(20));
        RecordBatch batch{KvSchema()};
        for (int i = 0; i < n; ++i) {
          int64_t k = rng.UniformRange(0, 99);
          int64_t v = rng.UniformRange(-50, 50);
          ASSERT_TRUE(
              batch.AppendRow({Value::Int64(k), Value::Int64(v)}).ok());
          oracle.Insert(k, v);
        }
        ASSERT_TRUE(engine
                        .RunInTransaction([&](txn::Transaction* txn) {
                          return engine.Insert(txn, "t", batch).status();
                        })
                        .ok());
        break;
      }
      case 2: {  // delete a key range
        int64_t lo = rng.UniformRange(0, 99);
        int64_t hi = lo + rng.UniformRange(1, 20);
        uint64_t expected = oracle.DeleteRange(lo, hi);
        uint64_t actual = 0;
        ASSERT_TRUE(engine
                        .RunInTransaction([&](txn::Transaction* txn) {
                          auto n = engine.Delete(txn, "t",
                                                 RangeFilter(lo, hi));
                          POLARIS_RETURN_IF_ERROR(n.status());
                          actual = *n;
                          return Status::OK();
                        })
                        .ok());
        EXPECT_EQ(actual, expected) << "op " << op << " seed " << seed;
        break;
      }
      case 3: {  // update a key range
        int64_t lo = rng.UniformRange(0, 99);
        int64_t hi = lo + rng.UniformRange(1, 20);
        int64_t delta = rng.UniformRange(-5, 5);
        uint64_t expected = oracle.UpdateRange(lo, hi, delta);
        uint64_t actual = 0;
        std::vector<exec::Assignment> set = {
            {"v", exec::Assignment::Kind::kAddInt64, Value::Int64(delta)}};
        ASSERT_TRUE(engine
                        .RunInTransaction([&](txn::Transaction* txn) {
                          auto n = engine.Update(txn, "t",
                                                 RangeFilter(lo, hi), set);
                          POLARIS_RETURN_IF_ERROR(n.status());
                          actual = *n;
                          return Status::OK();
                        })
                        .ok());
        EXPECT_EQ(actual, expected) << "op " << op << " seed " << seed;
        break;
      }
      case 4: {  // maintenance sweep (compaction and/or checkpoint)
        Status st = engine.sto()->RunOnce();
        ASSERT_TRUE(st.ok() || st.IsConflict()) << st.ToString();
        break;
      }
      case 5: {  // abort a transaction mid-flight: must be invisible
        auto txn = engine.Begin();
        ASSERT_TRUE(txn.ok());
        RecordBatch batch{KvSchema()};
        ASSERT_TRUE(
            batch.AppendRow({Value::Int64(7), Value::Int64(7)}).ok());
        ASSERT_TRUE(engine.Insert(txn->get(), "t", batch).ok());
        ASSERT_TRUE(engine.Abort(txn->get()).ok());
        break;
      }
    }
    // Invariant after every operation: engine contents == oracle.
    EXPECT_EQ(ScanEngine(engine, "t"), oracle.rows())
        << "divergence after op " << op << " (seed " << seed << ")";
  }

  // Final sweep including GC; contents must survive.
  engine.clock()->Advance(100'000'000'000);
  ASSERT_TRUE(engine.sto()->RunOnce(/*run_gc=*/true).ok());
  EXPECT_EQ(ScanEngine(engine, "t"), oracle.rows());
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomWorkloadTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

class DvAlgebraTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DvAlgebraTest, UnionMatchesSetSemantics) {
  Random rng(GetParam());
  std::set<uint64_t> sa;
  std::set<uint64_t> sb;
  lst::DeletionVector a;
  lst::DeletionVector b;
  for (int i = 0; i < 200; ++i) {
    uint64_t ord = rng.Uniform(2048);
    if (rng.Bernoulli(0.5)) {
      sa.insert(ord);
      a.MarkDeleted(ord);
    } else {
      sb.insert(ord);
      b.MarkDeleted(ord);
    }
  }
  lst::DeletionVector u = a.Union(b);
  std::set<uint64_t> su;
  su.insert(sa.begin(), sa.end());
  su.insert(sb.begin(), sb.end());
  EXPECT_EQ(u.cardinality(), su.size());
  for (uint64_t ord : su) EXPECT_TRUE(u.IsDeleted(ord));
  auto ordinals = u.ToOrdinals();
  EXPECT_EQ(std::set<uint64_t>(ordinals.begin(), ordinals.end()), su);
  // Round trip preserves everything.
  auto back = lst::DeletionVector::FromBlob(u.ToBlob());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DvAlgebraTest,
                         ::testing::Values(11, 22, 33, 44, 55));

class CheckpointEquivalenceTest : public ::testing::TestWithParam<uint64_t> {
};

TEST_P(CheckpointEquivalenceTest, SnapshotViaCheckpointEqualsFullReplay) {
  // Property: for a random history, reconstructing the table from
  // (checkpoint + suffix) equals reconstructing from the full manifest
  // chain (§5.2).
  Random rng(GetParam());
  common::SimClock clock(1'000'000);
  storage::MemoryObjectStore store(&clock);
  lst::SnapshotBuilder builder(&store);

  std::vector<lst::ManifestRef> refs;
  std::set<std::string> live;
  int file_counter = 0;
  for (uint64_t seq = 1; seq <= 20; ++seq) {
    std::vector<lst::ManifestEntry> entries;
    if (live.empty() || rng.Bernoulli(0.6)) {
      lst::DataFileInfo info;
      info.path = "f" + std::to_string(file_counter++);
      info.row_count = 10 + rng.Uniform(100);
      info.byte_size = info.row_count * 8;
      info.cell_id = static_cast<uint32_t>(rng.Uniform(4));
      live.insert(info.path);
      entries.push_back(lst::ManifestEntry::AddFile(info));
    } else {
      auto it = live.begin();
      std::advance(it, rng.Uniform(live.size()));
      entries.push_back(lst::ManifestEntry::RemoveFile(*it));
      live.erase(it);
    }
    std::string path = "tables/9/manifests/m" + std::to_string(seq);
    lst::ManifestBlockWriter writer(&store, path);
    auto block = writer.StageEntries(entries);
    ASSERT_TRUE(block.ok());
    ASSERT_TRUE(store.CommitBlockList(path, {*block}).ok());
    refs.push_back({seq, path});
    clock.Advance(1000);
  }

  // Checkpoint at a random midpoint.
  size_t cut = 1 + rng.Uniform(refs.size() - 1);
  std::vector<lst::ManifestRef> prefix(refs.begin(), refs.begin() + cut);
  auto at_cut = builder.Build(prefix);
  ASSERT_TRUE(at_cut.ok());
  std::string ckpt_path = "tables/9/checkpoints/c";
  ASSERT_TRUE(store.Put(ckpt_path, lst::Checkpoint::Serialize(*at_cut)).ok());

  builder.ClearCache();
  auto via_ckpt = builder.Build(
      refs, lst::CheckpointRef{at_cut->sequence_id(), ckpt_path});
  builder.ClearCache();
  auto full = builder.Build(refs);
  ASSERT_TRUE(via_ckpt.ok());
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(via_ckpt->files(), full->files());
  EXPECT_EQ(via_ckpt->sequence_id(), full->sequence_id());
}

INSTANTIATE_TEST_SUITE_P(Seeds, CheckpointEquivalenceTest,
                         ::testing::Values(101, 202, 303, 404, 505, 606));

class SnapshotCacheEquivalenceTest
    : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SnapshotCacheEquivalenceTest, WarmBuildEqualsColdBuild) {
  // Property: the snapshot cache keeps one snapshot per table, yet every
  // build through a warm builder equals a cold rebuild. The interleaving
  // spans three tables, newer and older prefixes, builds with and without
  // a checkpoint, and a clone whose chain starts with its source's
  // manifest paths under the same sequence ids (as CloneTable writes it).
  Random rng(GetParam());
  common::SimClock clock(1'000'000);
  storage::MemoryObjectStore store(&clock);
  lst::SnapshotBuilder warm(&store);
  lst::SnapshotBuilder cold(&store);

  struct Table {
    std::vector<lst::ManifestRef> chain;
    std::vector<std::string> live;
    std::vector<lst::CheckpointRef> checkpoints;
  };
  std::map<int, Table> tables;  // 1 and 2; 3 is cloned from 1
  int file_counter = 0;

  auto commit = [&](int id) {
    Table& t = tables[id];
    std::vector<lst::ManifestEntry> entries;
    if (t.live.empty() || rng.Bernoulli(0.6)) {
      lst::DataFileInfo info;
      info.path = "f" + std::to_string(file_counter++);
      info.row_count = 10 + rng.Uniform(100);
      info.byte_size = info.row_count * 8;
      t.live.push_back(info.path);
      entries.push_back(lst::ManifestEntry::AddFile(info));
    } else {
      size_t k = rng.Uniform(t.live.size());
      entries.push_back(lst::ManifestEntry::RemoveFile(t.live[k]));
      t.live.erase(t.live.begin() + k);
    }
    uint64_t seq = t.chain.empty() ? 1 : t.chain.back().sequence_id + 1;
    std::string path = "tables/" + std::to_string(id) + "/manifests/m" +
                       std::to_string(seq);
    lst::ManifestBlockWriter writer(&store, path);
    auto block = writer.StageEntries(entries);
    ASSERT_TRUE(block.ok());
    ASSERT_TRUE(store.CommitBlockList(path, {*block}).ok());
    t.chain.push_back({seq, path});
    clock.Advance(1000);
  };

  auto checkpoint = [&](int id) {
    Table& t = tables[id];
    size_t len = 1 + rng.Uniform(t.chain.size());
    std::vector<lst::ManifestRef> prefix(t.chain.begin(),
                                         t.chain.begin() + len);
    cold.ClearCache();
    auto snap = cold.Build(prefix);
    ASSERT_TRUE(snap.ok());
    for (const auto& c : t.checkpoints) {
      if (c.sequence_id == snap->sequence_id()) return;  // blobs are immutable
    }
    std::string path = "tables/" + std::to_string(id) + "/checkpoints/c" +
                       std::to_string(snap->sequence_id());
    ASSERT_TRUE(store.Put(path, lst::Checkpoint::Serialize(*snap)).ok());
    t.checkpoints.push_back({snap->sequence_id(), path});
  };

  auto check = [&](int id, bool newest) {
    const Table& t = tables[id];
    size_t len = newest ? t.chain.size() : 1 + rng.Uniform(t.chain.size());
    std::vector<lst::ManifestRef> prefix(t.chain.begin(),
                                         t.chain.begin() + len);
    std::optional<lst::CheckpointRef> ckpt;
    if (rng.Bernoulli(0.5)) {
      for (const auto& c : t.checkpoints) {
        if (c.sequence_id <= prefix.back().sequence_id &&
            (!ckpt || rng.Bernoulli(0.5))) {
          ckpt = c;
        }
      }
    }
    auto got = warm.Build(prefix, ckpt);
    cold.ClearCache();
    auto want = cold.Build(prefix, ckpt);
    ASSERT_TRUE(got.ok());
    ASSERT_TRUE(want.ok());
    EXPECT_EQ(got->files(), want->files());
    EXPECT_EQ(got->removed_blobs(), want->removed_blobs());
    EXPECT_EQ(got->sequence_id(), want->sequence_id());
  };

  for (int i = 0; i < 6; ++i) commit(1);
  for (int i = 0; i < 4; ++i) commit(2);
  check(1, /*newest=*/true);
  tables[3].chain = tables[1].chain;
  tables[3].live = tables[1].live;
  check(3, /*newest=*/true);  // no commits of its own: shares table 1's key

  for (int step = 0; step < 150; ++step) {
    int id = 1 + static_cast<int>(rng.Uniform(3));
    double r = rng.NextDouble();
    if (r < 0.35) {
      commit(id);
    } else if (r < 0.45) {
      checkpoint(id);
    } else {
      check(id, /*newest=*/rng.Bernoulli(0.5));
    }
  }
  auto stats = warm.cache_stats();
  EXPECT_LE(stats.snapshots_cached, 3u);
  EXPECT_GT(stats.snapshot_hits, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SnapshotCacheEquivalenceTest,
                         ::testing::Values(7, 17, 27, 37, 47));

}  // namespace
}  // namespace polaris
