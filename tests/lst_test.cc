// Unit tests for the log-structured-table layer: deletion vectors,
// manifests, snapshot replay/reconciliation, checkpoints, and the
// snapshot builder with its caches.

#include <gtest/gtest.h>

#include "common/clock.h"
#include "lst/checkpoint.h"
#include "lst/deletion_vector.h"
#include "lst/manifest.h"
#include "lst/manifest_io.h"
#include "lst/snapshot_builder.h"
#include "lst/table_snapshot.h"
#include "storage/memory_object_store.h"

namespace polaris::lst {
namespace {

TEST(DeletionVectorTest, MarkAndQuery) {
  DeletionVector dv;
  EXPECT_TRUE(dv.empty());
  dv.MarkDeleted(0);
  dv.MarkDeleted(63);
  dv.MarkDeleted(64);
  dv.MarkDeleted(1000);
  dv.MarkDeleted(1000);  // idempotent
  EXPECT_EQ(dv.cardinality(), 4u);
  EXPECT_TRUE(dv.IsDeleted(0));
  EXPECT_TRUE(dv.IsDeleted(63));
  EXPECT_TRUE(dv.IsDeleted(64));
  EXPECT_TRUE(dv.IsDeleted(1000));
  EXPECT_FALSE(dv.IsDeleted(1));
  EXPECT_FALSE(dv.IsDeleted(5000));  // beyond allocated words
}

TEST(DeletionVectorTest, UnionMerges) {
  DeletionVector a;
  a.MarkDeleted(1);
  a.MarkDeleted(100);
  DeletionVector b;
  b.MarkDeleted(100);
  b.MarkDeleted(200);
  DeletionVector u = a.Union(b);
  EXPECT_EQ(u.cardinality(), 3u);
  EXPECT_TRUE(u.IsDeleted(1));
  EXPECT_TRUE(u.IsDeleted(100));
  EXPECT_TRUE(u.IsDeleted(200));
  // Union does not mutate the inputs (immutability of DV blobs).
  EXPECT_EQ(a.cardinality(), 2u);
  EXPECT_EQ(b.cardinality(), 2u);
}

TEST(DeletionVectorTest, ToOrdinalsSorted) {
  DeletionVector dv;
  dv.MarkDeleted(500);
  dv.MarkDeleted(3);
  dv.MarkDeleted(64);
  EXPECT_EQ(dv.ToOrdinals(), (std::vector<uint64_t>{3, 64, 500}));
}

TEST(DeletionVectorTest, BlobRoundTrip) {
  DeletionVector dv;
  for (uint64_t i = 0; i < 1000; i += 7) dv.MarkDeleted(i);
  auto back = DeletionVector::FromBlob(dv.ToBlob());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, dv);
}

TEST(DeletionVectorTest, FromBlobRejectsTrailingBytes) {
  DeletionVector dv;
  dv.MarkDeleted(1);
  std::string blob = dv.ToBlob() + "junk";
  EXPECT_TRUE(DeletionVector::FromBlob(blob).status().IsCorruption());
}

ManifestEntry AddFileEntry(const std::string& path, uint64_t rows,
                           uint32_t cell = 0) {
  DataFileInfo info;
  info.path = path;
  info.row_count = rows;
  info.byte_size = rows * 10;
  info.cell_id = cell;
  return ManifestEntry::AddFile(info);
}

ManifestEntry AddDvEntry(const std::string& dv_path,
                         const std::string& target, uint64_t count) {
  DeleteVectorInfo info;
  info.path = dv_path;
  info.target_data_file = target;
  info.deleted_count = count;
  return ManifestEntry::AddDv(info);
}

TEST(ManifestTest, EntriesRoundTrip) {
  std::vector<ManifestEntry> entries = {
      AddFileEntry("f1", 100, 3),
      ManifestEntry::RemoveFile("f0"),
      AddDvEntry("dv1", "f1", 5),
      ManifestEntry::RemoveDv("dv0", "f1"),
  };
  auto parsed = ParseEntries(SerializeEntries(entries));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(*parsed, entries);
}

TEST(ManifestTest, ConcatenatedBlocksParse) {
  // A manifest blob assembled from multiple committed blocks parses as
  // the concatenation of the block entries (§3.2.2).
  std::string block1 = SerializeEntries({AddFileEntry("f1", 10)});
  std::string block2 = SerializeEntries({AddFileEntry("f2", 20)});
  auto parsed = ParseEntries(block1 + block2);
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed->size(), 2u);
  EXPECT_EQ((*parsed)[0].file.path, "f1");
  EXPECT_EQ((*parsed)[1].file.path, "f2");
}

TEST(ManifestTest, ParseRejectsGarbage) {
  EXPECT_TRUE(ParseEntries("\xFFgarbage").status().IsCorruption());
}

// --- TableSnapshot replay ------------------------------------------------------

TEST(TableSnapshotTest, ApplyAddAndRemove) {
  TableSnapshot snap;
  ASSERT_TRUE(snap.Apply({AddFileEntry("f1", 100), AddFileEntry("f2", 50)}, 10)
                  .ok());
  EXPECT_EQ(snap.num_files(), 2u);
  EXPECT_EQ(snap.total_rows(), 150u);
  ASSERT_TRUE(snap.Apply({ManifestEntry::RemoveFile("f1")}, 20).ok());
  EXPECT_EQ(snap.num_files(), 1u);
  ASSERT_EQ(snap.removed_blobs().size(), 1u);
  EXPECT_EQ(snap.removed_blobs()[0].path, "f1");
  EXPECT_EQ(snap.removed_blobs()[0].removed_at, 20);
}

TEST(TableSnapshotTest, ApplyDvLifecycle) {
  TableSnapshot snap;
  ASSERT_TRUE(snap.Apply({AddFileEntry("f1", 100)}, 1).ok());
  ASSERT_TRUE(snap.Apply({AddDvEntry("dv1", "f1", 10)}, 2).ok());
  EXPECT_EQ(snap.files().at("f1").dv_path, "dv1");
  EXPECT_EQ(snap.files().at("f1").deleted_count, 10u);
  EXPECT_EQ(snap.live_rows(), 90u);
  // Merge: remove old DV, add merged one.
  ASSERT_TRUE(snap.Apply({ManifestEntry::RemoveDv("dv1", "f1"),
                          AddDvEntry("dv2", "f1", 25)},
                         3)
                  .ok());
  EXPECT_EQ(snap.files().at("f1").dv_path, "dv2");
  EXPECT_EQ(snap.live_rows(), 75u);
  // The old DV blob is now retention-tracked.
  ASSERT_EQ(snap.removed_blobs().size(), 1u);
  EXPECT_EQ(snap.removed_blobs()[0].path, "dv1");
}

TEST(TableSnapshotTest, RemoveFileRetiresItsDv) {
  TableSnapshot snap;
  ASSERT_TRUE(snap.Apply({AddFileEntry("f1", 100), AddDvEntry("dv1", "f1", 5)},
                         1)
                  .ok());
  ASSERT_TRUE(snap.Apply({ManifestEntry::RemoveFile("f1")}, 2).ok());
  ASSERT_EQ(snap.removed_blobs().size(), 2u);
  EXPECT_EQ(snap.removed_blobs()[0].path, "dv1");
  EXPECT_EQ(snap.removed_blobs()[1].path, "f1");
}

TEST(TableSnapshotTest, CorruptionOnBadReplay) {
  TableSnapshot snap;
  ASSERT_TRUE(snap.Apply({AddFileEntry("f1", 10)}, 1).ok());
  EXPECT_TRUE(snap.Apply({AddFileEntry("f1", 10)}, 2).IsCorruption());
  TableSnapshot snap2;
  EXPECT_TRUE(
      snap2.Apply({ManifestEntry::RemoveFile("ghost")}, 1).IsCorruption());
  TableSnapshot snap3;
  EXPECT_TRUE(snap3.Apply({AddDvEntry("dv", "ghost", 1)}, 1).IsCorruption());
  TableSnapshot snap4;
  ASSERT_TRUE(snap4.Apply({AddFileEntry("f1", 10), AddDvEntry("d1", "f1", 1)},
                          1)
                  .ok());
  // Adding a second DV without removing the first is malformed.
  EXPECT_TRUE(snap4.Apply({AddDvEntry("d2", "f1", 2)}, 2).IsCorruption());
}

TEST(TableSnapshotTest, TakeRemovedBeforeSplitsOnHorizon) {
  TableSnapshot snap;
  ASSERT_TRUE(snap.Apply({AddFileEntry("f1", 1), AddFileEntry("f2", 1)}, 1)
                  .ok());
  ASSERT_TRUE(snap.Apply({ManifestEntry::RemoveFile("f1")}, 100).ok());
  ASSERT_TRUE(snap.Apply({ManifestEntry::RemoveFile("f2")}, 200).ok());
  auto expired = snap.TakeRemovedBefore(150);
  ASSERT_EQ(expired.size(), 1u);
  EXPECT_EQ(expired[0].path, "f1");
  ASSERT_EQ(snap.removed_blobs().size(), 1u);
  EXPECT_EQ(snap.removed_blobs()[0].path, "f2");
}

// --- DiffSnapshots (reconciliation) ---------------------------------------------

TEST(DiffSnapshotsTest, PureInsertProducesAdds) {
  TableSnapshot base;
  TableSnapshot current = base;
  ASSERT_TRUE(current.Apply({AddFileEntry("f1", 10)}, 1).ok());
  auto diff = DiffSnapshots(base, current);
  ASSERT_EQ(diff.size(), 1u);
  EXPECT_EQ(diff[0].type, ActionType::kAddDataFile);
}

TEST(DiffSnapshotsTest, ObsoletedIntraTxnFileVanishes) {
  // A file added by statement 1 and removed by statement 2 of the same
  // transaction leaves no trace in the reconciled manifest (§3.2.3).
  TableSnapshot base;
  ASSERT_TRUE(base.Apply({AddFileEntry("committed", 10)}, 1).ok());
  TableSnapshot current = base;
  ASSERT_TRUE(current.Apply({AddFileEntry("tmp", 5)}, 2).ok());
  ASSERT_TRUE(current.Apply({ManifestEntry::RemoveFile("tmp"),
                             AddFileEntry("final", 5)},
                            3)
                  .ok());
  auto diff = DiffSnapshots(base, current);
  ASSERT_EQ(diff.size(), 1u);
  EXPECT_EQ(diff[0].type, ActionType::kAddDataFile);
  EXPECT_EQ(diff[0].file.path, "final");
}

TEST(DiffSnapshotsTest, DvChangeEmitsRemoveThenAdd) {
  TableSnapshot base;
  ASSERT_TRUE(base.Apply({AddFileEntry("f1", 10), AddDvEntry("dv0", "f1", 2)},
                         1)
                  .ok());
  TableSnapshot current = base;
  ASSERT_TRUE(current.Apply({ManifestEntry::RemoveDv("dv0", "f1"),
                             AddDvEntry("dv1", "f1", 4)},
                            2)
                  .ok());
  auto diff = DiffSnapshots(base, current);
  ASSERT_EQ(diff.size(), 2u);
  EXPECT_EQ(diff[0].type, ActionType::kRemoveDeleteVector);
  EXPECT_EQ(diff[0].dv.path, "dv0");
  EXPECT_EQ(diff[1].type, ActionType::kAddDeleteVector);
  EXPECT_EQ(diff[1].dv.path, "dv1");
}

TEST(DiffSnapshotsTest, DiffReplaysOverBase) {
  // Property: base.Apply(Diff(base, current)) == current (files).
  TableSnapshot base;
  ASSERT_TRUE(base.Apply({AddFileEntry("a", 10), AddFileEntry("b", 20),
                          AddDvEntry("dva", "a", 1)},
                         1)
                  .ok());
  TableSnapshot current = base;
  ASSERT_TRUE(current.Apply({ManifestEntry::RemoveDv("dva", "a"),
                             AddDvEntry("dva2", "a", 3),
                             ManifestEntry::RemoveFile("b"),
                             AddFileEntry("c", 30)},
                            2)
                  .ok());
  TableSnapshot replayed = base;
  ASSERT_TRUE(replayed.Apply(DiffSnapshots(base, current), 3).ok());
  EXPECT_EQ(replayed.files(), current.files());
}

TEST(DiffSnapshotsTest, NoChangesEmptyDiff) {
  TableSnapshot base;
  ASSERT_TRUE(base.Apply({AddFileEntry("a", 10)}, 1).ok());
  EXPECT_TRUE(DiffSnapshots(base, base).empty());
}

// --- Checkpoints ------------------------------------------------------------------

TEST(CheckpointTest, RoundTripPreservesState) {
  TableSnapshot snap;
  ASSERT_TRUE(snap.Apply({AddFileEntry("f1", 100, 2), AddFileEntry("f2", 50),
                          AddDvEntry("dv1", "f1", 7)},
                         10)
                  .ok());
  ASSERT_TRUE(snap.Apply({ManifestEntry::RemoveFile("f2")}, 20).ok());
  snap.set_sequence_id(42);
  auto back = Checkpoint::Deserialize(Checkpoint::Serialize(snap));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, snap);
  EXPECT_EQ(back->sequence_id(), 42u);
  EXPECT_EQ(back->removed_blobs().size(), 1u);
}

TEST(CheckpointTest, RejectsBadMagic) {
  EXPECT_TRUE(Checkpoint::Deserialize("nope").status().IsCorruption());
}

// --- Manifest IO + SnapshotBuilder -----------------------------------------------

class SnapshotBuilderTest : public ::testing::Test {
 protected:
  SnapshotBuilderTest() : store_(&clock_), builder_(&store_) {}

  /// Writes a committed manifest blob and returns its ref.
  ManifestRef WriteManifest(uint64_t seq,
                            const std::vector<ManifestEntry>& entries,
                            int table_id = 1) {
    std::string path = "tables/" + std::to_string(table_id) +
                       "/manifests/m" + std::to_string(seq);
    ManifestBlockWriter writer(&store_, path);
    auto block = writer.StageEntries(entries);
    EXPECT_TRUE(block.ok());
    EXPECT_TRUE(store_.CommitBlockList(path, {*block}).ok());
    return {seq, path};
  }

  common::SimClock clock_{1000};
  storage::MemoryObjectStore store_;
  SnapshotBuilder builder_;
};

TEST_F(SnapshotBuilderTest, BuildsFromManifestChain) {
  std::vector<ManifestRef> refs;
  refs.push_back(WriteManifest(1, {AddFileEntry("f1", 10)}));
  refs.push_back(WriteManifest(2, {AddFileEntry("f2", 20)}));
  refs.push_back(WriteManifest(3, {ManifestEntry::RemoveFile("f1")}));
  auto snap = builder_.Build(refs);
  ASSERT_TRUE(snap.ok());
  EXPECT_EQ(snap->num_files(), 1u);
  EXPECT_EQ(snap->sequence_id(), 3u);
  EXPECT_EQ(snap->total_rows(), 20u);
}

TEST_F(SnapshotBuilderTest, RemovalTimestampComesFromManifestBlob) {
  std::vector<ManifestRef> refs;
  refs.push_back(WriteManifest(1, {AddFileEntry("f1", 10)}));
  clock_.Advance(5000);
  refs.push_back(WriteManifest(2, {ManifestEntry::RemoveFile("f1")}));
  auto snap = builder_.Build(refs);
  ASSERT_TRUE(snap.ok());
  ASSERT_EQ(snap->removed_blobs().size(), 1u);
  EXPECT_EQ(snap->removed_blobs()[0].removed_at, 6000);
}

TEST_F(SnapshotBuilderTest, CheckpointSkipsCoveredManifests) {
  std::vector<ManifestRef> refs;
  for (uint64_t s = 1; s <= 5; ++s) {
    refs.push_back(
        WriteManifest(s, {AddFileEntry("f" + std::to_string(s), s)}));
  }
  // Checkpoint covering sequences 1..3.
  auto partial = builder_.Build({refs[0], refs[1], refs[2]});
  ASSERT_TRUE(partial.ok());
  std::string ckpt_path = "tables/1/checkpoints/3";
  ASSERT_TRUE(store_.Put(ckpt_path, Checkpoint::Serialize(*partial)).ok());

  builder_.ClearCache();
  auto snap = builder_.Build(refs, CheckpointRef{3, ckpt_path});
  ASSERT_TRUE(snap.ok());
  EXPECT_EQ(snap->num_files(), 5u);
  // Only manifests 4 and 5 were replayed.
  EXPECT_EQ(builder_.cache_stats().manifests_replayed, 2u);
}

TEST_F(SnapshotBuilderTest, SnapshotCacheServesRepeatBuilds) {
  std::vector<ManifestRef> refs;
  refs.push_back(WriteManifest(1, {AddFileEntry("f1", 10)}));
  refs.push_back(WriteManifest(2, {AddFileEntry("f2", 20)}));
  ASSERT_TRUE(builder_.Build(refs).ok());
  auto stats1 = builder_.cache_stats();
  ASSERT_TRUE(builder_.Build(refs).ok());
  auto stats2 = builder_.cache_stats();
  EXPECT_EQ(stats2.snapshot_hits, stats1.snapshot_hits + 1);
  EXPECT_EQ(stats2.manifests_replayed, stats1.manifests_replayed);
}

TEST_F(SnapshotBuilderTest, IncrementalExtensionFromCachedPrefix) {
  std::vector<ManifestRef> refs;
  refs.push_back(WriteManifest(1, {AddFileEntry("f1", 10)}));
  ASSERT_TRUE(builder_.Build(refs).ok());
  refs.push_back(WriteManifest(2, {AddFileEntry("f2", 20)}));
  auto snap = builder_.Build(refs);
  ASSERT_TRUE(snap.ok());
  EXPECT_EQ(snap->num_files(), 2u);
  // Only the new manifest was replayed on top of the cached prefix.
  EXPECT_EQ(builder_.cache_stats().manifests_replayed, 2u);  // 1 + 1
}

TEST_F(SnapshotBuilderTest, SnapshotCacheHoldsOneSnapshotPerTable) {
  // Building every successive version of two tables keeps only the newest
  // snapshot of each, and each build still extends the cached one.
  std::vector<ManifestRef> chains[2];
  for (uint64_t s = 1; s <= 300; ++s) {
    for (int t = 0; t < 2; ++t) {
      chains[t].push_back(WriteManifest(
          s, {AddFileEntry("t" + std::to_string(t) + "f" + std::to_string(s),
                           s)},
          t + 1));
      auto snap = builder_.Build(chains[t]);
      ASSERT_TRUE(snap.ok());
      ASSERT_EQ(snap->num_files(), s);
    }
  }
  auto stats = builder_.cache_stats();
  EXPECT_LE(stats.snapshots_cached, 2u);
  EXPECT_EQ(stats.manifests_replayed, 600u);
}

TEST_F(SnapshotBuilderTest, OlderVersionReplaysFromCheckpoint) {
  // An older version misses the per-table cache, replays from its
  // checkpoint, and leaves the newer cached snapshot in place.
  std::vector<ManifestRef> refs;
  for (uint64_t s = 1; s <= 6; ++s) {
    refs.push_back(
        WriteManifest(s, {AddFileEntry("f" + std::to_string(s), s)}));
  }
  auto at3 = builder_.Build({refs[0], refs[1], refs[2]});
  ASSERT_TRUE(at3.ok());
  std::string ckpt_path = "tables/1/checkpoints/3";
  ASSERT_TRUE(store_.Put(ckpt_path, Checkpoint::Serialize(*at3)).ok());
  ASSERT_TRUE(builder_.Build(refs).ok());

  auto before = builder_.cache_stats();
  auto at4 = builder_.Build({refs[0], refs[1], refs[2], refs[3]},
                            CheckpointRef{3, ckpt_path});
  ASSERT_TRUE(at4.ok());
  EXPECT_EQ(at4->num_files(), 4u);
  auto after = builder_.cache_stats();
  EXPECT_EQ(after.snapshot_misses, before.snapshot_misses + 1);
  EXPECT_EQ(after.manifests_replayed, before.manifests_replayed + 1);

  // The newest version is still served from the cache.
  ASSERT_TRUE(builder_.Build(refs).ok());
  auto last = builder_.cache_stats();
  EXPECT_EQ(last.snapshot_hits, after.snapshot_hits + 1);
  EXPECT_EQ(last.manifests_replayed, after.manifests_replayed);
  EXPECT_EQ(last.snapshots_cached, 1u);
}

TEST_F(SnapshotBuilderTest, CommitterAppendAndRewrite) {
  ManifestCommitter committer(&store_);
  std::string path = "tables/1/manifests/txn";
  ManifestBlockWriter writer(&store_, path);
  auto b1 = writer.StageEntries({AddFileEntry("f1", 10)});
  ASSERT_TRUE(b1.ok());
  ASSERT_TRUE(committer.CommitAppend(path, {*b1}).ok());
  auto b2 = writer.StageEntries({AddFileEntry("f2", 20)});
  ASSERT_TRUE(b2.ok());
  ASSERT_TRUE(committer.CommitAppend(path, {*b2}).ok());
  auto entries = committer.ReadManifest(path);
  ASSERT_TRUE(entries.ok());
  EXPECT_EQ(entries->size(), 2u);
  // Rewrite collapses to the canonical single block.
  ASSERT_TRUE(committer.CommitRewrite(path, {AddFileEntry("f3", 30)}).ok());
  entries = committer.ReadManifest(path);
  ASSERT_TRUE(entries.ok());
  ASSERT_EQ(entries->size(), 1u);
  EXPECT_EQ((*entries)[0].file.path, "f3");
}

}  // namespace
}  // namespace polaris::lst
