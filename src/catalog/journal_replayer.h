#ifndef POLARIS_CATALOG_JOURNAL_REPLAYER_H_
#define POLARIS_CATALOG_JOURNAL_REPLAYER_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "catalog/catalog_journal.h"
#include "common/result.h"
#include "common/status.h"
#include "storage/object_store.h"

namespace polaris::catalog {

/// Resumable position inside the journal: the segment holding the next
/// byte to read, the byte offset of the first unparsed frame within it,
/// and the highest commit sequence applied so far. Segment contents are
/// prefix-stable (AppendBatch always commits `old blocks + new blocks`),
/// so a byte offset taken after a clean parse stays valid as the primary
/// extends the same segment — the tailer re-reads from there and sees
/// only new frames. A torn frame is the one exception: its bytes never
/// change (the primary poisons and rolls a fresh segment after a torn
/// append), so the cursor deliberately holds *before* it and the tailer
/// skips the dead remainder once a later segment appears.
struct ReplayCursor {
  /// First-record sequence of the segment the cursor points into (its
  /// blob name); 0 = no segment entered yet.
  uint64_t segment_first_seq = 0;
  /// Offset of the first byte not yet consumed by a successful parse.
  uint64_t byte_offset = 0;
  /// Highest commit sequence applied; records at or below it are skipped.
  uint64_t applied_seq = 0;
};

/// Shared checkpoint+journal replay engine. CatalogJournal::Recover uses
/// it for the one-shot crash-recovery scan; the replica tailer uses
/// Bootstrap for its initial snapshot and then TailOnce for incremental
/// catch-up from the cursor Bootstrap returned. Both parse frames through
/// one serial per-segment loop that applies records above the cursor's
/// applied_seq and advances the cursor; they differ only in what they
/// make of a torn frame. Purely a reader: never writes, never deletes,
/// safe to run against a store another process is actively appending to.
class JournalReplayer {
 public:
  /// `store` must outlive the replayer. `options` supplies the blob
  /// prefix (cadence knobs are ignored here).
  JournalReplayer(storage::ObjectStore* store, CatalogJournalOptions options)
      : store_(store), options_(std::move(options)) {}

  struct BootstrapResult {
    CatalogJournal::RecoveredState state;
    /// Where TailOnce should resume: positioned after the last good
    /// record of the last segment read (or zeroed when no segment was
    /// read, in which case applied_seq carries the checkpoint sequence).
    ReplayCursor cursor;
  };

  /// Loads the latest readable checkpoint and replays the journal tail
  /// on top of it, one segment after another in first_seq order. A torn
  /// frame drops the rest of its segment, sets torn_tail and replay goes
  /// on with the next segment.
  common::Result<BootstrapResult> Bootstrap() const;

  /// Callback applying one replayed record. A non-OK status aborts the
  /// tail pass without advancing the cursor past that record.
  using ApplyFn = std::function<common::Status(
      uint64_t commit_seq,
      const std::vector<std::pair<std::string, std::optional<std::string>>>&
          writes)>;

  struct TailResult {
    uint64_t records_applied = 0;
    uint64_t segments_visited = 0;
    /// The pass stopped at an unparsable frame in the newest segment —
    /// either a mid-append torn tail the primary is about to finish (the
    /// cursor holds so the next pass re-reads it) or a poisoned
    /// remnant that a future segment will supersede.
    bool torn_tail = false;
  };

  /// One incremental pass: lists segments covering sequences past the
  /// cursor, reads each from the cursor's byte offset (0 for segments
  /// newer than the cursor's), applies records above applied_seq in
  /// order via `apply`, and advances the cursor after every applied or
  /// skipped record. Returns NotFound when the journal has been
  /// garbage-collected past the cursor (the oldest listed segment starts
  /// beyond applied_seq + 1, or a segment vanishes mid-read) — the
  /// caller must re-bootstrap from a checkpoint.
  common::Result<TailResult> TailOnce(ReplayCursor* cursor,
                                      const ApplyFn& apply) const;

 private:
  storage::ObjectStore* store_;
  CatalogJournalOptions options_;
};

}  // namespace polaris::catalog

#endif  // POLARIS_CATALOG_JOURNAL_REPLAYER_H_
