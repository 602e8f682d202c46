#include "catalog/journal_replayer.h"

#include <functional>
#include <map>
#include <string_view>

#include "catalog/journal_format.h"
#include "common/bytes.h"
#include "common/logging.h"

namespace polaris::catalog {

using common::Result;
using common::Status;

namespace jf = journal_format;

namespace {

/// The journal frame loop shared by Bootstrap and TailOnce. Parses
/// `segment` from cursor->byte_offset on, hands every record above
/// cursor->applied_seq to `apply` (a non-OK status aborts with the cursor
/// still before that record), and advances the cursor past each clean
/// frame. Returns true when it stopped at a torn frame, the cursor held
/// just before it; false once the segment is exhausted. What a torn frame
/// means is the caller's decision.
Result<bool> ReplaySegment(
    std::string_view segment, ReplayCursor* cursor,
    const std::function<Status(jf::ParsedRecord*)>& apply) {
  const uint64_t base = cursor->byte_offset;
  common::ByteReader in(segment.substr(base));
  while (!in.AtEnd()) {
    jf::ParsedRecord record;
    jf::EpochMarker marker;
    switch (jf::ParseFrame(&in, &record, &marker)) {
      case jf::FrameKind::kTorn:
        return true;
      case jf::FrameKind::kEpoch:
        // Epoch stamps/seals carry no catalog state; skip past them.
        break;
      case jf::FrameKind::kRecord:
        if (record.commit_seq > cursor->applied_seq) {
          POLARIS_RETURN_IF_ERROR(apply(&record));
          cursor->applied_seq = record.commit_seq;
        }
        break;
    }
    cursor->byte_offset = base + in.position();
  }
  return false;
}

}  // namespace

Result<JournalReplayer::BootstrapResult> JournalReplayer::Bootstrap() const {
  BootstrapResult result;
  auto& state = result.state;

  // --- Latest readable checkpoint -----------------------------------------
  std::map<std::string, std::string> live;
  POLARIS_ASSIGN_OR_RETURN(auto checkpoints,
                           store_->List(options_.prefix + "ckpt/"));
  for (auto it = checkpoints.rbegin(); it != checkpoints.rend(); ++it) {
    auto blob = store_->Get(it->path);
    if (!blob.ok()) continue;
    uint64_t seq;
    std::map<std::string, std::string> rows;
    if (!jf::DecodeCheckpoint(*blob, &seq, &rows)) continue;
    live = std::move(rows);
    state.checkpoint_seq = seq;
    break;
  }

  // --- Journal tail replay -------------------------------------------------
  // ListJournalSegmentsSince(checkpoint_seq + 1) is exactly the O(tail)
  // replay set: every segment fully covered by the checkpoint is pruned,
  // the straddling one is kept (its covered records are skipped because
  // they sit at or below the cursor's applied_seq).
  ReplayCursor& cursor = result.cursor;
  cursor.applied_seq = state.checkpoint_seq;
  POLARIS_ASSIGN_OR_RETURN(
      auto replay,
      ListJournalSegmentsSince(store_, options_, state.checkpoint_seq + 1));
  for (const auto& seg : replay) {
    POLARIS_ASSIGN_OR_RETURN(std::string data, store_->Get(seg.path));
    state.segments_scanned++;
    cursor.segment_first_seq = seg.first_seq;
    cursor.byte_offset = 0;
    POLARIS_ASSIGN_OR_RETURN(
        bool torn, ReplaySegment(data, &cursor, [&](jf::ParsedRecord* record) {
          for (auto& [key, value] : record->writes) {
            if (value.has_value()) {
              live[key] = std::move(*value);
            } else {
              live.erase(key);
            }
          }
          state.records_replayed++;
          return Status::OK();
        }));
    if (torn) {
      // Torn or corrupt record: a crash mid-append. Everything before it
      // is intact; the record itself never reached its durability point,
      // so dropping it *is* the correct recovery outcome.
      state.torn_tail = true;
      POLARIS_LOG(kWarn, "journal")
          << "dropping torn/corrupt record tail in " << seg.path
          << " after seq " << cursor.applied_seq;
    }
  }
  state.commit_seq = cursor.applied_seq;

  state.rows.reserve(live.size());
  for (auto& [key, value] : live) state.rows.emplace_back(key, value);
  return result;
}

Result<JournalReplayer::TailResult> JournalReplayer::TailOnce(
    ReplayCursor* cursor, const ApplyFn& apply) const {
  TailResult result;
  POLARIS_ASSIGN_OR_RETURN(
      auto segments,
      ListJournalSegmentsSince(store_, options_, cursor->applied_seq + 1));
  if (segments.empty()) {
    // An empty listing is only benign when the cursor never sat inside a
    // segment: the predecessor rule of ListJournalSegmentsSince would
    // otherwise have returned at least the cursor's own segment, so its
    // absence means GC truncated the whole journal past us (new state is
    // only reachable via a checkpoint).
    if (cursor->segment_first_seq > 0) {
      return Status::NotFound(
          "journal truncated past replica cursor (segment " +
          std::to_string(cursor->segment_first_seq) +
          " is gone); re-bootstrap required");
    }
    return result;  // virgin journal: nothing to do
  }

  // GC ran past us: the oldest surviving segment starts beyond the next
  // sequence we need, so the records in between are only reachable via a
  // checkpoint. (A sequence gap from a failed durability batch also
  // lands here; the re-bootstrap it triggers is idempotent and merely
  // wasteful, and that combination — poisoned primary, then GC, with the
  // replica behind — is vanishingly rare.)
  if (segments.front().first_seq > cursor->applied_seq + 1) {
    return Status::NotFound(
        "journal truncated past replica cursor (oldest segment starts at " +
        std::to_string(segments.front().first_seq) + ", need " +
        std::to_string(cursor->applied_seq + 1) + "); re-bootstrap required");
  }

  for (size_t i = 0; i < segments.size(); ++i) {
    const auto& seg = segments[i];
    if (seg.first_seq < cursor->segment_first_seq) continue;  // already done
    uint64_t offset =
        seg.first_seq == cursor->segment_first_seq ? cursor->byte_offset : 0;
    // NotFound here means GC deleted the segment between List and Get;
    // propagate so the caller re-bootstraps.
    POLARIS_ASSIGN_OR_RETURN(std::string data, store_->Get(seg.path));
    if (offset > data.size()) {
      // Segments are prefix-stable, so a shrink means the name was
      // reused (dead segment deleted by primary recovery, then
      // recreated). Treat like truncation: rebuild from a checkpoint.
      return Status::NotFound("journal segment " + seg.path +
                              " shrank below replica cursor offset; "
                              "re-bootstrap required");
    }
    cursor->segment_first_seq = seg.first_seq;
    cursor->byte_offset = offset;
    result.segments_visited++;
    POLARIS_ASSIGN_OR_RETURN(
        bool torn, ReplaySegment(data, cursor, [&](jf::ParsedRecord* record) {
          POLARIS_RETURN_IF_ERROR(apply(record->commit_seq, record->writes));
          result.records_applied++;
          return Status::OK();
        }));
    // A torn frame with a later segment after it means the primary gave
    // up on this one (torn append -> poison -> fresh segment on reopen,
    // or a sealed-over torn tail): the unparsable remainder is dead
    // garbage, so move on. In the newest segment it is (or may be) a
    // mid-append torn tail: the cursor holds before the bad frame, and
    // once the primary's next commit lands the re-read parses cleanly.
    if (torn && i + 1 == segments.size()) result.torn_tail = true;
  }
  return result;
}

}  // namespace polaris::catalog
