#ifndef POLARIS_COMMON_CRASHPOINT_H_
#define POLARIS_COMMON_CRASHPOINT_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

#include "common/status.h"

namespace polaris::common {

/// Named crash points threaded through the durable commit protocol.
///
/// A recovery test arms one point and runs a workload; when execution
/// reaches the armed point (after `skip` earlier hits) the macro below
/// returns an Internal error, simulating the logical process dying at
/// that exact instant. The test then discards the engine — which after a
/// fired crash point is in an intentionally undefined in-memory state —
/// and reopens the database from its data directory to check that
/// recovery restores exactly the transactions that reached their
/// durability point.
///
/// The registry is process-global and at most one point is armed at a
/// time (crashes are one-shot by construction: the process is dead after
/// the first one). The disarmed fast path is a single relaxed atomic
/// load, so production code paths pay nothing.
class CrashPoints {
 public:
  /// Arms `name`: the (skip+1)-th time execution hits the point it
  /// fires, then the registry disarms itself.
  static void Arm(std::string name, uint64_t skip = 0);

  /// Disarms whatever is armed (test teardown).
  static void Disarm();

  /// True when `name` is armed and its skip count is exhausted; a true
  /// return consumes the arming (one-shot).
  static bool Fire(std::string_view name);

  static bool armed();

  /// Total points fired since process start (test bookkeeping).
  static uint64_t fired_count();

  /// Installs a process-global observer invoked (under the registry lock)
  /// with the point name each time one fires — lets the engine turn
  /// crash-point hits into structured events without this header knowing
  /// about the obs layer. Pass an empty function to uninstall. Crash
  /// points are test-only machinery; like Arm, the observer is global and
  /// the last installer wins.
  static void SetFireObserver(std::function<void(std::string_view)> observer);
};

/// The crash-point taxonomy (see DESIGN.md §8). Each name identifies an
/// instant in the commit protocol where a real process could die.
namespace crash {
/// txn: WriteSets rows upserted, catalog commit not yet attempted.
inline constexpr char kCommitAfterWriteSets[] = "commit.after_writesets";
/// catalog: inside the commit hook, before Manifests rows are written.
inline constexpr char kCatalogCommitBeforeManifests[] =
    "catalog.commit.before_manifests";
/// catalog: Manifests rows written into the pending txn, journal append
/// (the durability point) not yet reached.
inline constexpr char kCatalogCommitAfterManifests[] =
    "catalog.commit.after_manifests";
/// commit pipeline: the group-commit leader claimed its batch but nothing
/// reached the journal — no commit in the batch may survive a reopen.
inline constexpr char kCommitBatchFormed[] = "commit.batch.formed";
/// commit pipeline: the batch is durable in the journal but dies before
/// the in-memory install — recovery must surface every batched commit.
inline constexpr char kCommitBatchAppended[] = "commit.batch.appended";
/// commit pipeline: the batch is durable and installed; only the
/// acknowledgement to the waiters is lost.
inline constexpr char kCommitBatchInstalled[] = "commit.batch.installed";
/// journal: before any byte of the record is staged.
inline constexpr char kJournalAppendBefore[] = "journal.append.before";
/// journal: a truncated record is durably committed (torn write), then
/// the process dies — exercises torn-tail tolerance on replay.
inline constexpr char kJournalAppendTorn[] = "journal.append.torn";
/// journal: the record is durably committed but the ack is lost; the
/// transaction IS committed after reopen even though the client saw an
/// error (the classic "commit ack lost" outcome).
inline constexpr char kJournalAppendAfterCommit[] =
    "journal.append.after_commit";
/// promotion: epoch lease CAS-claimed; tailer still running, predecessor
/// segment not yet sealed. A retry must claim a fresh (higher) epoch.
inline constexpr char kPromoteClaimed[] = "promote.claimed";
/// promotion: predecessor's open segment sealed under the new epoch; the
/// old primary's next append must lose its CAS and self-fence.
inline constexpr char kPromoteSealed[] = "promote.sealed";
/// promotion: remaining journal tail replayed into the local catalog,
/// catalog still read-only — dying here loses no acked commit.
inline constexpr char kPromoteReplayed[] = "promote.replayed";
/// promotion: appender primed and catalog writable, but the role flip
/// and the operator acknowledgement are lost.
inline constexpr char kPromoteWritable[] = "promote.writable";
/// local store: Put wrote + fsynced the temp file, rename not done.
inline constexpr char kStorePutBeforeRename[] = "store.put.before_rename";
/// local store: CommitBlockList wrote + fsynced the temp file, rename
/// not done — the blob must keep its previous committed state.
inline constexpr char kStoreCommitBeforeRename[] =
    "store.commit_blocklist.before_rename";
}  // namespace crash

}  // namespace polaris::common

/// Simulates the process dying here when this point is armed. Usable in
/// any function returning Status or Result<T>.
#define POLARIS_CRASH_POINT(name)                                     \
  do {                                                                \
    if (::polaris::common::CrashPoints::Fire(name)) {                 \
      return ::polaris::common::Status::Internal(                     \
          std::string("crash point fired: ") + (name));               \
    }                                                                 \
  } while (0)

#endif  // POLARIS_COMMON_CRASHPOINT_H_
