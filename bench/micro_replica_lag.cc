// Replica apply lag as a function of primary write rate, plus a cold
// catch-up check. A primary and a replica share one MemoryObjectStore; the
// replica's background tailer polls on a short wall-clock cadence, and
// each burst of primary commits is timed from its last ack to the moment
// the replica watermark reaches the tip (the lag a read-your-writes client
// would observe). The catch-up half replays the full journal cold through
// JournalReplayer::Bootstrap, times it, and gates that the result equals
// the tailed replica's catalog at the same watermark: the checkpoint path
// and the tail path must agree on commit_seq and on every row.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

#include "bench_json.h"
#include "catalog/journal_replayer.h"
#include "common/clock.h"
#include "engine/engine.h"
#include "storage/memory_object_store.h"

using polaris::engine::EngineOptions;
using polaris::engine::PolarisEngine;

namespace {

polaris::format::Schema EventsSchema() {
  using polaris::format::ColumnType;
  return polaris::format::Schema(
      {{"id", ColumnType::kInt64}, {"val", ColumnType::kInt64}});
}

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  size_t idx = static_cast<size_t>(p * (samples.size() - 1));
  return samples[idx];
}

}  // namespace

int main() {
  polaris::common::SimClock clock(1'000'000);
  polaris::storage::MemoryObjectStore store(&clock);

  EngineOptions primary_options;
  primary_options.num_cells = 2;
  primary_options.worker_threads = 2;
  primary_options.sampler_period_micros = 0;
  // Many small segments and no automatic checkpoint, so the cold
  // bootstrap replays the whole log across many segment boundaries.
  primary_options.journal_options.records_per_segment = 8;
  primary_options.journal_options.checkpoint_every_records = 1u << 30;

  auto primary_opened = PolarisEngine::OpenOn(primary_options, &store, &clock);
  if (!primary_opened.ok()) {
    std::fprintf(stderr, "primary open failed: %s\n",
                 primary_opened.status().ToString().c_str());
    return 1;
  }
  auto& primary = *primary_opened;
  if (!primary->CreateTable("events", EventsSchema()).ok()) return 1;

  EngineOptions replica_options = primary_options;
  replica_options.replica = true;
  replica_options.replica_options.poll_interval_micros = 2'000;
  auto replica_opened = PolarisEngine::OpenOn(replica_options, &store, &clock);
  if (!replica_opened.ok()) {
    std::fprintf(stderr, "replica open failed: %s\n",
                 replica_opened.status().ToString().c_str());
    return 1;
  }
  auto& replica = *replica_opened;

  polaris::bench::BenchReport report("micro_replica_lag");
  report.config()
      .Add("poll_interval_us", uint64_t{2000})
      .Add("records_per_segment", uint64_t{8})
      .Add("bursts_per_rate", uint64_t{20});

  std::printf("micro_replica_lag: apply lag vs primary write rate\n\n");
  std::printf("%-12s %-14s %-14s %-14s\n", "write_rate", "p50_lag_us",
              "p99_lag_us", "max_lag_us");

  auto commit_one = [&](int64_t id) -> bool {
    polaris::format::RecordBatch batch{EventsSchema()};
    (void)batch.AppendRow({polaris::format::Value::Int64(id),
                           polaris::format::Value::Int64(id * 10)});
    auto status =
        primary->RunInTransaction([&](polaris::txn::Transaction* txn) {
          return primary->Insert(txn, "events", batch).status();
        });
    if (!status.ok()) {
      std::fprintf(stderr, "insert failed: %s\n", status.ToString().c_str());
    }
    return status.ok();
  };

  constexpr int kBursts = 20;
  constexpr double kLagCeilingUs = 5e6;
  int64_t next_id = 0;
  for (int write_rate : {1, 8, 32}) {
    std::vector<double> lag_us;
    lag_us.reserve(kBursts);
    for (int burst = 0; burst < kBursts; ++burst) {
      for (int i = 0; i < write_rate; ++i) {
        if (!commit_one(next_id++)) return 1;
      }
      const uint64_t tip = primary->catalog()->store()->LatestCommitSeq();
      auto t0 = std::chrono::steady_clock::now();
      while (replica->replica()->watermark() < tip) {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
        if (std::chrono::duration<double, std::micro>(
                std::chrono::steady_clock::now() - t0)
                .count() > kLagCeilingUs) {
          std::fprintf(stderr,
                       "replica never caught up to seq %llu (watermark %llu)\n",
                       static_cast<unsigned long long>(tip),
                       static_cast<unsigned long long>(
                           replica->replica()->watermark()));
          return 1;
        }
      }
      lag_us.push_back(std::chrono::duration<double, std::micro>(
                           std::chrono::steady_clock::now() - t0)
                           .count());
    }
    double p50 = Percentile(lag_us, 0.50);
    double p99 = Percentile(lag_us, 0.99);
    double max = *std::max_element(lag_us.begin(), lag_us.end());
    std::printf("%-12d %-14.0f %-14.0f %-14.0f\n", write_rate, p50, p99, max);
    report.AddRow()
        .Add("write_rate", static_cast<uint64_t>(write_rate))
        .Add("p50_lag_us", p50)
        .Add("p99_lag_us", p99)
        .Add("max_lag_us", max);
    if (p99 > kLagCeilingUs) {
      std::fprintf(stderr, "p99 apply lag %.0fus exceeds %.0fus ceiling\n",
                   p99, kLagCeilingUs);
      return 1;
    }
  }

  // Sanity: after the last burst drained, the replica catalog sits at the
  // primary's exact sequence.
  const uint64_t primary_seq = primary->catalog()->store()->LatestCommitSeq();
  if (replica->replica()->watermark() != primary_seq) {
    std::fprintf(stderr, "watermark %llu != primary seq %llu\n",
                 static_cast<unsigned long long>(
                     replica->replica()->watermark()),
                 static_cast<unsigned long long>(primary_seq));
    return 1;
  }

  // --- Cold catch-up: bootstrap vs the tailed replica ---------------------
  polaris::catalog::JournalReplayer replayer(
      &store, primary_options.journal_options);
  auto t0 = std::chrono::steady_clock::now();
  auto cold = replayer.Bootstrap();
  const double catchup_ms = std::chrono::duration<double, std::milli>(
                                std::chrono::steady_clock::now() - t0)
                                .count();
  if (!cold.ok()) {
    std::fprintf(stderr, "bootstrap failed: %s\n",
                 cold.status().ToString().c_str());
    return 1;
  }
  uint64_t tailed_seq = 0;
  const auto tailed_rows =
      replica->catalog()->store()->ExportLatest(&tailed_seq);
  if (cold->state.commit_seq != primary_seq || tailed_seq != primary_seq) {
    std::fprintf(stderr,
                 "bootstrap stopped at %llu, tailed replica at %llu, primary "
                 "at %llu\n",
                 static_cast<unsigned long long>(cold->state.commit_seq),
                 static_cast<unsigned long long>(tailed_seq),
                 static_cast<unsigned long long>(primary_seq));
    return 1;
  }
  if (cold->state.rows != tailed_rows) {
    std::fprintf(stderr,
                 "cold bootstrap (%zu rows) diverged from the tailed replica "
                 "(%zu rows) at seq %llu\n",
                 cold->state.rows.size(), tailed_rows.size(),
                 static_cast<unsigned long long>(primary_seq));
    return 1;
  }
  std::printf(
      "\ncold catch-up over %llu segments (%llu records): %.2fms, equal to "
      "the tailed replica at seq %llu\n",
      static_cast<unsigned long long>(cold->state.segments_scanned),
      static_cast<unsigned long long>(cold->state.records_replayed),
      catchup_ms, static_cast<unsigned long long>(primary_seq));
  report.AddRow()
      .Add("catchup_segments", cold->state.segments_scanned)
      .Add("catchup_records", cold->state.records_replayed)
      .Add("catchup_serial_ms", catchup_ms);

  report.SetMetrics(replica->MetricsSnapshot());
  std::printf(
      "\nshape check: apply lag tracks the poll cadence (a few ms), not the "
      "burst\nsize — the tailer drains a whole burst in one poll. A cold "
      "bootstrap of the\njournal reproduces the tailed replica's catalog "
      "exactly.\n");
  report.Write();
  return 0;
}
