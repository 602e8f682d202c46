// Interactive SQL shell over a PolarisEngine: type statements terminated
// by ';'. Also usable non-interactively:
//
//   $ echo "CREATE TABLE t (x BIGINT); INSERT INTO t VALUES (1);
//           SELECT * FROM t;" | ./build/examples/sql_shell
//
// Set POLARIS_FAULT_P=<probability> to inject transient storage faults on
// every read and write (absorbed by the engine's retry layer).
//
// By default the database lives in memory and vanishes on exit. Pass
// --data-dir <path> to open (or create) a durable database there:
// committed transactions survive restarts and are recovered on open.
//
// Pass --replica together with --data-dir to attach to that database as a
// read-only replica: the shell bootstraps from the primary's checkpoint +
// journal and continuously applies new commits, so SELECTs see the
// primary's writes with bounded lag (watch SELECT * FROM sys.dm_replica;).
// DML/DDL is rejected; SET WAIT FOR COMMIT <seq>; blocks until the
// primary's commit <seq> is visible (read-your-writes).
//
// Shell meta-commands (each terminated by ';'):
//   METRICS            dump the unified metrics registry in Prometheus
//                      text exposition format (same renderer a scrape
//                      endpoint would use)
//   HEALTH             SLO watchdog verdicts (SELECT * FROM sys.dm_health)
//   EVENTS DUMP <file> export the structured event log as JSON lines
//   TRACE ON | OFF     enable/disable the engine span recorder
//   TRACE DUMP <file>  export recorded spans as Chrome/Perfetto JSON
//                      (open in https://ui.perfetto.dev)
//   QUERYSTORE TOP <n> heaviest statement fingerprints by total wall time
//                      (shorthand for a sys.query_store SELECT)
//   WAITS [TOP <n>]    engine-wide wait-event totals by class, heaviest
//                      first (shorthand for a sys.dm_wait_stats SELECT)
//
// Pass --log-json <file> to stream every structured event to <file> as
// JSON lines while the shell runs; on exit the shell emits one
// shell.wait_summary event with the session's per-class wait totals.
//
// EXPLAIN ANALYZE <statement> prints the statement's span tree. System
// views are queryable like tables: SELECT * FROM sys.dm_views; lists them.
//
// SET DEADLINE <ms>; gives every subsequent statement a time budget (0
// disables it); KILL <txn_id>; cancels a running transaction — find ids
// with SELECT * FROM sys.dm_tran_active;.

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "engine/engine.h"
#include "sql/session.h"

using polaris::engine::PolarisEngine;
using polaris::sql::SqlResult;
using polaris::sql::SqlSession;

namespace {

void PrintResult(const SqlResult& result) {
  const auto& batch = result.batch;
  if (batch.num_columns() > 0) {
    for (size_t c = 0; c < batch.num_columns(); ++c) {
      std::printf("%-18s", batch.schema().column(c).name.c_str());
    }
    std::printf("\n");
    for (size_t c = 0; c < batch.num_columns(); ++c) {
      std::printf("%-18s", "----------------");
    }
    std::printf("\n");
    for (size_t r = 0; r < batch.num_rows(); ++r) {
      for (size_t c = 0; c < batch.num_columns(); ++c) {
        std::printf("%-18s", batch.column(c).ValueAt(r).ToString().c_str());
      }
      std::printf("\n");
    }
  }
  if (!result.message.empty()) {
    std::printf("%s\n", result.message.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  polaris::engine::EngineOptions options;
  std::string log_json_path;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--data-dir" && i + 1 < argc) {
      options.data_dir = argv[++i];
    } else if (arg.rfind("--data-dir=", 0) == 0) {
      options.data_dir = arg.substr(std::string("--data-dir=").size());
    } else if (arg == "--log-json" && i + 1 < argc) {
      log_json_path = argv[++i];
    } else if (arg.rfind("--log-json=", 0) == 0) {
      log_json_path = arg.substr(std::string("--log-json=").size());
    } else if (arg == "--replica") {
      options.replica = true;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--data-dir <path>] [--replica] "
                   "[--log-json <file>]\n",
                   argv[0]);
      return 2;
    }
  }
  if (options.replica && options.data_dir.empty()) {
    std::fprintf(stderr, "--replica needs --data-dir <path> (the primary's "
                         "database directory)\n");
    return 2;
  }
  if (const char* fault_p = std::getenv("POLARIS_FAULT_P")) {
    double p = std::atof(fault_p);
    options.fault_policy.read_failure_probability = p;
    options.fault_policy.write_failure_probability = p;
    std::fprintf(stderr, "[fault injection: p=%.3f on reads and writes]\n",
                 p);
  }
  auto opened = PolarisEngine::Open(options);
  if (!opened.ok()) {
    std::fprintf(stderr, "cannot open database: %s\n",
                 opened.status().ToString().c_str());
    return 1;
  }
  PolarisEngine& engine = **opened;
  if (!log_json_path.empty()) {
    auto st = engine.events()->OpenJsonSink(log_json_path);
    if (!st.ok()) {
      std::fprintf(stderr, "cannot open event sink: %s\n",
                   st.ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "[structured events -> %s]\n",
                 log_json_path.c_str());
  }
  SqlSession session(&engine);
  bool interactive = isatty(fileno(stdin));

  if (interactive) {
    std::printf(
        "polaris-tx SQL shell. Statements end with ';'. Ctrl-D to exit.\n"
        "Dialect: CREATE/DROP/CLONE TABLE, INSERT, SELECT [AS OF], UPDATE,"
        " DELETE,\n         BEGIN/COMMIT/ROLLBACK.\n"
        "Overload: SET DEADLINE <ms> caps every later statement (0 turns it"
        " off);\n         KILL <txn_id> cancels a transaction (ids in "
        "sys.dm_tran_active).\n"
        "System views: SELECT * FROM sys.dm_views;   Meta: METRICS, "
        "HEALTH,\n         TRACE ON|OFF|DUMP <file>, EVENTS DUMP <file>, "
        "QUERYSTORE TOP <n>,\n         WAITS [TOP <n>].\n\n");
    if (options.replica) {
      auto status = engine.replica()->GetStatus();
      std::printf(
          "read-only replica of %s (watermark %llu, bootstrap replayed "
          "%llu records)\nwrites are rejected; SET WAIT FOR COMMIT <seq>; "
          "waits for a primary commit;\nSET MAX_STALENESS <ms>; bounds read "
          "staleness; PROMOTE; takes over as primary\n(fencing the old one "
          "-- see sys.dm_failover)\n\n",
          options.data_dir.c_str(),
          static_cast<unsigned long long>(status.watermark),
          static_cast<unsigned long long>(status.bootstrap_records));
    } else if (!options.data_dir.empty()) {
      const auto& recovery = engine.recovery_info();
      std::printf(
          "durable database at %s (checkpoint seq %llu, %llu journal "
          "records replayed)\n\n",
          options.data_dir.c_str(),
          static_cast<unsigned long long>(recovery.checkpoint_seq),
          static_cast<unsigned long long>(recovery.records_replayed));
    }
  }

  std::string buffer;
  std::string line;
  while (true) {
    if (interactive) {
      std::printf(session.in_transaction() ? "txn> " : "sql> ");
      std::fflush(stdout);
    }
    if (!std::getline(std::cin, line)) break;
    buffer += line;
    buffer += '\n';
    // Execute every complete (';'-terminated) statement in the buffer.
    size_t semi;
    while ((semi = buffer.find(';')) != std::string::npos) {
      std::string statement = buffer.substr(0, semi + 1);
      buffer.erase(0, semi + 1);
      // Skip empty statements.
      bool blank = true;
      for (char c : statement) {
        if (!std::isspace(static_cast<unsigned char>(c)) && c != ';') {
          blank = false;
          break;
        }
      }
      if (blank) continue;
      // Shell meta-command: dump the unified metrics registry.
      std::string word;
      for (char c : statement) {
        if (std::isalpha(static_cast<unsigned char>(c))) {
          word += static_cast<char>(std::toupper(c));
        } else if (!word.empty()) {
          break;
        }
      }
      if (word == "METRICS") {
        // One code path for humans and scrapers: the Prometheus renderer.
        std::fputs(engine.MetricsSnapshot().ToPrometheusText().c_str(),
                   stdout);
        continue;
      }
      if (word == "HEALTH") {
        auto health = session.Execute("SELECT * FROM sys.dm_health;");
        if (health.ok()) {
          PrintResult(*health);
        } else {
          std::printf("ERROR: %s\n", health.status().ToString().c_str());
        }
        continue;
      }
      if (word == "EVENTS") {
        // EVENTS DUMP <file>
        std::istringstream parts(statement);
        std::string cmd, sub, arg;
        parts >> cmd >> sub;
        std::getline(parts, arg);
        while (!arg.empty() &&
               (std::isspace(static_cast<unsigned char>(arg.back())) ||
                arg.back() == ';')) {
          arg.pop_back();
        }
        while (!arg.empty() &&
               std::isspace(static_cast<unsigned char>(arg.front()))) {
          arg.erase(arg.begin());
        }
        for (char& c : sub) c = static_cast<char>(std::toupper(
            static_cast<unsigned char>(c)));
        if (!sub.empty() && sub.back() == ';') sub.pop_back();
        if (sub == "DUMP" && !arg.empty()) {
          std::ofstream out(arg, std::ios::trunc);
          if (!out) {
            std::printf("ERROR: cannot open %s\n", arg.c_str());
            continue;
          }
          out << engine.events()->ToJsonLines();
          std::printf("EVENTS DUMP %s (%zu events, %llu dropped)\n",
                      arg.c_str(), engine.events()->size(),
                      static_cast<unsigned long long>(
                          engine.events()->dropped()));
        } else {
          std::printf("ERROR: usage: EVENTS DUMP <file>\n");
        }
        continue;
      }
      if (word == "TRACE") {
        // TRACE ON | TRACE OFF | TRACE DUMP <file>
        std::istringstream parts(statement);
        std::string cmd, sub, arg;
        parts >> cmd >> sub;
        std::getline(parts, arg);
        while (!arg.empty() &&
               (std::isspace(static_cast<unsigned char>(arg.back())) ||
                arg.back() == ';')) {
          arg.pop_back();
        }
        while (!arg.empty() &&
               std::isspace(static_cast<unsigned char>(arg.front()))) {
          arg.erase(arg.begin());
        }
        for (char& c : sub) c = static_cast<char>(std::toupper(
            static_cast<unsigned char>(c)));
        if (!sub.empty() && sub.back() == ';') sub.pop_back();
        if (sub == "ON") {
          engine.tracer()->set_enabled(true);
          std::printf("TRACE ON\n");
        } else if (sub == "OFF") {
          engine.tracer()->set_enabled(false);
          std::printf("TRACE OFF\n");
        } else if (sub == "DUMP") {
          if (arg.empty()) {
            std::printf("ERROR: TRACE DUMP needs a file name\n");
            continue;
          }
          std::ofstream out(arg, std::ios::trunc);
          if (!out) {
            std::printf("ERROR: cannot open %s\n", arg.c_str());
            continue;
          }
          out << engine.tracer()->ExportChromeTrace();
          std::printf("TRACE DUMP %s (%zu spans, %llu dropped)\n",
                      arg.c_str(), engine.tracer()->Snapshot().size(),
                      static_cast<unsigned long long>(
                          engine.tracer()->dropped_spans()));
        } else {
          std::printf("ERROR: usage: TRACE ON | TRACE OFF | TRACE DUMP "
                      "<file>\n");
        }
        continue;
      }
      if (word == "QUERYSTORE") {
        // QUERYSTORE TOP <n>
        std::istringstream parts(statement);
        std::string cmd, sub, arg;
        parts >> cmd >> sub >> arg;
        for (char& c : sub) c = static_cast<char>(std::toupper(
            static_cast<unsigned char>(c)));
        while (!arg.empty() &&
               (arg.back() == ';' ||
                std::isspace(static_cast<unsigned char>(arg.back())))) {
          arg.pop_back();
        }
        long n = arg.empty() ? 0 : std::strtol(arg.c_str(), nullptr, 10);
        if (sub != "TOP" || n <= 0) {
          std::printf("ERROR: usage: QUERYSTORE TOP <n>\n");
          continue;
        }
        auto top = session.Execute(
            "SELECT fingerprint, kind, executions, wall_p50_us, wall_p99_us, "
            "total_wall_us, errors FROM sys.query_store ORDER BY "
            "total_wall_us DESC LIMIT " +
            std::to_string(n) + ";");
        if (top.ok()) {
          PrintResult(*top);
        } else {
          std::printf("ERROR: %s\n", top.status().ToString().c_str());
        }
        continue;
      }
      if (word == "WAITS") {
        // WAITS | WAITS TOP <n>
        std::istringstream parts(statement);
        std::string cmd, sub, arg;
        parts >> cmd >> sub >> arg;
        for (char& c : sub) c = static_cast<char>(std::toupper(
            static_cast<unsigned char>(c)));
        if (!sub.empty() && sub.back() == ';') sub.pop_back();
        while (!arg.empty() &&
               (arg.back() == ';' ||
                std::isspace(static_cast<unsigned char>(arg.back())))) {
          arg.pop_back();
        }
        long n = arg.empty() ? 0 : std::strtol(arg.c_str(), nullptr, 10);
        if (!sub.empty() && (sub != "TOP" || n <= 0)) {
          std::printf("ERROR: usage: WAITS [TOP <n>]\n");
          continue;
        }
        std::string query =
            "SELECT wait_class, waits, wait_us, max_wait_us, signal_us "
            "FROM sys.dm_wait_stats ORDER BY wait_us DESC";
        if (n > 0) query += " LIMIT " + std::to_string(n);
        auto waits = session.Execute(query + ";");
        if (waits.ok()) {
          PrintResult(*waits);
        } else {
          std::printf("ERROR: %s\n", waits.status().ToString().c_str());
        }
        continue;
      }
      auto result = session.Execute(statement);
      if (result.ok()) {
        PrintResult(*result);
      } else {
        std::printf("ERROR: %s\n", result.status().ToString().c_str());
      }
    }
  }
  if (!log_json_path.empty()) {
    // One terminal event carrying the session's wait profile, so a
    // --log-json artifact is self-describing about where time blocked.
    polaris::common::WaitStats::Snapshot waits =
        engine.wait_stats()->TakeSnapshot();
    std::vector<std::pair<std::string, std::string>> fields;
    fields.emplace_back("total_wait_us", std::to_string(waits.total_us()));
    for (int i = 0; i < polaris::common::kWaitClassCount; ++i) {
      if (waits.classes[i].count == 0) continue;
      fields.emplace_back(
          std::string(polaris::common::WaitClassName(
              static_cast<polaris::common::WaitClass>(i))),
          std::to_string(waits.classes[i].total_us) + "us/" +
              std::to_string(waits.classes[i].count));
    }
    engine.events()->Emit(polaris::obs::EventLevel::kInfo, "shell",
                          "shell.wait_summary", fields);
  }
  if (interactive) std::printf("\nbye\n");
  return 0;
}
