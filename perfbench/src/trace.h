#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// One finished span. `layer` names the module whose public entry point
/// the span wraps; spans of one client operation share `op_id`.
struct SpanRecord {
  const char* name = "";
  const char* layer = "";
  int64_t start_ns = 0;  // steady clock
  int64_t end_ns = 0;
  uint64_t id = 0;
  uint64_t parent = 0;  // 0 = root
  uint64_t op_id = 0;
  uint32_t thread = 0;
};

/// Per-layer totals derived from the spans.
struct LayerTime {
  uint64_t spans = 0;
  /// Span time minus the part covered by child spans.
  double self_ms = 0;
};

class SpanRecorder;

/// One thread's span buffer and open-span stack. Obtained from
/// SpanRecorder::ForThread and used only by that thread.
class SpanThread {
 public:
  SpanThread(const SpanThread&) = delete;
  SpanThread& operator=(const SpanThread&) = delete;

 private:
  friend class SpanRecorder;
  friend class ScopedSpan;
  SpanThread(SpanRecorder* recorder, uint32_t thread)
      : recorder_(recorder), thread_(thread) {}

  SpanRecorder* recorder_;
  uint32_t thread_;
  std::vector<SpanRecord> done_;
  std::vector<SpanRecord> open_;
};

/// The benchmark's own span recorder: spans stay in memory and are
/// written out once the run ends. Deliberately separate from the engine's
/// obs::Tracer, whose ambient installation would switch on spans inside
/// the program and so change what is being measured.
class SpanRecorder {
 public:
  SpanRecorder() = default;
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  /// A buffer for the calling thread; the recorder owns it.
  SpanThread* ForThread();

  /// Every finished span, ordered by start time.
  std::vector<SpanRecord> Spans() const;

  std::map<std::string, LayerTime> SelfTimeByLayer() const;

  /// Chrome trace_event JSON ("X" complete events, microseconds).
  std::string ChromeTraceJson() const;

  uint64_t NextId();

 private:
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<SpanThread>> threads_;  // guarded by mu_
  std::atomic<uint64_t> next_id_{1};
};

/// RAII span on a SpanThread; a null thread makes it inert, which is how
/// the untraced runs skip tracing entirely.
class ScopedSpan {
 public:
  ScopedSpan(SpanThread* thread, const char* name, const char* layer,
             uint64_t op_id);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanThread* thread_;
};

int64_t SteadyNowNs();

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
