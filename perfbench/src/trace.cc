#include "trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <unordered_map>

namespace perfbench {

int64_t SteadyNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

SpanThread* SpanRecorder::ForThread() {
  std::lock_guard<std::mutex> lock(mu_);
  threads_.push_back(std::unique_ptr<SpanThread>(
      new SpanThread(this, static_cast<uint32_t>(threads_.size() + 1))));
  return threads_.back().get();
}

uint64_t SpanRecorder::NextId() {
  return next_id_.fetch_add(1, std::memory_order_relaxed);
}

std::vector<SpanRecord> SpanRecorder::Spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<SpanRecord> all;
  for (const auto& t : threads_) {
    all.insert(all.end(), t->done_.begin(), t->done_.end());
  }
  std::sort(all.begin(), all.end(),
            [](const SpanRecord& a, const SpanRecord& b) {
              return a.start_ns < b.start_ns;
            });
  return all;
}

std::map<std::string, LayerTime> SpanRecorder::SelfTimeByLayer() const {
  const std::vector<SpanRecord> spans = Spans();
  // Children nest inside their parent on the same thread, so a parent's
  // self time is its duration minus its direct children's durations.
  std::unordered_map<uint64_t, int64_t> child_ns;
  for (const auto& s : spans) {
    if (s.parent != 0) child_ns[s.parent] += s.end_ns - s.start_ns;
  }
  std::map<std::string, LayerTime> out;
  for (const auto& s : spans) {
    LayerTime& lt = out[s.layer];
    ++lt.spans;
    auto it = child_ns.find(s.id);
    const int64_t self =
        (s.end_ns - s.start_ns) - (it == child_ns.end() ? 0 : it->second);
    lt.self_ms += static_cast<double>(self) / 1e6;
  }
  return out;
}

std::string SpanRecorder::ChromeTraceJson() const {
  const std::vector<SpanRecord> spans = Spans();
  const int64_t origin = spans.empty() ? 0 : spans.front().start_ns;
  std::string out = "{\"traceEvents\":[";
  char buf[512];
  for (size_t i = 0; i < spans.size(); ++i) {
    const auto& s = spans[i];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                  "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%u,"
                  "\"args\":{\"id\":%llu,\"parent\":%llu,\"op\":%llu}}",
                  i == 0 ? "" : ",\n", s.name, s.layer,
                  static_cast<double>(s.start_ns - origin) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3, s.thread,
                  static_cast<unsigned long long>(s.id),
                  static_cast<unsigned long long>(s.parent),
                  static_cast<unsigned long long>(s.op_id));
    out += buf;
  }
  out += "],\"displayTimeUnit\":\"ms\"}\n";
  return out;
}

ScopedSpan::ScopedSpan(SpanThread* thread, const char* name,
                       const char* layer, uint64_t op_id)
    : thread_(thread) {
  if (thread_ == nullptr) return;
  SpanRecord r;
  r.name = name;
  r.layer = layer;
  r.id = thread_->recorder_->NextId();
  r.parent = thread_->open_.empty() ? 0 : thread_->open_.back().id;
  r.op_id = op_id;
  r.thread = thread_->thread_;
  r.start_ns = SteadyNowNs();
  thread_->open_.push_back(r);
}

ScopedSpan::~ScopedSpan() {
  if (thread_ == nullptr) return;
  SpanRecord r = thread_->open_.back();
  thread_->open_.pop_back();
  r.end_ns = SteadyNowNs();
  thread_->done_.push_back(r);
}

}  // namespace perfbench
