// Benchmark-owned spans: one record around every call the traced run makes
// into a qperc layer. Spans live in memory and are written out once, at the
// end of the run; nothing inside src/ is instrumented.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

struct SpanRecord {
  /// "<layer>.<function>", e.g. "core.run_trial"; the layer is the prefix.
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = -1;
  /// Index of the enclosing span, -1 for a root.
  std::int64_t parent = -1;
  /// Grid cell the call worked on, -1 when it is not cell-bound.
  std::int64_t cell = -1;
  /// Calls the span covers (batched micro-calls record one span).
  std::uint64_t calls = 1;
};

/// Thread-safe span store. Parents nest automatically on one thread; spans
/// opened on worker threads name their parent explicitly.
class SpanRecorder {
 public:
  SpanRecorder() : epoch_(std::chrono::steady_clock::now()) {}

  std::int64_t open(std::string_view name, std::int64_t parent, std::int64_t cell);
  void close(std::int64_t id, std::uint64_t calls);

  /// JSON lines, one span each, in opening order.
  void write_jsonl(const std::string& path) const;
  /// Self time per layer in milliseconds: each span's duration minus the
  /// union of its children's intervals, summed over the layer's spans.
  [[nodiscard]] std::map<std::string, double> self_ms_by_layer() const;
  [[nodiscard]] std::size_t size() const;

 private:
  [[nodiscard]] std::int64_t now_ns() const;

  std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mutex_;
  std::vector<SpanRecord> spans_;
};

/// RAII span; a null recorder makes it a no-op (the untraced run).
class Span {
 public:
  static constexpr std::int64_t kAutoParent = -2;

  Span(SpanRecorder* recorder, std::string_view name, std::int64_t cell = -1,
       std::int64_t parent = kAutoParent);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  void set_calls(std::uint64_t calls) { calls_ = calls; }
  [[nodiscard]] std::int64_t id() const { return id_; }

 private:
  SpanRecorder* recorder_;
  std::int64_t id_ = -1;
  std::uint64_t calls_ = 1;
};

}  // namespace perfbench
