#include "spans.hpp"

#include <algorithm>
#include <fstream>
#include <stdexcept>
#include <utility>

namespace perfbench {
namespace {

// Open spans of the current thread, innermost last.
thread_local std::vector<std::int64_t> t_open_spans;

}  // namespace

std::int64_t SpanRecorder::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

std::int64_t SpanRecorder::open(std::string_view name, std::int64_t parent,
                                std::int64_t cell) {
  const std::int64_t start = now_ns();
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(SpanRecord{std::string(name), start, -1, parent, cell, 1});
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

void SpanRecorder::close(std::int64_t id, std::uint64_t calls) {
  const std::int64_t end = now_ns();
  const std::lock_guard<std::mutex> lock(mutex_);
  auto& span = spans_.at(static_cast<std::size_t>(id));
  span.end_ns = end;
  span.calls = calls;
}

std::size_t SpanRecorder::size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return spans_.size();
}

void SpanRecorder::write_jsonl(const std::string& path) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::ofstream out(path, std::ios::trunc);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const auto& s = spans_[i];
    out << "{\"id\":" << i << ",\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns
        << ",\"end_ns\":" << s.end_ns << ",\"parent\":" << s.parent
        << ",\"cell\":" << s.cell << ",\"calls\":" << s.calls << "}\n";
  }
  if (!out) throw std::runtime_error("cannot write span file " + path);
}

std::map<std::string, double> SpanRecorder::self_ms_by_layer() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(spans_.size());
  for (const auto& s : spans_) {
    if (s.parent >= 0 && s.end_ns >= 0) {
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ns, s.end_ns);
    }
  }
  std::map<std::string, double> self_ms;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const auto& s = spans_[i];
    if (s.end_ns < 0) continue;
    // Children may overlap (worker threads), so subtract their union,
    // clipped to the parent's interval.
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    std::int64_t covered = 0;
    std::int64_t run_start = 0;
    std::int64_t run_end = -1;
    for (const auto& [kid_start, kid_end] : kids) {
      const std::int64_t a = std::max(kid_start, s.start_ns);
      const std::int64_t b = std::min(kid_end, s.end_ns);
      if (b <= a) continue;
      if (a > run_end) {
        if (run_end > run_start) covered += run_end - run_start;
        run_start = a;
        run_end = b;
      } else {
        run_end = std::max(run_end, b);
      }
    }
    if (run_end > run_start) covered += run_end - run_start;
    const std::string layer = s.name.substr(0, s.name.find('.'));
    self_ms[layer] += static_cast<double>(s.end_ns - s.start_ns - covered) / 1e6;
  }
  return self_ms;
}

Span::Span(SpanRecorder* recorder, std::string_view name, std::int64_t cell,
           std::int64_t parent)
    : recorder_(recorder) {
  if (recorder_ == nullptr) return;
  if (parent == kAutoParent) parent = t_open_spans.empty() ? -1 : t_open_spans.back();
  id_ = recorder_->open(name, parent, cell);
  t_open_spans.push_back(id_);
}

Span::~Span() {
  if (recorder_ == nullptr) return;
  recorder_->close(id_, calls_);
  t_open_spans.pop_back();
}

}  // namespace perfbench
