#include "trace.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>

namespace perfbench {
namespace {

// Open spans of this thread, innermost last.
thread_local std::vector<std::uint64_t> open_spans;

std::uint32_t thread_number() {
  static std::atomic<std::uint32_t> next{1};
  thread_local const std::uint32_t mine = next.fetch_add(1);
  return mine;
}

void write_json_string(std::ostream& os, const std::string& s) {
  os << '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      os << '\\' << c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      os << buf;
    } else {
      os << c;
    }
  }
  os << '"';
}

}  // namespace

std::int64_t now_ns() {
  static const Clock::time_point epoch = Clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              epoch)
      .count();
}

std::uint64_t Tracer::begin(std::string name, std::uint64_t group) {
  const std::int64_t start = now_ns();
  std::lock_guard<std::mutex> lock(mutex_);
  Span span;
  span.name = std::move(name);
  span.start_ns = start;
  span.end_ns = start;
  span.id = spans_.size() + 1;
  span.parent = open_spans.empty() ? root_ : open_spans.back();
  span.group = group;
  span.tid = thread_number();
  spans_.push_back(std::move(span));
  open_spans.push_back(spans_.back().id);
  return spans_.back().id;
}

void Tracer::end(std::uint64_t id) {
  const std::int64_t end = now_ns();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.at(id - 1).end_ns = end;
  const auto it = std::find(open_spans.rbegin(), open_spans.rend(), id);
  if (it != open_spans.rend()) open_spans.erase(std::next(it).base());
}

void Tracer::set_root(std::uint64_t id) {
  std::lock_guard<std::mutex> lock(mutex_);
  root_ = id;
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

std::vector<Span> Tracer::named(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<Span> out;
  for (const Span& span : spans_) {
    if (span.name == name) out.push_back(span);
  }
  return out;
}

void Tracer::write_chrome_json(std::ostream& os) const {
  const std::vector<Span> all = spans();
  const std::vector<std::int64_t> self = self_times_ns(all);
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& span = all[i];
    if (!first) os << ",\n";
    first = false;
    char times[96];
    std::snprintf(times, sizeof times, "\"ts\":%.3f,\"dur\":%.3f",
                  static_cast<double>(span.start_ns) / 1e3,
                  static_cast<double>(span.duration_ns()) / 1e3);
    os << "{\"ph\":\"X\",\"pid\":1,\"tid\":" << span.tid << ",\"name\":";
    write_json_string(os, span.name);
    os << ',' << times << ",\"args\":{\"id\":" << span.id
       << ",\"parent\":" << span.parent << ",\"group\":" << span.group
       << ",\"self_us\":"
       << static_cast<double>(self[i]) / 1e3 << "}}";
  }
  os << "]}\n";
}

std::int64_t covered_ns(
    std::vector<std::pair<std::int64_t, std::int64_t>> intervals,
    std::int64_t lo, std::int64_t hi) {
  std::sort(intervals.begin(), intervals.end());
  std::int64_t covered = 0;
  std::int64_t cursor = lo;
  for (auto [start, end] : intervals) {
    start = std::max(start, cursor);
    end = std::min(end, hi);
    if (end <= start) continue;
    covered += end - start;
    cursor = end;
  }
  return covered;
}

std::vector<std::int64_t> self_times_ns(const std::vector<Span>& all) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      all.size());
  for (const Span& span : all) {
    if (span.parent != 0 && span.parent <= all.size()) {
      children[span.parent - 1].emplace_back(span.start_ns, span.end_ns);
    }
  }
  std::vector<std::int64_t> self(all.size());
  for (std::size_t i = 0; i < all.size(); ++i) {
    self[i] = all[i].duration_ns() -
              covered_ns(std::move(children[i]), all[i].start_ns,
                         all[i].end_ns);
  }
  return self;
}

}  // namespace perfbench
