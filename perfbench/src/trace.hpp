// In-memory span recorder for the benchmark's traced runs.
//
// Spans are recorded from the benchmark's own code around each call into
// a layer of the program (and by the timing decorators in workloads.cpp
// around every backend run). They stay in memory until the run ends and
// are then written as Chrome trace-event JSON, which Perfetto and
// chrome://tracing open directly.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

// Nanoseconds since the first call in this process (a shared epoch keeps
// the trace's timestamps small and comparable across threads).
std::int64_t now_ns();

struct Span {
  std::string name;        // "<layer>.<call>", e.g. "engine.run_sharded"
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t id = 0;      // 1-based, unique within the tracer
  std::uint64_t parent = 0;  // 0 = root
  std::uint64_t group = 0;   // request or batch id (0 = none)
  std::uint32_t tid = 0;     // small per-thread number for the trace viewer

  std::int64_t duration_ns() const { return end_ns - start_ns; }
};

// Thread-safe span store. A span opened with begin() becomes the parent
// of later spans opened on the same thread until it ends; spans opened on
// a thread with no open span take the tracer's root (set by the caller
// around a phase whose work runs on other threads, such as engine
// dispatcher threads).
class Tracer {
 public:
  std::uint64_t begin(std::string name, std::uint64_t group = 0);
  void end(std::uint64_t id);

  void set_root(std::uint64_t id);

  std::vector<Span> spans() const;
  // Spans named `name`, in recording order.
  std::vector<Span> named(const std::string& name) const;

  // Chrome trace-event JSON ("X" complete events, microsecond times).
  void write_chrome_json(std::ostream& os) const;

 private:
  mutable std::mutex mutex_;
  std::vector<Span> spans_;  // guarded by mutex_
  std::uint64_t root_ = 0;   // guarded by mutex_
};

// RAII span on the calling thread.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, std::string name, std::uint64_t group = 0)
      : tracer_(tracer), id_(tracer.begin(std::move(name), group)) {}
  ~ScopedSpan() { tracer_.end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::uint64_t id() const { return id_; }

 private:
  Tracer& tracer_;
  std::uint64_t id_;
};

// Length of the union of `intervals` clipped to [lo, hi).
std::int64_t covered_ns(std::vector<std::pair<std::int64_t, std::int64_t>>
                            intervals,
                        std::int64_t lo, std::int64_t hi);

// Self time of every span in `all` (same order): its duration minus the
// part of its interval that its direct children (spans whose parent is
// its id) cover. Ids must be 1-based positions, as Tracer assigns them.
std::vector<std::int64_t> self_times_ns(const std::vector<Span>& all);

}  // namespace perfbench
