// Measurement helpers shared by the workloads: quantiles that carry their
// sample count, process resource snapshots, the open-loop schedule, and
// the metric list printed as the run's final JSON line.
#pragma once

#include <cstddef>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

// A quantile together with the number of samples it was taken from.
struct Quantile {
  double value = 0;
  std::size_t samples = 0;
};

// Linear-interpolation quantile (q in [0, 1]) of `samples`; value 0 and
// samples 0 for an empty input.
Quantile quantile(std::vector<double> samples, double q);
double median(std::vector<double> samples);

// Whole-process resource counters from getrusage, plus current RSS.
struct Resources {
  double user_s = 0;
  double sys_s = 0;
  double minor_faults = 0;
  double peak_rss_mb = 0;     // ru_maxrss
  double current_rss_mb = 0;  // /proc/self/statm, 0 where unavailable
};
Resources resources_now();

// Fixed-rate send schedule of an open-loop generator: request i is due at
// start + i / rate, whether or not earlier requests have completed.
class OpenLoopSchedule {
 public:
  OpenLoopSchedule(std::int64_t start_ns, double rate_per_s)
      : start_ns_(start_ns), period_ns_(1e9 / rate_per_s) {}
  std::int64_t due_ns(std::size_t i) const {
    return start_ns_ +
           static_cast<std::int64_t>(static_cast<double>(i) * period_ns_);
  }

 private:
  std::int64_t start_ns_;
  double period_ns_;
};

// Latency of a request timed from when it was due (not from when the
// generator got round to sending it), in milliseconds.
inline double due_latency_ms(std::int64_t due_ns, std::int64_t done_ns) {
  return static_cast<double>(done_ns - due_ns) / 1e6;
}

// Ordered name -> (value, unit) list rendered as {"name": {"value": v,
// "unit": "u"}, ...}.
class Metrics {
 public:
  void add(const std::string& name, double value, const std::string& unit);
  bool all_finite() const;
  void write_json(std::ostream& os) const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

}  // namespace perfbench
