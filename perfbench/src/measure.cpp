#include "measure.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>

namespace perfbench {

Quantile quantile(std::vector<double> samples, double q) {
  Quantile out;
  out.samples = samples.size();
  if (samples.empty()) return out;
  std::sort(samples.begin(), samples.end());
  const double pos = std::clamp(q, 0.0, 1.0) *
                     static_cast<double>(samples.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  out.value = samples[lo] + (samples[hi] - samples[lo]) * frac;
  return out;
}

double median(std::vector<double> samples) {
  return quantile(std::move(samples), 0.5).value;
}

Resources resources_now() {
  Resources out;
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) == 0) {
    out.user_s = static_cast<double>(usage.ru_utime.tv_sec) +
                 static_cast<double>(usage.ru_utime.tv_usec) / 1e6;
    out.sys_s = static_cast<double>(usage.ru_stime.tv_sec) +
                static_cast<double>(usage.ru_stime.tv_usec) / 1e6;
    out.minor_faults = static_cast<double>(usage.ru_minflt);
    out.peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB
  }
  std::ifstream statm("/proc/self/statm");
  double size_pages = 0;
  double resident_pages = 0;
  if (statm >> size_pages >> resident_pages) {
    out.current_rss_mb = resident_pages *
                         static_cast<double>(sysconf(_SC_PAGESIZE)) /
                         (1024.0 * 1024.0);
  }
  return out;
}

void Metrics::add(const std::string& name, double value,
                  const std::string& unit) {
  entries_.push_back({name, value, unit});
}

bool Metrics::all_finite() const {
  return std::all_of(entries_.begin(), entries_.end(),
                     [](const Entry& e) { return std::isfinite(e.value); });
}

void Metrics::write_json(std::ostream& os) const {
  os << '{';
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    char value[64];
    // JSON has no NaN or infinity; main() marks such a run incorrect.
    std::snprintf(value, sizeof value, "%.17g",
                  std::isfinite(entries_[i].value) ? entries_[i].value : 0.0);
    os << (i ? ", " : "") << '"' << entries_[i].name << "\": {\"value\": "
       << value << ", \"unit\": \"" << entries_[i].unit << "\"}";
  }
  os << '}';
}

}  // namespace perfbench
