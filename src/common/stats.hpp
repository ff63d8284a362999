// Streaming statistics accumulators used by benchmark harnesses and the
// simulator's performance counters.
#pragma once

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/check.hpp"
#include "common/types.hpp"

namespace pimwfa {

// Welford online mean/variance plus min/max.
class RunningStats {
 public:
  void add(double x) noexcept {
    ++count_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(count_);
    m2_ += delta * (x - mean_);
    min_ = count_ == 1 ? x : std::min(min_, x);
    max_ = count_ == 1 ? x : std::max(max_, x);
  }

  u64 count() const noexcept { return count_; }
  double mean() const noexcept { return count_ ? mean_ : 0.0; }
  double min() const noexcept { return count_ ? min_ : 0.0; }
  double max() const noexcept { return count_ ? max_ : 0.0; }
  double sum() const noexcept { return mean_ * static_cast<double>(count_); }

  double variance() const noexcept {
    return count_ > 1 ? m2_ / static_cast<double>(count_ - 1) : 0.0;
  }
  double stddev() const noexcept { return std::sqrt(variance()); }

  void merge(const RunningStats& other) noexcept {
    if (other.count_ == 0) return;
    if (count_ == 0) {
      *this = other;
      return;
    }
    const double total = static_cast<double>(count_ + other.count_);
    const double delta = other.mean_ - mean_;
    m2_ += other.m2_ + delta * delta * static_cast<double>(count_) *
                           static_cast<double>(other.count_) / total;
    mean_ += delta * static_cast<double>(other.count_) / total;
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
    count_ += other.count_;
  }

 private:
  u64 count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

// Stores all samples; supports exact quantiles. Suitable for the modest
// sample counts produced by the bench harnesses.
class SampleSet {
 public:
  void add(double x) { samples_.push_back(x); }
  usize size() const noexcept { return samples_.size(); }
  bool empty() const noexcept { return samples_.empty(); }

  // q in [0,1]; nearest-rank quantile.
  double quantile(double q) const {
    PIMWFA_CHECK(!samples_.empty(), "quantile of empty SampleSet");
    PIMWFA_ARG_CHECK(q >= 0.0 && q <= 1.0, "quantile q out of [0,1]");
    std::vector<double> sorted = samples_;
    std::sort(sorted.begin(), sorted.end());
    const usize idx = static_cast<usize>(
        std::min<double>(static_cast<double>(sorted.size() - 1),
                         std::floor(q * static_cast<double>(sorted.size()))));
    return sorted[idx];
  }

  double median() const { return quantile(0.5); }

  double mean() const {
    PIMWFA_CHECK(!samples_.empty(), "mean of empty SampleSet");
    double total = 0.0;
    for (double s : samples_) total += s;
    return total / static_cast<double>(samples_.size());
  }

 private:
  std::vector<double> samples_;
};

// Fixed-bucket histogram over [lo, hi) for integer-ish metrics (scores,
// wavefront sizes...). Out-of-range samples clamp to the edge buckets.
class Histogram {
 public:
  Histogram(double lo, double hi, usize buckets)
      : lo_(lo), hi_(hi), counts_(buckets, 0) {
    PIMWFA_ARG_CHECK(buckets > 0, "histogram needs at least one bucket");
    PIMWFA_ARG_CHECK(hi > lo, "histogram range must be non-empty");
  }

  void add(double x) noexcept {
    const double t = (x - lo_) / (hi_ - lo_);
    i64 idx = static_cast<i64>(t * static_cast<double>(counts_.size()));
    idx = std::clamp<i64>(idx, 0, static_cast<i64>(counts_.size()) - 1);
    ++counts_[static_cast<usize>(idx)];
    ++total_;
  }

  u64 bucket(usize i) const { return counts_.at(i); }
  usize buckets() const noexcept { return counts_.size(); }
  u64 total() const noexcept { return total_; }

 private:
  double lo_;
  double hi_;
  std::vector<u64> counts_;
  u64 total_ = 0;
};

// Log-bucketed histogram of non-negative samples (HdrHistogram-style) for
// long-lived quantile tracking, e.g. request latencies in ms: a fixed
// bucket array, O(1) add, O(buckets) quantiles. Buckets grow
// geometrically by kGrowth from kLowest, and a quantile reports its
// bucket's geometric midpoint, so over [kLowest, kHighest) it is within
// 1% relative error of the nearest-rank sample SampleSet::quantile
// returns. Samples below kLowest or at/above kHighest land in an edge
// bucket, which reports the exact min or max seen; so do q = 0 and 1.
class LogHistogram {
 public:
  static constexpr double kGrowth = 1.02;  // sqrt(1.02) - 1 < 1%
  static constexpr double kLowest = 1e-3;
  static constexpr double kHighest = 1e7;

  LogHistogram()
      : log_growth_(std::log(kGrowth)),
        // Bucket 0 holds [0, kLowest), the last one [kHighest, inf).
        counts_(static_cast<usize>(std::ceil(std::log(kHighest / kLowest) /
                                             log_growth_)) +
                    2,
                0) {}

  void add(double x) noexcept {
    x = std::max(x, 0.0);
    min_ = count_ == 0 ? x : std::min(min_, x);
    max_ = count_ == 0 ? x : std::max(max_, x);
    ++count_;
    usize index = 0;
    if (x >= kLowest) {
      const double steps = std::floor(std::log(x / kLowest) / log_growth_);
      index = static_cast<usize>(
          std::min(steps + 1, static_cast<double>(counts_.size() - 1)));
    }
    ++counts_[index];
  }

  u64 count() const noexcept { return count_; }
  bool empty() const noexcept { return count_ == 0; }
  usize buckets() const noexcept { return counts_.size(); }

  // q in [0,1]; the bucket of the nearest-rank sample.
  double quantile(double q) const {
    PIMWFA_CHECK(count_ > 0, "quantile of empty LogHistogram");
    PIMWFA_ARG_CHECK(q >= 0.0 && q <= 1.0, "quantile q out of [0,1]");
    const u64 rank = std::min<u64>(
        count_ - 1,
        static_cast<u64>(std::floor(q * static_cast<double>(count_))));
    if (rank == 0) return min_;
    if (rank == count_ - 1) return max_;
    u64 seen = 0;
    usize index = 0;
    while (seen + counts_[index] <= rank) seen += counts_[index++];
    if (index == 0) return min_;
    if (index + 1 == counts_.size()) return max_;
    const double midpoint =
        kLowest * std::exp((static_cast<double>(index) - 0.5) * log_growth_);
    return std::clamp(midpoint, min_, max_);
  }

  double median() const { return quantile(0.5); }

 private:
  double log_growth_;
  std::vector<u64> counts_;
  u64 count_ = 0;
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace pimwfa
