// The benchmark's four workloads. Each one generates its inputs from the
// seed, sets up the program's long-lived objects several times (setup_s
// is the median), runs timed passes for the requested wall time, checks
// every output outside the timed region, and fills a RunReport.
//
// Untraced runs (trace == false) report the end-to-end metrics. Traced
// runs alternate untraced and traced passes: the traced ones route every
// backend call through a timing decorator and every layer call through a
// span, and the per-layer metrics plus trace.overhead come from them.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "measure.hpp"

namespace perfbench {

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_path;  // Chrome trace JSON of a traced run ("" = none)
};

struct RunReport {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  Metrics metrics;
};

const std::vector<std::string>& workload_names();

// Throws std::invalid_argument for an unknown workload name.
RunReport run_workload(const RunConfig& config);

}  // namespace perfbench
