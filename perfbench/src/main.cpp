// perfbench: runs one benchmark workload and prints its result as the last
// line of standard output:
//   {"correct": ..., "attempted": N, "failed": N, "metrics": {...}}
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <file>]
//
// Normally driven by perfbench/run.py, which builds this binary first.
#include <cmath>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "workloads.hpp"

namespace {

int usage(const char* why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload <name> --seed <n> --seconds <s>"
               " --trace <0|1> [--trace-out <file>]\nworkloads:";
  for (const std::string& name : perfbench::workload_names()) {
    std::cerr << ' ' << name;
  }
  std::cerr << '\n';
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig config;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        config.workload = value;
      } else if (flag == "--seed") {
        config.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        config.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
        config.trace = value == "1";
      } else if (flag == "--trace-out") {
        config.trace_path = value;
      } else {
        return usage(("unknown flag " + flag).c_str());
      }
    } catch (const std::exception&) {
      return usage(("bad value for " + flag).c_str());
    }
  }
  if (config.workload.empty()) return usage("--workload is required");
  if (!(config.seconds > 0)) return usage("--seconds must be positive");

  perfbench::RunReport report;
  try {
    report = perfbench::run_workload(config);
  } catch (const std::exception& error) {
    std::cerr << "perfbench: " << config.workload << ": " << error.what()
              << '\n';
    return 1;
  }
  const bool correct = report.correct && report.failed == 0 &&
                       report.attempted > 0 && report.metrics.all_finite();
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << report.attempted
            << ", \"failed\": " << report.failed << ", \"metrics\": ";
  report.metrics.write_json(std::cout);
  std::cout << "}" << std::endl;
  return 0;
}
