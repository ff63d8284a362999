// Self-tests of the benchmark's own helpers: quantiles with their sample
// counts, span self time, and open-loop due-time latency. run.py runs this
// binary after every build and refuses to measure when it fails.
#include <cmath>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "measure.hpp"
#include "trace.hpp"

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::cerr << "FAIL: " << what << '\n';
  }
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

void test_quantile() {
  using perfbench::quantile;
  std::vector<double> samples;
  for (int i = 100; i >= 1; --i) samples.push_back(i);  // 1..100, unsorted
  const perfbench::Quantile p50 = quantile(samples, 0.5);
  expect(near(p50.value, 50.5), "p50 of 1..100 interpolates to 50.5");
  expect(p50.samples == 100, "p50 carries its sample count");
  const perfbench::Quantile p99 = quantile(samples, 0.99);
  expect(near(p99.value, 99.01), "p99 of 1..100 is 99.01");
  expect(p99.samples == 100, "p99 carries its sample count");
  expect(quantile(samples, 0.0).value == 1 &&
             quantile(samples, 1.0).value == 100,
         "q=0 and q=1 are the extremes");
  const perfbench::Quantile empty = quantile({}, 0.5);
  expect(empty.samples == 0 && empty.value == 0, "empty input yields 0");
  expect(perfbench::median({3, 1, 2}) == 2, "median of an odd set");
  expect(perfbench::median({4, 1, 2, 3}) == 2.5, "median of an even set");
}

void test_self_time() {
  using perfbench::Span;
  // parent [0, 100) with children [10, 30), [20, 50) (overlapping) and
  // [90, 120) (runs past the parent's end); a grandchild under the first
  // child must not count against the parent.
  std::vector<Span> spans(5);
  spans[0] = {"parent", 0, 100, 1, 0, 0, 1};
  spans[1] = {"child", 10, 30, 2, 1, 0, 1};
  spans[2] = {"child", 20, 50, 3, 1, 0, 2};
  spans[3] = {"child", 90, 120, 4, 1, 0, 2};
  spans[4] = {"grandchild", 12, 14, 5, 2, 0, 1};
  const std::vector<std::int64_t> self = perfbench::self_times_ns(spans);
  expect(self[0] == 100 - 40 - 10,
         "self time subtracts the union of children clipped to the parent");
  expect(self[1] == 20 - 2, "child self time subtracts its own child");
  expect(self[4] == 2, "a leaf's self time is its duration");
  expect(perfbench::covered_ns({{5, 8}, {0, 3}, {2, 6}}, 0, 10) == 8,
         "covered_ns merges overlapping intervals");

  perfbench::Tracer tracer;
  {
    perfbench::ScopedSpan outer(tracer, "outer");
    perfbench::ScopedSpan inner(tracer, "inner", 7);
  }
  const std::vector<Span> recorded = tracer.spans();
  expect(recorded.size() == 2 && recorded[1].parent == recorded[0].id &&
             recorded[1].group == 7,
         "a span opened inside another on one thread becomes its child");
  expect(recorded[0].end_ns >= recorded[1].end_ns,
         "the outer span ends after the inner one");
  std::ostringstream json;
  tracer.write_chrome_json(json);
  expect(json.str().find("\"name\":\"inner\"") != std::string::npos &&
             json.str().find("\"ph\":\"X\"") != std::string::npos,
         "Chrome trace output holds complete events");
}

void test_due_latency() {
  const perfbench::OpenLoopSchedule schedule(1'000'000, 1000.0);  // 1 ms
  expect(schedule.due_ns(0) == 1'000'000 && schedule.due_ns(5) == 6'000'000,
         "request i is due at start + i / rate");
  // Due at 6 ms, sent late at 9 ms, done at 10 ms: the stall before
  // sending counts, so latency is 4 ms, not the 1 ms of service time.
  expect(near(perfbench::due_latency_ms(schedule.due_ns(5), 10'000'000), 4.0),
         "latency is timed from the due time");
}

}  // namespace

int main() {
  test_quantile();
  test_self_time();
  test_due_latency();
  if (failures != 0) {
    std::cerr << failures << " perfbench self-test(s) failed\n";
    return 1;
  }
  std::cout << "perfbench self-tests passed\n";
  return 0;
}
