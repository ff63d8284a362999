#include "workloads.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "align/batch_engine.hpp"
#include "align/registry.hpp"
#include "align/service.hpp"
#include "align/verify.hpp"
#include "baselines/gotoh.hpp"
#include "cpu/cpu_batch.hpp"
#include "map/mapper.hpp"
#include "map/reference.hpp"
#include "pim/host.hpp"
#include "seq/fasta.hpp"
#include "seq/generator.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

using namespace pimwfa;
using align::AlignmentResult;
using align::AlignmentScope;
using align::BatchResult;

// ---- Fixed constants (mirrored in perfbench/README.md) -------------------

// Program threads: one engine/backend worker pool of kWorkers threads, so
// that with the benchmark's own load-generating thread the process keeps
// to the 4 hardware threads of the reference host.
constexpr usize kWorkers = 3;
constexpr usize kInFlight = 2;
// Set-up repetitions per run; setup_s is their median.
constexpr int kSetupRepeats = 3;
constexpr usize kReadLength = 100;
constexpr double kErrorRate = 0.02;

// fig1-cpu: one big batch through BatchEngine::run_sharded. Each shard is
// split statically over the workers, so with 4 shards one slowed-down
// hardware thread stalled the whole pass; 16 shards of ~31k pairs let the
// other workers take up the slack (run-to-run spread of pairs_per_s 0.14
// -> 0.08 over six interleaved seeds on a shared 4-vCPU host).
constexpr usize kFig1CpuPairs = 500'000;
constexpr usize kFig1CpuShards = 16;
constexpr usize kGotohSample = 256;

// fig1-pim: the paper's 2560-DPU system on a 5M-pair virtual batch, of
// which the first kPimSimulatedDpus DPUs are simulated functionally.
constexpr usize kPimVirtualPairs = 5'000'000;
constexpr usize kPimSystemDpus = 2560;
constexpr usize kPimSimulatedDpus = 16;
constexpr usize kPimTasklets = 24;

// stream-small: 32-pair score-only requests into an AlignService with its
// default batch watermarks (1024 pairs / 5 ms). Two workers already
// saturate the request path (batcher, completer and load threads need the
// remaining hardware threads), and the open-loop rate is about a quarter
// of the saturated rate: at half of it, the median latency more than
// doubled whenever the shared host slowed down. The admission watermark is
// 8x the default: at 8192 pairs the saturating producer blocked every few
// batches and its throughput spread 0.34 run to run on a contended host,
// against 0.12 at 65,536 pairs (five interleaved seeds each).
constexpr usize kStreamPairs = 200'000;
constexpr usize kRequestPairs = 32;
constexpr usize kStreamWorkers = 2;
constexpr double kOfferedRequestsPerS = 8'000;
constexpr usize kMaxQueuedPairs = 65'536;
constexpr int kStreamRounds = 5;
// Latency recorded for a failed request or a wrong reply: it missed every
// limit.
constexpr double kMissedMs = 1e9;

// map-repeats: 20k reads against a 1 Mb reference, half of it repeats.
constexpr usize kReferenceLength = 1'000'000;
constexpr double kRepeatFraction = 0.5;
constexpr usize kMapReads = 20'000;

// Every per-layer metric with its unit, in report order. A traced run
// reports all of them; a layer the workload bypasses reports 0.
const std::vector<std::pair<const char*, const char*>> kLayerMetrics = {
    {"wfa.cells_per_pair", "count"},
    {"wfa.extend_probes_per_pair", "count"},
    {"wfa.score_steps_per_pair", "count"},
    {"wfa.backtrace_ops_per_pair", "count"},
    {"wfa.peak_wavefront_bytes", "bytes"},
    {"cpu.align_s", "s"},
    {"cpu.thread_us_per_pair", "us"},
    {"cpu.backtrace_share", "ratio"},
    {"simd.fast_path_frac", "ratio"},
    {"pim.host_s", "s"},
    {"pim.host_sys_s", "s"},
    {"pim.minor_faults", "count"},
    {"pim.rss_mb_per_dpu", "MB"},
    {"pim.scatter_s", "model_s"},
    {"pim.kernel_s", "model_s"},
    {"pim.gather_s", "model_s"},
    {"pim.kernel_cycles_max", "cycles"},
    {"pim.dpu_cycle_skew", "ratio"},
    {"pim.bytes_to_device", "bytes"},
    {"pim.bytes_from_device", "bytes"},
    {"upmem.instructions", "count"},
    {"upmem.dma_calls", "count"},
    {"upmem.dma_bytes", "bytes"},
    {"engine.backend_busy_s", "s"},
    {"engine.backend_runs", "count"},
    {"engine.dispatch_wait_ms_p50", "ms"},
    {"engine.dispatch_wait_ms_p99", "ms"},
    {"engine.merge_s", "s"},
    {"engine.overlap", "ratio"},
    {"service.admit_wait_ms_p50", "ms"},
    {"service.admit_wait_ms_p99", "ms"},
    {"service.queue_ms_p50", "ms"},
    {"service.queue_ms_p99", "ms"},
    {"service.self_s", "s"},
    {"service.batches", "count"},
    {"service.batch_fill", "ratio"},
    {"service.peak_resident_pairs", "count"},
    {"seq.parse_s", "s"},
    {"seq.parse_mb_per_s", "MB/s"},
    {"map.index_s", "s"},
    {"map.seed_filter_s", "s"},
    {"map.verify_s", "s"},
    {"map.candidates_per_read", "count"},
    {"map.rejection_rate", "ratio"},
    {"map.qualify_rate", "ratio"},
    {"load.lag_p99_ms", "ms"},
    {"load.latency_samples", "count"},
    {"load.latency_p99_ms", "ms"},
    {"trace.overhead", "ratio"},
};

const char* layer_unit(const std::string& name) {
  for (const auto& [metric, unit] : kLayerMetrics) {
    if (name == metric) return unit;
  }
  throw std::logic_error("unknown per-layer metric " + name);
}

double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) / 1e9;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// ---- Report assembly ----------------------------------------------------

// Per-pass host times and set-up samples of an untraced run, turned into
// the end-to-end metrics every workload reports.
struct EndToEnd {
  std::vector<double> setup_s;
  double pairs_per_s = 0;
  double reads_per_s = 0;
  Quantile latency_p50;
  double modeled_pairs_per_s = 0;
  double recall = 0;
};

void fill_end_to_end(RunReport& report, const EndToEnd& e2e) {
  Metrics& m = report.metrics;
  m.add("pairs_per_s", e2e.pairs_per_s, "1/s");
  m.add("reads_per_s", e2e.reads_per_s, "1/s");
  m.add("latency_p50_ms", e2e.latency_p50.value, "ms");
  m.add("modeled_pairs_per_s", e2e.modeled_pairs_per_s, "1/s");
  m.add("recall", e2e.recall, "ratio");
  m.add("setup_s", median(e2e.setup_s), "s");
  m.add("peak_rss_mb", resources_now().peak_rss_mb, "MB");
  std::cout << "latency samples: " << e2e.latency_p50.samples
            << "; setup samples: " << e2e.setup_s.size() << "\n";
}

// Layer metrics of a traced run; unset ones are reported as 0.
class LayerReport {
 public:
  void set(const std::string& name, double value) {
    layer_unit(name);  // rejects names outside kLayerMetrics
    values_[name] = value;
  }
  void write_to(RunReport& report) const {
    for (const auto& [name, unit] : kLayerMetrics) {
      const auto it = values_.find(name);
      report.metrics.add(name, it == values_.end() ? 0.0 : it->second, unit);
    }
  }

 private:
  std::unordered_map<std::string, double> values_;
};

// ---- Timing decorators --------------------------------------------------

// Called by a decorator after each backend run with the batch it ran and
// the run's start time (now_ns clock).
using RunHook = std::function<void(seq::ReadPairSpan, std::int64_t)>;

// Exact WFA/SIMD counters a CPU decorator collects while counting is on,
// split by scope.
struct CpuSink {
  struct Bucket {
    wfa::WfaCounters work;
    cpu::simd::SimdStats simd;
  };
  std::mutex mutex;
  std::atomic<bool> counting{false};
  Bucket buckets[2];  // [kScoreOnly, kFull]

  Bucket& bucket(AlignmentScope scope) {
    return buckets[scope == AlignmentScope::kFull ? 1 : 0];
  }
};

// Wraps the real CPU backend: records a "cpu.align_batch" span around
// CpuBatchAligner::run, the call the registry backend makes, so a traced
// pass does the untraced pass's work (the SIMD model sample included).
// While the sink is counting (untimed warm-up passes only), each batch is
// aligned once more with CpuBatchAligner::align_batch, outside the span,
// for the exact WFA/SIMD counters: they depend on the pairs alone, so one
// counted pass gives every pass's counts.
class TracedCpu final : public align::BatchAligner {
 public:
  TracedCpu(const align::BatchOptions& options, Tracer& tracer, CpuSink& sink,
            RunHook hook = {})
      : inner_(options), tracer_(tracer), sink_(sink), hook_(std::move(hook)) {}

  BatchResult run(seq::ReadPairSpan batch, AlignmentScope scope,
                  ThreadPool* pool) override {
    const u64 id = next_id_.fetch_add(1);
    const std::int64_t start = now_ns();
    BatchResult out;
    {
      ScopedSpan span(tracer_, "cpu.align_batch", id);
      out = inner_.run(batch, scope, pool);
    }
    if (hook_) hook_(batch, start);
    if (sink_.counting.load()) {
      const cpu::CpuBatchResult counted =
          inner_.align_batch(batch, scope, pool);
      std::lock_guard<std::mutex> lock(sink_.mutex);
      CpuSink::Bucket& b = sink_.bucket(scope);
      b.work.merge(counted.work);
      b.simd.merge(counted.simd);
    }
    return out;
  }
  std::string name() const override { return inner_.name(); }

 private:
  cpu::CpuBatchAligner inner_;
  Tracer& tracer_;
  CpuSink& sink_;
  RunHook hook_;
  std::atomic<u64> next_id_{1};
};

struct PimSink {
  std::mutex mutex;
  u64 calls = 0;
  double host_s = 0;
  double host_sys_s = 0;
  double minor_faults = 0;
  double rss_mb_per_dpu = 0;  // max over calls
  pim::PimTimings timings;    // of the last call
  bool timings_vary = false;  // simulated results must repeat exactly
};

// Wraps the real PIM backend: a "pim.align_batch" span plus getrusage
// deltas around PimBatchAligner::align_batch, and the simulated stage
// breakdown the unified BatchTimings does not carry (cycles, UPMEM work).
class TracedPim final : public align::BatchAligner {
 public:
  TracedPim(const align::BatchOptions& options, Tracer& tracer, PimSink& sink)
      : inner_(options), tracer_(tracer), sink_(sink) {}

  BatchResult run(seq::ReadPairSpan batch, AlignmentScope scope,
                  ThreadPool* pool) override {
    const u64 id = next_id_.fetch_add(1);
    const Resources before = resources_now();
    const std::int64_t start = now_ns();
    pim::PimBatchResult native;
    {
      ScopedSpan span(tracer_, "pim.align_batch", id);
      native = inner_.align_batch(batch, scope, pool);
    }
    const double wall = seconds_since(start);
    const Resources after = resources_now();
    const pim::PimTimings& pt = native.timings;
    {
      std::lock_guard<std::mutex> lock(sink_.mutex);
      ++sink_.calls;
      sink_.host_s += wall;
      sink_.host_sys_s += after.sys_s - before.sys_s;
      sink_.minor_faults += after.minor_faults - before.minor_faults;
      sink_.rss_mb_per_dpu = std::max(
          sink_.rss_mb_per_dpu,
          ratio(after.peak_rss_mb - before.current_rss_mb,
                static_cast<double>(std::max<usize>(pt.simulated_dpus, 1))));
      if (sink_.calls > 1 &&
          (pt.kernel_cycles_total != sink_.timings.kernel_cycles_total ||
           pt.total_seconds() != sink_.timings.total_seconds() ||
           pt.work.instructions != sink_.timings.work.instructions ||
           pt.work.dma_bytes != sink_.timings.work.dma_bytes)) {
        sink_.timings_vary = true;
      }
      sink_.timings = pt;
    }
    BatchResult out;
    out.backend = inner_.name();
    out.results = std::move(native.results);
    align::BatchTimings& t = out.timings;
    t.wall_seconds = wall;
    t.modeled_seconds = pt.total_seconds();
    t.pairs = pt.pairs;
    t.materialized = out.results.size();
    t.pim_modeled_seconds = t.modeled_seconds;
    t.scatter_seconds = pt.scatter_seconds;
    t.kernel_seconds = pt.kernel_seconds;
    t.gather_seconds = pt.gather_seconds;
    t.bytes_to_device = pt.bytes_to_device;
    t.bytes_from_device = pt.bytes_from_device;
    t.pim_pairs = pt.pairs;
    t.pipeline_chunks = pt.chunks;
    return out;
  }
  std::string name() const override { return inner_.name(); }

 private:
  pim::PimBatchAligner inner_;
  Tracer& tracer_;
  PimSink& sink_;
  std::atomic<u64> next_id_{1};
};

// ---- Shared pieces ------------------------------------------------------

seq::ReadPairSet make_pairs(usize pairs, u64 seed) {
  seq::GeneratorConfig config;
  config.pairs = pairs;
  config.read_length = kReadLength;
  config.error_rate = kErrorRate;
  config.seed = seed;
  return seq::generate_dataset(config);
}

// Runs `setup` kSetupRepeats times; returns each run's seconds. The object
// the last run built is the one the timed passes use.
template <class Fn>
std::vector<double> time_setups(Fn&& setup) {
  std::vector<double> samples;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const std::int64_t start = now_ns();
    setup();
    samples.push_back(seconds_since(start));
  }
  return samples;
}

// Repeats `pass` until `seconds` of wall time have elapsed (at least
// `min_passes` times); returns each pass's seconds.
template <class Fn>
std::vector<double> timed_passes(double seconds, usize min_passes, Fn&& pass) {
  std::vector<double> samples;
  const std::int64_t begin = now_ns();
  while (samples.size() < min_passes || seconds_since(begin) < seconds) {
    const std::int64_t start = now_ns();
    pass();
    samples.push_back(seconds_since(start));
  }
  return samples;
}

// Pairs whose result differs from the expected one (a missing result
// counts).
u64 mismatches(const std::vector<AlignmentResult>& got,
               std::span<const AlignmentResult> want) {
  u64 bad = got.size() < want.size() ? want.size() - got.size() : 0;
  for (usize i = 0; i < want.size() && i < got.size(); ++i) {
    if (!(got[i] == want[i])) ++bad;
  }
  return bad;
}

// Full check of a reference result set: every result internally
// consistent, and a fixed sample optimal against Gotoh.
u64 check_against_gotoh(seq::ReadPairSpan pairs,
                        const std::vector<AlignmentResult>& results,
                        AlignmentScope scope) {
  const align::Penalties penalties = align::Penalties::defaults();
  u64 bad = pairs.size() > results.size() ? pairs.size() - results.size() : 0;
  for (usize i = 0; i < results.size() && i < pairs.size(); ++i) {
    if (scope == AlignmentScope::kFull &&
        !align::result_is_consistent(results[i], pairs[i].pattern,
                                     pairs[i].text, penalties)) {
      ++bad;
    }
  }
  baselines::GotohAligner gotoh(penalties);
  const usize stride = std::max<usize>(1, pairs.size() / kGotohSample);
  for (usize i = 0; i < pairs.size() && i < results.size(); i += stride) {
    const AlignmentResult want =
        gotoh.align(pairs[i].pattern, pairs[i].text, AlignmentScope::kScoreOnly);
    if (want.score != results[i].score) ++bad;
  }
  return bad;
}

// Engine-layer metrics from the backend spans of traced passes.
// `parents` are the pass spans (one per pass, their start taken as the
// submit time); backend spans count for the pass that is their parent.
// Returns the pass wall time not covered by any backend run, per pass.
double engine_metrics(LayerReport& layers, const std::vector<Span>& parents,
                      const std::vector<Span>& backend,
                      const std::vector<Span>& all) {
  if (parents.empty()) return 0;
  const std::vector<std::int64_t> self = self_times_ns(all);
  double busy = 0;
  double summed = 0;
  double wall = 0;
  double merge = 0;
  std::vector<double> wait_ms;
  for (const Span& parent : parents) {
    std::vector<std::pair<std::int64_t, std::int64_t>> intervals;
    for (const Span& run : backend) {
      if (run.parent != parent.id) continue;
      intervals.emplace_back(run.start_ns, run.end_ns);
      summed += static_cast<double>(run.duration_ns()) / 1e9;
      wait_ms.push_back(static_cast<double>(run.start_ns - parent.start_ns) /
                        1e6);
    }
    busy += static_cast<double>(
                covered_ns(intervals, parent.start_ns, parent.end_ns)) /
            1e9;
    wall += static_cast<double>(parent.duration_ns()) / 1e9;
    merge += static_cast<double>(self.at(parent.id - 1)) / 1e9;
  }
  const double passes = static_cast<double>(parents.size());
  layers.set("engine.backend_busy_s", busy / passes);
  layers.set("engine.backend_runs",
             static_cast<double>(wait_ms.size()) / passes);
  layers.set("engine.dispatch_wait_ms_p50", quantile(wait_ms, 0.5).value);
  layers.set("engine.dispatch_wait_ms_p99", quantile(wait_ms, 0.99).value);
  layers.set("engine.merge_s", merge / passes);
  layers.set("engine.overlap", ratio(summed, wall));
  return (wall - busy) / passes;
}

// WFA/SIMD metrics from the counted warm-up pass, and cpu.align_s: the
// backend spans under the traced `passes` spans, per pass.
void cpu_metrics(LayerReport& layers, CpuSink& sink, AlignmentScope scope,
                 const std::vector<Span>& passes,
                 const std::vector<Span>& backend) {
  std::unordered_map<u64, bool> is_pass;
  for (const Span& pass : passes) is_pass[pass.id] = true;
  double align_s = 0;
  for (const Span& run : backend) {
    if (is_pass.count(run.parent) != 0) {
      align_s += static_cast<double>(run.duration_ns()) / 1e9;
    }
  }
  layers.set("cpu.align_s",
             ratio(align_s, static_cast<double>(passes.size())));
  std::lock_guard<std::mutex> lock(sink.mutex);
  const CpuSink::Bucket& b = sink.bucket(scope);
  const double aligned = static_cast<double>(b.work.alignments);
  layers.set("wfa.cells_per_pair",
             ratio(static_cast<double>(b.work.computed_cells), aligned));
  layers.set("wfa.extend_probes_per_pair",
             ratio(static_cast<double>(b.work.extend_probes), aligned));
  layers.set("wfa.score_steps_per_pair",
             ratio(static_cast<double>(b.work.score_steps), aligned));
  layers.set("wfa.backtrace_ops_per_pair",
             ratio(static_cast<double>(b.work.backtrace_ops), aligned));
  layers.set("wfa.peak_wavefront_bytes",
             static_cast<double>(b.work.peak_wavefront_bytes));
  layers.set("simd.fast_path_frac", b.simd.fast_path_fraction());
}

void write_trace(const RunConfig& config, const Tracer& tracer) {
  if (config.trace_path.empty()) return;
  std::ofstream out(config.trace_path);
  tracer.write_chrome_json(out);
  if (!out) throw std::runtime_error("cannot write " + config.trace_path);
}

// Alternates one untraced and one traced pass until `seconds` elapse
// (at least twice); returns each side's pass seconds. Which side runs
// first flips every pair, so that neither side always follows the other.
struct Alternated {
  std::vector<double> untraced;
  std::vector<double> traced;
};
template <class Plain, class Traced>
Alternated alternate(double seconds, Plain&& plain, Traced&& traced) {
  Alternated out;
  auto time = [](auto&& pass, std::vector<double>& samples) {
    const std::int64_t start = now_ns();
    pass();
    samples.push_back(seconds_since(start));
  };
  const std::int64_t begin = now_ns();
  while (out.traced.size() < 2 || seconds_since(begin) < seconds) {
    if (out.traced.size() % 2 == 0) {
      time(plain, out.untraced);
      time(traced, out.traced);
    } else {
      time(traced, out.traced);
      time(plain, out.untraced);
    }
  }
  return out;
}

// ---- fig1-cpu -----------------------------------------------------------

RunReport fig1_cpu(const RunConfig& config) {
  RunReport report;
  const seq::ReadPairSet pairs = make_pairs(kFig1CpuPairs, config.seed);
  const seq::ReadPairSpan span(pairs);
  align::BatchEngineOptions options;
  options.backend = "cpu";
  options.batch.cpu_simd = true;
  options.max_in_flight = kInFlight;
  options.workers = kWorkers;

  std::unique_ptr<align::BatchEngine> engine;
  BatchResult reference;
  EndToEnd e2e;
  e2e.setup_s = time_setups([&] {
    engine.reset();
    engine = std::make_unique<align::BatchEngine>(options);
    reference = engine->run_sharded(span, AlignmentScope::kFull,
                                    kFig1CpuShards);
  });
  report.failed += check_against_gotoh(span, reference.results,
                                       AlignmentScope::kFull);

  std::vector<double> modeled;
  auto plain = [&] {
    BatchResult result =
        engine->run_sharded(span, AlignmentScope::kFull, kFig1CpuShards);
    report.attempted += pairs.size();
    report.failed += mismatches(result.results, reference.results);
    modeled.push_back(result.timings.throughput());
  };

  if (!config.trace) {
    const std::vector<double> passes = timed_passes(config.seconds, 3, plain);
    e2e.pairs_per_s = static_cast<double>(pairs.size()) / median(passes);
    e2e.reads_per_s = e2e.pairs_per_s;
    std::vector<double> ms;
    for (const double s : passes) ms.push_back(s * 1e3);
    e2e.latency_p50 = quantile(ms, 0.5);
    e2e.modeled_pairs_per_s = median(modeled);
    e2e.recall = 1.0 - ratio(static_cast<double>(report.failed),
                             static_cast<double>(report.attempted));
    fill_end_to_end(report, e2e);
    return report;
  }

  Tracer tracer;
  CpuSink sink;
  align::BatchEngine traced_engine(
      std::make_unique<TracedCpu>(options.batch, tracer, sink), kInFlight,
      kWorkers);
  auto traced_pass = [&](AlignmentScope scope) {
    ScopedSpan pass(tracer, scope == AlignmentScope::kFull
                                 ? "engine.run_sharded"
                                 : "engine.run_sharded.score_only");
    tracer.set_root(pass.id());
    BatchResult result =
        traced_engine.run_sharded(span, scope, kFig1CpuShards);
    tracer.set_root(0);
    if (scope == AlignmentScope::kFull) {
      report.attempted += pairs.size();
      report.failed += mismatches(result.results, reference.results);
    }
  };
  // Warm-up of the traced engine; its full pass is the counted one.
  sink.counting = true;
  traced_pass(AlignmentScope::kFull);
  sink.counting = false;
  traced_pass(AlignmentScope::kScoreOnly);
  const usize warm_spans = tracer.spans().size();

  LayerReport layers;
  std::vector<double> score_only;
  double traced_cpu_s = 0;
  const Alternated runs = alternate(
      config.seconds, plain,
      [&] {
        const Resources r0 = resources_now();
        traced_pass(AlignmentScope::kFull);
        const Resources r1 = resources_now();
        traced_cpu_s += (r1.user_s + r1.sys_s) - (r0.user_s + r0.sys_s);
        const std::int64_t start = now_ns();
        traced_pass(AlignmentScope::kScoreOnly);
        score_only.push_back(seconds_since(start));
      });

  // Each traced step runs a full and a score-only pass; the full pass
  // alone is its span's duration.
  std::vector<Span> full;
  for (const Span& s : tracer.named("engine.run_sharded")) {
    if (s.id > warm_spans) full.push_back(s);
  }
  std::vector<double> full_s;
  for (const Span& s : full) full_s.push_back(s.duration_ns() / 1e9);
  const std::vector<Span> backend = tracer.named("cpu.align_batch");
  engine_metrics(layers, full, backend, tracer.spans());
  const double traced = static_cast<double>(full.size());
  cpu_metrics(layers, sink, AlignmentScope::kFull, full, backend);
  layers.set("cpu.thread_us_per_pair",
             ratio(traced_cpu_s * 1e6,
                   traced * static_cast<double>(pairs.size())));
  layers.set("cpu.backtrace_share",
             1.0 - ratio(median(score_only), median(full_s)));
  layers.set("trace.overhead",
             ratio(median(full_s), median(runs.untraced)) - 1.0);
  layers.write_to(report);
  write_trace(config, tracer);
  return report;
}

// ---- fig1-pim -----------------------------------------------------------

RunReport fig1_pim(const RunConfig& config) {
  RunReport report;
  // Only the pairs of the simulated DPUs are materialized: the prefix the
  // first kPimSimulatedDpus DPUs receive under an even spread of the
  // virtual batch.
  const usize materialized =
      pim::PimBatchAligner::dpu_pair_range(kPimVirtualPairs, kPimSystemDpus,
                                           kPimSimulatedDpus - 1)
          .second;
  const seq::ReadPairSet pairs = make_pairs(materialized, config.seed);
  const seq::ReadPairSpan span(pairs);
  align::BatchEngineOptions options;
  options.backend = "pim";
  options.batch.pim_dpus = 0;  // the paper's 2560-DPU system
  options.batch.pim_tasklets = kPimTasklets;
  options.batch.pim_simulate_dpus = kPimSimulatedDpus;
  options.batch.virtual_pairs = kPimVirtualPairs;
  options.max_in_flight = 1;
  options.workers = kWorkers;

  // Reference: the cpu backend on the same pairs.
  align::BatchOptions cpu_options;
  cpu_options.cpu_threads = kWorkers;
  const std::vector<AlignmentResult> reference =
      cpu::CpuBatchAligner(cpu_options)
          .align_batch(span, AlignmentScope::kFull)
          .results;

  std::unique_ptr<align::BatchEngine> engine;
  EndToEnd e2e;
  e2e.setup_s = time_setups([&] {
    engine.reset();
    engine = std::make_unique<align::BatchEngine>(options);
    const BatchResult warm =
        engine->submit(span, AlignmentScope::kFull).get();
    report.failed += mismatches(warm.results, reference);
  });

  std::vector<double> modeled;
  auto plain = [&] {
    BatchResult result = engine->submit(span, AlignmentScope::kFull).get();
    report.attempted += pairs.size();
    report.failed += mismatches(result.results, reference);
    modeled.push_back(result.timings.throughput());
  };

  if (!config.trace) {
    const std::vector<double> passes = timed_passes(config.seconds, 3, plain);
    e2e.pairs_per_s = static_cast<double>(pairs.size()) / median(passes);
    e2e.reads_per_s = e2e.pairs_per_s;
    std::vector<double> ms;
    for (const double s : passes) ms.push_back(s * 1e3);
    e2e.latency_p50 = quantile(ms, 0.5);
    e2e.modeled_pairs_per_s = median(modeled);
    // Simulated throughput is deterministic: every pass must agree.
    if (std::adjacent_find(modeled.begin(), modeled.end(),
                           std::not_equal_to<>()) != modeled.end()) {
      report.correct = false;
    }
    e2e.recall = 1.0 - ratio(static_cast<double>(report.failed),
                             static_cast<double>(report.attempted));
    fill_end_to_end(report, e2e);
    return report;
  }

  Tracer tracer;
  PimSink sink;
  align::BatchEngine traced_engine(
      std::make_unique<TracedPim>(options.batch, tracer, sink), 1, kWorkers);
  auto traced_pass = [&] {
    ScopedSpan pass(tracer, "engine.submit");
    tracer.set_root(pass.id());
    BatchResult result =
        traced_engine.submit(span, AlignmentScope::kFull).get();
    tracer.set_root(0);
    report.attempted += pairs.size();
    report.failed += mismatches(result.results, reference);
  };
  traced_pass();  // warm-up of the traced engine
  const usize warm_spans = tracer.spans().size();
  {
    std::lock_guard<std::mutex> lock(sink.mutex);
    sink.calls = 0;
    sink.host_s = sink.host_sys_s = sink.minor_faults = 0;
  }

  LayerReport layers;
  const Alternated runs = alternate(config.seconds, plain, traced_pass);
  layers.set("trace.overhead",
             ratio(median(runs.traced), median(runs.untraced)) - 1.0);
  std::vector<Span> parents;
  for (const Span& s : tracer.named("engine.submit")) {
    if (s.id > warm_spans) parents.push_back(s);
  }
  engine_metrics(layers, parents, tracer.named("pim.align_batch"),
                 tracer.spans());
  {
    std::lock_guard<std::mutex> lock(sink.mutex);
    const double calls = static_cast<double>(std::max<u64>(sink.calls, 1));
    const pim::PimTimings& t = sink.timings;
    layers.set("pim.host_s", sink.host_s / calls);
    layers.set("pim.host_sys_s", sink.host_sys_s / calls);
    layers.set("pim.minor_faults", sink.minor_faults / calls);
    layers.set("pim.rss_mb_per_dpu", sink.rss_mb_per_dpu);
    layers.set("pim.scatter_s", t.scatter_seconds);
    layers.set("pim.kernel_s", t.kernel_seconds);
    layers.set("pim.gather_s", t.gather_seconds);
    layers.set("pim.kernel_cycles_max",
               static_cast<double>(t.kernel_cycles_max));
    layers.set("pim.dpu_cycle_skew",
               ratio(static_cast<double>(t.kernel_cycles_max) *
                         static_cast<double>(t.simulated_dpus),
                     static_cast<double>(t.kernel_cycles_total)));
    layers.set("pim.bytes_to_device", static_cast<double>(t.bytes_to_device));
    layers.set("pim.bytes_from_device",
               static_cast<double>(t.bytes_from_device));
    layers.set("upmem.instructions", static_cast<double>(t.work.instructions));
    layers.set("upmem.dma_calls", static_cast<double>(t.work.dma_calls));
    layers.set("upmem.dma_bytes", static_cast<double>(t.work.dma_bytes));
    if (sink.timings_vary) report.correct = false;
  }
  layers.write_to(report);
  write_trace(config, tracer);
  return report;
}

// ---- stream-small -------------------------------------------------------

// What the traced service's backend hook and the load generator record
// per request slice (request j carries pairs [32j, 32j + 32) of the set).
struct StreamTrace {
  explicit StreamTrace(const seq::ReadPairSet& pairs)
      : call_ns(pairs.size() / kRequestPairs),
        backend_start_ns(pairs.size() / kRequestPairs) {
    for (usize j = 0; j < call_ns.size(); ++j) {
      slice_of.emplace(pairs[j * kRequestPairs].pattern, j);
    }
  }
  // Maps a backend batch back to the requests it holds (requests are
  // placed whole and contiguously, so only first pairs are looked up).
  void on_run(seq::ReadPairSpan batch, std::int64_t start) {
    std::int64_t last_call = 0;
    usize i = 0;
    while (i < batch.size()) {
      const auto it = slice_of.find(batch[i].pattern);
      if (it == slice_of.end()) {
        ++i;
        continue;
      }
      backend_start_ns[it->second].store(start, std::memory_order_relaxed);
      last_call = std::max(
          last_call, call_ns[it->second].load(std::memory_order_relaxed));
      i += kRequestPairs;
    }
    std::lock_guard<std::mutex> lock(mutex);
    if (phase == Phase::kOpenLoop && last_call > 0) {
      dispatch_wait_ms.push_back(static_cast<double>(start - last_call) / 1e6);
    }
    if (phase == Phase::kSaturating) {
      batch_pairs += batch.size();
      ++batches;
    }
  }

  enum class Phase { kIdle, kOpenLoop, kSaturating };
  std::unordered_map<std::string_view, usize> slice_of;
  std::vector<std::atomic<std::int64_t>> call_ns;
  std::vector<std::atomic<std::int64_t>> backend_start_ns;
  std::mutex mutex;
  Phase phase = Phase::kIdle;  // guarded by mutex
  std::vector<double> dispatch_wait_ms;
  u64 batch_pairs = 0;
  u64 batches = 0;
  // Written by the benchmark's own threads only.
  std::vector<double> admit_wait_ms;
  std::vector<double> queue_ms;
  double parse_s = 0;

  void set_phase(Phase next) {
    std::lock_guard<std::mutex> lock(mutex);
    phase = next;
  }
};

struct OpenLoopResult {
  std::vector<double> latency_ms;  // in send order
  std::vector<double> lag_ms;
};

// Sends one request of kRequestPairs pairs every 1/kOfferedRequestsPerS
// seconds for `seconds`, from a generator thread that never waits for
// replies. When the service applies backpressure (submit_wait blocks at
// its admission watermark) the generator falls behind and sends late;
// every request is timed from its due time, so that stall counts in full,
// and the lateness is reported as generator lag. The calling thread
// collects replies in send order.
OpenLoopResult open_loop(align::AlignService& service,
                         const seq::ReadPairSet& pairs,
                         const std::vector<AlignmentResult>& reference,
                         double seconds, StreamTrace* trace,
                         RunReport& report) {
  struct Sent {
    usize slice = 0;
    std::int64_t due = 0;
    std::int64_t call = 0;
    std::optional<align::RequestHandle> handle;
  };
  const usize slices = pairs.size() / kRequestPairs;
  std::mutex mutex;
  std::condition_variable ready;
  std::deque<Sent> queue;
  bool done = false;
  OpenLoopResult out;

  const OpenLoopSchedule schedule(now_ns(), kOfferedRequestsPerS);
  const usize total = static_cast<usize>(seconds * kOfferedRequestsPerS);
  std::thread generator([&] {
    for (usize i = 0; i < total; ++i) {
      Sent sent;
      sent.slice = i % slices;
      sent.due = schedule.due_ns(i);
      const std::int64_t early = sent.due - now_ns();
      if (early > 0) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(early));
      }
      const auto first = pairs.pairs().begin() +
                         static_cast<std::ptrdiff_t>(sent.slice * kRequestPairs);
      std::vector<seq::ReadPair> request(first, first + kRequestPairs);
      sent.call = now_ns();
      if (trace != nullptr) {
        trace->call_ns[sent.slice].store(sent.call, std::memory_order_relaxed);
      }
      try {
        sent.handle = service.submit_wait(std::move(request));
      } catch (const std::exception&) {
        // No handle: the collector counts the request as failed.
      }
      std::lock_guard<std::mutex> lock(mutex);
      out.lag_ms.push_back(static_cast<double>(sent.call - sent.due) / 1e6);
      queue.push_back(std::move(sent));
      ready.notify_one();
    }
    std::lock_guard<std::mutex> lock(mutex);
    done = true;
    ready.notify_one();
  });

  while (true) {
    Sent sent;
    {
      std::unique_lock<std::mutex> lock(mutex);
      ready.wait(lock, [&] { return done || !queue.empty(); });
      if (queue.empty()) break;
      sent = std::move(queue.front());
      queue.pop_front();
    }
    report.attempted += kRequestPairs;
    const std::span<const AlignmentResult> want(
        reference.data() + sent.slice * kRequestPairs, kRequestPairs);
    double latency = kMissedMs;
    if (sent.handle) {
      try {
        const std::vector<AlignmentResult> got = sent.handle->get();
        latency = due_latency_ms(sent.due, now_ns());
        const u64 bad = mismatches(got, want);
        report.failed += bad;
        if (bad != 0) latency = kMissedMs;
        if (trace != nullptr) {
          trace->queue_ms.push_back(
              static_cast<double>(
                  trace->backend_start_ns[sent.slice].load(
                      std::memory_order_relaxed) -
                  sent.call) /
              1e6);
        }
      } catch (const std::exception&) {
        report.failed += kRequestPairs;
      }
    } else {
      report.failed += kRequestPairs;
    }
    out.latency_ms.push_back(latency);
  }
  generator.join();
  return out;
}

RunReport stream_small(const RunConfig& config) {
  RunReport report;
  const seq::ReadPairSet pairs = make_pairs(kStreamPairs, config.seed);
  std::string seq_text;
  {
    std::ostringstream os;
    seq::write_seq_pairs(os, pairs);
    seq_text = os.str();
  }
  align::ServiceOptions options;
  options.engine.backend = "cpu";
  options.engine.batch.cpu_simd = true;
  options.engine.max_in_flight = kInFlight;
  options.engine.workers = kStreamWorkers;
  options.scope = AlignmentScope::kScoreOnly;
  options.max_queued_pairs = kMaxQueuedPairs;

  // One-shot runs on the registry backend the service runs: the first is
  // the reference; untraced runs repeat one per round for
  // modeled_pairs_per_s, as the service does not expose per-batch timings.
  align::BatchOptions one_shot_options = options.engine.batch;
  one_shot_options.cpu_threads = kStreamWorkers;
  const std::unique_ptr<align::BatchAligner> one_shot =
      align::backend_registry().create("cpu", one_shot_options);
  const std::vector<AlignmentResult> reference =
      one_shot->run(seq::ReadPairSpan(pairs), AlignmentScope::kScoreOnly)
          .results;
  report.failed += check_against_gotoh(seq::ReadPairSpan(pairs), reference,
                                       AlignmentScope::kScoreOnly);

  // Saturating pass: parse the in-memory .seq buffer request by request
  // and admit with backpressure, then check every reply in order.
  auto saturating = [&](align::AlignService& service, StreamTrace* trace) {
    std::istringstream in(seq_text);
    seq::SeqPairChunkReader reader(in);
    std::vector<align::RequestHandle> handles;
    handles.reserve(pairs.size() / kRequestPairs + 1);
    while (true) {
      std::vector<seq::ReadPair> chunk;
      const std::int64_t parse_start = now_ns();
      const usize n = reader.next(chunk, kRequestPairs);
      if (trace != nullptr) trace->parse_s += seconds_since(parse_start);
      if (n == 0) break;
      const std::int64_t call = now_ns();
      if (trace != nullptr) {
        trace->call_ns[handles.size()].store(call, std::memory_order_relaxed);
      }
      handles.push_back(service.submit_wait(std::move(chunk)));
      if (trace != nullptr) {
        trace->admit_wait_ms.push_back(static_cast<double>(now_ns() - call) /
                                       1e6);
      }
    }
    for (usize j = 0; j < handles.size(); ++j) {
      report.attempted += kRequestPairs;
      try {
        report.failed += mismatches(
            handles[j].get(),
            std::span<const AlignmentResult>(
                reference.data() + j * kRequestPairs, kRequestPairs));
      } catch (const std::exception&) {
        report.failed += kRequestPairs;
      }
    }
  };

  std::unique_ptr<align::AlignService> service;
  EndToEnd e2e;
  e2e.setup_s = time_setups([&] {
    service.reset();
    service = std::make_unique<align::AlignService>(options);
    saturating(*service, nullptr);
  });

  if (!config.trace) {
    // The phases alternate over kStreamRounds rounds (a quarter of each
    // round open loop, the rest saturating) so that both sample the host
    // across the whole run instead of one half each.
    std::vector<double> latency_ms;
    std::vector<double> passes;
    std::vector<double> modeled;
    const double round_s = config.seconds / kStreamRounds;
    for (int round = 0; round < kStreamRounds; ++round) {
      BatchResult result =
          one_shot->run(seq::ReadPairSpan(pairs), AlignmentScope::kScoreOnly);
      report.attempted += pairs.size();
      report.failed += mismatches(result.results, reference);
      modeled.push_back(result.timings.throughput());
      const OpenLoopResult open = open_loop(*service, pairs, reference,
                                            round_s / 4, nullptr, report);
      latency_ms.insert(latency_ms.end(), open.latency_ms.begin(),
                        open.latency_ms.end());
      const std::vector<double> part = timed_passes(
          round_s * 3 / 4, 1, [&] { saturating(*service, nullptr); });
      passes.insert(passes.end(), part.begin(), part.end());
    }
    e2e.pairs_per_s = static_cast<double>(pairs.size()) / median(passes);
    e2e.reads_per_s = e2e.pairs_per_s;
    e2e.latency_p50 = quantile(latency_ms, 0.5);
    e2e.modeled_pairs_per_s = median(modeled);
    e2e.recall = 1.0 - ratio(static_cast<double>(report.failed),
                             static_cast<double>(report.attempted));
    fill_end_to_end(report, e2e);
    return report;
  }

  Tracer tracer;
  CpuSink sink;
  StreamTrace trace(pairs);
  align::AlignService traced_service(
      std::make_unique<TracedCpu>(
          options.engine.batch, tracer, sink,
          [&trace](seq::ReadPairSpan batch, std::int64_t start) {
            trace.on_run(batch, start);
          }),
      options);
  // Warm-up of the traced service, and the counted pass.
  sink.counting = true;
  saturating(traced_service, nullptr);
  sink.counting = false;
  trace.parse_s = 0;
  trace.admit_wait_ms.clear();

  LayerReport layers;
  OpenLoopResult open;
  {
    ScopedSpan phase(tracer, "service.open_loop");
    tracer.set_root(phase.id());
    trace.set_phase(StreamTrace::Phase::kOpenLoop);
    open = open_loop(traced_service, pairs, reference, config.seconds / 4,
                     &trace, report);
    trace.set_phase(StreamTrace::Phase::kIdle);
    tracer.set_root(0);
  }
  const Alternated runs = alternate(
      config.seconds / 2, [&] { saturating(*service, nullptr); },
      [&] {
        ScopedSpan phase(tracer, "service.saturating");
        tracer.set_root(phase.id());
        trace.set_phase(StreamTrace::Phase::kSaturating);
        saturating(traced_service, &trace);
        trace.set_phase(StreamTrace::Phase::kIdle);
        tracer.set_root(0);
      });
  const double passes = static_cast<double>(runs.traced.size());

  layers.set("trace.overhead",
             ratio(median(runs.traced), median(runs.untraced)) - 1.0);
  // Backend spans of the warm-up have no phase span as parent, so the
  // per-phase matching below leaves them out.
  const std::vector<Span> saturating_passes =
      tracer.named("service.saturating");
  const std::vector<Span> backend = tracer.named("cpu.align_batch");
  layers.set("service.self_s", engine_metrics(layers, saturating_passes,
                                              backend, tracer.spans()));
  // The service's engine is only reachable through the service, so the
  // submit time of a batch is taken as the send time of the last request
  // it holds (open-loop phase, where admission blocks only under
  // backpressure).
  {
    std::lock_guard<std::mutex> lock(trace.mutex);
    layers.set("engine.dispatch_wait_ms_p50",
               quantile(trace.dispatch_wait_ms, 0.5).value);
    layers.set("engine.dispatch_wait_ms_p99",
               quantile(trace.dispatch_wait_ms, 0.99).value);
    layers.set("engine.merge_s", 0);
    layers.set("service.batches", static_cast<double>(trace.batches) / passes);
    layers.set("service.batch_fill",
               ratio(static_cast<double>(trace.batch_pairs),
                     static_cast<double>(trace.batches *
                                         options.max_batch_pairs)));
  }
  layers.set("service.admit_wait_ms_p50",
             quantile(trace.admit_wait_ms, 0.5).value);
  layers.set("service.admit_wait_ms_p99",
             quantile(trace.admit_wait_ms, 0.99).value);
  layers.set("service.queue_ms_p50", quantile(trace.queue_ms, 0.5).value);
  layers.set("service.queue_ms_p99", quantile(trace.queue_ms, 0.99).value);
  layers.set("service.peak_resident_pairs",
             static_cast<double>(
                 traced_service.stats().peak_resident_pairs));
  layers.set("seq.parse_s", trace.parse_s / passes);
  layers.set("seq.parse_mb_per_s",
             ratio(static_cast<double>(seq_text.size()) / 1e6 * passes,
                   trace.parse_s));
  layers.set("load.lag_p99_ms", quantile(open.lag_ms, 0.99).value);
  layers.set("load.latency_p99_ms", quantile(open.latency_ms, 0.99).value);
  layers.set("load.latency_samples",
             static_cast<double>(open.latency_ms.size()));
  cpu_metrics(layers, sink, AlignmentScope::kScoreOnly, saturating_passes,
              backend);
  layers.write_to(report);
  write_trace(config, tracer);
  return report;
}

// ---- map-repeats --------------------------------------------------------

struct MapOutcome {
  double recall = 0;
  u64 qualified = 0;
  std::vector<map::Mapping> mappings;
};

RunReport map_repeats(const RunConfig& config) {
  RunReport report;
  map::ReferenceConfig reference_config;
  reference_config.length = kReferenceLength;
  reference_config.repeat_fraction = kRepeatFraction;
  reference_config.seed = config.seed;
  const std::string reference = map::synthetic_reference(reference_config);
  map::ReadSimConfig read_config;
  read_config.reads = kMapReads;
  read_config.read_length = kReadLength;
  read_config.error_rate = kErrorRate;
  read_config.seed = config.seed ^ 0x5EED5EEDull;
  const std::vector<map::SimulatedRead> truth =
      map::simulate_reads(reference, read_config);
  std::vector<std::string> reads;
  reads.reserve(truth.size());
  for (const map::SimulatedRead& read : truth) reads.push_back(read.bases);

  map::MapperOptions options;
  options.error_rate = kErrorRate;
  options.backend = "cpu";
  options.batch.cpu_simd = true;
  options.batch.cpu_threads = kWorkers;

  // A read is recalled when mapped to its sampled strand within the
  // window padding of its sampled position.
  auto outcome = [&](const map::ReadMapper& mapper,
                     const map::MapResult& result) {
    MapOutcome out;
    out.qualified = result.stats.qualified;
    usize correct = 0;
    for (usize r = 0; r < truth.size(); ++r) {
      const map::Mapping& m = result.mappings[r];
      if (!m.mapped) continue;
      const i64 pad = static_cast<i64>(mapper.pad_for(reads[r].size()));
      const i64 delta = static_cast<i64>(m.position) -
                        static_cast<i64>(truth[r].position);
      if (m.reverse == truth[r].reverse && delta >= -pad && delta <= pad) {
        ++correct;
      }
    }
    out.recall = static_cast<double>(correct) /
                 static_cast<double>(truth.size());
    out.mappings = result.mappings;
    return out;
  };
  // Every pass must reproduce the first one exactly; each read whose
  // mapping differs is a failed operation.
  std::optional<MapOutcome> first;
  auto check = [&](const MapOutcome& got) {
    report.attempted += truth.size();
    if (!first) {
      first = got;
      return;
    }
    if (got.recall != first->recall || got.qualified != first->qualified) {
      report.correct = false;
    }
    for (usize r = 0; r < truth.size(); ++r) {
      const map::Mapping& a = got.mappings[r];
      const map::Mapping& b = first->mappings[r];
      if (a.mapped != b.mapped || a.position != b.position ||
          a.reverse != b.reverse || a.score != b.score ||
          !(a.cigar == b.cigar)) {
        ++report.failed;
      }
    }
  };

  std::unique_ptr<map::ReadMapper> mapper;
  std::vector<double> index_s;
  EndToEnd e2e;
  e2e.setup_s = time_setups([&] {
    mapper.reset();
    const std::int64_t start = now_ns();
    mapper = std::make_unique<map::ReadMapper>(reference, options);
    index_s.push_back(seconds_since(start));
    check(outcome(*mapper, mapper->map(reads)));  // warm-up pass
  });

  std::vector<double> verified;
  std::vector<double> modeled;
  auto plain = [&] {
    const std::int64_t start = now_ns();
    map::MapResult result = mapper->map(reads);
    const double wall = seconds_since(start);
    verified.push_back(static_cast<double>(result.stats.verified) / wall);
    modeled.push_back(result.stats.timings.throughput());
    check(outcome(*mapper, result));
  };

  if (!config.trace) {
    const std::vector<double> passes = timed_passes(config.seconds, 3, plain);
    e2e.reads_per_s = static_cast<double>(reads.size()) / median(passes);
    e2e.pairs_per_s = median(verified);
    std::vector<double> ms;
    for (const double s : passes) ms.push_back(s * 1e3);
    e2e.latency_p50 = quantile(ms, 0.5);
    e2e.modeled_pairs_per_s = median(modeled);
    e2e.recall = first->recall;
    fill_end_to_end(report, e2e);
    return report;
  }

  // Traced: the verification backend is a TracedCpu registered under a
  // name of its own, so the mapper builds it through the registry. The
  // registry is process-wide, so its factory shares ownership of the
  // tracer and sink.
  struct TracedState {
    Tracer tracer;
    CpuSink sink;
  };
  const auto state = std::make_shared<TracedState>();
  Tracer& tracer = state->tracer;
  CpuSink& sink = state->sink;
  const char* const kTracedBackend = "perfbench-traced-cpu";
  align::backend_registry().add(
      kTracedBackend, "cpu backend behind the benchmark's timing decorator",
      [state](const align::BatchOptions& batch) {
        return std::make_unique<TracedCpu>(batch, state->tracer, state->sink);
      });
  map::MapperOptions traced_options = options;
  traced_options.backend = kTracedBackend;
  map::ReadMapper traced_mapper(reference, traced_options);
  // Warm-up of the traced mapper, and the counted pass.
  sink.counting = true;
  check(outcome(traced_mapper, traced_mapper.map(reads)));
  sink.counting = false;

  std::vector<double> traced_wall;
  map::MapperStats traced_stats;
  const Alternated runs = alternate(config.seconds, plain, [&] {
    ScopedSpan pass(tracer, "map.map");
    tracer.set_root(pass.id());
    const std::int64_t start = now_ns();
    map::MapResult result = traced_mapper.map(reads);
    traced_wall.push_back(seconds_since(start));
    traced_stats = result.stats;
    tracer.set_root(0);
    check(outcome(traced_mapper, result));
  });

  // Verification time of a pass: its backend spans.
  const std::vector<Span> passes = tracer.named("map.map");
  const std::vector<Span> backend = tracer.named("cpu.align_batch");
  std::vector<double> traced_verify;
  for (const Span& pass : passes) {
    double verify = 0;
    for (const Span& run : backend) {
      if (run.parent == pass.id) verify += run.duration_ns() / 1e9;
    }
    traced_verify.push_back(verify);
  }

  LayerReport layers;
  layers.set("trace.overhead",
             ratio(median(runs.traced), median(runs.untraced)) - 1.0);
  layers.set("map.index_s", median(index_s));
  layers.set("map.verify_s", median(traced_verify));
  layers.set("map.seed_filter_s",
             median(traced_wall) - median(traced_verify));
  const double n_reads = static_cast<double>(reads.size());
  layers.set("map.candidates_per_read",
             static_cast<double>(traced_stats.candidates) / n_reads);
  layers.set("map.rejection_rate", traced_stats.rejection_rate());
  layers.set("map.qualify_rate",
             ratio(static_cast<double>(traced_stats.qualified),
                   static_cast<double>(traced_stats.verified)));
  cpu_metrics(layers, sink, AlignmentScope::kFull, passes, backend);
  layers.write_to(report);
  write_trace(config, tracer);
  return report;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"fig1-cpu", "fig1-pim",
                                                 "stream-small", "map-repeats"};
  return names;
}

RunReport run_workload(const RunConfig& config) {
  if (config.workload == "fig1-cpu") return fig1_cpu(config);
  if (config.workload == "fig1-pim") return fig1_pim(config);
  if (config.workload == "stream-small") return stream_small(config);
  if (config.workload == "map-repeats") return map_repeats(config);
  throw std::invalid_argument("unknown workload '" + config.workload + "'");
}

}  // namespace perfbench
