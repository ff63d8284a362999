// Concurrency stress suite, written for ThreadSanitizer.
//
// Every test here hammers one of the mutex-guarded structures annotated
// in the thread-safety pass (common/thread_safety.hpp) from several
// threads at once: BatchEngine's dispatcher counters and shared worker
// pool, AlignService's admission/batcher/completer protocol against its
// fixed arena ring, the hybrid dispatcher's calibration cache, and
// PimSystem's transfers into one DPU's simulated MRAM. The
// assertions are deliberately about *totals and determinism*, not
// interleavings - the point of the suite is the instrumented run: the
// TSan CI job (-DPIMWFA_SANITIZE=thread) executes it and fails on any
// data race or lock-order inversion, whatever the schedule. It runs
// under the plain tier-1 job too, where it doubles as a functional
// multi-producer regression test.
//
// Sizes are tuned small: TSan serializes heavily and CI cores are few,
// so each test keeps total work in the tens of milliseconds uninstrumented.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "align/batch_engine.hpp"
#include "align/hybrid.hpp"
#include "align/service.hpp"
#include "common/bits.hpp"
#include "common/thread_pool.hpp"
#include "pim/layout.hpp"
#include "seq/generator.hpp"
#include "seq/view.hpp"
#include "test_util.hpp"
#include "upmem/system.hpp"

namespace pimwfa {
namespace {

using align::AlignmentScope;
using align::AlignService;
using align::BatchOptions;
using align::BatchResult;
using align::RequestHandle;
using align::ServiceOptions;
using align::ServiceStats;
using seq::ReadPairSet;
using seq::ReadPairSpan;

ReadPairSet stress_batch(usize pairs, u64 seed) {
  seq::GeneratorConfig config;
  config.pairs = pairs;
  config.read_length = 48;
  config.error_rate = 0.05;
  config.seed = seed;
  return seq::generate_dataset(config);
}

// --- BatchEngine: concurrent submit + run_sharded -------------------------

TEST(RaceStress, EngineConcurrentSubmitAndShardedRuns) {
  constexpr usize kProducers = 3;
  constexpr usize kSubmitsPerProducer = 4;
  constexpr usize kShardedRuns = 2;

  align::BatchEngineOptions options;
  options.backend = "cpu";
  options.batch.cpu_threads = 2;
  options.max_in_flight = 3;
  options.workers = 2;
  align::BatchEngine engine(options);

  // Every producer borrows its own set; all sets are built (and the
  // reference results computed) before any thread starts, and outlive
  // the join - the spans below never dangle.
  std::vector<ReadPairSet> batches;
  std::vector<BatchResult> expected;
  for (usize t = 0; t < kProducers; ++t) {
    batches.push_back(stress_batch(24 + 8 * t, 0xE1 + t));
    expected.push_back(
        engine.submit(ReadPairSpan(batches[t]), AlignmentScope::kFull).get());
  }
  const ReadPairSet shared = stress_batch(30, 0x5A);
  const BatchResult shared_expected =
      engine.submit(ReadPairSpan(shared), AlignmentScope::kFull).get();

  std::vector<BatchResult> produced(kProducers * kSubmitsPerProducer);
  std::vector<BatchResult> sharded(kShardedRuns);
  std::vector<std::thread> threads;
  for (usize t = 0; t < kProducers; ++t) {
    threads.emplace_back([&, t] {
      for (usize r = 0; r < kSubmitsPerProducer; ++r) {
        produced[t * kSubmitsPerProducer + r] =
            engine.submit(ReadPairSpan(batches[t]), AlignmentScope::kFull)
                .get();
      }
    });
  }
  // run_sharded from concurrent callers, racing the producers for the
  // dispatcher slots and the shared worker pool.
  for (usize s = 0; s < kShardedRuns; ++s) {
    threads.emplace_back([&, s] {
      sharded[s] =
          engine.run_sharded(ReadPairSpan(shared), AlignmentScope::kFull,
                             /*shards=*/3);
    });
  }
  for (auto& thread : threads) thread.join();
  engine.wait_idle();
  EXPECT_EQ(engine.in_flight(), 0u);

  for (usize t = 0; t < kProducers; ++t) {
    for (usize r = 0; r < kSubmitsPerProducer; ++r) {
      const BatchResult& got = produced[t * kSubmitsPerProducer + r];
      ASSERT_EQ(got.results.size(), expected[t].results.size());
      for (usize p = 0; p < got.results.size(); ++p) {
        ASSERT_EQ(got.results[p], expected[t].results[p])
            << "producer " << t << " run " << r << " pair " << p;
      }
    }
  }
  for (usize s = 0; s < kShardedRuns; ++s) {
    ASSERT_EQ(sharded[s].results.size(), shared_expected.results.size());
    for (usize p = 0; p < sharded[s].results.size(); ++p) {
      ASSERT_EQ(sharded[s].results[p], shared_expected.results[p])
          << "sharded run " << s << " pair " << p;
    }
  }
}

// --- AlignService: multi-producer admission vs the arena ring -------------

// Deterministic backend with enough latency to keep batches (and their
// arenas) genuinely in flight while producers keep admitting. The delay
// lives here in the test, not in src/ (tools/lint_invariants.py bans
// sleeps in the library).
class SlowScoreBackend final : public align::BatchAligner {
 public:
  BatchResult run(seq::ReadPairSpan batch, AlignmentScope,
                  ThreadPool*) override {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    BatchResult out;
    out.backend = name();
    out.results.resize(batch.size());
    for (usize i = 0; i < batch.size(); ++i) {
      out.results[i].score = static_cast<i64>(batch.pattern(i).size());
    }
    out.timings.pairs = batch.size();
    out.timings.materialized = batch.size();
    return out;
  }
  std::string name() const override { return "slow-score"; }
};

TEST(RaceStress, ServiceMultiProducerSubmitCancelDeadline) {
  constexpr usize kProducers = 4;
  constexpr usize kRequestsPerProducer = 24;
  constexpr usize kPairsPerRequest = 2;

  ServiceOptions options;
  options.max_batch_pairs = 8;
  options.max_batch_delay = std::chrono::milliseconds(1);
  options.max_queued_pairs = 32;  // real backpressure under 4 producers
  options.arenas = 2;             // recycle the ring hard
  options.engine.max_in_flight = 2;
  options.engine.workers = 0;
  AlignService service(std::make_unique<SlowScoreBackend>(), options);

  // Per-thread outcome tallies, merged after the join.
  std::atomic<usize> ok{0}, cancelled{0}, expired{0}, rejected{0};
  std::vector<std::thread> producers;
  for (usize t = 0; t < kProducers; ++t) {
    producers.emplace_back([&, t] {
      for (usize r = 0; r < kRequestsPerProducer; ++r) {
        std::vector<seq::ReadPair> pairs(
            kPairsPerRequest,
            {std::string(8 + t, 'A'), std::string(8 + t, 'A')});
        const usize variant = (t + r) % 4;
        std::optional<RequestHandle> handle;
        if (variant == 0) {
          // Non-blocking admission racing the watermark.
          handle = service.try_submit(std::move(pairs));
          if (!handle) {
            rejected.fetch_add(1, std::memory_order_relaxed);
            continue;
          }
        } else if (variant == 1) {
          // A deadline tight enough that some (not all) runs miss it.
          handle = service.submit_wait(
              std::move(pairs),
              std::chrono::steady_clock::now() +
                  std::chrono::microseconds(300));
        } else {
          handle = service.submit_wait(std::move(pairs));
        }
        if (variant == 2) (void)handle->cancel();
        try {
          const auto results = handle->get();
          ASSERT_EQ(results.size(), kPairsPerRequest);
          for (const auto& result : results) {
            EXPECT_EQ(result.score, static_cast<i64>(8 + t));
          }
          ok.fetch_add(1, std::memory_order_relaxed);
        } catch (const align::RequestCancelled&) {
          cancelled.fetch_add(1, std::memory_order_relaxed);
        } catch (const align::DeadlineExpired&) {
          expired.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& producer : producers) producer.join();
  service.drain();

  const ServiceStats stats = service.stats();
  const usize total = kProducers * kRequestsPerProducer;
  // Every request is accounted exactly once, across all interleavings.
  EXPECT_EQ(stats.submitted + stats.rejected, total);
  EXPECT_EQ(stats.submitted,
            stats.completed + stats.cancelled + stats.expired + stats.failed);
  EXPECT_EQ(stats.rejected, rejected.load());
  EXPECT_EQ(stats.completed, ok.load());
  EXPECT_EQ(stats.cancelled, cancelled.load());
  EXPECT_EQ(stats.expired, expired.load());
  EXPECT_EQ(stats.failed, 0u);
  // The ring bound held: two arenas of 8 pairs each.
  EXPECT_LE(stats.peak_resident_pairs, 2 * options.max_batch_pairs);
  EXPECT_LE(stats.peak_queued_pairs, options.max_queued_pairs);
}

// --- hybrid dispatcher: concurrent calibration-cache misses ---------------

TEST(RaceStress, HybridConcurrentDistinctShapeMisses) {
  constexpr usize kShapes = 4;
  constexpr usize kRunsPerShape = 3;

  BatchOptions options;
  options.pim_dpus = 4;
  options.pim_tasklets = 8;
  options.cpu_threads = 2;
  // Deterministic CPU model so every thread's plan depends only on its
  // batch shape (and cached replays are exact).
  options.cpu_per_pair_seconds = 5e-6;
  align::HybridBatchAligner hybrid(options);

  // Distinct pair counts = distinct cache keys: every thread's first run
  // is a miss, and all the misses race each other on the one cache.
  std::vector<ReadPairSet> batches;
  for (usize s = 0; s < kShapes; ++s) {
    batches.push_back(stress_batch(40 + 8 * s, 0xCA11 + s));
  }

  std::vector<std::vector<BatchResult>> results(kShapes);
  std::vector<std::thread> threads;
  for (usize s = 0; s < kShapes; ++s) {
    threads.emplace_back([&, s] {
      for (usize r = 0; r < kRunsPerShape; ++r) {
        results[s].push_back(
            hybrid.run(ReadPairSpan(batches[s]), AlignmentScope::kFull));
      }
    });
  }
  for (auto& thread : threads) thread.join();

  // Exactly one probe per shape, however the misses interleaved; a
  // duplicated probe means the miss path raced itself, a lost one means
  // a cached entry was served before its calibration was complete.
  EXPECT_EQ(hybrid.calibrations_performed(), kShapes);
  for (usize s = 0; s < kShapes; ++s) {
    ASSERT_EQ(results[s].size(), kRunsPerShape);
    for (usize r = 1; r < kRunsPerShape; ++r) {
      ASSERT_EQ(results[s][r].results.size(), results[s][0].results.size());
      for (usize p = 0; p < results[s][0].results.size(); ++p) {
        ASSERT_EQ(results[s][r].results[p], results[s][0].results[p])
            << "shape " << s << " run " << r << " pair " << p;
      }
      EXPECT_EQ(results[s][r].timings.cpu_fraction,
                results[s][0].timings.cpu_fraction)
          << "a cached calibration must replay the exact split";
    }
  }
}

// --- PimSystem: concurrent transfers into one DPU's MRAM ------------------

// The only rule for overlapped host stages is that they touch disjoint MRAM
// byte ranges - nothing is reserved up front. Pool threads walk one 64 MB
// bank upwards together, each owning every kThreads-th slice, from the
// header to the last tasklet's metadata arena near the top of the bank:
// a store that grew (reallocated) on writes past its high-water mark would
// move under the other threads' copies.
TEST(RaceStress, MramConcurrentDisjointTransfersUnreserved) {
  constexpr usize kThreads = 4;
  constexpr usize kSlices = 256;
  constexpr usize kSliceBytes = 1024;

  upmem::PimSystem system(upmem::SystemConfig::paper(), /*simulated_dpus=*/1);
  pim::BatchLayout::Params params;
  params.nr_pairs = 64;
  params.nr_tasklets = system.config().max_tasklets;
  params.max_pattern = 100;
  params.max_text = 100;
  const pim::BatchLayout layout =
      pim::BatchLayout::plan(params, system.config().mram_bytes);
  const u64 last_arena = layout.arena_addr(params.nr_tasklets - 1);
  const u64 top = layout.total_bytes() - kSliceBytes;
  auto slice_addr = [&](usize s) {
    return round_down_pow2(top * s / (kSlices - 1), 8);
  };
  ASSERT_GE(slice_addr(kSlices - 1), last_arena);
  ASSERT_LE(slice_addr(kSlices - 1) + kSliceBytes, system.config().mram_bytes);
  auto pattern = [](usize s, usize i) {
    return static_cast<u8>(s * 131 + i * 7 + 1);
  };

  std::atomic<usize> mismatches{0};
  auto owner = [&](usize t) {
    std::vector<u8> buf(kSliceBytes);
    for (usize s = t; s < kSlices; s += kThreads) {
      for (usize i = 0; i < kSliceBytes; ++i) buf[i] = pattern(s, i);
      system.copy_to_mram(0, slice_addr(s), buf);
    }
    for (usize s = t; s < kSlices; s += kThreads) {
      system.copy_from_mram(0, slice_addr(s), buf);
      for (usize i = 0; i < kSliceBytes; ++i) {
        if (buf[i] != pattern(s, i)) mismatches.fetch_add(1);
      }
    }
  };
  ThreadPool pool(kThreads);
  std::vector<std::future<void>> done;
  for (usize t = 0; t < kThreads; ++t) {
    done.push_back(pool.submit([&, t] { owner(t); }));
  }
  for (auto& f : done) f.get();
  EXPECT_EQ(mismatches.load(), 0u);

  // Concurrent writes keep the high-water mark exact.
  EXPECT_EQ(system.dpu(0).mram().touched(),
            slice_addr(kSlices - 1) + kSliceBytes);
  EXPECT_EQ(system.to_device().bytes, kSlices * kSliceBytes);
}

}  // namespace
}  // namespace pimwfa
