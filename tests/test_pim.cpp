#include <gtest/gtest.h>

#ifdef __linux__
#include <sys/resource.h>
#endif

#include "align/verify.hpp"
#include "pim/host.hpp"
#include "pim/meta_space.hpp"
#include "seq/generator.hpp"
#include "test_util.hpp"
#include "wfa/wfa_aligner.hpp"

namespace pimwfa::pim {
namespace {

using align::AlignmentScope;
using align::Penalties;

TEST(BatchLayout, PlanBasics) {
  BatchLayout::Params params;
  params.nr_pairs = 100;
  params.nr_tasklets = 24;
  params.max_pattern = 100;
  params.max_text = 102;
  params.penalties = Penalties::defaults();
  params.full_alignment = true;
  const BatchLayout layout = BatchLayout::plan(params, 64ull << 20);
  const BatchHeader& h = layout.header();
  EXPECT_EQ(h.pairs_addr % 8, 0u);
  EXPECT_EQ(h.pair_stride % 8, 0u);
  EXPECT_EQ(h.pair_stride, 8u + 104u + 104u);
  EXPECT_EQ(h.result_stride, 8u + 208u);
  EXPECT_EQ(h.results_addr, h.pairs_addr + 100 * h.pair_stride);
  EXPECT_EQ(h.scratch_stride % 8, 0u);
  EXPECT_GT(h.scratch_stride, layout.desc_table_bytes());
  EXPECT_LE(layout.total_bytes(), 64ull << 20);
  // Worst-case score for 100x102 at x=4,o=6,e=2.
  EXPECT_EQ(h.max_score,
            static_cast<u64>(align::worst_case_score(params.penalties, 100, 102)));
}

TEST(BatchLayout, ScoreOnlyHasNoCigarField) {
  BatchLayout::Params params;
  params.nr_pairs = 10;
  params.max_pattern = 50;
  params.max_text = 50;
  params.full_alignment = false;
  const BatchLayout layout = BatchLayout::plan(params, 64ull << 20);
  EXPECT_EQ(layout.header().result_stride, 8u);
  EXPECT_EQ(layout.cigar_field_bytes(), 0u);
}

TEST(BatchLayout, RejectsOverfullMram) {
  BatchLayout::Params params;
  params.nr_pairs = 1'000'000;
  params.max_pattern = 100;
  params.max_text = 100;
  EXPECT_THROW(BatchLayout::plan(params, 1ull << 20), Error);
}

TEST(BatchLayout, WramPolicyHasNoArenas) {
  BatchLayout::Params params;
  params.nr_pairs = 10;
  params.max_pattern = 50;
  params.max_text = 50;
  params.policy = MetadataPolicy::kWram;
  const BatchLayout layout = BatchLayout::plan(params, 64ull << 20);
  EXPECT_EQ(layout.header().scratch_stride, 0u);
}

// MetaSpace unit tests need a live DPU + tasklet context.
class MetaSpaceTest : public ::testing::Test {
 protected:
  upmem::SystemConfig config_ = upmem::SystemConfig::tiny(1);
  upmem::Dpu dpu_{config_, 0};
};

// Runs `body` as a single-tasklet kernel.
class LambdaKernel final : public upmem::DpuKernel {
 public:
  explicit LambdaKernel(std::function<void(upmem::TaskletCtx&)> body)
      : body_(std::move(body)) {}
  void run(upmem::TaskletCtx& ctx) override { body_(ctx); }

 private:
  std::function<void(upmem::TaskletCtx&)> body_;
};

TEST_F(MetaSpaceTest, DescRoundTripMram) {
  LambdaKernel kernel([](upmem::TaskletCtx& ctx) {
    MetaSpace space = MetaSpace::make_mram(ctx, 1 << 20, 1 << 20, 100);
    WfDesc desc;
    desc.m_addr = 0x12340;
    desc.i_addr = 0x56780;
    desc.lo = -5;
    desc.hi = 7;
    space.write_desc(42, desc);
    // Evict way 42%4=2 by writing another score mapping to it.
    WfDesc other;
    other.m_addr = 0x999;
    space.write_desc(46, other);
    const WfDesc back = space.read_desc(42);  // must come from MRAM
    EXPECT_EQ(back.m_addr, 0x12340u);
    EXPECT_EQ(back.i_addr, 0x56780u);
    EXPECT_EQ(back.lo, -5);
    EXPECT_EQ(back.hi, 7);
    EXPECT_FALSE(space.read_desc(46).exists() == false);
  });
  dpu_.launch(kernel, 1);
}

TEST_F(MetaSpaceTest, AllocAlignmentAndExhaustion) {
  LambdaKernel kernel([](upmem::TaskletCtx& ctx) {
    // Tiny arena: desc table for max_score=10 (11*32=352B) + small heap.
    MetaSpace space = MetaSpace::make_mram(ctx, 4096, 1024, 10);
    const u64 a = space.alloc_offsets(3);  // 12 -> 16 bytes
    const u64 b = space.alloc_offsets(1);
    EXPECT_EQ(a % 8, 0u);
    EXPECT_EQ(b % 8, 0u);
    EXPECT_EQ(b - a, 16u);
    EXPECT_THROW(space.alloc_offsets(10000), HardwareFault);
    const u64 used = space.heap_used();
    space.reset();
    EXPECT_EQ(space.heap_used(), 0u);
    EXPECT_GE(space.heap_high_water(), used);
  });
  dpu_.launch(kernel, 1);
}

TEST_F(MetaSpaceTest, WindowRoundTripMram) {
  LambdaKernel kernel([](upmem::TaskletCtx& ctx) {
    MetaSpace space = MetaSpace::make_mram(ctx, 1 << 16, 1 << 16, 10);
    const i32 lo = -40;
    const i32 hi = 60;
    const u64 handle = space.alloc_offsets(static_cast<usize>(hi - lo + 1));
    OffsetWindow w(space);
    w.bind(handle, lo, hi, true);
    for (i32 k = lo; k <= hi; ++k) w.set(k, k * 3);
    w.flush();
    // Re-read through a fresh window and through single-element reads.
    OffsetWindow r(space);
    r.bind(handle, lo, hi, false);
    for (i32 k = lo; k <= hi; ++k) {
      EXPECT_EQ(r.get(k), k * 3) << "k=" << k;
      EXPECT_EQ(space.read_offset(handle, lo, hi, k), k * 3);
    }
    // Out-of-range and null handles.
    EXPECT_EQ(r.get(lo - 1), wfa::kOffsetNone);
    EXPECT_EQ(r.get(hi + 1), wfa::kOffsetNone);
    OffsetWindow n(space);
    n.bind(0, 0, 10, false);
    EXPECT_EQ(n.get(5), wfa::kOffsetNone);
    EXPECT_EQ(space.read_offset(0, 0, 10, 5), wfa::kOffsetNone);
  });
  dpu_.launch(kernel, 1);
}

TEST_F(MetaSpaceTest, WindowDmaTrafficIsWindowed) {
  LambdaKernel kernel([](upmem::TaskletCtx& ctx) {
    MetaSpace space = MetaSpace::make_mram(ctx, 1 << 16, 1 << 16, 10);
    const usize len = 256;
    const u64 handle = space.alloc_offsets(len);
    OffsetWindow w(space);
    w.bind(handle, 0, static_cast<i32>(len) - 1, true);
    const u64 calls_before = ctx.stats().dma_calls;
    for (i32 k = 0; k < static_cast<i32>(len); ++k) w.set(k, k);
    w.flush();
    const u64 calls = ctx.stats().dma_calls - calls_before;
    // Sequential pass over 256 elements with a 32-element window:
    // one load + one flush per window reposition, not per element.
    EXPECT_LE(calls, 2 * (len / OffsetWindow::kWindowOffsets) + 2);
  });
  dpu_.launch(kernel, 1);
}

TEST_F(MetaSpaceTest, WramModeDirect) {
  LambdaKernel kernel([](upmem::TaskletCtx& ctx) {
    MetaSpace space = MetaSpace::make_wram(ctx, 8192, 20);
    const u64 handle = space.alloc_offsets(64);
    OffsetWindow w(space);
    w.bind(handle, 0, 63, true);
    const u64 dma_before = ctx.stats().dma_calls;
    for (i32 k = 0; k < 64; ++k) w.set(k, 7 * k);
    for (i32 k = 0; k < 64; ++k) EXPECT_EQ(w.get(k), 7 * k);
    EXPECT_EQ(ctx.stats().dma_calls, dma_before);  // no DMA in WRAM mode
    WfDesc desc;
    desc.m_addr = handle;
    desc.lo = 1;
    space.write_desc(3, desc);
    EXPECT_EQ(space.read_desc(3).lo, 1);
  });
  dpu_.launch(kernel, 1);
}

// --- end-to-end: PIM batch == host WFA ---------------------------------

PimOptions tiny_options(usize dpus, usize tasklets,
                        MetadataPolicy policy = MetadataPolicy::kMram) {
  PimOptions options;
  options.system = upmem::SystemConfig::tiny(dpus);
  options.nr_tasklets = tasklets;
  options.policy = policy;
  return options;
}

void expect_matches_host(const seq::ReadPairSet& batch,
                         const PimBatchResult& result,
                         const Penalties& penalties, bool full) {
  ASSERT_EQ(result.results.size(), batch.size());
  wfa::WfaAligner host(penalties);
  for (usize i = 0; i < batch.size(); ++i) {
    const auto expected = host.align(
        batch[i].pattern, batch[i].text,
        full ? AlignmentScope::kFull : AlignmentScope::kScoreOnly);
    EXPECT_EQ(result.results[i].score, expected.score) << "pair " << i;
    if (full) {
      EXPECT_EQ(result.results[i].cigar, expected.cigar) << "pair " << i;
      EXPECT_NO_THROW(align::verify_result(result.results[i],
                                           batch[i].pattern, batch[i].text,
                                           penalties));
    }
  }
}

TEST(PimBatch, MatchesHostWfaExactly) {
  const seq::ReadPairSet batch = seq::fig1_dataset(60, 0.04, 7);
  PimBatchAligner aligner(tiny_options(4, 8));
  const PimBatchResult result =
      aligner.align_batch(batch, AlignmentScope::kFull);
  expect_matches_host(batch, result, Penalties::defaults(), true);
  EXPECT_EQ(result.timings.pairs, 60u);
  EXPECT_GT(result.timings.kernel_cycles_max, 0u);
}

TEST(PimBatch, ScoreOnlyMatchesHost) {
  const seq::ReadPairSet batch = seq::fig1_dataset(40, 0.02, 8);
  PimBatchAligner aligner(tiny_options(2, 12));
  const PimBatchResult result =
      aligner.align_batch(batch, AlignmentScope::kScoreOnly);
  expect_matches_host(batch, result, Penalties::defaults(), false);
}

TEST(PimBatch, SingleTaskletSingleDpu) {
  const seq::ReadPairSet batch = seq::fig1_dataset(10, 0.02, 9);
  PimBatchAligner aligner(tiny_options(1, 1));
  const PimBatchResult result =
      aligner.align_batch(batch, AlignmentScope::kFull);
  expect_matches_host(batch, result, Penalties::defaults(), true);
}

TEST(PimBatch, WramPolicyMatchesHostWithFewTasklets) {
  // Metadata-in-WRAM works only with few tasklets and a bounded score cap.
  seq::GeneratorConfig config;
  config.pairs = 16;
  config.read_length = 64;
  config.error_rate = 0.04;
  config.seed = 11;
  const seq::ReadPairSet batch = seq::generate_dataset(config);
  PimOptions options = tiny_options(2, 2, MetadataPolicy::kWram);
  options.max_score = 64;
  PimBatchAligner aligner(options);
  const PimBatchResult result =
      aligner.align_batch(batch, AlignmentScope::kFull);
  expect_matches_host(batch, result, Penalties::defaults(), true);
}

TEST(PimBatch, WramPolicyFaultsWithManyTasklets) {
  // The paper's observation: full per-tasklet metadata in 64KB WRAM cannot
  // support the full tasklet count.
  const seq::ReadPairSet batch = seq::fig1_dataset(48, 0.04, 12);
  PimOptions options = tiny_options(1, 24, MetadataPolicy::kWram);
  PimBatchAligner aligner(options);
  EXPECT_THROW(aligner.align_batch(batch, AlignmentScope::kFull),
               HardwareFault);
}

TEST(PimBatch, MramPolicySupportsAllTasklets) {
  const seq::ReadPairSet batch = seq::fig1_dataset(48, 0.04, 12);
  PimBatchAligner aligner(tiny_options(1, 24, MetadataPolicy::kMram));
  const PimBatchResult result =
      aligner.align_batch(batch, AlignmentScope::kFull);
  expect_matches_host(batch, result, Penalties::defaults(), true);
}

TEST(PimBatch, UnevenPairDistribution) {
  // 7 pairs over 3 DPUs: 3/2/2.
  EXPECT_EQ(PimBatchAligner::dpu_pair_range(7, 3, 0),
            (std::pair<usize, usize>{0, 3}));
  EXPECT_EQ(PimBatchAligner::dpu_pair_range(7, 3, 1),
            (std::pair<usize, usize>{3, 5}));
  EXPECT_EQ(PimBatchAligner::dpu_pair_range(7, 3, 2),
            (std::pair<usize, usize>{5, 7}));
  const seq::ReadPairSet batch = seq::fig1_dataset(7, 0.02, 13);
  PimBatchAligner aligner(tiny_options(3, 4));
  const PimBatchResult result =
      aligner.align_batch(batch, AlignmentScope::kFull);
  expect_matches_host(batch, result, Penalties::defaults(), true);
}

TEST(PimBatch, EmptyAndDegeneratePairs) {
  seq::ReadPairSet batch;
  batch.add({"", ""});
  batch.add({"ACGT", ""});
  batch.add({"", "ACGT"});
  batch.add({"ACGT", "ACGT"});
  PimBatchAligner aligner(tiny_options(1, 2));
  const PimBatchResult result =
      aligner.align_batch(batch, AlignmentScope::kFull);
  expect_matches_host(batch, result, Penalties::defaults(), true);
}

TEST(PimBatch, SubsetSimulationAccountsAllTraffic) {
  const seq::ReadPairSet batch = seq::fig1_dataset(128, 0.02, 14);
  PimOptions full_options = tiny_options(8, 8);
  PimOptions subset_options = tiny_options(8, 8);
  subset_options.simulate_dpus = 2;
  PimBatchAligner full(full_options);
  PimBatchAligner subset(subset_options);
  const PimBatchResult full_result =
      full.align_batch(batch, AlignmentScope::kScoreOnly);
  const PimBatchResult subset_result =
      subset.align_batch(batch, AlignmentScope::kScoreOnly);
  // Transfer bytes are identical (unsimulated DPUs still cost bus time).
  EXPECT_EQ(full_result.timings.bytes_to_device,
            subset_result.timings.bytes_to_device);
  EXPECT_EQ(full_result.timings.bytes_from_device,
            subset_result.timings.bytes_from_device);
  // Subset only materializes its DPUs' pairs.
  EXPECT_EQ(subset_result.results.size(), 32u);  // 2 of 8 DPUs, 128 pairs
  EXPECT_EQ(subset_result.timings.simulated_dpus, 2u);
  // The subset's kernel estimate is a lower bound on the exact max (it
  // sees fewer DPUs) but stays close under a homogeneous workload.
  EXPECT_LE(subset_result.timings.kernel_cycles_max,
            full_result.timings.kernel_cycles_max);
  EXPECT_GT(static_cast<double>(subset_result.timings.kernel_cycles_max),
            0.85 * static_cast<double>(full_result.timings.kernel_cycles_max));
}

TEST(PimBatch, TaskletScalingImprovesKernelTime) {
  const seq::ReadPairSet batch = seq::fig1_dataset(96, 0.04, 15);
  u64 prev_cycles = ~u64{0};
  for (usize tasklets : {1u, 4u, 12u, 24u}) {
    PimBatchAligner aligner(tiny_options(1, tasklets));
    const PimBatchResult result =
        aligner.align_batch(batch, AlignmentScope::kFull);
    // Strict gains below pipeline saturation (11 tasklets); beyond it the
    // pipeline is throughput-bound and cycles plateau (within jitter from
    // pair-to-tasklet assignment).
    if (tasklets <= 11) {
      EXPECT_LT(result.timings.kernel_cycles_max, prev_cycles)
          << "tasklets=" << tasklets;
    } else {
      EXPECT_LT(static_cast<double>(result.timings.kernel_cycles_max),
                1.05 * static_cast<double>(prev_cycles))
          << "tasklets=" << tasklets;
    }
    prev_cycles = result.timings.kernel_cycles_max;
  }
}

TEST(PimBatch, PackedTransfersMatchAndShrinkTraffic) {
  const seq::ReadPairSet batch = seq::fig1_dataset(64, 0.04, 17);
  PimOptions plain_options = tiny_options(2, 8);
  PimOptions packed_options = tiny_options(2, 8);
  packed_options.packed_sequences = true;
  PimBatchAligner plain(plain_options);
  PimBatchAligner packed(packed_options);
  const PimBatchResult a = plain.align_batch(batch, AlignmentScope::kFull);
  const PimBatchResult b = packed.align_batch(batch, AlignmentScope::kFull);
  // Identical results, ~4x less scatter traffic.
  EXPECT_EQ(a.results, b.results);
  expect_matches_host(batch, b, Penalties::defaults(), true);
  EXPECT_LT(static_cast<double>(b.timings.bytes_to_device),
            0.45 * static_cast<double>(a.timings.bytes_to_device));
  EXPECT_LT(b.timings.scatter_seconds, a.timings.scatter_seconds);
  // The DPU pays a small unpacking cost.
  EXPECT_GT(b.timings.work.instructions, a.timings.work.instructions);
}

TEST(DpuPairRange, EmptyBatchGivesEveryDpuAnEmptyRange) {
  for (usize nr_dpus : {1u, 3u, 64u}) {
    for (usize d = 0; d < nr_dpus; ++d) {
      const auto [begin, end] = PimBatchAligner::dpu_pair_range(0, nr_dpus, d);
      EXPECT_EQ(begin, end) << "nr_dpus=" << nr_dpus << " d=" << d;
      EXPECT_EQ(begin, 0u);
    }
  }
}

TEST(DpuPairRange, FewerPairsThanDpus) {
  // n < nr_dpus: the first n DPUs take one pair each, the rest are idle.
  const usize n = 5;
  const usize nr_dpus = 16;
  for (usize d = 0; d < nr_dpus; ++d) {
    const auto [begin, end] = PimBatchAligner::dpu_pair_range(n, nr_dpus, d);
    if (d < n) {
      EXPECT_EQ(begin, d);
      EXPECT_EQ(end, d + 1);
    } else {
      EXPECT_EQ(begin, end) << "idle DPU " << d << " must get no pairs";
    }
  }
}

TEST(DpuPairRange, PartitionCoversBatchExactlyWithBalancedShares) {
  // Property over many (n, nr_dpus) combinations: ranges are contiguous,
  // disjoint, cover [0, n) in order, shares differ by at most one, and the
  // first n % nr_dpus DPUs carry the extra pair.
  for (usize nr_dpus : {1u, 2u, 3u, 7u, 24u, 64u}) {
    for (usize n : {usize{0}, usize{1}, nr_dpus - 1, nr_dpus, nr_dpus + 1,
                    usize{100}, usize{1000}}) {
      const usize base = n / nr_dpus;
      const usize rem = n % nr_dpus;
      usize expected_begin = 0;
      for (usize d = 0; d < nr_dpus; ++d) {
        const auto [begin, end] =
            PimBatchAligner::dpu_pair_range(n, nr_dpus, d);
        ASSERT_EQ(begin, expected_begin)
            << "n=" << n << " nr_dpus=" << nr_dpus << " d=" << d;
        ASSERT_GE(end, begin);
        const usize share = end - begin;
        ASSERT_EQ(share, base + (d < rem ? 1 : 0))
            << "n=" << n << " nr_dpus=" << nr_dpus << " d=" << d;
        expected_begin = end;
      }
      ASSERT_EQ(expected_begin, n) << "n=" << n << " nr_dpus=" << nr_dpus;
    }
  }
}

TEST(PimBatch, EmptyBatchProducesNoResults) {
  PimBatchAligner aligner(tiny_options(2, 4));
  const PimBatchResult result =
      aligner.align_batch(seq::ReadPairSet{}, AlignmentScope::kFull);
  EXPECT_TRUE(result.results.empty());
  EXPECT_EQ(result.timings.pairs, 0u);
}

TEST(PimBatch, FewerPairsThanDpusMatchesHost) {
  // 3 pairs over 4 DPUs exercises the idle-DPU path end to end.
  const seq::ReadPairSet batch = seq::fig1_dataset(3, 0.02, 18);
  PimBatchAligner aligner(tiny_options(4, 8));
  const PimBatchResult result =
      aligner.align_batch(batch, AlignmentScope::kFull);
  expect_matches_host(batch, result, Penalties::defaults(), true);
}

TEST(PimBatch, PackedScoreOnlyBitIdentical) {
  const seq::ReadPairSet batch = seq::fig1_dataset(64, 0.04, 19);
  PimOptions plain_options = tiny_options(2, 8);
  PimOptions packed_options = tiny_options(2, 8);
  packed_options.packed_sequences = true;
  PimBatchAligner plain(plain_options);
  PimBatchAligner packed(packed_options);
  const PimBatchResult a =
      plain.align_batch(batch, AlignmentScope::kScoreOnly);
  const PimBatchResult b =
      packed.align_batch(batch, AlignmentScope::kScoreOnly);
  EXPECT_EQ(a.results, b.results);
  expect_matches_host(batch, b, Penalties::defaults(), false);
}

TEST(PimBatch, PackedBitIdenticalOnDegenerateAndOddLengthPairs) {
  // 2-bit packing pads to 4-base boundaries: cover lengths around the pack
  // word, empty sequences, and strongly asymmetric pairs.
  seq::ReadPairSet batch;
  batch.add({"", ""});
  batch.add({"A", ""});
  batch.add({"", "C"});
  batch.add({"A", "C"});
  batch.add({"ACG", "ACGT"});
  batch.add({"ACGT", "ACG"});
  batch.add({"ACGTA", "ACGTACGTA"});
  Rng rng(20);
  for (usize length : {1u, 2u, 3u, 4u, 5u, 7u, 8u, 9u, 15u, 16u, 17u, 63u,
                       64u, 65u}) {
    batch.add(pimwfa::testing::random_pair(rng, length, length / 8));
  }
  PimOptions plain_options = tiny_options(2, 4);
  PimOptions packed_options = tiny_options(2, 4);
  packed_options.packed_sequences = true;
  PimBatchAligner plain(plain_options);
  PimBatchAligner packed(packed_options);
  const PimBatchResult a = plain.align_batch(batch, AlignmentScope::kFull);
  const PimBatchResult b = packed.align_batch(batch, AlignmentScope::kFull);
  ASSERT_EQ(a.results.size(), batch.size());
  for (usize i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(a.results[i], b.results[i])
        << "pair " << i << " pattern=" << batch[i].pattern
        << " text=" << batch[i].text;
  }
  expect_matches_host(batch, a, Penalties::defaults(), true);
}

TEST(PimBatch, PackedBitIdenticalAcrossPenaltySets) {
  Rng rng(21);
  seq::ReadPairSet batch;
  for (usize i = 0; i < 32; ++i) {
    batch.add(pimwfa::testing::random_pair(rng, 50 + rng.next_below(50), 3));
  }
  for (const Penalties penalties :
       {Penalties::defaults(), Penalties::edit(), Penalties{2, 12, 1}}) {
    PimOptions plain_options = tiny_options(2, 4);
    plain_options.penalties = penalties;
    PimOptions packed_options = plain_options;
    packed_options.packed_sequences = true;
    PimBatchAligner plain(plain_options);
    PimBatchAligner packed(packed_options);
    const PimBatchResult a = plain.align_batch(batch, AlignmentScope::kFull);
    const PimBatchResult b = packed.align_batch(batch, AlignmentScope::kFull);
    EXPECT_EQ(a.results, b.results) << penalties.to_string();
    expect_matches_host(batch, a, penalties, true);
  }
}

TEST(PimBatch, TimingBreakdownSane) {
  const seq::ReadPairSet batch = seq::fig1_dataset(64, 0.02, 16);
  PimBatchAligner aligner(tiny_options(4, 8));
  const PimBatchResult result =
      aligner.align_batch(batch, AlignmentScope::kFull);
  const PimTimings& t = result.timings;
  EXPECT_GT(t.scatter_seconds, 0.0);
  EXPECT_GT(t.kernel_seconds, 0.0);
  EXPECT_GT(t.gather_seconds, 0.0);
  EXPECT_NEAR(t.total_seconds(),
              t.scatter_seconds + t.kernel_seconds + t.gather_seconds, 1e-12);
  EXPECT_GT(t.bytes_to_device, batch.stats().total_bases);
  EXPECT_GT(t.work.instructions, 0u);
  EXPECT_GT(t.work.dma_calls, 0u);
}

#ifdef __linux__
// Host memory per simulated DPU follows the MRAM pages a batch touches, not
// the span up to the last tasklet's metadata arena near the top of each
// 64 MB bank (~16k pages if zero-filled, more with regrowth copies). One
// pair per tasklet puts every arena, the last one included, to work.
TEST(PimBatch, MramFootprintFollowsTouchedPages) {
  constexpr usize kSimDpus = 16;
  constexpr usize kPairsPerDpu = 24;
  PimOptions options;  // paper system, 24 tasklets, metadata in MRAM
  options.simulate_dpus = kSimDpus;
  options.virtual_total_pairs = options.system.nr_dpus() * kPairsPerDpu;
  PimBatchAligner aligner(options);
  const seq::ReadPairSet batch =
      seq::fig1_dataset(kSimDpus * kPairsPerDpu, 0.02, 17);
  auto minor_faults = [] {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<usize>(usage.ru_minflt);
  };
  const usize before = minor_faults();
  const PimBatchResult result =
      aligner.align_batch(batch, AlignmentScope::kFull);
  const usize faults_per_dpu = (minor_faults() - before) / kSimDpus;
  expect_matches_host(batch, result, Penalties::defaults(), true);
  EXPECT_LT(faults_per_dpu, 4096u) << "pages (16 MB) per simulated DPU";
}
#endif

}  // namespace
}  // namespace pimwfa::pim
