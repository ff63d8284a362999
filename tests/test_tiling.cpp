// Long-pair tiling: host-side planner correctness and the tiled PIM
// execution path (segments across tasklet rows/DPUs, host-side stitching).
#include <gtest/gtest.h>

#include <string>

#include "align/hybrid.hpp"
#include "align/verify.hpp"
#include "pim/dpu_wfa_kernel.hpp"
#include "pim/host.hpp"
#include "pim/layout.hpp"
#include "pim/tiling.hpp"
#include "seq/generator.hpp"
#include "test_util.hpp"
#include "upmem/dpu.hpp"
#include "wfa/wfa_aligner.hpp"

namespace pimwfa::pim {
namespace {

using align::AlignmentScope;
using align::Penalties;
using Component = wfa::WfaAligner::Component;

PimOptions tiny_options(usize dpus, usize tasklets) {
  PimOptions options;
  options.system = upmem::SystemConfig::tiny(dpus);
  options.nr_tasklets = tasklets;
  return options;
}

// The tiled result must be indistinguishable from a host kHigh alignment.
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

// Segments must tile the pair contiguously, chain their seam components,
// respect the size bound, and their span scores must sum to the optimum.
void expect_valid_plan(const std::vector<TileSegment>& segments,
                       const seq::ReadPair& pair, usize max_segment_bases,
                       const Penalties& penalties) {
  ASSERT_FALSE(segments.empty());
  EXPECT_EQ(segments.front().v0, 0u);
  EXPECT_EQ(segments.front().h0, 0u);
  EXPECT_EQ(segments.front().begin, Component::kM);
  EXPECT_EQ(segments.back().v1, pair.pattern.size());
  EXPECT_EQ(segments.back().h1, pair.text.size());
  EXPECT_EQ(segments.back().end, Component::kM);
  i64 total = 0;
  for (usize s = 0; s < segments.size(); ++s) {
    const TileSegment& seg = segments[s];
    EXPECT_LE(seg.pattern_length() + seg.text_length(), max_segment_bases);
    if (s > 0) {
      EXPECT_EQ(seg.v0, segments[s - 1].v1);
      EXPECT_EQ(seg.h0, segments[s - 1].h1);
      EXPECT_EQ(seg.begin, segments[s - 1].end);
    }
    total += seg.span_score;
  }
  wfa::WfaAligner host(penalties);
  EXPECT_EQ(total,
            host.align(pair.pattern, pair.text, AlignmentScope::kScoreOnly)
                .score);
}

TEST(TilingPlanner, SegmentsCoverPairAndScoresAdd) {
  Rng rng(101);
  const seq::ReadPair pair = pimwfa::testing::random_pair(rng, 1000, 25);
  TilingConfig config;
  config.arena_budget_bytes = 1u << 20;
  config.max_segment_bases = 256;
  TilingPlanner planner(config);
  std::vector<TileSegment> segments;
  planner.plan_pair(0, pair.pattern, pair.text, segments);
  EXPECT_GT(segments.size(), 4u);
  expect_valid_plan(segments, pair, 256, Penalties::defaults());
}

TEST(TilingPlanner, PerfectMatchSplitsAtDiagonalMidpoints) {
  Rng rng(102);
  seq::ReadPair pair;
  pair.pattern = seq::random_sequence(rng, 800);
  pair.text = pair.pattern;
  TilingConfig config;
  config.arena_budget_bytes = 1u << 20;
  config.max_segment_bases = 128;
  TilingPlanner planner(config);
  std::vector<TileSegment> segments;
  planner.plan_pair(0, pair.pattern, pair.text, segments);
  expect_valid_plan(segments, pair, 128, Penalties::defaults());
  for (const TileSegment& seg : segments) EXPECT_EQ(seg.span_score, 0);
}

TEST(TilingPlanner, ArenaBudgetAloneForcesSplits) {
  Rng rng(103);
  const seq::ReadPair pair = pimwfa::testing::random_pair(rng, 600, 40);
  TilingConfig config;
  // Generous size bound; the (tiny) arena budget drives the recursion.
  config.arena_budget_bytes = 16u << 10;
  config.max_segment_bases = 1u << 20;
  TilingPlanner planner(config);
  std::vector<TileSegment> segments;
  planner.plan_pair(0, pair.pattern, pair.text, segments);
  EXPECT_GT(segments.size(), 1u);
  expect_valid_plan(segments, pair, 1u << 20, Penalties::defaults());
}

TEST(PimTiling, TiledFullAlignmentMatchesHost) {
  Rng rng(7);
  seq::ReadPairSet batch;
  // Long pairs interleaved with short ones: tiled and untiled records
  // share the batch.
  batch.add(pimwfa::testing::random_pair(rng, 1400, 30));
  batch.add(pimwfa::testing::random_pair(rng, 90, 3));
  batch.add(pimwfa::testing::random_pair(rng, 1600, 10));
  batch.add(pimwfa::testing::random_pair(rng, 120, 0));
  PimOptions options = tiny_options(2, 4);
  options.tile_max_segment_bases = 512;
  PimBatchAligner aligner(options);
  const PimBatchResult result =
      aligner.align_batch(batch, AlignmentScope::kFull);
  expect_matches_host(batch, result, Penalties::defaults(), true);
  EXPECT_EQ(result.timings.tiled_pairs, 2u);
  EXPECT_GT(result.timings.tile_segments, batch.size());
  EXPECT_EQ(result.timings.pairs, batch.size());
}

// What tiling promises for a pair with co-optimal paths: the optimal
// score, and the CIGAR of the host's span alignments of the same segments,
// stitched - not necessarily WfaAligner::align's CIGAR, since the planner
// cuts on *an* optimal path and the host backtrace's tie-breaks may pick
// another.
TEST(PimTiling, TiledCigarIsTheSpanStitchedHostCigar) {
  Rng rng(197);
  seq::ReadPairSet batch;
  batch.add(pimwfa::testing::random_pair(rng, 900, 120));
  const std::string& pattern = batch[0].pattern;
  const std::string& text = batch[0].text;
  PimOptions options = tiny_options(1, 4);
  options.tile_max_segment_bases = 256;
  const PimBatchResult result =
      PimBatchAligner(options).align_batch(batch, AlignmentScope::kFull);
  ASSERT_EQ(result.results.size(), 1u);
  EXPECT_EQ(result.timings.tiled_pairs, 1u);

  TilingConfig config;
  config.arena_budget_bytes = u64{1} << 30;
  config.max_segment_bases = options.tile_max_segment_bases;
  std::vector<TileSegment> segments;
  TilingPlanner(config).plan_pair(0, pattern, text, segments);
  wfa::WfaAligner host(Penalties::defaults());
  std::vector<align::AlignmentResult> spans;
  for (const TileSegment& seg : segments) {
    spans.push_back(host.align_span(
        std::string_view(pattern).substr(seg.v0, seg.pattern_length()),
        std::string_view(text).substr(seg.h0, seg.text_length()),
        AlignmentScope::kFull, seg.begin, seg.end));
  }
  const align::AlignmentResult stitched =
      stitch_segments(segments, 0, segments.size(), spans, true);
  EXPECT_EQ(result.results[0].score,
            host.align(pattern, text, AlignmentScope::kScoreOnly).score);
  EXPECT_EQ(result.results[0].cigar, stitched.cigar);
  EXPECT_NO_THROW(align::verify_result(result.results[0], pattern, text,
                                       Penalties::defaults()));
}

TEST(PimTiling, TiledScoreOnlyMatchesHost) {
  Rng rng(8);
  seq::ReadPairSet batch;
  batch.add(pimwfa::testing::random_pair(rng, 1200, 40));
  batch.add(pimwfa::testing::unrelated_pair(rng, 700, 760));
  PimOptions options = tiny_options(3, 2);
  options.tile_max_segment_bases = 400;
  PimBatchAligner aligner(options);
  const PimBatchResult result =
      aligner.align_batch(batch, AlignmentScope::kScoreOnly);
  expect_matches_host(batch, result, Penalties::defaults(), false);
  EXPECT_EQ(result.timings.tiled_pairs, 2u);
}

TEST(PimTiling, WramShareScreensLongPairsAutomatically) {
  // No explicit segment bound: a 500x500 pair (1000 bases) exceeds the
  // ~298-base WRAM share of a 24-tasklet DPU and must tile on its own.
  Rng rng(9);
  seq::ReadPairSet batch;
  batch.add(pimwfa::testing::random_pair(rng, 500, 12));
  PimBatchAligner aligner(tiny_options(1, 24));
  const PimBatchResult result =
      aligner.align_batch(batch, AlignmentScope::kFull);
  expect_matches_host(batch, result, Penalties::defaults(), true);
  EXPECT_EQ(result.timings.tiled_pairs, 1u);
  EXPECT_GT(result.timings.tile_segments, 1u);
}

TEST(PimTiling, DisabledTilingNamesTheOffendingPair) {
  Rng rng(10);
  seq::ReadPairSet batch;
  batch.add(pimwfa::testing::random_pair(rng, 100, 2));
  batch.add(pimwfa::testing::random_pair(rng, 900, 5));
  PimOptions options = tiny_options(1, 4);
  options.tile_max_segment_bases = 300;
  options.tile_long_pairs = false;
  PimBatchAligner aligner(options);
  try {
    aligner.align_batch(batch, AlignmentScope::kFull);
    FAIL() << "expected Error for the untileable pair";
  } catch (const Error& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("pair 1"), std::string::npos) << message;
    EXPECT_NE(message.find("tile_long_pairs"), std::string::npos) << message;
  }
}

TEST(PimTiling, HybridSplitsAndAlignsLongPairBatch) {
  // Long pairs must survive the hybrid calibrator (its virtual-prefix
  // PIM probe cannot serve a tiled batch) and both execution shares.
  Rng rng(12);
  seq::ReadPairSet batch;
  for (usize i = 0; i < 12; ++i) {
    batch.add(pimwfa::testing::random_pair(rng, i % 3 == 0 ? 1200 : 150, 8));
  }
  align::BatchOptions options;
  options.pim_dpus = 2;
  options.pim_tasklets = 4;
  options.cpu_threads = 2;
  align::HybridBatchAligner hybrid(options);
  const align::BatchResult result =
      hybrid.run(seq::ReadPairSpan(batch), AlignmentScope::kFull);
  ASSERT_EQ(result.results.size(), batch.size());
  wfa::WfaAligner host(options.penalties);
  for (usize i = 0; i < batch.size(); ++i) {
    const auto expected =
        host.align(batch[i].pattern, batch[i].text, AlignmentScope::kFull);
    EXPECT_EQ(result.results[i].score, expected.score) << "pair " << i;
    EXPECT_EQ(result.results[i].cigar, expected.cigar) << "pair " << i;
  }
}

TEST(PimTiling, VirtualBatchesAreRejected) {
  Rng rng(11);
  seq::ReadPairSet batch;
  batch.add(pimwfa::testing::random_pair(rng, 900, 5));
  PimOptions options = tiny_options(1, 4);
  options.tile_max_segment_bases = 300;
  options.virtual_total_pairs = 1;
  PimBatchAligner aligner(options);
  EXPECT_THROW(aligner.align_batch(batch, AlignmentScope::kFull),
               InvalidArgument);
}

// Satellite: an unplannable layout must say which budget broke and point
// at tiling instead of a generic "does not fit".
TEST(BatchLayoutTiling, OversizedPairErrorSuggestsTiling) {
  BatchLayout::Params params;
  params.nr_pairs = 1;
  params.max_pattern = 600'000;
  params.max_text = 600'000;
  try {
    BatchLayout::plan(params, 1ull << 20);
    FAIL() << "expected Error for an oversized pair record";
  } catch (const Error& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("tiling"), std::string::npos) << message;
    EXPECT_NE(message.find("600000"), std::string::npos) << message;
  }
}

TEST(BatchLayoutTiling, OverfullBatchErrorSuggestsShrinkingOrTiling) {
  BatchLayout::Params params;
  params.nr_pairs = 1'000'000;
  params.max_pattern = 100;
  params.max_text = 100;
  try {
    BatchLayout::plan(params, 1ull << 20);
    FAIL() << "expected Error for an overfull batch";
  } catch (const Error& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("tile long pairs"), std::string::npos) << message;
  }
}

// --- seam conformance ---------------------------------------------------

// A (sub)pair plus the components its path enters and leaves in.
struct Span {
  std::string pattern;
  std::string text;
  Component begin = Component::kM;
  Component end = Component::kM;
};

constexpr i64 kSpanScoreCap = 256;

// Runs the DPU kernel on one tasklet over records that carry each span's
// seam components in their length fields, as the tiling path writes them.
std::vector<align::AlignmentResult> run_dpu_spans(
    const std::vector<Span>& spans) {
  BatchLayout::Params params;
  params.nr_pairs = spans.size();
  for (const Span& span : spans) {
    params.max_pattern = std::max(params.max_pattern, span.pattern.size());
    params.max_text = std::max(params.max_text, span.text.size());
  }
  params.max_score = kSpanScoreCap;
  const upmem::SystemConfig config = upmem::SystemConfig::tiny(1);
  const BatchLayout layout = BatchLayout::plan(params, config.mram_bytes);
  upmem::Dpu dpu(config, 0);
  dpu.mram().write_pod(0, layout.header());
  for (usize i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    const u32 lens[2] = {encode_pair_len(span.pattern.size(), span.begin),
                         encode_pair_len(span.text.size(), span.end)};
    const u64 addr = layout.pair_addr(i);
    dpu.mram().write(addr, lens, sizeof(lens));
    dpu.mram().write(addr + 8, span.pattern.data(), span.pattern.size());
    dpu.mram().write(addr + 8 + layout.pattern_field_bytes(),
                     span.text.data(), span.text.size());
  }
  WfaDpuKernel kernel;
  dpu.launch(kernel, 1);
  std::vector<align::AlignmentResult> results;
  for (usize i = 0; i < spans.size(); ++i) {
    u32 head[2];
    dpu.mram().read(layout.result_addr(i), head, sizeof(head));
    std::string ops(head[1], '\0');
    dpu.mram().read(layout.result_addr(i) + 8, ops.data(), ops.size());
    align::AlignmentResult result;
    result.score = static_cast<i64>(head[0]);
    result.cigar = seq::Cigar::from_ops(ops);
    result.has_cigar = true;
    results.push_back(std::move(result));
  }
  return results;
}

// The host span alignment every other implementation must agree with.
align::AlignmentResult host_span(const Span& span) {
  wfa::WfaAligner::Options options;
  options.max_score = kSpanScoreCap;
  wfa::WfaAligner host(options);
  return host.align_span(span.pattern, span.text, AlignmentScope::kFull,
                         span.begin, span.end);
}

std::string describe(const Span& span) {
  const char* names = "MID";
  return "'" + span.pattern + "' vs '" + span.text + "' " +
         names[static_cast<int>(span.begin)] + "->" +
         names[static_cast<int>(span.end)];
}

// Every (begin, end) seam pair on short spans, the empty ones included:
// the DPU kernel reads seams from the record bits and must score and
// backtrace exactly like WfaAligner::align_span. Each non-empty pair
// admits every seam pair; a forced end component can leave the
// furthest-reaching wavefronts short of the corner (an exact match forced
// to end in I never gets there), which both sides report as an exceeded
// score cap.
TEST(SeamConformance, DpuKernelMatchesHostSpanForEverySeamPair) {
  const std::pair<const char*, const char*> pairs[] = {
      {"", ""},           {"ACGT", ""},        {"", "ACG"},
      {"A", "C"},         {"ACGTAC", "ACGTAG"}, {"ACGTTGCA", "ACTTGGCA"},
      {"CA", "ACGGT"},    {"ACGGT", "CA"},     {"GATTACA", "GTACA"},
      {"TAC", "GACT"},
  };
  const Component comps[] = {Component::kM, Component::kI, Component::kD};
  std::vector<Span> spans;
  for (const auto& [pattern, text] : pairs) {
    for (const Component begin : comps) {
      for (const Component end : comps) {
        spans.push_back({pattern, text, begin, end});
      }
    }
  }
  const std::vector<align::AlignmentResult> dpu = run_dpu_spans(spans);
  ASSERT_EQ(dpu.size(), spans.size());
  for (usize i = 0; i < spans.size(); ++i) {
    const align::AlignmentResult expected = host_span(spans[i]);
    EXPECT_EQ(dpu[i].score, expected.score) << describe(spans[i]);
    EXPECT_EQ(dpu[i].cigar, expected.cigar) << describe(spans[i]);
  }
}

// Indels at a pair's end make the planner cut inside the gap run and hand
// out degenerate segments (an empty pattern or text) that begin and end
// in I or D. Their planned span scores must be what the host and the DPU
// kernel score for the same segments.
TEST(SeamConformance, PlannerDegenerateSegmentsMatchHostAndDpu) {
  Rng rng(5);
  std::vector<Span> spans;
  std::vector<i64> planned;
  for (usize variant = 0; variant < 4; ++variant) {
    const std::string head = seq::random_sequence(rng, 10 + variant * 4);
    const std::string tail = seq::random_sequence(rng, 40 + variant * 6);
    const bool deletion = variant % 2 == 1;
    const std::string pattern = deletion ? head + tail : head;
    const std::string text = deletion ? head : head + tail;
    TilingConfig config;
    config.arena_budget_bytes = u64{1} << 30;
    config.max_segment_bases = 16;
    TilingPlanner planner(config);
    std::vector<TileSegment> segments;
    planner.plan_pair(0, pattern, text, segments);
    for (const TileSegment& seg : segments) {
      if (seg.pattern_length() != 0 && seg.text_length() != 0) continue;
      spans.push_back({pattern.substr(seg.v0, seg.pattern_length()),
                       text.substr(seg.h0, seg.text_length()), seg.begin,
                       seg.end});
      planned.push_back(seg.span_score);
    }
  }
  // Unsplit empty-sided pairs come back as one degenerate M/M segment.
  for (const auto& [pattern, text] :
       {std::pair<std::string, std::string>{"", "ACGTA"}, {"ACG", ""}}) {
    TilingPlanner planner(TilingConfig{Penalties::defaults(), 1u << 20, 16, 0});
    std::vector<TileSegment> segments;
    planner.plan_pair(0, pattern, text, segments);
    ASSERT_EQ(segments.size(), 1u);
    spans.push_back({pattern, text, Component::kM, Component::kM});
    planned.push_back(segments[0].span_score);
  }
  auto seams_from = [&](Component c) {
    return std::count_if(spans.begin(), spans.end(),
                         [c](const Span& s) { return s.begin == c; });
  };
  ASSERT_GT(seams_from(Component::kI), 0) << "no degenerate I seam planned";
  ASSERT_GT(seams_from(Component::kD), 0) << "no degenerate D seam planned";
  const std::vector<align::AlignmentResult> dpu = run_dpu_spans(spans);
  for (usize i = 0; i < spans.size(); ++i) {
    const align::AlignmentResult expected = host_span(spans[i]);
    EXPECT_EQ(planned[i], expected.score) << describe(spans[i]);
    EXPECT_EQ(dpu[i].score, expected.score) << describe(spans[i]);
    EXPECT_EQ(dpu[i].cigar, expected.cigar) << describe(spans[i]);
  }
}

}  // namespace
}  // namespace pimwfa::pim
