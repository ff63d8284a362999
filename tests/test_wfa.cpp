#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "align/verify.hpp"
#include "baselines/gotoh.hpp"
#include "baselines/nw.hpp"
#include "test_util.hpp"
#include "wfa/wfa_aligner.hpp"
#include "wfa/wfa_edit.hpp"

namespace pimwfa::wfa {
namespace {

using align::AlignmentScope;
using align::Penalties;

TEST(Wfa, IdenticalSequences) {
  WfaAligner aligner(Penalties::defaults());
  const auto result = aligner.align("ACGTACGTAC", "ACGTACGTAC",
                                    AlignmentScope::kFull);
  EXPECT_EQ(result.score, 0);
  EXPECT_EQ(result.cigar.ops(), std::string(10, 'M'));
}

TEST(Wfa, SingleMismatch) {
  WfaAligner aligner(Penalties::defaults());
  const auto result = aligner.align("ACGT", "AGGT", AlignmentScope::kFull);
  EXPECT_EQ(result.score, 4);
  EXPECT_EQ(result.cigar.ops(), "MXMM");
}

TEST(Wfa, SingleInsertion) {
  WfaAligner aligner(Penalties::defaults());
  const auto result = aligner.align("ACGT", "ACGGT", AlignmentScope::kFull);
  EXPECT_EQ(result.score, 8);
  EXPECT_NO_THROW(align::verify_result(result, "ACGT", "ACGGT",
                                       aligner.penalties()));
}

TEST(Wfa, SingleDeletion) {
  WfaAligner aligner(Penalties::defaults());
  const auto result = aligner.align("ACGGT", "ACGT", AlignmentScope::kFull);
  EXPECT_EQ(result.score, 8);
  EXPECT_EQ(result.cigar.deletions(), 1u);
}

TEST(Wfa, EmptyInputs) {
  WfaAligner aligner(Penalties::defaults());
  EXPECT_EQ(aligner.align("", "", AlignmentScope::kFull).score, 0);
  const auto ins = aligner.align("", "ACG", AlignmentScope::kFull);
  EXPECT_EQ(ins.score, 6 + 3 * 2);
  EXPECT_EQ(ins.cigar.ops(), "III");
  const auto del = aligner.align("ACG", "", AlignmentScope::kFull);
  EXPECT_EQ(del.score, 6 + 3 * 2);
  EXPECT_EQ(del.cigar.ops(), "DDD");
}

TEST(Wfa, EndingInGap) {
  // Optimal alignment ends with an insertion run.
  WfaAligner aligner(Penalties::defaults());
  const auto result = aligner.align("AC", "ACGG", AlignmentScope::kFull);
  EXPECT_EQ(result.score, 6 + 2 * 2);
  EXPECT_EQ(result.cigar.ops(), "MMII");
}

TEST(Wfa, StartingWithGap) {
  WfaAligner aligner(Penalties::defaults());
  const auto result = aligner.align("GGAC", "AC", AlignmentScope::kFull);
  EXPECT_EQ(result.score, 6 + 2 * 2);
  EXPECT_EQ(result.cigar.ops(), "DDMM");
}

TEST(Wfa, ScoreOnlyMatchesFull) {
  WfaAligner aligner(Penalties::defaults());
  Rng rng(31);
  for (int trial = 0; trial < 30; ++trial) {
    const auto pair = pimwfa::testing::random_pair(rng, 90, 5);
    const auto full = aligner.align(pair.pattern, pair.text,
                                    AlignmentScope::kFull);
    const auto fast =
        aligner.align(pair.pattern, pair.text, AlignmentScope::kScoreOnly);
    EXPECT_EQ(full.score, fast.score);
  }
}

// The fundamental exactness property: WFA and Gotoh agree on every input.
struct SweepParam {
  usize length;
  usize errors;
  Penalties penalties;
};

class WfaVsGotoh : public ::testing::TestWithParam<SweepParam> {};

TEST_P(WfaVsGotoh, ScoresAgreeAndCigarsConsistent) {
  const SweepParam param = GetParam();
  WfaAligner wfa(param.penalties);
  baselines::GotohAligner gotoh(param.penalties);
  Rng rng(1000 + param.length * 7 + param.errors);
  for (int trial = 0; trial < 20; ++trial) {
    const auto pair =
        pimwfa::testing::random_pair(rng, param.length, param.errors);
    const auto wfa_result =
        wfa.align(pair.pattern, pair.text, AlignmentScope::kFull);
    const auto gotoh_result =
        gotoh.align(pair.pattern, pair.text, AlignmentScope::kScoreOnly);
    EXPECT_EQ(wfa_result.score, gotoh_result.score)
        << "pattern=" << pair.pattern << " text=" << pair.text
        << " penalties=" << param.penalties.to_string();
    EXPECT_NO_THROW(align::verify_result(wfa_result, pair.pattern, pair.text,
                                         param.penalties));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, WfaVsGotoh,
    ::testing::Values(
        SweepParam{10, 1, Penalties::defaults()},
        SweepParam{10, 4, Penalties::defaults()},
        SweepParam{50, 2, Penalties::defaults()},
        SweepParam{50, 10, Penalties::defaults()},
        SweepParam{100, 2, Penalties::defaults()},   // Fig.1 E=2%
        SweepParam{100, 4, Penalties::defaults()},   // Fig.1 E=4%
        SweepParam{100, 20, Penalties::defaults()},
        SweepParam{200, 30, Penalties::defaults()},
        SweepParam{100, 4, Penalties{1, 0, 1}},      // edit-distance penalties
        SweepParam{100, 4, Penalties{2, 3, 1}},
        SweepParam{100, 4, Penalties{6, 2, 5}},
        SweepParam{100, 4, Penalties{1, 12, 1}},     // expensive open
        SweepParam{64, 8, Penalties{5, 1, 1}},
        SweepParam{33, 33, Penalties::defaults()}),  // saturated errors
    [](const ::testing::TestParamInfo<SweepParam>& info) {
      return "len" + std::to_string(info.param.length) + "_err" +
             std::to_string(info.param.errors) + "_x" +
             std::to_string(info.param.penalties.mismatch) + "_o" +
             std::to_string(info.param.penalties.gap_open) + "_e" +
             std::to_string(info.param.penalties.gap_extend);
    });

TEST(Wfa, UnrelatedSequencesStillExact) {
  const Penalties penalties = Penalties::defaults();
  WfaAligner wfa(penalties);
  baselines::GotohAligner gotoh(penalties);
  Rng rng(32);
  for (int trial = 0; trial < 10; ++trial) {
    const auto pair = pimwfa::testing::unrelated_pair(
        rng, 30 + rng.next_below(40), 30 + rng.next_below(40));
    const auto wfa_result =
        wfa.align(pair.pattern, pair.text, AlignmentScope::kFull);
    const auto gotoh_result =
        gotoh.align(pair.pattern, pair.text, AlignmentScope::kScoreOnly);
    EXPECT_EQ(wfa_result.score, gotoh_result.score);
    EXPECT_NO_THROW(align::verify_result(wfa_result, pair.pattern, pair.text,
                                         penalties));
  }
}

TEST(Wfa, LengthAsymmetry) {
  const Penalties penalties = Penalties::defaults();
  WfaAligner wfa(penalties);
  baselines::GotohAligner gotoh(penalties);
  Rng rng(33);
  for (const auto& [plen, tlen] : std::vector<std::pair<usize, usize>>{
           {10, 40}, {40, 10}, {1, 100}, {100, 1}, {5, 5}}) {
    const auto pair = pimwfa::testing::unrelated_pair(rng, plen, tlen);
    EXPECT_EQ(
        wfa.align(pair.pattern, pair.text, AlignmentScope::kFull).score,
        gotoh.align(pair.pattern, pair.text, AlignmentScope::kScoreOnly).score);
  }
}

TEST(Wfa, MaxScoreCapThrows) {
  WfaAligner::Options options;
  options.max_score = 3;  // below any mismatch cost
  WfaAligner aligner(options);
  EXPECT_THROW(aligner.align("AAAA", "TTTT", AlignmentScope::kScoreOnly),
               Error);
}

TEST(Wfa, CountersAccumulate) {
  WfaAligner aligner(Penalties::defaults());
  Rng rng(34);
  const auto pair = pimwfa::testing::random_pair(rng, 100, 4);
  aligner.align(pair.pattern, pair.text, AlignmentScope::kFull);
  const WfaCounters& counters = aligner.counters();
  EXPECT_EQ(counters.alignments, 1u);
  EXPECT_GT(counters.extend_matches, 0u);
  EXPECT_GT(counters.computed_cells, 0u);
  EXPECT_GT(counters.backtrace_ops, 0u);
  aligner.reset_counters();
  EXPECT_EQ(aligner.counters().alignments, 0u);
}

TEST(Wfa, CountersScaleWithErrorRate) {
  // WFA work grows with the alignment score: E=4% must compute more cells
  // than E=2% on average (the paper's core scaling property).
  WfaAligner aligner(Penalties::defaults());
  Rng rng(35);
  u64 cells_low = 0;
  u64 cells_high = 0;
  for (int trial = 0; trial < 30; ++trial) {
    const auto low = pimwfa::testing::random_pair(rng, 100, 2);
    aligner.reset_counters();
    aligner.align(low.pattern, low.text, AlignmentScope::kScoreOnly);
    cells_low += aligner.counters().computed_cells;
    const auto high = pimwfa::testing::random_pair(rng, 100, 4);
    aligner.reset_counters();
    aligner.align(high.pattern, high.text, AlignmentScope::kScoreOnly);
    cells_high += aligner.counters().computed_cells;
  }
  EXPECT_GT(cells_high, cells_low);
}

TEST(Wfa, ExternalAllocatorIsUsed) {
  SlabAllocator allocator;
  WfaAligner aligner(WfaAligner::Options{Penalties::defaults(), 0},
                     &allocator);
  Rng rng(36);
  const auto pair = pimwfa::testing::random_pair(rng, 50, 3);
  aligner.align(pair.pattern, pair.text, AlignmentScope::kFull);
  EXPECT_GT(allocator.high_water(), 0u);
}

TEST(Wfa, DeterministicCigars) {
  WfaAligner a(Penalties::defaults());
  WfaAligner b(Penalties::defaults());
  Rng rng(37);
  for (int trial = 0; trial < 10; ++trial) {
    const auto pair = pimwfa::testing::random_pair(rng, 70, 5);
    const auto ra = a.align(pair.pattern, pair.text, AlignmentScope::kFull);
    const auto rb = b.align(pair.pattern, pair.text, AlignmentScope::kFull);
    EXPECT_EQ(ra.cigar, rb.cigar);
  }
}

TEST(Wfa, CigarIsExactSize) {
  WfaAligner aligner(Penalties::defaults());
  Rng rng(38);
  const auto pair = pimwfa::testing::random_pair(rng, 1000, 20);
  const auto result = aligner.align(pair.pattern, pair.text,
                                    AlignmentScope::kFull);
  ASSERT_GE(result.cigar.size(), 1000u);
  EXPECT_TRUE(pimwfa::testing::holds_exactly_its_ops(result.cigar));
}

TEST(Wfa, CigarBufferReuseLeavesNoStaleOps) {
  // A short pair after a long one on the same aligner reuses the larger
  // op buffer; its CIGAR must be exactly a fresh aligner's.
  WfaAligner reused(Penalties::defaults());
  Rng rng(39);
  const auto long_pair = pimwfa::testing::random_pair(rng, 1000, 20);
  const auto short_pair = pimwfa::testing::random_pair(rng, 100, 3);
  reused.align(long_pair.pattern, long_pair.text, AlignmentScope::kFull);
  const auto got =
      reused.align(short_pair.pattern, short_pair.text, AlignmentScope::kFull);

  WfaAligner fresh(Penalties::defaults());
  const auto want =
      fresh.align(short_pair.pattern, short_pair.text, AlignmentScope::kFull);
  EXPECT_EQ(got.score, want.score);
  EXPECT_EQ(got.cigar, want.cigar);
  EXPECT_EQ(got.cigar.pattern_length(), short_pair.pattern.size());
  EXPECT_EQ(got.cigar.text_length(), short_pair.text.size());
  EXPECT_TRUE(pimwfa::testing::holds_exactly_its_ops(got.cigar));
}

TEST(WfaAdaptive, ExactOnLowErrorPairs) {
  WfaAligner::Options options;
  options.heuristic.enabled = true;
  WfaAligner adaptive(options);
  baselines::GotohAligner gotoh(options.penalties);
  Rng rng(38);
  for (int trial = 0; trial < 25; ++trial) {
    const auto pair = pimwfa::testing::random_pair(rng, 100, 3);
    const auto heuristic =
        adaptive.align(pair.pattern, pair.text, AlignmentScope::kFull);
    const auto exact =
        gotoh.align(pair.pattern, pair.text, AlignmentScope::kScoreOnly);
    EXPECT_EQ(heuristic.score, exact.score);
    EXPECT_NO_THROW(align::verify_result(heuristic, pair.pattern, pair.text,
                                         options.penalties));
  }
}

TEST(WfaAdaptive, ReducesWorkOnDivergentPairs) {
  WfaAligner::Options adaptive_options;
  adaptive_options.heuristic.enabled = true;
  adaptive_options.heuristic.max_distance_diff = 20;
  WfaAligner adaptive(adaptive_options);
  WfaAligner exact(Penalties::defaults());
  Rng rng(39);
  u64 adaptive_cells = 0;
  u64 exact_cells = 0;
  for (int trial = 0; trial < 10; ++trial) {
    const auto pair = pimwfa::testing::unrelated_pair(rng, 150, 150);
    adaptive.reset_counters();
    adaptive.align(pair.pattern, pair.text, AlignmentScope::kScoreOnly);
    adaptive_cells += adaptive.counters().computed_cells;
    exact.reset_counters();
    exact.align(pair.pattern, pair.text, AlignmentScope::kScoreOnly);
    exact_cells += exact.counters().computed_cells;
  }
  EXPECT_LT(adaptive_cells, exact_cells);
}

TEST(WfaAdaptive, CigarAlwaysConsistentEvenWhenInexact) {
  WfaAligner::Options options;
  options.heuristic.enabled = true;
  options.heuristic.max_distance_diff = 15;
  WfaAligner adaptive(options);
  Rng rng(40);
  for (int trial = 0; trial < 10; ++trial) {
    const auto pair = pimwfa::testing::unrelated_pair(rng, 120, 120);
    const auto result =
        adaptive.align(pair.pattern, pair.text, AlignmentScope::kFull);
    // Scores may be suboptimal, but the CIGAR must still be a valid
    // alignment matching its reported score.
    EXPECT_NO_THROW(align::verify_result(result, pair.pattern, pair.text,
                                         options.penalties));
  }
}

TEST(WfaEdit, MatchesLevenshtein) {
  EditWfaAligner aligner;
  Rng rng(41);
  for (int trial = 0; trial < 30; ++trial) {
    const auto pair =
        pimwfa::testing::random_pair(rng, 80, rng.next_below(10));
    const auto result =
        aligner.align(pair.pattern, pair.text, AlignmentScope::kFull);
    EXPECT_EQ(result.score, baselines::levenshtein(pair.pattern, pair.text));
    EXPECT_NO_THROW(result.cigar.validate(pair.pattern, pair.text));
    EXPECT_EQ(static_cast<i64>(result.cigar.edit_distance()), result.score);
  }
}

TEST(WfaEdit, EmptyInputs) {
  EditWfaAligner aligner;
  EXPECT_EQ(aligner.align("", "", AlignmentScope::kFull).score, 0);
  EXPECT_EQ(aligner.align("", "AC", AlignmentScope::kFull).score, 2);
  EXPECT_EQ(aligner.align("AC", "", AlignmentScope::kFull).score, 2);
}

TEST(WfaEdit, AgreesWithAffineUnitPenalties) {
  // Gap-affine WFA with x=1,o=0,e=1 computes plain edit distance too.
  EditWfaAligner edit;
  WfaAligner affine(Penalties::edit());
  Rng rng(42);
  for (int trial = 0; trial < 20; ++trial) {
    const auto pair = pimwfa::testing::random_pair(rng, 60, 6);
    EXPECT_EQ(
        edit.align(pair.pattern, pair.text, AlignmentScope::kScoreOnly).score,
        affine.align(pair.pattern, pair.text, AlignmentScope::kScoreOnly)
            .score);
  }
}

TEST(WfaLowMemory, MatchesHighMemoryScores) {
  WfaAligner::Options low_options;
  low_options.memory_mode = WfaAligner::MemoryMode::kLow;
  WfaAligner low(low_options);
  WfaAligner high(Penalties::defaults());
  Rng rng(43);
  for (int trial = 0; trial < 40; ++trial) {
    const auto pair = pimwfa::testing::random_pair(
        rng, 20 + rng.next_below(150), rng.next_below(20));
    EXPECT_EQ(
        low.align(pair.pattern, pair.text, AlignmentScope::kScoreOnly).score,
        high.align(pair.pattern, pair.text, AlignmentScope::kScoreOnly).score)
        << "pattern=" << pair.pattern << " text=" << pair.text;
  }
}

TEST(WfaLowMemory, MatchesOnUnrelatedPairs) {
  WfaAligner::Options low_options;
  low_options.memory_mode = WfaAligner::MemoryMode::kLow;
  WfaAligner low(low_options);
  WfaAligner high(Penalties::defaults());
  Rng rng(44);
  for (int trial = 0; trial < 8; ++trial) {
    const auto pair = pimwfa::testing::unrelated_pair(
        rng, 30 + rng.next_below(60), 30 + rng.next_below(60));
    EXPECT_EQ(
        low.align(pair.pattern, pair.text, AlignmentScope::kScoreOnly).score,
        high.align(pair.pattern, pair.text, AlignmentScope::kScoreOnly).score);
  }
}

TEST(WfaLowMemory, UsesBoundedArenaMemory) {
  // Divergent pairs drive the score high: the high-memory mode's arena
  // grows ~O(s^2) while the low-memory ring stays out of the arena
  // entirely.
  WfaAligner::Options low_options;
  low_options.memory_mode = WfaAligner::MemoryMode::kLow;
  WfaAligner low(low_options);
  WfaAligner high(Penalties::defaults());
  Rng rng(45);
  const auto pair = pimwfa::testing::unrelated_pair(rng, 200, 200);
  low.align(pair.pattern, pair.text, AlignmentScope::kScoreOnly);
  high.align(pair.pattern, pair.text, AlignmentScope::kScoreOnly);
  EXPECT_LT(low.allocator().high_water(), high.allocator().high_water() / 4);
}

TEST(WfaLowMemory, FullScopeStillBacktraces) {
  // kLow applies only to score-only requests; full alignments keep the
  // history and return a valid CIGAR.
  WfaAligner::Options options;
  options.memory_mode = WfaAligner::MemoryMode::kLow;
  WfaAligner aligner(options);
  Rng rng(46);
  const auto pair = pimwfa::testing::random_pair(rng, 80, 5);
  const auto result =
      aligner.align(pair.pattern, pair.text, AlignmentScope::kFull);
  EXPECT_TRUE(result.has_cigar);
  EXPECT_NO_THROW(align::verify_result(result, pair.pattern, pair.text,
                                       options.penalties));
}

TEST(WfaLowMemory, DifferentPenaltiesAgree) {
  Rng rng(47);
  for (const Penalties penalties :
       {Penalties{4, 6, 2}, Penalties{1, 0, 1}, Penalties{7, 3, 4}}) {
    WfaAligner::Options low_options;
    low_options.penalties = penalties;
    low_options.memory_mode = WfaAligner::MemoryMode::kLow;
    WfaAligner low(low_options);
    WfaAligner high(penalties);
    for (int trial = 0; trial < 10; ++trial) {
      const auto pair = pimwfa::testing::random_pair(rng, 64, 7);
      EXPECT_EQ(
          low.align(pair.pattern, pair.text, AlignmentScope::kScoreOnly).score,
          high.align(pair.pattern, pair.text, AlignmentScope::kScoreOnly)
              .score);
    }
  }
}

TEST(WfaLowMemory, RingReuseAcrossShrinkingAndGrowingAlignments) {
  // One kLow aligner reused across alignments whose score (and therefore
  // ring-slot width demand) grows and shrinks: stale ring state from a
  // larger previous alignment must never leak into a smaller one.
  WfaAligner::Options low_options;
  low_options.memory_mode = WfaAligner::MemoryMode::kLow;
  WfaAligner low(low_options);
  WfaAligner high(Penalties::defaults());
  Rng rng(48);
  const std::vector<std::pair<usize, usize>> schedule = {
      {10, 0}, {200, 20}, {10, 1}, {150, 0}, {5, 2}, {200, 10}, {1, 0}};
  for (const auto& [length, errors] : schedule) {
    const auto pair = pimwfa::testing::random_pair(rng, length, errors);
    EXPECT_EQ(
        low.align(pair.pattern, pair.text, AlignmentScope::kScoreOnly).score,
        high.align(pair.pattern, pair.text, AlignmentScope::kScoreOnly).score)
        << "length=" << length << " errors=" << errors;
  }
}

TEST(WfaLowMemory, GridSweepMatchesHighMemory) {
  // Dense length x error grid, one aligner pair per penalty set, aligners
  // reused across the whole grid (the production usage pattern).
  Rng rng(49);
  for (const Penalties penalties :
       {Penalties::defaults(), Penalties{2, 12, 1}, Penalties{6, 1, 1}}) {
    WfaAligner::Options low_options;
    low_options.penalties = penalties;
    low_options.memory_mode = WfaAligner::MemoryMode::kLow;
    WfaAligner low(low_options);
    WfaAligner high(penalties);
    for (usize length : {8u, 32u, 100u, 180u}) {
      for (usize errors : {usize{0}, usize{1}, length / 20, length / 8}) {
        const auto pair = pimwfa::testing::random_pair(rng, length, errors);
        EXPECT_EQ(low.align(pair.pattern, pair.text,
                            AlignmentScope::kScoreOnly).score,
                  high.align(pair.pattern, pair.text,
                             AlignmentScope::kScoreOnly).score)
            << penalties.to_string() << " length=" << length
            << " errors=" << errors;
      }
    }
  }
}

TEST(WfaMaxScore, NonExceedingPairsMatchUncapped) {
  // A cap at or above the true score must not change the result, in either
  // memory mode and either scope.
  Rng rng(50);
  WfaAligner uncapped(Penalties::defaults());
  for (int trial = 0; trial < 20; ++trial) {
    const auto pair = pimwfa::testing::random_pair(rng, 90, 4);
    const auto expected =
        uncapped.align(pair.pattern, pair.text, AlignmentScope::kFull);
    for (const auto mode :
         {WfaAligner::MemoryMode::kHigh, WfaAligner::MemoryMode::kLow}) {
      WfaAligner::Options options;
      options.max_score = expected.score;  // exact boundary: must succeed
      options.memory_mode = mode;
      WfaAligner capped(options);
      EXPECT_EQ(capped.align(pair.pattern, pair.text,
                             AlignmentScope::kScoreOnly).score,
                expected.score);
      const auto full =
          capped.align(pair.pattern, pair.text, AlignmentScope::kFull);
      EXPECT_EQ(full.score, expected.score);
      EXPECT_NO_THROW(align::verify_result(full, pair.pattern, pair.text,
                                           options.penalties));
    }
  }
}

TEST(WfaMaxScore, ExceedingPairsThrowInBothMemoryModes) {
  Rng rng(51);
  WfaAligner scorer(Penalties::defaults());
  for (int trial = 0; trial < 10; ++trial) {
    const auto pair = pimwfa::testing::random_pair(rng, 90, 6);
    const i64 score =
        scorer.align(pair.pattern, pair.text, AlignmentScope::kScoreOnly)
            .score;
    if (score == 0) continue;  // cannot set a cap below a zero score
    for (const auto mode :
         {WfaAligner::MemoryMode::kHigh, WfaAligner::MemoryMode::kLow}) {
      WfaAligner::Options options;
      options.max_score = score - 1;
      options.memory_mode = mode;
      WfaAligner capped(options);
      EXPECT_THROW(
          capped.align(pair.pattern, pair.text, AlignmentScope::kScoreOnly),
          Error);
      EXPECT_THROW(
          capped.align(pair.pattern, pair.text, AlignmentScope::kFull),
          Error);
    }
  }
}

TEST(WfaMaxScore, AlignerStaysUsableAfterCapThrow) {
  // A thresholded rejection must not poison internal state: the next
  // alignment on the same aligner is computed correctly.
  WfaAligner::Options options;
  options.max_score = 6;
  WfaAligner capped(options);
  EXPECT_THROW(capped.align("AAAAAAAA", "TTTTTTTT", AlignmentScope::kFull),
               Error);
  // A single substitution scores exactly x=4, under the cap of 6.
  const auto after = capped.align("ACGTACGTACGT", "ACGAACGTACGT",
                                  AlignmentScope::kFull);
  EXPECT_EQ(after.score, 4);
  EXPECT_NO_THROW(align::verify_result(after, "ACGTACGTACGT", "ACGAACGTACGT",
                                       options.penalties));
}

TEST(SlabAllocator, AlignmentGuarantee) {
  SlabAllocator allocator(1024);
  for (usize size : {1u, 3u, 8u, 13u, 100u, 2000u}) {
    void* p = allocator.allocate(size);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(p) % kAllocAlign, 0u);
  }
}

TEST(SlabAllocator, ResetRecyclesMemory) {
  SlabAllocator allocator(256);
  void* first = allocator.allocate(64);
  allocator.reset();
  void* again = allocator.allocate(64);
  EXPECT_EQ(first, again);
  EXPECT_EQ(allocator.bytes_in_use(), 64u);
}

TEST(SlabAllocator, SpillsToNewSlabs) {
  SlabAllocator allocator(128);
  allocator.allocate(100);
  allocator.allocate(100);  // does not fit the first slab
  EXPECT_GE(allocator.slab_count(), 2u);
}

TEST(SlabAllocator, OversizedAllocationGetsDedicatedSlab) {
  SlabAllocator allocator(128);
  void* p = allocator.allocate(10000);
  EXPECT_NE(p, nullptr);
  EXPECT_GE(allocator.high_water(), 10000u);
}

TEST(SlabAllocator, HighWaterPersistsAcrossReset) {
  SlabAllocator allocator(1024);
  allocator.allocate(512);
  allocator.reset();
  allocator.allocate(8);
  EXPECT_GE(allocator.high_water(), 512u);
  EXPECT_EQ(allocator.bytes_in_use(), 8u);
}

// --- ends-free alignment (text-side free ends) ---------------------------

// Brute-force gap-affine DP (Gotoh) with text-side free ends: the
// cheapest alignment of the whole pattern against text[b, e) over
// b <= free and e >= |text| - free. Bytes match iff equal.
i64 ends_free_oracle(std::string_view p, std::string_view t,
                     const Penalties& pen, usize free) {
  constexpr i64 kInf = std::numeric_limits<i64>::max() / 4;
  const usize n = p.size();
  const usize m = t.size();
  const i64 oe = pen.gap_open + pen.gap_extend;
  const auto at = [m](usize i, usize j) { return i * (m + 1) + j; };
  // h: best over all end states; ins / del: ending in a gap that
  // consumes text / pattern.
  std::vector<i64> h((n + 1) * (m + 1), kInf);
  std::vector<i64> ins(h.size(), kInf);
  std::vector<i64> del(h.size(), kInf);
  for (usize i = 0; i <= n; ++i) {
    for (usize j = 0; j <= m; ++j) {
      i64 best = (i == 0 && j <= free) ? 0 : kInf;
      if (j > 0) {
        ins[at(i, j)] = std::min(h[at(i, j - 1)] + oe,
                                 ins[at(i, j - 1)] + pen.gap_extend);
        best = std::min(best, ins[at(i, j)]);
      }
      if (i > 0) {
        del[at(i, j)] = std::min(h[at(i - 1, j)] + oe,
                                 del[at(i - 1, j)] + pen.gap_extend);
        best = std::min(best, del[at(i, j)]);
      }
      if (i > 0 && j > 0) {
        best = std::min(best, h[at(i - 1, j - 1)] +
                                  (p[i - 1] == t[j - 1] ? 0 : pen.mismatch));
      }
      h[at(i, j)] = best;
    }
  }
  i64 best = kInf;
  for (usize j = m - std::min(free, m); j <= m; ++j) {
    best = std::min(best, h[at(n, j)]);
  }
  return best;
}

WfaAligner ends_free_aligner(const Penalties& penalties, usize free) {
  WfaAligner::Options options{penalties};
  options.text_ends_free = static_cast<u32>(free);
  return WfaAligner(options);
}

// A read-like pattern inside a text with random flanks; some pairs carry
// N and lowercase bytes, some patterns outgrow their text, some are empty.
seq::ReadPair ends_free_pair(Rng& rng, usize trial) {
  const usize length = trial % 9 == 0 ? 0 : 1 + rng.next_below(70);
  std::string pattern = seq::random_sequence(rng, length);
  std::string core = seq::mutate_sequence(rng, pattern, rng.next_below(6));
  if (trial % 7 == 3 && core.size() > 4) core.resize(core.size() / 2);
  std::string text = seq::random_sequence(rng, rng.next_below(12)) + core +
                     seq::random_sequence(rng, rng.next_below(12));
  if (trial % 5 == 1) {
    for (std::string* s : {&pattern, &text}) {
      for (char& c : *s) {
        if (rng.next_below(10) == 0) c = 'N';
        if (rng.next_below(10) == 0) c = static_cast<char>(c | 0x20);
      }
    }
  }
  return {pattern, text};
}

TEST(WfaEndsFree, MatchesBruteForceOracle) {
  Rng rng(0xE4D5);
  for (const Penalties& penalties :
       {Penalties::defaults(), Penalties{1, 0, 1}, Penalties{3, 4, 1}}) {
    for (usize trial = 0; trial < 120; ++trial) {
      const seq::ReadPair pair = ends_free_pair(rng, trial);
      const std::string_view p = pair.pattern;
      const std::string_view t = pair.text;
      const usize tl = t.size();
      for (const usize free :
           {usize{0}, usize{1}, usize{3}, tl, rng.next_below(tl + 1)}) {
        WfaAligner aligner = ends_free_aligner(penalties, free);
        const i64 want = ends_free_oracle(p, t, penalties, free);
        const auto full = aligner.align(p, t, AlignmentScope::kFull);
        const auto score_only = aligner.align(p, t, AlignmentScope::kScoreOnly);
        ASSERT_EQ(full.score, want)
            << "pattern=" << p << " text=" << t << " free=" << free;
        EXPECT_EQ(score_only.score, want);
        EXPECT_EQ(score_only.text_begin, 0u);
        // In bounds, consuming the whole pattern, at exactly its score.
        EXPECT_NO_THROW(align::verify_result(full, p, t, penalties, free));
      }
    }
  }
}

TEST(WfaEndsFree, ZeroBoundsAreTheGlobalAlignment) {
  Rng rng(0xE4D6);
  WfaAligner global(Penalties::defaults());
  WfaAligner zero = ends_free_aligner(Penalties::defaults(), 0);
  for (usize trial = 0; trial < 40; ++trial) {
    const seq::ReadPair pair = ends_free_pair(rng, trial);
    EXPECT_EQ(zero.align(pair.pattern, pair.text, AlignmentScope::kFull),
              global.align(pair.pattern, pair.text, AlignmentScope::kFull));
  }
}

TEST(WfaEndsFree, FindsAnEmbeddedRead) {
  const std::string text = "TTGACCAGTACGTACGGATCCATGCAAGT";
  const std::string pattern = text.substr(7, 15);
  WfaAligner aligner = ends_free_aligner(Penalties::defaults(), 10);
  const auto result = aligner.align(pattern, text, AlignmentScope::kFull);
  EXPECT_EQ(result.score, 0);
  EXPECT_EQ(result.text_begin, 7u);
  EXPECT_EQ(result.cigar.ops(), std::string(15, 'M'));
  EXPECT_NO_THROW(align::verify_result(result, pattern, text,
                                       Penalties::defaults(), 10));
  // One free base short at each end (7 bases lead and trail the read):
  // each end's extra base is a one-base insertion.
  WfaAligner tight = ends_free_aligner(Penalties::defaults(), 6);
  const auto gapped = tight.align(pattern, text, AlignmentScope::kFull);
  EXPECT_EQ(gapped.text_begin, 6u);
  EXPECT_EQ(gapped.score, 2 * (6 + 2));
  EXPECT_EQ(gapped.cigar.text_length(), 15u + 2);
  // verify_result holds the result to the free-end bound it is given.
  EXPECT_THROW(align::verify_result(result, pattern, text,
                                    Penalties::defaults(), 6),
               Error);
}

TEST(WfaEndsFree, AlignSpanRunsEndsFreeOnlyFromMToM) {
  Rng rng(0xE4D7);
  WfaAligner aligner = ends_free_aligner(Penalties::defaults(), 8);
  for (usize trial = 0; trial < 20; ++trial) {
    const seq::ReadPair pair = ends_free_pair(rng, trial);
    EXPECT_EQ(aligner.align_span(pair.pattern, pair.text,
                                 AlignmentScope::kFull, Component::kM,
                                 Component::kM),
              aligner.align(pair.pattern, pair.text, AlignmentScope::kFull));
  }
  for (const auto& [begin, end] :
       {std::pair{Component::kI, Component::kM},
        std::pair{Component::kM, Component::kD},
        std::pair{Component::kD, Component::kI}}) {
    EXPECT_THROW(aligner.align_span("ACGTAC", "ACGTAC",
                                    AlignmentScope::kFull, begin, end),
                 InvalidArgument);
  }
}

TEST(WfaEndsFree, NeedsRetainedExactMode) {
  WfaAligner::Options options;
  options.text_ends_free = 4;
  for (const auto mode :
       {WfaAligner::MemoryMode::kLow, WfaAligner::MemoryMode::kUltralow}) {
    options.memory_mode = mode;
    EXPECT_THROW(WfaAligner{options}, InvalidArgument);
  }
  options.memory_mode = WfaAligner::MemoryMode::kHigh;
  options.heuristic.enabled = true;
  EXPECT_THROW(WfaAligner{options}, InvalidArgument);
}

}  // namespace
}  // namespace pimwfa::wfa
