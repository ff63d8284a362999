#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <string_view>
#include <vector>

#include "align/verify.hpp"
#include "baselines/gotoh.hpp"
#include "baselines/myers.hpp"
#include "baselines/nw.hpp"
#include "baselines/sw.hpp"
#include "test_util.hpp"

namespace pimwfa::baselines {
namespace {

using align::AlignmentScope;
using align::Penalties;

TEST(Gotoh, IdenticalSequencesScoreZero) {
  GotohAligner aligner(Penalties::defaults());
  const auto result = aligner.align("ACGTACGT", "ACGTACGT", AlignmentScope::kFull);
  EXPECT_EQ(result.score, 0);
  EXPECT_EQ(result.cigar.ops(), "MMMMMMMM");
}

TEST(Gotoh, SingleMismatch) {
  GotohAligner aligner(Penalties::defaults());
  const auto result = aligner.align("ACGT", "AGGT", AlignmentScope::kFull);
  EXPECT_EQ(result.score, 4);
  EXPECT_EQ(result.cigar.ops(), "MXMM");
}

TEST(Gotoh, SingleInsertion) {
  GotohAligner aligner(Penalties::defaults());
  // text has one extra base: gap open 6 + extend 2 = 8.
  const auto result = aligner.align("ACGT", "ACGGT", AlignmentScope::kFull);
  EXPECT_EQ(result.score, 8);
  EXPECT_EQ(result.cigar.insertions(), 1u);
}

TEST(Gotoh, AffinePrefersOneLongGapOverTwoShort) {
  // Pattern vs text with 2 extra bases: one gap of 2 costs o+2e=10,
  // two gaps of 1 would cost 2(o+e)=16.
  GotohAligner aligner(Penalties::defaults());
  const auto result = aligner.align("AAAA", "AAGGAA", AlignmentScope::kFull);
  EXPECT_EQ(result.score, 6 + 2 * 2);
  EXPECT_EQ(result.cigar.insertions(), 2u);
  // The two insertions must be contiguous (one gap).
  const std::string& ops = result.cigar.ops();
  const usize first = ops.find('I');
  ASSERT_NE(first, std::string::npos);
  EXPECT_EQ(ops[first + 1], 'I');
}

TEST(Gotoh, EmptyInputs) {
  GotohAligner aligner(Penalties::defaults());
  EXPECT_EQ(aligner.align("", "", AlignmentScope::kFull).score, 0);
  EXPECT_EQ(aligner.align("", "ACG", AlignmentScope::kFull).score, 6 + 3 * 2);
  EXPECT_EQ(aligner.align("ACG", "", AlignmentScope::kFull).score, 6 + 3 * 2);
}

TEST(Gotoh, CigarConsistentOnRandomPairs) {
  GotohAligner aligner(Penalties::defaults());
  Rng rng(11);
  for (int trial = 0; trial < 30; ++trial) {
    const auto pair = pimwfa::testing::random_pair(rng, 80, 6);
    const auto result = aligner.align(pair.pattern, pair.text,
                                      AlignmentScope::kFull);
    EXPECT_NO_THROW(align::verify_result(result, pair.pattern, pair.text,
                                         aligner.penalties()));
  }
}

TEST(Gotoh, ScoreOnlyMatchesFull) {
  GotohAligner aligner(Penalties{3, 5, 1});
  Rng rng(12);
  for (int trial = 0; trial < 30; ++trial) {
    const auto pair = pimwfa::testing::random_pair(rng, 60, 5);
    const auto full = aligner.align(pair.pattern, pair.text, AlignmentScope::kFull);
    const auto fast =
        aligner.align(pair.pattern, pair.text, AlignmentScope::kScoreOnly);
    EXPECT_EQ(full.score, fast.score);
    EXPECT_FALSE(fast.has_cigar);
  }
}

TEST(Gotoh, WorstCaseScoreIsUpperBound) {
  GotohAligner aligner(Penalties::defaults());
  Rng rng(13);
  for (int trial = 0; trial < 20; ++trial) {
    const auto pair = pimwfa::testing::unrelated_pair(rng, 40, 55);
    const auto result =
        aligner.align(pair.pattern, pair.text, AlignmentScope::kScoreOnly);
    EXPECT_LE(result.score, align::worst_case_score(aligner.penalties(), 40, 55));
  }
}

TEST(GotohBanded, MatchesFullWhenBandSufficient) {
  const Penalties penalties = Penalties::defaults();
  GotohAligner full(penalties);
  Rng rng(14);
  for (int trial = 0; trial < 25; ++trial) {
    const auto pair = pimwfa::testing::random_pair(rng, 70, 4);
    const auto exact =
        full.align(pair.pattern, pair.text, AlignmentScope::kScoreOnly);
    const auto banded =
        gotoh_banded_score(pair.pattern, pair.text, penalties, 16);
    EXPECT_EQ(banded.score, exact.score);
  }
}

TEST(GotohBanded, FlagsTinyBandOnDivergentPairs) {
  const Penalties penalties = Penalties::defaults();
  Rng rng(15);
  const auto pair = pimwfa::testing::unrelated_pair(rng, 100, 100);
  const auto banded = gotoh_banded_score(pair.pattern, pair.text, penalties, 1);
  EXPECT_TRUE(banded.band_exceeded);
}

TEST(GotohBanded, BandedScoreNeverBelowExact) {
  const Penalties penalties = Penalties::defaults();
  GotohAligner full(penalties);
  Rng rng(16);
  for (int trial = 0; trial < 20; ++trial) {
    const auto pair = pimwfa::testing::random_pair(rng, 50, 8);
    const auto exact =
        full.align(pair.pattern, pair.text, AlignmentScope::kScoreOnly);
    for (usize band : {2u, 4u, 8u}) {
      const auto banded =
          gotoh_banded_score(pair.pattern, pair.text, penalties, band);
      EXPECT_GE(banded.score, exact.score);
    }
  }
}

TEST(Nw, LinearGapScores) {
  EXPECT_EQ(nw_align("ACGT", "ACGT").score, 0);
  EXPECT_EQ(nw_align("ACGT", "AGGT").score, 1);
  EXPECT_EQ(nw_align("ACGT", "ACGGT").score, 1);
}

TEST(Nw, CigarConsistent) {
  Rng rng(17);
  for (int trial = 0; trial < 20; ++trial) {
    const auto pair = pimwfa::testing::random_pair(rng, 40, 5);
    const auto result = nw_align(pair.pattern, pair.text);
    EXPECT_NO_THROW(result.cigar.validate(pair.pattern, pair.text));
    EXPECT_EQ(static_cast<i64>(result.cigar.edit_distance()), result.score);
  }
}

TEST(Nw, ScoreOnlyMatchesFull) {
  Rng rng(18);
  for (int trial = 0; trial < 20; ++trial) {
    const auto pair = pimwfa::testing::random_pair(rng, 45, 6);
    EXPECT_EQ(nw_score(pair.pattern, pair.text),
              nw_align(pair.pattern, pair.text).score);
  }
}

TEST(Levenshtein, KnownValues) {
  EXPECT_EQ(levenshtein("", ""), 0);
  EXPECT_EQ(levenshtein("abc", ""), 3);
  EXPECT_EQ(levenshtein("", "abc"), 3);
  EXPECT_EQ(levenshtein("kitten", "sitting"), 3);
  EXPECT_EQ(levenshtein("flaw", "lawn"), 2);
}

TEST(Myers, MatchesLevenshteinShortPatterns) {
  Rng rng(19);
  for (int trial = 0; trial < 40; ++trial) {
    const usize len = 1 + rng.next_below(60);
    const auto pair =
        pimwfa::testing::random_pair(rng, len, rng.next_below(6));
    EXPECT_EQ(myers_edit_distance(pair.pattern, pair.text),
              levenshtein(pair.pattern, pair.text));
  }
}

TEST(Myers, MatchesLevenshteinLongPatterns) {
  Rng rng(20);
  for (int trial = 0; trial < 15; ++trial) {
    const usize len = 65 + rng.next_below(300);  // force multi-block path
    const auto pair =
        pimwfa::testing::random_pair(rng, len, rng.next_below(12));
    EXPECT_EQ(myers_edit_distance(pair.pattern, pair.text),
              levenshtein(pair.pattern, pair.text));
  }
}

TEST(Myers, ExactWordBoundary) {
  Rng rng(21);
  for (usize len : {63u, 64u, 65u, 128u, 129u}) {
    const auto pair = pimwfa::testing::random_pair(rng, len, 3);
    EXPECT_EQ(myers_edit_distance(pair.pattern, pair.text),
              levenshtein(pair.pattern, pair.text));
  }
}

TEST(Myers, EmptyInputs) {
  EXPECT_EQ(myers_edit_distance("", "ACG"), 3);
  EXPECT_EQ(myers_edit_distance("ACG", ""), 3);
  EXPECT_EQ(myers_edit_distance("", ""), 0);
}

// One matcher reused across patterns of shrinking length - three, two,
// one block, then empty - so a Peq row or block state left over from a
// longer pattern would surface as a wrong distance. Bytes outside ACGT
// (N, lowercase, 0xFF) appear in both pattern and text.
TEST(MyersMatcher, ReuseAcrossShrinkingPatternsMatchesLevenshtein) {
  Rng rng(27);
  const std::string alphabet = std::string("ACGTNacgt") + '\xFF';
  auto random_byte = [&] { return alphabet[rng.next_below(alphabet.size())]; };
  auto random_bytes = [&](usize n) {
    std::string bytes(n, 'A');
    for (char& c : bytes) c = random_byte();
    return bytes;
  };
  // `edits` random substitutions, insertions and deletions.
  auto mutate = [&](std::string bytes, usize edits) {
    for (usize e = 0; e < edits; ++e) {
      const usize at = rng.next_below(bytes.size() + 1);
      const u64 kind = bytes.empty() || at == bytes.size()
                           ? 1
                           : rng.next_below(3);
      if (kind == 0) {
        bytes[at] = random_byte();
      } else if (kind == 1) {
        bytes.insert(bytes.begin() + static_cast<std::ptrdiff_t>(at),
                     random_byte());
      } else {
        bytes.erase(at, 1);
      }
    }
    return bytes;
  };

  MyersMatcher matcher;
  for (const usize length : {129u, 100u, 65u, 64u, 1u, 0u}) {
    const std::string pattern = random_bytes(length);
    matcher.set_pattern(pattern);
    for (int trial = 0; trial < 12; ++trial) {
      // Near texts (a few edits) and unrelated ones of nearby length.
      const std::string text =
          trial % 2 == 0
              ? mutate(pattern, rng.next_below(6))
              : random_bytes(length + rng.next_below(9));
      const i64 d = levenshtein(pattern, text);
      EXPECT_EQ(matcher.distance(text), d) << length << " " << trial;
      for (i64 t = 0; t <= d + 2; ++t) {
        EXPECT_EQ(matcher.bounded_distance(text, t), std::min(d, t + 1))
            << length << " " << trial << " t=" << t;
      }
    }
  }
}

// Edit distance between `pattern` and text[b, e), minimized over
// b <= free and e >= |text| - free (plain O(nm) DP).
i64 free_end_edit_distance(std::string_view pattern, std::string_view text,
                           usize free) {
  const usize m = text.size();
  std::vector<i64> row(m + 1);
  for (usize j = 0; j <= m; ++j) {
    row[j] = static_cast<i64>(j > free ? j - free : 0);
  }
  for (usize i = 1; i <= pattern.size(); ++i) {
    i64 diagonal = row[0];
    row[0] = static_cast<i64>(i);
    for (usize j = 1; j <= m; ++j) {
      const i64 up = row[j];
      row[j] = std::min({up + 1, row[j - 1] + 1,
                         diagonal + (pattern[i - 1] == text[j - 1] ? 0 : 1)});
      diagonal = up;
    }
  }
  return *std::min_element(row.begin() + static_cast<std::ptrdiff_t>(
                                             m - std::min(free, m)),
                           row.end());
}

// Checks the matcher (set to `pattern`) against the DP oracle at every
// threshold 0..max(d, t_max) + 2.
void expect_search_form(MyersMatcher& matcher, const std::string& pattern,
                        const std::string& text, usize free, i64 t_max,
                        const std::string& label) {
  const i64 d = free_end_edit_distance(pattern, text, free);
  for (i64 t = 0; t <= std::max(d, t_max) + 2; ++t) {
    EXPECT_EQ(matcher.bounded_distance(text, t, free), std::min(d, t + 1))
        << label << " free " << free << " t=" << t;
  }
}

// The search form: free leading and trailing text, from the global case
// (bound 0) through bounded ends to the semi-global distance (a bound of
// the text length or more), against a DP oracle at every threshold
// 0..d+2. One matcher serves every pattern, so state left over from a
// longer pattern or another bound would surface as a wrong distance.
// Bounds and thresholds with f + 2t + 2 <= 64 take the one-word band,
// the rest the blocked recurrence; the cases below cover both sides of
// that line.
TEST(MyersMatcher, SearchFormMatchesFreeEndDp) {
  Rng rng(0x5E4C);
  MyersMatcher matcher;
  for (const usize length : {150u, 70u, 64u, 30u, 1u, 0u}) {
    const std::string pattern = seq::random_sequence(rng, length);
    matcher.set_pattern(pattern);
    for (int trial = 0; trial < 10; ++trial) {
      std::string text =
          trial % 3 == 2
              ? seq::random_sequence(rng, length / 2 + rng.next_below(20))
              : seq::random_sequence(rng, rng.next_below(15)) +
                    seq::mutate_sequence(rng, pattern, rng.next_below(5)) +
                    seq::random_sequence(rng, rng.next_below(15));
      if (trial == 4) text[text.size() / 2] = 'N';
      const usize tl = text.size();
      for (const usize free : {usize{0}, usize{1}, usize{4}, tl, tl + 9,
                               rng.next_below(tl + 1)}) {
        expect_search_form(matcher, pattern, text, free, 0,
                           "length " + std::to_string(length) + " trial " +
                               std::to_string(trial));
      }
    }
  }

  // Mapper-shaped: a 100-base read against its window padded by 4 bases
  // per side, with free ends of 8, the read carrying 0-3 edits or drawn
  // from a 20%-diverged copy (the repeat siblings the filter rejects).
  for (int trial = 0; trial < 40; ++trial) {
    const std::string window = seq::random_sequence(rng, 108);
    const usize edits = trial % 5 == 4 ? 20 : static_cast<usize>(trial % 4);
    const std::string read =
        seq::mutate_sequence(rng, window.substr(4, 100), edits);
    matcher.set_pattern(read);
    expect_search_form(matcher, read, window, 8, 0,
                       "mapper-shaped edits " + std::to_string(edits));
  }

  // Band widths f + 2t + 2 of 63, 64 and 65, for patterns of 30, 100 and
  // 150 bases and for the global bounded form (f = 0, t = 31 or 32).
  for (const usize length : {30u, 100u, 150u}) {
    const std::string pattern = seq::random_sequence(rng, length);
    matcher.set_pattern(pattern);
    for (const usize edits : {usize{2}, length / 5, length / 3}) {
      const std::string text = seq::random_sequence(rng, 10) +
                               seq::mutate_sequence(rng, pattern, edits) +
                               seq::random_sequence(rng, 10);
      const std::string label = "length " + std::to_string(length) +
                                " edits " + std::to_string(edits);
      for (const usize free : {0u, 1u, 20u, 21u, 61u, 62u, 63u}) {
        // The threshold at which this bound's band reaches width 64.
        const i64 t_edge = free <= 62 ? static_cast<i64>((62 - free) / 2) : 0;
        expect_search_form(matcher, pattern, text, free, t_edge + 1, label);
      }
    }
  }
}

TEST(BandedEdit, WithinThresholdIsExact) {
  Rng rng(22);
  for (int trial = 0; trial < 25; ++trial) {
    const auto pair = pimwfa::testing::random_pair(rng, 90, 4);
    const i64 exact = levenshtein(pair.pattern, pair.text);
    EXPECT_EQ(banded_edit_distance(pair.pattern, pair.text, 8), exact);
  }
}

TEST(BandedEdit, OverThresholdSaturates) {
  Rng rng(23);
  const auto pair = pimwfa::testing::unrelated_pair(rng, 100, 100);
  const i64 exact = levenshtein(pair.pattern, pair.text);
  ASSERT_GT(exact, 5);
  EXPECT_EQ(banded_edit_distance(pair.pattern, pair.text, 5), 6);
}

TEST(Ukkonen, MatchesLevenshtein) {
  Rng rng(24);
  for (int trial = 0; trial < 25; ++trial) {
    const auto pair =
        pimwfa::testing::random_pair(rng, 70, rng.next_below(15));
    EXPECT_EQ(ukkonen_edit_distance(pair.pattern, pair.text),
              levenshtein(pair.pattern, pair.text));
  }
}

TEST(Ukkonen, DivergentPairs) {
  Rng rng(25);
  const auto pair = pimwfa::testing::unrelated_pair(rng, 64, 80);
  EXPECT_EQ(ukkonen_edit_distance(pair.pattern, pair.text),
            levenshtein(pair.pattern, pair.text));
}

TEST(Sw, FindsEmbeddedMatch) {
  // Perfect 8bp match embedded in noise.
  const std::string pattern = "ACGTACGT";
  const std::string text = "TTTTTACGTACGTGGGG";
  const auto result = sw_align(pattern, text);
  EXPECT_EQ(result.score, 8 * 2);
  EXPECT_EQ(result.pattern_begin, 0u);
  EXPECT_EQ(result.pattern_end, 8u);
  EXPECT_EQ(result.text_begin, 5u);
  EXPECT_EQ(result.text_end, 13u);
  EXPECT_EQ(result.cigar.ops(), "MMMMMMMM");
}

TEST(Sw, EmptyWhenNoPositiveScore) {
  const auto result = sw_align("AAAA", "TTTT");
  EXPECT_EQ(result.score, 0);
  EXPECT_TRUE(result.cigar.empty());
}

TEST(Sw, LocalCigarValidOnRegion) {
  Rng rng(26);
  for (int trial = 0; trial < 15; ++trial) {
    const auto pair = pimwfa::testing::random_pair(rng, 60, 3);
    const auto result = sw_align(pair.pattern, pair.text);
    if (result.score == 0) continue;
    const std::string_view pat_region(
        pair.pattern.data() + result.pattern_begin,
        result.pattern_end - result.pattern_begin);
    const std::string_view text_region(pair.text.data() + result.text_begin,
                                       result.text_end - result.text_begin);
    EXPECT_NO_THROW(result.cigar.validate(pat_region, text_region));
  }
}

}  // namespace
}  // namespace pimwfa::baselines
