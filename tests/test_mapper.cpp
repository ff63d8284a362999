// Seed-and-verify read mapper (src/map/): seeding correctness on
// N-containing references, the Myers filter-threshold edges, and the
// bit-identity guarantee - filtered mapping returns the same best hit
// (score and CIGAR) as brute-force verification on every backend.
#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <string>
#include <vector>

#include "baselines/myers.hpp"
#include "common/rng.hpp"
#include "map/index.hpp"
#include "map/mapper.hpp"
#include "map/reference.hpp"
#include "seq/alphabet.hpp"
#include "seq/generator.hpp"
#include "test_util.hpp"

namespace pimwfa::map {
namespace {

// --- k-mer index / seeding correctness -----------------------------------

std::vector<u32> to_vector(std::span<const u32> hits) {
  return {hits.begin(), hits.end()};
}

TEST(KmerIndex, IndexesEveryValidWindow) {
  const std::string reference = "ACGTACGTACGT";
  KmerIndex index(reference, 4);
  EXPECT_EQ(index.k(), 4u);
  EXPECT_EQ(index.indexed_positions(), reference.size() - 4 + 1);
  EXPECT_EQ(index.skipped_positions(), 0u);
  // "ACGT" occurs at 0, 4, 8.
  EXPECT_EQ(to_vector(index.lookup("ACGT")), (std::vector<u32>{0, 4, 8}));
  EXPECT_EQ(to_vector(index.lookup("CGTA")), (std::vector<u32>{1, 5}));
  EXPECT_TRUE(index.lookup("AAAA").empty());
}

TEST(KmerIndex, KmerCodeRejectsInvalidBases) {
  KmerIndex index("ACGTACGTACGT", 4);
  u64 code = 0xDEAD;
  EXPECT_FALSE(index.kmer_code("ACGN", code));
  EXPECT_EQ(code, 0xDEADu);  // untouched on failure
  EXPECT_TRUE(index.kmer_code("ACGT", code));
  EXPECT_EQ(code, 0b00011011u);  // A=0 C=1 G=2 T=3
}

// Regression for the historical read_mapper hashing: OR-ing
// encode_base's 0xff sentinel into the rolling code collided every
// N-containing k-mer onto a garbage bucket, so windows overlapping an N
// run were both indexed *and* looked up as bogus positions. The index
// must skip them entirely on both sides.
TEST(KmerIndex, SkipsWindowsOverlappingInvalidBases) {
  //            0123456789012345
  const std::string reference = "ACGTACGNACGTACGT";
  KmerIndex index(reference, 4);
  // Windows starting at 4..7 overlap the N at position 7.
  EXPECT_EQ(index.skipped_positions(), 4u);
  EXPECT_EQ(index.indexed_positions(), reference.size() - 4 + 1 - 4);
  for (usize start = 4; start <= 7; ++start) {
    const auto hits = index.lookup(reference.substr(start, 4));
    EXPECT_TRUE(std::find(hits.begin(), hits.end(), static_cast<u32>(start)) ==
                hits.end())
        << "window at " << start << " overlaps the N and must not be indexed";
  }
  // Distinct N-containing k-mers must not collide onto a shared bucket.
  EXPECT_TRUE(index.lookup("ACGN").empty());
  EXPECT_TRUE(index.lookup("TCGN").empty());
  // The valid windows around the run are still found.
  EXPECT_EQ(to_vector(index.lookup("ACGT")), (std::vector<u32>{0, 8, 12}));
}

TEST(KmerIndex, RejectsOutOfRangeK) {
  EXPECT_THROW(KmerIndex("ACGT", 2), InvalidArgument);
  EXPECT_THROW(KmerIndex("ACGT", 32), InvalidArgument);
}

// --- reference synthesis / read simulation -------------------------------

TEST(Reference, SyntheticReferenceIsDeterministicAndSized) {
  ReferenceConfig config;
  config.length = 5000;
  const std::string a = synthetic_reference(config);
  const std::string b = synthetic_reference(config);
  EXPECT_EQ(a.size(), 5000u);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.find('N'), std::string::npos);
}

TEST(Reference, NIslandsAreImplanted) {
  ReferenceConfig config;
  config.length = 5000;
  config.n_islands = 3;
  config.n_island_length = 40;
  const std::string genome = synthetic_reference(config);
  const usize ns = static_cast<usize>(
      std::count(genome.begin(), genome.end(), 'N'));
  // Islands may overlap, so between one and three islands' worth of Ns.
  EXPECT_GE(ns, config.n_island_length);
  EXPECT_LE(ns, 3 * config.n_island_length);
}

TEST(Reference, RejectsBadConfigs) {
  ReferenceConfig config;
  config.length = 0;
  EXPECT_THROW(synthetic_reference(config), InvalidArgument);
  config.length = 100;
  config.repeat_fraction = 1.5;
  EXPECT_THROW(synthetic_reference(config), InvalidArgument);
  config.repeat_fraction = 0.5;
  config.n_islands = 1;
  config.n_island_length = 200;
  EXPECT_THROW(synthetic_reference(config), InvalidArgument);
}

// Regression for the historical toy: rng.next_below(genome_len - read_len)
// underflowed its unsigned argument when --read-length >= --genome and
// sampled garbage. The simulator must reject the configuration instead.
TEST(Reference, SimulateReadsRejectsReadsNotShorterThanReference) {
  ReferenceConfig ref_config;
  ref_config.length = 200;
  const std::string genome = synthetic_reference(ref_config);
  ReadSimConfig sim;
  sim.reads = 4;
  sim.read_length = 200;  // == reference length
  EXPECT_THROW(simulate_reads(genome, sim), InvalidArgument);
  sim.read_length = 500;  // > reference length
  EXPECT_THROW(simulate_reads(genome, sim), InvalidArgument);
  sim.read_length = 0;
  EXPECT_THROW(simulate_reads(genome, sim), InvalidArgument);
  sim.read_length = 199;  // largest valid
  EXPECT_EQ(simulate_reads(genome, sim).size(), 4u);
}

TEST(Reference, SimulatedReadsCarryTruth) {
  ReferenceConfig ref_config;
  ref_config.length = 2000;
  ref_config.repeat_fraction = 0;
  const std::string genome = synthetic_reference(ref_config);
  ReadSimConfig sim;
  sim.reads = 50;
  sim.read_length = 100;
  sim.error_rate = 0;
  const auto reads = simulate_reads(genome, sim);
  ASSERT_EQ(reads.size(), 50u);
  bool saw_reverse = false;
  for (const SimulatedRead& read : reads) {
    const std::string span = genome.substr(read.position, sim.read_length);
    if (read.reverse) {
      saw_reverse = true;
      EXPECT_EQ(read.bases, seq::reverse_complement(span));
    } else {
      EXPECT_EQ(read.bases, span);
    }
  }
  EXPECT_TRUE(saw_reverse);
}

// --- filter threshold edges ----------------------------------------------

// Builds a mapper over a random (repeat-free) genome with single-seed
// reads, plus a read from `position` carrying exactly `substitutions`
// isolated substitutions after a clean seed prefix.
struct EdgeFixture {
  std::string genome;
  MapperOptions options;

  EdgeFixture() {
    ReferenceConfig config;
    config.length = 2000;
    config.repeat_fraction = 0;
    genome = synthetic_reference(config);
    options.k = 11;
    options.seeds_per_read = 1;  // seed at offset 0 only
    options.both_strands = false;
    options.backend = "cpu";
  }

  std::string read_with_substitutions(usize position, usize length,
                                      usize substitutions) const {
    std::string read = genome.substr(position, length);
    // Isolated substitutions (spaced 2 apart) after the clean seed
    // prefix; each typically contributes 1 to the edit distance (a rare
    // flip can be absorbed by a shift, which is why callers search for
    // the count that lands exactly on their target distance).
    for (usize i = 0; i < substitutions; ++i) {
      const usize at = options.k + 1 + 2 * i;
      EXPECT_LT(at, read.size());
      read[at] = read[at] == 'A' ? 'C' : 'A';
    }
    return read;
  }

  // The Myers distance the filter computes for `read` against its padded
  // window: free leading and trailing window bases, as many as the
  // mapper's verification span allows.
  static i64 filter_distance(const ReadMapper& mapper,
                             const std::string& read,
                             std::string_view window) {
    const usize free = mapper.text_ends_free({read});
    return baselines::MyersMatcher(read).bounded_distance(
        window, static_cast<i64>(read.size() + window.size()), free);
  }

  // The read from `position` whose filter distance against its padded
  // window is exactly `target` (adding isolated substitutions raises the
  // distance by at most 1 per step, so the search cannot overshoot a
  // reachable target).
  std::string read_at_distance(const ReadMapper& mapper, usize position,
                               usize length, i64 target) const {
    const usize pad = mapper.pad_for(length);
    const std::string window =
        genome.substr(position - pad, length + 2 * pad);
    for (usize subs = 1; subs < length / 2; ++subs) {
      const std::string read =
          read_with_substitutions(position, length, subs);
      if (filter_distance(mapper, read, window) == target) return read;
    }
    ADD_FAILURE() << "no substitution count reaches distance " << target;
    return genome.substr(position, length);
  }
};

// A candidate whose Myers distance lands exactly on the threshold must
// survive the filter and reach the WFA stage (the filter rejects only
// strictly-above-threshold candidates: they provably cannot qualify).
TEST(FilterThreshold, CandidateExactlyAtCutoffSurvives) {
  EdgeFixture fixture;
  ReadMapper mapper(fixture.genome, fixture.options);
  const usize read_length = 100;
  const usize position = 500;
  const usize pad = mapper.pad_for(read_length);
  const usize window_length = read_length + 2 * pad;
  const i64 threshold = mapper.filter_threshold(read_length);
  // The free-end Myers distance vs the padded window skips the pads; land
  // exactly on the threshold.
  const std::string read =
      fixture.read_at_distance(mapper, position, read_length, threshold);
  ASSERT_EQ(EdgeFixture::filter_distance(
                mapper, read,
                fixture.genome.substr(position - pad, window_length)),
            threshold);

  auto result = mapper.map({read});
  EXPECT_EQ(result.stats.candidates, 1u);
  EXPECT_EQ(result.stats.filter_rejected, 0u);
  EXPECT_EQ(result.stats.verified, 1u);
  // At the cutoff the candidate reaches the WFA but cannot qualify: its
  // affine score exceeds the cap by construction.
  EXPECT_EQ(result.stats.qualified, 0u);
  EXPECT_FALSE(result.mappings[0].mapped);
}

// One edit past the cutoff flips the candidate to a filter rejection -
// same outcome (unmapped), one stage earlier.
TEST(FilterThreshold, CandidateJustPastCutoffIsRejected) {
  EdgeFixture fixture;
  ReadMapper mapper(fixture.genome, fixture.options);
  const usize read_length = 100;
  const i64 threshold = mapper.filter_threshold(read_length);
  const std::string read =
      fixture.read_at_distance(mapper, 500, read_length, threshold + 1);

  auto result = mapper.map({read});
  EXPECT_EQ(result.stats.candidates, 1u);
  EXPECT_EQ(result.stats.filter_rejected, 1u);
  EXPECT_EQ(result.stats.verified, 0u);
  EXPECT_FALSE(result.mappings[0].mapped);
}

TEST(FilterThreshold, BoundedMyersAgreesWithExactUpToThreshold) {
  Rng rng(0x7E57);
  for (usize trial = 0; trial < 50; ++trial) {
    const std::string pattern = seq::random_sequence(rng, 80);
    const std::string text =
        seq::mutate_sequence(rng, pattern, trial % 12);
    const i64 exact = baselines::myers_edit_distance(pattern, text);
    for (const i64 threshold : {i64{0}, i64{4}, i64{12}, exact, exact + 5}) {
      const i64 bounded =
          baselines::myers_bounded_edit_distance(pattern, text, threshold);
      if (exact <= threshold) {
        EXPECT_EQ(bounded, exact);
      } else {
        EXPECT_EQ(bounded, threshold + 1);
      }
    }
  }
}

// --- bit-identity: filtered == brute force on every backend --------------

void expect_identical(const MapResult& filtered, const MapResult& brute,
                      const std::string& label) {
  ASSERT_EQ(filtered.mappings.size(), brute.mappings.size()) << label;
  for (usize r = 0; r < filtered.mappings.size(); ++r) {
    const Mapping& f = filtered.mappings[r];
    const Mapping& b = brute.mappings[r];
    ASSERT_EQ(f.mapped, b.mapped) << label << " read " << r;
    if (!f.mapped) continue;
    EXPECT_EQ(f.position, b.position) << label << " read " << r;
    EXPECT_EQ(f.reverse, b.reverse) << label << " read " << r;
    EXPECT_EQ(f.score, b.score) << label << " read " << r;
    EXPECT_EQ(f.cigar.ops(), b.cigar.ops()) << label << " read " << r;
  }
}

struct Workload {
  std::string genome;
  std::vector<std::string> queries;
  std::vector<SimulatedRead> truth;

  explicit Workload(usize n_islands = 0) {
    ReferenceConfig ref_config;
    ref_config.length = 20'000;
    ref_config.seed = 0xB17;
    ref_config.n_islands = n_islands;
    ref_config.n_island_length = 60;
    genome = synthetic_reference(ref_config);
    ReadSimConfig sim;
    sim.reads = 80;
    sim.read_length = 100;
    sim.seed = 0x1D;
    truth = simulate_reads(genome, sim);
    for (const SimulatedRead& read : truth) queries.push_back(read.bases);
  }
};

// Mapper options for the backend_variants() entry named `variant`.
MapperOptions backend_options(const std::string& variant) {
  const pimwfa::testing::BackendVariant backend =
      pimwfa::testing::backend_variant(variant);
  MapperOptions options;
  options.backend = backend.key;
  options.batch.cpu_threads = 2;
  options.batch.pim_dpus = 2;
  options.batch = backend.applied_to(options.batch);
  return options;
}

class BitIdentity : public ::testing::TestWithParam<const char*> {};

TEST_P(BitIdentity, FilteredMatchesBruteForce) {
  const Workload workload;
  MapperOptions options = backend_options(GetParam());

  options.filter = true;
  const MapResult filtered =
      ReadMapper(workload.genome, options).map(workload.queries);
  options.filter = false;
  const MapResult brute =
      ReadMapper(workload.genome, options).map(workload.queries);

  // The guarantee is only interesting when the filter actually fired.
  EXPECT_GT(filtered.stats.filter_rejected, 0u);
  EXPECT_LT(filtered.stats.verified, brute.stats.verified);
  expect_identical(filtered, brute, GetParam());
}

INSTANTIATE_TEST_SUITE_P(Backends, BitIdentity,
                         ::testing::Values("cpu", "cpu_simd", "pim", "hybrid"),
                         [](const auto& info) {
                           return std::string(info.param);
                         });

// All backends must agree with each other, not just with their own
// brute-force run.
TEST(BitIdentityAcrossBackends, AllBackendsAgree) {
  const Workload workload;
  const MapResult reference =
      ReadMapper(workload.genome, backend_options("cpu"))
          .map(workload.queries);
  for (const char* backend : {"cpu_simd", "pim", "hybrid"}) {
    const MapResult other =
        ReadMapper(workload.genome, backend_options(backend))
            .map(workload.queries);
    expect_identical(reference, other, backend);
  }
}

// Verification through the async engine (sharded zero-copy submission)
// must not change a single result either.
TEST(BitIdentityAcrossBackends, EngineShardsMatchDirectRun) {
  const Workload workload;
  const MapResult direct = ReadMapper(workload.genome, backend_options("cpu"))
                               .map(workload.queries);
  MapperOptions sharded = backend_options("cpu");
  sharded.engine_shards = 3;
  const MapResult engine =
      ReadMapper(workload.genome, sharded).map(workload.queries);
  expect_identical(direct, engine, "engine-sharded");
}

// --- thread-count invariance ----------------------------------------------
// Seeding, filtering and verification all run on the mapper's pool of
// batch.cpu_threads workers; the worker count must never change a
// mapping or a count.

void expect_same_counts(const MapperStats& a, const MapperStats& b,
                        const std::string& label) {
  EXPECT_EQ(a.reads, b.reads) << label;
  EXPECT_EQ(a.candidates, b.candidates) << label;
  EXPECT_EQ(a.filter_rejected, b.filter_rejected) << label;
  EXPECT_EQ(a.verified, b.verified) << label;
  EXPECT_EQ(a.qualified, b.qualified) << label;
}

class ThreadCountInvariance : public ::testing::TestWithParam<const char*> {};

TEST_P(ThreadCountInvariance, MappingsAndCountsMatchOneThread) {
  const Workload workload;
  for (const bool filter : {true, false}) {
    MapperOptions options = backend_options(GetParam());
    options.filter = filter;
    options.batch.cpu_threads = 1;
    const MapResult serial =
        ReadMapper(workload.genome, options).map(workload.queries);
    EXPECT_GT(serial.stats.qualified, 0u);
    for (const usize threads : {2u, 3u}) {
      options.batch.cpu_threads = threads;
      const MapResult pooled =
          ReadMapper(workload.genome, options).map(workload.queries);
      const std::string label = std::string(GetParam()) + " filter=" +
                                (filter ? "on" : "off") +
                                " threads=" + std::to_string(threads);
      expect_identical(serial, pooled, label);
      expect_same_counts(serial.stats, pooled.stats, label);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Backends, ThreadCountInvariance,
                         ::testing::Values("cpu", "pim"),
                         [](const auto& info) {
                           return std::string(info.param);
                         });

TEST(ThreadCountInvarianceEdges, MoreThreadsThanReads) {
  const Workload workload;
  const std::vector<std::string> reads(workload.queries.begin(),
                                       workload.queries.begin() + 3);
  MapperOptions options = backend_options("cpu");
  options.batch.cpu_threads = 1;
  const MapResult serial = ReadMapper(workload.genome, options).map(reads);
  options.batch.cpu_threads = 4;
  const MapResult pooled = ReadMapper(workload.genome, options).map(reads);
  ASSERT_EQ(pooled.mappings.size(), 3u);
  EXPECT_GT(serial.stats.candidates, 0u);
  expect_identical(serial, pooled, "3 reads, 4 threads");
  expect_same_counts(serial.stats, pooled.stats, "3 reads, 4 threads");
}

TEST(ThreadCountInvarianceEdges, EmptyReadList) {
  const Workload workload;
  MapperOptions options = backend_options("cpu");
  options.batch.cpu_threads = 3;
  const MapResult result = ReadMapper(workload.genome, options).map({});
  EXPECT_TRUE(result.mappings.empty());
  expect_same_counts(result.stats, MapperStats{}, "empty read list");
}

// --- golden filter decisions ---------------------------------------------
// "Filtered == brute force" only catches a filter that wrongly rejects;
// one that wrongly accepts junk windows still maps identically. Exact
// counts on a fixed repeat-rich workload pin every filter decision, for
// a 2% budget, whose free-end band f + 2t + 2 is 30 at L = 100 and fits
// a machine word, and a 6% one, whose band (78) does not. Reads are
// drawn at 4%, so many windows land near either threshold.
TEST(MapperGoldenCounts, FilterDecisionsArePinned) {
  ReferenceConfig ref_config;
  ref_config.length = 200'000;
  ref_config.seed = 0x60D;
  const std::string genome = synthetic_reference(ref_config);
  ReadSimConfig sim;
  sim.reads = 500;
  sim.error_rate = 0.04;
  sim.seed = 0x6E7;
  std::vector<std::string> reads;
  for (const SimulatedRead& read : simulate_reads(genome, sim)) {
    reads.push_back(read.bases);
  }

  struct Golden {
    double error_rate;
    usize band_width;  // f + 2t + 2 at L = 100
    usize candidates, filter_rejected, verified, qualified;
  };
  for (const Golden& golden : {Golden{0.02, 30, 2926, 2051, 875, 190},
                               Golden{0.06, 78, 2926, 1485, 1441, 875}}) {
    MapperOptions options = backend_options("cpu");
    options.error_rate = golden.error_rate;
    ReadMapper mapper(genome, options);
    const std::string label =
        "error_rate " + std::to_string(golden.error_rate);
    EXPECT_EQ(mapper.text_ends_free(reads) +
                  2 * static_cast<usize>(mapper.filter_threshold(100)) + 2,
              golden.band_width)
        << label;
    const MapperStats stats = mapper.map(reads).stats;
    EXPECT_EQ(stats.reads, reads.size()) << label;
    EXPECT_EQ(stats.candidates, golden.candidates) << label;
    EXPECT_EQ(stats.filter_rejected, golden.filter_rejected) << label;
    EXPECT_EQ(stats.verified, golden.verified) << label;
    EXPECT_EQ(stats.qualified, golden.qualified) << label;
  }
}

// --- end-to-end mapping quality ------------------------------------------

TEST(ReadMapper, MapsBothStrandsToTheTrueLocus) {
  const Workload workload;
  const MapResult result = ReadMapper(workload.genome, backend_options("cpu"))
                               .map(workload.queries);
  usize correct = 0;
  usize reverse_correct = 0;
  usize reverse_reads = 0;
  for (usize r = 0; r < workload.truth.size(); ++r) {
    const SimulatedRead& truth = workload.truth[r];
    if (truth.reverse) ++reverse_reads;
    const Mapping& mapping = result.mappings[r];
    if (!mapping.mapped || mapping.reverse != truth.reverse) continue;
    const i64 delta = static_cast<i64>(mapping.position) -
                      static_cast<i64>(truth.position);
    const i64 pad = static_cast<i64>(
        ReadMapper(workload.genome, backend_options("cpu"))
            .pad_for(workload.queries[r].size()));
    if (delta >= -pad && delta <= pad) {
      ++correct;
      if (truth.reverse) ++reverse_correct;
    }
  }
  // >= 90% of reads at the true locus, including the reverse strand.
  EXPECT_GE(correct * 10, workload.truth.size() * 9);
  EXPECT_GT(reverse_reads, 0u);
  EXPECT_GE(reverse_correct * 10, reverse_reads * 9);
}

// Verification is ends-free: a mapping's position is where its alignment
// starts in the reference, and its CIGAR aligns the oriented read against
// the reference from there, at exactly its score and within the cap.
TEST(ReadMapper, PositionIsTheAlignmentStart) {
  const Workload workload;
  const MapperOptions options = backend_options("cpu");
  ReadMapper mapper(workload.genome, options);
  const MapResult result = mapper.map(workload.queries);
  const auto& pen = options.batch.penalties;
  usize exact = 0;
  usize mapped = 0;
  for (usize r = 0; r < workload.queries.size(); ++r) {
    const Mapping& m = result.mappings[r];
    if (!m.mapped) continue;
    ++mapped;
    const std::string read = m.reverse
                                 ? seq::reverse_complement(workload.queries[r])
                                 : workload.queries[r];
    ASSERT_LE(m.position + m.cigar.text_length(), workload.genome.size());
    EXPECT_NO_THROW(m.cigar.validate(
        read, std::string_view(workload.genome)
                  .substr(m.position, m.cigar.text_length())))
        << "read " << r;
    EXPECT_EQ(m.cigar.affine_score(pen.mismatch, pen.gap_open,
                                   pen.gap_extend),
              m.score);
    EXPECT_LE(m.score, mapper.score_cap(read.size()));
    exact += m.position == workload.truth[r].position &&
             m.reverse == workload.truth[r].reverse;
  }
  // Simulated edits rarely move the alignment start, so nearly every
  // read lands on its true start exactly.
  EXPECT_GE(exact * 10, mapped * 9);
}

TEST(ReadMapper, NContainingReferenceAndReadsMapCleanly) {
  const Workload workload(/*n_islands=*/5);
  ASSERT_NE(workload.genome.find('N'), std::string::npos);
  bool reads_with_n = false;
  for (const std::string& query : workload.queries) {
    if (query.find('N') != std::string::npos) reads_with_n = true;
  }
  ASSERT_TRUE(reads_with_n) << "workload must cover N-containing reads";

  MapperOptions options = backend_options("cpu");
  const MapResult filtered =
      ReadMapper(workload.genome, options).map(workload.queries);
  options.filter = false;
  const MapResult brute =
      ReadMapper(workload.genome, options).map(workload.queries);
  expect_identical(filtered, brute, "n-islands");

  // Most reads avoid the islands and must still map to the true locus.
  usize correct = 0;
  for (usize r = 0; r < workload.truth.size(); ++r) {
    const Mapping& mapping = filtered.mappings[r];
    if (!mapping.mapped || mapping.reverse != workload.truth[r].reverse)
      continue;
    const i64 delta = static_cast<i64>(mapping.position) -
                      static_cast<i64>(workload.truth[r].position);
    if (delta >= -8 && delta <= 8) ++correct;
  }
  EXPECT_GE(correct * 10, workload.truth.size() * 8);
}

// --- options validation ---------------------------------------------------

TEST(MapperOptions, Validation) {
  const std::string genome(500, 'A');
  MapperOptions options;
  options.k = 2;
  EXPECT_THROW(ReadMapper(genome, options), InvalidArgument);
  options = {};
  options.seeds_per_read = 0;
  EXPECT_THROW(ReadMapper(genome, options), InvalidArgument);
  options = {};
  options.error_rate = 1.5;
  EXPECT_THROW(ReadMapper(genome, options), InvalidArgument);
  options = {};
  options.batch.virtual_pairs = 100;
  EXPECT_THROW(ReadMapper(genome, options), InvalidArgument);
  options = {};
  options.batch.pim_simulate_dpus = 1;
  EXPECT_THROW(ReadMapper(genome, options), InvalidArgument);
  options = {};
  EXPECT_THROW(ReadMapper("", options), InvalidArgument);
}

TEST(MapperOptions, ThresholdsFollowTheFormulas) {
  ReferenceConfig config;
  config.length = 1000;
  ReadMapper mapper(synthetic_reference(config), MapperOptions{});
  // Defaults: x=4, o=6, e=2, error_rate 0.02 -> e_max = 2 at L = 100.
  EXPECT_EQ(mapper.pad_for(100), 4u);
  // cap = e_max * max(x, o+e) = 2 * 8: the window overhangs are free.
  EXPECT_EQ(mapper.score_cap(100), 16);
  // t = cap / min(x, e) = 16 / 2.
  EXPECT_EQ(mapper.filter_threshold(100), 8);
  // The verification span frees 2 * pad_for bases at each window end.
  EXPECT_EQ(mapper.text_ends_free({std::string(100, 'A')}), 8u);
}

}  // namespace
}  // namespace pimwfa::map
