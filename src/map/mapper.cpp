#include "map/mapper.hpp"

#include <algorithm>
#include <iterator>
#include <memory>
#include <string_view>

#include "align/batch_engine.hpp"
#include "align/registry.hpp"
#include "baselines/myers.hpp"
#include "common/check.hpp"
#include "cpu/cpu_batch.hpp"
#include "seq/alphabet.hpp"
#include "seq/generator.hpp"

namespace pimwfa::map {
namespace {

// Runs the constructor-time argument checks before the member index is
// built (initializer lists cannot interleave statements).
const std::string& checked_reference(const std::string& reference,
                                     const MapperOptions& options) {
  options.validate();
  PIMWFA_ARG_CHECK(!reference.empty(), "reference is empty");
  return reference;
}

}  // namespace

void MapperOptions::validate() const {
  PIMWFA_ARG_CHECK(k >= KmerIndex::kMinK && k <= KmerIndex::kMaxK,
                   "seed length k=" << k << " outside [" << KmerIndex::kMinK
                                    << ", " << KmerIndex::kMaxK << "]");
  PIMWFA_ARG_CHECK(seeds_per_read >= 1, "seeds_per_read must be >= 1");
  PIMWFA_ARG_CHECK(error_rate >= 0.0 && error_rate <= 1.0,
                   "error rate " << error_rate << " outside [0,1]");
  batch.validate();
  PIMWFA_ARG_CHECK(batch.memory_mode == align::MemoryMode::kHigh,
                   "ends-free verification needs memory mode high");
  // Every survivor needs a materialized result to pick the best hit
  // from; modes that model pairs without aligning them cannot back a
  // mapper.
  PIMWFA_ARG_CHECK(batch.virtual_pairs == 0,
                   "virtual batches cannot back a read mapper");
  PIMWFA_ARG_CHECK(batch.pim_simulate_dpus == 0,
                   "partially simulated PIM batches cannot back a read mapper");
  if (engine_shards > 0) {
    PIMWFA_ARG_CHECK(engine_in_flight >= 1,
                     "engine_in_flight must be >= 1 when sharding");
  }
}

ReadMapper::ReadMapper(std::string reference, MapperOptions options)
    : reference_(std::move(reference)),
      options_(std::move(options)),
      index_(checked_reference(reference_, options_), options_.k),
      pool_(std::make_unique<ThreadPool>(
          cpu::CpuBatchOptions::from(options_.batch).threads)) {}

usize ReadMapper::pad_for(usize read_length) const {
  // Budget edits can shift the read's far end by e_max in either
  // direction, and the voted start itself is off by up to e_max when the
  // seed sits downstream of an indel - twice the budget covers both.
  return 2 * seq::errors_for(read_length, options_.error_rate);
}

i64 ReadMapper::score_cap(usize read_length) const {
  const auto& p = options_.batch.penalties;
  const i64 e_max =
      static_cast<i64>(seq::errors_for(read_length, options_.error_rate));
  // Worst cost of a true placement: e_max budget edits, each at most a
  // mismatch or a one-base gap. The window overhangs are free text.
  return e_max * std::max<i64>(p.mismatch, p.gap_open + p.gap_extend);
}

i64 ReadMapper::filter_threshold(usize read_length) const {
  const auto& p = options_.batch.penalties;
  // Any alignment with edit distance d costs at least d * min(x, e), so
  // d > cap / min(x, e) implies the affine score exceeds the cap: the
  // filter only ever discards candidates brute force would not qualify.
  const i64 cheapest_edit = std::min<i64>(p.mismatch, p.gap_extend);
  return score_cap(read_length) / cheapest_edit;
}

u32 ReadMapper::text_ends_free(const std::vector<std::string>& reads) const {
  usize bound = 0;
  for (const std::string& read : reads) {
    bound = std::max(bound, 2 * pad_for(read.size()));
  }
  return static_cast<u32>(bound);
}

void ReadMapper::seed_and_filter(const std::vector<std::string>& reads,
                                 usize first, usize last, u32 ends_free,
                                 RangeSurvivors& out) const {
  const std::string_view genome{reference_};
  const usize glen = genome.size();
  const usize k = options_.k;
  const usize strands = options_.both_strands ? 2 : 1;
  std::vector<usize> seed_starts;
  std::vector<i64> votes;
  std::string rc;
  baselines::MyersMatcher matcher;
  for (usize r = first; r < last; ++r) {
    for (usize strand = 0; strand < strands; ++strand) {
      if (strand == 1) rc = seq::reverse_complement(reads[r]);
      const std::string& oriented = strand == 0 ? reads[r] : rc;
      const usize length = oriented.size();
      if (length < k) continue;

      // --- Seed: vote candidate starts ---------------------------------
      // Seed positions spread evenly over [0, length - k].
      seed_starts.clear();
      const usize span = length - k;
      const usize seeds = options_.seeds_per_read;
      for (usize s = 0; s < seeds; ++s) {
        seed_starts.push_back(seeds == 1 ? 0 : s * span / (seeds - 1));
      }
      std::sort(seed_starts.begin(), seed_starts.end());
      seed_starts.erase(std::unique(seed_starts.begin(), seed_starts.end()),
                        seed_starts.end());

      votes.clear();
      for (const usize pos : seed_starts) {
        const std::string_view kmer{oriented.data() + pos, k};
        // lookup() skips seeds containing invalid bases (N) internally.
        for (const u32 hit : index_.lookup(kmer)) {
          const i64 start = static_cast<i64>(hit) - static_cast<i64>(pos);
          votes.push_back(std::max<i64>(0, start));
        }
      }
      std::sort(votes.begin(), votes.end());
      votes.erase(std::unique(votes.begin(), votes.end()), votes.end());

      // --- Filter: bounded Myers over the verification's free-end span
      // rejects provably non-qualifying windows (a one-word band that
      // stops early whenever the span and threshold fit one; see
      // baselines/myers.hpp).
      if (options_.filter && !votes.empty()) matcher.set_pattern(oriented);
      const usize pad = pad_for(length);
      const i64 threshold = filter_threshold(length);
      for (const i64 vote : votes) {
        const usize start = static_cast<usize>(vote);
        if (start >= glen) continue;
        const usize begin = start > pad ? start - pad : 0;
        const usize end = std::min(glen, start + length + pad);
        if (end <= begin) continue;
        ++out.candidates;
        const std::string_view window = genome.substr(begin, end - begin);
        if (options_.filter) {
          if (matcher.bounded_distance(window, threshold, ends_free) >
              threshold) {
            ++out.rejected;
            continue;
          }
        }
        out.survivors.push_back({r, begin, strand == 1});
        out.pairs.push_back({oriented, std::string(window)});
      }
    }
  }
}

MapResult ReadMapper::map(const std::vector<std::string>& reads) {
  MapResult out;
  out.mappings.resize(reads.size());
  out.stats.reads = reads.size();
  const u32 ends_free = text_ends_free(reads);

  // --- Seed + filter: one fused pass per read range, on the pool --------
  const std::vector<std::pair<usize, usize>> ranges =
      ThreadPool::partition(reads.size(), pool_->size());
  std::vector<RangeSurvivors> parts(ranges.size());
  pool_->parallel_for(ranges.size(), [&](usize first, usize last) {
    for (usize i = first; i < last; ++i) {
      seed_and_filter(reads, ranges[i].first, ranges[i].second, ends_free,
                      parts[i]);
    }
  });

  // Ranges are contiguous and in read order, so their concatenation is
  // the serial (read, strand, start) enumeration order.
  std::vector<Candidate> survivors;
  std::vector<seq::ReadPair> pairs;
  for (RangeSurvivors& part : parts) {
    out.stats.candidates += part.candidates;
    out.stats.filter_rejected += part.rejected;
    survivors.insert(survivors.end(), part.survivors.begin(),
                     part.survivors.end());
    pairs.insert(pairs.end(), std::make_move_iterator(part.pairs.begin()),
                 std::make_move_iterator(part.pairs.end()));
  }
  out.stats.verified = survivors.size();
  const seq::ReadPairSet verify_set(std::move(pairs));

  // --- Verify: ends-free affine WFA over the survivor batch ---------------
  align::BatchResult batch_result;
  if (!survivors.empty()) {
    align::BatchOptions batch_options = options_.batch;
    batch_options.text_ends_free = ends_free;
    if (options_.filter && batch_options.pim_max_score == 0) {
      // Survivors have Myers distance <= threshold over the same free-end
      // span, and an alignment with d edits costs at most
      // d * max(x, o + e): a provably safe per-batch score cap, which is
      // what shrinks the PIM wavefront arenas.
      const auto& p = batch_options.penalties;
      const i64 per_edit =
          std::max<i64>(p.mismatch, p.gap_open + p.gap_extend);
      i64 max_threshold = 0;
      for (const seq::ReadPair& pair : verify_set.pairs()) {
        max_threshold =
            std::max(max_threshold, filter_threshold(pair.pattern.size()));
      }
      batch_options.pim_max_score = static_cast<u64>(max_threshold * per_edit);
    }

    if (options_.engine_shards > 0) {
      align::BatchEngineOptions engine_options;
      engine_options.backend = options_.backend;
      engine_options.batch = batch_options;
      engine_options.max_in_flight = options_.engine_in_flight;
      engine_options.workers = options_.engine_workers;
      align::BatchEngine engine(std::move(engine_options));
      batch_result = engine.run_sharded(
          seq::ReadPairSpan(verify_set), align::AlignmentScope::kFull,
          std::min(options_.engine_shards, survivors.size()));
    } else {
      auto backend =
          align::backend_registry().create(options_.backend, batch_options);
      batch_result = backend->run(seq::ReadPairSpan(verify_set),
                                  align::AlignmentScope::kFull, pool_.get());
    }
    PIMWFA_CHECK(batch_result.results.size() == survivors.size(),
                 "backend under-materialized the verification batch: "
                     << batch_result.results.size() << " of "
                     << survivors.size());
  }
  out.stats.timings = batch_result.timings;

  // --- Qualify + pick: first strictly-minimal qualifying hit per read -----
  // Candidate enumeration order is identical with and without the filter
  // (the filter only removes non-qualifying candidates), so this
  // tie-break makes filtered and brute-force mapping bit-identical.
  for (usize i = 0; i < survivors.size(); ++i) {
    const Candidate& candidate = survivors[i];
    const seq::ReadPair& pair = verify_set[i];
    const align::AlignmentResult& result = batch_result.results[i];
    if (result.score > score_cap(pair.pattern.size())) continue;
    ++out.stats.qualified;
    Mapping& best = out.mappings[candidate.read];
    if (!best.mapped || result.score < best.score) {
      best.mapped = true;
      best.position = candidate.window_begin + result.text_begin;
      best.reverse = candidate.reverse;
      best.score = result.score;
      best.cigar = result.cigar;
    }
  }
  return out;
}

}  // namespace pimwfa::map
