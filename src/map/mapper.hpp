// Seed-and-verify read mapper: the end-to-end workload the batch stack
// exists to serve.
//
// PEX-style hierarchical verification (Flexible pattern matching,
// Navarro & Raffinot; floxer is the modern incarnation): candidate
// windows voted by exact k-mer seeds first pass a bit-parallel Myers
// edit-distance filter with a divergence-derived threshold, and only the
// survivors pay for gap-affine WFA - copied once into one owned
// ReadPairSet and passed as a span to any registered backend or the
// asynchronous BatchEngine.
//
// A candidate window is the voted start padded by pad_for(L) bases on
// each side. Verification aligns the read *ends-free* against it
// (align::BatchOptions::text_ends_free = the largest 2 * pad_for(L) over
// the reads of a map() call): leading and trailing window bases are
// free, so a true placement pays only for its own edits, and the
// mapping's position is where its alignment starts in the reference.
//
// The filter is MyersMatcher::bounded_distance over the same free-end
// span. When that bound f and the filter threshold t satisfy
// f + 2t + 2 <= 64 (26 for 100 bp reads at the default 2%; reads up to
// 250 bp qualify) it runs a one-word banded recurrence that gives up,
// losslessly, as soon as every cell an alignment of cost <= t could
// pass through exceeds t; wider bands run the blocked recurrence (see
// baselines/myers.hpp). Both return the same distance, so the choice
// never changes a survivor.
//
// Seeding and filtering run fused, per contiguous read range, on a
// worker pool the mapper owns (batch.cpu_threads workers, 0 = hardware
// threads); each read is preprocessed once for the Myers filter of all
// its windows. Ranges are concatenated in read order, so the survivor
// batch - and with it every mapping - is independent of the worker
// count. Direct backend verification runs on the same pool.
//
// The filter is *lossless* by construction, which is what makes the
// bit-identity guarantee testable: a mapping qualifies iff its ends-free
// affine score is <= score_cap = e_max * max(mismatch, gap_open +
// gap_extend), the worst cost of a true placement at the configured
// divergence. The filter computes the Myers distance over the same
// free-end span (the search form, free leading and trailing text). Any
// alignment with edit distance d costs at least d * min(mismatch,
// gap_extend), so candidates the filter rejects (d > filter_threshold =
// score_cap / min(mismatch, gap_extend)) could never have qualified under
// brute force either - filtered and unfiltered mapping return the same
// best alignment, position, score and CIGAR, on every backend.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "align/batch.hpp"
#include "common/thread_pool.hpp"
#include "map/index.hpp"
#include "seq/cigar.hpp"
#include "seq/dataset.hpp"

namespace pimwfa::map {

struct MapperOptions {
  // Seeding.
  usize k = 11;              // seed length (KmerIndex::kMinK..kMaxK)
  usize seeds_per_read = 4;  // seeds spread evenly across each read
  bool both_strands = true;  // also seed the reverse complement

  // Divergence budget: a read is expected to differ from its true locus
  // by at most ceil(error_rate * length) edits. Everything downstream -
  // window padding, the Myers filter threshold, the qualifying score cap
  // - derives from this single knob.
  double error_rate = 0.02;

  // Hierarchical verification: when true, candidates whose Myers edit
  // distance exceeds filter_threshold never reach the WFA. Turning it
  // off is the brute-force reference the bit-identity tests compare
  // against.
  bool filter = true;

  // Verification backend (align::backend_registry key) and its options.
  // map() sets text_ends_free itself; memory_mode must stay kHigh.
  std::string backend = "cpu";
  align::BatchOptions batch;

  // > 0: verify through an async BatchEngine with this many shards in
  // flight instead of one synchronous backend run.
  usize engine_shards = 0;
  usize engine_in_flight = 2;
  usize engine_workers = 2;

  // Throws InvalidArgument on out-of-range fields (including batch
  // modes that under-materialize results - the mapper needs a score for
  // every survivor, so virtual_pairs / pim_simulate_dpus must be 0).
  void validate() const;
};

// Best qualifying alignment of one read (mapped == false when no
// candidate qualified).
struct Mapping {
  bool mapped = false;
  usize position = 0;  // 0-based reference start of the read's alignment
  bool reverse = false;
  i64 score = 0;
  // Read (oriented) vs reference[position, position + text_length()),
  // WFA backtrace.
  seq::Cigar cigar;
};

struct MapperStats {
  usize reads = 0;
  usize candidates = 0;       // seed-voted (read, strand, start) windows
  usize filter_rejected = 0;  // dropped by the Myers pre-filter
  usize verified = 0;         // survivors aligned by the backend
  usize qualified = 0;        // verified with score <= score_cap
  align::BatchTimings timings;  // the verification batch run

  double rejection_rate() const {
    return candidates > 0
               ? static_cast<double>(filter_rejected) /
                     static_cast<double>(candidates)
               : 0.0;
  }
};

struct MapResult {
  std::vector<Mapping> mappings;  // one per input read, input order
  MapperStats stats;
};

class ReadMapper {
 public:
  // Indexes `reference` (owned by the mapper; the filter reads candidate
  // windows as views into it) and starts the worker pool. Throws
  // InvalidArgument for an empty reference or out-of-range options.
  ReadMapper(std::string reference, MapperOptions options);

  // Maps every read: seed -> filter -> capped batched WFA -> best
  // qualifying hit per read. Deterministic for fixed inputs and options.
  MapResult map(const std::vector<std::string>& reads);

  // Derived thresholds, exposed so tests can construct exact edge cases.
  // Window padding for a read of this length.
  usize pad_for(usize read_length) const;
  // Highest qualifying ends-free affine score of a read of this length.
  i64 score_cap(usize read_length) const;
  // Free-end Myers distances above this cannot score within the cap.
  i64 filter_threshold(usize read_length) const;
  // The free-end bound map(reads) filters and verifies with: the largest
  // 2 * pad_for over the reads.
  u32 text_ends_free(const std::vector<std::string>& reads) const;

  const KmerIndex& index() const noexcept { return index_; }
  const std::string& reference() const noexcept { return reference_; }
  const MapperOptions& options() const noexcept { return options_; }

 private:
  // One filter survivor: read `read`, oriented per `reverse`, against
  // the window starting at reference position `window_begin`.
  struct Candidate {
    usize read = 0;
    usize window_begin = 0;
    bool reverse = false;
  };

  // What one read range's seed + filter pass hands to verification:
  // its survivors in (read, strand, start) order, each with its owned
  // (oriented read, padded window) pair, and the range's counts.
  struct RangeSurvivors {
    std::vector<Candidate> survivors;
    std::vector<seq::ReadPair> pairs;
    usize candidates = 0;
    usize rejected = 0;
  };

  // Seeds, votes and filters reads [first, last) into `out`, over free
  // ends of `ends_free` window bases.
  void seed_and_filter(const std::vector<std::string>& reads, usize first,
                       usize last, u32 ends_free, RangeSurvivors& out) const;

  std::string reference_;
  MapperOptions options_;
  KmerIndex index_;
  // Runs the seed + filter ranges and the verification batch; sized like
  // the cpu backend's workers (batch.cpu_threads, 0 = hardware threads).
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace pimwfa::map
