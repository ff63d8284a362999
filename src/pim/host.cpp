#include "pim/host.hpp"

#include <algorithm>
#include <cstring>
#include <functional>

#include "align/penalties.hpp"
#include "common/bits.hpp"
#include "common/check.hpp"
#include "common/timer.hpp"
#include "pim/dpu_wfa_kernel.hpp"
#include "pim/tiling.hpp"
#include "seq/packed.hpp"

namespace pimwfa::pim {
namespace {

// Record codecs shared by the synchronous and pipelined paths, so both
// produce byte-identical MRAM images and result decoding.

// Stages one pair into its MRAM record directly from the batch view's
// string storage: plain mode memcpys the bases, packed mode 2-bit-packs
// them, either way without an intermediate host-side copy of the pair.
void write_pair_record(upmem::PimSystem& system, usize d,
                       const BatchLayout& layout, std::string_view pattern,
                       std::string_view text, usize slot, bool packed,
                       std::vector<u8>& record,
                       wfa::Component begin_comp = wfa::Component::kM,
                       wfa::Component end_comp = wfa::Component::kM) {
  record.assign(static_cast<usize>(layout.header().pair_stride), 0);
  const u32 lens[2] = {encode_pair_len(pattern.size(), begin_comp),
                       encode_pair_len(text.size(), end_comp)};
  std::memcpy(record.data(), lens, 8);
  if (packed) {
    seq::PackedSequence::pack_into(pattern, record.data() + 8);
    seq::PackedSequence::pack_into(
        text, record.data() + 8 + layout.pattern_field_bytes());
  } else {
    std::memcpy(record.data() + 8, pattern.data(), pattern.size());
    std::memcpy(record.data() + 8 + layout.pattern_field_bytes(), text.data(),
                text.size());
  }
  system.copy_to_mram(d, layout.pair_addr(slot), record);
}

align::AlignmentResult read_result_record(const upmem::PimSystem& system,
                                          usize d, const BatchLayout& layout,
                                          usize slot, bool full,
                                          std::vector<u8>& record) {
  record.resize(static_cast<usize>(layout.header().result_stride));
  system.copy_from_mram(d, layout.result_addr(slot), record);
  u32 head[2];
  std::memcpy(head, record.data(), 8);
  align::AlignmentResult result;
  result.score = static_cast<i64>(head[0]);
  const usize ops_at = static_cast<usize>(
      BatchLayout::result_head_bytes(layout.header().text_ends_free != 0));
  if (ops_at > 8) std::memcpy(&result.text_begin, record.data() + 8, 4);
  if (full) {
    const usize len = head[1];
    PIMWFA_CHECK(ops_at + len <= record.size(),
                 "DPU result CIGAR overruns its record");
    result.cigar = seq::Cigar::from_ops(std::string(
        reinterpret_cast<const char*>(record.data() + ops_at), len));
    result.has_cigar = true;
  }
  return result;
}

// Everything both execution paths need about one batch run.
struct BatchRun {
  const PimOptions& options;
  seq::ReadPairSpan batch;
  upmem::PimSystem& system;
  bool full = false;
  usize logical = 0;
  usize simulated = 0;
  usize virtual_n = 0;
  usize max_pattern = 0;
  usize max_text = 0;

  BatchLayout layout_for(usize nr_pairs) const {
    BatchLayout::Params params;
    params.nr_pairs = nr_pairs;
    params.nr_tasklets = options.nr_tasklets;
    params.max_pattern = max_pattern;
    params.max_text = max_text;
    params.penalties = options.penalties;
    params.full_alignment = full;
    params.policy = options.policy;
    params.packed_sequences = options.packed_sequences;
    params.max_score = options.max_score;
    params.text_ends_free = options.text_ends_free;
    return BatchLayout::plan(params, options.system.mram_bytes);
  }

  std::pair<usize, usize> range_of(usize d) const {
    return PimBatchAligner::dpu_pair_range(virtual_n, logical, d);
  }

  // Pairs covered by the simulated prefix (= the result count).
  usize simulated_pairs() const { return range_of(simulated - 1).second; }

  void fill_common_timings(PimTimings& t) const {
    t.bytes_to_device = system.to_device().bytes;
    t.bytes_from_device = system.from_device().bytes;
    t.pairs = virtual_n;
    t.logical_dpus = logical;
    t.simulated_dpus = simulated;
    t.nr_tasklets = options.nr_tasklets;
  }
};

// --- synchronous path ---------------------------------------------------

PimBatchResult run_synchronous(const BatchRun& run, ThreadPool* pool) {
  upmem::PimSystem& system = run.system;

  // --- scatter ---------------------------------------------------------
  // Simulated DPUs get real data; the rest contribute transfer bytes only.
  {
    std::vector<u8> record;
    for (usize d = 0; d < run.simulated; ++d) {
      const auto [begin, end] = run.range_of(d);
      const BatchLayout layout = run.layout_for(end - begin);
      const BatchHeader& h = layout.header();
      system.copy_to_mram(
          d, 0, {reinterpret_cast<const u8*>(&h), sizeof(BatchHeader)});
      for (usize p = begin; p < end; ++p) {
        write_pair_record(system, d, layout, run.batch.pattern(p),
                          run.batch.text(p), p - begin,
                          run.options.packed_sequences, record);
      }
    }
    for (usize d = run.simulated; d < run.logical; ++d) {
      const auto [begin, end] = run.range_of(d);
      const BatchLayout layout = run.layout_for(end - begin);
      system.account_to_device(sizeof(BatchHeader) + layout.pairs_bytes());
    }
  }

  // --- launch ----------------------------------------------------------
  const KernelCosts costs = run.options.costs;
  const upmem::LaunchStats launch = system.launch_all(
      [&costs](usize) { return std::make_unique<WfaDpuKernel>(costs); },
      run.options.nr_tasklets, pool);

  // --- gather ----------------------------------------------------------
  PimBatchResult out;
  {
    std::vector<u8> record;
    for (usize d = 0; d < run.simulated; ++d) {
      const auto [begin, end] = run.range_of(d);
      const BatchLayout layout = run.layout_for(end - begin);
      for (usize p = begin; p < end; ++p) {
        out.results.push_back(read_result_record(system, d, layout, p - begin,
                                                 run.full, record));
      }
    }
    for (usize d = run.simulated; d < run.logical; ++d) {
      const auto [begin, end] = run.range_of(d);
      const BatchLayout layout = run.layout_for(end - begin);
      system.account_from_device(layout.results_bytes());
    }
  }

  // --- timings ---------------------------------------------------------
  PimTimings& t = out.timings;
  t.scatter_seconds = system.scatter_seconds();
  t.kernel_seconds = launch.kernel_seconds(run.options.system);
  t.gather_seconds = system.gather_seconds();
  t.kernel_cycles_max = launch.max_cycles;
  t.kernel_cycles_total = launch.total_cycles;
  t.work = launch.combined;
  run.fill_common_timings(t);
  return out;
}

// --- pipelined path -----------------------------------------------------

PimBatchResult run_pipelined(const BatchRun& run,
                             const PipelineSchedule& schedule,
                             ThreadPool* pool) {
  upmem::PimSystem& system = run.system;
  const usize chunks = schedule.chunks();
  const KernelCosts costs = run.options.costs;
  // Every chunk slices all DPUs, so its transfers span the full rank set
  // and run at full rank parallelism.
  const usize ranks = system.ranks_spanned(0, run.logical);

  // Fill phase: one header per DPU (the batch geometry is chunk-invariant).
  u64 header_bytes_unsimulated = 0;
  for (usize d = 0; d < run.simulated; ++d) {
    const auto [begin, end] = run.range_of(d);
    const BatchLayout layout = run.layout_for(end - begin);
    const BatchHeader& h = layout.header();
    system.copy_to_mram(d, 0,
                        {reinterpret_cast<const u8*>(&h), sizeof(BatchHeader)});
  }
  header_bytes_unsimulated =
      static_cast<u64>(run.logical - run.simulated) * sizeof(BatchHeader);
  system.account_to_device(header_bytes_unsimulated);

  // Per-chunk transfer volumes over the whole logical system (the timing
  // model's input; simulated DPUs contribute via real copies, the rest via
  // accounting).
  const u64 pair_stride = run.layout_for(1).header().pair_stride;
  const u64 result_stride = run.layout_for(1).header().result_stride;
  std::vector<u64> scatter_bytes(chunks, 0);
  std::vector<u64> gather_bytes(chunks, 0);
  for (usize d = 0; d < run.logical; ++d) {
    const auto [begin, end] = run.range_of(d);
    for (usize c = 0; c < chunks; ++c) {
      const auto [sb, se] = PipelineSchedule::slice(end - begin, chunks, c,
                                                    run.options.nr_tasklets);
      scatter_bytes[c] += static_cast<u64>(se - sb) * pair_stride;
      gather_bytes[c] += static_cast<u64>(se - sb) * result_stride;
    }
  }
  const u64 launch_arg_bytes =
      static_cast<u64>(run.logical) * WfaDpuKernel::kLaunchArgBytes;
  for (usize c = 0; c < chunks; ++c) scatter_bytes[c] += launch_arg_bytes;
  scatter_bytes[0] +=
      static_cast<u64>(run.logical) * sizeof(BatchHeader);

  PimBatchResult out;
  out.results.resize(run.simulated_pairs());
  std::vector<upmem::LaunchStats> launches(chunks);
  std::vector<std::vector<u64>> launch_cycles(chunks);

  // Stage bodies. Each touches only its chunk's slice of every DPU, so
  // stages of different chunks touch disjoint MRAM byte ranges and are
  // data-race free.
  auto scatter_chunk = [&](usize c) {
    std::vector<u8> record;
    u64 accounted = WfaDpuKernel::kLaunchArgBytes * static_cast<u64>(run.logical);
    for (usize d = 0; d < run.simulated; ++d) {
      const auto [begin, end] = run.range_of(d);
      const BatchLayout layout = run.layout_for(end - begin);
      const auto [sb, se] = PipelineSchedule::slice(end - begin, chunks, c,
                                                    run.options.nr_tasklets);
      for (usize p = sb; p < se; ++p) {
        write_pair_record(system, d, layout, run.batch.pattern(begin + p),
                          run.batch.text(begin + p), p,
                          run.options.packed_sequences, record);
      }
    }
    for (usize d = run.simulated; d < run.logical; ++d) {
      const auto [begin, end] = run.range_of(d);
      const auto [sb, se] = PipelineSchedule::slice(end - begin, chunks, c,
                                                    run.options.nr_tasklets);
      accounted += static_cast<u64>(se - sb) * pair_stride;
    }
    system.account_to_device(accounted);
  };
  auto kernel_chunk = [&](usize c) {
    // Stages already run concurrently; keep the per-DPU loop serial to
    // avoid nesting pool waits inside pool tasks.
    launches[c] = system.launch_group(
        0, run.simulated,
        [&, c](usize d) {
          const auto [begin, end] = run.range_of(d);
          const auto [sb, se] = PipelineSchedule::slice(
              end - begin, chunks, c, run.options.nr_tasklets);
          return std::make_unique<WfaDpuKernel>(
              costs, static_cast<u64>(sb), static_cast<u64>(se - sb));
        },
        run.options.nr_tasklets, nullptr, &launch_cycles[c]);
  };
  auto gather_chunk = [&](usize c) {
    std::vector<u8> record;
    u64 accounted = 0;
    for (usize d = 0; d < run.simulated; ++d) {
      const auto [begin, end] = run.range_of(d);
      const BatchLayout layout = run.layout_for(end - begin);
      const auto [sb, se] = PipelineSchedule::slice(end - begin, chunks, c,
                                                    run.options.nr_tasklets);
      for (usize p = sb; p < se; ++p) {
        out.results[begin + p] = read_result_record(system, d, layout, p,
                                                    run.full, record);
      }
    }
    for (usize d = run.simulated; d < run.logical; ++d) {
      const auto [begin, end] = run.range_of(d);
      const auto [sb, se] = PipelineSchedule::slice(end - begin, chunks, c,
                                                    run.options.nr_tasklets);
      accounted += static_cast<u64>(se - sb) * result_stride;
    }
    system.account_from_device(accounted);
  };

  // Software pipeline: at tick t, scatter(t), kernel(t-1) and gather(t-2)
  // are in flight together (on `pool` when there is one; the modeled
  // timing is identical either way).
  for (usize tick = 0; tick < chunks + 2; ++tick) {
    std::vector<std::function<void()>> stages;
    if (tick < chunks) stages.push_back([&, tick] { scatter_chunk(tick); });
    if (tick >= 1 && tick - 1 < chunks) {
      stages.push_back([&, tick] { kernel_chunk(tick - 1); });
    }
    if (tick >= 2 && tick - 2 < chunks) {
      stages.push_back([&, tick] { gather_chunk(tick - 2); });
    }
    const auto run_stages = [&stages](usize begin, usize end) {
      for (usize s = begin; s < end; ++s) stages[s]();
    };
    if (pool != nullptr) {
      pool->parallel_for(stages.size(), run_stages);
    } else {
      run_stages(0, stages.size());
    }
  }

  // --- timings ---------------------------------------------------------
  const upmem::CostModel& model = system.cost_model();
  std::vector<ChunkTiming> chunk_timings(chunks);
  PimTimings& t = out.timings;
  for (usize c = 0; c < chunks; ++c) {
    ChunkTiming& ct = chunk_timings[c];
    ct.scatter_seconds = model.transfer_seconds(scatter_bytes[c], ranks);
    ct.kernel_seconds = launches[c].kernel_seconds(run.options.system);
    ct.gather_seconds = model.transfer_seconds(gather_bytes[c], ranks);
    ct.launch_overhead_seconds = run.options.system.host_launch_overhead_s;
    ct.dpu_kernel_seconds.reserve(launch_cycles[c].size());
    for (const u64 cycles : launch_cycles[c]) {
      ct.dpu_kernel_seconds.push_back(
          run.options.system.cycles_to_seconds(cycles));
    }
    t.scatter_seconds += ct.scatter_seconds;
    t.kernel_seconds += ct.kernel_seconds;
    t.gather_seconds += ct.gather_seconds;
    t.kernel_cycles_max += launches[c].max_cycles;
    t.kernel_cycles_total += launches[c].total_cycles;
    t.work.merge(launches[c].combined);
  }
  const PipelineModel pipeline = PipelineModel::from_chunks(chunk_timings);
  t.chunks = chunks;
  t.pipelined_total_seconds = pipeline.total_seconds;
  t.fill_seconds = pipeline.fill_seconds;
  t.drain_seconds = pipeline.drain_seconds;
  t.steady_state_seconds = pipeline.steady_state_seconds;
  t.overlap_saved_seconds = pipeline.overlap_saved_seconds;
  run.fill_common_timings(t);
  return out;
}

// --- long-pair tiling ---------------------------------------------------

// Bases (pattern + text) one tasklet's WRAM share can host. The engine
// keeps per-field sequence buffers plus - in full-alignment mode - a
// CIGAR buffer of max_pattern + max_text bytes resident, next to ~1.3 KiB
// of fixed storage (staged header, 9 offset windows, stage word). The
// buffers are sized by the batch's per-field maxima, and lopsided
// segments (a long deletion next to a long insertion) can push each field
// toward the cap independently, so provision 2 * (cap + cap).
usize wram_segment_bases(const upmem::SystemConfig& system,
                         usize nr_tasklets) {
  const u64 per_tasklet = system.wram_bytes / nr_tasklets;
  constexpr u64 kFixedBytes = 1536;
  if (per_tasklet <= kFixedBytes + 64) return 0;
  return static_cast<usize>((per_tasklet - kFixedBytes) / 4);
}

// Score bound a segment batch must provision for: span alignments can
// cost slightly more than the plain worst case (a forced boundary
// component appends at most one extra gap pair and a mismatch).
u64 span_score_cap(const PimOptions& options, usize max_p, usize max_t) {
  if (options.max_score != 0) return options.max_score;
  const align::Penalties& pen = options.penalties;
  return static_cast<u64>(align::worst_case_score(pen, max_p, max_t) +
                          2 * (pen.gap_open + pen.gap_extend) + pen.mismatch);
}

// Offset-heap bytes one tasklet gets under a given record geometry.
u64 tiling_arena_budget(const PimOptions& options, bool full,
                        usize per_dpu_items, usize max_p, usize max_t) {
  BatchLayout::Params params;
  params.nr_pairs = std::max<usize>(per_dpu_items, 1);
  params.nr_tasklets = options.nr_tasklets;
  params.max_pattern = max_p;
  params.max_text = max_t;
  params.penalties = options.penalties;
  params.full_alignment = full;
  params.policy = options.policy;
  params.packed_sequences = options.packed_sequences;
  params.max_score = span_score_cap(options, max_p, max_t);
  params.text_ends_free = options.text_ends_free;
  const BatchLayout probe =
      BatchLayout::plan(params, options.system.mram_bytes);
  const u64 reserved = probe.desc_table_bytes() + 4096;
  const u64 stride = probe.header().scratch_stride;
  return stride > reserved ? stride - reserved : 0;
}

i64 pair_score_bound(const PimOptions& options, usize pl, usize tl) {
  i64 bound = align::worst_case_score(options.penalties, pl, tl);
  if (options.max_score != 0) {
    bound = std::min(bound, static_cast<i64>(options.max_score));
  }
  return bound;
}

// Indices of pairs that cannot run as single records. The WRAM sequence
// share is a hard wall either way. The arena estimate is worst-case
// (actual scores are usually far lower), so it only routes pairs to the
// tiling planner - which prices the real score - and never rejects an
// untiled run, where the arena is still probed by running, as it always
// was.
std::vector<usize> screen_oversized(const PimOptions& options,
                                    seq::ReadPairSpan batch, bool full,
                                    usize virtual_n, usize logical,
                                    usize max_pattern, usize max_text,
                                    usize* seg_bases_out, u64* budget_out) {
  const usize seg_bases =
      options.tile_max_segment_bases != 0
          ? options.tile_max_segment_bases
          : wram_segment_bases(options.system, options.nr_tasklets);
  *seg_bases_out = seg_bases;
  *budget_out = 0;
  std::vector<usize> oversized;
  if (seg_bases == 0) return oversized;
  const usize probe_max_p = std::min(max_pattern, seg_bases);
  const usize probe_max_t = std::min(max_text, seg_bases);
  const u64 budget =
      tiling_arena_budget(options, full, (virtual_n + logical - 1) / logical,
                          probe_max_p, probe_max_t);
  *budget_out = budget;
  for (usize p = 0; p < batch.size(); ++p) {
    const usize pl = batch.pattern(p).size();
    const usize tl = batch.text(p).size();
    const bool wram_wall = pl + tl > seg_bases;
    const bool arena_heavy =
        options.tile_long_pairs &&
        TilingPlanner::retained_arena_estimate(
            pair_score_bound(options, pl, tl), pl, tl,
            options.text_ends_free) > budget;
    if (wram_wall || arena_heavy) oversized.push_back(p);
  }
  return oversized;
}

// The segment batch standing in for the pair batch on the DPUs.
struct TiledBatch {
  std::vector<TileSegment> segments;  // pair-major
  std::vector<std::pair<usize, usize>> pair_ranges;  // segments of pair p
  usize max_pattern = 0;
  usize max_text = 0;
};

std::string_view segment_pattern(seq::ReadPairSpan batch,
                                 const TileSegment& s) {
  return batch.pattern(s.pair).substr(s.v0, s.v1 - s.v0);
}

std::string_view segment_text(seq::ReadPairSpan batch, const TileSegment& s) {
  return batch.text(s.pair).substr(s.h0, s.h1 - s.h0);
}

// Synchronous execution of a segment batch: scatter the segments as
// ordinary pair records (seam components in the length fields), run the
// unchanged kernel loop, gather per-segment results and stitch them back
// into per-pair alignments. `run` carries the segment-batch geometry
// (virtual_n = segment count, maxes over segments) and full simulation.
PimBatchResult run_tiled(const BatchRun& run, const TiledBatch& tiled,
                         usize nr_pairs, ThreadPool* pool) {
  upmem::PimSystem& system = run.system;
  const std::vector<TileSegment>& segments = tiled.segments;

  {
    std::vector<u8> record;
    for (usize d = 0; d < run.logical; ++d) {
      const auto [begin, end] = run.range_of(d);
      const BatchLayout layout = run.layout_for(end - begin);
      const BatchHeader& h = layout.header();
      system.copy_to_mram(
          d, 0, {reinterpret_cast<const u8*>(&h), sizeof(BatchHeader)});
      for (usize s = begin; s < end; ++s) {
        const TileSegment& seg = segments[s];
        write_pair_record(system, d, layout, segment_pattern(run.batch, seg),
                          segment_text(run.batch, seg), s - begin,
                          run.options.packed_sequences, record, seg.begin,
                          seg.end);
      }
    }
  }

  const KernelCosts costs = run.options.costs;
  const upmem::LaunchStats launch = system.launch_all(
      [&costs](usize) { return std::make_unique<WfaDpuKernel>(costs); },
      run.options.nr_tasklets, pool);

  PimBatchResult out;
  {
    std::vector<align::AlignmentResult> seg_results(segments.size());
    std::vector<u8> record;
    for (usize d = 0; d < run.logical; ++d) {
      const auto [begin, end] = run.range_of(d);
      const BatchLayout layout = run.layout_for(end - begin);
      for (usize s = begin; s < end; ++s) {
        seg_results[s] =
            read_result_record(system, d, layout, s - begin, run.full, record);
      }
    }
    out.results.reserve(nr_pairs);
    usize tiled_pairs = 0;
    for (usize p = 0; p < nr_pairs; ++p) {
      const auto [sb, se] = tiled.pair_ranges[p];
      if (se - sb == 1) {
        out.results.push_back(std::move(seg_results[sb]));
      } else {
        ++tiled_pairs;
        out.results.push_back(
            stitch_segments(segments, sb, se, seg_results, run.full));
      }
    }
    out.timings.tiled_pairs = tiled_pairs;
  }

  PimTimings& t = out.timings;
  t.scatter_seconds = system.scatter_seconds();
  t.kernel_seconds = launch.kernel_seconds(run.options.system);
  t.gather_seconds = system.gather_seconds();
  t.kernel_cycles_max = launch.max_cycles;
  t.kernel_cycles_total = launch.total_cycles;
  t.work = launch.combined;
  run.fill_common_timings(t);
  t.pairs = nr_pairs;
  t.tile_segments = segments.size();
  return out;
}

}  // namespace

PimOptions PimOptions::from(const align::BatchOptions& batch) {
  PimOptions options;
  options.system = batch.pim_dpus == 0
                       ? upmem::SystemConfig::paper()
                       : upmem::SystemConfig::tiny(batch.pim_dpus);
  options.nr_tasklets = batch.pim_tasklets;
  options.penalties = batch.penalties;
  options.packed_sequences = batch.pim_packed;
  options.max_score = batch.pim_max_score;
  options.text_ends_free = batch.text_ends_free;
  options.simulate_dpus = batch.pim_simulate_dpus;
  options.virtual_total_pairs = batch.virtual_pairs;
  options.pipeline = batch.pim_pipeline;
  options.pipeline_chunks = batch.pim_pipeline_chunks;
  return options;
}

PimBatchAligner::PimBatchAligner(PimOptions options)
    : options_(std::move(options)) {
  options_.system.validate();
  options_.penalties.validate();
  PIMWFA_ARG_CHECK(options_.nr_tasklets >= 1 &&
                       options_.nr_tasklets <= options_.system.max_tasklets,
                   "tasklet count outside the DPU's range");
  PIMWFA_ARG_CHECK(options_.pipeline_max_chunks >= 1,
                   "pipeline_max_chunks must be at least 1");
}

PimBatchAligner::PimBatchAligner(const align::BatchOptions& batch)
    : PimBatchAligner(PimOptions::from(batch)) {}

bool PimBatchAligner::needs_tiling(seq::ReadPairSpan batch,
                                   align::AlignmentScope scope) const {
  if (options_.policy != MetadataPolicy::kMram || batch.size() == 0) {
    return false;
  }
  usize max_p = 0;
  usize max_t = 0;
  for (usize p = 0; p < batch.size(); ++p) {
    max_p = std::max(max_p, batch.pattern(p).size());
    max_t = std::max(max_t, batch.text(p).size());
  }
  const usize n = std::max<usize>(options_.virtual_total_pairs, batch.size());
  usize seg_bases = 0;
  u64 budget = 0;
  return !screen_oversized(options_, batch,
                           scope == align::AlignmentScope::kFull, n,
                           options_.system.nr_dpus(), max_p, max_t,
                           &seg_bases, &budget)
              .empty();
}

align::BatchResult PimBatchAligner::run(seq::ReadPairSpan batch,
                                        align::AlignmentScope scope,
                                        ThreadPool* pool) {
  WallTimer timer;
  PimBatchResult native = align_batch(batch, scope, pool);
  align::BatchResult out;
  out.backend = name();
  out.results = std::move(native.results);
  const PimTimings& pt = native.timings;
  align::BatchTimings& t = out.timings;
  t.wall_seconds = timer.seconds();
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
  t.pim_alone_seconds = t.modeled_seconds;
  return out;
}

std::pair<usize, usize> PimBatchAligner::dpu_pair_range(usize n, usize nr_dpus,
                                                        usize d) {
  const usize base = n / nr_dpus;
  const usize rem = n % nr_dpus;
  const usize begin = d * base + std::min(d, rem);
  const usize count = base + (d < rem ? 1 : 0);
  return {begin, begin + count};
}

PimBatchResult PimBatchAligner::align_batch(seq::ReadPairSpan batch,
                                            align::AlignmentScope scope,
                                            ThreadPool* pool) {
  // Validate the borrow before MRAM ingestion (checked builds): the
  // scatter/kernel/gather stages - overlapped across pool threads in
  // pipelined mode - hold this span for the whole call, and per-element
  // accesses re-validate while they run.
  batch.check_valid();
  const usize logical = options_.system.nr_dpus();
  const usize simulated = options_.simulate_dpus == 0
                              ? logical
                              : std::min(options_.simulate_dpus, logical);
  upmem::PimSystem system(options_.system, simulated);

  BatchRun run{options_, batch, system};
  run.full = scope == align::AlignmentScope::kFull;
  run.logical = logical;
  run.simulated = simulated;
  run.max_pattern = batch.max_pattern_length();
  run.max_text = batch.max_text_length();
  // Virtual batches: distribution is computed over `virtual_n` pairs, but
  // only the simulated DPUs' pairs exist in `batch`.
  run.virtual_n = options_.virtual_total_pairs == 0
                      ? batch.size()
                      : options_.virtual_total_pairs;
  PIMWFA_ARG_CHECK(run.virtual_n >= batch.size(),
                   "virtual_total_pairs below the materialized batch");
  if (options_.virtual_total_pairs != 0) {
    const usize last_end = run.simulated_pairs();
    PIMWFA_ARG_CHECK(batch.size() >= last_end,
                     "batch does not cover the simulated DPUs' share ("
                         << last_end << " pairs needed, " << batch.size()
                         << " provided)");
  }

  // --- long-pair tiling -------------------------------------------------
  // A pair whose sequences outgrow a tasklet's WRAM share, or whose
  // retained wavefronts outgrow the per-tasklet MRAM arena, cannot run as
  // one record. Screen for such pairs and split them into breakpoint-
  // delimited segments (pim/tiling.hpp). Metadata-in-WRAM is exempt: its
  // arenas are far too small for pairs that would ever need tiling.
  if (options_.policy == MetadataPolicy::kMram && batch.size() > 0) {
    usize seg_bases = 0;
    u64 budget = 0;
    const std::vector<usize> oversized =
        screen_oversized(options_, batch, run.full, run.virtual_n, logical,
                         run.max_pattern, run.max_text, &seg_bases, &budget);
    if (!oversized.empty()) {
      const usize p0 = oversized.front();
      const usize pl = batch.pattern(p0).size();
      const usize tl = batch.text(p0).size();
      PIMWFA_CHECK(
          options_.tile_long_pairs,
          "pair " << p0 << " (" << pl << "x" << tl
                  << " bases) cannot run untiled: it needs "
                  << TilingPlanner::retained_arena_estimate(
                         pair_score_bound(options_, pl, tl), pl, tl,
                         options_.text_ends_free)
                  << " wavefront-arena bytes but a tasklet gets " << budget
                  << ", and " << pl + tl << " sequence bytes against a "
                  << seg_bases
                  << "-base WRAM share; enable tile_long_pairs or lower "
                     "nr_tasklets");
      PIMWFA_ARG_CHECK(options_.text_ends_free == 0,
                       "pair " << p0 << " (" << pl << "x" << tl
                               << " bases) would be tiled, and tiling "
                                  "cannot run ends-free alignments");
      PIMWFA_ARG_CHECK(options_.virtual_total_pairs == 0,
                       "long-pair tiling cannot run virtual batches: every "
                       "segment must be materialized and stitched");
      PIMWFA_ARG_CHECK(
          simulated == logical,
          "long-pair tiling requires full simulation (simulate_dpus = 0)");

      // Plan the segments, then re-probe with the segment batch's real
      // geometry: extra records shrink the per-tasklet arena, so replan
      // under the smaller budget until the plan is self-consistent.
      TiledBatch tiled;
      u64 plan_budget = budget;
      for (int attempt = 0;; ++attempt) {
        tiled.segments.clear();
        tiled.pair_ranges.clear();
        TilingConfig config;
        config.penalties = options_.penalties;
        config.arena_budget_bytes = plan_budget;
        config.max_segment_bases = seg_bases;
        config.score_cap = options_.max_score;
        TilingPlanner planner(config);
        auto next = oversized.begin();
        for (usize p = 0; p < batch.size(); ++p) {
          const usize first = tiled.segments.size();
          if (next != oversized.end() && *next == p) {
            ++next;
            planner.plan_pair(p, batch.pattern(p), batch.text(p),
                              tiled.segments);
          } else {
            TileSegment whole;
            whole.pair = p;
            whole.v1 = batch.pattern(p).size();
            whole.h1 = batch.text(p).size();
            tiled.segments.push_back(whole);
          }
          tiled.pair_ranges.emplace_back(first, tiled.segments.size());
        }
        tiled.max_pattern = 0;
        tiled.max_text = 0;
        for (const TileSegment& s : tiled.segments) {
          tiled.max_pattern = std::max(tiled.max_pattern, s.pattern_length());
          tiled.max_text = std::max(tiled.max_text, s.text_length());
        }
        const u64 actual = tiling_arena_budget(
            options_, run.full,
            (tiled.segments.size() + logical - 1) / logical,
            tiled.max_pattern, tiled.max_text);
        if (actual >= plan_budget) break;
        PIMWFA_CHECK(attempt < 4,
                     "long-pair tiling failed to converge on an arena budget "
                     "(last " << actual << " bytes per tasklet)");
        plan_budget = actual;
      }

      PimOptions tiled_options = options_;
      tiled_options.max_score =
          span_score_cap(options_, tiled.max_pattern, tiled.max_text);
      BatchRun tiled_run{tiled_options, batch, system};
      tiled_run.full = run.full;
      tiled_run.logical = logical;
      tiled_run.simulated = simulated;
      tiled_run.max_pattern = tiled.max_pattern;
      tiled_run.max_text = tiled.max_text;
      tiled_run.virtual_n = tiled.segments.size();
      // Pipelined mode falls back to the synchronous tiled path.
      return run_tiled(tiled_run, tiled, batch.size(), pool);
    }
  }

  if (options_.pipeline && run.virtual_n > 0) {
    const BatchLayout probe = run.layout_for(1);
    PipelineSchedule::Params params;
    params.pairs = run.virtual_n;
    params.nr_dpus = logical;
    params.nr_tasklets = options_.nr_tasklets;
    params.nr_ranks = system.ranks_in_use();
    params.scatter_bytes =
        static_cast<u64>(run.virtual_n) * probe.header().pair_stride +
        static_cast<u64>(logical) * sizeof(BatchHeader);
    params.gather_bytes =
        static_cast<u64>(run.virtual_n) * probe.header().result_stride;
    params.host_bandwidth =
        system.cost_model().transfer_bandwidth(system.ranks_in_use());
    params.launch_overhead_seconds = options_.system.host_launch_overhead_s;
    params.requested_chunks = options_.pipeline_chunks;
    params.max_chunks = options_.pipeline_max_chunks;
    const PipelineSchedule schedule = PipelineSchedule::plan(params);
    if (schedule.pipelined()) return run_pipelined(run, schedule, pool);
  }
  return run_synchronous(run, pool);
}

}  // namespace pimwfa::pim
