#include "align/batch_engine.hpp"

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "align/registry.hpp"
#include "common/check.hpp"
#include "common/timer.hpp"

namespace pimwfa::align {

BatchEngine::BatchEngine(BatchEngineOptions options)
    : BatchEngine(backend_registry().create(options.backend, options.batch),
                  options.max_in_flight, options.workers) {
  backend_virtual_pairs_ = options.batch.virtual_pairs;
}

BatchEngine::BatchEngine(std::unique_ptr<BatchAligner> backend,
                         usize max_in_flight, usize workers)
    : backend_(std::move(backend)) {
  PIMWFA_ARG_CHECK(backend_ != nullptr, "engine needs a backend");
  PIMWFA_ARG_CHECK(max_in_flight >= 1, "engine needs in-flight capacity");
  if (workers > 0) workers_ = std::make_unique<ThreadPool>(workers);
  dispatcher_ = std::make_unique<ThreadPool>(max_in_flight);
}

BatchEngine::~BatchEngine() = default;  // pool destructors drain the queues

namespace {

// The continuation behind the future-returning submit forms.
BatchEngine::Done resolve(std::shared_ptr<std::promise<BatchResult>> promise) {
  return [promise = std::move(promise)](BatchResult result,
                                        std::exception_ptr error) {
    if (error) {
      promise->set_exception(std::move(error));
    } else {
      promise->set_value(std::move(result));
    }
  };
}

}  // namespace

std::future<BatchResult> BatchEngine::submit(seq::ReadPairSpan batch,
                                             AlignmentScope scope) {
  auto promise = std::make_shared<std::promise<BatchResult>>();
  std::future<BatchResult> future = promise->get_future();
  submit(batch, scope, resolve(std::move(promise)));
  return future;
}

void BatchEngine::submit(seq::ReadPairSpan batch, AlignmentScope scope,
                         Done done) {
  // Validate the borrow at dispatch, before any engine state changes: a
  // span that is already dangling fails synchronously in the caller's
  // frame (LifetimeError under PIMWFA_CHECKED_VIEWS), with the counters
  // untouched. The span is captured by value - the caller's storage
  // outlives `done` per the submit contract - so no base is copied on the
  // way in.
  batch.check_valid();
  enqueue(
      [this, batch, scope] {
        // Re-validate at task start: the async gap between dispatch and
        // execution is exactly where the borrow goes stale. A violation
        // reaches `done` as LifetimeError instead of the backend reading
        // freed memory.
        batch.check_valid();
        return backend_->run(batch, scope, workers_.get());
      },
      std::move(done));
}

std::future<BatchResult> BatchEngine::submit(seq::ReadPairSet&& batch,
                                             AlignmentScope scope) {
  // The set is moved (not copied) into shared ownership that the task
  // keeps alive until it has run; the backend still sees a view.
  auto owned = std::make_shared<seq::ReadPairSet>(std::move(batch));
  auto promise = std::make_shared<std::promise<BatchResult>>();
  std::future<BatchResult> future = promise->get_future();
  enqueue(
      [this, owned, scope] {
        return backend_->run(*owned, scope, workers_.get());
      },
      resolve(std::move(promise)));
  return future;
}

void BatchEngine::enqueue(std::function<BatchResult()> run, Done done) {
  // Counter discipline: both counters move together, and a dispatcher
  // that refuses the task (stopped pool) rolls them back before the
  // exception escapes - otherwise in_flight_ would read nonzero forever
  // for a batch that never ran. The increment happens before the enqueue
  // because the task's completion decrement may run on a worker thread
  // the instant submit() returns.
  // Relaxed: the counters are observability-only (see the header note);
  // the dispatcher hand-off provides all the ordering the batch itself
  // needs.
  submitted_.fetch_add(1, std::memory_order_relaxed);
  in_flight_.fetch_add(1, std::memory_order_relaxed);
  try {
    dispatcher_->submit([this, run = std::move(run), done = std::move(done)] {
      BatchResult result;
      std::exception_ptr error;
      try {
        result = run();
      } catch (...) {
        error = std::current_exception();
      }
      try {
        done(std::move(result), std::move(error));
      } catch (...) {
        in_flight_.fetch_sub(1, std::memory_order_relaxed);
        throw;
      }
      in_flight_.fetch_sub(1, std::memory_order_relaxed);
    });
  } catch (...) {
    submitted_.fetch_sub(1, std::memory_order_relaxed);
    in_flight_.fetch_sub(1, std::memory_order_relaxed);
    throw;
  }
}

BatchResult BatchEngine::run_sharded(seq::ReadPairSpan batch,
                                     AlignmentScope scope, usize shards) {
  PIMWFA_ARG_CHECK(shards >= 1, "need at least one shard");
  PIMWFA_ARG_CHECK(backend_virtual_pairs_ == 0,
                   "run_sharded needs fully materialized batches; the "
                   "backend was configured with virtual_pairs="
                       << backend_virtual_pairs_);
  batch.check_valid();
  WallTimer timer;
  const std::vector<std::pair<usize, usize>> ranges =
      ThreadPool::partition(batch.size(), shards);
  std::vector<std::future<BatchResult>> inflight;
  inflight.reserve(ranges.size());
  try {
    for (const auto& [begin, end] : ranges) {
      inflight.push_back(submit(batch.subspan(begin, end), scope));
    }
  } catch (...) {
    // A refused submission must not abandon the shards already in flight:
    // they run against `batch`, whose storage the caller may tear down
    // the moment this frame unwinds. Drain them, then rethrow the
    // submission failure.
    for (auto& future : inflight) {
      try {
        (void)future.get();
      } catch (...) {
        // The submission failure is the primary error.
      }
    }
    throw;
  }

  // Drain every shard before looking at any error: a shard whose .get()
  // rethrows must not leave later shards running against the caller's
  // (possibly unwinding) span. Mirrors ThreadPool::parallel_for - all
  // futures are consumed, the first error wins and is rethrown only once
  // nothing is in flight anymore.
  std::vector<BatchResult> completed(inflight.size());
  std::exception_ptr first_error;
  for (usize shard_index = 0; shard_index < inflight.size(); ++shard_index) {
    try {
      completed[shard_index] = inflight[shard_index].get();
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  }
  if (first_error) std::rethrow_exception(first_error);

  BatchResult out;
  out.backend = backend_->name();
  BatchTimings& t = out.timings;
  out.results.reserve(batch.size());
  // Input-order merge: shards are contiguous slices in submission order,
  // and each shard's results are a prefix of its slice. A partially
  // materialized shard (pim_simulate_dpus) ends the merged prefix there -
  // appending later shards would misalign results with input indices.
  bool contiguous = true;
  for (usize shard_index = 0; shard_index < completed.size(); ++shard_index) {
    BatchResult& shard = completed[shard_index];
    if (contiguous) {
      out.results.insert(out.results.end(),
                         std::make_move_iterator(shard.results.begin()),
                         std::make_move_iterator(shard.results.end()));
      const auto [begin, end] = ranges[shard_index];
      if (shard.results.size() < end - begin) contiguous = false;
    }
    const BatchTimings& s = shard.timings;
    t.modeled_seconds += s.modeled_seconds;
    t.pairs += s.pairs;
    t.cpu_wall_seconds += s.cpu_wall_seconds;
    t.cpu_modeled_seconds += s.cpu_modeled_seconds;
    t.cpu_pairs += s.cpu_pairs;
    t.pim_modeled_seconds += s.pim_modeled_seconds;
    t.scatter_seconds += s.scatter_seconds;
    t.kernel_seconds += s.kernel_seconds;
    t.gather_seconds += s.gather_seconds;
    t.bytes_to_device += s.bytes_to_device;
    t.bytes_from_device += s.bytes_from_device;
    t.pim_pairs += s.pim_pairs;
    t.pipeline_chunks = std::max(t.pipeline_chunks, s.pipeline_chunks);
    // Shard carving is O(1) sub-views; any copies happen inside a shard's
    // backend run (and are zero since the view migration).
    t.bases_copied += s.bases_copied;
  }
  t.materialized = out.results.size();
  t.cpu_fraction = t.pairs > 0 ? static_cast<double>(t.cpu_pairs) /
                                     static_cast<double>(t.pairs)
                               : 0.0;
  t.wall_seconds = timer.seconds();
  return out;
}

void BatchEngine::wait_idle() { dispatcher_->wait_idle(); }

}  // namespace pimwfa::align
