// Asynchronous batch-submission front-end over any registered backend.
//
// A BatchEngine owns one backend instance plus two long-lived thread
// pools: a dispatcher (one worker per in-flight batch) and a shared
// worker pool handed to every BatchAligner::run call, so per-batch pool
// construction - what the CPU baseline and the PIM simulator used to pay
// on every align_batch - happens once per engine instead. submit() hands
// a batch to the dispatcher and returns at once, with a future or after
// registering a continuation; up to max_in_flight batches execute
// concurrently against the (thread-safe) backend. run_sharded()
// demonstrates the read-mapper-shaped consumer: split one large batch
// into shards, keep them all in flight, and merge the per-shard results
// back in input order.
//
// Lifecycle: construct (backend resolved through the registry by name) ->
// submit()/run_sharded() freely from any thread -> wait_idle() or let the
// destructor drain in-flight batches.
#pragma once

#include <atomic>
#include <exception>
#include <functional>
#include <future>
#include <memory>
#include <string>

#include "align/batch.hpp"

namespace pimwfa::align {

struct BatchEngineOptions {
  std::string backend = "cpu";  // registry key
  BatchOptions batch;
  // Concurrently executing batches (dispatcher workers).
  usize max_in_flight = 2;
  // Shared worker pool passed to every backend run (0 = none: backends
  // fall back to their own per-call policy).
  usize workers = 2;
};

class BatchEngine {
 public:
  // Resolves `options.backend` through backend_registry(); throws
  // InvalidArgument for an unknown name.
  explicit BatchEngine(BatchEngineOptions options);
  // Injects a caller-built backend (tests, custom backends).
  BatchEngine(std::unique_ptr<BatchAligner> backend, usize max_in_flight = 2,
              usize workers = 2);
  // Drains in-flight batches before tearing the pools down.
  ~BatchEngine();

  BatchEngine(const BatchEngine&) = delete;
  BatchEngine& operator=(const BatchEngine&) = delete;

  // A batch's outcome: the backend's result, or a default result and the
  // exception the run threw.
  using Done =
      std::function<void(BatchResult result, std::exception_ptr error)>;

  // Enqueue a batch view for asynchronous alignment; the future carries
  // the backend's BatchResult (or its exception). Zero-copy: the caller's
  // pair storage must stay alive and unmodified until the future
  // resolves. Because that borrow outlives the call, it must be explicit:
  // an owning lvalue set does not convert silently (see the deleted
  // overload) - write submit(seq::ReadPairSpan(set), ...) to borrow, or
  // submit(std::move(set), ...) to hand over ownership.
  //
  // Under PIMWFA_CHECKED_VIEWS the borrow is enforced: the span is
  // validated at dispatch (an already-dangling span throws LifetimeError
  // here, synchronously, with the counters untouched) and again at task
  // start (a borrow that went stale in the async gap surfaces as
  // LifetimeError through the future instead of a use-after-free in the
  // backend).
  std::future<BatchResult> submit(seq::ReadPairSpan batch,
                                  AlignmentScope scope);
  // Continuation form of the borrowing submit, with the same borrow
  // contract and checks: `done` runs on the dispatcher thread right after
  // the backend run returns - exactly once when submit returns normally,
  // never when it throws - so the borrow ends when `done` does. Batches
  // complete in any order. `done` should not throw: in_flight() still
  // drops, but the exception is lost. The future forms ride this path.
  void submit(seq::ReadPairSpan batch, AlignmentScope scope, Done done);
  // Owning overload: moves the set into the in-flight task (no base is
  // copied), so the caller may drop its handle immediately.
  std::future<BatchResult> submit(seq::ReadPairSet&& batch,
                                  AlignmentScope scope);
  // Deleted: an lvalue ReadPairSet would silently become a borrow that
  // must outlive the future - too easy to dangle. Opt in explicitly with
  // ReadPairSpan(set) or hand the set over with std::move(set).
  std::future<BatchResult> submit(const seq::ReadPairSet& batch,
                                  AlignmentScope scope) = delete;
  void submit(const seq::ReadPairSet& batch, AlignmentScope scope,
              Done done) = delete;

  // Split `batch` into `shards` contiguous sub-views (O(1) each - the
  // parent storage is borrowed until the call returns), submit them all
  // (in flight together up to max_in_flight), and merge the results back
  // in input order. Modeled times add up across shards - the shards
  // occupy the same modeled hardware back to back - while wall time
  // reflects the overlapped simulation. Requires fully materialized
  // batches: throws InvalidArgument when the engine's backend was
  // configured with virtual_pairs (a virtual batch cannot be cut into
  // uniform shards).
  //
  // Error path: every in-flight shard is drained before an error is
  // rethrown (first one wins, like ThreadPool::parallel_for) - a failing
  // shard never leaves later shards running against storage this frame
  // no longer guards.
  BatchResult run_sharded(seq::ReadPairSpan batch, AlignmentScope scope,
                          usize shards);

  // Block until every submitted batch has completed, continuation
  // included.
  void wait_idle();

  // Batches submitted but not yet completed. Observability counters, not
  // synchronization: they are updated and read with relaxed ordering (a
  // reader learns the count, never "the batch's results are visible").
  // Completion is published by the future, the continuation or
  // wait_idle(), not by these.
  usize in_flight() const noexcept {
    return in_flight_.load(std::memory_order_relaxed);
  }
  usize submitted() const noexcept {
    return submitted_.load(std::memory_order_relaxed);
  }

  const BatchAligner& backend() const noexcept { return *backend_; }
  std::string backend_name() const { return backend_->name(); }

 private:
  // Shared tail of every submit form: moves the counters and hands the
  // dispatcher a task that runs `run`, then `done` with its outcome.
  // Rolls the counters back when the dispatcher refuses the task
  // (exception safety of submitted_ / in_flight_).
  void enqueue(std::function<BatchResult()> run, Done done);

  std::unique_ptr<BatchAligner> backend_;
  // Nonzero when the registry-constructed backend models virtual batches
  // (unknowable for injected backends); run_sharded refuses those.
  usize backend_virtual_pairs_ = 0;
  // Declaration order doubles as teardown order: the dispatcher (whose
  // tasks use the worker pool) must be destroyed before the workers.
  std::unique_ptr<ThreadPool> workers_;
  std::unique_ptr<ThreadPool> dispatcher_;
  // Relaxed atomics (see in_flight()/submitted()): incremented together
  // in enqueue() before the dispatcher hand-off, decremented by the task
  // once `done` returns - possibly before submit() even returns.
  std::atomic<usize> in_flight_{0};
  std::atomic<usize> submitted_{0};
};

}  // namespace pimwfa::align
