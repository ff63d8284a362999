// Clang thread-safety-analysis capability annotations plus the one
// blessed mutex surface of the codebase.
//
// Every mutex-protected structure in pimwfa locks through the wrappers
// below - Mutex (an annotated capability), MutexLock (the only way to
// acquire it; scoped, RAII) and CondVar (condition waits against a held
// MutexLock) - and declares *what* each mutex protects with
// PIMWFA_GUARDED_BY / PIMWFA_REQUIRES. On Clang the annotations turn the
// locking rules into compile errors (-Wthread-safety -Werror in the CI
// static-analysis job): reading a guarded member without the lock,
// calling a REQUIRES function unlocked, or double-acquiring a capability
// all fail the build instead of waiting for a TSan interleaving. On GCC
// (the default local toolchain) every macro expands to nothing and the
// wrappers compile down to std::mutex / std::unique_lock exactly.
//
// Discipline, enforced by tools/lint_invariants.py over src/:
//   - no raw std::mutex / std::condition_variable outside this header;
//   - no naked .lock()/.unlock()/.try_lock() calls anywhere - acquisition
//     is MutexLock's constructor, release is its destructor. A region
//     that must run unlocked (blocking on a future, handing a batch to
//     the engine) is expressed as lock.unlocked([&] { ... }), which
//     restores the lock even on exception.
//
// Annotation conventions for new mutex-protected code:
//   - declare the Mutex member first, then every protected member with
//     PIMWFA_GUARDED_BY(mutex_) at the end of its declarator;
//   - private helpers that assume the lock take PIMWFA_REQUIRES(mutex_);
//   - condition-variable predicates run with the lock held but are
//     analyzed as standalone lambdas, so they open with
//     mutex_.assert_held() to re-establish the capability in that scope;
//   - state published across threads without a lock must be std::atomic
//     with an explicit, commented memory order.
#pragma once

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <utility>

// GNU-style attributes; Clang defines the thread-safety set, GCC does
// not, so the macros vanish there (and with them every check).
#if defined(__clang__)
#define PIMWFA_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define PIMWFA_THREAD_ANNOTATION(x)
#endif

// A type that acts as a lockable capability ("mutex" names the kind in
// diagnostics).
#define PIMWFA_CAPABILITY(x) PIMWFA_THREAD_ANNOTATION(capability(x))
// A RAII type whose constructor acquires and destructor releases.
#define PIMWFA_SCOPED_CAPABILITY PIMWFA_THREAD_ANNOTATION(scoped_lockable)
// Data member: may only be read/written while holding `x`.
#define PIMWFA_GUARDED_BY(x) PIMWFA_THREAD_ANNOTATION(guarded_by(x))
// Pointer member: the pointee (not the pointer) is protected by `x`.
#define PIMWFA_PT_GUARDED_BY(x) PIMWFA_THREAD_ANNOTATION(pt_guarded_by(x))
// Function: caller must hold the capability on entry (and still on exit).
#define PIMWFA_REQUIRES(...) \
  PIMWFA_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
// Function: caller must NOT hold the capability (deadlock guard for
// public entry points that lock internally).
#define PIMWFA_EXCLUDES(...) \
  PIMWFA_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))
// Function: acquires / releases the capability (MutexLock internals).
#define PIMWFA_ACQUIRE(...) \
  PIMWFA_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define PIMWFA_RELEASE(...) \
  PIMWFA_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
#define PIMWFA_TRY_ACQUIRE(...) \
  PIMWFA_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))
// Lock-order declarations (deadlock analysis).
#define PIMWFA_ACQUIRED_BEFORE(...) \
  PIMWFA_THREAD_ANNOTATION(acquired_before(__VA_ARGS__))
#define PIMWFA_ACQUIRED_AFTER(...) \
  PIMWFA_THREAD_ANNOTATION(acquired_after(__VA_ARGS__))
// Assertion that the capability is held in this scope (no runtime
// effect); the escape hatch for contexts the analysis cannot follow,
// e.g. condition-variable predicates.
#define PIMWFA_ASSERT_CAPABILITY(x) \
  PIMWFA_THREAD_ANNOTATION(assert_capability(x))
// Last resort: skip analysis of one function entirely. Every use must
// carry a comment saying why the analysis cannot see the invariant.
#define PIMWFA_NO_THREAD_SAFETY_ANALYSIS \
  PIMWFA_THREAD_ANNOTATION(no_thread_safety_analysis)

namespace pimwfa {

class MutexLock;
class CondVar;

// The project's mutex: std::mutex carrying the capability annotation.
// Deliberately *not* BasicLockable - there is no public lock()/unlock() -
// so the only way to hold it is a MutexLock on the stack, and naked
// unlock-without-relock bugs are unrepresentable.
class PIMWFA_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  // Tells the analysis the capability is held in the current scope
  // without touching the mutex. For condition-variable predicates (run
  // by CondVar::wait with the lock held, but analyzed as standalone
  // lambdas) and equivalent callback contexts only - asserting a lock
  // that is not actually held voids every guarantee the analysis makes.
  void assert_held() const PIMWFA_ASSERT_CAPABILITY(this) {}

 private:
  friend class MutexLock;
  std::mutex raw_;
};

// RAII acquisition of a Mutex; the only sanctioned way to lock one.
class PIMWFA_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mutex) PIMWFA_ACQUIRE(mutex)
      : lock_(mutex.raw_) {}
  ~MutexLock() PIMWFA_RELEASE() {}

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

  // Runs `body` with the mutex released, reacquiring before returning -
  // including on exception - so the surrounding scope's "locked"
  // invariant survives. This is the shape of the service's hand-off to
  // the engine: the body must not touch any state guarded by this mutex,
  // which the analysis cannot check across the gap (it models the
  // capability as continuously held, the same abstraction it applies to
  // condition-variable waits).
  template <typename Body>
  auto unlocked(Body&& body) {
    lock_.unlock();
    Relock relock{lock_};
    return std::forward<Body>(body)();
  }

 private:
  friend class CondVar;

  struct Relock {
    std::unique_lock<std::mutex>& lock;
    ~Relock() { lock.lock(); }
  };

  std::unique_lock<std::mutex> lock_;
};

// Condition variable that waits against a held MutexLock. Waits atomically
// release and reacquire the mutex; the analysis models the capability as
// held throughout, which is exactly the invariant the predicate runs
// under - predicates re-establish it explicitly with
// mutex_.assert_held() because they are analyzed as standalone lambdas.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void notify_one() noexcept { cv_.notify_one(); }
  void notify_all() noexcept { cv_.notify_all(); }

  template <typename Predicate>
  void wait(MutexLock& lock, Predicate predicate) {
    cv_.wait(lock.lock_, std::move(predicate));
  }

  template <typename Clock, typename Duration, typename Predicate>
  bool wait_until(MutexLock& lock,
                  const std::chrono::time_point<Clock, Duration>& deadline,
                  Predicate predicate) {
    return cv_.wait_until(lock.lock_, deadline, std::move(predicate));
  }

 private:
  std::condition_variable cv_;
};

}  // namespace pimwfa
