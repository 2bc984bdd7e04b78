#ifndef SIMDB_COMMON_THREAD_ANNOTATIONS_H_
#define SIMDB_COMMON_THREAD_ANNOTATIONS_H_

#include <chrono>
#include <condition_variable>
#include <mutex>

#include "analysis/lock_rank.h"

// Clang thread-safety annotations plus the project's annotated mutex
// wrappers. All engine locking goes through simdb::Mutex / simdb::SharedMutex
// and the scoped locks below (simdb_lint forbids raw std::mutex outside this
// header); in return every guarded member is provable at compile time by
// clang's -Wthread-safety (CI "thread-safety" job, errors) and every
// acquisition is rank-checked at runtime by the lock-rank deadlock detector
// in debug/sanitizer builds (src/analysis/lock_rank.h). Under GCC the
// attributes expand to nothing and the wrappers are plain pass-throughs.
//
// Usage guide (see docs/ANALYSIS.md, "Concurrency analysis"):
//   simdb::Mutex mu_{lockrank::Rank::kThreadPool, "ThreadPool::mu_"};
//   std::deque<Task> queue_ SIMDB_GUARDED_BY(mu_);
//   void LaunchLocked() SIMDB_REQUIRES(mu_);  // caller holds mu_
//   void Submit(Task t) SIMDB_EXCLUDES(mu_);  // caller must NOT hold mu_
// Condvar waits use the loop form (clang analyzes predicate lambdas as
// separate functions, so `cv.wait(lock, pred)` trips the analysis):
//   while (!shutdown_ && queue_.empty()) work_cv_.Wait(lock);

#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(capability)
#define SIMDB_THREAD_ANNOTATION(x) __attribute__((x))
#endif
#endif
#ifndef SIMDB_THREAD_ANNOTATION
#define SIMDB_THREAD_ANNOTATION(x)  // no-op outside clang
#endif

#define SIMDB_CAPABILITY(x) SIMDB_THREAD_ANNOTATION(capability(x))
#define SIMDB_SCOPED_CAPABILITY SIMDB_THREAD_ANNOTATION(scoped_lockable)
#define SIMDB_GUARDED_BY(x) SIMDB_THREAD_ANNOTATION(guarded_by(x))
#define SIMDB_PT_GUARDED_BY(x) SIMDB_THREAD_ANNOTATION(pt_guarded_by(x))
#define SIMDB_REQUIRES(...) \
  SIMDB_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
#define SIMDB_REQUIRES_SHARED(...) \
  SIMDB_THREAD_ANNOTATION(requires_shared_capability(__VA_ARGS__))
#define SIMDB_EXCLUDES(...) \
  SIMDB_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))
#define SIMDB_ACQUIRE(...) \
  SIMDB_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define SIMDB_ACQUIRE_SHARED(...) \
  SIMDB_THREAD_ANNOTATION(acquire_shared_capability(__VA_ARGS__))
#define SIMDB_RELEASE(...) \
  SIMDB_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
#define SIMDB_RELEASE_SHARED(...) \
  SIMDB_THREAD_ANNOTATION(release_shared_capability(__VA_ARGS__))
#define SIMDB_TRY_ACQUIRE(...) \
  SIMDB_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))
#define SIMDB_ASSERT_CAPABILITY(x) \
  SIMDB_THREAD_ANNOTATION(assert_capability(x))
#define SIMDB_RETURN_CAPABILITY(x) SIMDB_THREAD_ANNOTATION(lock_returned(x))
#define SIMDB_NO_THREAD_SAFETY_ANALYSIS \
  SIMDB_THREAD_ANNOTATION(no_thread_safety_analysis)

// Lock-rank checks are on whenever the build defines SIMDB_LOCK_RANK
// (debug/RelWithDebInfo and all sanitizer builds — set project-wide by the
// top-level CMakeLists so inline functions see one definition everywhere).
// Release builds compile the hooks out; CI's release job verifies no
// lockrank symbol survives in the binaries.
#if defined(SIMDB_LOCK_RANK)
#define SIMDB_LOCK_RANK_CHECKS 1
#else
#define SIMDB_LOCK_RANK_CHECKS 0
#endif

namespace simdb {

/// Rank-checked, capability-annotated mutex. Construct with the lock's rank
/// from the registry and a stable diagnostic name.
class SIMDB_CAPABILITY("mutex") Mutex {
 public:
  explicit Mutex(lockrank::Rank rank, const char* name)
      : rank_(static_cast<int>(rank)), name_(name) {}
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() SIMDB_ACQUIRE() {
#if SIMDB_LOCK_RANK_CHECKS
    lockrank::OnAcquire(rank_, name_, this);
#endif
    mu_.lock();
  }

  bool TryLock() SIMDB_TRY_ACQUIRE(true) {
    if (!mu_.try_lock()) return false;
#if SIMDB_LOCK_RANK_CHECKS
    // A successful try_lock still extends the held stack; rank-check it so
    // polling loops cannot smuggle in an inversion. (It cannot deadlock by
    // itself, but the ordering discipline is what the detector proves.)
    lockrank::OnAcquire(rank_, name_, this);
#endif
    return true;
  }

  void Unlock() SIMDB_RELEASE() {
    mu_.unlock();
#if SIMDB_LOCK_RANK_CHECKS
    lockrank::OnRelease(this);
#endif
  }

  int rank() const { return rank_; }
  const char* name() const { return name_; }

 private:
  friend class CondVar;
  std::mutex mu_;  // simdb-lint: raw-mutex-ok (the wrapper itself)
  const int rank_;
  const char* const name_;
};

/// Rank-checked reader/writer mutex (core::QueryProcessor engine state).
/// Writer-preferring: once a writer waits, new readers queue behind it, so a
/// stream of overlapping readers cannot starve Insert or DDL (glibc's
/// std::shared_mutex prefers readers). The price: a thread holding the lock
/// shared must never take it shared again, or it waits behind a writer that
/// waits for it. The engine's only shared acquisition is ExecuteConcurrent's
/// (src/core/query_processor.cc), and nothing inside a query takes the lock
/// again.
class SIMDB_CAPABILITY("shared_mutex") SharedMutex {
 public:
  explicit SharedMutex(lockrank::Rank rank, const char* name)
      : rank_(static_cast<int>(rank)), name_(name) {}
  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  void Lock() SIMDB_ACQUIRE() {
#if SIMDB_LOCK_RANK_CHECKS
    lockrank::OnAcquire(rank_, name_, this);
#endif
    std::unique_lock<std::mutex> lock(mu_);  // simdb-lint: raw-mutex-ok (the wrapper itself)
    ++waiting_writers_;
    while (writer_ || readers_ > 0) {
      cv_.wait(lock);  // simdb-lint: bare-cv-wait-ok (the primitive itself; the loop re-checks)
    }
    --waiting_writers_;
    writer_ = true;
  }
  void Unlock() SIMDB_RELEASE() {
    {
      std::lock_guard<std::mutex> lock(mu_);  // simdb-lint: raw-mutex-ok (the wrapper itself)
      writer_ = false;
    }
    cv_.notify_all();
#if SIMDB_LOCK_RANK_CHECKS
    lockrank::OnRelease(this);
#endif
  }
  void LockShared() SIMDB_ACQUIRE_SHARED() {
#if SIMDB_LOCK_RANK_CHECKS
    lockrank::OnAcquire(rank_, name_, this);
#endif
    std::unique_lock<std::mutex> lock(mu_);  // simdb-lint: raw-mutex-ok (the wrapper itself)
    ++waiting_readers_;
    while (writer_ || waiting_writers_ > 0) {
      cv_.wait(lock);  // simdb-lint: bare-cv-wait-ok (the primitive itself; the loop re-checks)
    }
    --waiting_readers_;
    ++readers_;
  }
  void UnlockShared() SIMDB_RELEASE_SHARED() {
    bool last = false;
    {
      std::lock_guard<std::mutex> lock(mu_);  // simdb-lint: raw-mutex-ok (the wrapper itself)
      last = --readers_ == 0;
    }
    if (last) cv_.notify_all();
#if SIMDB_LOCK_RANK_CHECKS
    lockrank::OnRelease(this);
#endif
  }

  /// Threads blocked in Lock() / LockShared(). They let a test order a
  /// reader behind a waiting writer without sleeping.
  int waiting_writers() const {
    std::lock_guard<std::mutex> lock(mu_);  // simdb-lint: raw-mutex-ok (the wrapper itself)
    return waiting_writers_;
  }
  int waiting_readers() const {
    std::lock_guard<std::mutex> lock(mu_);  // simdb-lint: raw-mutex-ok (the wrapper itself)
    return waiting_readers_;
  }

 private:
  mutable std::mutex mu_;  // simdb-lint: raw-mutex-ok (the wrapper itself)
  std::condition_variable cv_;  // simdb-lint: raw-mutex-ok (the wrapper itself)
  int readers_ = 0;  // holders of the shared lock
  bool writer_ = false;
  int waiting_writers_ = 0;
  int waiting_readers_ = 0;
  const int rank_;
  const char* const name_;
};

/// RAII exclusive lock over simdb::Mutex (the project's lock_guard /
/// unique_lock). Supports early Unlock()/relock for condvar-style code.
class SIMDB_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) SIMDB_ACQUIRE(mu) : mu_(mu) { mu_.Lock(); }
  ~MutexLock() SIMDB_RELEASE() {
    if (held_) mu_.Unlock();
  }
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

  void Unlock() SIMDB_RELEASE() {
    mu_.Unlock();
    held_ = false;
  }
  void Lock() SIMDB_ACQUIRE() {
    mu_.Lock();
    held_ = true;
  }

 private:
  friend class CondVar;
  Mutex& mu_;
  bool held_ = true;
};

/// RAII exclusive lock over SharedMutex (writer side).
class SIMDB_SCOPED_CAPABILITY WriterLock {
 public:
  explicit WriterLock(SharedMutex& mu) SIMDB_ACQUIRE(mu) : mu_(mu) {
    mu_.Lock();
  }
  ~WriterLock() SIMDB_RELEASE() { mu_.Unlock(); }
  WriterLock(const WriterLock&) = delete;
  WriterLock& operator=(const WriterLock&) = delete;

 private:
  SharedMutex& mu_;
};

/// RAII shared lock over SharedMutex (reader side).
class SIMDB_SCOPED_CAPABILITY ReaderLock {
 public:
  explicit ReaderLock(SharedMutex& mu) SIMDB_ACQUIRE_SHARED(mu) : mu_(mu) {
    mu_.LockShared();
  }
  ~ReaderLock() SIMDB_RELEASE() { mu_.UnlockShared(); }
  ReaderLock(const ReaderLock&) = delete;
  ReaderLock& operator=(const ReaderLock&) = delete;

 private:
  SharedMutex& mu_;
};

/// Condition variable bound to simdb::Mutex via MutexLock. Waits take the
/// scoped lock (not the mutex) so the annotated lock state stays balanced,
/// and use the explicit loop form:
///   while (!predicate) cv.Wait(lock);
/// The wait releases the rank entry while blocked and re-checks it on
/// wakeup, so a wait never holds a rank slot it does not hold a lock for.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  // Contract: the caller holds `lock` (checked at runtime by the rank
  // hooks). Not expressed as SIMDB_REQUIRES(lock.mu_): clang's analysis
  // cannot prove the scoped lock's mu_ field aliases the caller's held
  // mutex (it does not track the MutexLock constructor binding), so the
  // annotation would reject every correct call site. The guarded predicate
  // reads in the caller's `while` loop remain fully checked.
  void Wait(MutexLock& lock) SIMDB_NO_THREAD_SAFETY_ANALYSIS {
#if SIMDB_LOCK_RANK_CHECKS
    lockrank::OnRelease(&lock.mu_);
#endif
    std::unique_lock<std::mutex> adapter(lock.mu_.mu_, std::adopt_lock);
    cv_.wait(adapter);  // simdb-lint: bare-cv-wait-ok (the primitive itself; callers loop)
    adapter.release();
#if SIMDB_LOCK_RANK_CHECKS
    lockrank::OnAcquire(lock.mu_.rank(), lock.mu_.name(), &lock.mu_);
#endif
  }

  /// Timed wait; returns false on timeout (predicate loop re-checks).
  /// Same holds-the-lock contract (and same annotation caveat) as Wait.
  template <typename Clock, typename Duration>
  bool WaitUntil(MutexLock& lock,
                 const std::chrono::time_point<Clock, Duration>& deadline)
      SIMDB_NO_THREAD_SAFETY_ANALYSIS {
#if SIMDB_LOCK_RANK_CHECKS
    lockrank::OnRelease(&lock.mu_);
#endif
    std::unique_lock<std::mutex> adapter(lock.mu_.mu_, std::adopt_lock);
    bool no_timeout = cv_.wait_until(adapter, deadline) ==
                      std::cv_status::no_timeout;
    adapter.release();
#if SIMDB_LOCK_RANK_CHECKS
    lockrank::OnAcquire(lock.mu_.rank(), lock.mu_.name(), &lock.mu_);
#endif
    return no_timeout;
  }

  template <typename Rep, typename Period>
  bool WaitFor(MutexLock& lock,
               const std::chrono::duration<Rep, Period>& timeout)
      SIMDB_NO_THREAD_SAFETY_ANALYSIS {
    return WaitUntil(lock, std::chrono::steady_clock::now() + timeout);
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;  // simdb-lint: raw-mutex-ok (the wrapper)
};

}  // namespace simdb

#endif  // SIMDB_COMMON_THREAD_ANNOTATIONS_H_
