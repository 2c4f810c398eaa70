// lock_rank.hpp — ranked mutexes with a debug-build lock-order validator.
//
// Clang Thread Safety Analysis (thread_annotations.hpp) proves that guarded
// state is only touched under its mutex, but it does not prove the *order*
// in which a thread takes two mutexes — the cross-lock deadlock cycles that
// TSAN's happens-before model also misses (TSAN only flags an inversion it
// happens to interleave). This header closes that gap dynamically: every
// mutex in the concurrency surface is a RankedMutex carrying a compile-time
// LockRank, and in checked builds a thread-local held-rank census
// PAX_CHECK-fails the moment any thread acquires a lock whose rank is not
// strictly above everything it already holds. One run of any multi-threaded
// test then certifies the whole lock graph acyclic — no lucky interleaving
// required.
//
// The rank table (DESIGN.md §11 — lower rank = acquired earlier / outermost):
//
//   rank  name      mutex                                 nests inside
//   ----  --------  ------------------------------------  -------------------
//   0     control   ShardedExecutive::control_mu_         (outermost; guards
//                   (census + sweep control plane)         the core + census)
//   1     job       pool::detail::Job::mu                 nothing ranked
//   2     queue     sched::LocalRunQueue::mu_             job (the finalize
//                                                         path's peak probe)
//   3     pool      pool::detail::PoolCtl::mu             nothing ranked
//   4     sleep     pool::PoolRuntime::wd_mu_             nothing ranked
//                   (the watchdog's sleep mutex)
//
// Ranking job *below* queue (and below pool, above control) is what makes
// the validator teeth match the documented pool discipline: an executive
// call under a job mutex (control < job) and a job mutex under the pool
// mutex (job < pool) both abort on first execution.
//
// Rules for adding a lock: give it the highest rank consistent with every
// path that holds it together with another lock; same-rank acquisition is
// forbidden unless every site orders the locks by a global criterion (say,
// ascending index) and says so by passing kSameRank.
//
// Cost model: checks are on when PAX_LOCK_RANK_CHECKS is 1, which defaults
// to !NDEBUG. In release builds RankedMutex::lock()/unlock() compile down to
// std::mutex::lock()/unlock() — no branches, no thread-local traffic — and
// RankedMutex is layout-identical to std::mutex (static_assert below, plus
// tests/test_lock_rank.cpp). The validator state is thread-local and global,
// NOT per-mutex, so the checked build adds no memory to any lock either.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <mutex>

#include "common/check.hpp"
#include "common/thread_annotations.hpp"

// Checked by default exactly when PAX_DCHECK is (debug builds); force with
// -DPAX_LOCK_RANK_CHECKS=0/1. Must be consistent across every TU of a binary
// (the CMake build sets nothing, so it always is).
#ifndef PAX_LOCK_RANK_CHECKS
#ifdef NDEBUG
#define PAX_LOCK_RANK_CHECKS 0
#else
#define PAX_LOCK_RANK_CHECKS 1
#endif
#endif

namespace pax {

/// The global acquisition order. A thread may only acquire a mutex whose
/// rank is strictly greater than every rank it currently holds (>= with
/// kSameRank). Values are indices into the held-count table.
enum class LockRank : std::uint8_t {
  kControl = 0,  ///< sharded-executive control plane (census + sweeps)
  kJob = 1,      ///< pool job bookkeeping
  kQueue = 2,    ///< per-worker local run-queue ring
  kPool = 3,     ///< pool runnable list + worker accounting
  kSleep = 4,    ///< watchdog sleep mutex (held alone)
};

/// Tag for deliberate same-rank acquisition (a batch of same-rank locks
/// taken in ascending index order, which is itself a total order).
struct SameRankT {
  explicit SameRankT() = default;
};
inline constexpr SameRankT kSameRank{};

namespace lock_rank {

inline constexpr bool kChecksEnabled = PAX_LOCK_RANK_CHECKS != 0;
inline constexpr std::size_t kNumRanks = 5;

[[nodiscard]] constexpr const char* name(LockRank r) {
  switch (r) {
    case LockRank::kControl: return "control";
    case LockRank::kQueue: return "queue";
    case LockRank::kJob: return "job";
    case LockRank::kPool: return "pool";
    case LockRank::kSleep: return "sleep";
  }
  return "?";
}

/// Per-thread census of held locks by rank. Counts (not a stack of
/// identities) so a thread may hold arbitrarily many same-rank locks after
/// opting in with kSameRank, and may release in any order (a batch may be
/// unlocked front-to-back, not LIFO).
struct HeldCensus {
  std::uint32_t count[kNumRanks] = {};

  [[nodiscard]] std::int32_t highest_held() const {
    for (std::size_t r = kNumRanks; r-- > 0;)
      if (count[r] != 0) return static_cast<std::int32_t>(r);
    return -1;
  }
};

inline thread_local HeldCensus tl_held;

/// Validator primitives. Always compiled (tests/test_lock_rank.cpp
/// exercises the abort paths in every build type); RankedMutex only calls
/// them when kChecksEnabled.
inline void note_acquire(LockRank r, bool same_rank_ok) {
  HeldCensus& h = tl_held;
  const std::int32_t top = h.highest_held();
  const std::int32_t mine = static_cast<std::int32_t>(r);
  if (top >= 0 && (mine < top || (mine == top && !same_rank_ok))) {
    std::fprintf(stderr,
                 "PAX lock-rank violation: acquiring '%s' (rank %d) while "
                 "holding '%s' (rank %d)%s\n",
                 name(r), mine, name(static_cast<LockRank>(top)), top,
                 mine == top ? " without kSameRank" : "");
    std::abort();
  }
  ++h.count[static_cast<std::size_t>(r)];
}

inline void note_release(LockRank r) {
  HeldCensus& h = tl_held;
  PAX_CHECK_MSG(h.count[static_cast<std::size_t>(r)] != 0,
                "lock-rank release of a rank this thread does not hold");
  --h.count[static_cast<std::size_t>(r)];
}

/// This thread's held count at `r` (test introspection).
[[nodiscard]] inline std::uint32_t held(LockRank r) {
  return tl_held.count[static_cast<std::size_t>(r)];
}

}  // namespace lock_rank

/// std::mutex with a compile-time rank. BasicLockable, so it works directly
/// with std::condition_variable_any (the runtimes' sleep paths); lock sites
/// use the RankedLock / RankedUniqueLock guards below so Clang TSA sees the
/// acquire/release pairs.
template <LockRank Rank>
class PAX_CAPABILITY("mutex") RankedMutex {
 public:
  static constexpr LockRank kRank = Rank;

  RankedMutex() = default;
  RankedMutex(const RankedMutex&) = delete;
  RankedMutex& operator=(const RankedMutex&) = delete;

  void lock() PAX_ACQUIRE() {
    // Check BEFORE blocking: an inversion must abort with its diagnostic,
    // not deadlock silently inside std::mutex::lock.
    if constexpr (lock_rank::kChecksEnabled)
      lock_rank::note_acquire(Rank, /*same_rank_ok=*/false);
    mu_.lock();
  }
  void lock(SameRankT) PAX_ACQUIRE() {
    if constexpr (lock_rank::kChecksEnabled)
      lock_rank::note_acquire(Rank, /*same_rank_ok=*/true);
    mu_.lock();
  }
  /// Non-blocking acquire. The rank census is entered only on success, and a
  /// successful out-of-rank try still aborts in checked builds: a try cannot
  /// deadlock, but the lock graph must stay acyclic for every blocking path
  /// that holds the same pair.
  [[nodiscard]] bool try_lock() PAX_TRY_ACQUIRE(true) {
    if (!mu_.try_lock()) return false;
    if constexpr (lock_rank::kChecksEnabled)
      lock_rank::note_acquire(Rank, /*same_rank_ok=*/false);
    return true;
  }
  void unlock() PAX_RELEASE() {
    mu_.unlock();
    if constexpr (lock_rank::kChecksEnabled) lock_rank::note_release(Rank);
  }

 private:
  std::mutex mu_;
};

// Zero-cost claim, layout half: the rank and the validator state live in the
// type and a thread-local — never in the mutex. (The codegen half — release
// lock() is a plain std::mutex::lock() — is pinned by test_lock_rank.)
static_assert(sizeof(RankedMutex<LockRank::kControl>) == sizeof(std::mutex),
              "RankedMutex must add nothing to std::mutex");

/// Annotated scope guard (std::scoped_lock equivalent). Use for every plain
/// critical section; Clang TSA cannot see through libstdc++'s guards.
template <class Mutex>
class PAX_SCOPED_CAPABILITY RankedLock {
 public:
  explicit RankedLock(Mutex& mu) PAX_ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  RankedLock(Mutex& mu, SameRankT tag) PAX_ACQUIRE(mu) : mu_(mu) {
    mu_.lock(tag);
  }
  ~RankedLock() PAX_RELEASE() { mu_.unlock(); }

  RankedLock(const RankedLock&) = delete;
  RankedLock& operator=(const RankedLock&) = delete;

 private:
  Mutex& mu_;
};

/// Annotated try-lock scope guard (std::unique_lock with std::defer_lock,
/// then try_lock()): constructed unlocked; try_lock() attempts the
/// acquisition and the destructor releases only what was acquired. Branch on
/// try_lock() directly so Clang TSA sees which arm holds the mutex.
template <class Mutex>
class PAX_SCOPED_CAPABILITY RankedTryLock {
 public:
  explicit RankedTryLock(Mutex& mu) PAX_EXCLUDES(mu) : mu_(mu) {}
  ~RankedTryLock() PAX_RELEASE() {
    if (owned_) mu_.unlock();
  }

  [[nodiscard]] bool try_lock() PAX_TRY_ACQUIRE(true) {
    owned_ = mu_.try_lock();
    return owned_;
  }

  RankedTryLock(const RankedTryLock&) = delete;
  RankedTryLock& operator=(const RankedTryLock&) = delete;

 private:
  Mutex& mu_;
  bool owned_ = false;
};

/// Annotated condition-wait guard (std::unique_lock equivalent): exposes
/// lock()/unlock() for std::condition_variable_any, which releases and
/// reacquires through these methods — so rank accounting and TSA stay
/// coherent across a wait.
template <class Mutex>
class PAX_SCOPED_CAPABILITY RankedUniqueLock {
 public:
  explicit RankedUniqueLock(Mutex& mu) PAX_ACQUIRE(mu) : mu_(mu) {
    mu_.lock();
  }
  ~RankedUniqueLock() PAX_RELEASE() {
    if (owned_) mu_.unlock();
  }

  void lock() PAX_ACQUIRE() {
    mu_.lock();
    owned_ = true;
  }
  void unlock() PAX_RELEASE() {
    mu_.unlock();
    owned_ = false;
  }

  RankedUniqueLock(const RankedUniqueLock&) = delete;
  RankedUniqueLock& operator=(const RankedUniqueLock&) = delete;

 private:
  Mutex& mu_;
  bool owned_ = true;
};

}  // namespace pax
