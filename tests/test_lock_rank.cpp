// Lock-rank validator tests (common/lock_rank.hpp).
//
// Three layers:
//   1. the validator primitives (note_acquire / note_release) — always
//      compiled, so the abort paths are death-tested in every build type,
//      including the RelWithDebInfo tier-1 configuration;
//   2. RankedMutex / RankedLock wiring — death-tested when the checks are
//      enabled (debug builds), and *proven absent* when they are not: the
//      same inversion that aborts a checked build must run cleanly in a
//      release build, which pins the zero-cost claim's codegen half;
//   3. the annotated guard helpers under real concurrency — a seeded
//      threaded + pool run with enough shards, workers and stealing to push
//      traffic through every re-scoped critical section (sharded sweeps,
//      queue steals, job finalize, pool accounting). This
//      suite runs in the TSAN CI matrix, so the RankedLock/RankedUniqueLock
//      rewrite is also checked against the happens-before model.
#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <thread>

#include "common/lock_rank.hpp"
#include "testing_util.hpp"

namespace pax {
namespace {

using lock_rank::held;
using lock_rank::note_acquire;
using lock_rank::note_release;

// The zero-cost claim, layout half: the rank lives in the type, the
// validator census in a thread-local — never in the mutex.
static_assert(sizeof(RankedMutex<LockRank::kControl>) == sizeof(std::mutex));
static_assert(sizeof(RankedMutex<LockRank::kSleep>) == sizeof(std::mutex));

// Checks default to !NDEBUG (the tier-1 RelWithDebInfo build runs with them
// off; the Debug CI leg runs with them on) unless forced via the macro.
#ifdef NDEBUG
constexpr bool kExpectChecks = PAX_LOCK_RANK_CHECKS != 0;
#else
constexpr bool kExpectChecks = true;
#endif
static_assert(lock_rank::kChecksEnabled == kExpectChecks);

// --- validator primitives (always compiled) ----------------------------------

TEST(LockRankPrimitives, AscendingAcquisitionIsClean) {
  note_acquire(LockRank::kControl, /*same_rank_ok=*/false);
  note_acquire(LockRank::kJob, /*same_rank_ok=*/false);
  note_acquire(LockRank::kQueue, /*same_rank_ok=*/false);
  EXPECT_EQ(held(LockRank::kControl), 1u);
  EXPECT_EQ(held(LockRank::kJob), 1u);
  EXPECT_EQ(held(LockRank::kQueue), 1u);
  // Non-LIFO release is legal: a batch may unlock front-to-back.
  note_release(LockRank::kControl);
  note_release(LockRank::kQueue);
  note_release(LockRank::kJob);
  EXPECT_EQ(held(LockRank::kJob), 0u);
}

TEST(LockRankPrimitives, SameRankBatchWithTagIsClean) {
  // A batch freeze: control, then every same-rank lock in ascending index
  // order under the kSameRank waiver.
  note_acquire(LockRank::kControl, false);
  note_acquire(LockRank::kQueue, false);
  note_acquire(LockRank::kQueue, /*same_rank_ok=*/true);
  note_acquire(LockRank::kQueue, /*same_rank_ok=*/true);
  EXPECT_EQ(held(LockRank::kQueue), 3u);
  note_release(LockRank::kQueue);
  note_release(LockRank::kQueue);
  note_release(LockRank::kQueue);
  note_release(LockRank::kControl);
}

TEST(LockRankPrimitivesDeathTest, InversionAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        note_acquire(LockRank::kPool, false);
        note_acquire(LockRank::kJob, false);  // job < pool: inversion
      },
      "lock-rank violation.*'job'.*'pool'");
}

TEST(LockRankPrimitivesDeathTest, ExecutiveLockUnderJobMutexAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  // The documented pool rule "never hold a job mutex across executive
  // calls", as the validator sees it.
  EXPECT_DEATH(
      {
        note_acquire(LockRank::kJob, false);
        note_acquire(LockRank::kControl, false);
      },
      "lock-rank violation.*'control'.*'job'");
}

TEST(LockRankPrimitivesDeathTest, SameRankWithoutTagAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        note_acquire(LockRank::kQueue, false);
        note_acquire(LockRank::kQueue, false);
      },
      "without kSameRank");
}

TEST(LockRankPrimitivesDeathTest, ReleasingUnheldRankAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(note_release(LockRank::kSleep),
               "release of a rank this thread does not hold");
}

// --- RankedMutex wiring ------------------------------------------------------

TEST(RankedMutex, CheckedBuildsTrackHeldRanksThroughGuards) {
  RankedMutex<LockRank::kControl> control;
  RankedMutex<LockRank::kJob> job;
  {
    RankedLock outer(control);
    RankedLock inner(job);
    if (lock_rank::kChecksEnabled) {
      EXPECT_EQ(held(LockRank::kControl), 1u);
      EXPECT_EQ(held(LockRank::kJob), 1u);
    } else {
      // Zero-cost claim: release-build guards never touch the census.
      EXPECT_EQ(held(LockRank::kControl), 0u);
      EXPECT_EQ(held(LockRank::kJob), 0u);
    }
  }
  EXPECT_EQ(held(LockRank::kControl), 0u);
  EXPECT_EQ(held(LockRank::kJob), 0u);
}

TEST(RankedMutex, UniqueLockBalancesAcrossManualUnlockRelock) {
  // The condition_variable_any wait path: unlock then relock through the
  // guard's own methods, keeping the census balanced.
  RankedMutex<LockRank::kSleep> mu;
  RankedUniqueLock lock(mu);
  lock.unlock();
  EXPECT_EQ(held(LockRank::kSleep), 0u);
  lock.lock();
  EXPECT_EQ(held(LockRank::kSleep), lock_rank::kChecksEnabled ? 1u : 0u);
}

TEST(RankedMutexDeathTest, InversionThroughGuardsAbortsWhenChecked) {
  if (!lock_rank::kChecksEnabled) {
    // Release build: the identical inversion must run to completion —
    // RankedMutex::lock() compiled down to std::mutex::lock() with no
    // validator call. (Two distinct mutexes, so no deadlock either.)
    RankedMutex<LockRank::kSleep> sleep_mu;
    RankedMutex<LockRank::kControl> control_mu;
    RankedLock outer(sleep_mu);
    RankedLock inner(control_mu);
    SUCCEED();
    return;
  }
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        RankedMutex<LockRank::kSleep> sleep_mu;
        RankedMutex<LockRank::kControl> control_mu;
        RankedLock outer(sleep_mu);
        RankedLock inner(control_mu);
      },
      "lock-rank violation.*'control'.*'sleep'");
}

TEST(RankedMutexDeathTest, SameRankGuardWithoutTagAbortsWhenChecked) {
  if (!lock_rank::kChecksEnabled) {
    GTEST_SKIP() << "rank checks compiled out in this build";
  }
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        RankedMutex<LockRank::kQueue> a;
        RankedMutex<LockRank::kQueue> b;
        RankedLock la(a);
        RankedLock lb(b);  // no kSameRank tag
      },
      "without kSameRank");
}

TEST(RankedMutex, SameRankGuardWithTagIsClean) {
  RankedMutex<LockRank::kQueue> a;
  RankedMutex<LockRank::kQueue> b;
  RankedLock la(a);
  RankedLock lb(b, kSameRank);
  if (lock_rank::kChecksEnabled) {
    EXPECT_EQ(held(LockRank::kQueue), 2u);
  }
}

// --- try_lock (the non-blocking sweep entry) ----------------------------------

/// Holds `mu` on a second thread from construction until destruction, so the
/// calling thread's try_lock is refused without touching its own census.
class HeldElsewhere {
 public:
  explicit HeldElsewhere(RankedMutex<LockRank::kControl>& mu)
      : holder_([this, &mu] {
          RankedLock lock(mu);
          locked_.store(true);
          while (!release_.load()) std::this_thread::yield();
        }) {
    while (!locked_.load()) std::this_thread::yield();
  }
  ~HeldElsewhere() {
    release_.store(true);
    holder_.join();
  }
  HeldElsewhere(const HeldElsewhere&) = delete;
  HeldElsewhere& operator=(const HeldElsewhere&) = delete;

 private:
  std::atomic<bool> locked_{false};
  std::atomic<bool> release_{false};
  std::thread holder_;
};

// Each try_lock() is branched on directly, so Clang TSA (the lint job) sees
// which arm holds the mutex.
TEST(RankedMutexTryLock, SuccessEntersTheCensus) {
  RankedMutex<LockRank::kControl> mu;
  if (mu.try_lock()) {
    EXPECT_EQ(held(LockRank::kControl), lock_rank::kChecksEnabled ? 1u : 0u);
    mu.unlock();
  } else {
    ADD_FAILURE() << "try_lock refused an uncontended mutex";
  }
  EXPECT_EQ(held(LockRank::kControl), 0u);
}

TEST(RankedMutexTryLock, FailureLeavesTheCensusUntouched) {
  RankedMutex<LockRank::kControl> control;
  RankedMutex<LockRank::kSleep> sleep_mu;
  const HeldElsewhere other(control);
  EXPECT_FALSE(control.try_lock());
  EXPECT_EQ(held(LockRank::kControl), 0u);
  // A refused try is never a rank violation, even out of order: nothing
  // was acquired, so nothing entered the census.
  RankedLock outer(sleep_mu);
  EXPECT_FALSE(control.try_lock());
  EXPECT_EQ(held(LockRank::kControl), 0u);
  EXPECT_EQ(held(LockRank::kSleep), lock_rank::kChecksEnabled ? 1u : 0u);
}

TEST(RankedMutexTryLock, GuardReleasesOnlyWhatItAcquired) {
  RankedMutex<LockRank::kControl> mu;
  {
    RankedTryLock lock(mu);
    if (lock.try_lock()) {
      EXPECT_EQ(held(LockRank::kControl), lock_rank::kChecksEnabled ? 1u : 0u);
    } else {
      ADD_FAILURE() << "try_lock refused an uncontended mutex";
    }
  }
  EXPECT_EQ(held(LockRank::kControl), 0u);
  {
    const HeldElsewhere other(mu);
    RankedTryLock lock(mu);
    EXPECT_FALSE(lock.try_lock());
  }  // the refused guard must not unlock the other thread's hold
  EXPECT_EQ(held(LockRank::kControl), 0u);
  // Released exactly once: a blocking lock would hang on a leaked hold.
  RankedLock relock(mu);
}

TEST(RankedMutexTryLockDeathTest, SuccessfulOutOfRankTryAbortsWhenChecked) {
  if (!lock_rank::kChecksEnabled) {
    // Release build: the try succeeds with no validator call.
    RankedMutex<LockRank::kSleep> sleep_mu;
    RankedMutex<LockRank::kControl> control_mu;
    RankedLock outer(sleep_mu);
    if (control_mu.try_lock()) {
      control_mu.unlock();
    } else {
      ADD_FAILURE() << "try_lock refused an uncontended mutex";
    }
    return;
  }
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        RankedMutex<LockRank::kSleep> sleep_mu;
        RankedMutex<LockRank::kControl> control_mu;
        RankedLock outer(sleep_mu);
        if (control_mu.try_lock()) control_mu.unlock();
      },
      "lock-rank violation.*'control'.*'sleep'");
}

// --- the real lock graph under load (runs in the TSAN CI matrix) -------------

// One run of any multi-threaded test certifies the lock graph acyclic in a
// checked build — these two force traffic through every re-scoped guard:
// control sweeps + ring deposits + sibling pulls (many shards, small
// batches), queue pushes/pops/steals (more workers than shards busy), the
// pool mutex's sleep path (workers outnumber work at the tail), and the
// job-bookkeeping and pool-accounting sections including the finalize
// path's job-mutex -> queue-mutex peak probe — the threaded run through its
// one-job pool, the pool run with a cancel on top.
TEST(LockRankIntegration, ThreadedSweepAndStealTrafficIsRankClean) {
  testing::GeneratedProgram g = testing::generate_program(/*seed=*/1986);
  g.workers = 4;
  g.batch = 2;
  g.shards = kAutoShards;
  const rt::RtResult res = testing::run_threaded_checked(g);
  // shard.hits counts home and sibling hits.
  EXPECT_GT(testing::metric(res.metrics, "shard.hits"), 0u)
      << "config failed to exercise the shard rings";
}

TEST(LockRankIntegration, PoolFinalizeAndCancelTrafficIsRankClean) {
  testing::GeneratedProgram g = testing::generate_program(/*seed=*/1986);
  g.workers = 4;
  g.batch = 2;
  g.shards = kAutoShards;
  g.cancel_second_job = true;  // exercises cancel's pool-then-job sequence
  testing::run_pool_checked(g);
}

}  // namespace
}  // namespace pax
