// Pool runtime tests: K concurrent jobs complete with exact accounting,
// scheduling policies (including EDF) order rotations as documented, the
// residency rule caps management-bound jobs at one resident, a spare
// resident answers a more urgent arrival at its next round boundary,
// cancel-before-open, true mid-run cancellation, a cancel that lands while
// no worker holds the job, admission control / kRejected, deadline
// accounting, timed waits, handles that outlive the pool, the done() =>
// stats()-final terminal contract, and enablement order for a job executed
// through the shared pool. Runs under ThreadSanitizer in CI.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <ctime>
#include <limits>
#include <mutex>
#include <thread>
#include <vector>

#include "pool/pool_runtime.hpp"
#include "runtime/happens_before.hpp"
#include "testing_util.hpp"

namespace pax::pool {
namespace {

// --- program builders (programs/bodies outlive the jobs: test scope) --------

struct SinglePhase {
  PhaseProgram prog;
  PhaseId p = kNoPhase;
};

SinglePhase make_single_phase(GranuleId n) {
  SinglePhase s;
  s.p = s.prog.define_phase(make_phase("only", n).writes("O"));
  s.prog.dispatch(s.p);
  s.prog.halt();
  return s;
}

struct TwoPhase {
  PhaseProgram prog;
  PhaseId a = kNoPhase;
  PhaseId b = kNoPhase;
};

TwoPhase make_two_phase_identity(GranuleId n) {
  TwoPhase s;
  s.a = s.prog.define_phase(make_phase("a", n).writes("X"));
  s.b = s.prog.define_phase(make_phase("b", n).reads("X").writes("Y"));
  s.prog.dispatch(s.a, {EnableClause{"b", MappingKind::kIdentity, {}}});
  s.prog.dispatch(s.b);
  s.prog.halt();
  return s;
}

struct LoopProg {
  PhaseProgram prog;
  std::vector<PhaseId> phases;
};

LoopProg make_loop(GranuleId n, int iters) {
  LoopProg s;
  PhaseId a = s.prog.define_phase(make_phase("a", n).writes("A"));
  PhaseId b = s.prog.define_phase(make_phase("b", n).reads("A").writes("B"));
  PhaseId c = s.prog.define_phase(make_phase("c", n).reads("B").writes("C"));
  s.phases = {a, b, c};
  s.prog.serial("init", [](ProgramEnv& env) { env.set("i", 0); }, 0, false);
  const std::uint32_t top =
      s.prog.dispatch(a, {EnableClause{"b", MappingKind::kIdentity, {}}});
  s.prog.dispatch(b, {EnableClause{"c", MappingKind::kIdentity, {}}});
  s.prog.dispatch(c);
  s.prog.serial("inc", [](ProgramEnv& env) { env.add("i", 1); }, 0, false);
  s.prog.branch("loop",
                [iters](const ProgramEnv& env) {
                  return env.get("i") < iters ? std::size_t{0} : std::size_t{1};
                },
                {top, static_cast<std::uint32_t>(s.prog.size() + 1)}, true);
  s.prog.halt();
  return s;
}

rt::BodyTable counting_bodies(std::span<const PhaseId> phases,
                              std::atomic<std::uint64_t>& counter) {
  rt::BodyTable bodies;
  for (PhaseId p : phases)
    bodies.set(p, [&counter](GranuleRange r, WorkerId) {
      counter.fetch_add(r.size(), std::memory_order_relaxed);
    });
  return bodies;
}

std::uint64_t pool_metric(const PoolRuntime& pool, const char* name) {
  return testing::metric(pool.stats().metrics, name);
}

// --- scheduling policy comparator (pure, no threads) ------------------------

TEST(SchedPolicyPick, FifoPicksLowestId) {
  const JobView a{0, 0};
  const JobView b{1, 9};
  EXPECT_TRUE(schedules_before(a, b, SchedPolicy::kFifo));
  EXPECT_FALSE(schedules_before(b, a, SchedPolicy::kFifo));
}

TEST(SchedPolicyPick, PriorityOutranksIdThenFifoTieBreak) {
  const JobView low_first{0, 1};
  const JobView high_later{5, 7};
  EXPECT_TRUE(schedules_before(high_later, low_first, SchedPolicy::kPriority));
  const JobView same_prio{9, 7};
  EXPECT_TRUE(schedules_before(high_later, same_prio, SchedPolicy::kPriority));
}

TEST(SchedPolicyPick, DeadlinePicksEarliestThenFifoTieBreak) {
  const JobView late{0, 9, 5000};
  const JobView soon{4, 0, 1000};
  // EDF: the earlier absolute deadline wins regardless of id or priority.
  EXPECT_TRUE(schedules_before(soon, late, SchedPolicy::kDeadline));
  EXPECT_FALSE(schedules_before(late, soon, SchedPolicy::kDeadline));
  // Equal deadlines tie-break by id, like every policy.
  const JobView tied{9, 0, 1000};
  EXPECT_TRUE(schedules_before(soon, tied, SchedPolicy::kDeadline));
}

TEST(SchedPolicyPick, DeadlineFreeJobsSortLast) {
  const JobView batch{0, 0};  // deadline_ns defaults to kNoDeadline
  EXPECT_EQ(batch.deadline_ns, kNoDeadline);
  const JobView urgent{7, 0, std::numeric_limits<std::int64_t>::max() - 1};
  // Even the latest representable real deadline outranks "no deadline":
  // deadline-free batch work fills leftover capacity only.
  EXPECT_TRUE(schedules_before(urgent, batch, SchedPolicy::kDeadline));
  // Two deadline-free jobs degrade to fifo.
  const JobView batch2{3, 0};
  EXPECT_TRUE(schedules_before(batch, batch2, SchedPolicy::kDeadline));
}

// --- config validation ------------------------------------------------------

TEST(PoolConfigDeathTest, RejectsZeroWorkers) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(PoolRuntime({.workers = 0, .batch = 4}),
               "pool needs at least one worker");
}

TEST(PoolConfigDeathTest, RejectsZeroBatch) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(PoolRuntime({.workers = 2, .batch = 0}),
               "pool batch must be at least 1");
}

TEST(PoolConfigDeathTest, RejectsZeroShards) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(PoolRuntime({.workers = 2, .batch = 4, .shards = 0}),
               "shards must be at least 1");
}

TEST(PoolConfigDeathTest, RejectsJobWithMoreShardsThanGranules) {
  // Each job's executive validates its own geometry: an explicit pool
  // count beyond the job's largest phase dies in the job constructor.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  SinglePhase s = make_single_phase(8);
  rt::BodyTable bodies;
  bodies.set(s.p, [](GranuleRange, WorkerId) {});
  EXPECT_DEATH(
      {
        PoolRuntime pool({.workers = 2, .batch = 4, .shards = 64});
        pool.submit(s.prog, bodies, ExecConfig{}, {});
      },
      "more shards than granules");
}

// --- completion and accounting ----------------------------------------------

TEST(PoolCompletion, ManyConcurrentJobsAllCompleteWithExactAccounting) {
  constexpr int kJobs = 6;
  std::vector<TwoPhase> two(kJobs / 2);
  std::vector<LoopProg> loops(kJobs / 2);
  std::vector<rt::BodyTable> bodies;
  std::vector<std::unique_ptr<std::atomic<std::uint64_t>>> counts;
  std::vector<std::uint64_t> expected;
  bodies.reserve(kJobs);

  for (int i = 0; i < kJobs / 2; ++i) {
    two[i] = make_two_phase_identity(128);
    counts.push_back(std::make_unique<std::atomic<std::uint64_t>>(0));
    const PhaseId ph[] = {two[i].a, two[i].b};
    bodies.push_back(counting_bodies(ph, *counts.back()));
    expected.push_back(2u * 128u);
  }
  for (int i = 0; i < kJobs / 2; ++i) {
    loops[i] = make_loop(64, 4);
    counts.push_back(std::make_unique<std::atomic<std::uint64_t>>(0));
    bodies.push_back(counting_bodies(loops[i].phases, *counts.back()));
    expected.push_back(4u * 3u * 64u);
  }

  std::vector<JobHandle> handles;
  {
    PoolRuntime pool({.workers = 4, .batch = 4, .policy = SchedPolicy::kFifo});
    ExecConfig cfg;
    cfg.grain = 8;
    cfg.early_serial = true;
    for (int i = 0; i < kJobs / 2; ++i)
      handles.push_back(pool.submit(two[i].prog, bodies[i], cfg, {}));
    for (int i = 0; i < kJobs / 2; ++i)
      handles.push_back(
          pool.submit(loops[i].prog, bodies[kJobs / 2 + i], cfg, {}));

    for (auto& h : handles) EXPECT_EQ(h.wait(), JobState::kComplete);
    pool.shutdown();

    const PoolStats ps = pool.stats();
    EXPECT_EQ(testing::metric(ps.metrics, "pool.jobs_submitted"),
              static_cast<std::uint64_t>(kJobs));
    EXPECT_EQ(testing::metric(ps.metrics, "pool.jobs_completed"),
              static_cast<std::uint64_t>(kJobs));
    EXPECT_EQ(testing::metric(ps.metrics, "pool.jobs_cancelled"), 0u);

    // Per-job stats sum exactly to the (independently accumulated) pool
    // totals, and match the program-derived expectations.
    std::uint64_t sum_granules = 0, sum_tasks = 0;
    std::chrono::nanoseconds sum_busy{0};
    for (int i = 0; i < kJobs; ++i) {
      const JobStats js = handles[i].stats();
      EXPECT_EQ(js.granules, expected[i]) << "job " << i;
      EXPECT_EQ(counts[i]->load(), expected[i]) << "job " << i;
      EXPECT_GT(js.exec_lock_acquisitions, 0u);
      sum_granules += js.granules;
      sum_tasks += js.tasks;
      sum_busy += js.busy;
    }
    EXPECT_EQ(sum_granules, testing::metric(ps.metrics, "worker.granules"));
    EXPECT_EQ(sum_tasks, testing::metric(ps.metrics, "worker.tasks"));
    std::chrono::nanoseconds pool_busy{0};
    for (auto b : ps.worker_busy) pool_busy += b;
    EXPECT_EQ(sum_busy, pool_busy);
    EXPECT_EQ(ps.worker_wall.size(), 4u);
    for (auto w : ps.worker_wall) EXPECT_GT(w.count(), 0);
    EXPECT_GT(ps.utilization(), 0.0);
    EXPECT_LE(ps.utilization(), 1.0 + 1e-9);
  }
}

// --- scheduling order on a single worker (deterministic) --------------------

/// Body order of a single-worker scenario, and the pool's preemption leaves
/// (a lone worker has no peer to leave behind, so always 0).
struct RotationOrder {
  std::vector<int> order;
  std::uint64_t preempt_leaves = 0;
};

/// Submit a gate job that pins the only worker, queue three single-phase
/// jobs, release the gate, and observe the rotation order by recording body
/// executions.
RotationOrder run_three_jobs_under(SchedPolicy policy) {
  SinglePhase gate_prog = make_single_phase(1);
  SinglePhase jobs_prog[3] = {make_single_phase(4), make_single_phase(4),
                              make_single_phase(4)};
  std::atomic<bool> gate{false};
  std::atomic<bool> entered{false};
  rt::BodyTable gate_bodies;
  gate_bodies.set(gate_prog.p, [&gate, &entered](GranuleRange, WorkerId) {
    entered.store(true, std::memory_order_release);
    while (!gate.load(std::memory_order_acquire)) std::this_thread::yield();
  });

  std::mutex order_mu;
  std::vector<int> order;
  rt::BodyTable tag_bodies[3];
  for (int i = 0; i < 3; ++i)
    tag_bodies[i].set(jobs_prog[i].p, [i, &order_mu, &order](GranuleRange, WorkerId) {
      std::scoped_lock lock(order_mu);
      order.push_back(i);
    });

  PoolRuntime pool({.workers = 1, .batch = 4, .policy = policy});
  ExecConfig cfg;
  JobHandle blocker = pool.submit(gate_prog.prog, gate_bodies, cfg, {});
  // The only worker must be pinned inside the gate body before the jobs
  // arrive; a worker still on its way there would rank the gate job against
  // them.
  while (!entered.load(std::memory_order_acquire)) std::this_thread::yield();
  // Priorities: job0 low, job1 high, job2 mid — submission order 0,1,2.
  const int prio[3] = {1, 9, 5};
  JobHandle handles[3];
  for (int i = 0; i < 3; ++i)
    handles[i] =
        pool.submit(jobs_prog[i].prog, tag_bodies[i], cfg, {.priority = prio[i]});

  gate.store(true, std::memory_order_release);
  EXPECT_EQ(blocker.wait(), JobState::kComplete);
  for (auto& h : handles) EXPECT_EQ(h.wait(), JobState::kComplete);
  pool.shutdown();
  return {order, pool_metric(pool, "pool.preempt_leaves")};
}

TEST(PoolScheduling, PriorityPolicyOrdersRotationsByPriority) {
  const RotationOrder r = run_three_jobs_under(SchedPolicy::kPriority);
  ASSERT_EQ(r.order.size(), 12u);  // 3 jobs x 4 granules, grain 1
  const std::vector<int> want = {1, 1, 1, 1, 2, 2, 2, 2, 0, 0, 0, 0};
  EXPECT_EQ(r.order, want);
  EXPECT_EQ(r.preempt_leaves, 0u);
}

TEST(PoolScheduling, FifoPolicyOrdersRotationsBySubmission) {
  const RotationOrder r = run_three_jobs_under(SchedPolicy::kFifo);
  ASSERT_EQ(r.order.size(), 12u);
  const std::vector<int> want = {0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2};
  EXPECT_EQ(r.order, want);
  EXPECT_EQ(r.preempt_leaves, 0u);
}

// --- rotation between a half-served and a fresh job ---------------------------

/// Deterministic rotation scenario on two workers, batch = grain = 1.
///
/// Job L pins worker 1 (its single granule blocks on a gate). Job M's first
/// two granules execute on worker 2, its third blocks in-body on a gate
/// while its fourth still sits in the waiting queue — a runnable job with
/// granule history. Job N is then submitted fresh (zero granules). Releasing
/// L's gate sends worker 1 rotating with exactly two candidates:
///   M (runnable, 2 granules executed)  vs  N (queued, 0 granules).
/// kFifo must adopt M (lower id) first, whatever either job has executed.
/// Returns the recorded body order of M's fourth granule ("M") and N ("N").
std::vector<char> run_rotation_scenario(SchedPolicy policy) {
  SinglePhase l_prog = make_single_phase(1);
  SinglePhase m_prog = make_single_phase(4);
  SinglePhase n_prog = make_single_phase(1);

  std::atomic<bool> gate_l{false}, gate_m{false};
  std::atomic<bool> l_started{false}, m_blocked{false};
  std::mutex order_mu;
  std::vector<char> order;

  rt::BodyTable l_bodies;
  l_bodies.set(l_prog.p, [&](GranuleRange, WorkerId) {
    l_started.store(true, std::memory_order_release);
    while (!gate_l.load(std::memory_order_acquire)) std::this_thread::yield();
  });
  rt::BodyTable m_bodies;
  m_bodies.set(m_prog.p, [&](GranuleRange r, WorkerId) {
    if (r.lo == 2) {  // third granule: block with the fourth still queued
      m_blocked.store(true, std::memory_order_release);
      while (!gate_m.load(std::memory_order_acquire)) std::this_thread::yield();
    } else if (r.lo == 3) {
      std::scoped_lock lock(order_mu);
      order.push_back('M');
    }
  });
  rt::BodyTable n_bodies;
  n_bodies.set(n_prog.p, [&](GranuleRange, WorkerId) {
    std::scoped_lock lock(order_mu);
    order.push_back('N');
  });

  PoolRuntime pool({.workers = 2, .batch = 1, .policy = policy});
  ExecConfig cfg;  // grain = 1: one granule per assignment
  JobHandle l = pool.submit(l_prog.prog, l_bodies, cfg, {});
  while (!l_started.load(std::memory_order_acquire)) std::this_thread::yield();
  JobHandle m = pool.submit(m_prog.prog, m_bodies, cfg, {});
  while (!m_blocked.load(std::memory_order_acquire)) std::this_thread::yield();
  JobHandle n = pool.submit(n_prog.prog, n_bodies, cfg, {});
  gate_l.store(true, std::memory_order_release);

  // Worker 1 finishes L, then rotates through N and M's fourth granule (in
  // the policy's order); unblock M's third granule once both are recorded.
  EXPECT_EQ(l.wait(), JobState::kComplete);
  EXPECT_EQ(n.wait(), JobState::kComplete);
  while (true) {
    {
      std::scoped_lock lock(order_mu);
      if (order.size() == 2) break;
    }
    std::this_thread::yield();
  }
  gate_m.store(true, std::memory_order_release);
  EXPECT_EQ(m.wait(), JobState::kComplete);
  pool.shutdown();

  EXPECT_GT(pool_metric(pool, "worker.rotations"), 0u);
  EXPECT_EQ(m.stats().granules, 4u);
  return order;
}

TEST(PoolScheduling, FifoPrefersEarliestSubmittedJobAtRotation) {
  const std::vector<char> order = run_rotation_scenario(SchedPolicy::kFifo);
  EXPECT_EQ(order, (std::vector<char>{'M', 'N'}));
}

// --- cancellation ------------------------------------------------------------

TEST(PoolCancel, CancelBeforeOpenWinsOnceAndVictimNeverRuns) {
  SinglePhase gate_prog = make_single_phase(1);
  SinglePhase victim_prog = make_single_phase(8);
  std::atomic<bool> gate{false};
  std::atomic<bool> victim_ran{false};

  rt::BodyTable gate_bodies;
  gate_bodies.set(gate_prog.p, [&gate](GranuleRange, WorkerId) {
    while (!gate.load(std::memory_order_acquire)) std::this_thread::yield();
  });
  rt::BodyTable victim_bodies;
  victim_bodies.set(victim_prog.p, [&victim_ran](GranuleRange, WorkerId) {
    victim_ran.store(true, std::memory_order_relaxed);
  });

  PoolRuntime pool({.workers = 1, .batch = 4});
  ExecConfig cfg;
  JobHandle blocker = pool.submit(gate_prog.prog, gate_bodies, cfg, {});
  JobHandle victim = pool.submit(victim_prog.prog, victim_bodies, cfg, {});

  EXPECT_EQ(victim.state(), JobState::kQueued);
  EXPECT_TRUE(victim.cancel());
  EXPECT_FALSE(victim.cancel());  // second cancel loses
  EXPECT_EQ(victim.state(), JobState::kCancelled);
  EXPECT_EQ(victim.wait(), JobState::kCancelled);

  gate.store(true, std::memory_order_release);
  EXPECT_EQ(blocker.wait(), JobState::kComplete);
  EXPECT_FALSE(blocker.cancel());  // completed jobs cannot be cancelled
  pool.shutdown();

  EXPECT_FALSE(victim_ran.load());
  const JobStats vs = victim.stats();
  EXPECT_EQ(vs.granules, 0u);
  EXPECT_EQ(vs.queued.count(), 0);
  const PoolStats ps = pool.stats();
  EXPECT_EQ(testing::metric(ps.metrics, "pool.jobs_cancelled"), 1u);
  EXPECT_EQ(testing::metric(ps.metrics, "pool.jobs_completed"), 1u);
  // The blocker's single granule.
  EXPECT_EQ(testing::metric(ps.metrics, "worker.granules"), 1u);
}

/// True mid-run cancellation: every body execution parks on a gate, so the
/// job is provably mid-run (opened, granules in flight, most of the phase
/// still in the executive) when cancel() fires. The cooperative stop must
/// recall the undistributed work — the job finalizes kCancelled with a
/// strictly partial granule count — and the winning cancel is exclusive.
TEST(PoolCancel, MidRunCancelDrainsAndFinalizesCancelled) {
  constexpr GranuleId kN = 64;
  SinglePhase s = make_single_phase(kN);
  std::atomic<bool> gate{false};
  std::atomic<bool> entered{false};
  std::atomic<std::uint64_t> executed{0};
  rt::BodyTable bodies;
  bodies.set(s.p, [&](GranuleRange r, WorkerId) {
    entered.store(true, std::memory_order_release);
    while (!gate.load(std::memory_order_acquire)) std::this_thread::yield();
    executed.fetch_add(r.size(), std::memory_order_relaxed);
  });

  PoolRuntime pool({.workers = 2, .batch = 4});
  ExecConfig cfg;
  cfg.grain = 1;  // one granule per assignment: fine-grained recall coverage
  JobHandle h = pool.submit(s.prog, bodies, cfg, {});

  // Wait until a body holds a ticket: kRunning alone can be observed before
  // any worker refilled, and a cancel there would leave nothing in flight.
  // Workers are then parked inside bodies with granules resident in their
  // local queues and the bulk still sharded in the executive.
  while (h.state() != JobState::kRunning) std::this_thread::yield();
  while (!entered.load(std::memory_order_acquire)) std::this_thread::yield();
  EXPECT_TRUE(h.cancel());
  EXPECT_FALSE(h.cancel());  // the mid-run cancel is won exactly once
  EXPECT_FALSE(h.done());    // still draining: terminal comes from a worker

  gate.store(true, std::memory_order_release);
  EXPECT_EQ(h.wait(), JobState::kCancelled);
  pool.shutdown();

  const JobStats js = h.stats();
  // In-flight granules drained (each exactly once, none re-issued), but the
  // recalled remainder never ran: strictly partial. With 2 workers x (2x4)
  // local-queue slots + in-flight singles, the ceiling is far below kN.
  EXPECT_EQ(js.granules, executed.load());
  EXPECT_LT(js.granules, kN);
  EXPECT_FALSE(js.deadline_missed);
  const PoolStats ps = pool.stats();
  EXPECT_EQ(testing::metric(ps.metrics, "pool.jobs_cancelled"), 1u);
  EXPECT_EQ(testing::metric(ps.metrics, "pool.jobs_completed"), 0u);
  EXPECT_EQ(testing::metric(ps.metrics, "worker.granules"), js.granules);
}

/// A cancel that lands while the job's start() still runs must not strand
/// the job. J's leading serial action blocks inside start(), holding J's
/// control mutex, so cancel() raises the stop flag and then queues on that
/// mutex. When the action returns, the lone worker's first round finds
/// nothing (the flag is up, the recall has not run) and an unfinished
/// executive, so it gives J up and adopts L; the stop then finishes J with
/// nobody resident. cancel() must finalize J itself instead of leaving it
/// kRunning until L's 40 bodies of 10 ms have drained.
TEST(PoolCancel, CancelDuringStartFinalizesWithoutAResident) {
  PhaseProgram held;
  const PhaseId hp = held.define_phase(make_phase("held", 8).writes("H"));
  std::atomic<bool> in_action{false};
  std::atomic<bool> release{false};
  held.serial(
      "hold",
      [&in_action, &release](ProgramEnv&) {
        in_action.store(true, std::memory_order_release);
        while (!release.load(std::memory_order_acquire))
          std::this_thread::yield();
      },
      0, false);
  held.dispatch(hp);
  held.halt();
  std::atomic<std::uint64_t> held_ran{0};
  const PhaseId held_phases[] = {hp};
  rt::BodyTable held_bodies = counting_bodies(held_phases, held_ran);

  constexpr GranuleId kLong = 40;
  SinglePhase long_job = make_single_phase(kLong);
  std::atomic<std::uint64_t> long_ran{0};
  rt::BodyTable long_bodies;
  long_bodies.set(long_job.p, [&long_ran](GranuleRange r, WorkerId) {
    std::this_thread::sleep_for(std::chrono::milliseconds{10});
    long_ran.fetch_add(r.size(), std::memory_order_relaxed);
  });

  PoolRuntime pool({.workers = 1, .batch = 4});
  ExecConfig cfg;
  cfg.grain = 1;
  JobHandle j = pool.submit(held, held_bodies, cfg, {});
  JobHandle l = pool.submit(long_job.prog, long_bodies, cfg, {});
  while (!in_action.load(std::memory_order_acquire)) std::this_thread::yield();

  // Give cancel() time to raise the flag and queue behind the action.
  std::atomic<bool> won{false};
  std::thread canceller([&j, &won] { won.store(j.cancel()); });
  std::this_thread::sleep_for(std::chrono::milliseconds{20});
  release.store(true, std::memory_order_release);
  canceller.join();
  EXPECT_TRUE(won.load());
  EXPECT_EQ(j.wait_for(std::chrono::milliseconds{100}), JobState::kCancelled);
  EXPECT_FALSE(l.done()) << "J ended only after L drained";
  EXPECT_EQ(l.wait(), JobState::kComplete);
  pool.shutdown();

  EXPECT_EQ(long_ran.load(), kLong);
  const PoolStats ps = pool.stats();
  EXPECT_EQ(testing::metric(ps.metrics, "pool.jobs_cancelled"), 1u);
  EXPECT_EQ(testing::metric(ps.metrics, "pool.jobs_completed"), 1u);
  EXPECT_EQ(testing::metric(ps.metrics, "worker.granules"), kLong + held_ran.load());
}

// --- terminal-state contract: done() implies stats() are final ---------------

TEST(PoolTerminal, DoneImpliesStatsFinalSpinRegression) {
  // Regression for the finalize race: the old protocol CASed the state to
  // kComplete *before* taking the job mutex to write finished_at and
  // peak_local_queue, so a handle spinning on done() could read stats()
  // mid-write — span still growing (finished_at unset falls back to now())
  // and peak_local_queue zero. The fix flips the terminal state LAST, under
  // the job mutex, with release ordering. Spin-poll many small jobs and
  // check the final bookkeeping is visible the instant done() is.
  SinglePhase s = make_single_phase(16);
  std::atomic<std::uint64_t> count{0};
  const PhaseId ph[] = {s.p};
  rt::BodyTable bodies = counting_bodies(ph, count);

  PoolRuntime pool({.workers = 4, .batch = 2});
  ExecConfig cfg;
  cfg.grain = 1;
  for (int iter = 0; iter < 50; ++iter) {
    JobHandle h = pool.submit(s.prog, bodies, cfg, {});
    while (!h.done()) std::this_thread::yield();
    const JobStats first = h.stats();
    // Every executed granule passed through a local run-queue, so the
    // finalize-path peak write must already be visible.
    EXPECT_EQ(first.granules, 16u) << "iter " << iter;
    EXPECT_GT(first.peak_local_queue, 0u) << "iter " << iter;
    // finished_at is set: span is frozen, not tracking now().
    std::this_thread::sleep_for(std::chrono::milliseconds{1});
    EXPECT_EQ(h.stats().span, first.span) << "iter " << iter;
  }
  pool.shutdown();
}

// --- admission control --------------------------------------------------------

TEST(PoolAdmission, OverBudgetSubmitRejectsWithoutExecuting) {
  SinglePhase gate_prog = make_single_phase(1);
  SinglePhase extra_prog = make_single_phase(8);
  std::atomic<bool> gate{false};
  std::atomic<bool> extra_ran{false};
  rt::BodyTable gate_bodies;
  gate_bodies.set(gate_prog.p, [&gate](GranuleRange, WorkerId) {
    while (!gate.load(std::memory_order_acquire)) std::this_thread::yield();
  });
  rt::BodyTable extra_bodies;
  extra_bodies.set(extra_prog.p, [&extra_ran](GranuleRange, WorkerId) {
    extra_ran.store(true, std::memory_order_relaxed);
  });

  PoolRuntime pool({.workers = 1, .batch = 4, .max_pending = 1});
  ExecConfig cfg;
  JobHandle blocker = pool.submit(gate_prog.prog, gate_bodies, cfg, {});

  // The blocker holds the whole pending budget: the next submit must come
  // back already terminal, without blocking and without ever executing.
  PoolRuntime::SubmitOptions opts;
  opts.deadline = std::chrono::milliseconds{100};
  JobHandle rejected = pool.submit(extra_prog.prog, extra_bodies, cfg, opts);
  EXPECT_EQ(rejected.state(), JobState::kRejected);
  EXPECT_TRUE(rejected.done());
  EXPECT_EQ(rejected.wait(), JobState::kRejected);  // returns immediately
  EXPECT_FALSE(rejected.cancel());                  // terminal: nothing to do
  const JobStats rs = rejected.stats();
  EXPECT_EQ(rs.granules, 0u);
  EXPECT_TRUE(rs.has_deadline);
  EXPECT_TRUE(rs.deadline_missed);  // a rejected deadline job is a miss

  gate.store(true, std::memory_order_release);
  EXPECT_EQ(blocker.wait(), JobState::kComplete);
  // wait() observes the terminal flip (job mutex), but the job leaves the
  // pending set slightly later, under the pool mutex — in the same critical
  // section that bumps pool.jobs_completed. Spin on the counter so the budget is
  // provably free before the re-admission submit.
  while (pool_metric(pool, "pool.jobs_completed") < 1) std::this_thread::yield();
  // The budget freed up: the same program is admitted now.
  JobHandle admitted = pool.submit(extra_prog.prog, extra_bodies, cfg, {});
  EXPECT_EQ(admitted.wait(), JobState::kComplete);
  pool.shutdown();

  EXPECT_TRUE(extra_ran.load());  // from the admitted run only
  const PoolStats ps = pool.stats();
  // Rejected submissions still count.
  EXPECT_EQ(testing::metric(ps.metrics, "pool.jobs_submitted"), 3u);
  EXPECT_EQ(testing::metric(ps.metrics, "pool.jobs_completed"), 2u);
  EXPECT_EQ(testing::metric(ps.metrics, "pool.jobs_rejected"), 1u);
  EXPECT_EQ(testing::metric(ps.metrics, "pool.deadline_missed"), 1u);
  EXPECT_EQ(testing::metric(ps.metrics, "pool.deadline_met"), 0u);
}

// --- deadline accounting ------------------------------------------------------

TEST(PoolDeadline, MetAndMissedDeadlinesAccountedAtFinalize) {
  SinglePhase a_prog = make_single_phase(8);
  SinglePhase b_prog = make_single_phase(8);
  std::atomic<std::uint64_t> count{0};
  const PhaseId pa[] = {a_prog.p};
  const PhaseId pb[] = {b_prog.p};
  rt::BodyTable a_bodies = counting_bodies(pa, count);
  rt::BodyTable b_bodies = counting_bodies(pb, count);

  PoolRuntime pool({.workers = 2, .batch = 4,
                    .policy = SchedPolicy::kDeadline});
  ExecConfig cfg;
  PoolRuntime::SubmitOptions generous;
  generous.deadline = std::chrono::seconds{30};
  PoolRuntime::SubmitOptions unmeetable;
  unmeetable.deadline = std::chrono::nanoseconds{1};
  JobHandle met = pool.submit(a_prog.prog, a_bodies, cfg, generous);
  JobHandle missed = pool.submit(b_prog.prog, b_bodies, cfg, unmeetable);
  EXPECT_EQ(met.wait(), JobState::kComplete);
  EXPECT_EQ(missed.wait(), JobState::kComplete);
  pool.shutdown();

  const JobStats ms = met.stats();
  EXPECT_TRUE(ms.has_deadline);
  EXPECT_FALSE(ms.deadline_missed);
  EXPECT_GT(ms.deadline_slack.count(), 0);
  const JobStats xs = missed.stats();
  EXPECT_TRUE(xs.has_deadline);
  EXPECT_TRUE(xs.deadline_missed);
  EXPECT_LT(xs.deadline_slack.count(), 0);
  const PoolStats ps = pool.stats();
  EXPECT_EQ(testing::metric(ps.metrics, "pool.deadline_met"), 1u);
  EXPECT_EQ(testing::metric(ps.metrics, "pool.deadline_missed"), 1u);
}

TEST(PoolDeadline, EdfOrdersRotationsByDeadline) {
  // Same single-worker gate scenario as the policy tests above, but ordered
  // by deadline: submission order 0,1,2 with deadlines mid, late, early
  // must execute 2, 0, 1.
  SinglePhase gate_prog = make_single_phase(1);
  SinglePhase jobs_prog[3] = {make_single_phase(4), make_single_phase(4),
                              make_single_phase(4)};
  std::atomic<bool> gate{false};
  std::atomic<bool> entered{false};
  rt::BodyTable gate_bodies;
  gate_bodies.set(gate_prog.p, [&gate, &entered](GranuleRange, WorkerId) {
    entered.store(true, std::memory_order_release);
    while (!gate.load(std::memory_order_acquire)) std::this_thread::yield();
  });

  std::mutex order_mu;
  std::vector<int> order;
  rt::BodyTable tag_bodies[3];
  for (int i = 0; i < 3; ++i)
    tag_bodies[i].set(jobs_prog[i].p,
                      [i, &order_mu, &order](GranuleRange, WorkerId) {
                        std::scoped_lock lock(order_mu);
                        order.push_back(i);
                      });

  PoolRuntime pool({.workers = 1, .batch = 4,
                    .policy = SchedPolicy::kDeadline});
  ExecConfig cfg;
  JobHandle blocker = pool.submit(gate_prog.prog, gate_bodies, cfg, {});
  // Pin the only worker inside the gate body before the jobs arrive (see
  // run_three_jobs_under).
  while (!entered.load(std::memory_order_acquire)) std::this_thread::yield();
  const std::chrono::seconds deadlines[3] = {std::chrono::seconds{200},
                                             std::chrono::seconds{300},
                                             std::chrono::seconds{100}};
  JobHandle handles[3];
  for (int i = 0; i < 3; ++i) {
    PoolRuntime::SubmitOptions opts;
    opts.deadline = deadlines[i];
    handles[i] = pool.submit(jobs_prog[i].prog, tag_bodies[i], cfg, opts);
  }

  gate.store(true, std::memory_order_release);
  EXPECT_EQ(blocker.wait(), JobState::kComplete);
  for (auto& h : handles) EXPECT_EQ(h.wait(), JobState::kComplete);
  pool.shutdown();

  ASSERT_EQ(order.size(), 12u);
  const std::vector<int> want = {2, 2, 2, 2, 0, 0, 0, 0, 1, 1, 1, 1};
  EXPECT_EQ(order, want);
  EXPECT_EQ(pool_metric(pool, "pool.preempt_leaves"), 0u);
}

// --- timed waits --------------------------------------------------------------

TEST(PoolHandles, WaitForTimesOutOnRunningJobAndReturnsTerminalAfter) {
  SinglePhase s = make_single_phase(1);
  std::atomic<bool> gate{false};
  rt::BodyTable bodies;
  bodies.set(s.p, [&gate](GranuleRange, WorkerId) {
    while (!gate.load(std::memory_order_acquire)) std::this_thread::yield();
  });

  PoolRuntime pool({.workers = 1, .batch = 4});
  ExecConfig cfg;
  JobHandle h = pool.submit(s.prog, bodies, cfg, {});
  // Gated body: the deadline passes with the job still non-terminal.
  const JobState timed_out = h.wait_for(std::chrono::milliseconds{5});
  EXPECT_FALSE(is_terminal(timed_out));
  EXPECT_FALSE(h.done());

  gate.store(true, std::memory_order_release);
  EXPECT_EQ(h.wait(), JobState::kComplete);
  // On an already-terminal job every timed wait returns immediately.
  EXPECT_EQ(h.wait_for(std::chrono::nanoseconds{0}), JobState::kComplete);
  EXPECT_EQ(h.wait_until(std::chrono::steady_clock::now()),
            JobState::kComplete);
  pool.shutdown();
}

// --- handle lifetime ----------------------------------------------------------

TEST(PoolHandles, HandlesOutliveThePool) {
  // Regression for the JobHandle use-after-free: cancel() used to call
  // through a raw PoolRuntime*, so touching a handle after the pool's
  // destruction dereferenced freed memory. Handles now share-own the job
  // and reach the pool weakly: after shutdown they still answer
  // state()/stats()/wait(), and cancel() degrades to false.
  SinglePhase s = make_single_phase(16);
  std::atomic<std::uint64_t> count{0};
  const PhaseId ph[] = {s.p};
  rt::BodyTable bodies = counting_bodies(ph, count);

  JobHandle survivor;
  {
    PoolRuntime pool({.workers = 2, .batch = 4});
    survivor = pool.submit(s.prog, bodies, ExecConfig{}, {});
    EXPECT_EQ(survivor.wait(), JobState::kComplete);
  }  // pool destroyed; the handle remains
  EXPECT_TRUE(survivor.valid());
  EXPECT_TRUE(survivor.done());
  EXPECT_EQ(survivor.state(), JobState::kComplete);
  EXPECT_EQ(survivor.wait(), JobState::kComplete);
  EXPECT_EQ(survivor.stats().granules, 16u);
  EXPECT_FALSE(survivor.cancel());  // terminal AND the pool is gone
}

// --- enablement correctness through the pool ---------------------------------

TEST(PoolHappensBefore, IdentityOrderHoldsForPooledJob) {
  const GranuleId n = 256;
  TwoPhase s = make_two_phase_identity(n);
  rt::HappensBeforeRecorder rec(2, n);
  rt::BodyTable bodies;
  bodies.set(s.a, [&rec](GranuleRange r, WorkerId) {
    for (GranuleId g = r.lo; g < r.hi; ++g) {
      rec.on_start(0, g);
      rec.on_finish(0, g);
    }
  });
  bodies.set(s.b, [&rec](GranuleRange r, WorkerId) {
    for (GranuleId g = r.lo; g < r.hi; ++g) {
      rec.on_start(1, g);
      rec.on_finish(1, g);
    }
  });

  PoolRuntime pool({.workers = 4, .batch = 4});
  ExecConfig cfg;
  cfg.grain = 8;
  JobHandle h = pool.submit(s.prog, bodies, cfg, {});
  EXPECT_EQ(h.wait(), JobState::kComplete);
  pool.shutdown();

  EXPECT_EQ(h.stats().granules, 2u * n);
  for (GranuleId g = 0; g < n; ++g) {
    ASSERT_TRUE(rec.executed(0, g));
    ASSERT_TRUE(rec.executed(1, g));
    EXPECT_LT(rec.finish_ticket(0, g), rec.start_ticket(1, g))
        << "identity enablement violated at granule " << g;
  }
}

// --- residency rule (DESIGN.md §7) ------------------------------------------

/// Per-worker task counts and per-granule execution counts of one job.
struct JobProbe {
  struct alignas(64) Cell {
    std::atomic<std::uint64_t> tasks{0};
  };
  explicit JobProbe(const std::vector<GranuleId>& granules) : rec(granules) {}

  std::array<Cell, 8> by_worker{};
  pax::testing::ExecutionRecorder rec;

  [[nodiscard]] std::array<std::uint64_t, 8> tasks() const {
    std::array<std::uint64_t, 8> out{};
    for (std::size_t w = 0; w < out.size(); ++w)
      out[w] = by_worker[w].tasks.load(std::memory_order_relaxed);
    return out;
  }
  [[nodiscard]] std::uint64_t total_tasks() const {
    std::uint64_t n = 0;
    for (std::uint64_t t : tasks()) n += t;
    return n;
  }
  [[nodiscard]] std::uint32_t workers_used() const {
    std::uint32_t n = 0;
    for (std::uint64_t t : tasks()) n += t > 0 ? 1 : 0;
    return n;
  }
};

using pax::testing::Rendezvous;

/// Bodies for `phases` (recorded as phase 0, 1, ...) that busy-wait `spin`
/// per task (0 = a no-op body) after an optional rendezvous, then record.
rt::BodyTable probe_bodies(const std::vector<PhaseId>& phases, JobProbe& probe,
                           std::chrono::nanoseconds spin,
                           Rendezvous* meet = nullptr) {
  rt::BodyTable bodies;
  for (std::size_t i = 0; i < phases.size(); ++i) {
    bodies.set(phases[i], [&probe, spin, meet, i](GranuleRange r, WorkerId w) {
      if (meet != nullptr) meet->arrive(w);
      pax::testing::spin_for(spin);
      probe.by_worker[w].tasks.fetch_add(1, std::memory_order_relaxed);
      probe.rec.record(i, r);
    });
  }
  return bodies;
}

/// Poll until the rule has capped `n` jobs or `h` is done.
void wait_for_capped(const PoolRuntime& pool, std::uint64_t n, JobHandle& h) {
  while (pool_metric(pool, "pool.jobs_capped") < n && !h.done())
    std::this_thread::sleep_for(std::chrono::microseconds{20});
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double wall_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// A management-bound job: a chain of no-op phases linked by identity
// edges, grain 1, one shard (as the serve benchmark runs its jobs). Every
// refill is a control section and every retired granule enables its
// successor in one, so the control plane outweighs the bodies even with
// one resident. With no barrier between the phases, a resident seldom runs
// dry and hands the job to another worker. Wide enough that the capped job
// runs about 20 ms here: at 2048 it ran about 5 ms, and under ctest -j a
// preempted test thread or spin job let it finish first in about 1 run in
// 15 (the residency tests below assert it is still running).
constexpr std::size_t kChainPhases = 40;
constexpr GranuleId kChainWidth = 8192;
// A body-bound task. Sanitizer builds slow the control plane several-fold
// but not a wall-clock spin, so the spin grows there to keep the margin.
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
constexpr std::chrono::microseconds kBodyBoundSpin{200};
#else
constexpr std::chrono::microseconds kBodyBoundSpin{20};
#endif

/// The management-bound chain job, its probe and bodies (test scope).
struct ManagementBoundJob {
  explicit ManagementBoundJob(Rendezvous* meet = nullptr)
      : probe(std::vector<GranuleId>(kChainPhases, kChainWidth)) {
    using pax::testing::numbered;
    for (std::size_t i = 0; i < kChainPhases; ++i) {
      PhaseSpec spec = make_phase(numbered("p", i), kChainWidth);
      if (i > 0) spec.reads(numbered("D", i - 1));
      phases.push_back(prog.define_phase(spec.writes(numbered("D", i))));
    }
    for (std::size_t i = 0; i + 1 < kChainPhases; ++i)
      prog.dispatch(phases[i], {EnableClause{numbered("p", i + 1),
                                             MappingKind::kIdentity, {}}});
    prog.dispatch(phases.back());
    prog.halt();
    bodies = probe_bodies(phases, probe, {}, meet);
    cfg.grain = 1;
  }

  PhaseProgram prog;
  std::vector<PhaseId> phases;
  JobProbe probe;
  rt::BodyTable bodies;
  ExecConfig cfg;
};

TEST(PoolResidency, ManagementBoundJobIsCappedAndExtraResidentsLeave) {
  constexpr std::uint32_t kWorkers = 4;
  // Every worker resident before the first merged round: the latch then
  // finds extra residents to send away (alone, it just refuses adopters).
  // On a loaded host a resident can run dry and release the job before the
  // first judgement, leaving nobody to shed; such a run is tried again.
  std::uint64_t leaves = 0;
  for (int attempt = 0; attempt < 5 && leaves == 0; ++attempt) {
    Rendezvous all(kWorkers, std::chrono::seconds{2});
    ManagementBoundJob job(&all);
    PoolRuntime pool({.workers = kWorkers, .shards = 1});
    JobHandle h = pool.submit(job.prog, job.bodies, job.cfg, {});
    wait_for_capped(pool, 1, h);
    ASSERT_FALSE(h.done()) << "the job finished before the rule capped it";
    EXPECT_EQ(h.wait(), JobState::kComplete);
    pool.shutdown();

    job.probe.rec.expect_exactly_once();
    EXPECT_EQ(pool_metric(pool, "pool.jobs_capped"), 1u);
    // All but one resident leave at the latch. A rendezvous wait that
    // reaches the first judged period counts as body time and can lift
    // the cap until the next period latches it again; each lift can shed
    // up to kWorkers - 1 residents once more.
    const std::uint64_t lifts = pool_metric(pool, "pool.cap_lifts");
    leaves = pool_metric(pool, "pool.cap_leaves");
    EXPECT_LE(leaves, (kWorkers - 1) * (1 + lifts));
  }
  EXPECT_GE(leaves, 1u);
}

// The schedule that can strand a capped job, pinned: a leaver's retire
// enables work, its refresh publishes `true`, a stayer's older refresh
// overwrites it with `false`, and then both give the job up. Whichever of
// them is the last to settle must find the work by recomputing the probe
// under the pool mutex, not by trusting the cached value (DESIGN.md §7).
TEST(PoolResidency, LastSettleRecomputesAStaleProbe) {
  SinglePhase s = make_single_phase(64);
  rt::BodyTable bodies;
  bodies.set(s.p, [](GranuleRange, WorkerId) {});
  const sched::DispatchConfig dispatch{.workers = 2};
  detail::Job job(/*id_in=*/0, /*priority_in=*/0, s.prog, bodies, ExecConfig{},
                  CostModel{}, dispatch,
                  ShardConfig{.shards = 1, .workers = 2, .batch = 8});
  job.exec.start();
  job.state.store(JobState::kRunning);
  job.capped.store(true);
  ASSERT_TRUE(job.exec.runnable());

  // counted: the stayer settles last; otherwise a leaver, uncounted since
  // its try_leave(), settles after the stayer already did.
  for (const bool counted : {true, false}) {
    job.residents.store(counted ? 1 : 0);
    job.core_runnable.store(false);  // the stayer's stale refresh
    ASSERT_FALSE(job.runnable_probe()) << "the cached view strands the job";
    detail::PoolCtl ctl;
    RankedLock lock(ctl.mu);
    EXPECT_EQ(ctl.settle_locked(job, counted), &job) << "counted " << counted;
    EXPECT_EQ(job.residents.load(), 0u);
    EXPECT_TRUE(job.pickable());
  }
  // A settle that leaves a resident behind leaves the probe to it.
  job.residents.store(2);
  job.core_runnable.store(false);
  detail::PoolCtl ctl;
  RankedLock lock(ctl.mu);
  EXPECT_EQ(ctl.settle_locked(job, /*counted=*/true), nullptr);
  EXPECT_EQ(job.residents.load(), 1u);
  EXPECT_FALSE(job.runnable_probe());
}

// A cap leave needs a capped, unfinished job and another resident; a
// finished job's adopters are there for the finalize election, not to work.
TEST(PoolResidency, OnlyAnUnfinishedCappedJobShedsResidents) {
  SinglePhase s = make_single_phase(64);
  rt::BodyTable bodies;
  bodies.set(s.p, [](GranuleRange, WorkerId) {});
  const sched::DispatchConfig dispatch{.workers = 3};
  detail::Job job(/*id_in=*/0, /*priority_in=*/0, s.prog, bodies, ExecConfig{},
                  CostModel{}, dispatch,
                  ShardConfig{.shards = 1, .workers = 3, .batch = 8});
  job.exec.start();
  job.residents.store(3);
  EXPECT_FALSE(job.try_leave()) << "uncapped";
  job.capped.store(true);
  EXPECT_TRUE(job.try_leave());
  EXPECT_TRUE(job.try_leave());
  EXPECT_FALSE(job.try_leave()) << "the last resident stays";
  EXPECT_EQ(job.residents.load(), 1u);
  job.residents.store(3);
  job.exec.request_stop();
  ASSERT_TRUE(job.exec.finished());
  EXPECT_FALSE(job.try_leave()) << "finished";
  EXPECT_EQ(job.residents.load(), 3u);
}

TEST(PoolResidency, BodyBoundJobIsNeverCapped) {
  constexpr GranuleId kN = 256;
  SinglePhase s = make_single_phase(kN);
  JobProbe probe({kN});
  Rendezvous two(2, std::chrono::seconds{2});
  rt::BodyTable bodies = probe_bodies({s.p}, probe, kBodyBoundSpin, &two);
  PoolRuntime pool({.workers = 4});
  ExecConfig cfg;
  cfg.grain = 1;
  JobHandle h = pool.submit(s.prog, bodies, cfg, {});
  EXPECT_EQ(h.wait(), JobState::kComplete);
  pool.shutdown();

  probe.rec.expect_exactly_once();
  EXPECT_GE(probe.workers_used(), 2u);
  EXPECT_EQ(pool_metric(pool, "pool.jobs_capped"), 0u);
  EXPECT_EQ(pool_metric(pool, "pool.cap_leaves"), 0u);
}

TEST(PoolResidency, BodyBoundJobGetsTheWorkersACappedJobFrees) {
  // The chain job is capped before the spin job arrives, and FIFO prefers
  // the chain job: without the rule all three workers stay on it until it
  // finishes, and the spin job waits behind it.
  constexpr std::uint32_t kWorkers = 3;
  constexpr GranuleId kSpinN = 96;
  ManagementBoundJob chain;
  SinglePhase spin = make_single_phase(kSpinN);
  JobProbe spin_probe({kSpinN});
  // The spin job's first body waits for a second worker, which only the
  // cap can free.
  Rendezvous two(2, std::chrono::seconds{2});
  rt::BodyTable spin_bodies =
      probe_bodies({spin.p}, spin_probe, kBodyBoundSpin, &two);
  // One shard per job: the chain job's single control mutex is what the
  // rule caps.
  PoolRuntime pool(
      {.workers = kWorkers, .policy = SchedPolicy::kFifo, .shards = 1});
  ExecConfig cfg;
  cfg.grain = 1;
  JobHandle a = pool.submit(chain.prog, chain.bodies, chain.cfg, {});
  wait_for_capped(pool, 1, a);
  ASSERT_FALSE(a.done()) << "the job finished before the rule capped it";
  JobHandle b = pool.submit(spin.prog, spin_bodies, cfg, {});
  EXPECT_EQ(b.wait(), JobState::kComplete);
  EXPECT_FALSE(a.done()) << "the body-bound job waited for the capped one";
  EXPECT_GE(spin_probe.workers_used(), 2u);
  EXPECT_EQ(a.wait(), JobState::kComplete);
  pool.shutdown();

  chain.probe.rec.expect_exactly_once();
  spin_probe.rec.expect_exactly_once();
  EXPECT_EQ(pool_metric(pool, "pool.jobs_capped"), 1u);
  // Per-job sums equal the pool totals and the body-side counts.
  const PoolStats ps = pool.stats();
  const JobStats ja = a.stats();
  const JobStats jb = b.stats();
  EXPECT_EQ(ja.granules, kChainPhases * kChainWidth);
  EXPECT_EQ(jb.granules, kSpinN);
  EXPECT_EQ(ja.tasks, chain.probe.total_tasks());
  EXPECT_EQ(jb.tasks, spin_probe.total_tasks());
  EXPECT_EQ(ja.granules + jb.granules, testing::metric(ps.metrics, "worker.granules"));
  EXPECT_EQ(ja.tasks + jb.tasks, testing::metric(ps.metrics, "worker.tasks"));
  std::chrono::nanoseconds pool_busy{0};
  for (auto w : ps.worker_busy) pool_busy += w;
  EXPECT_EQ(ja.busy + jb.busy, pool_busy);
}

TEST(PoolResidency, IdleWorkersSleepWhileACappedJobRunsAlone) {
  constexpr std::uint32_t kWorkers = 4;
  ManagementBoundJob job;
  PoolRuntime pool({.workers = kWorkers, .shards = 1});
  JobHandle h = pool.submit(job.prog, job.bodies, job.cfg, {});
  wait_for_capped(pool, 1, h);
  ASSERT_FALSE(h.done()) << "the job finished before the rule capped it";
  const double cpu0 = process_cpu_s();
  const double wall0 = wall_s();
  EXPECT_EQ(h.wait(), JobState::kComplete);
  const double cpu = process_cpu_s() - cpu0;
  const double wall = wall_s() - wall0;
  pool.shutdown();
  job.probe.rec.expect_exactly_once();
  // One resident computes; the leavers must be parked on the pool's cv, not
  // re-probing a job the filter keeps refusing them (about workers x wall).
  EXPECT_LT(cpu, 0.5 * kWorkers * wall)
      << "cpu " << cpu << " s over " << wall << " s of wall";
}

// --- preemption at a round boundary (DESIGN.md §7) --------------------------

/// A long body-bound job L holds all three workers of a one-shard pool when
/// a short job U arrives. U is more urgent than L (earlier deadline, higher
/// priority) unless `urgent` is false. With `cancel`, U's bodies wait for a
/// gate and U is cancelled as soon as a spare answered it, while the leaver
/// is normally still draining its local queue.
struct PreemptScenario {
  SchedPolicy policy = SchedPolicy::kDeadline;
  bool urgent = true;
  bool cancel = false;
};

struct PreemptOutcome {
  JobState long_state{};
  JobState urgent_state{};
  std::uint64_t long_granules_when_urgent_done = 0;
  std::uint64_t preempt_leaves = 0;
};

constexpr GranuleId kLongN = 3000;
constexpr GranuleId kUrgentN = 32;

PreemptOutcome run_preempt_scenario(const PreemptScenario& sc) {
  constexpr std::uint32_t kWorkers = 3;
  SinglePhase long_job = make_single_phase(kLongN);
  SinglePhase urgent_job = make_single_phase(kUrgentN);
  JobProbe long_probe({kLongN});
  JobProbe urgent_probe({kUrgentN});
  rt::BodyTable long_bodies =
      probe_bodies({long_job.p}, long_probe, kBodyBoundSpin);
  std::atomic<bool> gate{!sc.cancel};
  rt::BodyTable urgent_bodies;
  urgent_bodies.set(urgent_job.p, [&](GranuleRange r, WorkerId w) {
    while (!gate.load(std::memory_order_acquire)) std::this_thread::yield();
    urgent_probe.by_worker[w].tasks.fetch_add(1, std::memory_order_relaxed);
    urgent_probe.rec.record(0, r);
  });

  PoolRuntime pool({.workers = kWorkers, .policy = sc.policy, .shards = 1});
  ExecConfig cfg;
  cfg.grain = 1;
  PoolRuntime::SubmitOptions long_opts;
  long_opts.deadline = std::chrono::seconds{60};
  PoolRuntime::SubmitOptions urgent_opts;
  urgent_opts.deadline = std::chrono::seconds{sc.urgent ? 30 : 90};
  urgent_opts.priority = sc.urgent ? 1 : -1;
  JobHandle l = pool.submit(long_job.prog, long_bodies, cfg, long_opts);
  while (long_probe.workers_used() < kWorkers && !l.done())
    std::this_thread::sleep_for(std::chrono::microseconds{20});
  EXPECT_FALSE(l.done()) << "L finished before every worker ran it";
  JobHandle u = pool.submit(urgent_job.prog, urgent_bodies, cfg, urgent_opts);

  PreemptOutcome out;
  if (sc.cancel) {
    while (pool_metric(pool, "pool.preempt_leaves") == 0 && !l.done())
      std::this_thread::sleep_for(std::chrono::microseconds{20});
    EXPECT_TRUE(u.cancel());
    gate.store(true, std::memory_order_release);
  }
  out.urgent_state = u.wait();
  out.long_granules_when_urgent_done = l.stats().granules;
  out.long_state = l.wait();
  pool.shutdown();
  out.preempt_leaves = pool_metric(pool, "pool.preempt_leaves");

  long_probe.rec.expect_exactly_once();
  if (out.urgent_state == JobState::kComplete)
    urgent_probe.rec.expect_exactly_once();
  else
    urgent_probe.rec.expect_at_most_once();
  // Per-job sums equal the pool totals and the body-side counts.
  const PoolStats ps = pool.stats();
  const JobStats ls = l.stats();
  const JobStats us = u.stats();
  EXPECT_EQ(ls.granules, kLongN);
  EXPECT_EQ(us.granules, urgent_probe.rec.total());
  EXPECT_EQ(ls.tasks, long_probe.total_tasks());
  EXPECT_EQ(us.tasks, urgent_probe.total_tasks());
  EXPECT_EQ(ls.granules + us.granules, testing::metric(ps.metrics, "worker.granules"));
  EXPECT_EQ(ls.tasks + us.tasks, testing::metric(ps.metrics, "worker.tasks"));
  std::chrono::nanoseconds pool_busy{0};
  for (auto w : ps.worker_busy) pool_busy += w;
  EXPECT_EQ(ls.busy + us.busy, pool_busy);
  return out;
}

TEST(PoolPreempt, SpareAnswersAnEarlierDeadlineArrival) {
  const PreemptOutcome o = run_preempt_scenario({});
  EXPECT_EQ(o.urgent_state, JobState::kComplete);
  EXPECT_EQ(o.long_state, JobState::kComplete);
  EXPECT_LT(o.long_granules_when_urgent_done, kLongN / 2)
      << "the urgent job waited for the long job's rundown";
  EXPECT_EQ(o.preempt_leaves, 1u);
}

TEST(PoolPreempt, SpareAnswersAHigherPriorityArrival) {
  const PreemptOutcome o =
      run_preempt_scenario({.policy = SchedPolicy::kPriority});
  EXPECT_EQ(o.urgent_state, JobState::kComplete);
  EXPECT_LT(o.long_granules_when_urgent_done, kLongN / 2);
  EXPECT_EQ(o.preempt_leaves, 1u);
}

TEST(PoolPreempt, LaterDeadlineArrivalWaits) {
  const PreemptOutcome o = run_preempt_scenario({.urgent = false});
  EXPECT_EQ(o.urgent_state, JobState::kComplete);
  EXPECT_EQ(o.long_state, JobState::kComplete);
  EXPECT_EQ(o.preempt_leaves, 0u);
}

// The answered job is withdrawn before (normally) or just after the leaver
// adopts it: it ends cancelled, the long job completes, and the accounting
// in run_preempt_scenario still adds up. A cancel that lands between the
// leaver's open and its first refill leaves the job stopped but not yet
// finalized, and the leaver gives it up with no granule run; its finalize
// election then needs a taker, and a second spare that has not looked since
// the arrival may answer it (about 1 run in 8 under TSAN). Nobody answers it
// a third time: that spare adopts a finished job and finalizes it.
TEST(PoolPreempt, CancelledArrivalLeavesTheLongJobWhole) {
  const PreemptOutcome o = run_preempt_scenario({.cancel = true});
  EXPECT_EQ(o.urgent_state, JobState::kCancelled);
  EXPECT_EQ(o.long_state, JobState::kComplete);
  EXPECT_GE(o.preempt_leaves, 1u);
  EXPECT_LE(o.preempt_leaves, 2u);
}

// --- handle ergonomics -------------------------------------------------------

TEST(PoolHandles, PollAndQueuedTimeTracking) {
  SinglePhase s = make_single_phase(16);
  std::atomic<std::uint64_t> count{0};
  const PhaseId ph[] = {s.p};
  rt::BodyTable bodies = counting_bodies(ph, count);

  PoolRuntime pool({.workers = 2, .batch = 4});
  ExecConfig cfg;
  JobHandle h = pool.submit(s.prog, bodies, cfg, {});
  EXPECT_TRUE(h.valid());
  EXPECT_EQ(h.wait(), JobState::kComplete);
  EXPECT_TRUE(h.done());
  const JobStats js = h.stats();
  EXPECT_EQ(js.granules, 16u);
  EXPECT_GE(js.span.count(), js.busy.count());
  EXPECT_GE(js.span, js.queued);
  pool.shutdown();
}

}  // namespace
}  // namespace pax::pool
