// job.hpp — one submitted PhaseProgram inside the pool runtime.
//
// Each job wraps its own executive, sharded (core/sharded_executive.hpp): the
// granule handout is partitioned across lock-free shard rings, so resident
// workers of the *same* job no longer contend on one job mutex — the serial
// resource the paper worries about is now per-shard — while concurrent jobs
// stay fully independent as before. The job's own mutex
// shrinks to bookkeeping (stats merge, open/finalize timestamps); the pool's
// cross-job scheduling works entirely on cheap atomic probes backed by the
// sharded executive's census.
//
// Lock discipline (pool-wide, DESIGN.md §11): a thread never holds a job
// mutex and the pool mutex at the same time, and never holds the job mutex
// across executive calls (the sharded executive locks internally). The job
// mutex ranks below the pool mutex and above every executive lock, so in
// debug builds the rank validator aborts on a job mutex acquired under the
// pool mutex and on any executive lock acquired under a job mutex (the two
// ways those rules have actually been at risk). Probes flip inside the
// executive (under its control mutex or beside a ring operation), so every
// path that can turn a sleeper's predicate true passes through the relevant
// mutex (empty critical section) before notifying — see PoolCtl::wake() and
// cancellation in job.cpp.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/check.hpp"
#include "common/lock_rank.hpp"
#include "common/thread_annotations.hpp"
#include "core/executive.hpp"
#include "core/sharded_executive.hpp"
#include "pool/pool_stats.hpp"
#include "pool/scheduler_policy.hpp"
#include "runtime/body_table.hpp"
#include "sched/dispatcher.hpp"

namespace pax::pool {

enum class JobState : std::uint8_t {
  kQueued,     ///< submitted; no worker has adopted it yet
  kRunning,    ///< its executive has start()ed
  kCancelled,  ///< cancelled — before open, or mid-run after the cooperative
               ///< stop drained its in-flight granules (terminal)
  kComplete,   ///< program finished (terminal)
  kRejected,   ///< refused by admission control; never executed (terminal)
  kFailed,     ///< faulted terminal (DESIGN.md §15): a poisoned granule made
               ///< the dataflow unsatisfiable, or the stuck-granule watchdog
               ///< escalated; remaining work was recalled and drained, the
               ///< pool and sibling jobs are unaffected, and
               ///< JobStats::fault_summary carries the first fault site
};

[[nodiscard]] inline const char* to_string(JobState s) {
  switch (s) {
    case JobState::kQueued: return "queued";
    case JobState::kRunning: return "running";
    case JobState::kCancelled: return "cancelled";
    case JobState::kComplete: return "complete";
    case JobState::kRejected: return "rejected";
    case JobState::kFailed: return "failed";
  }
  return "?";
}

[[nodiscard]] inline bool is_terminal(JobState s) {
  return s == JobState::kComplete || s == JobState::kCancelled ||
         s == JobState::kRejected || s == JobState::kFailed;
}

class PoolRuntime;

namespace detail {

struct PoolCtl;

/// Pool-internal job record. Lifetime is shared between the pool's runnable
/// list and any JobHandles. The submitted program and bodies are borrowed:
/// the caller keeps them alive until the job reaches a terminal state.
struct Job {
  /// Sentinel deadline for "no deadline".
  static constexpr std::chrono::steady_clock::time_point kNoDeadlineTp =
      std::chrono::steady_clock::time_point::max();

  Job(std::uint64_t id_in, int priority_in, const PhaseProgram& program,
      const rt::BodyTable& bodies_in, ExecConfig config, CostModel costs,
      const sched::DispatchConfig& dispatch, const ShardConfig& shard_config,
      std::chrono::steady_clock::time_point deadline_in = kNoDeadlineTp,
      std::chrono::nanoseconds granule_timeout_in = std::chrono::nanoseconds{0})
      : id(id_in),
        priority(priority_in),
        deadline(deadline_in),
        granule_timeout(granule_timeout_in),
        bodies(bodies_in),
        dispatcher(dispatch),
        exec(program, config, costs, shard_config),
        submitted_at(std::chrono::steady_clock::now()),
        watch(dispatch.workers) {}

  const std::uint64_t id;
  const int priority;
  /// Absolute completion deadline (kNoDeadlineTp = none). Drives the EDF
  /// pick and the met/missed accounting at finalize.
  const std::chrono::steady_clock::time_point deadline;
  /// Stuck-granule bound (SubmitOptions::granule_timeout; <= 0 = none): a
  /// single body invocation of this job exceeding it gets the job flagged
  /// by the pool watchdog and escalated through the stop/recall machinery.
  const std::chrono::nanoseconds granule_timeout;
  const rt::BodyTable& bodies;
  /// Per-job dispatch layer: one local run-queue per pool worker, refilled
  /// from this job's sharded executive. Steals stay within the job (tickets
  /// are per-core); cross-job balance is the rotation pick's business.
  sched::Dispatcher dispatcher;
  /// This job's executive; all executive locking is internal (the control
  /// mutex), so workers call it without holding `mu`.
  ShardedExecutive exec;

  /// Back-reference to the pool's shared control block, set by
  /// PoolRuntime::publish() before the job is published anywhere (then
  /// never written again — the shared_ptr publication carries it). Weak:
  /// handles hold the job alive, but must not keep a destroyed pool's
  /// bookkeeping alive with it — lock() failing is how cancel() learns the
  /// pool is gone.
  std::weak_ptr<PoolCtl> ctl;

  // --- guarded by mu (job bookkeeping only) --------------------------------
  /// Rank: job — held alone (never across executive calls, never under the
  /// pool mutex; the rank validator aborts if either slips).
  RankedMutex<LockRank::kJob> mu;
  JobStats stats PAX_GUARDED_BY(mu);
  /// Set by a mid-run cancel (the one that wins returns true); read at
  /// finalize to pick the terminal state. Under mu so cancel/finalize agree.
  bool cancel_requested PAX_GUARDED_BY(mu) = false;
  /// Set by the pool watchdog when a granule exceeded granule_timeout; read
  /// at finalize (precedence: cancel > fault/watchdog > complete). Under mu
  /// for the same agreement reason as cancel_requested.
  bool watchdog_expired PAX_GUARDED_BY(mu) = false;
  /// Set once at construction, read-only afterwards — no guard needed.
  const std::chrono::steady_clock::time_point submitted_at;
  std::chrono::steady_clock::time_point opened_at PAX_GUARDED_BY(mu){};
  std::chrono::steady_clock::time_point finished_at PAX_GUARDED_BY(mu){};

  /// Signalled (with mu) on transition to a terminal state. _any variant:
  /// waits go through RankedUniqueLock's annotated lock()/unlock().
  std::condition_variable_any done_cv;

  // --- atomic probes for the lock-free cross-job pick ----------------------
  /// Terminal flips are release stores (made under mu in the finalize and
  /// cancel paths); handle-side reads are acquire so the terminal stats
  /// written before the flip are visible after it. Scheduling-loop reads
  /// stay relaxed — they only pick a candidate, which the adopter verifies.
  std::atomic<JobState> state{JobState::kQueued};
  /// Cached ShardedExecutive::runnable() (shard/core work, sweepable
  /// deposits, or pending idle work). Relaxed: a stale probe costs one
  /// rotation; the wake path through the pool mutex carries the ordering.
  std::atomic<bool> core_runnable{false};
  /// Relaxed monotonic progress counter (observability only).
  std::atomic<std::uint64_t> granules_done{0};

  // --- residency rule (DESIGN.md §7) ---------------------------------------
  /// Workers resident on this job: +1 at adoption and -1 at release, both
  /// under the pool mutex, so the pick filter and the sleep predicate read
  /// it exactly. A cap leave (try_leave) lowers it outside the pool mutex
  /// and a preemption leave (PoolCtl::claim_arrival_locked) under it, both
  /// never below 1, so neither changes what the filter answers.
  std::atomic<std::uint32_t> residents{0};
  /// A spare resident of another job is leaving to answer this job's
  /// arrival (PoolCtl::claim_arrival_locked), so no other spare answers it
  /// too. Set, and cleared when a worker adopts the job, under the pool
  /// mutex; relaxed for the same reason as `residents`.
  std::atomic<bool> claimed{false};
  /// Set while the job is management-bound (judge_cap_locked): it then
  /// admits one resident. Relaxed: the pick filter reads it under the pool
  /// mutex, and a lift wakes the pool through that mutex.
  std::atomic<bool> capped{false};
  /// The judged period opens once the job has merged one round per pool
  /// worker (so start()'s section and the adoption convoy stay out of it)
  /// and again at every latch and lift; it holds the job's body and
  /// control-plane totals when it opened. period_rounds counts merges up to
  /// the next judgement (or, before the first period, to its opening).
  bool period_open PAX_GUARDED_BY(mu) = false;
  std::uint32_t period_rounds PAX_GUARDED_BY(mu) = 0;
  std::uint64_t period_body_ns PAX_GUARDED_BY(mu) = 0;
  std::uint64_t period_control_ns PAX_GUARDED_BY(mu) = 0;
  /// The cap latched at least once (counts the job in pool.jobs_capped).
  bool was_capped PAX_GUARDED_BY(mu) = false;

  // --- stuck-granule watchdog (DESIGN.md §15) -----------------------------
  /// The last odd value the watchdog saw in one worker's body sequence cell
  /// (0 = none yet) and the poll time that first saw it. Values never
  /// repeat, so a new body always reads as a new value.
  struct BodySample {
    std::uint64_t seq = 0;
    std::uint64_t since_ns = 0;
  };
  /// One sample per pool worker. Only the watchdog thread touches it (the
  /// job's publication under the pool mutex orders the construction), so
  /// it needs no guard.
  std::vector<BodySample> watch;

  /// Refresh the pick probe from the executive census and the local queues;
  /// true when it flipped from not-runnable to runnable — only then can a
  /// sleeper be stuck, so only then must the caller wake the pool.
  /// Local-queue work counts as runnable because a rotating worker can adopt
  /// this job purely to steal from a loaded peer (rundown stealing at pool
  /// scope) — the steal then drains that work, so the probe converges false.
  /// The census a sleeper depends on seeing flips inside the executive's
  /// shard/control sections, and every refill refreshes this probe
  /// afterwards, so the wake path (through the pool mutex) still closes the
  /// lost-wakeup window; later owner pops can only make the probe
  /// over-report, which the adopting worker resolves by rotating on.
  [[nodiscard]] bool refresh_probes() {
    const bool now = exec.runnable() || dispatcher.any_local_work();
    const bool before = core_runnable.exchange(now, std::memory_order_relaxed);
    return now && !before;
  }

  /// Probe: could a rotating worker make progress here? Queued jobs count
  /// (adoption start()s them). A finished-but-unfinalized executive counts
  /// too, so the finalize election always has a taker whoever flipped the
  /// core finished (PoolCtl::finalize). May be stale — the adopting worker
  /// verifies and rotates on if the work evaporated.
  [[nodiscard]] bool runnable_probe() const {
    const JobState s = state.load(std::memory_order_relaxed);
    if (s == JobState::kQueued) return true;
    if (s != JobState::kRunning) return false;
    return core_runnable.load(std::memory_order_relaxed) || exec.finished();
  }

  /// The pool's pick filter and sleep predicate (one function, so a worker
  /// can never find the job runnable and then fail to pick it — that loop
  /// never sleeps). A capped job admits one resident; a finished one stays
  /// adoptable so its finalize election always has a taker.
  [[nodiscard]] bool pickable() const {
    if (!runnable_probe()) return false;
    return !capped.load(std::memory_order_relaxed) ||
           residents.load(std::memory_order_relaxed) == 0 || exec.finished();
  }

  enum class CapChange : std::uint8_t { kNone, kLatched, kLifted };

  /// Called by a resident right after it merged a non-empty round into
  /// `stats`. Every `workers` merged rounds it judges the body and control
  /// time (acquisition wait + hold) spent since the period opened
  /// (DESIGN.md §7). An uncapped job latches the cap when control exceeded
  /// body: past the paper's computation:management break-even a second
  /// worker adds more contention than it takes body work off the first. A
  /// capped job lifts it once body exceeded `workers` times control: even
  /// the whole pool could then not keep its control plane busy. The gap
  /// between the two bounds keeps a job near break-even from flapping, and
  /// judging the whole period, not just its last rounds, keeps one slow
  /// section (a preempted holder, a map build) from flipping a long one.
  /// A lone pool worker has nobody to shed, so it never judges.
  [[nodiscard]] CapChange judge_cap_locked() PAX_REQUIRES(mu) {
    const std::uint32_t workers = dispatcher.workers();
    if (workers < 2 || ++period_rounds < workers) return CapChange::kNone;
    period_rounds = 0;
    const std::uint64_t control = exec.stats().control_hold_ns;
    const auto body = static_cast<std::uint64_t>(stats.busy.count());
    const std::uint64_t c = control - period_control_ns;
    const std::uint64_t b = body - period_body_ns;
    const bool was = capped.load(std::memory_order_relaxed);
    if (period_open && (was ? b <= workers * c : c <= b))
      return CapChange::kNone;
    const bool opening = !period_open;
    period_open = true;  // a new period opens with this merge
    period_control_ns = control;
    period_body_ns = body;
    if (opening) return CapChange::kNone;
    capped.store(!was, std::memory_order_relaxed);
    if (was) return CapChange::kLifted;
    const bool first = !was_capped;
    was_capped = true;
    return first ? CapChange::kLatched : CapChange::kNone;
  }

  /// Give up one place while another worker holds one. The CAS never takes
  /// the count below 1, so exactly one resident stays however many try at
  /// once.
  [[nodiscard]] bool shed_resident() {
    std::uint32_t r = residents.load(std::memory_order_relaxed);
    while (r > 1) {
      if (residents.compare_exchange_weak(r, r - 1, std::memory_order_relaxed))
        return true;
    }
    return false;
  }

  /// A resident of a capped job gives up its place (shed_resident). A
  /// finished job sheds nobody: its adopters are there for the finalize
  /// election.
  [[nodiscard]] bool try_leave() {
    if (!capped.load(std::memory_order_relaxed) || exec.finished())
      return false;
    return shed_resident();
  }

  /// The policy comparator's snapshot of this job (cheap atomic probes).
  [[nodiscard]] JobView view() const {
    return {id, priority, granules_done.load(std::memory_order_relaxed),
            deadline_view_ns()};
  }

  [[nodiscard]] bool has_deadline() const { return deadline != kNoDeadlineTp; }

  /// This job's deadline as the JobView encoding (ns since the steady-clock
  /// epoch; kNoDeadline when none) for the EDF comparator.
  [[nodiscard]] std::int64_t deadline_view_ns() const {
    if (!has_deadline()) return kNoDeadline;
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               deadline.time_since_epoch())
        .count();
  }

  /// Snapshot of the stats. Caller holds mu.
  [[nodiscard]] JobStats stats_snapshot() const PAX_REQUIRES(mu) {
    JobStats out = stats;
    out.shards = exec.shards();
    const auto now = std::chrono::steady_clock::now();
    const auto end =
        finished_at.time_since_epoch().count() != 0 ? finished_at : now;
    out.span = std::chrono::duration_cast<std::chrono::nanoseconds>(
        end - submitted_at);
    if (opened_at.time_since_epoch().count() != 0)
      out.queued = std::chrono::duration_cast<std::chrono::nanoseconds>(
          opened_at - submitted_at);
    return out;
  }
};

/// The pool's shared control block: the bookkeeping mutex, the non-terminal
/// job list, and every pool-plane counter. The PoolRuntime owns it through a
/// shared_ptr and each Job holds it weakly, so a JobHandle that outlives the
/// pool degrades gracefully (cancel() finds the control block gone and
/// returns false) instead of dereferencing a dangling runtime pointer.
struct PoolCtl {
  /// Pool bookkeeping mutex — guards everything below. Rank: pool (above
  /// the job rank: a thread never holds a job mutex and this together; the
  /// rank validator turns that documented rule into an abort).
  mutable RankedMutex<LockRank::kPool> mu;
  /// Workers sleep; drain() waits here too. _any variant: waits go through
  /// RankedUniqueLock's annotated lock()/unlock().
  std::condition_variable_any cv;

  std::vector<std::shared_ptr<Job>> jobs PAX_GUARDED_BY(mu);  ///< non-terminal
  std::uint64_t next_id PAX_GUARDED_BY(mu) = 0;
  bool stop PAX_GUARDED_BY(mu) = false;
  /// Admitted submits so far: bumped under mu as the job joins `jobs`, read
  /// relaxed once per round by residents that may answer an arrival
  /// (claim_arrival_locked), so the warm path touches no lock for it.
  std::atomic<std::uint64_t> arrivals{0};

  // Live job counters (valid mid-run).
  std::uint64_t jobs_submitted PAX_GUARDED_BY(mu) = 0;
  std::uint64_t jobs_completed PAX_GUARDED_BY(mu) = 0;
  std::uint64_t jobs_cancelled PAX_GUARDED_BY(mu) = 0;
  std::uint64_t jobs_rejected PAX_GUARDED_BY(mu) = 0;
  std::uint64_t jobs_deadline_missed PAX_GUARDED_BY(mu) = 0;
  std::uint64_t jobs_deadline_met PAX_GUARDED_BY(mu) = 0;
  std::uint64_t jobs_failed PAX_GUARDED_BY(mu) = 0;
  // Executive-side sums, folded in as each job finalizes (PoolCtl::finalize).
  // Fault containment (DESIGN.md §15): the worker side counts the same
  // bodies independently, in each worker's worker.faulted cell.
  std::uint64_t job_granule_faults PAX_GUARDED_BY(mu) = 0;
  std::uint64_t job_granule_retries PAX_GUARDED_BY(mu) = 0;
  std::uint64_t job_granules_poisoned PAX_GUARDED_BY(mu) = 0;
  std::uint64_t job_map_faults PAX_GUARDED_BY(mu) = 0;
  std::uint64_t watchdog_flags PAX_GUARDED_BY(mu) = 0;
  // Control plane and shard traffic of the finished jobs' executives.
  std::uint64_t exec_control_acquisitions PAX_GUARDED_BY(mu) = 0;
  std::uint64_t exec_lock_hold_ns PAX_GUARDED_BY(mu) = 0;
  std::uint64_t exec_control_busy PAX_GUARDED_BY(mu) = 0;
  std::uint64_t shard_hits PAX_GUARDED_BY(mu) = 0;  ///< home + sibling
  std::uint64_t shard_ring_pops PAX_GUARDED_BY(mu) = 0;
  std::uint64_t shard_ring_pop_empty PAX_GUARDED_BY(mu) = 0;
  std::uint64_t shard_ring_push_full PAX_GUARDED_BY(mu) = 0;
  std::uint64_t shard_ring_cas_retries PAX_GUARDED_BY(mu) = 0;
  std::uint64_t peak_local_queue PAX_GUARDED_BY(mu) = 0;

  /// Settle a job the calling worker gave up; `counted` when it still holds
  /// a place in `residents` (a cap leave already gave its place up). With
  /// no resident left, nobody else refreshes the job's probe, and the cached
  /// value can be stale: a cap leaver retires tickets that enable work, then
  /// leaves without taking it, while a peer's concurrent refresh overwrites
  /// the flip with an older `false`. So the probe is recomputed live here,
  /// under the pool mutex: of the last stayer and the last leaver, whichever
  /// takes the mutex second sees the other's publish (DESIGN.md §7). Returns
  /// the job when it is left pickable without a resident — it needs a
  /// taker, so a caller that picks elsewhere must notify the sleepers.
  const Job* settle_locked(Job& j, bool counted) PAX_REQUIRES(mu) {
    if (counted) j.residents.fetch_sub(1, std::memory_order_relaxed);
    if (j.residents.load(std::memory_order_relaxed) != 0) return nullptr;
    if (j.refresh_probes()) cv.notify_all();
    return j.pickable() ? &j : nullptr;
  }

  /// The sleep predicate: some job passes the pick filter.
  [[nodiscard]] bool any_runnable_locked() const PAX_REQUIRES(mu) {
    for (const auto& j : jobs)
      if (j->pickable()) return true;
    return false;
  }

  /// Policy pick over the jobs that pass the same filter.
  [[nodiscard]] std::shared_ptr<Job> pick_job_locked(SchedPolicy policy) const
      PAX_REQUIRES(mu) {
    std::shared_ptr<Job> best;
    JobView best_view;
    for (const auto& j : jobs) {
      if (!j->pickable()) continue;
      const JobView v = j->view();
      if (best == nullptr || schedules_before(v, best_view, policy)) {
        best = j;
        best_view = v;
      }
    }
    return best;
  }

  /// The preemption rule (DESIGN.md §7): a resident of `own` answers a job
  /// that ranks ahead of `own` under `policy`, is pickable, has no resident
  /// and is unclaimed, by giving up its place in `own` (never the last one,
  /// Job::shed_resident) and claiming the job, in one section under mu. So
  /// at most one spare answers each arrival until a worker adopts it.
  /// True when the caller gave up its place and must leave `own`.
  [[nodiscard]] bool claim_arrival_locked(Job& own, SchedPolicy policy)
      PAX_REQUIRES(mu) {
    const JobView mine = own.view();
    for (const auto& j : jobs) {
      if (j->claimed.load(std::memory_order_relaxed) ||
          j->residents.load(std::memory_order_relaxed) != 0 ||
          !j->pickable() || !schedules_before(j->view(), mine, policy))
        continue;
      if (!own.shed_resident()) return false;
      j->claimed.store(true, std::memory_order_relaxed);
      return true;
    }
    return false;
  }

  /// The finalize election for a job whose executive finished. Several
  /// threads can observe the finished census at once; the job mutex elects:
  /// the first one in sees kRunning, writes the final bookkeeping and flips
  /// the terminal state (release, flip LAST — done() must imply stats() is
  /// final); every later caller sees a terminal state and returns false.
  /// The winner then wakes the job's waiters and folds the job into the
  /// pool counters. Workers call it when a round finds the executive
  /// finished; cancel() and the watchdog call it when their own
  /// request_stop() finished it, because a job stopped with no resident has
  /// no worker to run its finalize. Takes the executive's control mutex,
  /// the job mutex and the pool mutex strictly one at a time.
  bool finalize(const std::shared_ptr<Job>& job) PAX_EXCLUDES(mu);

  /// Erase `job` from the runnable list if present.
  void remove_job_locked(const std::shared_ptr<Job>& job) PAX_REQUIRES(mu) {
    for (auto it = jobs.begin(); it != jobs.end(); ++it) {
      if (*it == job) {
        jobs.erase(it);
        return;
      }
    }
  }

  /// Empty mu critical section + notify: makes probe flips (done under a job
  /// mutex or inside an executive) visible to sleepers without ever nesting
  /// the locks.
  void wake() PAX_EXCLUDES(mu) {
    { RankedLock lock(mu); }
    cv.notify_all();
  }
};

}  // namespace detail

/// Caller-side view of a submitted job: poll, wait (with timeout), cancel,
/// stats. Copyable; all copies refer to the same job. Handles may outlive
/// the PoolRuntime that issued them: the job record is shared-owned, and
/// cancel() reaches the pool through a weak reference, so after shutdown a
/// handle still answers state()/stats() and cancel() simply returns false
/// (shutdown drains every job to a terminal state first).
class JobHandle {
 public:
  JobHandle() = default;

  [[nodiscard]] bool valid() const { return job_ != nullptr; }
  [[nodiscard]] std::uint64_t id() const {
    PAX_CHECK_MSG(job_ != nullptr, "empty JobHandle");
    return job_->id;
  }

  /// Non-blocking state poll.
  [[nodiscard]] JobState state() const {
    PAX_CHECK_MSG(job_ != nullptr, "empty JobHandle");
    return job_->state.load(std::memory_order_acquire);
  }

  /// True when the job reached a terminal state (complete, cancelled,
  /// rejected, or failed). Implies stats() is final (the terminal flip is a
  /// release store made under the job mutex AFTER the final bookkeeping
  /// writes — including, for kFailed, the fault accounting and
  /// fault_summary).
  [[nodiscard]] bool done() const { return is_terminal(state()); }

  /// Block until the job reaches a terminal state; returns it. A job that
  /// faults terminally wakes this wait exactly like a completing one: the
  /// finalize election flips it to kFailed and notifies, so wait() returns
  /// kFailed with stats() final (fault_summary, retry and poison counts
  /// included). test_fault pins this contract.
  JobState wait() {
    PAX_CHECK_MSG(job_ != nullptr, "empty JobHandle");
    RankedUniqueLock lock(job_->mu);
    job_->done_cv.wait(lock, [&] {
      // acquire: pairs with the release store in the finalize/cancel/reject
      // paths so the terminal stats written before the flip are visible.
      return is_terminal(job_->state.load(std::memory_order_acquire));
    });
    return job_->state.load(std::memory_order_acquire);
  }

  /// Block until the job reaches a terminal state or `tp` passes; returns
  /// the state observed at return (non-terminal on timeout — the job keeps
  /// running; pair with cancel() for a hard timeout).
  JobState wait_until(std::chrono::steady_clock::time_point tp) {
    PAX_CHECK_MSG(job_ != nullptr, "empty JobHandle");
    RankedUniqueLock lock(job_->mu);
    while (true) {
      const JobState s = job_->state.load(std::memory_order_acquire);
      if (is_terminal(s)) return s;
      if (job_->done_cv.wait_until(lock, tp) == std::cv_status::timeout)
        return job_->state.load(std::memory_order_acquire);
    }
  }

  JobState wait_for(std::chrono::nanoseconds d) {
    return wait_until(std::chrono::steady_clock::now() + d);
  }

  /// Request cancellation. True exactly when this call will be the reason
  /// the job ends kCancelled: either it was still queued (cancelled on the
  /// spot, never runs) or it was running and this call won the mid-run
  /// cancel — the executive stops handing out granules, recalls buffered
  /// work, drains what is in flight, and the job finalizes as kCancelled
  /// with consistent partial stats (on this thread when nothing was in
  /// flight, else on the worker that retires the last ticket). False when
  /// the job already ended, a cancel is already in flight, or the pool is
  /// gone. NOTE: a winning mid-run cancel can race the final granule
  /// retiring — the job still finalizes kCancelled, possibly with
  /// fully-complete stats.
  bool cancel();

  /// Stats snapshot (final once done()).
  [[nodiscard]] JobStats stats() const {
    PAX_CHECK_MSG(job_ != nullptr, "empty JobHandle");
    RankedLock lock(job_->mu);
    return job_->stats_snapshot();
  }

 private:
  friend class PoolRuntime;
  explicit JobHandle(std::shared_ptr<detail::Job> job) : job_(std::move(job)) {}

  std::shared_ptr<detail::Job> job_;
};

}  // namespace pax::pool
