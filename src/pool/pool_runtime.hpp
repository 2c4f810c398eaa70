// pool_runtime.hpp — a shared worker pool executing many PhasePrograms
// concurrently, so rundown tails overlap *across* programs.
//
// This is the repo's one worker loop. rt::ThreadedRuntime runs a single
// program on a private one-job pool, so a threaded run is a pool job with
// no deadline; here many jobs share one long-lived set of std::jthread
// workers, each job wrapping its own sharded executive behind its own
// mutex, so the utilization collapse the paper fixes inside a program
// (the last program's rundown idling the pool) is fixed at program scope
// too. The worker loop generalizes the batched handoff into a two-level
// pick:
//
//   level 1 — prefer the resident job while its waiting queue is non-empty
//             (the single-program loop, via the shared sched::Dispatcher),
//             unless a more urgent job arrived (the preemption rule below);
//   level 2 — when it drains (the rundown signal), rotate to another
//             runnable job chosen by SchedPolicy, so another program's
//             granules fill this program's tail.
//
// Both levels obey the residency rule (DESIGN.md §7): a job whose control
// plane costs more than its bodies admits one resident until its bodies
// clearly outweigh it again, and the workers it sheds go to other jobs or
// to sleep. Under kDeadline and kPriority a spare resident (one whose job
// keeps another) also answers an admitted arrival that outranks its job
// and has no taker yet: at its next round boundary it claims the arrival,
// finishes its local queue without refilling and leaves like a cap leaver,
// so an urgent job need not wait for a running job's rundown.
//
// Oversubscribing a fixed processor set with independent work sources is the
// classic rundown cure at this scope (Argentini 2003, virtual processors for
// SPMD programs); per-job accounting (JobStats vs. a solo baseline) keeps
// the overlap honest about work inflation (Acar et al. 2017).
#pragma once

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "common/alloc_stats.hpp"
#include "common/lock_rank.hpp"
#include "common/thread_annotations.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_ring.hpp"
#include "pool/job.hpp"
#include "pool/pool_stats.hpp"
#include "pool/scheduler_policy.hpp"
#include "sched/dispatcher.hpp"

namespace pax::rt {
class ThreadedRuntime;
}  // namespace pax::rt

namespace pax::pool {

struct PoolConfig {
  std::uint32_t workers = 4;
  /// Refill floor per resident job: one job-executive critical section may
  /// retire/pull up to the local queue capacity of 2x batch, the surplus
  /// left for peers to steal (sched::kDefaultBatch, the value
  /// RtConfig::batch passes through).
  std::uint32_t batch = sched::kDefaultBatch;
  /// Which runnable job a rotating worker adopts. Under kDeadline and
  /// kPriority, which rank by urgency fixed at submit, an arrival that
  /// outranks a running job also draws one spare resident off it at its
  /// next round boundary (DESIGN.md §7); never the job's last resident,
  /// never on a 1-worker pool.
  SchedPolicy policy = SchedPolicy::kFifo;
  /// Executive shards per job (lock-free granule-handout partitions; see
  /// core/sharded_executive.hpp). kAutoShards = 2x workers clamped per job;
  /// 1 = the per-job single-mutex protocol; 0 is invalid and fails at
  /// pool construction.
  std::uint32_t shards = kAutoShards;
  /// Admission control: maximum number of non-terminal jobs the pool holds
  /// at once (queued + running). 0 = unbounded (the batch default). When the
  /// bound is hit, submit() returns a handle already in JobState::kRejected
  /// — the job never executes, and the caller's program/bodies borrow ends
  /// immediately. Bounding the pending set is what keeps latency finite
  /// under overload in serve mode (DESIGN.md §14).
  std::uint32_t max_pending = 0;
  /// Optional trace buffer (non-owning; must outlive the pool and be sized
  /// for >= `workers`). Null = tracing off. When set, workers write exec/
  /// refill/steal records tagged with the resident job's id plus job
  /// open/drain/finalize and sleep/wake lifecycle records into their own
  /// rings. submit() installs NO control-track core sink: two workers
  /// resident on different jobs hold independent control mutexes, so a
  /// shared control ring would lose its single-writer contract — job lanes
  /// come from the worker-side records (DESIGN.md §12). rt::ThreadedRuntime
  /// installs one on its one job, the only writer of its private pool.
  obs::TraceBuffer* trace = nullptr;
};

class PoolRuntime {
 public:
  /// Validates the config and starts the workers immediately.
  explicit PoolRuntime(PoolConfig config);

  /// shutdown(): drains remaining jobs, then stops and joins the workers.
  ~PoolRuntime();

  PoolRuntime(const PoolRuntime&) = delete;
  PoolRuntime& operator=(const PoolRuntime&) = delete;

  /// Per-job submission options (the serve-mode surface).
  struct SubmitOptions {
    /// Higher schedules earlier under SchedPolicy::kPriority.
    int priority = 0;
    /// Relative completion deadline, measured from submit(); <= 0 = none.
    /// Drives the EDF pick under SchedPolicy::kDeadline and the met/missed
    /// accounting in JobStats/PoolStats — advisory, never enforced by
    /// killing the job.
    std::chrono::nanoseconds deadline{0};
    CostModel costs{};
    /// Stuck-granule bound (DESIGN.md §15); <= 0 = none. When a single body
    /// invocation of this job runs longer than this, the pool's watchdog
    /// thread flags the job and escalates through the stop/recall machinery:
    /// handouts stop, buffered work is recalled, and once the stuck granule
    /// finally returns (the escalation is cooperative — nothing is killed)
    /// the job finalizes as JobState::kFailed. Sibling jobs are unaffected.
    std::chrono::nanoseconds granule_timeout{0};
  };

  /// Submit a program for execution (`{}` options: a plain batch job).
  /// `program` and `bodies` are borrowed until the returned handle reports
  /// done(). Thread-safe; callable from inside phase bodies (they run with
  /// no executive lock held). Non-blocking: under admission control
  /// (PoolConfig::max_pending) an over-budget submit returns immediately
  /// with a handle already in JobState::kRejected instead of queueing or
  /// blocking.
  JobHandle submit(const PhaseProgram& program, const rt::BodyTable& bodies,
                   ExecConfig config, const SubmitOptions& opts);

  /// Block until every submitted job has completed or been cancelled.
  void drain();

  /// drain(), then stop and join the workers. Idempotent; after it returns,
  /// stats() is final (worker wall times included) and submit() is invalid.
  void shutdown();

  [[nodiscard]] PoolStats stats() const;

  [[nodiscard]] const PoolConfig& config() const { return config_; }

 private:
  /// rt::ThreadedRuntime builds its one job at construction and hands it to
  /// a private pool in run(): make_job() and publish() are its way in.
  friend class rt::ThreadedRuntime;

  /// The per-job dispatch-layer configuration a pool under `c` submits with.
  [[nodiscard]] static sched::DispatchConfig dispatch_config(const PoolConfig& c) {
    return {.workers = c.workers, .batch = c.batch, .trace = c.trace};
  }

  /// Build job `id` (executive setup; takes no pool lock) with the shard and
  /// dispatch geometry of a pool under `c`. Its trace records carry `id`,
  /// so the exporter can lane them per job even though the rings are per
  /// worker.
  [[nodiscard]] static std::shared_ptr<detail::Job> make_job(
      const PoolConfig& c, std::uint64_t id, const PhaseProgram& program,
      const rt::BodyTable& bodies, ExecConfig config, const SubmitOptions& opts,
      std::chrono::steady_clock::time_point deadline);

  /// Admit a built job (or reject it under max_pending) and wake the
  /// workers: the publication half of submit().
  JobHandle publish(std::shared_ptr<detail::Job> job);

  void worker_main(WorkerId id);
  /// Emit a worker-track job-lifecycle record (no-op when tracing is off).
  void trace_event(WorkerId w, std::uint64_t job_id, obs::TraceKind kind);

  /// Stuck-granule watchdog (DESIGN.md §15): samples each timeout-carrying
  /// job's per-worker body sequence cells (Dispatcher::body_seq), keeps per
  /// job and worker the last odd value seen and when it was first seen
  /// (Job::watch), and escalates once one value has been seen for longer
  /// than granule_timeout. Holds wd_mu_ only while sleeping — never across an
  /// escalation, which walks ctl_->mu, then the job mutex, then the job
  /// executive, strictly one at a time (the documented pool lock
  /// discipline; nesting any of them under a kSleep mutex would invert the
  /// rank order and abort under the validator).
  void watchdog_main();
  /// Flag `job` (idempotent) and escalate through PR 9's stop/recall path.
  void watchdog_escalate(const std::shared_ptr<detail::Job>& job,
                         WorkerId stuck_worker);

  PoolConfig config_;
  /// Heap-traffic snapshot at construction (alloc_stats; zeros without the
  /// hooks), so stats() can report the pool's allocator footprint.
  AllocTotals heap0_;

  /// Unified metrics registry (obs/metrics.hpp): workers accumulate into
  /// their own cells at worker exit; stats() folds in the pool-plane values.
  obs::MetricsRegistry metrics_;
  struct MetricIds {
    obs::MetricId tasks, granules, busy_ns, wall_ns, steals, steal_fails,
        wait_wakeups, rotations, job_locks, faulted, jobs_capped, cap_lifts,
        cap_leaves, preempt_leaves;
  } mid_{};

  /// Shared control block (detail::PoolCtl, job.hpp): the pool mutex, the
  /// non-terminal job list, and every pool-plane counter. Shared-owned here,
  /// weakly referenced from each Job, so JobHandles degrade gracefully when
  /// they outlive the pool instead of dereferencing a dangling pointer.
  std::shared_ptr<detail::PoolCtl> ctl_;

  std::vector<std::jthread> workers_;  ///< last member: joins before teardown

  /// Watchdog sleep mutex/cv (rank: sleep — held alone, never while
  /// escalating). Guards only the stop latch; submit() notifies when a
  /// timeout-carrying job arrives so an idle watchdog starts polling.
  RankedMutex<LockRank::kSleep> wd_mu_;
  std::condition_variable_any wd_cv_;
  bool wd_stop_ PAX_GUARDED_BY(wd_mu_) = false;
  /// Declared after workers_: destroyed (joined) first, and shutdown() stops
  /// it explicitly before joining the workers.
  std::jthread watchdog_;
};

}  // namespace pax::pool
