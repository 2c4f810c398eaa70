#include "pool/pool_runtime.hpp"

#include <algorithm>
#include <thread>
#include <utility>

#include "common/check.hpp"
#include "sched/dispatcher.hpp"

namespace pax::pool {

namespace {
constexpr std::uint64_t kNoJobId = ~std::uint64_t{0};
}  // namespace

PoolRuntime::PoolRuntime(PoolConfig config)
    : config_(config),
      heap0_(alloc_stats::totals()),
      ctl_(std::make_shared<detail::PoolCtl>()) {
  PAX_CHECK_MSG(config_.workers > 0, "pool needs at least one worker");
  PAX_CHECK_MSG(config_.batch > 0, "pool batch must be at least 1");
  PAX_CHECK_MSG(config_.shards != 0,
                "shards must be at least 1 (pass kAutoShards for the default)");
  mid_.tasks = metrics_.register_counter("worker.tasks");
  mid_.granules = metrics_.register_counter("worker.granules");
  mid_.busy_ns = metrics_.register_counter("worker.busy_ns");
  mid_.wall_ns = metrics_.register_counter("worker.wall_ns");
  mid_.steals = metrics_.register_counter("worker.steals");
  mid_.steal_fails = metrics_.register_counter("worker.steal_fail_spins");
  mid_.wait_wakeups = metrics_.register_counter("worker.wait_wakeups");
  mid_.rotations = metrics_.register_counter("worker.rotations");
  mid_.job_locks = metrics_.register_counter("worker.job_lock_acquisitions");
  mid_.faulted = metrics_.register_counter("worker.faulted");
  // Residency and preemption rules (DESIGN.md §7), added live by the worker
  // that latched or lifted the cap or left: all four events are rare, so no
  // local staging.
  mid_.jobs_capped = metrics_.register_counter("pool.jobs_capped");
  mid_.cap_lifts = metrics_.register_counter("pool.cap_lifts");
  mid_.cap_leaves = metrics_.register_counter("pool.cap_leaves");
  mid_.preempt_leaves = metrics_.register_counter("pool.preempt_leaves");
  metrics_.bind(config_.workers);
  workers_.reserve(config_.workers);
  for (WorkerId w = 0; w < config_.workers; ++w)
    workers_.emplace_back([this, w] { worker_main(w); });
  // The stuck-granule watchdog (DESIGN.md §15). Always started: with no
  // timeout-carrying job it parks on wd_cv_ and costs nothing.
  watchdog_ = std::jthread([this] { watchdog_main(); });
}

PoolRuntime::~PoolRuntime() { shutdown(); }

JobHandle PoolRuntime::submit(const PhaseProgram& program,
                              const rt::BodyTable& bodies, ExecConfig config,
                              const SubmitOptions& opts) {
  // A per-job shard override must agree with an explicit pool-level count:
  // the pool's home-shard geometry is shared machinery, not a per-job knob.
  PAX_CHECK_MSG(opts.shards == kAutoShards || config_.shards == kAutoShards ||
                    opts.shards == config_.shards,
                "job shard count mismatches the pool's shard configuration");
  // Resolve the relative deadline against the submit instant before any
  // setup work, so executive construction time counts against the budget.
  const auto deadline_tp =
      opts.deadline.count() > 0
          ? std::chrono::steady_clock::now() + opts.deadline
          : detail::Job::kNoDeadlineTp;
  std::uint64_t id = 0;
  {
    RankedLock lock(ctl_->mu);
    PAX_CHECK_MSG(!ctl_->stop, "submit on a stopped pool");
    id = ctl_->next_id++;
  }
  // Job construction (executive setup) happens outside the pool lock.
  return publish(make_job(config_, id, program, bodies, config, opts, deadline_tp));
}

std::shared_ptr<detail::Job> PoolRuntime::make_job(
    const PoolConfig& c, std::uint64_t id, const PhaseProgram& program,
    const rt::BodyTable& bodies, ExecConfig config, const SubmitOptions& opts,
    std::chrono::steady_clock::time_point deadline) {
  const ShardConfig shard_config{
      .shards = opts.shards != kAutoShards ? opts.shards : c.shards,
      .workers = c.workers,
      .batch = c.batch,
      .trace = c.trace,
      .trace_job = id};
  sched::DispatchConfig dispatch = dispatch_config(c);
  dispatch.trace_job = id;
  return std::make_shared<detail::Job>(id, opts.priority, program, bodies,
                                       config, opts.costs, dispatch,
                                       shard_config, deadline,
                                       opts.granule_timeout);
}

JobHandle PoolRuntime::publish(std::shared_ptr<detail::Job> job) {
  // Back-reference set before the job is published anywhere (handle or job
  // list); never written again.
  job->ctl = ctl_;
  bool rejected = false;
  {
    RankedLock lock(ctl_->mu);
    PAX_CHECK_MSG(!ctl_->stop, "submit on a stopped pool");
    ++ctl_->jobs_submitted;
    // Admission control: bound the non-terminal set. Rejecting here — not
    // after queueing — keeps submit() non-blocking and the pending latency
    // budget intact; a rejected deadline job is by definition a miss.
    if (config_.max_pending != 0 &&
        ctl_->jobs.size() >= config_.max_pending) {
      ++ctl_->jobs_rejected;
      if (job->has_deadline()) ++ctl_->jobs_deadline_missed;
      rejected = true;
    } else {
      ctl_->jobs.push_back(job);
      ctl_->arrivals.fetch_add(1, std::memory_order_relaxed);
    }
  }
  if (rejected) {
    {
      // Terminal contract: bookkeeping first, release flip last, all under
      // the job mutex — done() implies stats() is final.
      RankedLock jlock(job->mu);
      const auto now = std::chrono::steady_clock::now();
      job->finished_at = now;
      if (job->has_deadline()) {
        job->stats.has_deadline = true;
        job->stats.deadline_missed = true;
        job->stats.deadline_slack =
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                job->deadline - now);
      }
      job->state.store(JobState::kRejected, std::memory_order_release);
    }
    job->done_cv.notify_all();
    return JobHandle(std::move(job));
  }
  // notify_all, not notify_one: drain() waits on the same cv and a
  // notify_one could land on a drainer instead of an idle worker.
  ctl_->cv.notify_all();
  // A timeout-carrying job starts the watchdog polling (pass through wd_mu_
  // so a watchdog between its job scan and its wait cannot miss the wake).
  if (job->granule_timeout.count() > 0) {
    { RankedLock lock(wd_mu_); }
    wd_cv_.notify_all();
  }
  return JobHandle(std::move(job));
}

void PoolRuntime::drain() {
  RankedUniqueLock lock(ctl_->mu);
  // Explicit wait loop rather than the predicate overload: the predicate
  // reads guarded state, and the thread-safety analysis cannot see that
  // a lambda body runs with the capability held.
  while (!ctl_->jobs.empty()) ctl_->cv.wait(lock);
}

void PoolRuntime::shutdown() {
  drain();
  // Stop the watchdog first: after drain() there is no job left to watch,
  // and joining it here keeps shutdown() deterministic (the jthread member
  // destructor would otherwise race the pool teardown below).
  {
    RankedLock lock(wd_mu_);
    wd_stop_ = true;
  }
  wd_cv_.notify_all();
  if (watchdog_.joinable()) watchdog_.join();
  {
    RankedLock lock(ctl_->mu);
    ctl_->stop = true;
  }
  ctl_->cv.notify_all();
  workers_.clear();  // jthread destructors join
}

PoolStats PoolRuntime::stats() const {
  PoolStats s;
  s.worker_busy.reserve(config_.workers);
  s.worker_wall.reserve(config_.workers);
  for (WorkerId w = 0; w < config_.workers; ++w) {
    s.worker_busy.emplace_back(metrics_.value_at(mid_.busy_ns, w));
    s.worker_wall.emplace_back(metrics_.value_at(mid_.wall_ns, w));
  }
  const AllocTotals heap = alloc_stats::delta(heap0_, alloc_stats::totals());
  // Worker-cell sums (live; final after shutdown) plus the pool-plane values
  // pushed as plain entries under the pool mutex.
  s.metrics = metrics_.snapshot();
  RankedLock lock(ctl_->mu);
  s.metrics.push("pool.jobs_submitted", ctl_->jobs_submitted);
  s.metrics.push("pool.jobs_completed", ctl_->jobs_completed);
  s.metrics.push("pool.jobs_cancelled", ctl_->jobs_cancelled);
  s.metrics.push("pool.jobs_rejected", ctl_->jobs_rejected);
  s.metrics.push("pool.jobs_failed", ctl_->jobs_failed);
  s.metrics.push("pool.deadline_missed", ctl_->jobs_deadline_missed);
  s.metrics.push("pool.deadline_met", ctl_->jobs_deadline_met);
  s.metrics.push("fault.job_bodies", ctl_->job_granule_faults);
  s.metrics.push("fault.retries", ctl_->job_granule_retries);
  s.metrics.push("fault.poisoned", ctl_->job_granules_poisoned);
  s.metrics.push("fault.map", ctl_->job_map_faults);
  s.metrics.push("fault.watchdog_flags", ctl_->watchdog_flags);
  s.metrics.push("exec.control_acquisitions", ctl_->exec_control_acquisitions);
  s.metrics.push("exec.control_hold_ns", ctl_->exec_lock_hold_ns);
  s.metrics.push("exec.control_busy", ctl_->exec_control_busy);
  s.metrics.push("shard.hits", ctl_->shard_hits);
  s.metrics.push("shard.ring.pop", ctl_->shard_ring_pops);
  s.metrics.push("shard.ring.pop_empty", ctl_->shard_ring_pop_empty);
  s.metrics.push("shard.ring.push_full", ctl_->shard_ring_push_full);
  s.metrics.push("shard.ring.cas_retries", ctl_->shard_ring_cas_retries);
  s.metrics.push("queue.peak_occupancy", ctl_->peak_local_queue);
  s.metrics.push("heap.allocs", heap.allocs);
  s.metrics.push("heap.bytes", heap.bytes);
  if (config_.trace != nullptr) {
    s.metrics.push("trace.emitted", config_.trace->total_emitted());
    s.metrics.push("trace.dropped", config_.trace->total_dropped());
  }
  return s;
}

void PoolRuntime::worker_main(WorkerId id) {
  const auto enter = std::chrono::steady_clock::now();
  std::vector<Ticket> done;
  done.reserve(dispatch_config(config_).effective_capacity());
  sched::BodyLoopStats totals;  // everything this worker executed
  sched::BodyLoopStats delta;   // executed since the last merge into the job
  std::uint64_t steal_delta = 0;
  std::uint64_t locks = 0;
  std::uint64_t rotations = 0;
  std::uint64_t steals = 0;
  std::uint64_t steal_fails = 0;
  std::uint64_t wait_wakeups = 0;
  std::uint64_t last_resident = kNoJobId;
  std::shared_ptr<detail::Job> job;  // resident job
  // Drained job this worker gave up; the next pick settles it under the
  // pool mutex. `released_left`: a cap leave already took it off the count.
  std::shared_ptr<detail::Job> released;
  bool released_left = false;
  // Over the resident job's cap, or answering an arrival: already uncounted;
  // retires and drains what it holds, then leaves without refilling or
  // stealing (DESIGN.md §7).
  bool leaving = false;
  // Preemption rule (DESIGN.md §7): only the policies that rank by urgency
  // fixed at submit, and only with a peer to stay behind. `seen_arrivals`
  // is the pool's arrival count when this worker last looked.
  const bool answers_arrivals =
      config_.workers > 1 && (config_.policy == SchedPolicy::kDeadline ||
                              config_.policy == SchedPolicy::kPriority);
  std::uint64_t seen_arrivals = 0;

  // Fault hand-off (DESIGN.md §15): drain_local's exception barrier parks
  // fault records in the job dispatcher's per-worker buffer; report them
  // through the job executive's fail path before the next refill — a
  // faulted ticket must never retire as a completion. Cold path: the
  // conservative pool wake afterwards (retries = new work, or a poison
  // flipped the executive finished) costs nothing that matters.
  auto report_faults = [&](detail::Job& j) {
    std::vector<GranuleFault>& fb = j.dispatcher.fault_buffer(id);
    if (fb.empty()) return;
    j.exec.fail_batch(id, fb);
    fb.clear();
    (void)j.refresh_probes();  // wake unconditionally below — faults are cold
    ctl_->wake();
  };

  while (true) {
    bool readopted = false;  // picked the job it just gave up, awake
    if (job == nullptr) {
      PAX_DCHECK(done.empty());
      RankedUniqueLock lock(ctl_->mu);
      // Settle the job this worker gave up. If it is left pickable without
      // a resident and this worker picks elsewhere, the sleepers must hear
      // it. The reference goes now (a sleeper must not keep a job alive);
      // the address is only compared, while the pool mutex is held and the
      // job list keeps the job alive.
      const detail::Job* reopened = nullptr;
      std::uint64_t gave_up = kNoJobId;
      if (released != nullptr) {
        reopened = ctl_->settle_locked(*released, !released_left);
        gave_up = released->id;
        released.reset();
      }
      // Explicit wait loop: the predicate touches guarded state, which
      // the analysis cannot track through a lambda.
      if (!ctl_->stop && !ctl_->any_runnable_locked()) {
        reopened = nullptr;  // no longer pickable: a later flip wakes anyway
        gave_up = kNoJobId;  // slept: whatever it picks next is new work
        trace_event(id, kNoJobId, obs::TraceKind::kSleep);
        while (!ctl_->stop && !ctl_->any_runnable_locked()) ctl_->cv.wait(lock);
        trace_event(id, kNoJobId, obs::TraceKind::kWake);
        ++wait_wakeups;  // one per park, like the kWake records
      }
      job = ctl_->pick_job_locked(config_.policy);
      if (reopened != nullptr && job.get() != reopened) ctl_->cv.notify_all();
      if (job == nullptr) {
        if (ctl_->stop) break;
        continue;  // stale probe; re-evaluate
      }
      job->residents.fetch_add(1, std::memory_order_relaxed);
      job->claimed.store(false, std::memory_order_relaxed);
      // The pick just ranked every admitted job, so no arrival so far can
      // outrank this one while it is still waiting.
      seen_arrivals = ctl_->arrivals.load(std::memory_order_relaxed);
      leaving = false;
      if (job->id != last_resident) {
        if (last_resident != kNoJobId) ++rotations;
        last_resident = job->id;
      }
      readopted = job->id == gave_up;
    }
    // Re-adopting the job this worker just gave up, without sleeping: its
    // round found nothing, yet the census keeps the job pickable — a peer's
    // sweep is in flight (sweep entry is a try-lock), or a scatter has
    // counted work it has not pushed yet. Yield once, pool mutex released,
    // so a sweeper descheduled mid-section gets the CPU back instead of this
    // worker spinning a pool-mutex and job-mutex round until it runs.
    if (readopted) std::this_thread::yield();

    // One adoption round on the resident job: a short bookkeeping section
    // (merge body accounting, open on first adoption), then — with no job
    // lock held — retire the previous drain's tickets and refill this
    // worker's local run-queue through the job's sharded executive.
    enum class Outcome : std::uint8_t {
      kExecute,   ///< local queue non-empty; drain it unlocked
      kRetry,     ///< did executive idle work; poll the queue again
      kFinished,  ///< program finished and this worker won the finalize
      kDrained,   ///< rundown: queue empty, job not finished — steal/rotate
      kGone,      ///< job cancelled or finalized by a peer — rotate
    };
    Outcome out;
    JobState st;
    bool must_start = false;
    auto cap = detail::Job::CapChange::kNone;
    {
      RankedLock jlock(job->mu);
      ++locks;
      ++job->stats.exec_lock_acquisitions;
      if (delta.granules != 0 || delta.tasks != 0 || steal_delta != 0) {
        job->stats.tasks += delta.tasks;
        job->stats.granules += delta.granules;
        job->stats.busy += delta.busy;
        job->stats.steals += steal_delta;
        job->granules_done.fetch_add(delta.granules, std::memory_order_relaxed);
        delta = {};
        steal_delta = 0;
        cap = job->judge_cap_locked();
      }

      st = job->state.load(std::memory_order_relaxed);
      if (st == JobState::kQueued) {
        JobState open_expected = JobState::kQueued;
        if (job->state.compare_exchange_strong(open_expected, JobState::kRunning,
                                               std::memory_order_acq_rel)) {
          job->opened_at = std::chrono::steady_clock::now();
          st = JobState::kRunning;
          must_start = true;
        } else {
          st = open_expected;  // lost the open race to cancel()
        }
      }
    }
    // start() outside the job mutex (the lock discipline: never hold it
    // across executive calls). The open-CAS winner is the only caller, and
    // a peer that adopts before start() returns just sees an un-started
    // executive (acquire yields nothing) and rotates on.
    if (must_start) {
      trace_event(id, job->id, obs::TraceKind::kJobOpen);
      job->exec.start();
    }
    if (cap == detail::Job::CapChange::kLatched) {
      metrics_.add(mid_.jobs_capped, id, 1);
    } else if (cap == detail::Job::CapChange::kLifted) {
      metrics_.add(mid_.cap_lifts, id, 1);
      ctl_->wake();  // the job admits more residents again
    }
    if (!leaving && job->try_leave()) {
      leaving = true;
      metrics_.add(mid_.cap_leaves, id, 1);
    }
    // A spare resident answers a more urgent arrival at this round boundary
    // instead of at the job's rundown: it leaves the way a cap leaver does.
    // One relaxed load per round until something arrives.
    if (answers_arrivals && !leaving && st == JobState::kRunning) {
      const std::uint64_t arrived =
          ctl_->arrivals.load(std::memory_order_relaxed);
      if (arrived != seen_arrivals &&
          job->residents.load(std::memory_order_relaxed) > 1 &&
          !job->exec.finished()) {
        seen_arrivals = arrived;
        {
          RankedLock lock(ctl_->mu);
          leaving = ctl_->claim_arrival_locked(*job, config_.policy);
        }
        if (leaving) metrics_.add(mid_.preempt_leaves, id, 1);
      }
    }

    if (st != JobState::kRunning) {
      PAX_DCHECK(done.empty());
      out = Outcome::kGone;
    } else {
      if (leaving)
        job->dispatcher.retire(job->exec, id, done);
      else
        job->dispatcher.refill(job->exec, id, done);
      if (job->dispatcher.occupancy(id) > 0) {
        out = Outcome::kExecute;
      } else if (job->exec.finished()) {
        // Several workers (and a cancel or watchdog thread) can observe the
        // finished census concurrently; the election picks one finalizer.
        out = ctl_->finalize(job) ? Outcome::kFinished : Outcome::kGone;
      } else if (!leaving && job->exec.has_idle_work() &&
                 job->exec.idle_work()) {
        // Donate the rotation gap to this job's executive (map builds,
        // deferred splits) before declaring its rundown.
        out = Outcome::kRetry;
      } else {
        out = Outcome::kDrained;
      }
    }
    // Probe flips cover every enqueue source of this round (retire
    // enablements, start(), idle work, shard refill): wake only on
    // not-runnable -> runnable, when a sleeper could actually be stuck.
    if (job->refresh_probes()) ctl_->wake();

    switch (out) {
      case Outcome::kExecute: {
        sched::BodyLoopStats step;
        job->dispatcher.drain_local(job->bodies, id, done, step);
        delta += step;
        totals += step;
        report_faults(*job);
        break;
      }
      case Outcome::kRetry:
        break;
      case Outcome::kFinished:
        trace_event(id, job->id, obs::TraceKind::kJobFinalize);
        job.reset();
        break;
      case Outcome::kDrained: {
        // The job's executive is dry but peers may still hold fat local
        // queues — its rundown. Steal a FIFO range from the most-loaded
        // peer before giving up residency (a cap leaver just leaves).
        if (!leaving) {
          const std::size_t got = job->dispatcher.try_steal(id);
          if (got > 0) {
            steals += got;
            steal_delta += got;
            sched::BodyLoopStats step;
            job->dispatcher.drain_local(job->bodies, id, done, step);
            delta += step;
            totals += step;
            report_faults(*job);
            break;  // keep residency; the next critical section retires
          }
          ++steal_fails;
        }
        // Release residency and let the policy pick whose tail to fill
        // next. refresh_probes() above keeps a drained job out of the pick
        // until it has work again.
        trace_event(id, job->id, obs::TraceKind::kJobDrain);
        released_left = leaving;
        released = std::exchange(job, nullptr);
        break;
      }
      case Outcome::kGone:
        // Terminal: never picked again, so its resident count is moot.
        job.reset();
        break;
    }
  }

  // Publish per-worker accounting into this worker's own cells only
  // (obs/metrics.hpp per-worker sharding: no contention, no lock). The wall
  // clock closes inside worker_main so spawn/join overhead never counts as
  // pool idle time.
  const auto wall = std::chrono::duration_cast<std::chrono::nanoseconds>(
      std::chrono::steady_clock::now() - enter);
  metrics_.add(mid_.tasks, id, totals.tasks);
  metrics_.add(mid_.granules, id, totals.granules);
  metrics_.add(mid_.busy_ns, id, static_cast<std::uint64_t>(totals.busy.count()));
  metrics_.add(mid_.wall_ns, id, static_cast<std::uint64_t>(wall.count()));
  metrics_.add(mid_.steals, id, steals);
  metrics_.add(mid_.steal_fails, id, steal_fails);
  metrics_.add(mid_.wait_wakeups, id, wait_wakeups);
  metrics_.add(mid_.rotations, id, rotations);
  metrics_.add(mid_.job_locks, id, locks);
  metrics_.add(mid_.faulted, id, totals.faulted);
}

void PoolRuntime::watchdog_main() {
  std::vector<std::shared_ptr<detail::Job>> watched;
  while (true) {
    watched.clear();
    std::chrono::nanoseconds shortest{0};
    {
      RankedLock lock(ctl_->mu);
      for (const auto& j : ctl_->jobs) {
        if (j->granule_timeout.count() <= 0) continue;
        watched.push_back(j);
        if (shortest.count() == 0 || j->granule_timeout < shortest)
          shortest = j->granule_timeout;
      }
    }
    const std::uint64_t now = obs::trace_now_ns();
    for (const auto& job : watched) {
      if (job->state.load(std::memory_order_acquire) != JobState::kRunning)
        continue;
      const auto bound = static_cast<std::uint64_t>(job->granule_timeout.count());
      for (WorkerId w = 0; w < config_.workers; ++w) {
        // An odd sequence number means worker w is inside a body of this job
        // (the job's dispatcher owns the cell). The same odd value across
        // polls is the same body, so it has run at least since the poll that
        // first saw it: a body shorter than the timeout is never flagged,
        // and a stuck one is flagged within the timeout plus two polls.
        const std::uint64_t seq = job->dispatcher.body_seq(w);
        if ((seq & 1u) == 0) continue;  // not inside a body
        detail::Job::BodySample& seen = job->watch[w];
        if (seq != seen.seq) {
          seen = {.seq = seq, .since_ns = now};
        } else if (now - seen.since_ns > bound) {
          watchdog_escalate(job, w);
          break;
        }
      }
    }
    // Sleep under wd_mu_ ONLY — never held across the scan/escalation above.
    // Poll at a quarter of the shortest active timeout (clamped to a sane
    // band); with nothing to watch, park until a timeout-carrying submit or
    // shutdown notifies.
    RankedUniqueLock lock(wd_mu_);
    if (wd_stop_) break;
    if (watched.empty()) {
      wd_cv_.wait(lock);
    } else {
      const auto poll = std::clamp<std::chrono::nanoseconds>(
          shortest / 4, std::chrono::microseconds{100},
          std::chrono::milliseconds{10});
      wd_cv_.wait_for(lock, poll);
    }
    if (wd_stop_) break;
  }
}

void PoolRuntime::watchdog_escalate(const std::shared_ptr<detail::Job>& job,
                                    WorkerId stuck_worker) {
  // Latch the flag under the job mutex (idempotent; finalize reads it under
  // the same mutex). A cancel already in flight wins the terminal
  // precedence, so don't pile the watchdog on top of it.
  bool flagged = false;
  {
    RankedLock jlock(job->mu);
    if (!job->watchdog_expired && !job->cancel_requested &&
        job->state.load(std::memory_order_relaxed) == JobState::kRunning) {
      job->watchdog_expired = true;
      flagged = true;
    }
  }
  if (!flagged) return;
  // kWatchdogFlag goes on the control track: submit() installs no
  // control-track core sink (see PoolConfig::trace), and the one job that
  // carries one, a threaded run's, has no granule timeout, so the watchdog
  // is that ring's only writer — the single-writer contract holds.
  if (config_.trace != nullptr) {
    obs::TraceRecord r;
    r.ts_ns = obs::trace_now_ns();
    r.job = job->id;
    r.aux = stuck_worker;
    r.worker = obs::kControlTrack;
    r.kind = obs::TraceKind::kWatchdogFlag;
    config_.trace->control_ring().emit(r);
  }
  // PR 9's escalation machinery: stop handouts, recall buffered work. The
  // escalation is cooperative — once the stuck granule returns and in-
  // flight work drains, an adopting worker finalizes the job as kFailed.
  // When nothing was in flight any more the stop finishes the executive
  // here, so this thread runs the finalize election itself, exactly like
  // cancel(). Otherwise wake the pool in case every worker is asleep (the
  // finalize probe treats a finished executive as runnable).
  job->exec.request_stop();
  if (job->exec.finished())
    ctl_->finalize(job);
  else
    ctl_->wake();
}

void PoolRuntime::trace_event(WorkerId w, std::uint64_t job_id,
                              obs::TraceKind kind) {
  if (config_.trace == nullptr) return;
  obs::TraceRecord r;
  r.ts_ns = obs::trace_now_ns();
  r.job = job_id;
  r.worker = static_cast<std::uint16_t>(w);
  r.kind = kind;
  config_.trace->ring(w).emit(r);
}

}  // namespace pax::pool
