#include "pool/job.hpp"

#include <algorithm>
#include <chrono>
#include <memory>
#include <string>

#include "common/check.hpp"

namespace pax::pool {

namespace detail {

bool PoolCtl::finalize(const std::shared_ptr<Job>& job) {
  // A finished executive has retired every ticket (a stopped one recalled
  // its buffers and drained what was in flight), so no shard buffer or
  // local queue can still hold assignments of this job.
  PAX_DCHECK(job->exec.finished() && !job->exec.work_available());
  // Fault facts read BEFORE the job mutex: fault_stats() takes the
  // executive control mutex, which must never nest under the job mutex
  // (rank order). The executive is finished, so the snapshot is final;
  // losers of the election below just discard it.
  const FaultStats fs = job->exec.fault_stats();
  const bool exec_faulted = job->exec.faulted();
  // Facts captured under the job mutex and republished under the pool
  // mutex: the two locks are never nested.
  bool cancelled = false, failed = false, watchdog = false, missed = false;
  std::uint64_t peak = 0;
  {
    RankedLock jlock(job->mu);
    if (job->state.load(std::memory_order_relaxed) != JobState::kRunning)
      return false;  // a peer won the finalize
    cancelled = job->cancel_requested;
    watchdog = job->watchdog_expired;
    // Terminal precedence: an explicit cancel beats the fault flip (the
    // caller withdrew the work; whether it also faulted on the way down is
    // a detail), faults beat completion.
    failed = !cancelled && (exec_faulted || watchdog);
    const auto now = std::chrono::steady_clock::now();
    job->finished_at = now;
    job->stats.peak_local_queue = job->dispatcher.peak_occupancy();
    peak = job->stats.peak_local_queue;
    if (job->has_deadline()) {
      job->stats.has_deadline = true;
      job->stats.deadline_slack =
          std::chrono::duration_cast<std::chrono::nanoseconds>(job->deadline -
                                                               now);
      // Cancelled jobs never count as misses: the caller withdrew the
      // deadline along with the work. Failed jobs don't either — they
      // produced no result to be late (jobs_failed counts them).
      job->stats.deadline_missed = !cancelled && !failed && now > job->deadline;
    }
    missed = job->stats.deadline_missed;
    // Fault accounting, written before the terminal flip so done() implies
    // it is final. The executive-side counts are authoritative: every fail()
    // is counted there, while a worker's BodyLoopStats::faulted delta may
    // still be unmerged here (its ticket retired through fail_batch before
    // its stats merge).
    job->stats.granule_faults = fs.faults;
    job->stats.granule_retries = fs.retries;
    job->stats.granules_poisoned = fs.poisoned;
    job->stats.map_faults = fs.map_faults;
    job->stats.watchdog_expired = watchdog;
    if (fs.any()) {
      job->stats.fault_summary = "phase " + std::to_string(fs.first_phase) +
                                 " [" + std::to_string(fs.first_range.lo) +
                                 "," + std::to_string(fs.first_range.hi) +
                                 "): " + fs.first_what;
    } else if (watchdog) {
      job->stats.fault_summary = "granule exceeded watchdog timeout";
    }
    job->state.store(cancelled ? JobState::kCancelled
                     : failed  ? JobState::kFailed
                               : JobState::kComplete,
                     std::memory_order_release);
  }
  job->done_cv.notify_all();

  const ShardStatsView ss = job->exec.stats();
  {
    RankedLock lock(mu);
    remove_job_locked(job);
    if (cancelled) {
      ++jobs_cancelled;
    } else if (failed) {
      ++jobs_failed;
    } else {
      ++jobs_completed;
      if (job->has_deadline()) {
        if (missed)
          ++jobs_deadline_missed;
        else
          ++jobs_deadline_met;
      }
    }
    job_granule_faults += fs.faults;
    job_granule_retries += fs.retries;
    job_granules_poisoned += fs.poisoned;
    job_map_faults += fs.map_faults;
    if (watchdog) ++watchdog_flags;
    exec_control_acquisitions += ss.control_acquisitions;
    exec_lock_hold_ns += ss.control_hold_ns;
    exec_control_busy += ss.control_busy;
    shard_hits += ss.shard_hits + ss.sibling_hits;
    shard_ring_pops += ss.ring_pops;
    shard_ring_pop_empty += ss.ring_pop_empty;
    shard_ring_push_full += ss.ring_push_full;
    shard_ring_cas_retries += ss.ring_cas_retries;
    peak_local_queue = std::max(peak_local_queue, peak);
  }
  cv.notify_all();  // wake drain()ers and rotating workers
  return true;
}

}  // namespace detail

bool JobHandle::cancel() {
  PAX_CHECK_MSG(job_ != nullptr, "cancel on empty handle");
  detail::Job& job = *job_;

  // Decide under the job mutex which of the three cases applies. The
  // pre-open flip is the terminal transition itself (release store after
  // the final bookkeeping writes, per the done() ⇒ stats()-final contract);
  // the mid-run path only latches cancel_requested here — the terminal flip
  // happens in the finalize election once the executive has drained.
  bool pre_open = false;
  bool mid_run = false;
  {
    RankedLock lock(job.mu);
    const JobState s = job.state.load(std::memory_order_relaxed);
    if (s == JobState::kQueued) {
      const auto now = std::chrono::steady_clock::now();
      job.finished_at = now;
      if (job.has_deadline()) {
        job.stats.has_deadline = true;
        job.stats.deadline_slack =
            std::chrono::duration_cast<std::chrono::nanoseconds>(job.deadline -
                                                                 now);
        // Cancelled jobs never count as deadline misses.
      }
      job.state.store(JobState::kCancelled, std::memory_order_release);
      pre_open = true;
    } else if (s == JobState::kRunning && !job.cancel_requested) {
      job.cancel_requested = true;
      mid_run = true;
    }
  }

  if (pre_open) {
    job.done_cv.notify_all();
    if (auto ctl = job.ctl.lock()) {
      {
        RankedLock lock(ctl->mu);
        ctl->remove_job_locked(job_);
        ++ctl->jobs_cancelled;
      }
      ctl->cv.notify_all();
    }
    return true;
  }

  if (mid_run) {
    // Stop the executive: no more granule handouts, buffered assignments are
    // recalled, in-flight granules drain. When nothing was in flight the
    // stop finishes the executive here, possibly after every worker gave
    // the job up, so this thread runs the finalize election itself.
    // Otherwise a worker observes exec.finished() on its next round; wake
    // the pool in case every worker is asleep (the finalize probe treats a
    // finished executive as runnable work).
    job.exec.request_stop();
    if (auto ctl = job.ctl.lock()) {
      if (job.exec.finished())
        ctl->finalize(job_);
      else
        ctl->wake();
    }
    return true;
  }

  return false;  // already terminal, cancel already in flight, or racing
}

}  // namespace pax::pool
