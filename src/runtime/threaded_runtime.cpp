#include "runtime/threaded_runtime.hpp"

#include "common/alloc_stats.hpp"
#include "common/check.hpp"

namespace pax::rt {

namespace {

/// The run's job id: the first (and only) job of its private pool.
constexpr std::uint64_t kJobId = 0;

/// Constructor-time config validation, run before the sharded executive is
/// built so the death messages name the runtime knob, not the shard plumbing.
RtConfig validated(RtConfig c) {
  PAX_CHECK_MSG(c.workers > 0, "need at least one worker");
  PAX_CHECK_MSG(c.batch > 0, "batch must be at least 1");
  PAX_CHECK_MSG(c.shards != 0,
                "shards must be at least 1 (pass kAutoShards for the default)");
  return c;
}

/// The private pool a run executes on: one job, first come first served,
/// no admission bound.
pool::PoolConfig pool_config(const RtConfig& c) {
  return {.workers = c.workers,
          .batch = c.batch,
          .policy = pool::SchedPolicy::kFifo,
          .shards = c.shards,
          .steal = c.steal,
          .adaptive_grain = c.adaptive_grain,
          .max_pending = 0,
          .trace = c.trace};
}

}  // namespace

double RtResult::utilization() const {
  std::chrono::nanoseconds total_busy{0};
  for (auto b : worker_busy) total_busy += b;
  std::chrono::nanoseconds denom{0};
  if (!worker_wall.empty()) {
    for (auto w : worker_wall) denom += w;
  } else {
    // Pre-measurement results (or hand-built ones): fall back to folding the
    // whole run() span into every worker.
    denom = wall * static_cast<std::int64_t>(worker_busy.size());
  }
  if (denom.count() == 0) return 0.0;
  return static_cast<double>(total_busy.count()) /
         static_cast<double>(denom.count());
}

ThreadedRuntime::ThreadedRuntime(const PhaseProgram& program, ExecConfig config,
                                 CostModel costs, const BodyTable& bodies,
                                 RtConfig rt_config)
    : config_(pool_config(validated(rt_config))),
      job_(pool::PoolRuntime::make_job(config_, kJobId, program, bodies, config,
                                       {.costs = costs},
                                       pool::detail::Job::kNoDeadlineTp)) {}

void ThreadedRuntime::submit_conflicting(RunId blocker, PhaseId phase,
                                         GranuleRange range) {
  job_->exec.submit_conflicting(blocker, phase, range);
  // Work enqueues immediately when the blocker already completed: refresh
  // the probe the pool's pick reads, then wake its sleepers. Before run()
  // there is no pool to wake.
  (void)job_->refresh_probes();
  if (const auto ctl = job_->ctl.lock()) ctl->wake();
}

RtResult ThreadedRuntime::run() {
  PAX_CHECK_MSG(!ran_, "run() called twice");
  ran_ = true;

  // Structural events onto the control-track ring. SAFETY: quiescent core
  // access — the job is not published yet. One job means one control
  // mutex, so the ring keeps its single writer.
  if (config_.trace != nullptr) {
    trace_sink_ = std::make_unique<obs::TraceEventSink>(
        config_.trace->control_ring(), job_->id);
    job_->exec.core_unsynchronized().set_event_sink(trace_sink_.get());
  }

  const auto wall0 = std::chrono::steady_clock::now();
  const AllocTotals heap0 = alloc_stats::totals();
  pool::PoolRuntime pool(config_);
  pool::JobHandle handle = pool.publish(job_);
  handle.wait();
  pool.shutdown();
  const auto wall1 = std::chrono::steady_clock::now();
  const AllocTotals heap = alloc_stats::delta(heap0, alloc_stats::totals());

  ShardedExecutive& exec = job_->exec;
  PAX_CHECK_MSG(exec.finished(), "threaded run ended before program finish");
  PAX_CHECK_MSG(!exec.work_available(), "work left in queue at program end");
  exec.check_census();

  const pool::PoolStats ps = pool.stats();
  const pool::JobStats js = handle.stats();
  const ShardStatsView ss = exec.stats();
  RtResult res;
  res.wall = std::chrono::duration_cast<std::chrono::nanoseconds>(wall1 - wall0);
  res.worker_busy = ps.worker_busy;
  res.worker_wall = ps.worker_wall;
  res.tasks_executed = ps.tasks_executed;
  res.granules_executed = ps.granules_executed;
  res.wait_lock_acquisitions = ps.metrics.value_of("worker.wait_wakeups");
  res.refill_lock_acquisitions = ss.control_acquisitions;
  res.exec_lock_acquisitions = ss.control_acquisitions + res.wait_lock_acquisitions;
  res.exec_lock_hold_ns = ss.control_hold_ns;
  res.shard_hits = ss.shard_hits;
  res.shard_sibling_hits = ss.sibling_hits;
  res.shard_scattered = ss.scattered;
  res.shard_ring_pops = ss.ring_pops;
  res.shard_ring_pop_empty = ss.ring_pop_empty;
  res.shard_ring_push_full = ss.ring_push_full;
  res.shard_ring_cas_retries = ss.ring_cas_retries;
  res.shards_used = exec.shards();
  res.steals = ps.steals;
  res.steal_fail_spins = ps.steal_fail_spins;
  res.granule_faults = ps.granule_faults;
  res.granule_retries = js.granule_retries;
  res.granules_poisoned = js.granules_poisoned;
  res.map_faults = js.map_faults;
  res.faulted = exec.faulted();
  res.fault_summary = js.fault_summary;
  res.peak_local_queue = js.peak_local_queue;
  res.heap_allocs = heap.allocs;
  res.heap_bytes = heap.bytes;
  // SAFETY: quiescent core access — the pool's workers joined in shutdown()
  // and the acquire load in exec.finished() ordered the core's final writes
  // before these reads.
  res.ledger = exec.core_unsynchronized().ledger();
  res.diagnostics = exec.core_unsynchronized().diagnostics();

  // Unified metrics surface: the pool's snapshot (worker cells and the
  // pool-plane values of its one job), with the run's own view of the
  // values the pool counts differently (home-shard hits alone, heap traffic
  // of run() alone) and those it has no field for.
  res.metrics = ps.metrics;
  res.metrics.set("shard.hits", res.shard_hits);
  res.metrics.set("heap.allocs", res.heap_allocs);
  res.metrics.set("heap.bytes", res.heap_bytes);
  res.metrics.set("shard.sibling_hits", res.shard_sibling_hits);
  res.metrics.set("shard.scattered", res.shard_scattered);
  res.metrics.set("shard.count", res.shards_used);
  res.metrics.set("run.wall_ns", static_cast<std::uint64_t>(res.wall.count()));
  res.metrics.set("fault.terminal", res.faulted ? 1 : 0);
  return res;
}

}  // namespace pax::rt
