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
          .max_pending = 0,
          .trace = c.trace};
}

}  // namespace

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

  pool::PoolStats ps = pool.stats();
  const ShardStatsView ss = exec.stats();
  RtResult res;
  res.wall = std::chrono::duration_cast<std::chrono::nanoseconds>(wall1 - wall0);
  res.granules_executed = ps.metrics.at("worker.granules");
  res.faulted = exec.faulted();
  res.fault_summary = handle.stats().fault_summary;
  res.worker_busy = std::move(ps.worker_busy);
  res.worker_wall = std::move(ps.worker_wall);
  // SAFETY: quiescent core access — the pool's workers joined in shutdown()
  // and the acquire load in exec.finished() ordered the core's final writes
  // before these reads.
  res.ledger = exec.core_unsynchronized().ledger();
  res.diagnostics = exec.core_unsynchronized().diagnostics();

  // The pool's snapshot (worker cells and the pool-plane values of its one
  // job). The executive's entries are read here, after shutdown, because
  // the pool's finalize fold can miss a control section still in flight at
  // the terminal flip; heap.* is run()'s own traffic. shard.sibling_hits,
  // shard.scattered and shard.count have no pool entry and are added.
  res.metrics = std::move(ps.metrics);
  res.metrics.set("exec.control_acquisitions", ss.control_acquisitions);
  res.metrics.set("exec.control_hold_ns", ss.control_hold_ns);
  res.metrics.set("exec.control_busy", ss.control_busy);
  res.metrics.set("shard.hits", ss.shard_hits + ss.sibling_hits);
  res.metrics.set("shard.ring.pop", ss.ring_pops);
  res.metrics.set("shard.ring.pop_empty", ss.ring_pop_empty);
  res.metrics.set("shard.ring.push_full", ss.ring_push_full);
  res.metrics.set("shard.ring.cas_retries", ss.ring_cas_retries);
  res.metrics.set("heap.allocs", heap.allocs);
  res.metrics.set("heap.bytes", heap.bytes);
  res.metrics.push("shard.sibling_hits", ss.sibling_hits);
  res.metrics.push("shard.scattered", ss.scattered);
  res.metrics.push("shard.count", exec.shards());
  return res;
}

}  // namespace pax::rt
