// threaded_runtime.hpp — execute one PhaseProgram on real std::jthread
// workers and return when it finishes.
//
// A threaded run is a pool job with no deadline: ThreadedRuntime is a facade
// over a private one-job pool::PoolRuntime (kFifo, unbounded admission),
// so the repo runs one worker loop, PoolRuntime::worker_main. The job is
// built at construction — its executive wrapped in a core::ShardedExecutive
// (DESIGN.md §9) whose granule handout is partitioned across RtConfig::shards
// lock-free shard rings, so two workers refilling different shards never
// contend, and the single-threaded ExecutiveCore is entered only for control
// sweeps (coalesced retire + re-scatter). run() spawns the pool, hands it
// the job, waits for it and shuts the pool down. Setting
// ExecConfig::overlap = false yields the strict-barrier baseline on
// identical machinery, which is how the speedup benches isolate the effect
// of phase overlap.
//
// Dispatch stays decentralized through the job's sched::Dispatcher
// (DESIGN.md §8): each worker owns a bounded local run-queue refilled from
// its home shard, and when shards, executive and local queue all run dry —
// the rundown signal — the worker steals a FIFO range from the most-loaded
// peer. A steal-rate signal adaptively halves the effective grain.
//
// What the pool loop brings to a threaded run (DESIGN.md §7): the residency
// rule applies, so a management-bound program (control plane costlier than
// its bodies) runs on one resident until its bodies outweigh it again; a
// run never rotates (there is no other job) and never preempts (kFifo).
//
// Concurrency follows the C++ Core Guidelines CP rules: jthread-only (no
// detach), RAII locks, condition waits with predicates, data passed by
// value across threads. Note one documented exception to CP.22: inter-phase
// serial actions registered in the program run on the completing worker's
// thread while the executive control mutex is held — keep them short.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/executive.hpp"
#include "core/sharded_executive.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_sink.hpp"
#include "pool/pool_runtime.hpp"
#include "runtime/body_table.hpp"
#include "sched/dispatcher.hpp"

namespace pax::rt {

struct RtConfig {
  std::uint32_t workers = 4;
  /// Refill floor and the no-steal queue capacity; with stealing on, one
  /// critical section may retire/pull up to the local queue capacity of 2x
  /// batch (over-refill absorbed by steals). Defaults to the pool's value
  /// (sched::kDefaultBatch). batch 1 with steal off = the classic
  /// single-item handoff.
  std::uint32_t batch = sched::kDefaultBatch;
  /// Executive shards (lock-free granule-handout partitions, DESIGN.md
  /// §13). kAutoShards = 2x workers clamped to the largest phase (1 for a
  /// single worker); 1 = the single-mutex protocol; 0 is invalid and
  /// fails at construction.
  std::uint32_t shards = kAutoShards;
  /// Rundown work stealing between workers' local queues.
  bool steal = true;
  /// Steal-rate signal halves the effective grain during rundown.
  bool adaptive_grain = true;
  /// Optional trace buffer (non-owning; must outlive the runtime and be
  /// sized for >= `workers`). Null = tracing off: every emit site in the
  /// executive, dispatcher and worker loop is one untaken branch. When set,
  /// workers write exec/refill/steal/sleep and job-lifecycle records into
  /// their own rings, and the run installs a control-track sink for
  /// structural events on its one job's core (DESIGN.md §12); read the
  /// rings after run() returns.
  obs::TraceBuffer* trace = nullptr;
};

/// Wall-clock results of a threaded run.
struct RtResult {
  std::chrono::nanoseconds wall{0};  ///< run() span, incl. spawn/join
  /// Per worker, drain spans (BodyLoopStats::busy): body time plus the
  /// per-task bookkeeping between bodies.
  std::vector<std::chrono::nanoseconds> worker_busy;
  /// Per-worker lifetime measured *inside* the pool's worker_main (first
  /// instruction to last), so thread spawn/join overhead does not dilute
  /// utilization().
  std::vector<std::chrono::nanoseconds> worker_wall;
  std::uint64_t tasks_executed = 0;
  std::uint64_t granules_executed = 0;
  /// Executive contention metric: control-mutex sections plus parks — the
  /// sum of the two fields below (kept as a total because the t6/t8/t9
  /// gates compare it).
  std::uint64_t exec_lock_acquisitions = 0;
  /// Control-plane mutex sections on the sharded executive (start, sweeps,
  /// single-shard refills, idle work, conflicting submissions). Shard-buffer
  /// hits never appear here — that is the decontention t9 measures.
  std::uint64_t refill_lock_acquisitions = 0;
  /// Parks on the pool's condition variable, one per sleep (the
  /// worker.wait_wakeups cell) — counted separately so contention on the
  /// handoff is not conflated with sleeping through genuine work droughts.
  std::uint64_t wait_lock_acquisitions = 0;
  /// Total nanoseconds workers spent at the control plane, acquire-to-
  /// release (mutex acquisition wait + hold, sweep bodies included) — the
  /// serialization a worker actually experiences there. Divided by granules
  /// it is the t9 lock-hold gate metric.
  std::uint64_t exec_lock_hold_ns = 0;
  /// Shard traffic: acquires served lock-locally by the worker's home shard
  /// buffer / by a sibling shard's buffer, and assignments scattered into
  /// shard buffers by control sweeps.
  std::uint64_t shard_hits = 0;
  std::uint64_t shard_sibling_hits = 0;
  std::uint64_t shard_scattered = 0;
  /// Resolved shard count of the run (after kAutoShards resolution).
  std::uint32_t shards_used = 0;
  /// Ring split: assignments popped lock-free from shard rings, probes that
  /// found a hinted ring dry, pushes a full ring refused (each one a forced
  /// control sweep or a spill), and CAS cursor-claim retries — the ring's
  /// contention signal. Together with the control counters these show the
  /// warm/slow split quickstart prints.
  std::uint64_t shard_ring_pops = 0;
  std::uint64_t shard_ring_pop_empty = 0;
  std::uint64_t shard_ring_push_full = 0;
  std::uint64_t shard_ring_cas_retries = 0;
  /// Assignments obtained by stealing from a peer's local queue (no
  /// executive round-trip involved).
  std::uint64_t steals = 0;
  /// Steal attempts that found every peer queue dry.
  std::uint64_t steal_fail_spins = 0;
  /// Fault containment (DESIGN.md §15): bodies that threw (caught by the
  /// dispatcher's exception barrier), retry re-enqueues, granules poisoned
  /// after the retry budget, and GranuleMapFn faults (edge degraded to
  /// wholesale release at completion).
  std::uint64_t granule_faults = 0;
  std::uint64_t granule_retries = 0;
  std::uint64_t granules_poisoned = 0;
  std::uint64_t map_faults = 0;
  /// True when the program ended in the faulted terminal: a poisoned granule
  /// made the dataflow unsatisfiable and the remaining work was recalled
  /// (granules_executed < the program total on this path).
  bool faulted = false;
  /// First fault site, human-readable (empty when no fault occurred).
  std::string fault_summary;
  /// High-water mark of local run-queue occupancy across workers.
  std::uint64_t peak_local_queue = 0;
  /// Process-wide heap traffic during run() (all threads), measured when the
  /// binary links the alloc_stats hooks (common/alloc_stats.hpp) — zero
  /// otherwise. Divided by granules it is the t10 allocs/granule metric.
  std::uint64_t heap_allocs = 0;
  std::uint64_t heap_bytes = 0;
  pax::MgmtLedger ledger;
  std::vector<std::string> diagnostics;
  /// The unified metrics snapshot (obs/metrics.hpp): every counter above
  /// plus the private pool's per-worker accumulations and pool-plane values
  /// (worker.rotations, pool.jobs_capped, pool.preempt_leaves, ...) under
  /// stable dotted names, so benches and JSON reports read one uniform
  /// surface. The legacy fields stay for source compatibility; test_obs
  /// pins the two views equal.
  obs::MetricsSnapshot metrics;

  /// Fraction of total worker wall-time spent busy (worker_busy: drain
  /// spans, bodies plus the bookkeeping between them).
  [[nodiscard]] double utilization() const;
};

class ThreadedRuntime {
 public:
  /// Validates `rt_config` and builds the run's job (its executive and
  /// dispatch layer) — setup stays outside run()'s wall and heap counts.
  ThreadedRuntime(const PhaseProgram& program, ExecConfig config, CostModel costs,
                  const BodyTable& bodies, RtConfig rt_config);

  /// Run the program to completion on a private pool of
  /// `RtConfig::workers` workers. May be called once.
  RtResult run();

  /// Dynamically submit a computation conflicting with `blocker`'s run; it
  /// is released at elevated priority when that run completes (immediately
  /// when it already has). Call it before run() or from inside one of the
  /// run's phase bodies (bodies execute with no executive lock held).
  void submit_conflicting(RunId blocker, PhaseId phase, GranuleRange range);

 private:
  pool::PoolConfig config_;
  /// Control-track sink of a traced run (DESIGN.md §12). Declared before
  /// job_: the job's core holds a raw pointer to it.
  std::unique_ptr<obs::TraceEventSink> trace_sink_;
  std::shared_ptr<pool::detail::Job> job_;
  /// run-once latch; touched only by the (single) thread that calls run().
  bool ran_ = false;
};

}  // namespace pax::rt
