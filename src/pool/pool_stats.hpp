// pool_stats.hpp — per-job and pool-wide accounting for the pool runtime.
//
// Two independent ledgers cross-check each other: workers count what they
// execute in their own metrics-registry cells (worker.*, obs/metrics.hpp),
// and each job counts what is executed on its behalf (JobStats, merged
// under the job's own lock). The two never share a lock: a worker's cells
// are relaxed per-worker atomics, JobStats fields are guarded by the job
// mutex. test_pool asserts the per-job sums equal the worker totals.
// Per-job busy time against a solo-run baseline is the work-inflation
// measure of Acar/Charguéraud/Rainey (bench_stack's body.inflation).
//
// Pool-wide figures live in PoolStats::metrics under dotted names (the
// worker cells plus the pool plane: pool.*, fault.*, exec.*, shard.*);
// PoolStats keeps typed fields only for the per-worker time vectors.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.hpp"

namespace pax::pool {

/// What one job cost, regardless of which workers ran it. Snapshot-able at
/// any time through JobHandle::stats(); final once the job reaches a
/// terminal state.
struct JobStats {
  std::uint64_t tasks = 0;
  std::uint64_t granules = 0;
  /// Drain spans summed over workers (BodyLoopStats::busy): body time plus
  /// the per-task pop and retire bookkeeping between bodies. The residency
  /// rule's body input (DESIGN.md §7).
  std::chrono::nanoseconds busy{0};
  /// submit() → first worker adoption (zero while queued / when cancelled).
  std::chrono::nanoseconds queued{0};
  /// submit() → terminal state (still running: submit() → now).
  std::chrono::nanoseconds span{0};
  /// Job-bookkeeping critical sections (adoption rounds): stats merges and
  /// open/finalize transitions under the job mutex. The job executive's own
  /// control-plane and shard traffic reaches the pool's exec.* and shard.*
  /// metrics when the job finalizes.
  std::uint64_t exec_lock_acquisitions = 0;
  /// Resolved shard count of this job's executive.
  std::uint32_t shards = 0;
  /// Assignments of this job obtained by local-queue stealing (no executive
  /// round-trip; the thief is always resident on this job).
  std::uint64_t steals = 0;
  /// High-water mark of this job's per-worker local run-queues (recorded at
  /// job completion).
  std::uint64_t peak_local_queue = 0;
  /// Deadline accounting (serving layer, DESIGN.md §14). Set at the terminal
  /// transition, under the job mutex, so done() implies these are final.
  bool has_deadline = false;
  /// True when the job reached its terminal state after its deadline — or
  /// was rejected by admission control (a rejected deadline job has, by
  /// definition, missed). Cancelled jobs never count as missed.
  bool deadline_missed = false;
  /// deadline − terminal time: positive = finished with this much headroom,
  /// negative = this far past the deadline. Zero when has_deadline is false.
  std::chrono::nanoseconds deadline_slack{0};
  /// Fault containment (DESIGN.md §15). The executive-side counters below
  /// are written once, at the terminal transition (the finalize path reads
  /// the job executive's FaultStats before taking the job mutex), so they
  /// are final exactly when done() — a mid-run stats() snapshot reports
  /// them as zero even while faults are being retried.
  std::uint64_t granule_faults = 0;    ///< phase bodies that threw
  std::uint64_t granule_retries = 0;   ///< faulted ranges re-enqueued
  std::uint64_t granules_poisoned = 0; ///< granules past the retry budget
  std::uint64_t map_faults = 0;        ///< GranuleMapFn throws (edge degraded)
  /// True when the stuck-granule watchdog escalated this job (a granule
  /// exceeded SubmitOptions::granule_timeout). Implies kFailed unless a
  /// cancel won the terminal race.
  bool watchdog_expired = false;
  /// First fault site, human-readable (empty when the job never faulted).
  std::string fault_summary;
};

/// Fraction of total worker wall time spent busy: per-worker drain spans
/// (bodies plus the bookkeeping between them) over per-worker lifetimes
/// measured inside the worker loop, so spawn/join never dilutes it.
[[nodiscard]] inline double utilization(
    const std::vector<std::chrono::nanoseconds>& worker_busy,
    const std::vector<std::chrono::nanoseconds>& worker_wall) {
  std::chrono::nanoseconds busy{0}, wall{0};
  for (auto b : worker_busy) busy += b;
  for (auto w : worker_wall) wall += w;
  if (wall.count() == 0) return 0.0;
  return static_cast<double>(busy.count()) / static_cast<double>(wall.count());
}

/// Pool-wide accounting: the per-worker time vectors, read from each
/// worker's worker.busy_ns / worker.wall_ns cells, and the metrics snapshot
/// that carries every other pool figure. Workers add to their cells when
/// they exit, so worker-side entries (and utilization()) are final only
/// after shutdown(); the pool-plane entries (pool.jobs_*, fault.*) are live.
/// Per-job live numbers are available any time through JobHandle::stats().
struct PoolStats {
  std::vector<std::chrono::nanoseconds> worker_busy;  ///< drain spans
  std::vector<std::chrono::nanoseconds> worker_wall;  ///< in-worker_main span
  /// The worker cells (worker.*), the pool plane (pool.*, fault.*), the
  /// executive-side sums folded in as each job finalizes (exec.control_*,
  /// shard.*), queue.peak_occupancy, heap.* since pool construction, and
  /// trace.* when tracing is on (DESIGN.md §12).
  obs::MetricsSnapshot metrics;

  [[nodiscard]] double utilization() const {
    return pool::utilization(worker_busy, worker_wall);
  }
};

}  // namespace pax::pool
