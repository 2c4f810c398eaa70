// pool_stats.hpp — per-job and pool-wide accounting for the pool runtime.
//
// Two independent accumulation paths cross-check each other: workers count
// what they execute (published into PoolStats at worker exit), and each job
// counts what is executed on its behalf (JobStats, merged under the job's
// own lock). The two paths never share a mutex — JobStats fields are
// guarded by the job mutex, the PoolStats accumulators by the pool mutex
// (ranks job < pool, DESIGN.md §11), and values cross between them only as
// locals captured in one section and republished in the other.
// test_pool asserts the per-job sums equal the pool totals.
// Per-job busy time against a solo-run baseline is the work-inflation
// measure of Acar/Charguéraud/Rainey that bench_t7_pool reports.
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
  /// open/finalize transitions under the job mutex. Executive traffic is
  /// counted separately below, per shard plane.
  std::uint64_t exec_lock_acquisitions = 0;
  /// Control-mutex sections on this job's sharded executive (sweeps,
  /// single-shard refills, idle work) and the time they held it.
  std::uint64_t exec_control_acquisitions = 0;
  std::uint64_t exec_lock_hold_ns = 0;
  /// Refills served lock-locally from a shard buffer (home or sibling) —
  /// no control-mutex section involved.
  std::uint64_t shard_hits = 0;
  /// Ring split for this job's executive: ring pops / dry probes / refused
  /// pushes / CAS retries.
  std::uint64_t shard_ring_pops = 0;
  std::uint64_t shard_ring_pop_empty = 0;
  std::uint64_t shard_ring_push_full = 0;
  std::uint64_t shard_ring_cas_retries = 0;
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

/// Pool-wide accounting. All worker-side totals (tasks, granules, lock
/// acquisitions, rotations, and the wall/busy vectors) are published when
/// the workers exit: a mid-run stats() call sees live job counters
/// (jobs_submitted/completed/cancelled) but zero worker totals, and
/// utilization() is only meaningful after shutdown(). Per-job live numbers
/// are available any time through JobHandle::stats().
struct PoolStats {
  std::uint64_t jobs_submitted = 0;
  std::uint64_t jobs_completed = 0;
  std::uint64_t jobs_cancelled = 0;
  /// Jobs refused by admission control (PoolConfig::max_pending): terminal
  /// state kRejected, zero execution. Counted in jobs_submitted too.
  std::uint64_t jobs_rejected = 0;
  /// Deadline-carrying jobs that completed past their deadline or were
  /// rejected (see JobStats::deadline_missed) / completed within it.
  std::uint64_t jobs_deadline_missed = 0;
  std::uint64_t jobs_deadline_met = 0;
  /// Jobs that ended in JobState::kFailed (poisoned granule or watchdog
  /// escalation). Disjoint from completed/cancelled/rejected; failed jobs
  /// take no part in the deadline met/missed tally.
  std::uint64_t jobs_failed = 0;
  /// Fault containment (DESIGN.md §15): granule_faults is the worker-side
  /// count of bodies that threw (published at worker exit, like the other
  /// worker totals); the rest are executive-side sums accumulated when each
  /// job finalizes. test_fault pins the two accounting paths consistent.
  std::uint64_t granule_faults = 0;
  std::uint64_t granule_retries = 0;
  std::uint64_t granules_poisoned = 0;
  std::uint64_t map_faults = 0;
  /// Stuck-granule watchdog escalations (one per flagged job).
  std::uint64_t watchdog_flags = 0;
  std::uint64_t tasks_executed = 0;     ///< worker-side totals
  std::uint64_t granules_executed = 0;  ///< worker-side totals
  /// Job-bookkeeping critical sections across workers (adoption rounds).
  std::uint64_t exec_lock_acquisitions = 0;
  /// Executive control-mutex sections and hold time summed over *finished*
  /// jobs (accumulated when each job completes).
  std::uint64_t exec_control_acquisitions = 0;
  std::uint64_t exec_lock_hold_ns = 0;
  /// Shard-buffer refills (no control section) summed over finished jobs.
  std::uint64_t shard_hits = 0;
  /// Ring splits summed over finished jobs (see JobStats for field
  /// meanings).
  std::uint64_t shard_ring_pops = 0;
  std::uint64_t shard_ring_pop_empty = 0;
  std::uint64_t shard_ring_push_full = 0;
  std::uint64_t shard_ring_cas_retries = 0;
  /// Cross-job moves: a worker released a drained resident and adopted a
  /// different job. The overlap mechanism working at program scope.
  std::uint64_t rotations = 0;
  /// Assignments obtained by stealing from a peer's local queue (within the
  /// resident job; tickets are per-core, so steals never cross jobs).
  std::uint64_t steals = 0;
  /// Steal attempts that found every peer queue of the resident job dry —
  /// these precede a rotation.
  std::uint64_t steal_fail_spins = 0;
  /// High-water mark of local run-queue occupancy across completed jobs.
  std::uint64_t peak_local_queue = 0;
  /// Process-wide heap traffic since pool construction (all threads),
  /// measured when the binary links the alloc_stats hooks — zero otherwise.
  std::uint64_t heap_allocs = 0;
  std::uint64_t heap_bytes = 0;
  std::vector<std::chrono::nanoseconds> worker_busy;
  std::vector<std::chrono::nanoseconds> worker_wall;  ///< in-worker_main span
  /// Unified metrics snapshot (obs/metrics.hpp): the fields above under
  /// stable dotted names plus the per-worker cell sums. Worker-side entries
  /// finalize at shutdown(), like the legacy totals; test_obs pins the two
  /// views equal.
  obs::MetricsSnapshot metrics;

  /// Fraction of total worker wall time spent busy (worker_busy: drain
  /// spans; same definition as rt::RtResult::utilization()).
  [[nodiscard]] double utilization() const {
    std::chrono::nanoseconds busy{0}, wall{0};
    for (auto b : worker_busy) busy += b;
    for (auto w : worker_wall) wall += w;
    if (wall.count() == 0) return 0.0;
    return static_cast<double>(busy.count()) / static_cast<double>(wall.count());
  }
};

}  // namespace pax::pool
