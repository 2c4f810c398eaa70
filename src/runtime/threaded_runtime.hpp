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
// peer. Every assignment is carved at ExecConfig::grain.
//
// What the pool loop brings to a threaded run (DESIGN.md §7): the residency
// rule applies, so a management-bound program (control plane costlier than
// its bodies) runs on one resident until its bodies outweigh it again; a
// run never rotates (there is no other job) and never preempts (kFifo).
//
// What a run reports: RtResult::metrics, the private pool's metrics
// snapshot (DESIGN.md §12) with the executive's control-plane and shard
// entries read after shutdown, is the one stats surface; every counter is
// read from it by dotted name. RtResult's typed fields hold only what a
// name cannot carry or every caller checks.
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
  /// Refill floor: one critical section may retire/pull up to the local
  /// queue capacity of 2x batch (over-refill absorbed by steals). Defaults
  /// to the pool's value (sched::kDefaultBatch).
  std::uint32_t batch = sched::kDefaultBatch;
  /// Executive shards (lock-free granule-handout partitions, DESIGN.md
  /// §13). kAutoShards = 2x workers clamped to the largest phase (1 for a
  /// single worker); 1 = the single-mutex protocol; 0 is invalid and
  /// fails at construction.
  std::uint32_t shards = kAutoShards;
  /// Optional trace buffer (non-owning; must outlive the runtime and be
  /// sized for >= `workers`). Null = tracing off: every emit site in the
  /// executive, dispatcher and worker loop is one untaken branch. When set,
  /// workers write exec/refill/steal/sleep and job-lifecycle records into
  /// their own rings, and the run installs a control-track sink for
  /// structural events on its one job's core (DESIGN.md §12); read the
  /// rings after run() returns.
  obs::TraceBuffer* trace = nullptr;
};

/// Results of a threaded run. Every runtime counter is an entry of
/// `metrics` (DESIGN.md §12); the typed fields are what a name cannot carry
/// and the three values every caller checks.
struct RtResult {
  std::chrono::nanoseconds wall{0};  ///< run() span, incl. spawn/join
  std::uint64_t granules_executed = 0;  ///< worker.granules
  /// True when the program ended in the faulted terminal: a poisoned granule
  /// made the dataflow unsatisfiable and the remaining work was recalled
  /// (granules_executed < the program total on this path).
  bool faulted = false;
  /// First fault site, human-readable (empty when no fault occurred).
  std::string fault_summary;
  /// Per worker, drain spans (BodyLoopStats::busy): body time plus the
  /// per-task bookkeeping between bodies.
  std::vector<std::chrono::nanoseconds> worker_busy;
  /// Per-worker lifetime measured *inside* the pool's worker_main (first
  /// instruction to last), so thread spawn/join overhead does not dilute
  /// utilization().
  std::vector<std::chrono::nanoseconds> worker_wall;
  pax::MgmtLedger ledger;
  std::vector<std::string> diagnostics;
  /// The private pool's snapshot (worker.*, pool.*, fault.*,
  /// queue.peak_occupancy) with the run's own view of the executive
  /// (exec.control_*, shard.*, read after shutdown) and of the heap
  /// (heap.*, run() alone), plus shard.sibling_hits, shard.scattered and
  /// shard.count, which a pool does not report.
  obs::MetricsSnapshot metrics;

  /// Fraction of total worker wall-time spent busy (worker_busy: drain
  /// spans, bodies plus the bookkeeping between them).
  [[nodiscard]] double utilization() const {
    return pool::utilization(worker_busy, worker_wall);
  }
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
