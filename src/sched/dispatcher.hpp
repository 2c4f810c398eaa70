// dispatcher.hpp — the decentralized dispatch layer shared by both runtimes.
//
// PR 1 batched the executive handoff and PR 2 multiplexed jobs over it, but
// dispatch itself stayed centralized: every assignment and retirement funnels
// through one executive mutex, so during rundown the tail workers contend on
// exactly the serial resource the paper warns about. This layer pushes
// dispatch out of the executive into per-worker structures and demotes the
// executive to an enablement oracle:
//
//   * each worker owns a bounded LocalRunQueue (run_queue.hpp);
//   * the Dispatcher is the only component that touches the executive —
//     refill() deposits the worker's finished tickets and refills its local
//     queue through the sharded executive, which locks internally;
//   * when a worker's local queue and the executive's waiting queue are both
//     dry — the rundown signal — try_steal() takes a FIFO range from the
//     most-loaded peer queue without touching the executive at all.
//
// The local queue lets a worker over-refill beyond the retire batch
// (capacity 2x batch): fat refills are safe because peers steal the excess
// back during the tail — the over-decomposition-absorbed-by-local-scheduling
// move of the virtual-processors SPMD line. Every assignment is carved at
// the program's grain (ExecConfig::grain); the steal, not a finer carve,
// balances the tail.
//
// Each pool::PoolRuntime job (a threaded run is a one-job pool) owns one
// dispatcher for its own core, so stealing stays within a job (tickets are
// per-core) while the pool's cross-job rotation handles the rest. The
// worker-side body-execution half of the old runtime/worker_loop.hpp
// (BodyLoopStats, execute/drain) lives here too: the dispatcher is its new
// home.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/executive.hpp"
#include "core/sharded_executive.hpp"
#include "runtime/body_table.hpp"
#include "sched/run_queue.hpp"

namespace pax::sched {

/// The retire/refill batch both runtimes ship with (RtConfig::batch,
/// PoolConfig::batch), defined once so their defaults cannot drift apart.
/// With auto shards it also sizes each shard's ring depth (batch) and the
/// deposit flush threshold (2x batch) — DESIGN.md §6 says why 8.
inline constexpr std::uint32_t kDefaultBatch = 8;

struct DispatchConfig {
  std::uint32_t workers = 4;
  /// Finished tickets retired per executive critical section (and the refill
  /// floor — see effective_capacity()).
  std::uint32_t batch = kDefaultBatch;
  /// Optional trace buffer (non-owning; null = off). With tracing on,
  /// drain_local reads the clock once after each body and chains the stamps
  /// (a task's exec-begin is the previous task's exec-end, or the drain's
  /// start), so the trace-vs-result busy sums match exactly (DESIGN.md §12).
  obs::TraceBuffer* trace = nullptr;
  /// Job lane tag on emitted records (the pool sets its job id here).
  std::uint64_t trace_job = obs::kNoTraceJob;

  /// Per-worker local run-queue slots: 2x batch (over-refill absorbed by
  /// peer steals during the tail).
  [[nodiscard]] std::size_t effective_capacity() const {
    return std::size_t{2} * batch;
  }
};

/// Per-worker (or per-job) execution accounting accumulated by drain_local.
struct BodyLoopStats {
  /// Sum of drain spans: each drain_local that pops work adds the time from
  /// its first pop to its end, so the pop and retire bookkeeping between
  /// bodies counts as busy and no body reads the clock (DESIGN.md §12).
  std::chrono::nanoseconds busy{0};
  std::uint64_t tasks = 0;
  std::uint64_t granules = 0;  ///< granules completed (faulted ones excluded)
  std::uint64_t faulted = 0;   ///< bodies that threw (caught by the barrier)

  BodyLoopStats& operator+=(const BodyLoopStats& o) {
    busy += o.busy;
    tasks += o.tasks;
    granules += o.granules;
    faulted += o.faulted;
    return *this;
  }
};

class Dispatcher {
 public:
  explicit Dispatcher(DispatchConfig config);

  [[nodiscard]] std::uint32_t workers() const { return config_.workers; }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }

  /// Deposit `done` (cleared on return) and refill worker `w`'s local queue
  /// up to capacity from the sharded executive's home/sibling shard rings
  /// (control-plane sweep only as a fallback — see
  /// ShardedExecutive::acquire). The warm case takes no mutex anywhere
  /// (DESIGN.md §13): ring pops and pushes only. Any locking that does
  /// happen is internal to `ex`; the caller holds nothing. Returns the
  /// number of assignments pulled into the local queue.
  std::size_t refill(ShardedExecutive& ex, WorkerId w, std::vector<Ticket>& done);

  /// Retire `done` (cleared on return) without pulling new work: the last
  /// rounds of a worker leaving a capped pool job (DESIGN.md §7). Same
  /// locking as refill(); a worker with nothing to retire returns at once.
  void retire(ShardedExecutive& ex, WorkerId w, std::vector<Ticket>& done);

  /// Owner pop from `w`'s local queue (LIFO end; executive handout order).
  bool pop_local(WorkerId w, Assignment& out) {
    return queues_[w]->pop(out);
  }

  /// Execute everything currently in `w`'s local queue — outside any
  /// executive lock — queueing tickets on `done` for the next refill's
  /// retire. Stops early once `done` reaches the queue capacity so
  /// retirement (and the enablements it fires) is never deferred past one
  /// queue's worth of work. Times the drain, not each body: one clock read
  /// at the first pop and one at the end feed `stats.busy` (with tracing
  /// on, one read after each body instead), and a drain that pops nothing
  /// reads no clock and adds no busy.
  ///
  /// Exception barrier (DESIGN.md §15): a throwing phase body does not kill
  /// the process. The barrier catches, diverts the ticket into `w`'s fault
  /// buffer (never onto `done` — a faulted ticket must go through
  /// ExecutiveCore::fail, not complete), and keeps draining. The no-fault
  /// path pays only the untaken try: no allocation, no clock read.
  void drain_local(const rt::BodyTable& bodies, WorkerId w,
                   std::vector<Ticket>& done, BodyLoopStats& stats);

  /// `w`'s pending fault records (filled by drain_local's barrier).
  /// Owner-only, like the local queue: the worker reports them via
  /// ExecutiveCore::fail / ShardedExecutive::fail_batch and clears. The
  /// buffer is preallocated to queue capacity, and drain_local bounds
  /// done+faults by that capacity, so appending never reallocates.
  [[nodiscard]] std::vector<GranuleFault>& fault_buffer(WorkerId w) {
    return faults_[w];
  }

  /// Worker `w`'s body sequence number in this dispatcher: odd while it is
  /// inside a phase body, even otherwise, advancing by two per body (a
  /// throwing body included). Relaxed sampling cell for the stuck-granule
  /// watchdog, which flags a job once the same odd value outlives the
  /// job's granule_timeout (DESIGN.md §15).
  [[nodiscard]] std::uint64_t body_seq(WorkerId w) const {
    return exec_cells_[w].seq.load(std::memory_order_relaxed);
  }

  /// Rundown stealing: move a FIFO range from the most-loaded peer queue
  /// into `w`'s queue. Returns the number of assignments stolen (0 = a lone
  /// worker, or every peer was dry or raced dry). Never touches the
  /// executive.
  std::size_t try_steal(WorkerId w);

  [[nodiscard]] std::size_t occupancy(WorkerId w) const {
    return queues_[w]->size();
  }
  /// Any queue non-empty (job-level probe for the pool's rotation pick).
  [[nodiscard]] bool any_local_work() const;

  /// High-water mark of local-queue occupancy across all workers.
  [[nodiscard]] std::size_t peak_occupancy() const;

 private:
  void push_reversed(WorkerId w, const std::vector<Assignment>& buf);
  /// Emit a worker-track instant record (no-op when tracing is off).
  void trace_event(WorkerId w, obs::TraceKind kind, std::uint32_t aux);
  /// Cold half of the exception barrier: record the fault into `w`'s
  /// preallocated buffer and emit the kGranuleFault instant.
  void record_fault(WorkerId w, const Assignment& a, const char* what);

  /// One watchdog sampling cell per worker, written only by its worker
  /// (two relaxed stores per task, no clock read); alignas keeps those
  /// stores on a private cache line.
  struct alignas(64) ExecCell {
    std::atomic<std::uint64_t> seq{0};
  };

  DispatchConfig config_;
  std::size_t capacity_;
  /// The queues lock internally (LocalRunQueue's own ranked mutex); the
  /// Dispatcher itself holds no lock.
  std::vector<std::unique_ptr<LocalRunQueue>> queues_;
  /// Worker-private refill/steal staging buffers: scratch_[w] is touched
  /// only by worker w's thread (refill and try_steal are called by the
  /// owner), so it needs no guard by construction.
  std::vector<std::vector<Assignment>> scratch_;
  /// Worker-private fault buffers (same ownership rule as scratch_).
  std::vector<std::vector<GranuleFault>> faults_;
  /// Watchdog sampling cells (see body_seq).
  std::unique_ptr<ExecCell[]> exec_cells_;
};

}  // namespace pax::sched
