// sharded_executive.hpp — the sharded front-end over ExecutiveCore.
//
// PR 3 decentralized *dispatch* (per-worker run-queues, rundown stealing),
// but every refill still funneled through one executive mutex per program:
// retirement, enablement and carving re-serialized on exactly the management
// resource the paper's rundown analysis warns about, and — per the
// work-inflation findings of Acar et al. — contended shared scheduler state
// inflates per-granule cost as worker counts grow. This layer shards the
// executive's *worker-facing* state so that two workers refilling different
// shards never contend:
//
//   * the granule handout is partitioned across `shards` independent Shard
//     buffers, each owning a slice of pre-carved assignments (its slice of
//     the split/grain state) and a deposit box of finished tickets (its
//     slice of the enablement-count updates to apply);
//   * a worker's acquire() first serves itself from its *home shard*
//     (worker % shards), then probes sibling shards, and only falls back to
//     the control plane when every shard is dry or the deposit census
//     crosses the flush threshold;
//   * the control plane — the unchanged single-threaded ExecutiveCore — is
//     entered by one worker at a time (control mutex) in *sweeps*: one sweep
//     collects every shard's deposited tickets, retires them in a single
//     complete_batch (so indirect enablements produced by tickets from
//     different shards coalesce into maximal ranges and are flushed ONCE),
//     then re-scatters carved assignments across the shard buffers. Sweep
//     entry is a try-lock: a worker that finds a sweep in flight re-probes
//     the rings and returns instead of queueing, because the sweep in flight
//     scatters for every shard;
//   * a small atomic census (ready / deposited / core-waiting / elevated /
//     idle-work / finished) keeps runnable() / work_available() probes
//     lock-free for the pool's cross-job pick and the runtimes' sleep
//     predicates.
//
// The warm path is lock-free (DESIGN.md §13): each shard's ready buffer and
// deposit box are bounded MPMC rings (core/mpmc_ring.hpp) preallocated at
// construction. A warm acquire is a multi-consumer pop from the home ring, a
// lock-free sibling probe, and a lock-free push of finished tickets into the
// home deposit ring — no mutex anywhere. The control sweep (under the
// control mutex) drains deposit rings and scatters into ready rings as the
// slow path, and absorbs every ring overflow: a refused deposit push turns
// into a direct retire inside the caller's forced sweep, a refused scatter
// push parks the assignment in a control-plane spill served/re-pushed by
// later sweeps.
//
// With shards == 1 the layer short-circuits to the PR 3 protocol — every
// acquire is one control section doing complete_batch + request_work_batch,
// no ring touched — which is why `shards = 1` reproduces the prior behavior
// exactly (RtBatchedHandoff.FewerLockAcquisitionsSameWork runs both).
//
// Elevated priority: the core pops elevated work first, but shard buffers
// could hide an elevated release behind already-carved normal work. The
// census therefore tracks the core's elevated count, and acquire() prefers a
// control sweep over buffered normal work while an elevated release is
// pending — with one worker this preserves the strict release-outranks-
// queued-work ordering of the unsharded executive.
//
// Concurrency discipline (DESIGN.md §11): the wrapped core, the sweep
// staging and the scatter spill are PAX_GUARDED_BY the control mutex (rank:
// control, the outermost lock of the system). The rings carry their own
// publish edges, and the census atomics are the only other state read
// outside the control mutex; each one documents the synchronization it
// relies on.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/lock_rank.hpp"
#include "common/thread_annotations.hpp"
#include "core/executive.hpp"
#include "core/mpmc_ring.hpp"
#include "obs/trace_ring.hpp"

namespace pax {

/// Sentinel: resolve the shard count from the worker count (≈ 2x workers,
/// clamped to the program's largest phase). 0 is *invalid* — constructors
/// PAX_CHECK it — so a config bug can never silently mean "auto".
inline constexpr std::uint32_t kAutoShards = 0xFFFFFFFFu;

struct ShardConfig {
  /// Number of independent shards; kAutoShards = 2x workers (1 for a single
  /// worker, where there is nothing to decontend), clamped to [1, largest
  /// phase granule count]. Explicit values must be >= 1 and <= the largest
  /// phase granule count.
  std::uint32_t shards = kAutoShards;
  std::uint32_t workers = 4;
  /// The runtime's retire batch, and the unit the shard buffers derive from:
  /// each ready ring holds `batch` assignments (bounds how much work is
  /// carved and parked in the rings ahead of execution), and `2 x batch`
  /// deposited tickets force a control sweep even while the rings still
  /// hold work (bounds enablement latency: a ticket waits at most one flush
  /// interval before its completions are processed).
  std::uint32_t batch = 1;

  /// Optional trace buffer (non-owning; null = tracing off, each emit site
  /// one untaken branch). Must outlive the executive; the worker passed to
  /// acquire() indexes its ring. DESIGN.md §12.
  obs::TraceBuffer* trace = nullptr;
  /// Job lane tag on emitted records (the pool sets its job id here).
  std::uint64_t trace_job = obs::kNoTraceJob;

  /// Resolve `shards` against a program's largest phase (`max_granules`).
  /// PAX_CHECKs the validity rules above.
  [[nodiscard]] std::uint32_t resolve(GranuleId max_granules) const;
};

/// What one acquire() call did.
struct ShardAcquire {
  std::size_t taken = 0;        ///< assignments appended to `out`
  std::size_t retired = 0;      ///< tickets retired by this call's sweep
  /// Work became visible to peers (an enablement enqueued, or a sweep
  /// scattered assignments into shard buffers): drivers wake sleepers.
  bool new_work = false;
  bool swept = false;           ///< this call entered the control plane
};

/// Lock/traffic counters. Written with relaxed atomics so stats()/JobHandle
/// snapshots may read them any time. Relaxed everywhere: the counters are
/// reporting data, never used to order anything — a snapshot mid-run is
/// allowed to be a moment stale.
struct ShardStats {
  std::atomic<std::uint64_t> control_acquisitions{0};  ///< control-mutex sections
  std::atomic<std::uint64_t> control_hold_ns{0};       ///< time inside them
  /// Sweep entries skipped because another section held the control mutex
  /// (shards > 1): the worker went back to the rings instead of queueing
  /// behind the sweep in flight.
  std::atomic<std::uint64_t> control_busy{0};
  std::atomic<std::uint64_t> sweeps{0};          ///< sections that swept deposits
  std::atomic<std::uint64_t> shard_hits{0};      ///< acquires served by home shard
  std::atomic<std::uint64_t> sibling_hits{0};    ///< ... by a sibling shard
  std::atomic<std::uint64_t> scattered{0};       ///< assignments pushed to shards
  /// Tickets parked in shards, counted as a sweep drains them (so under the
  /// control mutex, like every count stats() promises final).
  std::atomic<std::uint64_t> deposits{0};
  std::atomic<std::uint64_t> ring_pops{0};       ///< assignments popped lock-free
  std::atomic<std::uint64_t> ring_pop_empty{0};  ///< probes that found a hinted ring dry
  std::atomic<std::uint64_t> ring_push_full{0};  ///< pushes refused by a full ring
};

/// Plain-value snapshot of ShardStats (copyable into results structs).
/// ring_cas_retries is summed from the rings' own counters at snapshot time.
struct ShardStatsView {
  std::uint64_t control_acquisitions = 0;
  std::uint64_t control_hold_ns = 0;
  std::uint64_t control_busy = 0;
  std::uint64_t sweeps = 0;
  std::uint64_t shard_hits = 0;
  std::uint64_t sibling_hits = 0;
  std::uint64_t scattered = 0;
  std::uint64_t deposits = 0;
  std::uint64_t ring_pops = 0;
  std::uint64_t ring_pop_empty = 0;
  std::uint64_t ring_push_full = 0;
  std::uint64_t ring_cas_retries = 0;
};

class ShardedExecutive {
 public:
  /// Validates and resolves `config` (see ShardConfig) against `program`.
  ShardedExecutive(const PhaseProgram& program, ExecConfig exec_config,
                   CostModel costs, ShardConfig config);

  ShardedExecutive(const ShardedExecutive&) = delete;
  ShardedExecutive& operator=(const ShardedExecutive&) = delete;

  [[nodiscard]] std::uint32_t shards() const { return nshards_; }

  /// Begin program execution (control section). Until start() returns,
  /// acquire() yields nothing and runnable() is false.
  void start() PAX_EXCLUDES(control_mu_);

  /// The worker protocol, all locking internal (none at all on the warm
  /// path):
  ///   1. deposit `done` (cleared on return) into the home shard;
  ///   2. serve up to `max_n` assignments from the home shard buffer, else a
  ///      sibling buffer — no control mutex involved;
  ///   3. when every buffer is dry, deposits crossed the flush threshold, an
  ///      elevated release is pending, or a ring push overflowed: one control
  ///      sweep — retire ALL shards' deposits (plus any overflowed tickets)
  ///      in one coalesced complete_batch, pull for the caller, re-scatter
  ///      the shard buffers. When another section holds the control mutex
  ///      the caller re-probes the rings and returns (counted as
  ///      control_busy) — its deposits are already in a ring, so
  ///      work_available() stays true until a sweep retires them. Only a
  ///      deposit overflow (tickets that must retire in this call) waits.
  /// Returns what happened; `out` is appended in handout order. Returns at
  /// once on a finished executive: it has retired every ticket.
  ShardAcquire acquire(WorkerId w, std::size_t max_n, std::vector<Ticket>& done,
                       std::vector<Assignment>& out) PAX_EXCLUDES(control_mu_);

  /// Report barrier-contained granule faults (control section; cold by
  /// definition — faults are exceptional). Retires each ticket through the
  /// core's fail-retire path (bounded retry with backoff, poison after
  /// exhaustion). When a poisoned granule flips the core into the faulted
  /// terminal this also recalls the shard buffers, exactly like
  /// request_stop(), so finished() can flip once stragglers drain.
  ShardAcquire fail_batch(WorkerId w, std::span<const GranuleFault> faults)
      PAX_EXCLUDES(control_mu_);

  /// True once the program terminated because a poisoned granule made the
  /// dataflow unsatisfiable. Final when finished() is true.
  [[nodiscard]] bool faulted() const {
    // Acquire: pairs with the release store in fail_batch() — a reader that
    // sees the flag also sees the fault accounting written before it.
    return faulted_flag_.load(std::memory_order_acquire);
  }

  /// Snapshot of the core's failure accounting (control section; cold).
  [[nodiscard]] FaultStats fault_stats() const PAX_EXCLUDES(control_mu_);

  /// Executive idle-time work (control section). True if something was
  /// done; a finished executive does nothing.
  bool idle_work() PAX_EXCLUDES(control_mu_);

  /// Thread-safe conflicting-computation submission (control section).
  void submit_conflicting(RunId blocker, PhaseId phase, GranuleRange range)
      PAX_EXCLUDES(control_mu_);

  /// Cooperative mid-run stop (job cancellation), callable from any thread —
  /// including non-workers. One control section: stops the core, recalls
  /// every buffered-but-unexecuted assignment from the shard rings and the
  /// scatter spill and abandons their tickets. Workers racing past the flag
  /// may still execute at most one local queue's worth of in-flight granules;
  /// their deposits retire through normal sweeps, and finished() flips once
  /// the last outstanding ticket drains. Idempotent. Safe before start():
  /// the core finishes immediately and a later start() runs no program node.
  /// A no-op on a finished executive.
  void request_stop() PAX_EXCLUDES(control_mu_);
  [[nodiscard]] bool stop_requested() const {
    // Relaxed: a heuristic gate, same contract as the census probes — the
    // authoritative stop is the core's flag under the control mutex.
    return stop_requested_.load(std::memory_order_relaxed);
  }

  // --- lock-free census probes ---------------------------------------------
  // Each probe documents what orders it. The common pattern: a census flip
  // happens under the control mutex or is a relaxed atomic update beside a
  // ring operation, and every flip a sleeper could miss is followed by a
  // wake that passes through the sleeper's mutex — the mutexes carry the
  // ordering, so the probes themselves can stay relaxed.
  [[nodiscard]] bool finished() const {
    // Acquire: pairs with the release store in publish_core_census() so a
    // thread that sees `finished == true` also sees the core's final state
    // (ledger, diagnostics) when it reads them post-run without the lock.
    return finished_.load(std::memory_order_acquire);
  }
  /// Computable work is reachable *right now*: buffered in a shard (or the
  /// control-plane spill), waiting in the core, or unlockable by sweeping
  /// deposited tickets.
  [[nodiscard]] bool work_available() const {
    // Relaxed: a heuristic wake/probe signal. False negatives are closed by
    // the wake-through-mutex discipline; false positives cost one acquire()
    // that comes back empty.
    return ready_.load(std::memory_order_relaxed) > 0 ||
           core_waiting_.load(std::memory_order_relaxed) > 0 ||
           deposited_.load(std::memory_order_relaxed) > 0;
  }
  [[nodiscard]] bool has_idle_work() const {
    // Relaxed: same wake-signal contract as work_available().
    return core_idle_.load(std::memory_order_relaxed);
  }
  /// Cross-job probe (pool rotation pick): can a worker make progress here?
  [[nodiscard]] bool runnable() const {
    if (finished()) return false;
    // After a stop request the only remaining "progress" is draining
    // straggler deposits/buffers from workers that raced past the flag —
    // phantom core_waiting_ work must not attract adopters (the stop gate
    // would hand them nothing and they would spin).
    if (stop_requested_.load(std::memory_order_relaxed)) {
      return deposited_.load(std::memory_order_relaxed) > 0 ||
             ready_.load(std::memory_order_relaxed) > 0;
    }
    return work_available() || has_idle_work();
  }

  /// Relaxed snapshot of the counters; callable any time. Final once
  /// finished() reads true and the reader has since passed through the
  /// control mutex (fault_stats() does, which is how the pool's finalize
  /// fold reads it): every section adds its count and hold time before it
  /// releases the mutex, and a section entered after the program finished
  /// leaves uncounted, as do acquire(), idle_work() and request_stop() on a
  /// finished executive. The tallies a worker adds on the ring path outside
  /// the mutex (control_busy, ring_pop_empty, ring_cas_retries) may still
  /// grow by one per worker that was already past its finished() check;
  /// with one shard no ring is touched and all three stay 0.
  [[nodiscard]] ShardStatsView stats() const;

  /// The wrapped core, for driver setup (observer, ledger) and post-run
  /// reads. NOT synchronized: callers touch it only while the executive is
  /// quiescent (before start / after the program finished and every worker
  /// joined), exactly like the pre-shard runtimes' direct member access.
  // SAFETY: quiescence contract above — callers hold no lock because no
  // other thread can be inside the executive at the allowed call times.
  [[nodiscard]] ExecutiveCore& core_unsynchronized()
      PAX_NO_THREAD_SAFETY_ANALYSIS {
    return core_;
  }
  [[nodiscard]] const ExecutiveCore& core_unsynchronized() const
      PAX_NO_THREAD_SAFETY_ANALYSIS {
    return core_;
  }

  /// Test hook: check the census against the rings' cursor deltas (pushed -
  /// popped), the ready_n/deposit_n occupancy hints and the spill. Aborts
  /// (PAX_CHECK) on drift. Exactness requires no worker mid-pop/push — i.e.
  /// quiescence, which every call site (post-join in the runtimes,
  /// single-threaded tests) provides. The control mutex still excludes
  /// concurrent sweeps.
  void check_census() const PAX_EXCLUDES(control_mu_);

 private:
  struct Shard {
    /// Shard buffers, allocated once at construction. Producers of
    /// `ready_ring` are control sweeps only (serialized by the control
    /// mutex); consumers are any worker. `deposit_ring` is the inverse:
    /// any worker pushes, only sweeps pop.
    std::unique_ptr<MpmcRing<Assignment>> ready_ring;
    std::unique_ptr<MpmcRing<Ticket>> deposit_ring;
    /// Lock-free occupancy hints so probes and sweeps skip empty shards
    /// without touching the rings. Relaxed: a hint read races its ring by
    /// design and the ring ops themselves re-check (a stale hint costs one
    /// empty pop or a conservative sibling bite, never correctness).
    /// Updated with fetch_add/sub so concurrent updates from both ends of a
    /// ring interleave without losing counts; transient over/under-shoot
    /// (including momentary wrap-below-zero) is part of the contract.
    std::atomic<std::uint32_t> ready_n{0};
    std::atomic<std::uint32_t> deposit_n{0};
  };

  [[nodiscard]] std::uint32_t home_of(WorkerId w) const { return w % nshards_; }
  /// Pop up to max_n from one shard's ready ring (O(taken)). Returns 0
  /// without touching the ring when the occupancy hint reads empty.
  std::size_t pop_from(Shard& s, std::size_t max_n, std::vector<Assignment>& out);
  /// Serve `res` from the home ring, else a steal-style bite of the first
  /// sibling ring that answers. False when all were dry.
  bool probe_rings(WorkerId w, std::size_t max_n, std::vector<Assignment>& out,
                   ShardAcquire& res);
  /// Warm+slow protocol across the rings (nshards_ > 1).
  ShardAcquire acquire_sharded(WorkerId w, std::size_t max_n,
                               std::vector<Ticket>& done,
                               std::vector<Assignment>& out)
      PAX_EXCLUDES(control_mu_);
  /// Control sweep body; caller holds the control mutex. `direct` (may be
  /// null) carries tickets that overflowed a deposit ring — retired in the
  /// same coalesced batch and cleared.
  void sweep_locked(ShardAcquire& res, WorkerId w, std::size_t max_n,
                    std::vector<Assignment>& out, std::vector<Ticket>* direct)
      PAX_REQUIRES(control_mu_);
  /// Push assignments from the control-plane spill into ready rings
  /// (oldest first, round-robin after the caller's home).
  /// Returns the number of shards touched (for the kShardFlush charge).
  std::uint64_t scatter_spill(WorkerId w, ShardAcquire& res)
      PAX_REQUIRES(control_mu_);
  /// Stop path: drain every shard ready ring and the scatter spill,
  /// abandoning the recalled tickets in the core (no granule completion).
  /// Cold path by definition — runs once per cancellation.
  void recall_abandon_locked() PAX_REQUIRES(control_mu_);
  /// Refresh the core-side census after a control section.
  void publish_core_census() PAX_REQUIRES(control_mu_);
  /// Emit a worker-track record onto the trace buffer (no-op when tracing
  /// is off). Called by the owning worker with NO executive lock held — the
  /// clock read must stay out of the timed control sections.
  void trace_event(WorkerId w, obs::TraceKind kind, std::uint32_t aux);

  CostModel costs_;
  std::uint32_t nshards_;
  /// Derived from ShardConfig::batch: ready-ring depth (batch) and the
  /// deposit count that forces a sweep (2 x batch).
  std::uint32_t depth_;
  std::uint32_t flush_;
  /// Trace plumbing (ShardConfig::trace): set at construction, immutable
  /// after — workers read it with no synchronization.
  obs::TraceBuffer* const trace_;
  const std::uint64_t trace_job_;

  /// Rank: control — the outermost lock of the whole system. Guards the
  /// single-threaded core, the sweep staging and the scatter spill.
  mutable RankedMutex<LockRank::kControl> control_mu_;
  /// The wrapped single-threaded executive. Every entry goes through the
  /// control mutex except the one annotated escape hatch above,
  /// core_unsynchronized() (quiescent driver access).
  ExecutiveCore core_ PAX_GUARDED_BY(control_mu_);
  std::vector<std::unique_ptr<Shard>> shards_;

  // Census. ready_/deposited_ change as relaxed updates adjacent to ring ops
  // (they may transiently undershoot while an op's count catches up); the
  // rest change under the control mutex. All
  // reads are lock-free probes (orders documented at the probe methods
  // above). ready_ includes the control-plane scatter spill, so parked
  // overflow work keeps work_available() true.
  std::atomic<std::int64_t> ready_{0};       ///< assignments across shard buffers
  std::atomic<std::int64_t> deposited_{0};   ///< unretired deposited tickets
  std::atomic<std::uint64_t> core_waiting_{0};   ///< core waiting-queue size
  std::atomic<std::uint64_t> core_elevated_{0};  ///< ... elevated entries
  std::atomic<bool> core_idle_{false};
  std::atomic<bool> started_{false};
  std::atomic<bool> finished_{false};
  /// Stop flag mirror (authoritative copy lives in the core, under the
  /// control mutex). Set once by request_stop(); read by acquire() to route
  /// workers into the drain path and by runnable() to stop advertising
  /// phantom core work.
  std::atomic<bool> stop_requested_{false};
  /// Faulted-terminal mirror (authoritative copy is core_.faulted(), under
  /// the control mutex). Written once by fail_batch(); read lock-free by the
  /// pool's finalize election after finished() flips.
  std::atomic<bool> faulted_flag_{false};
  /// Occupancy of scatter_spill_ (relaxed mirror, written
  /// under the control mutex) so acquire() can route a worker into a sweep
  /// when only spilled work remains — without taking the mutex to look.
  std::atomic<std::uint32_t> spill_n_{0};

  ShardStats stats_;
  /// Sweep staging: collected tickets. Reserved at construction to the
  /// worst-case outstanding-ticket count so sweeps never reallocate.
  std::vector<Ticket> sweep_tickets_ PAX_GUARDED_BY(control_mu_);
  /// Per-sweep carve staging (assignments are carved here
  /// and then pushed into a ready ring one by one) and the overflow spill
  /// for pushes a full ring refused. Both reserved at construction; the
  /// spill can grow only through the transient lapped-cell refusal
  /// documented in mpmc_ring.hpp — an exceptional slow path.
  std::vector<Assignment> scatter_buf_ PAX_GUARDED_BY(control_mu_);
  std::vector<Assignment> scatter_spill_ PAX_GUARDED_BY(control_mu_);
};

}  // namespace pax
