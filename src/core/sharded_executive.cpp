#include "core/sharded_executive.hpp"

#include <algorithm>
#include <chrono>

#include "common/check.hpp"

namespace pax {

namespace {

GranuleId max_phase_granules(const PhaseProgram& program) {
  GranuleId m = 0;
  for (std::size_t i = 0; i < program.phase_count(); ++i)
    m = std::max(m, program.phase(static_cast<PhaseId>(i)).granules);
  return m;
}

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Times one control-plane visit into the stats counters (relaxed: the
/// counters are read by unlocked snapshots, never used for synchronization).
/// Constructed BEFORE the mutex is taken: the span covers acquisition wait
/// plus hold, i.e. the serialization a worker actually experiences at the
/// control plane — the quantity sharding exists to remove (a pure-hold
/// measure would credit neither queueing nor cache bouncing). A refused
/// try-lock dismisses the timer and counts as control_busy instead.
class ControlTimer {
 public:
  explicit ControlTimer(ShardStats& stats) : stats_(stats), t0_(now_ns()) {}
  ~ControlTimer() {
    if (dismissed_) return;
    stats_.control_acquisitions.fetch_add(1, std::memory_order_relaxed);
    stats_.control_hold_ns.fetch_add(now_ns() - t0_, std::memory_order_relaxed);
  }
  void dismiss() {
    dismissed_ = true;
    stats_.control_busy.fetch_add(1, std::memory_order_relaxed);
  }
  ControlTimer(const ControlTimer&) = delete;
  ControlTimer& operator=(const ControlTimer&) = delete;

 private:
  ShardStats& stats_;
  std::uint64_t t0_;
  bool dismissed_ = false;
};

}  // namespace

std::uint32_t ShardConfig::resolve(GranuleId max_granules) const {
  PAX_CHECK_MSG(workers > 0, "shard config needs at least one worker");
  const GranuleId cap = std::max<GranuleId>(1, max_granules);
  if (shards == kAutoShards) {
    // One worker has nothing to decontend; give it the exact single-lock
    // protocol (strict FIFO handout) instead of a pointless shard hop.
    if (workers == 1) return 1;
    const std::uint64_t want = 2ull * workers;
    return static_cast<std::uint32_t>(
        std::min<std::uint64_t>(want, static_cast<std::uint64_t>(cap)));
  }
  PAX_CHECK_MSG(shards >= 1, "shard count must be at least 1 (0 is invalid)");
  PAX_CHECK_MSG(static_cast<std::uint64_t>(shards) <=
                    static_cast<std::uint64_t>(cap),
                "more shards than granules in the largest phase");
  return shards;
}

ShardedExecutive::ShardedExecutive(const PhaseProgram& program,
                                   ExecConfig exec_config, CostModel costs,
                                   ShardConfig config)
    : costs_(costs),
      nshards_(config.resolve(max_phase_granules(program))),
      depth_(std::max(1u, config.batch)),
      flush_(std::max(2u, 2u * config.batch)),
      trace_(config.trace),
      trace_job_(config.trace_job),
      core_(program, exec_config, costs) {
  // Worst-case tickets parked in deposit boxes at any instant: every worker
  // holds at most one local queue's worth (2x batch). Reserving that up
  // front means deposits and sweeps never grow a vector mid-run — the flush
  // threshold bounds the *typical* box size, not the peak.
  const std::size_t max_outstanding =
      std::size_t{2} * config.workers * std::max(1u, config.batch);
  shards_.reserve(nshards_);
  for (std::uint32_t s = 0; s < nshards_; ++s) {
    auto shard = std::make_unique<Shard>();
    // The ready ring holds one scatter depth, the deposit ring the
    // worst-case outstanding tickets. Allocated here, once — the warm path
    // never allocates (t10).
    shard->ready_ring = std::make_unique<MpmcRing<Assignment>>(depth_);
    shard->deposit_ring = std::make_unique<MpmcRing<Ticket>>(
        std::max<std::size_t>(flush_, max_outstanding));
    shards_.push_back(std::move(shard));
  }
  sweep_tickets_.reserve(
      std::max<std::size_t>(static_cast<std::size_t>(flush_) * nshards_,
                            max_outstanding));
  scatter_buf_.reserve(depth_);
  // The spill only ever holds assignments a full ring refused; one depth
  // per shard is far beyond what the transient-full window can park, so
  // growth past this reserve is effectively unreachable.
  scatter_spill_.reserve(static_cast<std::size_t>(depth_) * nshards_);
}

void ShardedExecutive::publish_core_census() {
  // Relaxed stores: these feed the heuristic probes; the sleep predicates
  // that must not miss a flip re-read them under the sleeper's mutex after
  // wake_all() passes through it.
  //
  // A stopped core publishes zero waiting work even though its waiting
  // queue may be non-empty (recalled/released descriptors park there until
  // teardown): that work can never be handed out again, and advertising it
  // would spin sleepers and attract pool adopters to a job with nothing to
  // do. core_idle_ is already stop-gated inside has_idle_work().
  const bool stopped = core_.stop_requested();
  // Retry parks count as waiting work: the backoff clock is pumped by the
  // very sweeps this census attracts, so hiding them would strand a parked
  // retry with every worker asleep.
  core_waiting_.store(stopped ? 0 : core_.waiting_size() + core_.retry_pending(),
                      std::memory_order_relaxed);
  core_elevated_.store(stopped ? 0 : core_.waiting_elevated_size(),
                       std::memory_order_relaxed);
  core_idle_.store(core_.has_idle_work(), std::memory_order_relaxed);
  // Release: pairs with the acquire load in finished() — post-run readers of
  // the core (ledger, diagnostics) synchronize on this flag alone.
  if (core_.finished()) finished_.store(true, std::memory_order_release);
}

void ShardedExecutive::start() {
  {
    ControlTimer timer(stats_);
    RankedLock lock(control_mu_);
    core_.start();
    publish_core_census();
  }
  // Release: pairs with the acquire load in acquire() — a worker that sees
  // started_ may enter the shard/control protocol and must see the
  // constructor-reserved shard buffers and the started core behind it.
  started_.store(true, std::memory_order_release);
}

std::size_t ShardedExecutive::pop_from(Shard& s, std::size_t max_n,
                                       std::vector<Assignment>& out) {
  // Hint gate: don't touch (and cache-bounce) an empty ring's cursors. A
  // stale hint costs one probe, never correctness — the pop re-checks.
  if (s.ready_n.load(std::memory_order_relaxed) == 0) return 0;
  std::size_t got = 0;
  Assignment a;
  // FIFO pops preserve handout order per scatter batch (the ring is the
  // order; partial takes leave the remainder in place by construction).
  while (got < max_n && s.ready_ring->try_pop(a)) {
    out.push_back(a);
    ++got;
  }
  if (got == 0) {
    // The hint said non-empty but the ring came up dry: a racing consumer
    // beat us (or a scatter's publish is in flight). Counted so the
    // hint-quality signal is visible in the stats split.
    stats_.ring_pop_empty.fetch_add(1, std::memory_order_relaxed);
    return 0;
  }
  s.ready_n.fetch_sub(static_cast<std::uint32_t>(got), std::memory_order_relaxed);
  ready_.fetch_sub(static_cast<std::int64_t>(got), std::memory_order_relaxed);
  stats_.ring_pops.fetch_add(got, std::memory_order_relaxed);
  return got;
}

std::uint64_t ShardedExecutive::scatter_spill(WorkerId w, ShardAcquire& res) {
  if (scatter_spill_.empty()) return 0;
  // Oldest first: spilled assignments were carved before anything a later
  // sweep scatters, and rundown fairness wants old work back in circulation
  // before fresh work piles behind it.
  std::size_t idx = 0;
  std::uint64_t touched = 0;
  for (std::uint32_t i = 0; idx < scatter_spill_.size() && i < nshards_; ++i) {
    Shard& s = *shards_[(home_of(w) + 1 + i) % nshards_];
    std::size_t room =
        depth_ - std::min<std::size_t>(depth_, s.ready_ring->approx_size());
    if (room == 0) continue;
    std::size_t pushed = 0;
    while (room > 0 && idx < scatter_spill_.size()) {
      if (!s.ready_ring->try_push(scatter_spill_[idx])) {
        stats_.ring_push_full.fetch_add(1, std::memory_order_relaxed);
        break;
      }
      ++idx;
      --room;
      ++pushed;
    }
    if (pushed > 0) {
      s.ready_n.fetch_add(static_cast<std::uint32_t>(pushed),
                          std::memory_order_relaxed);
      stats_.scattered.fetch_add(pushed, std::memory_order_relaxed);
      ++touched;
      res.new_work = true;
    }
  }
  if (idx > 0) {
    // ready_ is NOT adjusted: spilled assignments already count in the
    // census (they became reachable work the moment they were carved).
    scatter_spill_.erase(scatter_spill_.begin(),
                         scatter_spill_.begin() + static_cast<std::ptrdiff_t>(idx));
    spill_n_.store(static_cast<std::uint32_t>(scatter_spill_.size()),
                   std::memory_order_relaxed);
  }
  return touched;
}

void ShardedExecutive::sweep_locked(ShardAcquire& res, WorkerId w,
                                    std::size_t max_n,
                                    std::vector<Assignment>& out,
                                    std::vector<Ticket>* direct) {
  // Collect the deposit rings: multi-consumer pops — no lock, the control
  // mutex only serializes sweeps against each other. The occupancy hint
  // skips empty shards; a deposit racing past the hint read is simply
  // retired by the next sweep.
  sweep_tickets_.clear();
  for (auto& shard : shards_) {
    if (shard->deposit_n.load(std::memory_order_relaxed) == 0) continue;
    Ticket t;
    std::uint64_t popped = 0;
    while (shard->deposit_ring->try_pop(t)) {
      sweep_tickets_.push_back(t);
      ++popped;
    }
    // fetch_sub, not store(0): workers push new deposits concurrently with
    // this drain, and their hint increments must not be wiped.
    if (popped > 0)
      shard->deposit_n.fetch_sub(static_cast<std::uint32_t>(popped),
                                 std::memory_order_relaxed);
  }
  // Only drained tickets leave the deposit census; `direct` tickets (refused
  // by a full deposit ring) never entered it.
  const std::size_t drained = sweep_tickets_.size();
  if (direct != nullptr && !direct->empty()) {
    sweep_tickets_.insert(sweep_tickets_.end(), direct->begin(), direct->end());
    direct->clear();
  }
  if (!sweep_tickets_.empty()) {
    res.retired = sweep_tickets_.size();
    if (drained > 0)
      deposited_.fetch_sub(static_cast<std::int64_t>(drained),
                           std::memory_order_relaxed);
    stats_.sweeps.fetch_add(1, std::memory_order_relaxed);
    // One coalesced retire: indirect enablements fired by tickets deposited
    // on *different* shards merge into maximal ranges and are flushed once.
    const CompletionResult cr = core_.complete_batch(sweep_tickets_);
    res.new_work |= cr.new_work;
    sweep_tickets_.clear();
  }

  // Serve the caller first so a pending elevated release goes to the worker
  // that is about to execute, not into a buffer. Core before spill: the
  // core pops elevated entries first, and topping up from parked *normal*
  // spill work ahead of it would invert the release priority.
  if (max_n > 0) res.taken += core_.request_work_batch(w, max_n, out);

  if (res.taken < max_n && !scatter_spill_.empty()) {
    const std::size_t n = std::min(max_n - res.taken, scatter_spill_.size());
    out.insert(out.end(), scatter_spill_.begin(),
               scatter_spill_.begin() + static_cast<std::ptrdiff_t>(n));
    scatter_spill_.erase(scatter_spill_.begin(),
                         scatter_spill_.begin() + static_cast<std::ptrdiff_t>(n));
    spill_n_.store(static_cast<std::uint32_t>(scatter_spill_.size()),
                   std::memory_order_relaxed);
    ready_.fetch_sub(static_cast<std::int64_t>(n), std::memory_order_relaxed);
    res.taken += n;
  }
  // Parked overflow re-enters the rings before fresh work is carved behind
  // it (oldest first).
  std::uint64_t touched = scatter_spill(w, res);

  // Re-scatter: top up every shard ring to `depth_` while the core still
  // has waiting work, starting after the caller's home so siblings fill
  // evenly. Bill one kShardFlush per shard touched — publishing a slice of
  // the coalesced flush is a real management cost the sim charges per shard.
  for (std::uint32_t i = 0; core_.work_available() && i < nshards_; ++i) {
    Shard& s = *shards_[(home_of(w) + 1 + i) % nshards_];
    const std::size_t room =
        depth_ - std::min<std::size_t>(depth_, s.ready_ring->approx_size());
    if (room == 0) continue;
    // Carve into the control-plane staging buffer, then publish into the
    // ring one assignment at a time (appends extend the handout order the
    // FIFO pop preserves). approx_size is conservative (see mpmc_ring), so
    // `room` never over-fills a ring a sweep owns the producing side of; a
    // refused push can still happen through the transient lapped-cell
    // window, and the remainder parks in the spill.
    scatter_buf_.clear();
    const std::size_t got = core_.request_work_batch(w, room, scatter_buf_);
    if (got == 0) break;
    // Census first: the assignments are reachable work from this moment,
    // whether they land in the ring or the spill.
    ready_.fetch_add(static_cast<std::int64_t>(got), std::memory_order_relaxed);
    std::size_t pushed = 0;
    while (pushed < got && s.ready_ring->try_push(scatter_buf_[pushed]))
      ++pushed;
    if (pushed > 0) {
      s.ready_n.fetch_add(static_cast<std::uint32_t>(pushed),
                          std::memory_order_relaxed);
      stats_.scattered.fetch_add(pushed, std::memory_order_relaxed);
    }
    if (pushed < got) {
      stats_.ring_push_full.fetch_add(1, std::memory_order_relaxed);
      scatter_spill_.insert(scatter_spill_.end(),
                            scatter_buf_.begin() + static_cast<std::ptrdiff_t>(pushed),
                            scatter_buf_.end());
      spill_n_.store(static_cast<std::uint32_t>(scatter_spill_.size()),
                     std::memory_order_relaxed);
    }
    ++touched;
    res.new_work = true;
  }
  if (touched > 0) core_.ledger().charge(MgmtOp::kShardFlush, costs_, touched);

  publish_core_census();
  res.swept = true;
}

ShardAcquire ShardedExecutive::acquire_sharded(WorkerId w, std::size_t max_n,
                                               std::vector<Ticket>& done,
                                               std::vector<Assignment>& out) {
  ShardAcquire res;
  Shard& home = *shards_[home_of(w)];

  // Deposit: lock-free pushes into the home shard's deposit ring. A refused
  // push (ring full, or the transient lapped-cell window) leaves the
  // remainder in `done` and forces a sweep that retires it directly — the
  // dispatcher's contract that `done` is cleared on return holds either way.
  bool overflow = false;
  if (!done.empty()) {
    std::size_t pushed = 0;
    while (pushed < done.size() && home.deposit_ring->try_push(done[pushed]))
      ++pushed;
    if (pushed > 0) {
      home.deposit_n.fetch_add(static_cast<std::uint32_t>(pushed),
                               std::memory_order_relaxed);
      deposited_.fetch_add(static_cast<std::int64_t>(pushed),
                           std::memory_order_relaxed);
      stats_.deposits.fetch_add(pushed, std::memory_order_relaxed);
      done.erase(done.begin(), done.begin() + static_cast<std::ptrdiff_t>(pushed));
      trace_event(w, obs::TraceKind::kDepositFlush,
                  static_cast<std::uint32_t>(pushed));
    }
    if (!done.empty()) {
      overflow = true;
      stats_.ring_push_full.fetch_add(1, std::memory_order_relaxed);
      trace_event(w, obs::TraceKind::kRingOverflow,
                  static_cast<std::uint32_t>(done.size()));
    }
  }

  // Straight to a sweep when deposits crossed the flush threshold (bounds
  // enablement latency) or an elevated release is pending in the core
  // (buffered normal work must not outrank it). Relaxed loads: both are
  // wake-signal heuristics — a stale read delays one sweep by one acquire,
  // it cannot lose work (the census is re-derived under the control mutex).
  const bool flush_due =
      deposited_.load(std::memory_order_relaxed) >=
      static_cast<std::int64_t>(flush_);
  const bool elevated_pending =
      core_elevated_.load(std::memory_order_relaxed) > 0;

  if (max_n > 0 && !overflow && !flush_due && !elevated_pending &&
      probe_rings(w, max_n, out, res))
    return res;

  // Every ring dry (or an overflow/flush/elevation forces it): the control
  // plane. The spill term keeps parked overflow work reachable — it is
  // counted in ready_, so sleep predicates stay true, and this is the path
  // that serves it. Skip when the plane has nothing for us, so rundown
  // probing stays off the control mutex.
  if (!overflow && deposited_.load(std::memory_order_relaxed) == 0 &&
      core_waiting_.load(std::memory_order_relaxed) == 0 &&
      spill_n_.load(std::memory_order_relaxed) == 0)
    return res;
  if (overflow) {
    // Refused deposits must retire in this call (`done` is consumed on
    // return), so this is the one sharded entry that waits its turn.
    {
      ControlTimer timer(stats_);
      RankedLock lock(control_mu_);
      sweep_locked(res, w, max_n, out, &done);
    }
  } else {
    // A sweep in flight drains every deposit ring and scatters for every
    // shard, so queueing behind it buys nothing. Liveness: this worker's
    // deposits are already in a ring, so deposited_ > 0 keeps
    // work_available() true and it cannot sleep past them — the next
    // acquire retires them.
    ControlTimer timer(stats_);
    RankedTryLock lock(control_mu_);
    if (!lock.try_lock()) {
      timer.dismiss();
      if (max_n > 0) (void)probe_rings(w, max_n, out, res);
      return res;
    }
    sweep_locked(res, w, max_n, out, nullptr);
  }
  // Emitted after the section ends so the record's clock read never lands
  // inside the timed hold span (the t11 overhead gate).
  trace_event(w, obs::TraceKind::kShardSweep,
              static_cast<std::uint32_t>(res.retired));
  return res;
}

bool ShardedExecutive::probe_rings(WorkerId w, std::size_t max_n,
                                   std::vector<Assignment>& out,
                                   ShardAcquire& res) {
  res.taken = pop_from(*shards_[home_of(w)], max_n, out);
  if (res.taken > 0) {
    stats_.shard_hits.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  for (std::uint32_t i = 1; i < nshards_; ++i) {
    Shard& sib = *shards_[(home_of(w) + i) % nshards_];
    const std::uint32_t hint = sib.ready_n.load(std::memory_order_relaxed);
    if (hint == 0) continue;
    // Steal-style bite: at most half the sibling's ring (rounded up).
    // Draining a whole sibling in one take would concentrate the tail in
    // one worker's local queue — the fat-tail pattern rundown stealing
    // exists to break up. The hint is a moment stale, which only changes
    // the bite size, never correctness.
    const std::size_t bite =
        std::min(max_n, (static_cast<std::size_t>(hint) + 1) / 2);
    res.taken = pop_from(sib, bite, out);
    if (res.taken > 0) {
      stats_.sibling_hits.fetch_add(1, std::memory_order_relaxed);
      return true;
    }
  }
  return false;
}

ShardAcquire ShardedExecutive::acquire(WorkerId w, std::size_t max_n,
                                       std::vector<Ticket>& done,
                                       std::vector<Assignment>& out) {
  ShardAcquire res;
  // Acquire: pairs with the release store in start() (see there).
  if (!started_.load(std::memory_order_acquire)) {
    PAX_CHECK_MSG(done.empty(), "finished tickets before start");
    return res;
  }

  // Stop drain path (any shard count): never hand out work; retire the
  // caller's in-flight tickets (as `direct` — they were never deposited)
  // plus any straggler deposits in one sweep. Gated so a worker with
  // nothing to retire does not spin on the control mutex while a peer
  // finishes its last granules.
  // Acquire: pairs with the exchange in request_stop() — a worker routed
  // here must observe the recalled buffers behind the flag.
  if (stop_requested_.load(std::memory_order_acquire)) {
    if (!done.empty() || deposited_.load(std::memory_order_relaxed) > 0 ||
        ready_.load(std::memory_order_relaxed) > 0 ||
        spill_n_.load(std::memory_order_relaxed) > 0) {
      {
        ControlTimer timer(stats_);
        RankedLock lock(control_mu_);
        sweep_locked(res, w, /*max_n=*/0, out,
                     done.empty() ? nullptr : &done);
      }
      trace_event(w, obs::TraceKind::kShardSweep,
                  static_cast<std::uint32_t>(res.retired));
    }
    return res;
  }

  if (nshards_ == 1) {
    // Single shard: the PR 3 protocol verbatim — one control section that
    // retires the worker's batch and refills it. No ring is touched.
    {
      ControlTimer timer(stats_);
      RankedLock lock(control_mu_);
      if (!done.empty()) {
        res.retired = done.size();
        const CompletionResult cr = core_.complete_batch(done);
        done.clear();
        res.new_work |= cr.new_work;
      }
      if (max_n > 0) res.taken = core_.request_work_batch(w, max_n, out);
      publish_core_census();
      res.swept = true;
    }
    // Trace AFTER the control section so the record's clock read never
    // lands inside the timed hold span (the t11 overhead gate).
    trace_event(w, obs::TraceKind::kShardSweep,
                static_cast<std::uint32_t>(res.retired));
    return res;
  }

  return acquire_sharded(w, max_n, done, out);
}

void ShardedExecutive::trace_event(WorkerId w, obs::TraceKind kind,
                                   std::uint32_t aux) {
  if (trace_ == nullptr) return;
  obs::TraceRecord r;
  r.ts_ns = obs::trace_now_ns();
  r.job = trace_job_;
  r.aux = aux;
  r.worker = static_cast<std::uint16_t>(w);
  r.kind = kind;
  trace_->ring(w).emit(r);
}

bool ShardedExecutive::idle_work() {
  ControlTimer timer(stats_);
  RankedLock lock(control_mu_);
  const bool did = core_.idle_work();
  publish_core_census();
  return did;
}

void ShardedExecutive::submit_conflicting(RunId blocker, PhaseId phase,
                                          GranuleRange range) {
  ControlTimer timer(stats_);
  RankedLock lock(control_mu_);
  core_.submit_conflicting(blocker, phase, range);
  publish_core_census();
}

void ShardedExecutive::recall_abandon_locked() {
  std::size_t recalled = 0;
  Assignment a;
  for (auto& shard : shards_) {
    std::uint32_t popped = 0;
    while (shard->ready_ring->try_pop(a)) {
      core_.abandon(a.ticket);
      ++popped;
    }
    // fetch_sub, not store(0): a worker that raced past the stop flag may
    // be mid-pop on this ring; its own decrement must not be wiped.
    if (popped > 0) {
      shard->ready_n.fetch_sub(popped, std::memory_order_relaxed);
      recalled += popped;
    }
  }
  for (const Assignment& sa : scatter_spill_) core_.abandon(sa.ticket);
  recalled += scatter_spill_.size();
  scatter_spill_.clear();
  spill_n_.store(0, std::memory_order_relaxed);
  if (recalled > 0)
    ready_.fetch_sub(static_cast<std::int64_t>(recalled),
                     std::memory_order_relaxed);
}

void ShardedExecutive::request_stop() {
  // The exchange makes the call idempotent and is the release edge the
  // acquire() drain path pairs with.
  if (stop_requested_.exchange(true, std::memory_order_acq_rel)) return;
  ControlTimer timer(stats_);
  RankedLock lock(control_mu_);
  core_.request_stop();
  recall_abandon_locked();
  publish_core_census();
}

ShardAcquire ShardedExecutive::fail_batch(WorkerId w,
                                          std::span<const GranuleFault> faults) {
  ShardAcquire res;
  if (faults.empty()) return res;
  std::uint64_t retries_before = 0, retries_after = 0;
  std::uint64_t poisoned_before = 0, poisoned_after = 0;
  {
    ControlTimer timer(stats_);
    RankedLock lock(control_mu_);
    retries_before = core_.fault_stats().retries;
    poisoned_before = core_.fault_stats().poisoned;
    for (const GranuleFault& f : faults) {
      const CompletionResult cr = core_.fail(f);
      res.new_work |= cr.new_work;
    }
    retries_after = core_.fault_stats().retries;
    poisoned_after = core_.fault_stats().poisoned;
    if (core_.faulted()) {
      // Release: pairs with the acquire load in faulted() — readers of the
      // flag see the fault accounting written above.
      faulted_flag_.store(true, std::memory_order_release);
      // The core stopped itself; recall the shard buffers exactly like
      // request_stop() so finished() can flip once stragglers drain. The
      // exchange keeps a racing explicit cancel idempotent.
      if (!stop_requested_.exchange(true, std::memory_order_acq_rel))
        recall_abandon_locked();
    }
    publish_core_census();
    res.swept = true;
  }
  if (retries_after > retries_before)
    trace_event(w, obs::TraceKind::kGranuleRetry,
                static_cast<std::uint32_t>(retries_after - retries_before));
  if (poisoned_after > poisoned_before)
    trace_event(w, obs::TraceKind::kGranulePoisoned,
                static_cast<std::uint32_t>(poisoned_after - poisoned_before));
  return res;
}

FaultStats ShardedExecutive::fault_stats() const {
  RankedLock lock(control_mu_);
  return core_.fault_stats();
}

ShardStatsView ShardedExecutive::stats() const {
  ShardStatsView v;
  v.control_acquisitions = stats_.control_acquisitions.load(std::memory_order_relaxed);
  v.control_hold_ns = stats_.control_hold_ns.load(std::memory_order_relaxed);
  v.control_busy = stats_.control_busy.load(std::memory_order_relaxed);
  v.sweeps = stats_.sweeps.load(std::memory_order_relaxed);
  v.shard_hits = stats_.shard_hits.load(std::memory_order_relaxed);
  v.sibling_hits = stats_.sibling_hits.load(std::memory_order_relaxed);
  v.scattered = stats_.scattered.load(std::memory_order_relaxed);
  v.deposits = stats_.deposits.load(std::memory_order_relaxed);
  v.ring_pops = stats_.ring_pops.load(std::memory_order_relaxed);
  v.ring_pop_empty = stats_.ring_pop_empty.load(std::memory_order_relaxed);
  v.ring_push_full = stats_.ring_push_full.load(std::memory_order_relaxed);
  for (const auto& shard : shards_)
    v.ring_cas_retries += shard->ready_ring->cas_retries() +
                          shard->deposit_ring->cas_retries();
  return v;
}

// The ring cursor deltas are exact under the documented quiescence contract
// (see the header); the control mutex excludes a concurrent sweep.
void ShardedExecutive::check_census() const {
  RankedLock lock(control_mu_);
  std::int64_t ready = 0, deposits = 0;
  for (const auto& shard : shards_) {
    const std::uint64_t ready_occ =
        shard->ready_ring->pushed() - shard->ready_ring->popped();
    const std::uint64_t dep_occ =
        shard->deposit_ring->pushed() - shard->deposit_ring->popped();
    PAX_CHECK_MSG(shard->ready_n.load(std::memory_order_relaxed) == ready_occ,
                  "shard occupancy hint drifted from its ring cursors");
    PAX_CHECK_MSG(shard->deposit_n.load(std::memory_order_relaxed) == dep_occ,
                  "shard deposit hint drifted from its ring cursors");
    ready += static_cast<std::int64_t>(ready_occ);
    deposits += static_cast<std::int64_t>(dep_occ);
  }
  PAX_CHECK_MSG(spill_n_.load(std::memory_order_relaxed) ==
                    scatter_spill_.size(),
                "spill occupancy mirror drifted from the spill");
  // Spilled assignments count as ready work (that is what keeps sleepers
  // honest while the overflow is parked).
  ready += static_cast<std::int64_t>(scatter_spill_.size());
  PAX_CHECK_MSG(ready == ready_.load(std::memory_order_relaxed),
                "ready census drifted from the shard rings");
  PAX_CHECK_MSG(deposits == deposited_.load(std::memory_order_relaxed),
                "deposit census drifted from the shard deposit rings");
  PAX_CHECK_MSG(core_waiting_.load(std::memory_order_relaxed) ==
                    (core_.stop_requested()
                         ? 0
                         : core_.waiting_size() + core_.retry_pending()),
                "waiting-queue census drifted from the core");
}

}  // namespace pax
