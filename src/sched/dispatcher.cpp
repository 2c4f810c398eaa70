#include "sched/dispatcher.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace pax::sched {

Dispatcher::Dispatcher(DispatchConfig config)
    : config_(config),
      capacity_(config.effective_capacity()),
      scratch_(config.workers),
      faults_(config.workers),
      exec_cells_(std::make_unique<ExecCell[]>(config.workers)) {
  PAX_CHECK_MSG(config_.workers > 0, "need at least one worker");
  PAX_CHECK_MSG(config_.batch > 0, "batch must be at least 1");
  queues_.reserve(config_.workers);
  for (std::uint32_t w = 0; w < config_.workers; ++w) {
    queues_.push_back(std::make_unique<LocalRunQueue>(capacity_));
    scratch_[w].reserve(capacity_);
    // drain_local bounds done.size() + faults.size() by capacity_, so this
    // reserve makes the barrier's append allocation-free forever.
    faults_[w].reserve(capacity_);
  }
}

std::size_t Dispatcher::refill(ShardedExecutive& ex, WorkerId w,
                               std::vector<Ticket>& done) {
  const std::size_t room = capacity_ - std::min(capacity_, queues_[w]->size());
  if (room == 0 && done.empty()) return 0;
  std::vector<Assignment>& buf = scratch_[w];
  buf.clear();
  const std::size_t taken = ex.acquire(w, room, done, buf).taken;
  push_reversed(w, buf);
  if (taken > 0)
    trace_event(w, obs::TraceKind::kRefill, static_cast<std::uint32_t>(taken));
  return taken;
}

void Dispatcher::retire(ShardedExecutive& ex, WorkerId w,
                        std::vector<Ticket>& done) {
  if (done.empty()) return;
  std::vector<Assignment>& buf = scratch_[w];
  buf.clear();
  (void)ex.acquire(w, /*max_n=*/0, done, buf);
  PAX_DCHECK(buf.empty());
}

void Dispatcher::push_reversed(WorkerId w, const std::vector<Assignment>& buf) {
  // Push in reverse so the owner's LIFO pop order equals the order the
  // assignments arrived in (the executive's elevated-first handout order on
  // a refill; the victim's front-to-back order on a steal). One bulk lock
  // acquisition of the local queue.
  if (buf.empty()) return;
  const bool ok = queues_[w]->push_reversed(buf);
  PAX_CHECK_MSG(ok, "local run-queue overflow");
}

void Dispatcher::drain_local(const rt::BodyTable& bodies, WorkerId w,
                             std::vector<Ticket>& done, BodyLoopStats& stats) {
  Assignment a;
  std::vector<GranuleFault>& faults = faults_[w];
  auto next = [&] {
    return done.size() + faults.size() < capacity_ && queues_[w]->pop(a);
  };
  if (!next()) return;
  obs::TraceRing* ring =
      config_.trace != nullptr ? &config_.trace->ring(w) : nullptr;
  // The watchdog cell is written only by this worker, so the sequence lives
  // in a register and the cell takes two relaxed stores per task: odd
  // before the body, even after it. Relaxed — the watchdog's sample is a
  // heuristic staleness probe, and the cell is this worker's own line.
  std::atomic<std::uint64_t>& seq_cell = exec_cells_[w].seq;
  std::uint64_t seq = seq_cell.load(std::memory_order_relaxed);
  // Busy is the drain's span, not a sum of per-body spans: one clock read
  // here and one at the end. With tracing on, the one read after each body
  // both closes that task's exec record and opens the next one's, so the
  // records tile [start, last end] exactly and sum to the busy added.
  const std::uint64_t start = obs::trace_now_ns();
  std::uint64_t stamp = start;
  do {
    seq_cell.store(++seq, std::memory_order_relaxed);
    bool ok = true;
    // The exception barrier (DESIGN.md §15). Only the body call is inside
    // the try: queue/stats manipulation must never be attributed to a user
    // fault. The no-throw path through a try block is free (table-driven
    // unwinding); the catch arms are the cold path and may do what they
    // like except allocate — record_fault appends into a preallocated
    // buffer and copies a bounded message.
    try {
      bodies.of(a.phase)(a.range, w);
    } catch (const std::exception& e) {
      ok = false;
      record_fault(w, a, e.what());
    } catch (...) {
      ok = false;
      record_fault(w, a, "unknown exception in phase body");
    }
    seq_cell.store(++seq, std::memory_order_relaxed);
    if (ring != nullptr) {
      // Both records are emitted after the body, so tracing never runs
      // inside it; test_obs pins the busy identity
      // (ThreadedTracing.BusyAndGranuleIdentitiesAtZeroDrops).
      const std::uint64_t begin = stamp;
      stamp = obs::trace_now_ns();
      obs::TraceRecord r;
      r.job = config_.trace_job;
      r.range = a.range;
      r.phase = a.phase;
      r.aux = static_cast<std::uint32_t>(a.range.size());
      r.worker = static_cast<std::uint16_t>(w);
      r.ts_ns = begin;
      r.kind = obs::TraceKind::kExecBegin;
      ring->emit(r);
      r.ts_ns = stamp;
      r.kind = obs::TraceKind::kExecEnd;
      ring->emit(r);
    }
    if (ok) {
      stats.granules += a.range.size();
      ++stats.tasks;
      done.push_back(a.ticket);
    } else {
      ++stats.faulted;
    }
  } while (next());
  const std::uint64_t stop = ring != nullptr ? stamp : obs::trace_now_ns();
  stats.busy += std::chrono::nanoseconds{stop - start};
}

std::size_t Dispatcher::try_steal(WorkerId w) {
  if (config_.workers < 2) return 0;
  WorkerId victim = w;
  std::size_t most = 0;
  for (WorkerId peer = 0; peer < config_.workers; ++peer) {
    if (peer == w) continue;
    const std::size_t n = queues_[peer]->size();
    if (n > most) {
      most = n;
      victim = peer;
    }
  }
  if (most == 0) {
    trace_event(w, obs::TraceKind::kStealAttempt, 0);
    return 0;
  }

  const std::size_t room = capacity_ - std::min(capacity_, queues_[w]->size());
  if (room == 0) return 0;
  std::vector<Assignment>& buf = scratch_[w];
  buf.clear();
  const std::size_t got = queues_[victim]->steal(room, buf);
  if (got == 0) {
    trace_event(w, obs::TraceKind::kStealAttempt, 0);  // victim raced dry
    return 0;
  }
  push_reversed(w, buf);
  trace_event(w, obs::TraceKind::kStealSuccess, static_cast<std::uint32_t>(got));
  return got;
}

void Dispatcher::record_fault(WorkerId w, const Assignment& a,
                              const char* what) {
  GranuleFault f;
  f.ticket = a.ticket;
  f.phase = a.phase;
  f.range = a.range;
  f.worker = w;
  f.set_what(what);
  faults_[w].push_back(f);  // reserved to capacity_; never reallocates
  trace_event(w, obs::TraceKind::kGranuleFault,
              static_cast<std::uint32_t>(a.range.size()));
}

void Dispatcher::trace_event(WorkerId w, obs::TraceKind kind, std::uint32_t aux) {
  if (config_.trace == nullptr) return;
  obs::TraceRecord r;
  r.ts_ns = obs::trace_now_ns();
  r.job = config_.trace_job;
  r.aux = aux;
  r.worker = static_cast<std::uint16_t>(w);
  r.kind = kind;
  config_.trace->ring(w).emit(r);
}

bool Dispatcher::any_local_work() const {
  for (const auto& q : queues_)
    if (q->size() > 0) return true;
  return false;
}

std::size_t Dispatcher::peak_occupancy() const {
  std::size_t peak = 0;
  for (const auto& q : queues_) peak = std::max(peak, q->peak());
  return peak;
}

}  // namespace pax::sched
