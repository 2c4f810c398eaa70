// timeline.hpp — body intervals recorded from outside the runtime, and the
// per-worker ledger derived from a traced run.
//
// The benchmark wraps each phase body in a timer (BodyLog) to compute
// rundown-tail utilization from untraced runs, and reads the runtime's own
// trace rings (obs::TraceBuffer) to split every worker's wall time into body,
// gap and sleep for the per-layer numbers.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <vector>

#include "obs/trace_ring.hpp"
#include "runtime/body_table.hpp"

namespace stackbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One timed body call: [t0, t1) on some worker, covering `granules`
/// granules of the computation identified by `tag`.
struct Interval {
  std::int64_t t0 = 0;
  std::int64_t t1 = 0;
  std::uint32_t granules = 0;
  std::uint32_t tag = 0;
};

/// Per-worker preallocated interval buffers. Each worker appends only to its
/// own cell, so recording takes no lock and never allocates. A full cell
/// counts what it drops and remembers when it first dropped: every interval
/// that ended before cutoff() is in the log.
class BodyLog {
 public:
  BodyLog(std::uint32_t workers, std::size_t per_worker) {
    for (std::uint32_t w = 0; w < workers; ++w)
      cells_.push_back(std::make_unique<Cell>(per_worker));
  }

  void record(pax::WorkerId w, std::int64_t t0, std::int64_t t1,
              std::uint32_t granules, std::uint32_t tag) {
    Cell& c = *cells_[w];
    if (c.n < c.v.size()) {
      c.v[c.n++] = Interval{t0, t1, granules, tag};
    } else if (c.dropped++ == 0) {
      c.first_drop = t1;
    }
  }

  // The readers below are quiescent-only: after the run that recorded
  // returned (its workers joined or went idle behind a completed job).

  [[nodiscard]] std::vector<Interval> collect() const {
    std::vector<Interval> out;
    for (const auto& c : cells_)
      out.insert(out.end(), c->v.begin(),
                 c->v.begin() + static_cast<std::ptrdiff_t>(c->n));
    return out;
  }

  [[nodiscard]] std::uint64_t dropped() const {
    std::uint64_t n = 0;
    for (const auto& c : cells_) n += c->dropped;
    return n;
  }

  [[nodiscard]] std::int64_t cutoff() const {
    std::int64_t t = std::numeric_limits<std::int64_t>::max();
    for (const auto& c : cells_)
      if (c->dropped > 0) t = std::min(t, c->first_drop);
    return t;
  }

  void clear() {
    for (auto& c : cells_) {
      c->n = 0;
      c->dropped = 0;
    }
  }

 private:
  struct alignas(64) Cell {
    explicit Cell(std::size_t cap) : v(cap) {}
    std::vector<Interval> v;
    std::size_t n = 0;
    std::uint64_t dropped = 0;
    std::int64_t first_drop = 0;
  };
  std::vector<std::unique_ptr<Cell>> cells_;
};

/// `bodies` with every phase body wrapped in a BodyLog timer. `tag` is read
/// at each call, so a recycled job instance can carry a fresh tag per job.
inline pax::rt::BodyTable timed_bodies(const pax::rt::BodyTable& bodies,
                                       std::size_t phases, BodyLog* log,
                                       const std::uint32_t* tag) {
  pax::rt::BodyTable out;
  for (std::size_t p = 0; p < phases; ++p) {
    const auto phase = static_cast<pax::PhaseId>(p);
    if (!bodies.has(phase)) continue;
    out.set(phase, [inner = bodies.of(phase), log, tag](pax::GranuleRange r,
                                                        pax::WorkerId w) {
      const std::int64_t t0 = now_ns();
      inner(r, w);
      log->record(w, t0, now_ns(), static_cast<std::uint32_t>(r.size()), *tag);
    });
  }
  return out;
}

/// Rundown window of one computation, as bench_util's RundownProbe defines
/// it: t90 is the end of the body whose completion carried the retired
/// granule count across 90% of the total; the window closes at the last
/// body end. Intervals must all belong to the computation.
struct Window {
  std::int64_t t90 = 0;
  std::int64_t end = 0;
};

inline Window rundown_window(std::vector<Interval> iv) {
  Window w;
  std::uint64_t total = 0;
  for (const Interval& i : iv) total += i.granules;
  if (iv.empty() || total == 0) return w;
  const std::uint64_t threshold = total - total / 10;
  std::sort(iv.begin(), iv.end(),
            [](const Interval& a, const Interval& b) { return a.t1 < b.t1; });
  std::uint64_t done = 0;
  for (const Interval& i : iv) {
    if (done < threshold && done + i.granules >= threshold) w.t90 = i.t1;
    done += i.granules;
  }
  w.end = iv.back().t1;
  return w;
}

/// Mean busy fraction of `workers` over a computation's rundown window
/// (RundownProbe::window_utilization). 0 when the window is empty.
inline double rundown_util(const std::vector<Interval>& iv, std::uint32_t workers) {
  const Window w = rundown_window(iv);
  if (w.end <= w.t90 || workers == 0) return 0.0;
  double busy = 0.0;
  for (const Interval& i : iv)
    if (i.t1 > w.t90) busy += static_cast<double>(i.t1 - std::max(i.t0, w.t90));
  return busy / (static_cast<double>(workers) * static_cast<double>(w.end - w.t90));
}

/// Stream form for the pool: for each job (tag), the busy fraction of the
/// WHOLE pool — every job's bodies — over that job's own rundown window,
/// averaged over the jobs whose window is non-empty. This asks the paper's
/// question at stream scope: while one job runs down, does other work keep
/// the workers busy? Only jobs whose window closed `margin` before `cutoff`
/// count (see BodyLog::cutoff): their own intervals and every body that
/// overlapped their window are then in the log.
inline double stream_rundown_util(const std::vector<Interval>& iv,
                                  std::uint32_t workers, std::int64_t cutoff,
                                  std::int64_t margin, std::size_t* jobs_counted) {
  if (iv.empty() || workers == 0) return 0.0;
  // Busy-time integral B(t) of the pool as a step function of the number of
  // bodies running: events sorted by time, B accumulated between events.
  std::vector<std::pair<std::int64_t, int>> ev;
  ev.reserve(2 * iv.size());
  for (const Interval& i : iv) {
    ev.emplace_back(i.t0, +1);
    ev.emplace_back(i.t1, -1);
  }
  std::sort(ev.begin(), ev.end());
  std::vector<std::int64_t> ts(ev.size());
  std::vector<double> cum(ev.size());  // B at ts[k]
  std::vector<int> running(ev.size());  // bodies running just after ts[k]
  int n = 0;
  double b = 0.0;
  for (std::size_t k = 0; k < ev.size(); ++k) {
    if (k > 0) b += static_cast<double>(n) * static_cast<double>(ev[k].first - ev[k - 1].first);
    n += ev[k].second;
    ts[k] = ev[k].first;
    cum[k] = b;
    running[k] = n;
  }
  auto busy_at = [&](std::int64_t t) {
    const auto it = std::upper_bound(ts.begin(), ts.end(), t);
    if (it == ts.begin()) return 0.0;
    const auto k = static_cast<std::size_t>(it - ts.begin()) - 1;
    return cum[k] + static_cast<double>(running[k]) * static_cast<double>(t - ts[k]);
  };

  std::map<std::uint32_t, std::vector<Interval>> jobs;
  for (const Interval& i : iv) jobs[i.tag].push_back(i);
  double sum = 0.0;
  std::size_t counted = 0;
  for (auto& [tag, job] : jobs) {
    const Window w = rundown_window(std::move(job));
    if (w.end <= w.t90 || w.end > cutoff - margin) continue;
    sum += (busy_at(w.end) - busy_at(w.t90)) /
           (static_cast<double>(workers) * static_cast<double>(w.end - w.t90));
    ++counted;
  }
  if (jobs_counted != nullptr) *jobs_counted = counted;
  return counted == 0 ? 0.0 : sum / static_cast<double>(counted);
}

/// One traced run's worker time, split from the trace rings. Per worker,
/// the span from its first to its last record is cut into body (exec
/// begin→end), sleep (sleep→wake) and gap (everything else between two
/// bodies). Each gap is attributed by the instants that fall inside it:
/// a control sweep outranks a steal, a steal outranks a refill, and a job
/// lifecycle instant (pool adoption/rotation/finalize) labels only a gap
/// with none of those.
struct Ledger {
  std::uint64_t body_ns = 0;
  std::uint64_t sleep_ns = 0;
  std::uint64_t gap_ns = 0;
  std::uint64_t gap_sweep_ns = 0;
  std::uint64_t gap_steal_ns = 0;
  std::uint64_t gap_refill_ns = 0;
  std::uint64_t gap_job_ns = 0;
  std::uint64_t gap_other_ns = 0;
  std::uint64_t tasks = 0;
  std::uint64_t granules = 0;
  std::uint64_t sweeps = 0;
  std::uint64_t steal_ok = 0;
  std::uint64_t steal_fail = 0;
  std::uint64_t wakeups = 0;
  std::uint64_t dropped = 0;

  Ledger& operator+=(const Ledger& o) {
    body_ns += o.body_ns;
    sleep_ns += o.sleep_ns;
    gap_ns += o.gap_ns;
    gap_sweep_ns += o.gap_sweep_ns;
    gap_steal_ns += o.gap_steal_ns;
    gap_refill_ns += o.gap_refill_ns;
    gap_job_ns += o.gap_job_ns;
    gap_other_ns += o.gap_other_ns;
    tasks += o.tasks;
    granules += o.granules;
    sweeps += o.sweeps;
    steal_ok += o.steal_ok;
    steal_fail += o.steal_fail;
    wakeups += o.wakeups;
    dropped += o.dropped;
    return *this;
  }
};

/// Classify-and-sum over one worker's records (ring order is emission
/// order; records are sorted by timestamp first because an exec-begin is
/// stamped before the body but emitted after it).
inline void ledger_add_worker(std::vector<pax::obs::TraceRecord> recs, Ledger& l) {
  using pax::obs::TraceKind;
  if (recs.empty()) return;
  std::stable_sort(recs.begin(), recs.end(),
                   [](const pax::obs::TraceRecord& a, const pax::obs::TraceRecord& b) {
                     return a.ts_ns < b.ts_ns;
                   });
  std::uint64_t seg_start = recs.front().ts_ns;  // current gap's start
  std::uint64_t seg_sleep = 0;                   // sleep inside it
  std::uint64_t sleep_at = 0;
  bool sleeping = false;
  int cls = 0;  // 0 other, 1 job, 2 refill, 3 steal, 4 sweep
  auto close_gap = [&](std::uint64_t until) {
    const std::uint64_t span = until > seg_start ? until - seg_start : 0;
    const std::uint64_t gap = span > seg_sleep ? span - seg_sleep : 0;
    l.gap_ns += gap;
    switch (cls) {
      case 4: l.gap_sweep_ns += gap; break;
      case 3: l.gap_steal_ns += gap; break;
      case 2: l.gap_refill_ns += gap; break;
      case 1: l.gap_job_ns += gap; break;
      default: l.gap_other_ns += gap; break;
    }
    seg_sleep = 0;
    cls = 0;
  };
  std::uint64_t exec_begin = 0;
  for (const pax::obs::TraceRecord& r : recs) {
    switch (r.kind) {
      case TraceKind::kExecBegin:
        close_gap(r.ts_ns);
        exec_begin = r.ts_ns;
        break;
      case TraceKind::kExecEnd:
        l.body_ns += r.ts_ns - exec_begin;
        ++l.tasks;
        l.granules += r.aux;
        seg_start = r.ts_ns;
        break;
      case TraceKind::kSleep:
        sleeping = true;
        sleep_at = r.ts_ns;
        break;
      case TraceKind::kWake:
        if (sleeping) {
          l.sleep_ns += r.ts_ns - sleep_at;
          seg_sleep += r.ts_ns - sleep_at;
          ++l.wakeups;
          sleeping = false;
        }
        break;
      case TraceKind::kShardSweep:
        ++l.sweeps;
        cls = std::max(cls, 4);
        break;
      case TraceKind::kStealSuccess:
        ++l.steal_ok;
        cls = std::max(cls, 3);
        break;
      case TraceKind::kStealAttempt:
        ++l.steal_fail;
        cls = std::max(cls, 3);
        break;
      case TraceKind::kRefill:
      case TraceKind::kDepositFlush:
        cls = std::max(cls, 2);
        break;
      case TraceKind::kJobOpen:
      case TraceKind::kJobDrain:
      case TraceKind::kJobFinalize:
        cls = std::max(cls, 1);
        break;
      default:
        break;
    }
  }
  close_gap(recs.back().ts_ns);
}

inline Ledger build_ledger(const pax::obs::TraceBuffer& buf) {
  Ledger l;
  for (std::uint32_t w = 0; w < buf.workers(); ++w) {
    std::vector<pax::obs::TraceRecord> recs;
    buf.ring(w).snapshot_into(recs);
    ledger_add_worker(std::move(recs), l);
  }
  l.dropped = buf.total_dropped();
  return l;
}

/// |Σ worker wall − (body + gap + sleep)| ÷ Σ worker wall: the share of
/// worker time the ledger does not account for (thread start before the
/// first record and exit after the last one, plus any inconsistency).
inline double ledger_residual(const Ledger& l, std::uint64_t wall_ns) {
  if (wall_ns == 0) return 1.0;
  const auto covered = static_cast<double>(l.body_ns + l.gap_ns + l.sleep_ns);
  const auto wall = static_cast<double>(wall_ns);
  return (covered > wall ? covered - wall : wall - covered) / wall;
}

}  // namespace stackbench
