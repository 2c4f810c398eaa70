// workloads.hpp — the stack benchmark's three workloads and what they share.
#pragma once

#include <sched.h>
#include <sys/resource.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "casper/grid.hpp"
#include "common/rng.hpp"
#include "obs/metrics.hpp"
#include "pool/job.hpp"
#include "stats.hpp"
#include "timeline.hpp"

namespace stackbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// What one workload run produced: the named metrics, the operation tally,
/// and numeric facts for the meta line (sample counts, tail labels, ledger
/// split).
struct Outcome {
  Report report;
  Tally tally;
  std::vector<std::pair<std::string, std::string>> meta;

  void note(std::string key, double value) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.9g", std::isfinite(value) ? value : 0.0);
    meta.emplace_back(std::move(key), buf);
  }
  /// A timing summary: `.p50` and `.tail` as metrics, the sample count and
  /// the tail's percentile as meta.
  void timing(const std::string& name, const Summary& s) {
    report.set(name + ".p50", s.p50);
    report.set(name + ".tail", s.tail);
    note(name + ".samples", static_cast<double>(s.n));
    note(name + ".tail_percentile", s.tail_pct);
  }
};

Outcome run_casper(const Args& args);
Outcome run_sor(const Args& args);
Outcome run_serve(const Args& args);

/// Ledger residual the traced run must stay within (a traced run beyond it,
/// or with any dropped trace record, counts as a failed check).
inline constexpr double kLedgerTolerance = 0.02;

/// Végh's effective parallelization (bench_util::vegh_alpha_eff): the
/// parallel fraction an ideal Amdahl machine needs to show speedup `s` on
/// `k` workers.
inline double vegh_alpha_eff(double s, std::uint32_t k) {
  if (k <= 1 || s <= 0.0) return 0.0;
  const double kk = static_cast<double>(k);
  return (kk / (kk - 1.0)) * (1.0 - 1.0 / s);
}

/// Peak resident set of this process so far, in MiB.
inline double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

inline double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

/// The CPUs this thread may run on.
inline std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof set, &set) != 0) return cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c)
    if (CPU_ISSET(c, &set)) cpus.push_back(c);
  return cpus;
}

/// Restrict the calling thread (and the threads it creates from now on,
/// which inherit the mask) to `cpus`. False when the kernel refused.
inline bool pin_to(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int c : cpus) CPU_SET(c, &set);
  return !cpus.empty() && sched_setaffinity(0, sizeof set, &set) == 0;
}

/// FNV-1a over the bit patterns of `bufs`, in order: the exact (bitwise)
/// output checksum of the CASPER bodies.
inline std::uint64_t fnv1a(const std::vector<std::vector<double>>& bufs) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const auto& b : bufs) {
    for (double d : b) {
      std::uint64_t bits = 0;
      std::memcpy(&bits, &d, sizeof bits);
      h = (h ^ bits) * 0x100000001b3ULL;
    }
  }
  return h;
}

/// An SOR input grid from `seed`: random interior in [0, 100), hot top
/// edge, cold elsewhere.
inline pax::casper::Grid sor_grid(std::uint32_t side, std::uint64_t seed) {
  pax::casper::Grid g(side, side);
  std::uint64_t s = seed;
  for (std::uint32_t y = 1; y + 1 < side; ++y)
    for (std::uint32_t x = 1; x + 1 < side; ++x)
      g.at(x, y) = static_cast<double>(pax::splitmix64(s) >> 11) * 0x1.0p-53 * 100.0;
  g.set_boundary(100.0, 0.0);
  return g;
}

/// Worker-side counters of a finished run (RtResult::metrics) or a
/// shut-down pool (PoolStats::metrics); names the other runtime does not
/// publish read 0.
struct Counters {
  double granules = 0, tasks = 0, busy_ns = 0, wall_ns = 0, steals = 0,
         rotations = 0, job_locks = 0, ctl_acq = 0, ctl_hold_ns = 0,
         ring_pops = 0, pop_empty = 0, push_full = 0, cas_retries = 0,
         heap_allocs = 0;

  explicit Counters(const pax::obs::MetricsSnapshot& m) {
    auto v = [&m](const char* name) { return static_cast<double>(m.value_of(name)); };
    granules = v("worker.granules");
    tasks = v("worker.tasks");
    busy_ns = v("worker.busy_ns");
    wall_ns = v("worker.wall_ns");
    steals = v("worker.steals");
    rotations = v("worker.rotations");
    job_locks = v("worker.job_lock_acquisitions");
    ctl_acq = v("exec.control_acquisitions");
    ctl_hold_ns = v("exec.control_hold_ns");
    ring_pops = v("shard.ring.pop");
    pop_empty = v("shard.ring.pop_empty");
    push_full = v("shard.ring.push_full");
    cas_retries = v("shard.ring.cas_retries");
    heap_allocs = v("heap.allocs");
  }
};

/// A served job succeeded when it completed, executed exactly its program's
/// granules, and left the reference outputs. Rejected, failed and cancelled
/// jobs are failures: the benchmark never cancels and sizes admission so
/// nothing is rejected at the offered rate.
inline bool job_succeeded(pax::pool::JobState state, std::uint64_t granules,
                          std::uint64_t expected, bool outputs_ok) {
  return state == pax::pool::JobState::kComplete && granules == expected &&
         outputs_ok;
}

/// The traced ledger's split of worker time (summed over traced runs) as
/// report meta: body/gap/sleep shares of the ledger, and the gap's split by
/// the instants inside it.
inline void note_gap_split(Outcome& out, const Ledger& l) {
  const auto covered = static_cast<double>(l.body_ns + l.gap_ns + l.sleep_ns);
  const auto gap = static_cast<double>(l.gap_ns);
  out.note("ledger.body_share", ratio(static_cast<double>(l.body_ns), covered));
  out.note("ledger.gap_share", ratio(gap, covered));
  out.note("ledger.sleep_share", ratio(static_cast<double>(l.sleep_ns), covered));
  out.note("gap.sweep_share", ratio(static_cast<double>(l.gap_sweep_ns), gap));
  out.note("gap.steal_share", ratio(static_cast<double>(l.gap_steal_ns), gap));
  out.note("gap.refill_share", ratio(static_cast<double>(l.gap_refill_ns), gap));
  out.note("gap.job_share", ratio(static_cast<double>(l.gap_job_ns), gap));
  out.note("gap.other_share", ratio(static_cast<double>(l.gap_other_ns), gap));
  out.note("ledger.tolerance", kLedgerTolerance);
}

/// Per-layer figures of a workload's traced runs: each run's ledger is
/// checked (no dropped record, residual within kLedgerTolerance, the trace
/// saw every granule the run executed) and its ratios collected; report()
/// sets their medians.
class TracedRuns {
 public:
  /// `wall_ns`: Σ worker wall of the run; `granules`: what it executed.
  bool add(const Ledger& l, std::uint64_t wall_ns, std::uint64_t granules) {
    const double res = ledger_residual(l, wall_ns);
    const auto g = static_cast<double>(l.granules);
    residual_.push_back(res);
    sweeps_.push_back(ratio(static_cast<double>(l.sweeps), g));
    gap_.push_back(ratio(static_cast<double>(l.gap_ns), static_cast<double>(l.tasks)));
    sleep_.push_back(ratio(static_cast<double>(l.sleep_ns), static_cast<double>(wall_ns)));
    wakeups_.push_back(ratio(static_cast<double>(l.wakeups), g));
    steal_ok_.push_back(ratio(static_cast<double>(l.steal_ok),
                              static_cast<double>(l.steal_ok + l.steal_fail)));
    dropped_ = std::max(dropped_, l.dropped);
    sum_ += l;
    return l.dropped == 0 && res <= kLedgerTolerance && l.granules == granules;
  }

  void report(Outcome& out, double overhead_frac) const {
    Report& r = out.report;
    r.set("ctl.sweeps_per_granule", median(sweeps_));
    r.set("sched.gap_ns_per_task", median(gap_));
    r.set("sched.steal_success_frac", median(steal_ok_));
    r.set("sleep.frac", median(sleep_));
    r.set("sleep.wakeups_per_granule", median(wakeups_));
    r.set("trace.overhead_frac", overhead_frac);
    r.set("trace.dropped", static_cast<double>(dropped_));
    r.set("ledger.residual_frac", median(residual_));
    note_gap_split(out, sum_);
  }

 private:
  std::vector<double> residual_, sweeps_, gap_, sleep_, wakeups_, steal_ok_;
  std::uint64_t dropped_ = 0;
  Ledger sum_;
};

}  // namespace stackbench
