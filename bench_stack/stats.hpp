// stats.hpp — sample statistics, failure accounting and the result line of
// the stack benchmark.
//
// Everything here is pure (no clocks, no threads) so test_stack.cpp can pin
// the rules the reported numbers depend on: how a timing's `.tail` is
// chosen, how sojourn is measured from a job's due time, how failures are
// counted, and which metric names the result line carries.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace stackbench {

/// Median of `v`: the middle sample, or the mean of the two middle samples.
/// 0 for an empty set.
inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// The percentiles a `.tail` is chosen from, and how many samples must lie
/// beyond the chosen one. A fixed ladder (rather than "exactly ten beyond")
/// keeps the label stable when the sample count moves a little between runs.
/// Per mille, so the "ten beyond" rule and the rank are exact integer
/// arithmetic.
inline constexpr std::uint64_t kTailLadderPermille[] = {750, 900, 990, 999};
inline constexpr std::uint64_t kTailBeyond = 10;

/// The highest ladder percentile (per mille) with at least kTailBeyond of
/// `n` samples beyond it; 500 when even p75 has fewer than ten beyond it
/// (n < 40).
inline std::uint64_t tail_permille(std::size_t n) {
  std::uint64_t best = 500;
  for (std::uint64_t pm : kTailLadderPermille)
    if (n * (1000 - pm) >= kTailBeyond * 1000) best = pm;
  return best;
}

/// Nearest-rank percentile of sorted samples: the smallest sample with at
/// least pm per mille of the set at or below it.
inline double nearest_rank(const std::vector<double>& sorted, std::uint64_t pm) {
  if (sorted.empty()) return 0.0;
  const std::uint64_t rank = std::max<std::uint64_t>(1, (pm * sorted.size() + 999) / 1000);
  return sorted[std::min<std::size_t>(rank, sorted.size()) - 1];
}

/// A timing reported as its median and its tail, with the sample count.
struct Summary {
  std::size_t n = 0;
  double p50 = 0.0;
  double tail = 0.0;
  double tail_pct = 50.0;  ///< which percentile `tail` is
};

inline Summary summarize(std::vector<double> v) {
  Summary s;
  s.n = v.size();
  if (v.empty()) return s;
  std::sort(v.begin(), v.end());
  s.p50 = median(v);
  const std::uint64_t pm = tail_permille(v.size());
  s.tail_pct = static_cast<double>(pm) / 10.0;
  s.tail = pm == 500 ? s.p50 : nearest_rank(v, pm);
  return s;
}

/// A time series cut into blocks (`block[i]` is sample i's block): each
/// block is summarized on its own and the run reports the medians of the
/// block medians and block tails. On a shared host a slow spell then moves
/// one block's figures, not the run's. `n` is the total sample count and
/// `tail_pct` the median block's tail percentile.
inline Summary blocked(const std::vector<double>& v,
                       const std::vector<std::uint32_t>& block,
                       std::uint32_t blocks) {
  std::vector<std::vector<double>> by(blocks);
  for (std::size_t i = 0; i < v.size() && i < block.size(); ++i)
    if (block[i] < blocks) by[block[i]].push_back(v[i]);
  std::vector<double> p50, tail, pct;
  for (auto& b : by) {
    if (b.empty()) continue;
    const Summary s = summarize(std::move(b));
    p50.push_back(s.p50);
    tail.push_back(s.tail);
    pct.push_back(s.tail_pct);
  }
  Summary out;
  out.n = v.size();
  out.p50 = median(p50);
  out.tail = median(tail);
  out.tail_pct = median(pct);
  return out;
}

/// blocked() over samples in the order they were taken, cut into
/// consecutive blocks of at least kMinBlock samples (at most kMaxBlocks), so
/// each block still has a p75 tail; fewer than 2 * kMinBlock samples form a
/// single block, i.e. summarize().
inline constexpr std::size_t kMinBlock = 40;
inline constexpr std::size_t kMaxBlocks = 10;

inline Summary blocked_in_order(const std::vector<double>& v) {
  const std::size_t blocks = std::clamp<std::size_t>(v.size() / kMinBlock, 1, kMaxBlocks);
  std::vector<std::uint32_t> block(v.size());
  for (std::size_t i = 0; i < v.size(); ++i)
    block[i] = static_cast<std::uint32_t>(i * blocks / v.size());
  return blocked(v, block, static_cast<std::uint32_t>(blocks));
}

/// Sojourn of an open-loop job: from the instant it was *due* (its place in
/// the arrival schedule) to its terminal state. The job's terminal instant
/// is submit-return + span, where span runs from the pool's submit stamp to
/// the terminal flip; the pool stamps inside submit(), so this is an upper
/// bound by the few hundred ns submit() spends after the stamp. Measuring
/// from the due time, not the submit call, is what charges a stalled
/// generator's lateness to every job queued behind the stall.
inline std::int64_t sojourn_ns(std::int64_t due_ns, std::int64_t submit_return_ns,
                               std::int64_t span_ns) {
  return (submit_return_ns - due_ns) + span_ns;
}

/// Attempted operations and the ones that failed (a wrong output, a wrong
/// granule count, or a job that ended rejected, failed or cancelled).
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void record(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
  [[nodiscard]] double fail_frac() const {
    return attempted == 0 ? 0.0
                          : static_cast<double>(failed) /
                                static_cast<double>(attempted);
  }
};

struct MetricDef {
  const char* name;
  const char* unit;
};

/// The end-to-end metrics (printed with --trace 0). Every workload reports
/// every one; README.md gives each one's definition per workload. The names
/// and units are mirrored in BENCHMARK.json (test_stack checks they agree).
inline constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"makespan_ms.p50", "ms"},
    {"makespan_ms.tail", "ms"},
    {"sojourn_ms.p50", "ms"},
    {"sojourn_ms.tail", "ms"},
    {"speedup", "x"},
    {"util", "ratio"},
    {"tail_util", "ratio"},
    {"capacity_jobs_per_s", "1/s"},
    {"peak_rss_mb", "MiB"},
};

/// The per-layer metrics (printed with --trace 1). A layer a workload does
/// not run through reports 0 (README.md lists which).
inline constexpr MetricDef kPerLayer[] = {
    {"body.ns_per_granule", "ns"},
    {"body.inflation", "ratio"},
    {"ctl.acq_per_granule", "count"},
    {"ctl.hold_ns_per_granule", "ns"},
    {"ctl.sweeps_per_granule", "count"},
    {"core.ns_per_granule", "ns"},
    {"shard.ring_frac", "ratio"},
    {"shard.pop_empty_per_granule", "count"},
    {"shard.push_full_per_granule", "count"},
    {"shard.cas_retries_per_granule", "count"},
    {"shard.acquire_ns", "ns"},
    {"sched.granules_per_task", "count"},
    {"sched.steals_per_granule", "count"},
    {"sched.steal_success_frac", "ratio"},
    {"sched.gap_ns_per_task", "ns"},
    {"sleep.frac", "ratio"},
    {"sleep.wakeups_per_granule", "count"},
    {"pool.queued_us.p50", "us"},
    {"pool.queued_us.tail", "us"},
    {"pool.service_us.p50", "us"},
    {"pool.job_locks_per_granule", "count"},
    {"pool.rotations_per_job", "count"},
    {"pool.submit_us.p50", "us"},
    {"heap.allocs_per_granule", "count"},
    {"trace.overhead_frac", "ratio"},
    {"trace.dropped", "count"},
    {"ledger.residual_frac", "ratio"},
    {"gen.lag_us.tail", "us"},
};

/// Named metric values of one run, printed as the benchmark's last line.
class Report {
 public:
  void set(std::string name, double value) {
    for (auto& [k, v] : values_) {
      if (k == name) {
        v = value;
        return;
      }
    }
    values_.emplace_back(std::move(name), value);
  }

  [[nodiscard]] const double* find(std::string_view name) const {
    for (const auto& [k, v] : values_)
      if (k == name) return &v;
    return nullptr;
  }

  /// Every metric of the selected set is present and finite.
  [[nodiscard]] bool complete(bool trace) const {
    for (const MetricDef& d : metric_set(trace)) {
      const double* v = find(d.name);
      if (v == nullptr || !std::isfinite(*v)) return false;
    }
    return true;
  }

  /// The result line: every metric of the selected set, in its fixed order.
  /// A metric that is missing or not finite is printed as 0 and turns
  /// `correct` false, so a broken measurement can never pass.
  [[nodiscard]] std::string result_line(bool trace, const Tally& tally) const {
    std::string metrics;
    for (const MetricDef& d : metric_set(trace)) {
      const double* v = find(d.name);
      const double value = v != nullptr && std::isfinite(*v) ? *v : 0.0;
      char buf[160];
      std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    metrics.empty() ? "" : ", ", d.name, value, d.unit);
      metrics += buf;
    }
    const bool correct = complete(trace) && tally.failed == 0 && tally.attempted > 0;
    char head[160];
    std::snprintf(head, sizeof head,
                  "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, ",
                  correct ? "true" : "false",
                  static_cast<unsigned long long>(std::max<std::uint64_t>(
                      1, tally.attempted)),
                  static_cast<unsigned long long>(tally.failed));
    return std::string(head) + "\"metrics\": {" + metrics + "}}";
  }

 private:
  static std::span<const MetricDef> metric_set(bool trace) {
    if (trace) return kPerLayer;
    return kEndToEnd;
  }

  std::vector<std::pair<std::string, double>> values_;
};

}  // namespace stackbench
