// metrics.hpp — the unified metrics registry, the runtimes' one stats
// surface.
//
// Metrics are *named* counters, gauges and histograms registered once,
// accumulated in per-worker cacheline-padded cells with relaxed atomics (no
// shared hot word), and snapshotted into a uniform MetricsSnapshot that
// rt::RtResult and pool::PoolStats carry. Every runtime counter is read from
// the snapshot by its dotted name; the result structs keep typed fields
// only for what a name cannot carry (per-worker time vectors, the ledger,
// fault text) and the three values every caller checks (DESIGN.md §12).
// A new metric flows into benches and reports without touching a result
// struct.
//
// Usage contract:
//   * register_*() and bind() run at construction time (they allocate);
//   * add()/set()/observe() are the hot-path writes — one relaxed atomic
//     add into the calling worker's own cell, no locks, no allocation;
//   * snapshot() sums the cells; it may run concurrently with writers
//     (relaxed reads: a snapshot mid-run is allowed to be a moment stale —
//     same contract as ShardStats).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/check.hpp"
#include "common/types.hpp"

namespace pax::obs {

using MetricId = std::uint32_t;

enum class MetricKind : std::uint8_t {
  kCounter,    ///< monotone sum across workers
  kGauge,      ///< last-set per worker; snapshot reports the sum of cells
  kHistogram,  ///< bucketed counts + total count + value sum
};

[[nodiscard]] inline const char* to_string(MetricKind k) {
  switch (k) {
    case MetricKind::kCounter: return "counter";
    case MetricKind::kGauge: return "gauge";
    case MetricKind::kHistogram: return "histogram";
  }
  return "?";
}

/// One snapshotted metric. For histograms, `value` is the observation
/// count, `sum` the value sum, and buckets[i] counts observations <=
/// bounds[i] (buckets.back() is the overflow bucket).
struct MetricValue {
  std::string name;
  MetricKind kind = MetricKind::kCounter;
  std::uint64_t value = 0;
  std::uint64_t sum = 0;
  std::vector<std::uint64_t> buckets;
  std::vector<std::uint64_t> bounds;
};

/// Plain-value snapshot carried by RtResult and PoolStats.
struct MetricsSnapshot {
  std::vector<MetricValue> values;

  [[nodiscard]] const MetricValue* find(std::string_view name) const {
    for (const MetricValue& v : values)
      if (v.name == name) return &v;
    return nullptr;
  }

  /// Value of a counter/gauge by name; `fallback` when absent.
  [[nodiscard]] std::uint64_t value_of(std::string_view name,
                                       std::uint64_t fallback = 0) const {
    const MetricValue* v = find(name);
    return v != nullptr ? v->value : fallback;
  }

  /// Value of a counter/gauge that must be present: aborts naming it when
  /// absent, so a misspelled name fails instead of reading 0.
  [[nodiscard]] std::uint64_t at(std::string_view name) const {
    const MetricValue* v = find(name);
    PAX_CHECK_MSG(v != nullptr, ("no metric named " + std::string(name)).c_str());
    return v->value;
  }

  /// Builder convenience for result assembly folding in values that never
  /// lived in worker cells (the pool plane, the executive's shard stats).
  void push(std::string name, std::uint64_t value,
            MetricKind kind = MetricKind::kCounter) {
    MetricValue v;
    v.name = std::move(name);
    v.kind = kind;
    v.value = value;
    values.push_back(std::move(v));
  }

  /// Overwrite the named counter/gauge value, or push it as a counter.
  void set(std::string_view name, std::uint64_t value) {
    for (MetricValue& v : values)
      if (v.name == name) {
        v.value = value;
        return;
      }
    push(std::string(name), value);
  }
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// --- registration (construction time; allocates) ------------------------

  MetricId register_counter(std::string name) {
    return register_metric(std::move(name), MetricKind::kCounter, {});
  }

  MetricId register_gauge(std::string name) {
    return register_metric(std::move(name), MetricKind::kGauge, {});
  }

  /// `bounds` must be strictly increasing; observations land in the first
  /// bucket whose bound is >= the value (one overflow bucket past the end).
  MetricId register_histogram(std::string name,
                              std::vector<std::uint64_t> bounds) {
    for (std::size_t i = 1; i < bounds.size(); ++i)
      PAX_CHECK_MSG(bounds[i - 1] < bounds[i],
                    "histogram bounds must be strictly increasing");
    return register_metric(std::move(name), MetricKind::kHistogram,
                           std::move(bounds));
  }

  /// Allocate the per-worker cells. Must be called after the last
  /// register_*() and before the first hot-path write. `workers` cells per
  /// slot; worker w writes only cells_[w] (plus any caller-serialized use
  /// of a shared index, e.g. the driver thread using cell 0 post-join).
  void bind(std::uint32_t workers) {
    PAX_CHECK_MSG(cells_.empty(), "bind() called twice");
    PAX_CHECK_MSG(workers > 0, "need at least one worker cell");
    cells_.reserve(workers);
    for (std::uint32_t w = 0; w < workers; ++w)
      cells_.push_back(std::make_unique<WorkerCells>(next_slot_));
  }

  [[nodiscard]] bool bound() const { return !cells_.empty(); }
  [[nodiscard]] std::size_t metric_count() const { return metrics_.size(); }

  /// --- hot path (relaxed atomic into the worker's own padded cell) --------

  void add(MetricId m, WorkerId w, std::uint64_t delta) {
    PAX_DCHECK(metrics_[m].kind == MetricKind::kCounter);
    // Relaxed: pure reporting sums; nothing is ordered by them.
    cell(w, metrics_[m].first_slot).fetch_add(delta, std::memory_order_relaxed);
  }

  void set(MetricId m, WorkerId w, std::uint64_t value) {
    PAX_DCHECK(metrics_[m].kind == MetricKind::kGauge);
    cell(w, metrics_[m].first_slot).store(value, std::memory_order_relaxed);
  }

  void observe(MetricId m, WorkerId w, std::uint64_t value) {
    const Metric& d = metrics_[m];
    PAX_DCHECK(d.kind == MetricKind::kHistogram);
    std::size_t b = 0;
    while (b < d.bounds.size() && value > d.bounds[b]) ++b;
    cell(w, d.first_slot + b).fetch_add(1, std::memory_order_relaxed);
    const std::size_t base = d.first_slot + d.bounds.size() + 1;
    cell(w, base + 0).fetch_add(1, std::memory_order_relaxed);      // count
    cell(w, base + 1).fetch_add(value, std::memory_order_relaxed);  // sum
  }

  /// --- snapshot ------------------------------------------------------------

  /// Worker `w`'s own cell of counter or gauge `m` (relaxed, like
  /// snapshot(): exact once the worker's writes are ordered before the read,
  /// e.g. after a join).
  [[nodiscard]] std::uint64_t value_at(MetricId m, WorkerId w) const {
    PAX_DCHECK(metrics_[m].kind != MetricKind::kHistogram);
    PAX_DCHECK(w < cells_.size());
    return cells_[w]->v[metrics_[m].first_slot].load(std::memory_order_relaxed);
  }

  [[nodiscard]] MetricsSnapshot snapshot() const {
    MetricsSnapshot out;
    out.values.reserve(metrics_.size());
    for (const Metric& d : metrics_) {
      MetricValue v;
      v.name = d.name;
      v.kind = d.kind;
      v.bounds = d.bounds;
      if (d.kind == MetricKind::kHistogram) {
        v.buckets.resize(d.bounds.size() + 1, 0);
        for (std::size_t b = 0; b <= d.bounds.size(); ++b)
          v.buckets[b] = sum_slot(d.first_slot + b);
        v.value = sum_slot(d.first_slot + d.bounds.size() + 1);
        v.sum = sum_slot(d.first_slot + d.bounds.size() + 2);
      } else {
        v.value = sum_slot(d.first_slot);
      }
      out.values.push_back(std::move(v));
    }
    return out;
  }

 private:
  struct Metric {
    std::string name;
    MetricKind kind{};
    std::size_t first_slot = 0;
    std::vector<std::uint64_t> bounds;  // histograms only
  };

  /// One worker's cells, padded so two workers' hot words never share a
  /// cache line (the same alignas discipline as the shard census).
  struct alignas(64) WorkerCells {
    explicit WorkerCells(std::size_t n) : v(n) {}
    std::vector<std::atomic<std::uint64_t>> v;
  };

  MetricId register_metric(std::string name, MetricKind kind,
                           std::vector<std::uint64_t> bounds) {
    PAX_CHECK_MSG(cells_.empty(), "register after bind()");
    Metric d;
    d.name = std::move(name);
    d.kind = kind;
    d.first_slot = next_slot_;
    d.bounds = std::move(bounds);
    // Histograms take bounds+1 bucket slots plus count and sum slots.
    next_slot_ +=
        kind == MetricKind::kHistogram ? d.bounds.size() + 3 : std::size_t{1};
    metrics_.push_back(std::move(d));
    return static_cast<MetricId>(metrics_.size() - 1);
  }

  [[nodiscard]] std::atomic<std::uint64_t>& cell(WorkerId w, std::size_t slot) {
    PAX_DCHECK(w < cells_.size());
    return cells_[w]->v[slot];
  }

  [[nodiscard]] std::uint64_t sum_slot(std::size_t slot) const {
    std::uint64_t n = 0;
    for (const auto& wc : cells_)
      n += wc->v[slot].load(std::memory_order_relaxed);
    return n;
  }

  std::vector<Metric> metrics_;
  std::size_t next_slot_ = 0;
  std::vector<std::unique_ptr<WorkerCells>> cells_;
};

}  // namespace pax::obs
