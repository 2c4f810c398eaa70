// bench_util.hpp — shared builders for the experiment harness.
//
// Each bench binary regenerates one quantitative claim of the paper (see
// DESIGN.md §4 and the README bench matrix). The helpers here build canonical
// two-phase programs for every mapping kind and run them on the simulator.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <string>
#include <thread>
#include <vector>

#include "common/table.hpp"
#include "core/executive.hpp"
#include "runtime/threaded_runtime.hpp"
#include "sim/machine.hpp"

namespace pax::bench {

/// A threaded run's control-plane sections plus its parks on the pool's
/// condition variable: the executive contention total the T6 gate
/// compares (exec.control_acquisitions + worker.wait_wakeups).
inline std::uint64_t control_and_wait_locks(const rt::RtResult& r) {
  return r.metrics.at("exec.control_acquisitions") + r.metrics.at("worker.wait_wakeups");
}

/// Per-run rundown instrumentation of the T9 gate: bodies count
/// retired granules; whoever crosses the 90% threshold stamps t90, and
/// every body ending after t90 adds its overlap with [t90, end] to the
/// window busy time.
class RundownProbe {
 public:
  explicit RundownProbe(std::uint64_t total_granules)
      : threshold_(total_granules - total_granules / 10) {}

  void on_body(std::chrono::steady_clock::time_point t0,
               std::chrono::steady_clock::time_point t1, std::uint64_t granules) {
    const std::int64_t end = ns_of(t1);
    const std::uint64_t before = done_.fetch_add(granules, std::memory_order_acq_rel);
    if (before < threshold_ && before + granules >= threshold_) {
      std::int64_t expected = 0;
      t90_ns_.compare_exchange_strong(expected, end, std::memory_order_acq_rel);
    }
    const std::int64_t t90 = t90_ns_.load(std::memory_order_acquire);
    if (t90 != 0 && end > t90) {
      const std::int64_t begin = std::max(ns_of(t0), t90);
      window_busy_ns_.fetch_add(static_cast<std::uint64_t>(end - begin),
                                std::memory_order_relaxed);
    }
    std::int64_t prev = last_end_ns_.load(std::memory_order_relaxed);
    while (prev < end && !last_end_ns_.compare_exchange_weak(
                             prev, end, std::memory_order_relaxed)) {
    }
  }

  /// Mean busy fraction of `workers` over [t90, last body end].
  [[nodiscard]] double window_utilization(std::uint32_t workers) const {
    const std::int64_t t90 = t90_ns_.load(std::memory_order_relaxed);
    const std::int64_t end = last_end_ns_.load(std::memory_order_relaxed);
    if (t90 == 0 || end <= t90) return 0.0;
    return static_cast<double>(window_busy_ns_.load(std::memory_order_relaxed)) /
           (static_cast<double>(workers) * static_cast<double>(end - t90));
  }

 private:
  static std::int64_t ns_of(std::chrono::steady_clock::time_point t) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               t.time_since_epoch())
        .count();
  }

  const std::uint64_t threshold_;
  std::atomic<std::uint64_t> done_{0};
  std::atomic<std::int64_t> t90_ns_{0};  // 0 = not crossed yet
  std::atomic<std::uint64_t> window_busy_ns_{0};
  std::atomic<std::int64_t> last_end_ns_{0};
};

/// Busy-spin of `iters` hash rounds; the global sink defeats the optimizer.
inline std::atomic<std::uint64_t> g_spin_sink{0};
inline void spin(std::uint32_t iters) {
  std::uint64_t acc = 0;
  for (std::uint32_t i = 0; i < iters; ++i)
    acc += (static_cast<std::uint64_t>(i) * 2654435761u) ^ (acc >> 7);
  g_spin_sink.fetch_add(acc, std::memory_order_relaxed);
}

/// Machine-readable bench output: pass `--json <path>` to any gate or
/// figure bench and it appends one record per reported metric, so the
/// BENCH_*.json perf trajectory can be recorded per PR. Without the flag,
/// add() is a no-op. Records are written by flush() (called by the
/// destructor) under a `meta` block stamping the run (build type, UTC
/// timestamp, hardware concurrency, plus whatever the bench set_meta()s —
/// workers, shards, ...), so two BENCH files are comparable after the fact.
class JsonReport {
 public:
  JsonReport() = default;

  /// Scan argv for `--json <path>`. Unknown arguments are ignored (the
  /// benches have no other flags).
  static JsonReport from_args(int argc, char** argv) {
    JsonReport r;
    for (int i = 0; i + 1 < argc; ++i)
      if (std::strcmp(argv[i], "--json") == 0) r.path_ = argv[i + 1];
    return r;
  }

  JsonReport(const JsonReport&) = delete;
  JsonReport& operator=(const JsonReport&) = delete;
  JsonReport(JsonReport&&) = default;
  JsonReport& operator=(JsonReport&&) = default;

  [[nodiscard]] bool enabled() const { return !path_.empty(); }

  /// One metric record: bench name, metric id, value, and the config string
  /// that distinguishes sweep points (e.g. "workers=8 batch=16").
  void add(const std::string& name, const std::string& metric, double value,
           const std::string& config) {
    if (enabled()) recs_.push_back({name, metric, value, config});
  }

  /// Bench-specific run metadata (e.g. "workers", "shards"). Later calls
  /// with the same key append — keep keys unique.
  void set_meta(const std::string& key, const std::string& value) {
    if (enabled()) meta_.push_back({key, value});
  }
  void set_meta(const std::string& key, std::uint64_t value) {
    set_meta(key, std::to_string(value));
  }

  /// Write the records as a JSON array. Returns false (and warns on stderr)
  /// when the file cannot be written.
  bool flush() {
    if (!enabled() || flushed_) return true;
    flushed_ = true;
    std::FILE* f = std::fopen(path_.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "bench: cannot write --json file '%s'\n", path_.c_str());
      return false;
    }
    std::fputs("{\n  \"meta\": {\n", f);
#ifdef NDEBUG
    std::fputs("    \"build_type\": \"release\",\n", f);
#else
    std::fputs("    \"build_type\": \"debug\",\n", f);
#endif
    std::fprintf(f, "    \"timestamp\": \"%s\",\n", utc_timestamp().c_str());
    std::fprintf(f, "    \"hardware_concurrency\": %u",
                 std::thread::hardware_concurrency());
    for (const auto& [k, v] : meta_)
      std::fprintf(f, ",\n    \"%s\": \"%s\"", escape(k).c_str(),
                   escape(v).c_str());
    std::fputs("\n  },\n  \"records\": [\n", f);
    for (std::size_t i = 0; i < recs_.size(); ++i) {
      const Rec& r = recs_[i];
      std::fprintf(f,
                   "    {\"name\": \"%s\", \"metric\": \"%s\", \"value\": %.17g, "
                   "\"config\": \"%s\"}%s\n",
                   escape(r.name).c_str(), escape(r.metric).c_str(), r.value,
                   escape(r.config).c_str(), i + 1 < recs_.size() ? "," : "");
    }
    std::fputs("  ]\n}\n", f);
    std::fclose(f);
    return true;
  }

  ~JsonReport() { flush(); }

 private:
  struct Rec {
    std::string name, metric;
    double value;
    std::string config;
  };

  static std::string escape(const std::string& s) {
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
      if (c == '"' || c == '\\') out.push_back('\\');
      if (static_cast<unsigned char>(c) < 0x20) continue;  // control chars
      out.push_back(c);
    }
    return out;
  }

  static std::string utc_timestamp() {
    const std::time_t now = std::time(nullptr);
    std::tm tm{};
    gmtime_r(&now, &tm);
    char buf[32];
    std::strftime(buf, sizeof buf, "%Y-%m-%dT%H:%M:%SZ", &tm);
    return buf;
  }

  std::string path_;
  std::vector<std::pair<std::string, std::string>> meta_;
  std::vector<Rec> recs_;
  bool flushed_ = false;
};

/// A canonical two-phase (A then B) program with the requested enablement
/// mapping from A to B. For reverse/forward kinds, `fan` controls the number
/// of requirements per successor granule (the paper's J=1..10) / targets per
/// current granule.
struct TwoPhase {
  PhaseProgram program;
  PhaseId a = kNoPhase;
  PhaseId b = kNoPhase;
};

inline TwoPhase two_phase(GranuleId n_a, GranuleId n_b, MappingKind kind,
                          std::uint32_t fan = 4, bool stable = false,
                          bool serial_between = false,
                          bool serial_conflicts = true) {
  TwoPhase out;
  out.a = out.program.define_phase(make_phase("phaseA", n_a).writes("X"));
  out.b = out.program.define_phase(make_phase("phaseB", n_b).reads("X").writes("Y"));

  EnableClause clause;
  clause.successor_name = "phaseB";
  clause.kind = kind;
  if (kind == MappingKind::kReverseIndirect) {
    clause.indirection.requires_of = [n_a, fan](GranuleId r,
                                                std::vector<GranuleId>& need) {
      std::uint64_t s = 0x51ED2701u ^ (static_cast<std::uint64_t>(r) << 17);
      for (std::uint32_t j = 0; j < fan; ++j)
        need.push_back(static_cast<GranuleId>(splitmix64(s) % n_a));
    };
    clause.indirection.stable = stable;
  } else if (kind == MappingKind::kForwardIndirect) {
    clause.indirection.enables_of = [n_b, fan](GranuleId p,
                                               std::vector<GranuleId>& en) {
      std::uint64_t s = 0x2F0A1993u ^ (static_cast<std::uint64_t>(p) << 13);
      for (std::uint32_t j = 0; j < fan; ++j)
        en.push_back(static_cast<GranuleId>(splitmix64(s) % n_b));
    };
    clause.indirection.stable = stable;
  }

  out.program.dispatch(out.a, {clause});
  if (serial_between)
    out.program.serial("between", {}, /*sim_duration=*/200, serial_conflicts);
  out.program.dispatch(out.b);
  out.program.halt();
  return out;
}

// --- the T9 protocol workload ------------------------------------------------
// One definition shared by bench_t9_shard (which gates sharding against the
// 1-shard baseline on it) and bench_t10_alloc (which gates that the
// allocation-free control plane did not tax the same path) — so the two
// gates can never silently diverge on workload or knobs.

inline constexpr GranuleId kT9Granules = 4096;  ///< granules per phase
inline constexpr std::uint64_t kT9Total = 2ull * kT9Granules;
inline constexpr std::uint32_t kT9Grain = 32;
inline constexpr std::uint32_t kT9Batch = 16;

/// T10's warm-window heap-traffic bar, shared so bench_t13_serve and
/// bench_t14_fault hold the served warm path to the SAME bar bench_t10_alloc
/// sets for the single-program one: the baseline measured before the arena
/// rework on the exact T10a workload, and the required reduction factor.
/// Bar = baseline / reduction.
inline constexpr double kT10PreReworkAllocsPerGranule = 0.123;
inline constexpr double kT10RequiredReduction = 10.0;

/// One run of the T9 two-phase identity program with ramped granule cost
/// (~6x head to tail). When `probe` is non-null the bodies feed it for the
/// rundown-window utilization metric. When `trace` is non-null the run
/// records into it (the t11 overhead gate's tracing-on arm).
inline rt::RtResult run_t9_protocol(std::uint32_t workers, std::uint32_t shards,
                                    RundownProbe* probe = nullptr,
                                    obs::TraceBuffer* trace = nullptr) {
  PhaseProgram prog;
  const PhaseId a = prog.define_phase(make_phase("a", kT9Granules).writes("A"));
  const PhaseId b =
      prog.define_phase(make_phase("b", kT9Granules).reads("A").writes("B"));
  prog.dispatch(a, {EnableClause{"b", MappingKind::kIdentity, {}}});
  prog.dispatch(b);
  prog.halt();

  rt::BodyTable bodies;
  auto body = [probe](GranuleRange r, WorkerId) {
    const auto t0 = std::chrono::steady_clock::now();
    for (GranuleId g = r.lo; g < r.hi; ++g)
      spin(1500 + static_cast<std::uint32_t>(g) * 2);  // cost ramps ~6x
    if (probe != nullptr)
      probe->on_body(t0, std::chrono::steady_clock::now(), r.size());
  };
  bodies.set(a, body);
  bodies.set(b, body);

  ExecConfig cfg;
  cfg.grain = kT9Grain;
  rt::RtConfig rc;
  rc.workers = workers;
  rc.batch = kT9Batch;
  rc.shards = shards;
  rc.trace = trace;
  rt::ThreadedRuntime runtime(prog, cfg, CostModel::free_of_charge(), bodies, rc);
  return runtime.run();
}

/// Per-acquire cost probe: mean ns of a *warm* single-assignment acquire
/// against a shard ring pre-filled to `depth` (the ring depth is the
/// executive's batch, so `depth` is passed as ShardConfig::batch).
/// Single-threaded and deterministic: one worker primes the rings via a
/// sweep, then drains its home shard one assignment at a time; only
/// non-swept acquires are timed. An erase-from-front buffer once made this
/// O(buffer) — cost(depth=4096) ran away from cost(depth=64) — while the
/// ring pop is O(taken): bench_t9_shard asserts the ratio stays flat.
inline double warm_acquire_cost_ns(std::uint32_t depth,
                                   std::uint32_t warm_target = 8192) {
  PhaseProgram prog;
  const auto granules = static_cast<GranuleId>(depth) * 8;
  const PhaseId a = prog.define_phase(make_phase("a", granules).writes("A"));
  prog.dispatch(a);
  prog.halt();

  ExecConfig cfg;
  cfg.grain = 1;  // one granule per assignment: buffer occupancy == depth
  ShardConfig sc;
  sc.shards = 2;  // >1: engage the shard warm path, not the short-circuit
  sc.workers = 2;
  sc.batch = depth;  // ring depth = batch
  ShardedExecutive exec(prog, cfg, CostModel::free_of_charge(), sc);
  exec.start();

  std::vector<Ticket> done;  // stays empty: pure handout cost, no retires
  std::vector<Assignment> out;
  out.reserve(warm_target + depth);
  std::uint64_t warm_ns = 0;
  std::uint64_t warm_n = 0;
  while (warm_n < warm_target) {
    const auto t0 = std::chrono::steady_clock::now();
    const ShardAcquire res = exec.acquire(/*w=*/0, /*max_n=*/1, done, out);
    const auto t1 = std::chrono::steady_clock::now();
    if (res.taken == 0) break;  // program handed out completely
    if (!res.swept) {  // sweeps are the slow path; this probe times the warm one
      warm_ns += static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
      ++warm_n;
    }
  }
  if (warm_n == 0) return 0.0;
  return static_cast<double>(warm_ns) / static_cast<double>(warm_n);
}

/// Végh's effective parallelization (PAPERS.md: "the case of the parallelized
/// sequential processing"): invert Amdahl's law around a measured speedup S
/// on k workers to get the single-number figure of merit
///     alpha_eff = (k / (k - 1)) * (1 - 1 / S),
/// the parallel fraction an ideal Amdahl machine would need to show this S.
/// alpha_eff -> 1 means the harness (here: the pool's serving plane) adds no
/// effective serial fraction; the gap 1 - alpha_eff is the scheduling tax.
/// Degenerate inputs (k <= 1, S <= 0) return 0.
[[nodiscard]] inline double vegh_alpha_eff(double speedup, std::uint32_t workers) {
  if (workers <= 1 || speedup <= 0.0) return 0.0;
  const double k = static_cast<double>(workers);
  return (k / (k - 1.0)) * (1.0 - 1.0 / speedup);
}

/// Rundown window of phase-1 under a given result: [first idle-onset
/// candidate, phase completion]. We approximate the onset as `window_frac`
/// of the phase's span before its completion.
inline double rundown_utilization(const sim::SimResult& res, PhaseId phase,
                                  double window_frac = 0.15) {
  const SimTime done = res.phase_completion(phase);
  if (done == kTimeNever || done == 0) return 0.0;
  const auto span = static_cast<SimTime>(static_cast<double>(done) * window_frac);
  const SimTime from = done > span ? done - span : 0;
  if (done <= from) return 0.0;
  return res.window_utilization(from, done);
}

inline std::string fixed(double v, int prec = 2) { return Table::num(v, prec); }

inline void print_banner(const char* id, const char* claim) {
  std::printf("\n############################################################\n");
  std::printf("# %s\n# paper: %s\n", id, claim);
  std::printf("############################################################\n\n");
}

}  // namespace pax::bench
