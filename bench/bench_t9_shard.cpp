// bench_t9_shard — Experiment T9.
//
// PR 3 decentralized dispatch; this bench gates the layer below it: the
// *sharded executive* (DESIGN.md §9). Every refill used to funnel through
// one executive mutex per program — the management serialization the paper's
// rundown analysis warns about, re-centralized. The sharded front-end
// partitions the granule handout across lock-free shard rings (home shard,
// sibling probe, control sweep as fallback; batched retire with cross-shard
// enablements coalesced and flushed once), so two workers refilling
// different shards never contend and the control mutex is entered a
// fraction as often, for sections amortized over whole sweeps.
//
// Workload: a two-phase identity program with ramped granule cost, at
// 8+ workers. Baseline is shards = 1 — the layer short-circuits to the PR 3
// single-mutex protocol on identical machinery — versus the kAutoShards
// geometry (2x workers).
//
// Exit status: non-zero when, at the full worker count (medians of 3, with
// up to 4 measurement retries against host noise), the sharded configuration
// fails to cut BOTH control-lock acquisitions per granule AND mean lock-hold
// nanoseconds per granule strictly below the single-shard baseline, or fails
// to hold rundown-window utilization (final 10% of granules) at >= the
// baseline, or granule counts drift; or when the warm acquire cost stops
// being O(taken) — cost at ring depth 4096 must stay within 4x of depth 64
// (an erase-from-front buffer made it O(buffer), and it ran away with
// depth).
//
// `--check` runs the correctness matrix instead (small programs x shard
// geometries x the stress harness's threaded, pool and simulator checks,
// plus the ring-pop cross-check)
// — the mode the TSAN CI job executes so shard-boundary and ring publish/
// consume races surface under ThreadSanitizer rather than in a perf gate.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "runtime/threaded_runtime.hpp"

namespace {

using namespace pax;

// Workload/knobs shared with bench_t10_alloc via bench_util.hpp (the t10
// allocation gate re-runs this exact protocol).
constexpr GranuleId kN = pax::bench::kT9Granules;
constexpr std::uint64_t kTotal = pax::bench::kT9Total;
constexpr std::uint32_t kBatch = pax::bench::kT9Batch;

using pax::bench::RundownProbe;
using pax::bench::run_t9_protocol;
using pax::bench::spin;
using pax::bench::warm_acquire_cost_ns;

struct RunOut {
  rt::RtResult res;
  double rundown_util = 0.0;
};

RunOut run_once(std::uint32_t workers, std::uint32_t shards) {
  RundownProbe probe(kTotal);
  RunOut out;
  out.res = run_t9_protocol(workers, shards, &probe);
  out.rundown_util = probe.window_utilization(workers);
  return out;
}

double control_locks_per_granule(const rt::RtResult& r) {
  return static_cast<double>(r.metrics.at("exec.control_acquisitions")) /
         static_cast<double>(r.granules_executed);
}

double hold_ns_per_granule(const rt::RtResult& r) {
  return static_cast<double>(r.metrics.at("exec.control_hold_ns")) /
         static_cast<double>(r.granules_executed);
}

/// Median of three repetitions by the given key.
template <typename Key>
const RunOut& median_by(std::vector<RunOut>& reps, Key key) {
  std::sort(reps.begin(), reps.end(),
            [&](const RunOut& x, const RunOut& y) { return key(x) < key(y); });
  return reps[reps.size() / 2];
}

struct ModeMetrics {
  double lpg = 0.0;   // control-lock acquisitions / granule
  double hold = 0.0;  // control-lock hold ns / granule
  double util = 0.0;  // rundown-window utilization
  RunOut mid;         // utilization-median repetition, for table rows
  bool granules_ok = true;
};

ModeMetrics metrics_of(std::vector<RunOut> r) {
  ModeMetrics m;
  for (const RunOut& x : r)
    if (x.res.granules_executed != kTotal) m.granules_ok = false;
  m.lpg = control_locks_per_granule(
      median_by(r, [](const RunOut& x) { return control_locks_per_granule(x.res); })
          .res);
  m.hold = hold_ns_per_granule(
      median_by(r, [](const RunOut& x) { return hold_ns_per_granule(x.res); }).res);
  const RunOut& mid = median_by(r, [](const RunOut& x) { return x.rundown_util; });
  m.util = mid.rundown_util;
  m.mid = mid;
  return m;
}

// --- correctness matrix (--check; runs in the TSAN CI job) -------------------

bool check_mode() {
  bool ok = true;
  auto expect = [&](bool cond, const char* what) {
    if (!cond) {
      std::fprintf(stderr, "t9 check FAILED: %s\n", what);
      ok = false;
    }
  };

  // Threaded runtime across shard geometries, with an elevated conflicting
  // submission landing mid-run (the ordering sharding must not lose).
  for (std::uint32_t shards : {1u, 2u, 7u, kAutoShards}) {
    const GranuleId n = 224;
    PhaseProgram prog;
    const PhaseId a = prog.define_phase(make_phase("a", n).writes("X"));
    const PhaseId b = prog.define_phase(make_phase("b", n).reads("X").writes("Y"));
    const PhaseId c = prog.define_phase(make_phase("c", 16).reads("X").writes("Z"));
    prog.dispatch(a, {EnableClause{"b", MappingKind::kIdentity, {}}});
    prog.dispatch(b);
    prog.halt();

    std::atomic<std::uint64_t> a_done{0}, b_done{0}, c_done{0};
    std::atomic<bool> submitted{false};
    rt::ThreadedRuntime* rt_ptr = nullptr;
    rt::BodyTable bodies;
    bodies.set(a, [&](GranuleRange r, WorkerId) {
      if (!submitted.exchange(true))
        rt_ptr->submit_conflicting(/*blocker=*/0, c, {0, 16});
      spin(200);
      a_done.fetch_add(r.size(), std::memory_order_relaxed);
    });
    bodies.set(b, [&](GranuleRange r, WorkerId) {
      // Identity enablement: a granule's phase-a counterpart completed.
      expect(a_done.load(std::memory_order_relaxed) > 0, "b ran before any a");
      b_done.fetch_add(r.size(), std::memory_order_relaxed);
    });
    bodies.set(c, [&](GranuleRange r, WorkerId) {
      expect(a_done.load(std::memory_order_relaxed) == n,
             "conflicting c ran before its blocker completed");
      c_done.fetch_add(r.size(), std::memory_order_relaxed);
    });

    ExecConfig cfg;
    cfg.grain = 4;
    rt::RtConfig rc;
    rc.workers = 4;
    rc.batch = 4;
    rc.shards = shards;
    rt::ThreadedRuntime runtime(prog, cfg, CostModel::free_of_charge(), bodies, rc);
    rt_ptr = &runtime;
    const rt::RtResult res = runtime.run();
    // run() already validated the ring-aware shard census; cross-check the
    // totals.
    expect(res.granules_executed == 2ull * n + 16, "granule total drifted");
    expect(a_done.load() == n && b_done.load() == n && c_done.load() == 16,
           "per-phase counts drifted");
    // shard.hits (home plus sibling) counts served CALLS, shard.ring.pop
    // counts popped ASSIGNMENTS — every warm hit pops at least one, so pops
    // >= hits, and warm pops happen only on the sharded path (never in
    // sweeps).
    if (shards > 1)
      expect(res.metrics.at("shard.ring.pop") >= res.metrics.at("shard.hits"),
             "ring pops fewer than the warm hits they served");
  }

  // Simulator: shards=1 twice must be bit-identical; more shards may only
  // change timing, never the work done.
  {
    using namespace pax::bench;
    const TwoPhase tp = two_phase(256, 256, MappingKind::kReverseIndirect, 3);
    ExecConfig cfg;
    cfg.grain = 4;
    sim::Workload wl(11);
    auto run_sim = [&](std::uint32_t shards) {
      sim::MachineConfig mc;
      mc.workers = 16;
      mc.record_intervals = false;
      mc.shards = shards;
      return sim::simulate(tp.program, cfg, CostModel{}, wl, mc);
    };
    const sim::SimResult s1a = run_sim(1), s1b = run_sim(1);
    expect(s1a.makespan == s1b.makespan && s1a.exec_ticks == s1b.exec_ticks,
           "sim shards=1 not deterministic");
    const sim::SimResult s4 = run_sim(4);
    expect(s4.granules_executed == s1a.granules_executed,
           "sim sharding changed the executed work");
    expect(s4.shard_exec_ticks.size() == 4, "sim lane billing missing");
  }
  std::printf("t9 correctness matrix: %s\n", ok ? "PASS" : "FAIL");
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace pax;
  using namespace pax::bench;
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--check") == 0) return check_mode() ? 0 : 1;

  JsonReport json = JsonReport::from_args(argc, argv);
  print_banner("T9 — sharded executive: per-shard handout vs one mutex",
               "partitioning the executive's worker-facing state removes the "
               "management serialization that re-centralized at the refill "
               "path, without giving up the rundown fill");

  const std::uint32_t workers =
      std::max(8u, std::min(16u, std::thread::hardware_concurrency()));
  json.set_meta("workers", workers);
  json.set_meta("batch", kBatch);
  json.set_meta("shards", "1 vs auto");
  constexpr int kReps = 3;
  constexpr int kAttempts = 4;  // whole-measurement retries against host noise

  bool pass = false;
  ModeMetrics base, shard;
  for (int attempt = 0; attempt < kAttempts && !pass; ++attempt) {
    // Interleave the repetitions (b,s,b,s,...) so slow host-load drift hits
    // both modes evenly instead of biasing whichever ran last.
    std::vector<RunOut> base_reps, shard_reps;
    for (int i = 0; i < kReps; ++i) {
      base_reps.push_back(run_once(workers, /*shards=*/1));
      shard_reps.push_back(run_once(workers, kAutoShards));
    }
    base = metrics_of(std::move(base_reps));
    shard = metrics_of(std::move(shard_reps));
    pass = base.granules_ok && shard.granules_ok && shard.lpg < base.lpg &&
           shard.hold < base.hold && shard.util >= base.util;
  }

  Table t("T9 — single-shard (PR 3) baseline vs sharded executive");
  t.header({"workers", "mode", "shards", "granules", "ctl locks/g", "hold ns/g",
            "shard hits", "sweeps scat.", "rundown util", "wall ms"});
  for (const ModeMetrics* m : {&base, &shard}) {
    const rt::RtResult& r = m->mid.res;
    t.row({std::to_string(workers), m == &base ? "1-shard" : "sharded",
           std::to_string(r.metrics.at("shard.count")),
           Table::count(r.granules_executed), fixed(m->lpg, 4), fixed(m->hold, 1),
           Table::count(r.metrics.at("shard.hits")),
           Table::count(r.metrics.at("shard.scattered")), Table::pct(m->util, 1),
           fixed(static_cast<double>(r.wall.count()) / 1e6, 1)});
    const std::string config = "workers=" + std::to_string(workers) +
                               " batch=" + std::to_string(kBatch) +
                               " shards=" + std::to_string(r.metrics.at("shard.count"));
    json.add("t9_shard", "control_locks_per_granule", m->lpg, config);
    json.add("t9_shard", "lock_hold_ns_per_granule", m->hold, config);
    json.add("t9_shard", "rundown_utilization", m->util, config);
    json.add("t9_shard", "shard_hits",
             static_cast<double>(r.metrics.at("shard.hits")), config);
  }
  t.print(std::cout);

  // --- the same design in the discrete-event model ---------------------------
  {
    Table s("T9b — simulator: management lanes vs serial executive (32 workers)");
    s.header({"shards", "makespan", "exec ticks", "hottest lane", "utilization"});
    const TwoPhase tp = two_phase(4096, 4096, MappingKind::kIdentity);
    ExecConfig cfg;
    cfg.grain = 1;  // management-bound on purpose: every pop is a round-trip
    sim::Workload wl(7);
    sim::PhaseWorkload pw;
    pw.model = sim::DurationModel::kFixed;
    pw.mean = 120;
    wl.set_phase(0, pw);
    wl.set_phase(1, pw);
    for (std::uint32_t shards : {1u, 2u, 4u, 8u}) {
      sim::MachineConfig mc;
      mc.workers = 32;
      mc.record_intervals = false;
      mc.shards = shards;
      const sim::SimResult r = sim::simulate(tp.program, cfg, CostModel{}, wl, mc);
      const std::uint64_t hottest =
          *std::max_element(r.shard_exec_ticks.begin(), r.shard_exec_ticks.end());
      json.add("t9_shard", "sim_makespan", static_cast<double>(r.makespan),
               "sim shards=" + std::to_string(shards));
      s.row({std::to_string(shards), Table::count(r.makespan),
             Table::count(r.exec_ticks), Table::count(hottest),
             Table::pct(r.utilization(), 1)});
    }
    s.print(std::cout);
    std::printf(
        "\nwith more lanes the hottest lane's busy time — the serial bottleneck\n"
        "a worker can queue behind — shrinks, which is the simulator's\n"
        "rendering of the shard decontention the threaded table measures.\n");
  }

  // --- gate: warm acquire cost is O(taken), not O(buffer) ---------------------
  // The ring pop is O(taken); the ratio between a deep and a shallow ring
  // must stay flat.
  const double cost_shallow = warm_acquire_cost_ns(64);
  const double cost_deep = warm_acquire_cost_ns(4096);
  const double ratio = cost_shallow > 0.0 ? cost_deep / cost_shallow : 1e9;
  const bool flat = cost_shallow > 0.0 && ratio < 4.0;
  Table c("T9c — warm single-assignment acquire vs resident ring depth");
  c.header({"depth 64 ns", "depth 4096 ns", "ratio", "bound"});
  c.row({fixed(cost_shallow, 1), fixed(cost_deep, 1), fixed(ratio, 2), "< 4"});
  c.print(std::cout);
  json.add("t9_shard", "warm_acquire_ns_depth64", cost_shallow, "shards=2");
  json.add("t9_shard", "warm_acquire_ns_depth4096", cost_deep, "shards=2");

  std::printf(
      "\nacceptance at %u workers (medians of %d, up to %d attempts): control "
      "locks/granule %.4f vs baseline %.4f (need <), hold ns/granule %.1f vs "
      "%.1f (need <), rundown-window utilization %.1f%% vs %.1f%% (need >=): "
      "%s; acquire cost ratio %.2f (need < 4): %s\n",
      workers, kReps, kAttempts, shard.lpg, base.lpg, shard.hold, base.hold,
      100.0 * shard.util, 100.0 * base.util, pass ? "PASS" : "FAIL", ratio,
      flat ? "PASS" : "FAIL");
  return pass && flat ? 0 : 1;
}
