// bench_t8_steal — Experiment T8.
//
// PR 1 batched the executive handoff; this bench gates the next layer down:
// decentralized dispatch (DESIGN.md §8). Per-worker local run-queues let a
// worker over-refill beyond the retire batch, and rundown work stealing
// rebalances the surplus when the executive runs dry — so the serial
// executive is touched less per granule *and* the tail workers stay busy
// through the rundown window instead of sleeping on the executive mutex.
//
// Workload: a two-phase identity program whose granule cost ramps up with
// granule id, so the final refills hold the most expensive work — without
// stealing, whoever pulled the last fat batch grinds through it alone while
// every peer idles (the utilization collapse the paper opens with, recreated
// at the dispatch layer). Baseline is the PR 1 batch-16 protocol on the
// identical machinery (steal off, queue capacity = batch).
//
// Exit status: non-zero when, at the full worker count, the steal
// configuration fails to cut executive-lock acquisitions per granule below
// the batch-16 baseline, or fails to hold rundown-window utilization (the
// final 10% of granules) at >= the no-steal baseline, or granule counts
// drift (medians of 3 repetitions).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "runtime/threaded_runtime.hpp"

namespace {

using namespace pax;

constexpr GranuleId kN = 4096;       // granules per phase
constexpr std::uint64_t kTotal = 2ull * kN;
constexpr std::uint32_t kGrain = 32;
constexpr std::uint32_t kBatch = 16;

using pax::bench::RundownProbe;
using pax::bench::spin;

struct RunOut {
  rt::RtResult res;
  double rundown_util = 0.0;
};

RunOut run_once(std::uint32_t workers, bool steal) {
  PhaseProgram prog;
  const PhaseId a = prog.define_phase(make_phase("a", kN).writes("A"));
  const PhaseId b = prog.define_phase(make_phase("b", kN).reads("A").writes("B"));
  prog.dispatch(a, {EnableClause{"b", MappingKind::kIdentity, {}}});
  prog.dispatch(b);
  prog.halt();

  RundownProbe probe(kTotal);
  rt::BodyTable bodies;
  auto body = [&probe](GranuleRange r, WorkerId) {
    const auto t0 = std::chrono::steady_clock::now();
    for (GranuleId g = r.lo; g < r.hi; ++g)
      spin(1500 + static_cast<std::uint32_t>(g) * 2);  // cost ramps ~6x
    probe.on_body(t0, std::chrono::steady_clock::now(), r.size());
  };
  bodies.set(a, body);
  bodies.set(b, body);

  ExecConfig cfg;
  cfg.grain = kGrain;
  rt::RtConfig rc;
  rc.workers = workers;
  rc.batch = kBatch;
  rc.steal = steal;
  rc.adaptive_grain = steal;
  rc.shards = 1;  // single-lock protocol: this bench isolates the steal layer
  // steal off keeps the local queue at exactly batch: the plain batch-16
  // protocol.
  rt::ThreadedRuntime runtime(prog, cfg, CostModel::free_of_charge(), bodies, rc);
  RunOut out;
  out.res = runtime.run();
  out.rundown_util = probe.window_utilization(workers);
  return out;
}

double locks_per_granule(const rt::RtResult& r) {
  return static_cast<double>(bench::control_and_wait_locks(r)) /
         static_cast<double>(r.granules_executed);
}

/// Median of three repetitions by the given key.
template <typename Key>
const RunOut& median_by(std::vector<RunOut>& reps, Key key) {
  std::sort(reps.begin(), reps.end(),
            [&](const RunOut& x, const RunOut& y) { return key(x) < key(y); });
  return reps[reps.size() / 2];
}

}  // namespace

int main(int argc, char** argv) {
  using namespace pax;
  using namespace pax::bench;
  JsonReport json = JsonReport::from_args(argc, argv);
  print_banner("T8 — decentralized dispatch: local run-queues + rundown stealing",
               "pushing dispatch out of the serial executive into per-worker "
               "queues keeps tail workers busy through the rundown without "
               "extra executive round-trips");

  const auto hw = std::max(2u, std::min(16u, std::thread::hardware_concurrency()));
  constexpr int kReps = 3;

  Table t("T8 — PR 1 batch-16 baseline vs local queues + stealing");
  t.header({"workers", "mode", "granules", "locks/granule", "refill", "wait",
            "steals", "rundown util", "wall ms"});

  bool pass = true;
  double gate_lpg_base = 0.0, gate_lpg_steal = 0.0;
  double gate_util_base = 0.0, gate_util_steal = 0.0;

  std::vector<std::uint32_t> worker_counts{2u, hw};
  worker_counts.erase(std::unique(worker_counts.begin(), worker_counts.end()),
                      worker_counts.end());
  for (std::uint32_t workers : worker_counts) {
    for (bool steal : {false, true}) {
      std::vector<RunOut> reps;
      for (int i = 0; i < kReps; ++i) reps.push_back(run_once(workers, steal));
      // Granule drift fails the gate on EVERY repetition, not just the
      // median ones the metrics are read from.
      for (const RunOut& r : reps)
        if (r.res.granules_executed != kTotal) pass = false;
      // Medians: locks/granule is deterministic-ish, utilization is noisy.
      const double lpg =
          locks_per_granule(median_by(reps, [](const RunOut& r) {
                              return locks_per_granule(r.res);
                            }).res);
      const RunOut& mid =
          median_by(reps, [](const RunOut& r) { return r.rundown_util; });
      const double util = mid.rundown_util;

      if (workers == hw) {
        (steal ? gate_lpg_steal : gate_lpg_base) = lpg;
        (steal ? gate_util_steal : gate_util_base) = util;
      }
      const std::string config = "workers=" + std::to_string(workers) +
                                 " batch=" + std::to_string(kBatch) +
                                 (steal ? " steal=on" : " steal=off");
      json.add("t8_steal", "locks_per_granule", lpg, config);
      json.add("t8_steal", "rundown_utilization", util, config);
      const std::uint64_t steals = mid.res.metrics.at("worker.steals");
      json.add("t8_steal", "steals", static_cast<double>(steals), config);

      t.row({std::to_string(workers), steal ? "steal" : "batch16",
             Table::count(mid.res.granules_executed), fixed(lpg, 4),
             Table::count(mid.res.metrics.at("exec.control_acquisitions")),
             Table::count(mid.res.metrics.at("worker.wait_wakeups")),
             Table::count(steals), Table::pct(util, 1),
             fixed(static_cast<double>(mid.res.wall.count()) / 1e6, 1)});
    }
  }
  t.print(std::cout);

  // --- the same design in the discrete-event model ---------------------------
  {
    Table s("T8b — simulator: decentralized pop vs serial executive (64 workers)");
    s.header({"mode", "makespan", "steals", "steal ticks", "exec ticks",
              "utilization"});
    const TwoPhase tp = two_phase(4096, 4096, MappingKind::kIdentity);
    ExecConfig cfg;
    cfg.grain = 1;  // management-bound on purpose: every pop is a round-trip
    sim::Workload wl(7);
    sim::PhaseWorkload pw;
    pw.model = sim::DurationModel::kFixed;
    pw.mean = 120;
    wl.set_phase(0, pw);
    wl.set_phase(1, pw);
    for (bool steal : {false, true}) {
      sim::MachineConfig mc;
      mc.workers = 64;
      mc.record_intervals = false;
      mc.steal = steal;
      const sim::SimResult r = sim::simulate(tp.program, cfg, CostModel{}, wl, mc);
      json.add("t8_steal", "sim_makespan", static_cast<double>(r.makespan),
               steal ? "sim steal=on" : "sim steal=off");
      s.row({steal ? "steal" : "serial", Table::count(r.makespan),
             Table::count(r.steals), Table::count(r.steal_ticks),
             Table::count(r.exec_ticks), Table::pct(r.utilization(), 1)});
    }
    s.print(std::cout);
    std::printf(
        "\nwith stealing, a worker whose executive is contended pops its next\n"
        "assignment itself (a kSteal charge of worker time) instead of queueing\n"
        "on the serial executive — the simulator's rendering of the same\n"
        "decentralization the threaded table above measures.\n");
  }

  const bool lpg_ok = gate_lpg_steal < gate_lpg_base;
  const bool util_ok = gate_util_steal >= gate_util_base;
  if (!lpg_ok || !util_ok) pass = false;
  std::printf(
      "\nacceptance at %u workers (medians of %d): locks/granule %.4f vs "
      "baseline %.4f (need <), rundown-window utilization %.1f%% vs baseline "
      "%.1f%% (need >=): %s\n",
      hw, kReps, gate_lpg_steal, gate_lpg_base, 100.0 * gate_util_steal,
      100.0 * gate_util_base, pass ? "PASS" : "FAIL");
  return pass ? 0 : 1;
}
