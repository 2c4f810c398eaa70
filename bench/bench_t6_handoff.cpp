// bench_t6_handoff — Experiment T6.
//
// The executive is a serial resource; on the threaded runtime every worker
// interaction with it is a mutex round-trip. This bench measures how batched
// work handoff (RtConfig::batch) amortises that cost: executive lock
// acquisitions per granule and worker utilization, for batch sizes {1, 4,
// 16}, across worker counts. Végh et al.'s scaling figure-of-merit motivates
// reporting utilization as worker count grows; Acar/Charguéraud/Rainey call
// the per-task scheduling cost this batch amortises "work inflation".
//
// Exit status: non-zero when batch=16 fails to cut lock acquisitions per
// granule by at least 2x against batch=1, or when granule counts differ
// (the acceptance gate for the batched-handoff change).
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <thread>

#include "bench_util.hpp"
#include "runtime/threaded_runtime.hpp"

namespace {

using namespace pax;

/// Three-phase identity pipeline looped `iters` times — the RtStress shape,
/// with a small spin per granule so bodies dominate neither totally nor not
/// at all (the handoff cost must be visible but the run must still finish in
/// benchmark time).
PhaseProgram make_loop_program(GranuleId n, int iters) {
  PhaseProgram prog;
  PhaseId a = prog.define_phase(make_phase("a", n).writes("A"));
  PhaseId b = prog.define_phase(make_phase("b", n).reads("A").writes("B"));
  PhaseId c = prog.define_phase(make_phase("c", n).reads("B").writes("C"));
  prog.serial("init", [](ProgramEnv& env) { env.set("i", 0); }, 0, false);
  const std::uint32_t top =
      prog.dispatch(a, {EnableClause{"b", MappingKind::kIdentity, {}}});
  prog.dispatch(b, {EnableClause{"c", MappingKind::kIdentity, {}}});
  prog.dispatch(c);
  prog.serial("inc", [](ProgramEnv& env) { env.add("i", 1); }, 0, false);
  prog.branch("loop",
              [iters](const ProgramEnv& env) {
                return env.get("i") < iters ? std::size_t{0} : std::size_t{1};
              },
              {top, static_cast<std::uint32_t>(prog.size() + 1)}, true);
  prog.halt();
  return prog;
}

rt::RtResult run_once(const PhaseProgram& prog, std::uint32_t workers,
                      std::uint32_t batch, std::atomic<std::uint64_t>& sink) {
  rt::BodyTable bodies;
  auto body = [&sink](GranuleRange r, WorkerId) {
    std::uint64_t acc = 0;
    for (GranuleId g = r.lo; g < r.hi; ++g)
      for (int i = 0; i < 400; ++i) acc += static_cast<std::uint64_t>(i) * g;
    sink.fetch_add(acc, std::memory_order_relaxed);
  };
  for (PhaseId p = 0; p < 3; ++p) bodies.set(p, body);
  ExecConfig cfg;
  cfg.grain = 4;
  cfg.early_serial = true;
  // Rundown stealing runs at every batch size, so the rows differ in batch
  // alone.
  rt::RtConfig rc;
  rc.workers = workers;
  rc.batch = batch;
  rc.shards = 1;  // single-lock protocol: this bench isolates batching alone
  rt::ThreadedRuntime runtime(prog, cfg, CostModel::free_of_charge(), bodies, rc);
  return runtime.run();
}

double locks_per_granule(const rt::RtResult& r) {
  return static_cast<double>(bench::control_and_wait_locks(r)) /
         static_cast<double>(r.granules_executed);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace pax;
  using namespace pax::bench;
  JsonReport json = JsonReport::from_args(argc, argv);
  print_banner("T6 — batched executive work handoff",
               "retiring and pulling several task descriptors per executive "
               "critical section amortises the serial-executive lock over the "
               "rundown without changing what executes");

  const GranuleId n = 2048;
  const int iters = 4;
  const PhaseProgram prog = make_loop_program(n, iters);
  std::atomic<std::uint64_t> sink{0};

  const auto hw = std::max(2u, std::min(16u, std::thread::hardware_concurrency()));
  bool pass = true;
  double gate_ratio = 0.0;

  Table t("T6 — lock round-trips and utilization vs batch size");
  t.header({"workers", "batch", "granules", "locks", "locks/granule",
            "utilization", "wall ms"});
  std::vector<std::uint32_t> worker_counts{2u, hw / 2, hw};
  std::sort(worker_counts.begin(), worker_counts.end());
  worker_counts.erase(std::unique(worker_counts.begin(), worker_counts.end()),
                      worker_counts.end());
  for (std::uint32_t workers : worker_counts) {
    if (workers == 0) continue;
    double base_lpg = 0.0;
    std::uint64_t base_granules = 0;
    for (std::uint32_t batch : {1u, 4u, 16u}) {
      const rt::RtResult r = run_once(prog, workers, batch, sink);
      const double lpg = locks_per_granule(r);
      if (batch == 1) {
        base_lpg = lpg;
        base_granules = r.granules_executed;
      }
      if (batch == 16) {
        const double ratio = base_lpg / lpg;
        if (workers == hw) gate_ratio = ratio;
        if (ratio < 2.0 || r.granules_executed != base_granules) pass = false;
      }
      const std::string config =
          "workers=" + std::to_string(workers) + " batch=" + std::to_string(batch);
      json.add("t6_handoff", "locks_per_granule", lpg, config);
      json.add("t6_handoff", "utilization", r.utilization(), config);
      t.row({std::to_string(workers), std::to_string(batch),
             Table::count(r.granules_executed),
             Table::count(control_and_wait_locks(r)), fixed(lpg, 4),
             Table::pct(r.utilization(), 1),
             fixed(static_cast<double>(r.wall.count()) / 1e6, 1)});
    }
  }
  t.print(std::cout);

  std::printf(
      "\nbatch=1 is the classic one-descriptor-per-critical-section protocol;\n"
      "each worker then pays ~1/grain lock round-trips per granule. batch=16\n"
      "retires and refills 16 descriptors per round-trip, so the executive\n"
      "mutex stops being the rundown's serial bottleneck. Granule counts are\n"
      "identical across batch sizes: batching changes handoff, not work.\n\n");
  std::printf("acceptance: batch16 lock reduction at %u workers = %.1fx "
              "(need >= 2x, identical granules): %s\n",
              hw, gate_ratio, pass ? "PASS" : "FAIL");
  return pass ? 0 : 1;
}
