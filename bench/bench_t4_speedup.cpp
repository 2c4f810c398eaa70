// bench_t4_speedup — Experiment T4.
//
// End-to-end effect of phase overlap on the two workloads the paper is
// about: the synthetic CASPER pipeline (22 phases, all five mapping classes)
// and the checkerboard SOR solver, on the simulated multiprocessor; plus a
// real-thread run of each as a wall-clock sanity check.
#include <iostream>

#include "bench_util.hpp"
#include "casper/pipeline.hpp"
#include "casper/sor.hpp"
#include "runtime/threaded_runtime.hpp"

namespace {

pax::sim::SimResult run_casper(const pax::casper::CasperPipeline& pipe,
                               bool overlap, bool early_serial,
                               std::uint32_t workers) {
  pax::ExecConfig cfg;
  cfg.grain = 8;
  cfg.overlap = overlap;
  cfg.early_serial = early_serial;
  cfg.indirect_subset = 64;
  pax::sim::MachineConfig mc;
  mc.workers = workers;
  mc.record_intervals = false;
  return pax::sim::simulate(pipe.program, cfg, pax::CostModel{}, pipe.workload, mc);
}

}  // namespace

int main() {
  using namespace pax;
  using namespace pax::bench;
  print_banner("T4 — end-to-end speedup from phase overlap",
               "overlapping provides additional ready-to-compute work during "
               "each computational rundown, reducing elapsed wall-clock time");

  // --- CASPER pipeline on the simulator --------------------------------------
  {
    casper::CasperOptions opt;
    opt.iterations = 2;
    const casper::CasperPipeline pipe = casper::build_casper_pipeline(opt);
    Table t("T4a — synthetic CASPER pipeline (simulator, 2 iterations)");
    t.header({"workers", "barrier", "overlap", "overlap+early-serial",
              "speedup", "+early"});
    for (std::uint32_t workers : {16u, 32u, 64u, 96u}) {
      const auto r_b = run_casper(pipe, false, false, workers);
      const auto r_o = run_casper(pipe, true, false, workers);
      const auto r_e = run_casper(pipe, true, true, workers);
      t.row({std::to_string(workers), Table::count(r_b.makespan),
             Table::count(r_o.makespan), Table::count(r_e.makespan),
             fixed(static_cast<double>(r_b.makespan) /
                       static_cast<double>(r_o.makespan),
                   3) +
                 "x",
             fixed(static_cast<double>(r_b.makespan) /
                       static_cast<double>(r_e.makespan),
                   3) +
                 "x"});
    }
    t.print(std::cout);
    std::printf(
        "\n'+early' adds early execution of non-conflicting serial actions\n"
        "(the paper's extended-effort feature lifting overlappability >90%%).\n\n");
  }

  // --- SOR on the simulator ---------------------------------------------------
  {
    casper::Grid g(30, 30, 0.0);
    g.set_boundary(100.0, 0.0);
    casper::SorProgram sp = casper::build_sor_program(g, 1.4, 6);
    sim::Workload wl(5);
    sim::PhaseWorkload pw;
    pw.model = sim::DurationModel::kFixed;
    pw.mean = 200;
    wl.set_phase(0, pw);
    wl.set_phase(1, pw);

    Table t("T4b — checkerboard SOR 30x30, 6 sweeps (simulator, free mgmt)");
    t.header({"workers", "barrier", "overlap", "speedup", "barrier util",
              "overlap util"});
    for (std::uint32_t workers : {32u, 64u, 128u, 256u}) {
      sim::MachineConfig mc;
      mc.workers = workers;
      ExecConfig barrier;
      barrier.overlap = false;
      barrier.grain = 1;
      ExecConfig overlap = barrier;
      overlap.overlap = true;
      overlap.early_serial = true;
      const CostModel free = CostModel::free_of_charge();
      const auto r_b = sim::simulate(sp.program, barrier, free, wl, mc);
      const auto r_o = sim::simulate(sp.program, overlap, free, wl, mc);
      t.row({std::to_string(workers), Table::count(r_b.makespan),
             Table::count(r_o.makespan),
             fixed(static_cast<double>(r_b.makespan) /
                       static_cast<double>(r_o.makespan),
                   3) +
                 "x",
             Table::pct(r_b.utilization(), 1), Table::pct(r_o.utilization(), 1)});
    }
    t.print(std::cout);
  }

  // --- real threads (hardware-scale sanity check) -----------------------------
  {
    const auto hw = std::max(2u, std::min(8u, std::thread::hardware_concurrency()));
    casper::CasperOptions opt;
    opt.iterations = 1;
    const casper::CasperPipeline pipe = casper::build_casper_pipeline(opt);

    Table t("T4c — real std::jthread runs (wall clock)");
    t.header({"workload", "workers", "barrier ms", "overlap ms", "speedup"});

    {
      casper::CasperBodies b1 = casper::make_casper_bodies(pipe, 60);
      ExecConfig barrier;
      barrier.overlap = false;
      barrier.grain = 16;
      rt::ThreadedRuntime rt_b(pipe.program, barrier, CostModel{}, b1.bodies, {hw});
      const auto res_b = rt_b.run();

      casper::CasperBodies b2 = casper::make_casper_bodies(pipe, 60);
      ExecConfig overlap = barrier;
      overlap.overlap = true;
      overlap.early_serial = true;
      overlap.indirect_subset = 64;
      rt::ThreadedRuntime rt_o(pipe.program, overlap, CostModel{}, b2.bodies, {hw});
      const auto res_o = rt_o.run();

      t.row({"CASPER fine-grain (mgmt-bound)", std::to_string(hw),
             fixed(static_cast<double>(res_b.wall.count()) / 1e6, 1),
             fixed(static_cast<double>(res_o.wall.count()) / 1e6, 1),
             fixed(static_cast<double>(res_b.wall.count()) /
                       static_cast<double>(res_o.wall.count()),
                   3) +
                 "x"});
    }
    {
      // The checkerboard SOR body is ~5 flops per cell — far below this
      // host's thread-wake latency, so its wall clock is scheduler noise;
      // the bitwise-parity tests cover it instead. A second, heavier CASPER
      // configuration stands in as the second real-thread workload.
      casper::CasperBodies b1 = casper::make_casper_bodies(pipe, 160);
      ExecConfig barrier;
      barrier.overlap = false;
      barrier.grain = 32;
      rt::ThreadedRuntime rt_b(pipe.program, barrier, CostModel{}, b1.bodies, {hw});
      const auto res_b = rt_b.run();

      casper::CasperBodies b2 = casper::make_casper_bodies(pipe, 160);
      ExecConfig overlap = barrier;
      overlap.overlap = true;
      overlap.early_serial = true;
      overlap.indirect_subset = 64;
      rt::ThreadedRuntime rt_o(pipe.program, overlap, CostModel{}, b2.bodies, {hw});
      const auto res_o = rt_o.run();

      t.row({"CASPER coarse (compute-bound)", std::to_string(hw),
             fixed(static_cast<double>(res_b.wall.count()) / 1e6, 1),
             fixed(static_cast<double>(res_o.wall.count()) / 1e6, 1),
             fixed(static_cast<double>(res_b.wall.count()) /
                       static_cast<double>(res_o.wall.count()),
                   3) +
                 "x"});
    }
    t.print(std::cout);
    std::printf(
        "\nReal threads, %u workers. The fine-grain row deliberately sits below\n"
        "this host's synchronisation latency: overlap's extra management loses,\n"
        "the paper's computation:management worry made concrete. The coarse row\n"
        "amortises it and overlap wins. Scale studies live in the simulator\n"
        "sections above.\n",
        hw);
  }
  return 0;
}
