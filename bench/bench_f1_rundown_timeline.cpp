// bench_f1_rundown_timeline — Experiment F1.
//
// The paper's introduction example, at full scale: "consider the situation
// when the potential grid is 1024 points on a side (2**20 grid points) and
// 1000 processors are available. Each computational phase will provide
// 524,288 individual computations, or 524 computations for each of the 1000
// processors; however, 288 computations will be left over ... This will
// leave 712 processors with nothing to do while the final 288 computations
// are carried out."
//
// We simulate two 524,288-granule phases on 1000 processors with unit-time
// computations and free management (the example is idealized), and measure
// how many processors are busy during the final round — then show the same
// run with identity overlap, where the tail fills with next-phase work.
#include <cstdio>
#include <iostream>

#include "bench_util.hpp"

int main() {
  using namespace pax;
  using namespace pax::bench;
  print_banner("F1 — checkerboard rundown at 1024^2 / 1000 processors",
               "524 computations per processor, 288 left over, 712 processors "
               "idle during the tail");

  constexpr GranuleId kGranules = 524288;  // 2**20 / 2
  constexpr std::uint32_t kWorkers = 1000;
  constexpr SimTime kTaskTicks = 100;

  TwoPhase tp = two_phase(kGranules, kGranules, MappingKind::kIdentity);
  sim::Workload wl(1);
  sim::PhaseWorkload pw;
  pw.model = sim::DurationModel::kFixed;
  pw.mean = static_cast<double>(kTaskTicks);
  wl.set_phase(tp.a, pw);
  wl.set_phase(tp.b, pw);

  sim::MachineConfig mc;
  mc.workers = kWorkers;
  mc.record_intervals = true;

  ExecConfig barrier;
  barrier.overlap = false;
  barrier.grain = 1;
  ExecConfig overlap = barrier;
  overlap.overlap = true;

  const CostModel free = CostModel::free_of_charge();
  const auto r_b = sim::simulate(tp.program, barrier, free, wl, mc);
  const auto r_o = sim::simulate(tp.program, overlap, free, wl, mc);

  // Busy processors during the final round of phase 1 (barrier).
  const SimTime p1_done = r_b.phase_completion(tp.a);
  const double tail_busy = r_b.busy_workers_in(p1_done - kTaskTicks, p1_done);
  const double tail_idle = kWorkers - tail_busy;

  const SimTime p1_done_o = r_o.phase_completion(tp.a);
  const double tail_busy_o = r_o.busy_workers_in(p1_done_o - kTaskTicks, p1_done_o);

  Table t("F1 — rundown tail (last task round of phase 1)");
  t.header({"quantity", "paper", "barrier run", "overlap run"});
  t.row({"computations per phase", Table::count(524288), Table::count(kGranules),
         Table::count(kGranules)});
  t.row({"full rounds per processor", "524", "524", "-"});
  t.row({"computations left over", "288", "288", "-"});
  t.row({"busy processors in tail", "288", fixed(tail_busy, 1),
         fixed(tail_busy_o, 1)});
  t.row({"idle processors in tail", "712", fixed(tail_idle, 1),
         fixed(kWorkers - tail_busy_o, 1)});
  t.row({"makespan (ticks)", "-", Table::count(r_b.makespan),
         Table::count(r_o.makespan)});
  t.row({"overall utilization", "-", Table::pct(r_b.utilization(), 2),
         Table::pct(r_o.utilization(), 2)});
  t.print(std::cout);

  // Utilization timelines (60 buckets) — the figure, as sparklines + rows.
  const auto tb = r_b.timeline(60);
  const auto to = r_o.timeline(60);
  std::printf("\nutilization timeline (60 buckets over each makespan):\n");
  auto spark = [](const std::vector<double>& v) {
    static const char* bars[] = {" ", "▁", "▂", "▃", "▄", "▅", "▆", "▇", "█"};
    std::string s;
    for (double x : v) {
      int level = static_cast<int>(x * 8.0 + 0.5);
      if (level < 0) level = 0;
      if (level > 8) level = 8;
      s += bars[level];
    }
    return s;
  };
  std::printf("  barrier  |%s|\n", spark(tb).c_str());
  std::printf("  overlap  |%s|\n", spark(to).c_str());
  std::printf("\nThe barrier timeline dips to %.1f%% at each phase boundary; the\n"
              "overlap timeline holds near 100%% until the final joint rundown.\n",
              100.0 * tb[29]);
  return 0;
}
