// bench_f4_reverse_map_cost — Experiment F4.
//
// The paper: "the impact of executive computation must be considered. In the
// PAX/CASPER UNIVAC 1100 test bed, executive computation was done at the
// direct expense of worker computation. Thus, extensive composite granule
// map generation could be self defeating. Some real parallel machines may
// provide separate executive computing resources, in which case the
// generation and use of composite granule maps would not be out of the
// question."
//
// Sweep of the reverse-map fan (requirements per successor granule, the
// paper's J) x executive placement x successor-subset size. Benefit turns
// negative as the map work grows on the worker-stealing testbed; a dedicated
// management processor and/or the subset device rescue it.
#include <iostream>

#include "bench_util.hpp"

int main() {
  using namespace pax;
  using namespace pax::bench;
  print_banner("F4 — composite-map cost vs benefit (reverse indirect)",
               "\"extensive composite granule map generation could be self "
               "defeating\" on a worker-stealing testbed; dedicated executive "
               "resources change the verdict");

  constexpr std::uint32_t kWorkers = 48;
  constexpr GranuleId kGranules = 1536;  // 8 tasks/proc at grain 4

  sim::PhaseWorkload pw;
  pw.model = sim::DurationModel::kUniform;
  pw.mean = 600;
  pw.spread = 300;

  Table t("F4 — overlap benefit vs reverse-map fan (J) and executive placement");
  t.header({"fan J", "placement", "subset", "barrier", "overlap", "benefit",
            "map entries", "exec busy"});

  for (std::uint32_t fan : {2u, 4u, 10u, 24u, 48u}) {
    for (ExecPlacement placement :
         {ExecPlacement::kWorkerStealing, ExecPlacement::kDedicated}) {
      for (GranuleId subset : {GranuleId{0}, GranuleId{64}}) {
        TwoPhase tp = two_phase(kGranules, kGranules,
                                MappingKind::kReverseIndirect, fan);
        sim::Workload wl(41);
        wl.set_phase(tp.a, pw);
        wl.set_phase(tp.b, pw);

        sim::MachineConfig mc;
        mc.workers = kWorkers;
        mc.record_intervals = false;

        ExecConfig barrier;
        barrier.overlap = false;
        barrier.grain = 4;
        barrier.placement = placement;
        ExecConfig overlap = barrier;
        overlap.overlap = true;
        overlap.indirect_subset = subset;

        const auto r_b = sim::simulate(tp.program, barrier, CostModel{}, wl, mc);
        const auto r_o = sim::simulate(tp.program, overlap, CostModel{}, wl, mc);
        const double benefit = 1.0 - static_cast<double>(r_o.makespan) /
                                         static_cast<double>(r_b.makespan);
        t.row({std::to_string(fan), to_string(placement),
               subset == 0 ? "all" : std::to_string(subset),
               Table::count(r_b.makespan), Table::count(r_o.makespan),
               Table::pct(benefit, 1),
               Table::count(r_o.ledger.count(MgmtOp::kMapBuildEntry)),
               Table::count(r_o.exec_ticks)});
      }
    }
    t.separator();
  }
  t.print(std::cout);
  std::printf(
      "\nNegative benefit = self-defeating overlap. The successor-subset device\n"
      "bounds the enablement problem; the dedicated placement takes map building\n"
      "off worker time, as the paper anticipates for machines with separate\n"
      "executive computing resources.\n");
  return 0;
}
