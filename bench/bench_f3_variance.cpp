// bench_f3_variance — Experiment F3.
//
// The paper motivates dynamic overlap with CASPER's behaviour: computations
// "could not even be ascribed with definite execution times" and sometimes
// "whether or not the computation was even to be carried out ... was a
// conditional part of the algorithm". The more uncertain the task times,
// the longer the straggler tail of each phase — and the more overlap buys.
#include <iostream>

#include "bench_util.hpp"
#include "common/stats.hpp"

int main() {
  using namespace pax;
  using namespace pax::bench;
  print_banner("F3 — overlap benefit vs execution-time uncertainty",
               "unpredictable/conditional task times make rundown worse and "
               "dynamic overlap more valuable");

  constexpr std::uint32_t kWorkers = 64;
  constexpr GranuleId kGranules = 512;  // 2 tasks/processor at grain 4

  struct Case {
    const char* label;
    sim::PhaseWorkload w;
  };
  std::vector<Case> cases;
  {
    sim::PhaseWorkload w;
    w.model = sim::DurationModel::kFixed;
    w.mean = 400;
    cases.push_back({"fixed (checkerboard-like)", w});
    w.model = sim::DurationModel::kUniform;
    w.spread = 100;
    cases.push_back({"uniform +/-25%", w});
    w.spread = 300;
    cases.push_back({"uniform +/-75%", w});
    w.model = sim::DurationModel::kExponential;
    w.spread = 0;
    cases.push_back({"exponential (indefinite)", w});
    w.model = sim::DurationModel::kBimodal;
    w.spread = 3600;  // 10% of tasks take 10x
    w.bimodal_p = 0.1;
    cases.push_back({"bimodal 10% x10", w});
    w.model = sim::DurationModel::kFixed;
    w.spread = 0;
    w.skip_probability = 0.4;
    cases.push_back({"conditional (40% skipped)", w});
  }

  Table t("F3 — identity two-phase, barrier vs overlap");
  t.header({"duration model", "cv", "barrier", "overlap", "benefit",
            "barrier tail util", "overlap tail util"});
  for (const Case& c : cases) {
    TwoPhase tp = two_phase(kGranules, kGranules, MappingKind::kIdentity);
    sim::Workload wl(31);
    wl.set_phase(tp.a, c.w);
    wl.set_phase(tp.b, c.w);

    // Coefficient of variation of the granule durations, measured.
    Accumulator acc;
    for (GranuleId g = 0; g < kGranules; ++g)
      acc.add(static_cast<double>(wl.granule_duration(tp.a, g)));

    sim::MachineConfig mc;
    mc.workers = kWorkers;

    ExecConfig barrier;
    barrier.overlap = false;
    barrier.grain = 4;
    ExecConfig overlap = barrier;
    overlap.overlap = true;

    const auto r_b = sim::simulate(tp.program, barrier, CostModel{}, wl, mc);
    const auto r_o = sim::simulate(tp.program, overlap, CostModel{}, wl, mc);
    t.row({c.label, fixed(acc.stddev() / acc.mean(), 2),
           Table::count(r_b.makespan), Table::count(r_o.makespan),
           Table::pct(1.0 - static_cast<double>(r_o.makespan) /
                                static_cast<double>(r_b.makespan),
                      1),
           Table::pct(rundown_utilization(r_b, tp.a), 1),
           Table::pct(rundown_utilization(r_o, tp.a), 1)});
  }
  t.print(std::cout);
  return 0;
}
