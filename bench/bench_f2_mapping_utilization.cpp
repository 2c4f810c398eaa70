// bench_f2_mapping_utilization — Experiment F2.
//
// For each enablement-mapping class, utilization in the rundown window of
// the first phase and end-to-end makespan, barrier vs overlap. Shows who
// can be kept busy during computational rundown, by mapping kind, plus the
// elevate-released ablation (design decision #4 in DESIGN.md).
#include <iostream>

#include "bench_util.hpp"

int main() {
  using namespace pax;
  using namespace pax::bench;
  print_banner("F2 — rundown utilization by enablement mapping",
               "overlapping keeps computing resources busy during each "
               "computational rundown (except null mappings)");

  constexpr std::uint32_t kWorkers = 64;
  constexpr GranuleId kGrain = 4;
  constexpr GranuleId kGranules = 768;  // 3 tasks/processor at grain 4
  sim::MachineConfig mc;
  mc.workers = kWorkers;

  sim::PhaseWorkload pw;
  pw.model = sim::DurationModel::kUniform;
  pw.mean = 2000;
  pw.spread = 1000;

  struct Case {
    const char* label;
    MappingKind kind;
    bool serial = false;
    bool conflicts = false;
  };
  const Case cases[] = {
      {"universal", MappingKind::kUniversal},
      {"identity", MappingKind::kIdentity},
      {"reverse-indirect", MappingKind::kReverseIndirect},
      {"forward-indirect", MappingKind::kForwardIndirect},
      {"null (serial between)", MappingKind::kIdentity, true, true},
  };

  Table t("F2 — phase-1 rundown-window utilization and makespan");
  t.header({"mapping", "barrier tail", "overlap tail", "barrier makespan",
            "overlap makespan", "speedup"});

  for (const Case& c : cases) {
    TwoPhase tp = two_phase(kGranules, kGranules, c.kind, /*fan=*/4,
                            /*stable=*/true, c.serial, c.conflicts);
    sim::Workload wl(17);
    wl.set_phase(tp.a, pw);
    wl.set_phase(tp.b, pw);

    ExecConfig barrier;
    barrier.overlap = false;
    barrier.grain = kGrain;
    ExecConfig overlap = barrier;
    overlap.overlap = true;

    const auto r_b = sim::simulate(tp.program, barrier, CostModel{}, wl, mc);
    const auto r_o = sim::simulate(tp.program, overlap, CostModel{}, wl, mc);
    t.row({c.label, Table::pct(rundown_utilization(r_b, tp.a), 1),
           Table::pct(rundown_utilization(r_o, tp.a), 1),
           Table::count(r_b.makespan), Table::count(r_o.makespan),
           fixed(static_cast<double>(r_b.makespan) /
                     static_cast<double>(r_o.makespan),
                 3) +
               "x"});
  }
  t.print(std::cout);

  // Ablation: elevating released successor work ahead of current work makes
  // the phases interleave and forfeits the tail fill.
  {
    TwoPhase tp = two_phase(kGranules, kGranules, MappingKind::kIdentity);
    sim::Workload wl(17);
    wl.set_phase(tp.a, pw);
    wl.set_phase(tp.b, pw);
    ExecConfig cfg;
    cfg.grain = kGrain;
    ExecConfig elev = cfg;
    elev.elevate_released = true;
    const auto r_n = sim::simulate(tp.program, cfg, CostModel{}, wl, mc);
    const auto r_e = sim::simulate(tp.program, elev, CostModel{}, wl, mc);
    Table a("ablation — priority of released successor work (identity)");
    a.header({"policy", "makespan", "phase-1 completion", "utilization"});
    a.row({"released -> normal queue (PAX)", Table::count(r_n.makespan),
           Table::count(r_n.phase_completion(tp.a)),
           Table::pct(r_n.utilization(), 1)});
    a.row({"released -> elevated", Table::count(r_e.makespan),
           Table::count(r_e.phase_completion(tp.a)),
           Table::pct(r_e.utilization(), 1)});
    std::cout << '\n';
    a.print(std::cout);
  }
  return 0;
}
