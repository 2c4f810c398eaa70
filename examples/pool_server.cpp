// pool_server — the pool runtime as a multi-tenant serving substrate.
//
// A long-lived 4-worker pool receives a stream of mixed jobs, the way a
// parallel machine serves many independent programs: real CASPER pipelines,
// checkerboard SOR solves (cross-checked bitwise against the sequential
// solver), and synthetic tail-heavy loops, submitted with different
// priorities while earlier jobs are still running. One queued job is
// cancelled mid-stream. Per-job stats print as the jobs finish; pool totals
// (utilization, rotations, the per-job-sum cross-check, and the residency
// and preemption counters) print at shutdown. The SOR solves outrank the
// CASPER jobs, so when they arrive with every worker busy, a spare CASPER
// resident leaves at its next round boundary to start them.
#include <cstdio>
#include <cstring>
#include <iostream>
#include <memory>
#include <vector>

#include "casper/pipeline.hpp"
#include "casper/sor.hpp"
#include "common/table.hpp"
#include "obs/trace_export.hpp"
#include "obs/trace_ring.hpp"
#include "pool/pool_runtime.hpp"

int main(int argc, char** argv) {
  using namespace pax;
  using namespace pax::casper;

  // `--trace out.trace.json` records the whole job stream into per-worker
  // rings and exports a Chrome/Perfetto trace; each job gets its own
  // process lane (open at https://ui.perfetto.dev).
  //
  // Strict parse: the old `i + 1 < argc` loop skipped the *last* argument
  // entirely, so a trailing `--trace` (missing its value) and any unknown
  // flag were silently ignored — the run proceeded untraced and the user
  // only found out when the trace file never appeared.
  // `--inject-fault` adds a synthetic job whose body throws persistently on
  // one granule: the exception barrier contains the throw, the retry budget
  // exhausts, and the job lands in JobState::kFailed with its error summary
  // printed — while every other tenant completes untouched. A contained,
  // expected failure, so the demo still exits 0.
  const char* trace_path = nullptr;
  bool inject_fault = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--trace") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "pool_server: --trace requires a file path\n");
        std::fprintf(stderr,
                     "usage: %s [--trace out.trace.json] [--inject-fault]\n",
                     argv[0]);
        return 2;
      }
      trace_path = argv[++i];
    } else if (std::strcmp(argv[i], "--inject-fault") == 0) {
      inject_fault = true;
    } else {
      std::fprintf(stderr, "pool_server: unknown argument '%s'\n", argv[i]);
      std::fprintf(stderr,
                   "usage: %s [--trace out.trace.json] [--inject-fault]\n",
                   argv[0]);
      return 2;
    }
  }

  obs::TraceBuffer trace(4);
  pool::PoolRuntime pool({.workers = 4,
                          .batch = 4,
                          .policy = pool::SchedPolicy::kPriority,
                          .trace = trace_path != nullptr ? &trace : nullptr});

  struct Submitted {
    const char* kind;
    pool::JobHandle handle;
  };
  std::vector<Submitted> stream;

  ExecConfig cfg;
  cfg.grain = 8;
  cfg.early_serial = true;

  // --- two CASPER pipeline jobs (the paper's 22-phase workload) -----------
  const CasperPipeline pipe = build_casper_pipeline({});
  CasperBodies casper_a = make_casper_bodies(pipe, 60);
  CasperBodies casper_b = make_casper_bodies(pipe, 60);
  stream.push_back({"casper", pool.submit(pipe.program, casper_a.bodies, cfg,
                                          {.priority = 1})});
  stream.push_back({"casper", pool.submit(pipe.program, casper_b.bodies, cfg,
                                          {.priority = 0})});

  // --- two SOR solves, verified against the sequential solver -------------
  constexpr std::uint32_t kNx = 36, kNy = 36, kSweeps = 12;
  constexpr double kOmega = 1.5;
  auto fresh = [&] {
    Grid g(kNx, kNy, 0.0);
    g.set_boundary(/*hot=*/100.0, /*cold=*/0.0);
    return g;
  };
  Grid reference = fresh();
  solve_sequential(reference, kOmega, kSweeps);

  // unique_ptr elements: submitted programs must keep stable addresses while
  // the vectors grow (jobs hold references until they complete).
  std::vector<std::unique_ptr<Grid>> sor_grids;
  std::vector<std::unique_ptr<SorProgram>> sor_programs;
  ExecConfig sor_cfg;
  sor_cfg.early_serial = true;
  sor_cfg.grain = 64;
  sor_cfg.indirect_subset = 128;
  for (int i = 0; i < 2; ++i) {
    sor_grids.push_back(std::make_unique<Grid>(fresh()));
    sor_programs.push_back(std::make_unique<SorProgram>(
        build_sor_program(*sor_grids.back(), kOmega, kSweeps)));
    stream.push_back({"sor", pool.submit(sor_programs.back()->program,
                                         sor_programs.back()->bodies, sor_cfg,
                                         {.priority = 2})});
  }

  // --- a synthetic job submitted and cancelled before it opens ------------
  PhaseProgram doomed;
  const PhaseId doomed_phase = doomed.define_phase(make_phase("doomed", 64).writes("D"));
  doomed.dispatch(doomed_phase);
  doomed.halt();
  rt::BodyTable doomed_bodies;
  doomed_bodies.set(doomed_phase, [](GranuleRange, WorkerId) {});
  pool::JobHandle cancelled =
      pool.submit(doomed, doomed_bodies, cfg, {.priority = -5});
  // The cancel races worker adoption by design; a rotating worker may open
  // the job first, in which case it legitimately runs to completion.
  const bool cancel_won = cancelled.cancel();

  // --- optionally, a tenant with a persistent bug (--inject-fault) ---------
  PhaseProgram buggy;
  const PhaseId buggy_phase =
      buggy.define_phase(make_phase("buggy", 48).writes("F"));
  buggy.dispatch(buggy_phase);
  buggy.halt();
  rt::BodyTable buggy_bodies;
  buggy_bodies.set(buggy_phase, [](GranuleRange r, WorkerId) {
    for (GranuleId g = r.lo; g < r.hi; ++g)
      if (g == 17) throw std::runtime_error("demo: granule 17 always throws");
  });
  pool::JobHandle faulty;
  if (inject_fault) {
    ExecConfig buggy_cfg;
    buggy_cfg.grain = 4;
    buggy_cfg.max_granule_retries = 2;
    faulty = pool.submit(buggy, buggy_bodies, buggy_cfg, {.priority = 1});
  }

  // --- wait for the stream and report as jobs land -------------------------
  Table t("pool_server — job stream");
  t.header({"job", "kind", "state", "granules", "busy ms", "queued ms",
            "span ms"});
  auto row = [&t](std::uint64_t id, const char* kind, pool::JobHandle& h) {
    const pool::JobStats js = h.stats();
    t.row({std::to_string(id), kind, to_string(h.state()),
           Table::count(js.granules),
           Table::num(static_cast<double>(js.busy.count()) / 1e6, 2),
           Table::num(static_cast<double>(js.queued.count()) / 1e6, 2),
           Table::num(static_cast<double>(js.span.count()) / 1e6, 2)});
  };

  bool ok = true;
  for (auto& s : stream) ok &= s.handle.wait() == pool::JobState::kComplete;
  // The buggy tenant is EXPECTED to fail — contained by the barrier, retried
  // to budget, then degraded to kFailed with its siblings unharmed.
  if (faulty.valid()) ok &= faulty.wait() == pool::JobState::kFailed;
  pool.shutdown();

  for (auto& s : stream) row(s.handle.id(), s.kind, s.handle);
  row(cancelled.id(), "synthetic", cancelled);
  if (faulty.valid()) row(faulty.id(), "buggy", faulty);
  t.print(std::cout);

  if (faulty.valid()) {
    const pool::JobStats js = faulty.stats();
    std::printf(
        "job %llu failed (contained): %s — %llu faults, %llu retries, %llu "
        "granules poisoned; other tenants unaffected\n",
        static_cast<unsigned long long>(faulty.id()), js.fault_summary.c_str(),
        static_cast<unsigned long long>(js.granule_faults),
        static_cast<unsigned long long>(js.granule_retries),
        static_cast<unsigned long long>(js.granules_poisoned));
  }

  // SOR grids must match the sequential solver bitwise.
  for (const auto& g : sor_grids)
    ok &= Grid::identical(*g, reference);
  std::printf("sor grids vs sequential solver: %s\n",
              ok ? "BITWISE IDENTICAL" : "DIFFER");
  ok &= cancelled.state() == (cancel_won ? pool::JobState::kCancelled
                                         : pool::JobState::kComplete);

  const pool::PoolStats ps = pool.stats();
  auto m = [&ps](const char* name) {
    return static_cast<unsigned long long>(ps.metrics.at(name));
  };
  // A pre-open cancel contributes 0; a mid-run cancel contributes the
  // granules it actually executed before draining — either way the per-job
  // sum matches the pool total.
  std::uint64_t job_sum = cancelled.stats().granules;
  if (faulty.valid()) job_sum += faulty.stats().granules;
  for (auto& s : stream) job_sum += s.handle.stats().granules;
  std::printf(
      "pool: %llu jobs (%llu cancelled), %llu granules (per-job sum %llu), "
      "%llu rotations, utilization %.1f%%\n",
      m("pool.jobs_submitted"), m("pool.jobs_cancelled"), m("worker.granules"),
      static_cast<unsigned long long>(job_sum), m("worker.rotations"),
      100.0 * ps.utilization());
  // Residency and preemption rules (DESIGN.md §7): jobs capped at one
  // resident, residents shed by a cap, and spares that left at a round
  // boundary to answer a higher-priority arrival.
  std::printf("pool: %llu jobs capped, %llu cap leaves, %llu preempt leaves\n",
              m("pool.jobs_capped"), m("pool.cap_leaves"), m("pool.preempt_leaves"));
  ok &= job_sum == m("worker.granules");
  if (trace_path != nullptr) {
    obs::write_chrome_trace(trace, trace_path);
    std::printf("trace: %s (%llu records, %llu dropped)\n", trace_path,
                static_cast<unsigned long long>(trace.total_emitted()),
                static_cast<unsigned long long>(trace.total_dropped()));
  }
  return ok ? 0 : 1;
}
