// bench_t14_fault — Experiment T14.
//
// Fault containment under load (DESIGN.md §15): the exception barrier, the
// executive's retry/poison machinery and the pool's kFailed degradation are
// only worth shipping if they are (a) free when nothing faults and (b) cheap
// when something does. This bench runs the shared T9 protocol workload
// (4096-granule identity-chained phases, grain 32, batch 16 — the same
// program bench_t9/t10 gate on) as a stream of pool jobs and gates:
//
//   1. goodput with 1% seeded transient faults (each chosen granule throws
//      once, then succeeds on retry) stays >= 0.9x the fault-free run — the
//      containment machinery costs overlap, not collapse;
//   2. the fault-free warm path stays at the t10 allocation bar: the barrier
//      (try/catch + per-worker fault buffers + watchdog sequence cells) must
//      not put heap traffic or measurable cost back into the handout loop;
//   3. every injected fault is accounted: faults == injected throws,
//      retries == faults, zero poisoned granules, zero failed jobs, zero
//      process aborts — and the retry work-inflation is reported (busy-time
//      ratio of the faulty arm over the clean arm).
//
// --json emits BENCH_t14.json. --check runs a reduced accounting sweep (plus
// a poison case driving one job to kFailed) and exits 0/1; the TSAN CI job
// runs this mode.
#define PAX_ALLOC_STATS_IMPLEMENT
#include "common/alloc_stats.hpp"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "pool/pool_runtime.hpp"

namespace {

using namespace pax;
using namespace pax::bench;
using Clock = std::chrono::steady_clock;
using std::chrono::nanoseconds;

constexpr std::uint32_t kWorkers = 4;
constexpr std::uint32_t kPhases = 2;

/// Seeded per-job transient-fault plan over the T9 program's 2 x 4096
/// granules: each selected granule throws on its first attempt and succeeds
/// on the retry (CAS-decremented budget, so exactly one throw per site
/// regardless of which worker retries it).
struct FaultPlan {
  std::vector<std::atomic<std::uint32_t>> budget;
  std::atomic<std::uint64_t> injected{0};
  std::uint64_t planned = 0;

  FaultPlan(std::uint64_t seed, std::uint32_t permille)
      : budget(kPhases * kT9Granules) {
    for (std::size_t i = 0; i < budget.size(); ++i) {
      std::uint64_t s = seed ^ (0x9E3779B97F4A7C15ULL * (i + 1));
      const bool hit = permille > 0 && splitmix64(s) % 1000 < permille;
      budget[i].store(hit ? 1 : 0, std::memory_order_relaxed);
      planned += hit ? 1 : 0;
    }
  }

  bool should_throw(std::uint32_t phase, GranuleId g) {
    auto& cell = budget[phase * kT9Granules + g];
    std::uint32_t cur = cell.load(std::memory_order_relaxed);
    while (cur > 0) {
      if (cell.compare_exchange_weak(cur, cur - 1, std::memory_order_relaxed)) {
        injected.fetch_add(1, std::memory_order_relaxed);
        return true;
      }
    }
    return false;
  }
};

struct T14Job {
  PhaseProgram prog;
  rt::BodyTable bodies;
};

/// A T9-shaped two-phase identity program (`n` = kT9Granules is the shared
/// protocol; the alloc probe scales `n` to difference out per-job setup)
/// with the fault check layered in front of the work. The check walks the
/// whole range BEFORE any spin — validate-then-work, the same discipline as
/// the test harness — so a faulted attempt aborts before it buys anything
/// and the retry's re-execution is pure recovery, not duplicated prefix
/// work. `plan` null = the fault-free arm: the check is one untaken branch,
/// both arms run the same body code. `t9_cost` selects the protocol's ~6x
/// ramped granule cost; the alloc probe runs flat and cheap instead.
T14Job build_job(FaultPlan* plan, GranuleId n, bool t9_cost) {
  T14Job j;
  const PhaseId a = j.prog.define_phase(make_phase("a", n).writes("A"));
  const PhaseId b =
      j.prog.define_phase(make_phase("b", n).reads("A").writes("B"));
  j.prog.dispatch(a, {EnableClause{"b", MappingKind::kIdentity, {}}});
  j.prog.dispatch(b);
  j.prog.halt();

  auto body_of = [plan, t9_cost](std::uint32_t phase) {
    return [plan, t9_cost, phase](GranuleRange r, WorkerId) {
      if (plan != nullptr)
        for (GranuleId g = r.lo; g < r.hi; ++g)
          if (plan->should_throw(phase, g))
            throw std::runtime_error("t14 injected fault");
      for (GranuleId g = r.lo; g < r.hi; ++g)
        spin(t9_cost ? 1500 + static_cast<std::uint32_t>(g) * 2 : 200);
    };
  };
  j.bodies.set(a, body_of(0));
  j.bodies.set(b, body_of(1));
  return j;
}

ExecConfig exec_config() {
  ExecConfig cfg;
  cfg.grain = kT9Grain;
  // Attempt counts bump range-wide per fault, so colocated fail-once sites
  // in one grain-sized range compound; a budget past the grain means a
  // transient plan can never poison (<= kT9Grain sites per range).
  cfg.max_granule_retries = 2 * kT9Grain;
  return cfg;
}

pool::PoolConfig pool_config() {
  pool::PoolConfig pc;
  pc.workers = kWorkers;
  pc.batch = kT9Batch;
  return pc;
}

struct ArmResult {
  double elapsed_s = 0.0;
  std::uint64_t granules = 0;
  std::uint64_t injected = 0;
  std::uint64_t faults = 0;
  std::uint64_t retries = 0;
  std::uint64_t poisoned = 0;
  nanoseconds busy{0};
  double goodput = 0.0;  ///< granules per second through the pool
  double warm_allocs_per_granule = 0.0;
  bool ok = true;
};

/// One arm: `n_jobs` T9-protocol jobs streamed through a fresh pool, with
/// `fault_permille`/1000 of the granules throwing once. The alloc window
/// opens after a warm-up job, so one-time costs (worker startup, first-touch
/// queue/ring reserves, per-job program machinery already measured by t13)
/// do not pollute the no-fault-barrier gate.
ArmResult run_arm(std::size_t n_jobs, std::uint32_t fault_permille,
                  std::uint64_t seed) {
  ArmResult r;
  pool::PoolRuntime pool(pool_config());

  {
    T14Job warm = build_job(nullptr, kT9Granules, /*t9_cost=*/true);
    pool.submit(warm.prog, warm.bodies, exec_config()).wait();
  }
  const AllocTotals proc0 = alloc_stats::totals();
  const AllocTotals gen0 = alloc_stats::thread_totals();

  std::vector<std::unique_ptr<FaultPlan>> plans;
  std::vector<std::unique_ptr<T14Job>> jobs;  // stable addresses for borrow
  std::vector<pool::JobHandle> handles;
  for (std::size_t i = 0; i < n_jobs; ++i) {
    FaultPlan* plan = nullptr;
    if (fault_permille > 0) {
      plans.push_back(std::make_unique<FaultPlan>(seed + i, fault_permille));
      plan = plans.back().get();
    }
    jobs.push_back(
        std::make_unique<T14Job>(build_job(plan, kT9Granules, /*t9_cost=*/true)));
  }
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < n_jobs; ++i)
    handles.push_back(pool.submit(jobs[i]->prog, jobs[i]->bodies, exec_config()));
  pool.drain();
  r.elapsed_s =
      static_cast<double>((Clock::now() - t0).count()) / 1e9;
  pool.shutdown();
  const AllocTotals proc1 = alloc_stats::totals();
  const AllocTotals gen1 = alloc_stats::thread_totals();

  for (std::size_t i = 0; i < n_jobs; ++i) {
    if (handles[i].state() != pool::JobState::kComplete) r.ok = false;
    const pool::JobStats js = handles[i].stats();
    r.granules += js.granules;
    r.faults += js.granule_faults;
    r.retries += js.granule_retries;
    r.poisoned += js.granules_poisoned;
    r.busy += js.busy;
    if (js.granules != kT9Total) r.ok = false;
  }
  for (const auto& p : plans) r.injected += p->injected.load();
  // Every fault accounted: the barrier counted exactly the injected throws,
  // each one retried, none poisoned.
  if (r.faults != r.injected || r.retries != r.injected || r.poisoned != 0)
    r.ok = false;
  const std::uint64_t worker_allocs =
      (proc1.allocs - proc0.allocs) - (gen1.allocs - gen0.allocs);
  if (r.granules > 0)
    r.warm_allocs_per_granule =
        static_cast<double>(worker_allocs) / static_cast<double>(r.granules);
  r.goodput = static_cast<double>(r.granules) / r.elapsed_s;
  return r;
}

/// The t10 warm-allocation bar with the barrier in place. Gross worker-plane
/// allocs/granule of a job stream include each job's one-time open cost
/// (executive start, buffer growth, program machinery) — bench_t13 measured
/// that; what T14 must pin is that the *handout + barrier* path allocates
/// nothing new. Same differencing trick as t13: run the same job count at
/// two granule counts (both past buffer-growth saturation) and divide the
/// alloc delta by the granule delta — per-job setup cancels, leaving the
/// marginal warm path: carve -> ring -> local queue -> try/catch body ->
/// exec-cell stamps -> retire.
double marginal_warm_allocs(std::size_t n_jobs, GranuleId n_small,
                            GranuleId n_large) {
  auto worker_allocs = [&](GranuleId n, std::uint64_t* granules) {
    const T14Job j = build_job(nullptr, n, /*t9_cost=*/false);
    pool::PoolRuntime pool(pool_config());
    {
      std::vector<pool::JobHandle> warm;
      for (int i = 0; i < 4; ++i)
        warm.push_back(pool.submit(j.prog, j.bodies, exec_config()));
      pool.drain();
    }
    const AllocTotals proc0 = alloc_stats::totals();
    const AllocTotals gen0 = alloc_stats::thread_totals();
    std::vector<pool::JobHandle> handles;
    handles.reserve(n_jobs);
    for (std::size_t i = 0; i < n_jobs; ++i)
      handles.push_back(pool.submit(j.prog, j.bodies, exec_config()));
    pool.drain();
    pool.shutdown();
    const AllocTotals proc1 = alloc_stats::totals();
    const AllocTotals gen1 = alloc_stats::thread_totals();
    *granules = 2ull * n * n_jobs;
    return (proc1.allocs - proc0.allocs) - (gen1.allocs - gen0.allocs);
  };
  std::uint64_t g_small = 0, g_large = 0;
  const std::uint64_t a_small = worker_allocs(n_small, &g_small);
  const std::uint64_t a_large = worker_allocs(n_large, &g_large);
  if (a_large <= a_small) return 0.0;  // per-job noise outweighed the delta
  return static_cast<double>(a_large - a_small) /
         static_cast<double>(g_large - g_small);
}

// --- --check: reduced accounting sweep for the TSAN CI job -----------------

bool check_mode() {
  bool ok = true;
  auto fail = [&](const char* what) {
    std::fprintf(stderr, "check: %s\n", what);
    ok = false;
  };
  // Transient arm: 1% faults across two concurrent jobs, all must complete
  // with exact accounting.
  const ArmResult r = run_arm(/*n_jobs=*/2, /*fault_permille=*/10,
                              /*seed=*/0x7140BEEFULL);
  if (!r.ok) fail("transient arm: completion or accounting drift");
  if (r.injected == 0) fail("transient arm: plan injected nothing");

  // Poison arm: one granule throws forever under a retry budget of 1 — the
  // job must land in kFailed with the fault recorded, while a clean sibling
  // sharing the pool completes untouched.
  pool::PoolRuntime pool(pool_config());
  FaultPlan always(/*seed=*/1, /*permille=*/0);
  always.budget[7].store(~std::uint32_t{0}, std::memory_order_relaxed);
  T14Job faulty = build_job(&always, kT9Granules, /*t9_cost=*/true);
  T14Job clean = build_job(nullptr, kT9Granules, /*t9_cost=*/true);
  ExecConfig ec = exec_config();
  ec.max_granule_retries = 1;
  pool::JobHandle fh = pool.submit(faulty.prog, faulty.bodies, ec);
  pool::JobHandle ch = pool.submit(clean.prog, clean.bodies, exec_config());
  if (fh.wait() != pool::JobState::kFailed) fail("poison arm: not kFailed");
  if (ch.wait() != pool::JobState::kComplete) fail("poison arm: sibling hurt");
  pool.shutdown();
  const pool::JobStats js = fh.stats();
  if (js.granules_poisoned == 0) fail("poison arm: nothing poisoned");
  if (js.fault_summary.empty()) fail("poison arm: no fault summary");
  const pool::PoolStats ps = pool.stats();
  if (ps.metrics.at("pool.jobs_failed") != 1) fail("poison arm: jobs_failed != 1");
  if (ps.metrics.at("pool.jobs_completed") != 1) fail("poison arm: jobs_completed != 1");
  std::printf("t14 --check: %s\n", ok ? "PASS" : "FAIL");
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--check") == 0) return check_mode() ? 0 : 1;

  JsonReport json = JsonReport::from_args(argc, argv);
  print_banner("T14 — fault containment under load",
               "a granule that throws must cost a retry, not the process: "
               "goodput with 1% injected faults stays within 0.9x of "
               "fault-free, and the barrier adds no heap traffic to the "
               "no-fault warm path");

  constexpr std::size_t kJobs = 6;
  constexpr std::uint32_t kFaultPermille = 10;  // 1% of granules throw once
  constexpr double kGoodputFloor = 0.9;
  constexpr double kAllocBar =
      kT10PreReworkAllocsPerGranule / kT10RequiredReduction;

  struct Measurement {
    ArmResult clean, faulty;
    double goodput_ratio = 0.0;
    double work_inflation = 0.0;
    double marginal_allocs = 0.0;
    bool pass_goodput = false, pass_alloc = false, pass_accounting = false;
  };
  auto measure = [&](std::uint64_t seed) {
    Measurement m;
    m.clean = run_arm(kJobs, 0, seed);
    m.faulty = run_arm(kJobs, kFaultPermille, seed);
    m.goodput_ratio = m.faulty.goodput / m.clean.goodput;
    // Work inflation: body time bought by retrying faulted ranges, plus the
    // attempt overhead the barrier adds; reported, not gated (busy wall time
    // on an oversubscribed host also moves with scheduling pressure).
    m.work_inflation = static_cast<double>(m.faulty.busy.count()) /
                       static_cast<double>(m.clean.busy.count());
    m.marginal_allocs = marginal_warm_allocs(4, 4096, 16384);
    m.pass_goodput = m.goodput_ratio >= kGoodputFloor;
    m.pass_alloc = m.marginal_allocs <= kAllocBar;
    m.pass_accounting = m.clean.ok && m.faulty.ok && m.clean.faults == 0 &&
                        m.faulty.injected > 0;
    return m;
  };

  // Goodput on a small shared CI host is noisy; retry like the other pool
  // benches. Accounting drift fails immediately — that is correctness.
  constexpr int kMaxAttempts = 3;
  Measurement m = measure(0x714F4A17ULL);
  for (int attempt = 1; attempt < kMaxAttempts && m.pass_accounting &&
                        !(m.pass_goodput && m.pass_alloc);
       ++attempt) {
    std::printf("attempt %d: goodput %s alloc %s; retrying (host noise)\n",
                attempt, m.pass_goodput ? "ok" : "FAIL",
                m.pass_alloc ? "ok" : "FAIL");
    m = measure(0x714F4A17ULL + static_cast<std::uint64_t>(attempt) * 131);
  }

  Table t("T14 — T9-protocol pool stream, fault-free vs 1% injected faults");
  t.header({"arm", "granules", "faults", "retries", "goodput gr/s",
            "allocs/granule", "busy ms"});
  t.row({"fault-free", Table::count(m.clean.granules),
         Table::count(m.clean.faults), Table::count(m.clean.retries),
         fixed(m.clean.goodput, 0), fixed(m.clean.warm_allocs_per_granule, 4),
         fixed(static_cast<double>(m.clean.busy.count()) / 1e6, 1)});
  t.row({"1% faults", Table::count(m.faulty.granules),
         Table::count(m.faulty.faults), Table::count(m.faulty.retries),
         fixed(m.faulty.goodput, 0), fixed(m.faulty.warm_allocs_per_granule, 4),
         fixed(static_cast<double>(m.faulty.busy.count()) / 1e6, 1)});
  t.print(std::cout);

  const std::string config = "workers=" + std::to_string(kWorkers) +
                             " jobs=" + std::to_string(kJobs) +
                             " grain=" + std::to_string(kT9Grain);
  json.set_meta("workers", kWorkers);
  json.set_meta("jobs", kJobs);
  json.add("t14_fault", "goodput_clean_granules_per_s", m.clean.goodput,
           config);
  json.add("t14_fault", "goodput_faulty_granules_per_s", m.faulty.goodput,
           config);
  json.add("t14_fault", "goodput_ratio", m.goodput_ratio, config);
  json.add("t14_fault", "injected_faults",
           static_cast<double>(m.faulty.injected), config);
  json.add("t14_fault", "retries", static_cast<double>(m.faulty.retries),
           config);
  json.add("t14_fault", "work_inflation_busy_ratio", m.work_inflation, config);
  json.add("t14_fault", "warm_allocs_per_granule_gross",
           m.clean.warm_allocs_per_granule, config);
  json.add("t14_fault", "warm_allocs_per_granule_marginal", m.marginal_allocs,
           config);

  const bool pass = m.pass_accounting && m.pass_goodput && m.pass_alloc;
  std::printf(
      "\nthe barrier turns a throw into bookkeeping: the faulted range is\n"
      "retired through the fail path, re-enqueued after backoff, and the\n"
      "pool's other jobs keep filling the gap — rundown overlap absorbing\n"
      "fault recovery the same way it absorbs stragglers.\n\n");
  std::printf(
      "acceptance: goodput ratio %.3f >= %.2f %s | marginal warm "
      "allocs/granule %.4f <= %.4f %s | faults %llu == injected %llu, "
      "retries %llu, poisoned %llu, inflation %.3fx %s: %s\n",
      m.goodput_ratio, kGoodputFloor, m.pass_goodput ? "ok" : "FAIL",
      m.marginal_allocs, kAllocBar, m.pass_alloc ? "ok" : "FAIL",
      static_cast<unsigned long long>(m.faulty.faults),
      static_cast<unsigned long long>(m.faulty.injected),
      static_cast<unsigned long long>(m.faulty.retries),
      static_cast<unsigned long long>(m.faulty.poisoned), m.work_inflation,
      m.pass_accounting ? "ok" : "FAIL", pass ? "PASS" : "FAIL");
  json.flush();
  return pass ? 0 : 1;
}
