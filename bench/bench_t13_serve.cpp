// bench_t13_serve — Experiment T13.
//
// The pool as a *serving layer*: an open-loop generator streams thousands of
// mixed CASPER/SOR/synthetic jobs at a target arrival rate through the
// serve-mode surface (SubmitOptions deadlines, SchedPolicy::kDeadline,
// bounded admission). The paper's rundown-overlap machinery is what makes
// this viable — a served job's tail is filled by the next arrival — and this
// bench gates that the serving plane built on top of it actually serves:
//
//   1. p99 completion latency at the calibrated rate (0.7x closed-loop
//      capacity) stays within a fixed multiple of the unloaded solo latency;
//   2. goodput under ~2x overload, with admission control bounding the
//      pending set, is no worse than 0.8x of the at-rate goodput — graceful
//      degradation, not collapse;
//   3. EDF (kDeadline) beats kFifo on deadline-miss rate over an adversarial
//      burst submitted loosest-deadline-first;
//   4. the t10 warm-allocation bar holds for the worker plane: the
//      *marginal* heap traffic per extra granule served stays under the bar
//      (per-job setup — construction on the generator thread, one-time
//      program machinery on a worker — is differenced out; see
//      marginal_warm_allocs).
//
// --json emits BENCH_t13.json, including Végh's effective parallelization
// alpha_eff (bench_util::vegh_alpha_eff) computed from the closed-loop
// speedup over a one-worker pool — the serving plane's figure of merit.
// --check runs a reduced correctness sweep (four rounds of deadlines,
// admission rejections, pre-open and mid-run cancels) and exits 0/1; the
// TSAN CI job runs this mode.
#define PAX_ALLOC_STATS_IMPLEMENT
#include "common/alloc_stats.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "pool/pool_runtime.hpp"

namespace {

using namespace pax;
using Clock = std::chrono::steady_clock;
using std::chrono::nanoseconds;

std::atomic<std::uint64_t> g_sink{0};

void spin(std::uint32_t iters) {
  std::uint64_t acc = 0;
  for (std::uint32_t i = 0; i < iters; ++i)
    acc += (static_cast<std::uint64_t>(i) * 2654435761u) ^ (acc >> 7);
  g_sink.fetch_add(acc, std::memory_order_relaxed);
}

/// Gate the EDF arm's burst behind: every granule parks until released, so
/// the whole burst is queued before the policy picks anything.
std::atomic<bool> g_gate{false};

struct JobSpec {
  const char* kind;
  GranuleId n;            ///< granules per phase
  std::uint32_t phases;   ///< 3 = CASPER-ish, 2 = SOR-ish, 1 = synthetic
  int iters;
  std::uint32_t base_spin;
  std::uint32_t straggler_spin;
  std::uint32_t serial_spin;
};

struct BuiltJob {
  PhaseProgram prog;
  rt::BodyTable bodies;
  std::uint64_t expected_granules = 0;
};

/// Same shape as bench_t7_pool's jobs — identity-chained phases, a straggler
/// granule per phase, a conflicting serial at the loop boundary — but sized
/// for serving: one job is ~100us of body work, so thousands stream through.
#if defined(__GNUC__) && !defined(__clang__)
// GCC 12 false positive: node-vector reallocation moving the ProgramNode
// variant trips -Wmaybe-uninitialized on the moved-from EnableClause vector.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif
BuiltJob build_job(const JobSpec& s) {
  BuiltJob b;
  static const char* kNames[3] = {"pa", "pb", "pc"};
  static const char* kRes[3] = {"RA", "RB", "RC"};
  std::vector<PhaseId> ids;
  for (std::uint32_t p = 0; p < s.phases; ++p) {
    auto ph = make_phase(kNames[p], s.n).writes(kRes[p]);
    if (p > 0) ph.reads(kRes[p - 1]);
    ids.push_back(b.prog.define_phase(ph));
  }
  b.prog.serial("init", [](ProgramEnv& env) { env.set("i", 0); }, 0, false);
  std::uint32_t top = 0;
  for (std::uint32_t p = 0; p < s.phases; ++p) {
    std::vector<EnableClause> clauses;
    if (p + 1 < s.phases)
      clauses.push_back(EnableClause{kNames[p + 1], MappingKind::kIdentity, {}});
    const std::uint32_t node = b.prog.dispatch(ids[p], std::move(clauses));
    if (p == 0) top = node;
  }
  const std::uint32_t serial_spin = s.serial_spin;
  b.prog.serial("tick",
                [serial_spin](ProgramEnv& env) {
                  spin(serial_spin);
                  env.add("i", 1);
                },
                /*sim_duration=*/0, /*conflicts=*/true);
  const int iters = s.iters;
  b.prog.branch("loop",
                [iters](const ProgramEnv& env) {
                  return env.get("i") < iters ? std::size_t{0} : std::size_t{1};
                },
                {top, static_cast<std::uint32_t>(b.prog.size() + 1)}, true);
  b.prog.halt();

  const GranuleId n = s.n;
  const std::uint32_t base = s.base_spin;
  const std::uint32_t strag = s.straggler_spin;
  for (PhaseId id : ids)
    b.bodies.set(id, [n, base, strag](GranuleRange r, WorkerId) {
      for (GranuleId g = r.lo; g < r.hi; ++g) {
        if (!g_gate.load(std::memory_order_acquire))
          while (!g_gate.load(std::memory_order_acquire))
            std::this_thread::yield();
        spin(g == n - 1 ? strag : base);
      }
    });
  b.expected_granules = static_cast<std::uint64_t>(s.phases) * s.n *
                        static_cast<std::uint64_t>(s.iters);
  return b;
}
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

constexpr std::uint32_t kWorkers = 4;

/// The mixed serving workload: one CASPER-ish pipeline, one SOR-ish sweep,
/// one flat synthetic scan; the generator round-robins across them.
std::vector<BuiltJob> build_workload() {
  const std::vector<JobSpec> specs = {
      {"casper", 8, 3, 1, 1200, 3600, 600},
      {"sor", 8, 2, 2, 1600, 4000, 500},
      {"synth", 16, 1, 1, 1000, 1000, 0},
  };
  std::vector<BuiltJob> jobs;
  jobs.reserve(specs.size());
  for (const JobSpec& s : specs) jobs.push_back(build_job(s));
  return jobs;
}

pool::PoolConfig serve_config(std::uint32_t workers, pool::SchedPolicy policy,
                              std::uint32_t max_pending) {
  pool::PoolConfig pc;
  pc.workers = workers;
  pc.batch = 4;
  pc.policy = policy;
  pc.max_pending = max_pending;
  return pc;
}

ExecConfig exec_config() {
  ExecConfig cfg;
  cfg.grain = 1;
  cfg.early_serial = true;
  return cfg;
}

double secs(nanoseconds ns) { return static_cast<double>(ns.count()) / 1e9; }
double ms(nanoseconds ns) { return static_cast<double>(ns.count()) / 1e6; }

/// Closed-loop capacity: submit `n` jobs as fast as the generator can and
/// measure completion throughput (jobs/s). Includes job construction on the
/// generator thread — that is a real serving cost.
double closed_loop_rate(const std::vector<BuiltJob>& jobs, std::uint32_t workers,
                        std::size_t n, bool* granules_ok) {
  pool::PoolRuntime pool(
      serve_config(workers, pool::SchedPolicy::kDeadline, 0));
  std::vector<pool::JobHandle> handles;
  handles.reserve(n);
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < n; ++i) {
    const BuiltJob& j = jobs[i % jobs.size()];
    handles.push_back(pool.submit(j.prog, j.bodies, exec_config()));
  }
  pool.drain();
  const double elapsed = secs(Clock::now() - t0);
  for (std::size_t i = 0; i < n; ++i)
    if (handles[i].stats().granules != jobs[i % jobs.size()].expected_granules)
      *granules_ok = false;
  pool.shutdown();
  return static_cast<double>(n) / elapsed;
}

struct OpenLoopResult {
  std::uint64_t completed = 0;
  std::uint64_t rejected = 0;
  double elapsed_s = 0.0;        ///< first submit -> drain return
  double goodput = 0.0;          ///< completed / elapsed_s
  nanoseconds p50{0}, p99{0};    ///< sojourn (submit -> terminal), completed
  double warm_allocs_per_granule = 0.0;  ///< worker-plane heap traffic
  std::uint64_t granules = 0;
  bool granules_ok = true;
};

/// Open-loop arm: Poisson arrivals at `lambda` jobs/s from one generator
/// thread (this one). Absolute arrival schedule — falling behind means
/// submitting immediately, never silently thinning the offered load.
OpenLoopResult open_loop(const std::vector<BuiltJob>& jobs, double lambda,
                         std::size_t n, std::uint32_t max_pending,
                         std::uint64_t seed) {
  OpenLoopResult r;
  pool::PoolRuntime pool(
      serve_config(kWorkers, pool::SchedPolicy::kDeadline, max_pending));

  // Warm the plane before snapshotting heap counters: worker startup and
  // first-touch reserves (local queues, done buffers, ring spill) are
  // one-time costs, not steady-state serving traffic.
  {
    std::vector<pool::JobHandle> warm;
    for (std::size_t i = 0; i < 3 * jobs.size(); ++i)
      warm.push_back(
          pool.submit(jobs[i % jobs.size()].prog, jobs[i % jobs.size()].bodies,
                      exec_config()));
    pool.drain();
  }
  const AllocTotals proc0 = alloc_stats::totals();
  const AllocTotals gen0 = alloc_stats::thread_totals();

  std::mt19937_64 rng(seed);
  std::exponential_distribution<double> interarrival(lambda);
  std::vector<pool::JobHandle> handles;
  handles.reserve(n);
  const auto t0 = Clock::now();
  auto next = t0;
  for (std::size_t i = 0; i < n; ++i) {
    next += nanoseconds(static_cast<std::int64_t>(interarrival(rng) * 1e9));
    if (next > Clock::now()) std::this_thread::sleep_until(next);
    const BuiltJob& j = jobs[i % jobs.size()];
    handles.push_back(pool.submit(j.prog, j.bodies, exec_config()));
  }
  pool.drain();
  r.elapsed_s = secs(Clock::now() - t0);

  std::vector<nanoseconds> spans;
  spans.reserve(n);
  std::uint64_t warm_granules = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const pool::JobStats js = handles[i].stats();
    switch (handles[i].state()) {
      case pool::JobState::kComplete:
        ++r.completed;
        warm_granules += js.granules;
        if (js.granules != jobs[i % jobs.size()].expected_granules)
          r.granules_ok = false;
        spans.push_back(js.span);
        break;
      case pool::JobState::kRejected:
        ++r.rejected;
        if (js.granules != 0) r.granules_ok = false;
        break;
      default:
        r.granules_ok = false;  // nothing is cancelled in this arm
        break;
    }
  }
  pool.shutdown();
  const AllocTotals proc1 = alloc_stats::totals();
  const AllocTotals gen1 = alloc_stats::thread_totals();
  // Worker-plane allocations: everything the process allocated during the
  // arm minus the generator thread's share (job construction, handle
  // vector growth, sleep bookkeeping all happen here on the submit side).
  // Gross: includes each job's one-time program machinery (start, dispatch
  // advance, serial env writes), which runs lazily on workers — the gated
  // warm-handout number comes from marginal_warm_allocs() instead.
  const std::uint64_t worker_allocs =
      (proc1.allocs - proc0.allocs) - (gen1.allocs - gen0.allocs);
  r.granules = warm_granules;
  if (warm_granules > 0)
    r.warm_allocs_per_granule =
        static_cast<double>(worker_allocs) / static_cast<double>(warm_granules);
  r.goodput = static_cast<double>(r.completed) / r.elapsed_s;
  std::sort(spans.begin(), spans.end());
  if (!spans.empty()) {
    r.p50 = spans[spans.size() / 2];
    r.p99 = spans[static_cast<std::size_t>(
        static_cast<double>(spans.size() - 1) * 0.99)];
  }
  return r;
}

/// The t10 warm-allocation bar, serve-mode edition. A served job pays a
/// one-time program-machinery cost on the worker plane (~30-45 allocs:
/// start(), dispatch advance, serial env writes, buffer growth) that the
/// single-program t10 bench pays before its measured window — so the
/// gross worker-plane allocs/granule of a job stream cannot be compared to
/// the t10 bar directly. The *marginal* cost per granule can: run the same
/// job count at two granule counts and difference out the per-job setup.
/// Both granule counts sit past the per-job buffer-growth saturation point
/// (worker-side allocs/job are flat above ~64 granules), so the difference
/// isolates the warm handout path (carve -> ring -> local queue -> retire),
/// which an intact t10 property makes allocation-free.
double marginal_warm_allocs(std::size_t n_jobs, GranuleId n_small,
                            GranuleId n_large) {
  auto worker_allocs = [&](GranuleId n, std::uint64_t* granules) {
    const BuiltJob j = build_job({"alloc", n, 1, 1, 400, 400, 0});
    pool::PoolRuntime pool(
        serve_config(kWorkers, pool::SchedPolicy::kDeadline, 0));
    {
      std::vector<pool::JobHandle> warm;
      for (int i = 0; i < 8; ++i)
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
    *granules = static_cast<std::uint64_t>(n) * n_jobs;
    return (proc1.allocs - proc0.allocs) - (gen1.allocs - gen0.allocs);
  };
  std::uint64_t g_small = 0, g_large = 0;
  const std::uint64_t a_small = worker_allocs(n_small, &g_small);
  const std::uint64_t a_large = worker_allocs(n_large, &g_large);
  if (a_large <= a_small) return 0.0;  // per-job noise outweighed the delta
  return static_cast<double>(a_large - a_small) /
         static_cast<double>(g_large - g_small);
}

struct BurstResult {
  std::uint64_t missed = 0;
  std::uint64_t met = 0;
  [[nodiscard]] double miss_rate() const {
    const std::uint64_t total = missed + met;
    return total == 0 ? 0.0 : static_cast<double>(missed) /
                                  static_cast<double>(total);
  }
};

/// The adversarial deadline burst: K jobs whose deadlines increase with
/// rank, submitted loosest-first behind a gate that parks every worker until
/// the whole burst is queued. kFifo serves them in submission order and runs
/// the tight-deadline jobs last; kDeadline reorders. Deadlines carry a
/// cushion for the gated window (0.5 * T_all) plus a 0.8 * fair-share slope:
/// EDF completes rank r near (r+1)/K * T_all and meets nearly all of them,
/// FIFO completes rank r near (K-r)/K * T_all and misses the tight quarter.
BurstResult deadline_burst(const std::vector<BuiltJob>& jobs,
                           pool::SchedPolicy policy, double rate_cal,
                           std::size_t k) {
  const double t_all = static_cast<double>(k) / rate_cal;  // estimated, secs
  pool::PoolRuntime pool(serve_config(kWorkers, policy, 0));

  // Park all workers: one gated job with enough granules for everyone.
  g_gate.store(false, std::memory_order_release);
  const BuiltJob blocker = build_job({"gate", 4 * kWorkers, 1, 1, 1, 1, 0});
  pool::JobHandle gate_handle =
      pool.submit(blocker.prog, blocker.bodies, exec_config());
  std::this_thread::sleep_for(std::chrono::milliseconds(2));

  std::vector<pool::JobHandle> handles;
  handles.reserve(k);
  for (std::size_t rank_back = 0; rank_back < k; ++rank_back) {
    const std::size_t rank = k - 1 - rank_back;  // loosest deadline first
    pool::PoolRuntime::SubmitOptions opts;
    opts.deadline = nanoseconds(static_cast<std::int64_t>(
        (0.5 * t_all + 0.8 * t_all * static_cast<double>(rank + 1) /
                           static_cast<double>(k)) *
        1e9));
    const BuiltJob& j = jobs[rank % jobs.size()];
    handles.push_back(pool.submit(j.prog, j.bodies, exec_config(), opts));
  }
  g_gate.store(true, std::memory_order_release);
  pool.drain();
  pool.shutdown();
  (void)gate_handle;
  const pool::PoolStats ps = pool.stats();
  return {ps.metrics.at("pool.deadline_missed"), ps.metrics.at("pool.deadline_met")};
}

// --- --check: reduced correctness sweep for the TSAN CI job ----------------

bool check_round(const std::vector<BuiltJob>& jobs, int round) {
  bool ok = true;
  auto fail = [&](const char* what) {
    std::fprintf(stderr, "check(round %d): %s\n", round, what);
    ok = false;
  };
  pool::PoolRuntime pool(
      serve_config(3, pool::SchedPolicy::kDeadline, /*max_pending=*/6));
  constexpr std::size_t kN = 48;
  std::vector<pool::JobHandle> handles;
  std::vector<std::uint64_t> expected;
  handles.reserve(kN);
  for (std::size_t i = 0; i < kN; ++i) {
    const BuiltJob& j = jobs[i % jobs.size()];
    pool::PoolRuntime::SubmitOptions opts;
    if (i % 3 == 1) opts.deadline = nanoseconds(1);  // guaranteed miss
    if (i % 3 == 2) opts.deadline = std::chrono::milliseconds(250);
    handles.push_back(pool.submit(j.prog, j.bodies, exec_config(), opts));
    expected.push_back(j.expected_granules);
    if (i % 5 == 0) handles.back().cancel();  // pre-open or mid-run
    if (i % 7 == 3) {
      handles.back().wait_for(std::chrono::microseconds(50));
      handles.back().cancel();  // mid-run (or post-terminal no-op)
    }
  }
  pool.drain();
  std::uint64_t completed = 0, cancelled = 0, rejected = 0, granules = 0;
  for (std::size_t i = 0; i < kN; ++i) {
    if (!handles[i].done()) fail("handle not terminal after drain");
    const pool::JobStats js = handles[i].stats();
    granules += js.granules;
    switch (handles[i].state()) {
      case pool::JobState::kComplete:
        ++completed;
        if (js.granules != expected[i]) fail("complete with granule drift");
        break;
      case pool::JobState::kCancelled:
        ++cancelled;
        if (js.granules > expected[i]) fail("cancelled ran extra granules");
        if (js.deadline_missed) fail("cancelled job counted as missed");
        break;
      case pool::JobState::kRejected:
        ++rejected;
        if (js.granules != 0) fail("rejected job executed granules");
        if (js.has_deadline && !js.deadline_missed)
          fail("rejected deadline job not counted missed");
        break;
      default:
        fail("non-terminal state after drain");
        break;
    }
  }
  pool.shutdown();
  const pool::PoolStats ps = pool.stats();
  if (completed + cancelled + rejected != kN) fail("terminal states drifted");
  if (ps.metrics.at("pool.jobs_submitted") != kN) fail("jobs_submitted drift");
  if (ps.metrics.at("pool.jobs_completed") != completed) fail("jobs_completed drift");
  if (ps.metrics.at("pool.jobs_cancelled") != cancelled) fail("jobs_cancelled drift");
  if (ps.metrics.at("pool.jobs_rejected") != rejected) fail("jobs_rejected drift");
  if (ps.metrics.at("worker.granules") != granules)
    fail("pool/job granule sum mismatch");
  return ok;
}

bool check_mode() {
  g_gate.store(true, std::memory_order_release);
  const std::vector<BuiltJob> jobs = build_workload();
  bool ok = true;
  for (int round = 0; round < 4; ++round) ok = check_round(jobs, round) && ok;
  std::printf("t13 --check: %s\n", ok ? "PASS" : "FAIL");
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace pax;
  using namespace pax::bench;
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--check") == 0) return check_mode() ? 0 : 1;

  JsonReport json = JsonReport::from_args(argc, argv);
  print_banner("T13 — the pool as a serving layer",
               "rundown overlap across jobs is what lets an open-loop stream "
               "of programs be *served* — deadlines scheduled, overload "
               "admission-bounded, tails filled by the next arrival");

  g_gate.store(true, std::memory_order_release);  // gate only used by arm 3
  const std::vector<BuiltJob> jobs = build_workload();

  // Gate thresholds.
  constexpr double kLoadFactor = 0.7;      // at-rate lambda = 0.7 * capacity
  constexpr double kOverloadFactor = 2.0;  // overload lambda = 2 * at-rate
  // p99 <= 40x unloaded solo median, with an absolute floor covering OS
  // timeslice noise on small CI hosts (5 threads on 1-2 cores): a serving
  // collapse — lost wakeups, unbounded queueing — shows up as p99 in the
  // hundreds of milliseconds, far past either bound.
  constexpr double kP99Budget = 40.0;
  constexpr std::chrono::milliseconds kP99Floor{25};
  constexpr double kGoodputFloor = 0.8;    // overload goodput >= 0.8x at-rate
  constexpr std::size_t kOpenLoopJobs = 2000;
  constexpr std::size_t kBurstJobs = 96;
  constexpr std::uint32_t kOverloadPending = 32;

  struct Measurement {
    double rate_cal = 0.0, rate_1w = 0.0, speedup = 0.0, alpha_eff = 0.0;
    nanoseconds solo_p50{0};
    OpenLoopResult at_rate, overload;
    BurstResult fifo, edf;
    double marginal_allocs = 0.0;
    bool granules_ok = true;
    bool pass_p99 = false, pass_goodput = false, pass_edf = false,
         pass_alloc = false;
    nanoseconds p99_budget{0};
  };
  auto measure = [&](std::uint64_t seed) {
    Measurement m;
    // Arm 0: unloaded solo latency (sequential submits on an idle pool).
    {
      pool::PoolRuntime pool(
          serve_config(kWorkers, pool::SchedPolicy::kDeadline, 0));
      std::vector<nanoseconds> spans;
      for (std::size_t i = 0; i < 48; ++i) {
        const BuiltJob& j = jobs[i % jobs.size()];
        pool::JobHandle h = pool.submit(j.prog, j.bodies, exec_config());
        h.wait();
        spans.push_back(h.stats().span);
      }
      pool.shutdown();
      std::sort(spans.begin(), spans.end());
      m.solo_p50 = spans[spans.size() / 2];
    }
    // Arm 1: closed-loop capacity, full pool and one worker (Végh's S).
    m.rate_cal = closed_loop_rate(jobs, kWorkers, 384, &m.granules_ok);
    m.rate_1w = closed_loop_rate(jobs, 1, 128, &m.granules_ok);
    m.speedup = m.rate_cal / m.rate_1w;
    m.alpha_eff = vegh_alpha_eff(m.speedup, kWorkers);
    // Arm 2: open loop at the calibrated rate, then under 2x overload with
    // a bounded pending set.
    const double lambda = kLoadFactor * m.rate_cal;
    m.at_rate = open_loop(jobs, lambda, kOpenLoopJobs, 0, seed);
    m.overload = open_loop(jobs, kOverloadFactor * lambda, kOpenLoopJobs,
                           kOverloadPending, seed + 1);
    m.granules_ok = m.granules_ok && m.at_rate.granules_ok &&
                    m.overload.granules_ok && m.at_rate.rejected == 0;
    // Arm 3: the adversarial deadline burst under both policies.
    m.fifo = deadline_burst(jobs, pool::SchedPolicy::kFifo, m.rate_cal,
                            kBurstJobs);
    m.edf = deadline_burst(jobs, pool::SchedPolicy::kDeadline, m.rate_cal,
                           kBurstJobs);
    // Arm 4: marginal warm-path allocations per granule (the t10 bar).
    m.marginal_allocs = marginal_warm_allocs(8, 512, 4096);

    m.p99_budget = std::max(
        nanoseconds(static_cast<std::int64_t>(
            kP99Budget * static_cast<double>(m.solo_p50.count()))),
        nanoseconds(kP99Floor));
    m.pass_p99 = m.at_rate.p99 <= m.p99_budget;
    m.pass_goodput = m.overload.goodput >= kGoodputFloor * m.at_rate.goodput;
    m.pass_edf = m.edf.miss_rate() < m.fifo.miss_rate();
    m.pass_alloc = m.marginal_allocs * kT10RequiredReduction <=
                   kT10PreReworkAllocsPerGranule;
    return m;
  };

  // Latency/goodput/miss-rate gates on a small shared CI host are noisy;
  // retry like the other benches. Granule drift fails immediately — that is
  // correctness, not noise.
  constexpr int kMaxAttempts = 3;
  Measurement m = measure(0x7135E27EULL);
  for (int attempt = 1; attempt < kMaxAttempts && m.granules_ok &&
                        !(m.pass_p99 && m.pass_goodput && m.pass_edf &&
                          m.pass_alloc);
       ++attempt) {
    std::printf(
        "attempt %d: p99 %s goodput %s edf %s alloc %s; retrying (host noise "
        "tolerance)\n",
        attempt, m.pass_p99 ? "ok" : "FAIL", m.pass_goodput ? "ok" : "FAIL",
        m.pass_edf ? "ok" : "FAIL", m.pass_alloc ? "ok" : "FAIL");
    m = measure(0x7135E27EULL + static_cast<std::uint64_t>(attempt) * 977);
  }

  Table cap("T13 — calibrated capacity (closed loop)");
  cap.header({"pool", "rate jobs/s", "speedup", "alpha_eff (Vegh)"});
  cap.row({"1 worker", fixed(m.rate_1w, 0), "1.00", "-"});
  cap.row({std::to_string(kWorkers) + " workers", fixed(m.rate_cal, 0),
           fixed(m.speedup, 2), fixed(m.alpha_eff, 3)});
  cap.print(std::cout);

  Table t("T13 — open-loop serving");
  t.header({"arm", "lambda jobs/s", "completed", "rejected", "goodput",
            "p50 ms", "p99 ms"});
  const double lambda = kLoadFactor * m.rate_cal;
  t.row({"at rate", fixed(lambda, 0), Table::count(m.at_rate.completed),
         Table::count(m.at_rate.rejected), fixed(m.at_rate.goodput, 0),
         fixed(ms(m.at_rate.p50), 3), fixed(ms(m.at_rate.p99), 3)});
  t.row({"2x overload", fixed(kOverloadFactor * lambda, 0),
         Table::count(m.overload.completed), Table::count(m.overload.rejected),
         fixed(m.overload.goodput, 0), fixed(ms(m.overload.p50), 3),
         fixed(ms(m.overload.p99), 3)});
  t.print(std::cout);

  Table d("T13 — adversarial deadline burst (loosest submitted first)");
  d.header({"policy", "met", "missed", "miss rate"});
  d.row({"kFifo", Table::count(m.fifo.met), Table::count(m.fifo.missed),
         Table::pct(m.fifo.miss_rate(), 1)});
  d.row({"kDeadline (EDF)", Table::count(m.edf.met), Table::count(m.edf.missed),
         Table::pct(m.edf.miss_rate(), 1)});
  d.print(std::cout);

  const std::string config = "workers=" + std::to_string(kWorkers) +
                             " jobs=" + std::to_string(kOpenLoopJobs);
  json.set_meta("workers", kWorkers);
  json.set_meta("open_loop_jobs", kOpenLoopJobs);
  json.add("t13_serve", "rate_calibrated_jobs_per_s", m.rate_cal, config);
  json.add("t13_serve", "speedup_vs_1worker", m.speedup, config);
  json.add("t13_serve", "vegh_alpha_eff", m.alpha_eff, config);
  json.add("t13_serve", "p50_latency_ms_at_rate", ms(m.at_rate.p50), config);
  json.add("t13_serve", "p99_latency_ms_at_rate", ms(m.at_rate.p99), config);
  json.add("t13_serve", "goodput_at_rate_jobs_per_s", m.at_rate.goodput,
           config);
  json.add("t13_serve", "goodput_overload_jobs_per_s", m.overload.goodput,
           config);
  json.add("t13_serve", "overload_rejected",
           static_cast<double>(m.overload.rejected), config);
  json.add("t13_serve", "fifo_miss_rate", m.fifo.miss_rate(), config);
  json.add("t13_serve", "edf_miss_rate", m.edf.miss_rate(), config);
  json.add("t13_serve", "worker_allocs_per_granule_gross",
           m.at_rate.warm_allocs_per_granule, config);
  json.add("t13_serve", "warm_allocs_per_granule_marginal", m.marginal_allocs,
           config);

  const bool pass = m.granules_ok && m.pass_p99 && m.pass_goodput &&
                    m.pass_edf && m.pass_alloc;
  std::printf(
      "\nserving is rundown overlap at stream scope: each job's tail is\n"
      "filled by the next arrival's granules, EDF spends the overlap where\n"
      "deadlines are tight, and bounded admission converts overload into\n"
      "rejections instead of unbounded queueing delay.\n\n");
  std::printf(
      "acceptance: p99 %.2fms <= %.2fms %s | overload goodput %.0f >= "
      "0.8x %.0f %s | EDF miss %.1f%% < FIFO %.1f%% %s | marginal warm "
      "allocs/granule %.4f <= %.4f %s | granules %s: %s\n",
      ms(m.at_rate.p99), ms(m.p99_budget), m.pass_p99 ? "ok" : "FAIL",
      m.overload.goodput, m.at_rate.goodput, m.pass_goodput ? "ok" : "FAIL",
      100.0 * m.edf.miss_rate(), 100.0 * m.fifo.miss_rate(),
      m.pass_edf ? "ok" : "FAIL", m.marginal_allocs,
      kT10PreReworkAllocsPerGranule / kT10RequiredReduction,
      m.pass_alloc ? "ok" : "FAIL", m.granules_ok ? "yes" : "NO",
      pass ? "PASS" : "FAIL");
  json.flush();
  return pass ? 0 : 1;
}
