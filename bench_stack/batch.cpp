// batch.cpp — the casper and sor workloads: one long program per run on
// rt::ThreadedRuntime, 4 workers, the main thread blocked in run().
#include <chrono>
#include <functional>
#include <memory>
#include <optional>

#include "casper/pipeline.hpp"
#include "casper/sor.hpp"
#include "obs/trace_ring.hpp"
#include "probes.hpp"
#include "runtime/threaded_runtime.hpp"
#include "timeline.hpp"
#include "workloads.hpp"

namespace stackbench {
namespace {

using namespace pax;
using Clock = std::chrono::steady_clock;

constexpr std::uint32_t kWorkers = 4;
/// Set-ups per run; setup_s is their median.
constexpr int kSetups = 3;
/// Minimum samples regardless of --seconds (a too-short window still yields
/// a median and a p75 tail).
constexpr std::size_t kMinRuns = 40;
constexpr std::size_t kMinSequential = 3;
/// Share of the measuring window spent on sequential reference runs, which
/// are interleaved with the parallel ones so both see the same machine.
constexpr double kSequentialShare = 0.2;
constexpr int kTracedRuns = 5;
constexpr std::size_t kTraceRing = std::size_t{1} << 18;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// One batch workload: a program, its bodies and their inputs/outputs.
class BatchWorkload {
 public:
  virtual ~BatchWorkload() = default;
  [[nodiscard]] virtual const PhaseProgram& program() const = 0;
  [[nodiscard]] virtual const rt::BodyTable& bodies() const = 0;
  [[nodiscard]] virtual ExecConfig exec_config() const = 0;
  [[nodiscard]] virtual std::uint64_t expected_granules() const = 0;
  /// Compute the sequential reference outputs (not part of set-up).
  virtual void make_reference() = 0;
  /// Restore the inputs before a run.
  virtual void reset() = 0;
  /// The outputs equal the sequential reference.
  [[nodiscard]] virtual bool outputs_ok() const = 0;
  /// The plain sequential run speedup is measured against, in seconds.
  virtual double sequential_s(bool& ok) = 0;
  /// The program's own bodies over whole phases in program order, in
  /// seconds (body.inflation's denominator). Empty when the sequential run
  /// already is exactly that.
  virtual std::optional<double> body_pass_s(bool& ok) = 0;
};

// --- casper -----------------------------------------------------------------

class CasperWorkload final : public BatchWorkload {
 public:
  static constexpr std::uint32_t kIterations = 4;
  static constexpr std::uint32_t kScale = 4;
  static constexpr std::uint32_t kWorkScale = 20;

  explicit CasperWorkload(std::uint64_t seed)
      : pipe_(casper::build_casper_pipeline(
            {.iterations = kIterations, .scale = kScale, .seed = seed})),
        bodies_(casper::make_casper_bodies(pipe_, kWorkScale)) {}

  const PhaseProgram& program() const override { return pipe_.program; }
  const rt::BodyTable& bodies() const override { return bodies_.bodies; }
  ExecConfig exec_config() const override {
    ExecConfig c;
    c.grain = 8;
    c.early_serial = true;
    c.indirect_subset = 64;
    return c;
  }
  std::uint64_t expected_granules() const override {
    return static_cast<std::uint64_t>(pipe_.total_granules()) * kIterations;
  }
  void make_reference() override {
    body_pass();
    reference_ = checksum();
    reset();
  }
  void reset() override {
    for (auto& b : *bodies_.buffers) std::fill(b.begin(), b.end(), 0.0);
  }
  bool outputs_ok() const override { return checksum() == reference_; }
  double sequential_s(bool& ok) override {
    const double s = body_pass();
    ok = outputs_ok();
    return s;
  }
  std::optional<double> body_pass_s(bool&) override { return std::nullopt; }

 private:
  /// Every phase body over its whole granule range, iteration by iteration
  /// in program order — the sequential program with the executive removed.
  double body_pass() {
    reset();
    const auto t0 = Clock::now();
    for (std::uint32_t it = 0; it < kIterations; ++it)
      for (std::size_t p = 0; p < pipe_.info.size(); ++p)
        bodies_.bodies.of(static_cast<PhaseId>(p))({0, pipe_.info[p].granules}, 0);
    return seconds_since(t0);
  }

  std::uint64_t checksum() const { return fnv1a(*bodies_.buffers); }

  casper::CasperPipeline pipe_;
  casper::CasperBodies bodies_;
  std::uint64_t reference_ = 0;
};

// --- sor --------------------------------------------------------------------

class SorWorkload final : public BatchWorkload {
 public:
  static constexpr std::uint32_t kSide = 514;
  static constexpr std::uint32_t kSweeps = 20;
  static constexpr double kOmega = 1.5;

  explicit SorWorkload(std::uint64_t seed)
      : initial_(sor_grid(kSide, seed)), work_(initial_), scratch_(initial_),
        reference_(initial_),
        sor_(std::make_unique<casper::SorProgram>(
            casper::build_sor_program(work_, kOmega, kSweeps))) {}

  const PhaseProgram& program() const override { return sor_->program; }
  const rt::BodyTable& bodies() const override { return sor_->bodies; }
  ExecConfig exec_config() const override {
    ExecConfig c;
    c.grain = 256;
    c.early_serial = true;
    return c;
  }
  std::uint64_t expected_granules() const override {
    return static_cast<std::uint64_t>(kSweeps) *
           (sor_->board->cells(casper::Color::kRed) +
            sor_->board->cells(casper::Color::kBlack));
  }
  void make_reference() override {
    reference_ = initial_;
    casper::solve_sequential(reference_, kOmega, kSweeps);
  }
  void reset() override { work_ = initial_; }
  bool outputs_ok() const override { return casper::Grid::identical(work_, reference_); }
  double sequential_s(bool& ok) override {
    scratch_ = initial_;
    const auto t0 = Clock::now();
    casper::solve_sequential(scratch_, kOmega, kSweeps);
    const double s = seconds_since(t0);
    ok = casper::Grid::identical(scratch_, reference_);
    return s;
  }
  std::optional<double> body_pass_s(bool& ok) override {
    reset();
    const rt::PhaseBody& red = sor_->bodies.of(sor_->red_phase);
    const rt::PhaseBody& black = sor_->bodies.of(sor_->black_phase);
    const GranuleRange all_red{0, sor_->board->cells(casper::Color::kRed)};
    const GranuleRange all_black{0, sor_->board->cells(casper::Color::kBlack)};
    const auto t0 = Clock::now();
    for (std::uint32_t s = 0; s < kSweeps; ++s) {
      red(all_red, 0);
      black(all_black, 0);
    }
    const double s = seconds_since(t0);
    ok = outputs_ok();
    return s;
  }

 private:
  casper::Grid initial_, work_, scratch_, reference_;
  std::unique_ptr<casper::SorProgram> sor_;  // bodies point at work_
};

// --- the shared batch protocol ---------------------------------------------

double ms(std::chrono::nanoseconds d) { return static_cast<double>(d.count()) / 1e6; }

Outcome run_batch(const Args& args,
                  const std::function<std::unique_ptr<BatchWorkload>(std::uint64_t)>& make) {
  Outcome out;
  rt::RtConfig rc;  // the shipped defaults, at 4 workers
  rc.workers = kWorkers;

  std::unique_ptr<BatchWorkload> wl;
  std::unique_ptr<BodyLog> log;
  const std::uint32_t tag = 0;  // one computation per run
  rt::BodyTable bodies;

  auto check = [&](const rt::RtResult& res) {
    return res.granules_executed == wl->expected_granules() && !res.faulted &&
           wl->outputs_ok() && log->dropped() == 0;
  };
  // One run: the time it is due, runtime construction, run(), and the
  // instant run() returned.
  struct Timed {
    rt::RtResult res;
    double sojourn_ms = 0.0;
  };
  auto run_once = [&](obs::TraceBuffer* trace) {
    wl->reset();
    log->clear();
    rt::RtConfig c = rc;
    c.trace = trace;
    Timed t;
    const auto due = Clock::now();
    auto runtime = std::make_unique<rt::ThreadedRuntime>(
        wl->program(), wl->exec_config(), CostModel{}, bodies, c);
    t.res = runtime->run();
    t.sojourn_ms = ms(Clock::now() - due);
    return t;
  };

  // Set-up, kSetups times (the last one is kept): build the program, its
  // bodies and inputs, construct the runtime and do one warm-up run. The
  // sequential reference and the body log are the benchmark's own and are
  // left out of the timed set-up.
  std::vector<double> setups;
  for (int i = 0; i < kSetups; ++i) {
    wl.reset();
    const auto t0 = Clock::now();
    wl = make(args.seed);
    const auto t_ref = Clock::now();
    wl->make_reference();
    if (!log) {
      const std::size_t tasks = wl->expected_granules() / wl->exec_config().grain;
      log = std::make_unique<BodyLog>(kWorkers, tasks + 65536);
    }
    const double excluded = seconds_since(t_ref);
    bodies = timed_bodies(wl->bodies(), wl->program().phase_count(), log.get(), &tag);
    const Timed warm = run_once(nullptr);
    setups.push_back(seconds_since(t0) - excluded);
    out.tally.record(check(warm.res));
  }

  // The measuring window: parallel runs, with sequential reference runs
  // interleaved for kSequentialShare of the time.
  std::vector<double> makespan, sojourn, util, tail_util, seq_s, body_s;
  std::vector<double> body_pg, ctl_acq, ctl_hold, ring_frac, pop_empty, push_full,
      cas, gran_per_task, steals_pg, heap_pg;
  double seq_spent = 0.0;
  const auto w0 = Clock::now();
  while (seconds_since(w0) < args.seconds || makespan.size() < kMinRuns ||
         seq_s.size() < kMinSequential) {
    const double elapsed = seconds_since(w0);
    const bool seq_turn = elapsed >= args.seconds
                              ? makespan.size() >= kMinRuns
                              : seq_spent < kSequentialShare * elapsed;
    if (seq_turn) {
      const auto s0 = Clock::now();
      bool ok = false;
      seq_s.push_back(wl->sequential_s(ok));
      out.tally.record(ok);
      if (const std::optional<double> b = wl->body_pass_s(ok)) {
        body_s.push_back(*b);
        out.tally.record(ok);
      }
      seq_spent += seconds_since(s0);
      continue;
    }
    const Timed t = run_once(nullptr);
    out.tally.record(check(t.res));
    makespan.push_back(ms(t.res.wall));
    sojourn.push_back(t.sojourn_ms);
    const Counters c(t.res.metrics);
    util.push_back(ratio(c.busy_ns, c.wall_ns));
    tail_util.push_back(rundown_util(log->collect(), kWorkers));
    body_pg.push_back(ratio(c.busy_ns, c.granules));
    ctl_acq.push_back(ratio(c.ctl_acq, c.granules));
    ctl_hold.push_back(ratio(c.ctl_hold_ns, c.granules));
    ring_frac.push_back(ratio(c.ring_pops, c.tasks));
    pop_empty.push_back(ratio(c.pop_empty, c.granules));
    push_full.push_back(ratio(c.push_full, c.granules));
    cas.push_back(ratio(c.cas_retries, c.granules));
    gran_per_task.push_back(ratio(c.granules, c.tasks));
    steals_pg.push_back(ratio(c.steals, c.granules));
    heap_pg.push_back(ratio(c.heap_allocs, c.granules));
  }

  // --- end-to-end ------------------------------------------------------------
  Report& r = out.report;
  const Summary mk = blocked_in_order(makespan);
  const Summary so = blocked_in_order(sojourn);
  out.timing("makespan_ms", mk);
  out.timing("sojourn_ms", so);
  const double seq_ms = median(seq_s) * 1e3;
  const double speedup = ratio(seq_ms, mk.p50);
  r.set("setup_s", median(setups));
  r.set("speedup", speedup);
  r.set("util", median(util));
  r.set("tail_util", median(tail_util));
  // Back-to-back construct-and-run of the program: one job per sojourn.
  r.set("capacity_jobs_per_s", ratio(1e3, so.p50));
  r.set("peak_rss_mb", peak_rss_mb());
  out.note("alpha_eff", vegh_alpha_eff(speedup, kWorkers));
  out.note("sequential_ms.p50", seq_ms);
  out.note("sequential.samples", static_cast<double>(seq_s.size()));
  if (!body_s.empty()) out.note("body_pass_ms.p50", median(body_s) * 1e3);
  out.note("granules_per_run", static_cast<double>(wl->expected_granules()));
  if (!args.trace) return out;

  // --- per-layer: counters of the untraced runs ---------------------------------
  const double body_ns = median(body_pg);
  const double seq_body_s = median(body_s.empty() ? seq_s : body_s);
  const double seq_body_ns = seq_body_s * 1e9 / static_cast<double>(wl->expected_granules());
  r.set("body.ns_per_granule", body_ns);
  r.set("body.inflation", ratio(body_ns, seq_body_ns));
  r.set("ctl.acq_per_granule", median(ctl_acq));
  r.set("ctl.hold_ns_per_granule", median(ctl_hold));
  r.set("shard.ring_frac", median(ring_frac));
  r.set("shard.pop_empty_per_granule", median(pop_empty));
  r.set("shard.push_full_per_granule", median(push_full));
  r.set("shard.cas_retries_per_granule", median(cas));
  r.set("sched.granules_per_task", median(gran_per_task));
  r.set("sched.steals_per_granule", median(steals_pg));
  r.set("heap.allocs_per_granule", median(heap_pg));
  // No pool and no generator on this path.
  for (const char* name : {"pool.queued_us.p50", "pool.queued_us.tail", "pool.service_us.p50",
                           "pool.job_locks_per_granule", "pool.rotations_per_job",
                           "pool.submit_us.p50", "gen.lag_us.tail"})
    r.set(name, 0.0);

  // --- per-layer: single-threaded probes -----------------------------------------
  std::vector<double> core_ns, shard_ns;
  for (int i = 0; i < 3; ++i) {
    const ProbeResult pc = probe_core(wl->program(), wl->exec_config(), 8);
    out.tally.record(pc.ok && pc.granules == wl->expected_granules());
    core_ns.push_back(ratio(pc.ns, static_cast<double>(pc.samples)));
    const ProbeResult ps = probe_shard(wl->program(), wl->exec_config(), 8192);
    out.tally.record(ps.ok);
    shard_ns.push_back(ratio(ps.ns, static_cast<double>(ps.samples)));
  }
  r.set("core.ns_per_granule", median(core_ns));
  r.set("shard.acquire_ns", median(shard_ns));

  // --- per-layer: traced runs ---------------------------------------------
  std::vector<double> traced_ms;
  TracedRuns traced;
  for (int i = 0; i < kTracedRuns; ++i) {
    const auto buf = std::make_unique<obs::TraceBuffer>(
        kWorkers, obs::TraceConfig{.ring_capacity = kTraceRing});
    const Timed t = run_once(buf.get());
    const bool ledger_ok = traced.add(build_ledger(*buf), t.res.metrics.value_of("worker.wall_ns"),
                                      t.res.granules_executed);
    out.tally.record(check(t.res) && ledger_ok);
    traced_ms.push_back(ms(t.res.wall));
  }
  traced.report(out, median(traced_ms) / mk.p50 - 1.0);
  return out;
}

}  // namespace

Outcome run_casper(const Args& args) {
  return run_batch(args, [](std::uint64_t seed) {
    return std::make_unique<CasperWorkload>(seed);
  });
}

Outcome run_sor(const Args& args) {
  return run_batch(args, [](std::uint64_t seed) {
    return std::make_unique<SorWorkload>(seed);
  });
}

}  // namespace stackbench
