// testing_util.hpp — seeded randomized program generation and cross-runtime
// invariant checks, shared by tests/test_stress.cpp and the nightly seed
// sweep.
//
// One seed deterministically generates a linear phase program (random
// granule counts, enablement mappings with random fan-in/fan-out, serial
// actions, executive knobs) plus driver configs (workers, batch, shards),
// and the harness runs the *same* program through both surfaces of the one
// worker loop — rt::ThreadedRuntime (a one-job pool facade) and
// pool::PoolRuntime — plus the simulator, sim::Machine, cross-checking the
// invariants the scheduler stack promises:
//
//   * every granule of every phase retired exactly once (per-granule atomic
//     execution counts),
//   * stats sums consistent: worker-side granule/task totals match the
//     recorder, the lock-split identity holds, pool-side job stats equal
//     pool totals, and a threaded run shows the one-job invariants (no
//     rotation, no preemption leave, no cap on a lone worker),
//   * no shard census drift (ShardedExecutive::check_census aborts inside
//     run()/the pool on drift; the recorder re-checks totals end-to-end),
//   * the simulator is deterministic for the (seed, config) pair.
//
// On any failure the seed is printed via SCOPED_TRACE, so a red run is
// replayed with `PAX_STRESS_SEED=<seed> ctest -R stress`.
//
// In checked builds (PAX_LOCK_RANK_CHECKS, default in Debug) every run
// through this harness additionally certifies the runtimes' lock graph
// acyclic: all mutexes are ranked (common/lock_rank.hpp) and any
// out-of-order acquisition aborts deterministically, so the randomized
// sweep doubles as lock-order coverage — no lucky interleaving required.
#pragma once

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "core/sharded_executive.hpp"
#include "pool/pool_runtime.hpp"
#include "runtime/threaded_runtime.hpp"
#include "sim/machine.hpp"

namespace pax::testing {

struct GeneratedProgram {
  std::uint64_t seed = 0;
  PhaseProgram program;
  std::vector<PhaseId> phases;
  std::vector<GranuleId> granules;  // per phase
  std::uint64_t total = 0;          // granules across phases

  ExecConfig exec;
  std::uint32_t workers = 2;
  std::uint32_t batch = 1;
  std::uint32_t shards = kAutoShards;
  /// Pool cancel point: also submit a throwaway job and cancel it.
  bool cancel_second_job = false;
  std::uint32_t sim_workers = 4;
  std::uint32_t sim_shards = 1;
};

/// `prefix` followed by `i` in decimal, built by appending: GCC 12 flags
/// `"p" + std::to_string(i)` with a false -Wrestrict in Release builds.
inline std::string numbered(const char* prefix, std::size_t i) {
  std::string s(prefix);
  s += std::to_string(i);
  return s;
}

/// Value of counter/gauge `name` in a result's metrics snapshot. A missing
/// name fails the calling test (and reads as all ones), so a misspelled
/// name cannot pass by reading 0.
inline std::uint64_t metric(const obs::MetricsSnapshot& m, std::string_view name) {
  const obs::MetricValue* v = m.find(name);
  EXPECT_NE(v, nullptr) << name << " missing from the metrics snapshot";
  return v != nullptr ? v->value : ~std::uint64_t{0};
}

/// A threaded run's control-plane sections plus its parks on the pool's
/// condition variable: the executive contention total the batching test
/// compares (RtBatchedHandoff.FewerLockAcquisitionsSameWork).
inline std::uint64_t control_and_wait_locks(const obs::MetricsSnapshot& m) {
  return metric(m, "exec.control_acquisitions") + metric(m, "worker.wait_wakeups");
}

/// Deterministic program + config from one seed.
inline GeneratedProgram generate_program(std::uint64_t seed) {
  GeneratedProgram g;
  g.seed = seed;
  Rng rng(seed ^ 0xC0FFEEULL);
  auto pick = [&](std::uint64_t lo, std::uint64_t hi) {  // inclusive
    return lo + rng() % (hi - lo + 1);
  };

  const std::size_t n_phases = pick(2, 4);
  for (std::size_t i = 0; i < n_phases; ++i) {
    const GranuleId n = static_cast<GranuleId>(pick(4, 96));
    const std::string name = numbered("p", i);
    g.phases.push_back(g.program.define_phase(
        make_phase(name, n).reads(numbered("D", i)).writes(numbered("D", i + 1))));
    g.granules.push_back(n);
    g.total += n;
  }

  for (std::size_t i = 0; i < n_phases; ++i) {
    std::vector<EnableClause> enables;
    if (i + 1 < n_phases) {
      const std::uint64_t kind = pick(0, 4);
      EnableClause clause;
      clause.successor_name = numbered("p", i + 1);
      const GranuleId cur_n = g.granules[i];
      const GranuleId succ_n = g.granules[i + 1];
      switch (kind) {
        case 0:
          clause.kind = MappingKind::kNull;  // no overlap edge
          break;
        case 1:
          clause.kind = MappingKind::kUniversal;
          break;
        case 2:
          // Identity requires equal counts; fall back to universal.
          clause.kind = cur_n == succ_n ? MappingKind::kIdentity
                                        : MappingKind::kUniversal;
          break;
        case 3: {
          clause.kind = MappingKind::kReverseIndirect;
          const std::uint32_t fan = static_cast<std::uint32_t>(pick(1, 5));
          clause.indirection.stable = pick(0, 1) == 1;
          clause.indirection.requires_of =
              [cur_n, fan, seed](GranuleId r, std::vector<GranuleId>& need) {
                std::uint64_t s =
                    seed ^ (0x51ED2701ULL + (std::uint64_t{r} << 17));
                for (std::uint32_t j = 0; j < fan; ++j)
                  need.push_back(static_cast<GranuleId>(splitmix64(s) % cur_n));
              };
          break;
        }
        default: {
          clause.kind = MappingKind::kForwardIndirect;
          const std::uint32_t fan = static_cast<std::uint32_t>(pick(1, 4));
          clause.indirection.stable = pick(0, 1) == 1;
          clause.indirection.enables_of =
              [succ_n, fan, seed](GranuleId p, std::vector<GranuleId>& en) {
                std::uint64_t s =
                    seed ^ (0x2F0A1993ULL + (std::uint64_t{p} << 13));
                for (std::uint32_t j = 0; j < fan; ++j)
                  en.push_back(static_cast<GranuleId>(splitmix64(s) % succ_n));
              };
          break;
        }
      }
      if (clause.kind != MappingKind::kNull) enables.push_back(clause);
    }
    g.program.dispatch(g.phases[i], std::move(enables));
    if (i + 1 < n_phases && pick(0, 3) == 0) {
      g.program.serial(numbered("s", i), {}, /*sim_duration=*/pick(0, 40),
                       /*conflicts=*/pick(0, 1) == 1);
    }
  }
  g.program.halt();

  g.exec.grain = static_cast<GranuleId>(pick(1, 8));
  g.exec.overlap = pick(0, 7) != 0;  // mostly on
  g.exec.split_policy = static_cast<SplitPolicy>(pick(0, 2));
  g.exec.elevate_enabling = pick(0, 1) == 1;
  g.exec.elevate_released = pick(0, 3) == 0;
  g.exec.early_serial = pick(0, 1) == 1;
  g.exec.defer_map_build = pick(0, 1) == 1;
  if (pick(0, 2) == 0)
    g.exec.indirect_subset = static_cast<GranuleId>(pick(1, 16));

  g.workers = static_cast<std::uint32_t>(pick(1, 4));
  g.batch = static_cast<std::uint32_t>(pick(1, 8));
  // Shards: auto, explicit 1 (PR 3 protocol), or an explicit small count
  // clamped to the smallest legal bound (the largest phase).
  const std::uint64_t shard_mode = pick(0, 3);
  if (shard_mode == 0) {
    g.shards = 1;
  } else if (shard_mode == 1) {
    GranuleId max_n = 1;
    for (GranuleId n : g.granules) max_n = std::max(max_n, n);
    g.shards = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(pick(2, 6), max_n));
  }  // else: kAutoShards
  // Two discarded draws, where the runtimes' steal and adaptive-grain
  // switches were once picked: they keep every seed's program and configs
  // what they were (Stress.PinnedSeedsKeepTheirPrograms pins that).
  (void)pick(0, 3);
  (void)pick(0, 1);
  g.cancel_second_job = pick(0, 2) == 0;
  g.sim_workers = static_cast<std::uint32_t>(pick(2, 12));
  g.sim_shards = static_cast<std::uint32_t>(pick(1, 4));
  return g;
}

/// Per-(phase, granule) atomic execution counts.
class ExecutionRecorder {
 public:
  explicit ExecutionRecorder(const std::vector<GranuleId>& granules) {
    counts_.reserve(granules.size());
    for (GranuleId n : granules)
      counts_.push_back(std::make_unique<std::vector<std::atomic<std::uint32_t>>>(n));
  }

  void record(std::size_t phase, GranuleRange r) {
    auto& row = *counts_[phase];
    for (GranuleId gr = r.lo; gr < r.hi; ++gr)
      row[gr].fetch_add(1, std::memory_order_relaxed);
  }

  /// Every granule executed exactly once?
  void expect_exactly_once() const {
    for (std::size_t p = 0; p < counts_.size(); ++p) {
      const auto& row = *counts_[p];
      for (std::size_t gr = 0; gr < row.size(); ++gr) {
        const std::uint32_t c = row[gr].load(std::memory_order_relaxed);
        ASSERT_EQ(c, 1u) << "phase " << p << " granule " << gr << " executed "
                         << c << " times";
      }
    }
  }

  /// No granule executed more than once? The cancelled-job invariant: a
  /// mid-run cancel drains in-flight granules (each still exactly once) but
  /// never re-issues one — duplicates would mean the recall path handed a
  /// ticket out twice.
  void expect_at_most_once() const {
    for (std::size_t p = 0; p < counts_.size(); ++p) {
      const auto& row = *counts_[p];
      for (std::size_t gr = 0; gr < row.size(); ++gr) {
        const std::uint32_t c = row[gr].load(std::memory_order_relaxed);
        ASSERT_LE(c, 1u) << "phase " << p << " granule " << gr << " executed "
                         << c << " times";
      }
    }
  }

  /// Total executions recorded (cross-check against JobStats::granules).
  [[nodiscard]] std::uint64_t total() const {
    std::uint64_t n = 0;
    for (const auto& rowp : counts_)
      for (const auto& cell : *rowp) n += cell.load(std::memory_order_relaxed);
    return n;
  }

 private:
  std::vector<std::unique_ptr<std::vector<std::atomic<std::uint32_t>>>> counts_;
};

/// Busy-wait `d` of wall time (no-op for d <= 0).
inline void spin_for(std::chrono::nanoseconds d) {
  if (d.count() <= 0) return;
  const auto until = std::chrono::steady_clock::now() + d;
  while (std::chrono::steady_clock::now() < until) {
  }
}

/// Body-cost dimension of the pool sweeps: about half the jobs spin 5-30 us
/// per task, which keeps them body-bound, and the rest keep the near-free
/// recording body, which the pool's residency rule caps at one resident
/// (DESIGN.md §7). Both sides of the rule then race cancels and faults.
inline std::chrono::nanoseconds pick_body_spin(Rng& rng) {
  if (rng() % 2 == 0) return std::chrono::nanoseconds{0};
  return std::chrono::microseconds{5 + rng() % 26};
}

/// Pool jobs the sweeps in this process accepted, how many of them the
/// residency rule capped, and how often a spare resident left to answer a
/// more urgent arrival: printed per stress shard to show that a sweep
/// covered both capped and uncapped jobs and both kinds of leave.
struct CapTally {
  std::atomic<std::uint64_t> jobs{0};
  std::atomic<std::uint64_t> capped{0};
  std::atomic<std::uint64_t> lifts{0};
  std::atomic<std::uint64_t> leaves{0};
  std::atomic<std::uint64_t> preempt_leaves{0};

  /// Fold in a shut-down pool's counters (the residency metrics are
  /// worker-cell counters, final once the workers joined).
  void add(const pool::PoolStats& ps, std::uint64_t accepted) {
    jobs.fetch_add(accepted, std::memory_order_relaxed);
    capped.fetch_add(metric(ps.metrics, "pool.jobs_capped"),
                     std::memory_order_relaxed);
    lifts.fetch_add(metric(ps.metrics, "pool.cap_lifts"),
                    std::memory_order_relaxed);
    leaves.fetch_add(metric(ps.metrics, "pool.cap_leaves"),
                     std::memory_order_relaxed);
    preempt_leaves.fetch_add(metric(ps.metrics, "pool.preempt_leaves"),
                             std::memory_order_relaxed);
  }
};

inline CapTally& cap_tally() {
  static CapTally tally;
  return tally;
}

/// Bodies that record executions and burn a seed-hashed number of cycles
/// (so schedules differ across seeds without wall-clock dependence), plus
/// `spin` of wall time per task (the body-cost dimension).
inline rt::BodyTable make_recording_bodies(
    const GeneratedProgram& g, ExecutionRecorder& rec,
    std::atomic<std::uint64_t>& sink,
    std::chrono::nanoseconds spin = std::chrono::nanoseconds{0}) {
  rt::BodyTable bodies;
  for (std::size_t p = 0; p < g.phases.size(); ++p) {
    const std::uint64_t seed = g.seed;
    bodies.set(g.phases[p], [p, seed, spin, &rec, &sink](GranuleRange r,
                                                         WorkerId) {
      spin_for(spin);
      std::uint64_t acc = 0;
      for (GranuleId gr = r.lo; gr < r.hi; ++gr) {
        std::uint64_t s = seed ^ (p * 0x9E37ULL) ^ gr;
        const std::uint64_t iters = splitmix64(s) % 256;
        for (std::uint64_t i = 0; i < iters; ++i) acc += (i ^ s) * 0x9E3779B9ULL;
      }
      sink.fetch_add(acc, std::memory_order_relaxed);
      rec.record(p, r);
    });
  }
  return bodies;
}

/// Seeded fault-injection budgets (DESIGN.md §15): a per-(phase, granule)
/// atomic count of how many times that granule's body attempt must throw
/// before it is allowed to succeed. kAlways never decrements — the granule
/// throws on every attempt, which drives the retry budget to exhaustion and
/// the program into the faulted terminal.
class FaultInjector {
 public:
  static constexpr std::uint32_t kAlways = ~std::uint32_t{0};

  explicit FaultInjector(const std::vector<GranuleId>& granules) {
    budgets_.reserve(granules.size());
    for (GranuleId n : granules)
      budgets_.push_back(
          std::make_unique<std::vector<std::atomic<std::uint32_t>>>(n));
  }

  void set_throws(std::size_t phase, GranuleId g, std::uint32_t n) {
    (*budgets_[phase])[g].store(n, std::memory_order_relaxed);
  }

  /// One body attempt at (phase, granule): true = the body must throw now.
  /// Decrements the budget (kAlways excepted) so a retried granule
  /// eventually succeeds — the transient-fault model.
  bool should_throw(std::size_t phase, GranuleId g) {
    auto& cell = (*budgets_[phase])[g];
    std::uint32_t cur = cell.load(std::memory_order_relaxed);
    while (true) {
      if (cur == 0) return false;
      if (cur == kAlways) {
        injected_.fetch_add(1, std::memory_order_relaxed);
        return true;
      }
      if (cell.compare_exchange_weak(cur, cur - 1, std::memory_order_relaxed)) {
        injected_.fetch_add(1, std::memory_order_relaxed);
        return true;
      }
    }
  }

  /// Throws actually taken (the expected fault count on the other side of
  /// the barrier — the worker.faulted metric / JobStats::granule_faults).
  [[nodiscard]] std::uint64_t injected() const {
    return injected_.load(std::memory_order_relaxed);
  }

 private:
  std::vector<std::unique_ptr<std::vector<std::atomic<std::uint32_t>>>> budgets_;
  std::atomic<std::uint64_t> injected_{0};
};

/// Optional slow-granule injection (watchdog fodder): the body sleeps this
/// long when it executes the named granule. sleep <= 0 disables it.
struct SlowGranuleSpec {
  std::size_t phase = 0;
  GranuleId granule = 0;
  std::chrono::nanoseconds sleep{0};
};

/// Recording bodies with seeded fault injection layered in. The injection
/// decision runs FIRST, before any recording: a throwing attempt must leave
/// the recorder untouched, because the executive re-enqueues the whole
/// range on retry and expect_exactly_once must still hold once the program
/// completes. `spin` is the body-cost dimension (pick_body_spin).
inline rt::BodyTable make_faulty_bodies(
    const GeneratedProgram& g, ExecutionRecorder& rec,
    std::atomic<std::uint64_t>& sink, FaultInjector& inj,
    SlowGranuleSpec slow = {},
    std::chrono::nanoseconds spin = std::chrono::nanoseconds{0}) {
  rt::BodyTable bodies;
  for (std::size_t p = 0; p < g.phases.size(); ++p) {
    const std::uint64_t seed = g.seed;
    bodies.set(g.phases[p], [p, seed, slow, spin, &rec, &sink,
                             &inj](GranuleRange r, WorkerId) {
      for (GranuleId gr = r.lo; gr < r.hi; ++gr)
        if (inj.should_throw(p, gr))
          throw std::runtime_error("injected fault: phase " +
                                   std::to_string(p) + " granule " +
                                   std::to_string(gr));
      if (slow.sleep.count() > 0 && p == slow.phase && slow.granule >= r.lo &&
          slow.granule < r.hi)
        std::this_thread::sleep_for(slow.sleep);
      spin_for(spin);
      std::uint64_t acc = 0;
      for (GranuleId gr = r.lo; gr < r.hi; ++gr) {
        std::uint64_t s = seed ^ (p * 0x9E37ULL) ^ gr;
        const std::uint64_t iters = splitmix64(s) % 256;
        for (std::uint64_t i = 0; i < iters; ++i) acc += (i ^ s) * 0x9E3779B9ULL;
      }
      sink.fetch_add(acc, std::memory_order_relaxed);
      rec.record(p, r);
    });
  }
  return bodies;
}

/// Run one generated program through the threaded runtime and check the
/// invariants. Returns the result for further inspection.
inline rt::RtResult run_threaded_checked(const GeneratedProgram& g) {
  ExecutionRecorder rec(g.granules);
  std::atomic<std::uint64_t> sink{0};
  rt::BodyTable bodies = make_recording_bodies(g, rec, sink);
  rt::RtConfig rc;
  rc.workers = g.workers;
  rc.batch = g.batch;
  rc.shards = g.shards;
  // run() PAX_CHECKs program completion and the shard census internally.
  rt::RtResult res =
      rt::ThreadedRuntime(g.program, g.exec, CostModel::free_of_charge(), bodies, rc)
          .run();
  rec.expect_exactly_once();
  EXPECT_EQ(res.granules_executed, g.total);
  EXPECT_GE(metric(res.metrics, "worker.tasks"), g.phases.size());
  EXPECT_LE(res.utilization(), 1.0 + 1e-9);
  // shard.hits (home plus sibling) counts served calls, shard.ring.pop the
  // assignments they popped: every warm hit pops at least one, and only the
  // ring path (more than one shard) counts either.
  if (metric(res.metrics, "shard.count") > 1) {
    EXPECT_GE(metric(res.metrics, "shard.ring.pop"),
              metric(res.metrics, "shard.hits"));
  }
  // A run is one job on a private kFifo pool: its workers never rotate to
  // another job and never leave to answer an arrival, and a lone worker
  // has nobody to shed, so it never caps the job.
  EXPECT_EQ(metric(res.metrics, "worker.rotations"), 0u);
  EXPECT_EQ(metric(res.metrics, "pool.preempt_leaves"), 0u);
  if (g.workers == 1) {
    EXPECT_EQ(metric(res.metrics, "pool.jobs_capped"), 0u);
  }
  return res;
}

/// Run the same program through the pool runtime (with an optional
/// cancelled second job — the cancel point) and check the invariants.
inline void run_pool_checked(const GeneratedProgram& g) {
  ExecutionRecorder rec(g.granules);
  std::atomic<std::uint64_t> sink{0};
  rt::BodyTable bodies = make_recording_bodies(g, rec, sink);

  pool::PoolConfig pc;
  pc.workers = g.workers;
  pc.batch = g.batch;
  pc.shards = g.shards;

  // The throwaway job's program must outlive the pool. Its phase is as
  // large as the generator's biggest so any explicit pool shard count fits.
  PhaseProgram throwaway;
  const PhaseId tp = throwaway.define_phase(make_phase("t", 96).writes("T"));
  throwaway.dispatch(tp);
  throwaway.halt();
  std::atomic<std::uint64_t> throwaway_granules{0};
  rt::BodyTable tbodies;
  tbodies.set(tp, [&](GranuleRange r, WorkerId) {
    throwaway_granules.fetch_add(r.size(), std::memory_order_relaxed);
  });

  std::uint64_t cancelled_granules = 0;
  bool cancelled = false;
  {
    pool::PoolRuntime pool(pc);
    pool::JobHandle main_job = pool.submit(g.program, bodies, g.exec, {});
    pool::JobHandle extra;
    if (g.cancel_second_job) {
      extra = pool.submit(throwaway, tbodies, ExecConfig{}, {});
      cancelled = extra.cancel();  // may lose the race to adoption
    }
    EXPECT_EQ(main_job.wait(), pool::JobState::kComplete);
    if (extra.valid()) {
      const pool::JobState st = extra.wait();
      if (cancelled) {
        // cancel() returning true now covers the mid-run case too: the job
        // still ends kCancelled, but may have executed a partial (or even
        // full) granule count before the cooperative stop drained it.
        EXPECT_EQ(st, pool::JobState::kCancelled);
        EXPECT_LE(extra.stats().granules, 96u);
      } else {
        EXPECT_EQ(st, pool::JobState::kComplete);
        EXPECT_EQ(extra.stats().granules, 96u);
      }
      cancelled_granules = extra.stats().granules;
    }
    pool.shutdown();

    rec.expect_exactly_once();
    const pool::PoolStats ps = pool.stats();
    const pool::JobStats js = main_job.stats();
    EXPECT_EQ(js.granules, g.total);
    EXPECT_EQ(metric(ps.metrics, "worker.granules"), g.total + cancelled_granules)
        << "pool totals disagree with per-job sums";
    EXPECT_EQ(metric(ps.metrics, "pool.jobs_cancelled"), cancelled ? 1u : 0u);
  }
  // Body-side execution count must agree with the job's own accounting,
  // whichever way the cancel race went.
  EXPECT_EQ(throwaway_granules.load(), cancelled_granules);
}

/// Holds each body until `n` distinct workers have entered one, or until
/// `bound` passes: lets several workers become resident on a job before its
/// first merged round, however the host schedules their wake-ups.
class Rendezvous {
 public:
  Rendezvous(std::uint32_t n, std::chrono::nanoseconds bound)
      : n_(n), bound_(bound) {}

  void arrive(WorkerId w) {
    if (met_.load(std::memory_order_acquire)) return;
    const std::uint64_t bit = std::uint64_t{1} << (w % 64);
    const std::uint64_t seen = mask_.fetch_or(bit) | bit;
    if (static_cast<std::uint32_t>(std::popcount(seen)) >= n_) {
      met_.store(true, std::memory_order_release);
      return;
    }
    const auto until = std::chrono::steady_clock::now() + bound_;
    while (!met_.load(std::memory_order_acquire) &&
           std::chrono::steady_clock::now() < until)
      std::this_thread::yield();
  }

  /// True once `n` distinct workers have arrived.
  [[nodiscard]] bool met() const { return met_.load(std::memory_order_acquire); }

 private:
  const std::uint32_t n_;
  const std::chrono::nanoseconds bound_;
  std::atomic<std::uint64_t> mask_{0};
  std::atomic<bool> met_{false};
};

/// A wide no-op job (one phase, grain 1) whose first bodies hold until
/// min(workers, 3) workers are resident. Its control plane outweighs its
/// bodies, so the residency rule caps it with residents to send away: cap
/// leaves then race whatever else the sweep does to the pool. `inj` may
/// seed faults into it (the body checks before recording, as
/// make_faulty_bodies does).
struct WideNoOpJob {
  static constexpr GranuleId kGranules = 8192;

  explicit WideNoOpJob(std::uint32_t workers)
      : granules{kGranules},
        rec(granules),
        inj(granules),
        meet(std::min<std::uint32_t>(workers, 3), std::chrono::milliseconds{2}) {
    const PhaseId p =
        program.define_phase(make_phase("wide", kGranules).writes("W"));
    program.dispatch(p);
    program.halt();
    bodies.set(p, [this](GranuleRange r, WorkerId w) {
      for (GranuleId gr = r.lo; gr < r.hi; ++gr)
        if (inj.should_throw(0, gr))
          throw std::runtime_error("injected fault: wide granule " +
                                   std::to_string(gr));
      meet.arrive(w);
      rec.record(0, r);
    });
    exec.grain = 1;
  }
  WideNoOpJob(const WideNoOpJob&) = delete;
  WideNoOpJob& operator=(const WideNoOpJob&) = delete;

  std::vector<GranuleId> granules;
  PhaseProgram program;
  ExecConfig exec;
  ExecutionRecorder rec;
  FaultInjector inj;
  Rendezvous meet;
  rt::BodyTable bodies;
};

/// Serve-mode stress: a burst of jobs from one generated program under EDF
/// with a bounded admission budget, random deadlines, per-job body costs
/// (so capped and uncapped jobs share the pool, and cap leaves race the
/// cancels and the finalize election), and cancels fired at random points
/// (pre-open, mid-run, post-completion — the race is the point). Checks the
/// terminal-state machine end-to-end: every job lands in exactly one
/// terminal state, granule execution is exactly-once for completed jobs and
/// at-most-once for cancelled ones, rejected jobs never execute, and the
/// per-job stats sums match the pool counters.
///
/// On a multi-worker pool a wide no-op job joins the burst: its first
/// bodies hold until several workers are resident, so its cap latches with
/// residents to send away and cap leaves race everything above. Some
/// arrivals are spaced out, so a more urgent job can arrive while earlier
/// ones hold several workers and draw a spare resident off them.
inline void run_serve_checked(const GeneratedProgram& g) {
  Rng rng(g.seed ^ 0x5EC7E5ULL);
  auto pick = [&](std::uint64_t lo, std::uint64_t hi) {  // inclusive
    return lo + rng() % (hi - lo + 1);
  };

  pool::PoolConfig pc;
  pc.workers = g.workers;
  pc.batch = g.batch;
  pc.shards = g.shards;
  pc.policy = pool::SchedPolicy::kDeadline;
  // Small enough that a fast burst of jobs can overflow it on some seeds
  // (rejection coverage), large enough that it usually doesn't starve.
  pc.max_pending = static_cast<std::uint32_t>(pick(2, 4));

  constexpr std::size_t kGenerated = 6;
  std::vector<std::unique_ptr<ExecutionRecorder>> owned_recs;
  std::vector<std::unique_ptr<std::atomic<std::uint64_t>>> sinks;
  std::vector<std::unique_ptr<rt::BodyTable>> owned_bodies;  // stable addresses
  // Per job: program, config, body table, recorder, granule total.
  struct Spec {
    const PhaseProgram* program;
    ExecConfig exec;
    const rt::BodyTable* bodies;
    ExecutionRecorder* rec;
    std::uint64_t total;
  };
  std::vector<Spec> specs;
  for (std::size_t i = 0; i < kGenerated; ++i) {
    owned_recs.push_back(std::make_unique<ExecutionRecorder>(g.granules));
    sinks.push_back(std::make_unique<std::atomic<std::uint64_t>>(0));
    owned_bodies.push_back(std::make_unique<rt::BodyTable>(make_recording_bodies(
        g, *owned_recs.back(), *sinks.back(), pick_body_spin(rng))));
    specs.push_back({&g.program, g.exec, owned_bodies.back().get(),
                     owned_recs.back().get(), g.total});
  }
  std::unique_ptr<WideNoOpJob> wide;
  if (pc.workers > 1) {
    wide = std::make_unique<WideNoOpJob>(pc.workers);
    // Anywhere in the burst, so it meets every kind of neighbour.
    const auto at = static_cast<std::ptrdiff_t>(pick(0, kGenerated));
    specs.insert(specs.begin() + at, {&wide->program, wide->exec, &wide->bodies,
                                      &wide->rec, WideNoOpJob::kGranules});
  }
  const std::size_t n_jobs = specs.size();

  std::vector<pool::JobHandle> handles;
  {
    pool::PoolRuntime pool(pc);
    for (std::size_t i = 0; i < n_jobs; ++i) {
      pool::PoolRuntime::SubmitOptions opts;
      opts.priority = static_cast<int>(pick(0, 3));
      switch (pick(0, 3)) {
        case 0: break;  // no deadline
        case 1:         // unmeetable: a guaranteed miss if the job completes
          opts.deadline = std::chrono::nanoseconds{1};
          break;
        default:  // generous: normally met
          opts.deadline = std::chrono::milliseconds{200};
          break;
      }
      handles.push_back(
          pool.submit(*specs[i].program, *specs[i].bodies, specs[i].exec, opts));
      // Fire some cancels immediately (pre-open or early mid-run) and some
      // after a progress-dependent delay (late mid-run or post-completion).
      if (pick(0, 2) == 0) {
        if (pick(0, 1) == 1)
          handles.back().wait_for(std::chrono::microseconds{pick(0, 500)});
        handles.back().cancel();
      }
      // Space some arrivals out, so that a job can arrive while the earlier
      // ones hold several workers: an earlier deadline then draws a spare
      // resident off them (the preemption rule), racing the above too.
      if (pick(0, 2) == 0)
        std::this_thread::sleep_for(std::chrono::microseconds{pick(20, 300)});
    }
    pool.drain();

    const pool::PoolStats ps = pool.stats();
    std::uint64_t sum_granules = 0;
    std::uint64_t n_complete = 0, n_cancelled = 0, n_rejected = 0;
    std::uint64_t missed = 0, met = 0;
    for (std::size_t i = 0; i < n_jobs; ++i) {
      const pool::JobState st = handles[i].wait();  // all terminal after drain
      EXPECT_TRUE(pool::is_terminal(st));
      const pool::JobStats js = handles[i].stats();
      ExecutionRecorder& rec = *specs[i].rec;
      EXPECT_EQ(rec.total(), js.granules)
          << "body-side execution count disagrees with job stats";
      sum_granules += js.granules;
      switch (st) {
        case pool::JobState::kComplete:
          ++n_complete;
          rec.expect_exactly_once();
          EXPECT_EQ(js.granules, specs[i].total);
          if (js.has_deadline) (js.deadline_missed ? missed : met) += 1;
          break;
        case pool::JobState::kCancelled:
          ++n_cancelled;
          rec.expect_at_most_once();
          EXPECT_LE(js.granules, specs[i].total);
          EXPECT_FALSE(js.deadline_missed);  // cancelled never counts missed
          break;
        case pool::JobState::kRejected:
          ++n_rejected;
          EXPECT_EQ(js.granules, 0u);
          if (js.has_deadline) {
            EXPECT_TRUE(js.deadline_missed);
            ++missed;
          }
          break;
        default:
          ADD_FAILURE() << "job " << i << " not terminal after drain: "
                        << to_string(st);
      }
    }
    EXPECT_EQ(metric(ps.metrics, "pool.jobs_submitted"), n_jobs);
    EXPECT_EQ(metric(ps.metrics, "pool.jobs_completed"), n_complete);
    EXPECT_EQ(metric(ps.metrics, "pool.jobs_cancelled"), n_cancelled);
    EXPECT_EQ(metric(ps.metrics, "pool.jobs_rejected"), n_rejected);
    EXPECT_EQ(metric(ps.metrics, "pool.deadline_missed"), missed);
    EXPECT_EQ(metric(ps.metrics, "pool.deadline_met"), met);
    pool.shutdown();
    const pool::PoolStats fin = pool.stats();
    EXPECT_EQ(metric(fin.metrics, "worker.granules"), sum_granules)
        << "pool totals disagree with per-job sums";
    // Only a job that opened can latch the cap, and a lone worker has
    // nobody to shed or to leave behind, so neither rule acts there.
    EXPECT_LE(metric(fin.metrics, "pool.jobs_capped"), n_complete + n_cancelled);
    if (pc.workers == 1) {
      EXPECT_EQ(metric(fin.metrics, "pool.jobs_capped"), 0u);
      EXPECT_EQ(metric(fin.metrics, "pool.cap_leaves"), 0u);
      EXPECT_EQ(metric(fin.metrics, "pool.preempt_leaves"), 0u);
    }
    cap_tally().add(fin, n_jobs - n_rejected);
  }
  // Handles outlive the pool: state/stats still answer, cancel degrades.
  for (auto& h : handles) {
    EXPECT_TRUE(h.done());
    EXPECT_FALSE(h.cancel());
  }
}

/// Run the same program on the simulator twice and check work totals and
/// determinism.
inline void run_sim_checked(const GeneratedProgram& g) {
  sim::Workload wl(g.seed);
  sim::MachineConfig mc;
  mc.workers = g.sim_workers;
  mc.shards = g.sim_shards;
  mc.record_intervals = false;
  const sim::SimResult r1 = sim::simulate(g.program, g.exec, CostModel{}, wl, mc);
  EXPECT_EQ(r1.granules_executed, g.total);
  EXPECT_LE(r1.utilization(), 1.0 + 1e-9);
  EXPECT_EQ(r1.shard_exec_ticks.size(), g.sim_shards);
  std::uint64_t lanes = 0;
  for (std::uint64_t t : r1.shard_exec_ticks) lanes += t;
  EXPECT_EQ(lanes, r1.exec_ticks) << "per-lane billing does not sum to total";
  const sim::SimResult r2 = sim::simulate(g.program, g.exec, CostModel{}, wl, mc);
  EXPECT_EQ(r1.makespan, r2.makespan) << "simulation not deterministic";
  EXPECT_EQ(r1.exec_ticks, r2.exec_ticks);
  EXPECT_EQ(r1.tasks_executed, r2.tasks_executed);
}

/// Fault-dimension stress (DESIGN.md §15): seed a plan of transient faults
/// (each site throws a bounded number of times, then succeeds on retry) and
/// run the generated program through the threaded runtime AND the pool on
/// the seed's shard geometry, checking that the barrier + retry machinery
/// preserves every invariant the fault-free sweep pins:
///
///   * exactly-once retirement of every granule (a throwing attempt records
///     nothing, so retries do not double-count),
///   * fault accounting identities: faults == injected throws on both the
///     worker-side and executive-side paths, retries == faults (every
///     transient fault is within budget), zero poisoned granules,
///   * the terminal state is success — transient faults must never fail the
///     program or the job, and sibling pool counters stay consistent.
inline void run_fault_checked(std::uint64_t seed) {
  SCOPED_TRACE("fault seed=" + std::to_string(seed) +
               " (replay: PAX_STRESS_SEED=" + std::to_string(seed) +
               " ctest -R Stress.FaultSweep)");
  const GeneratedProgram g = generate_program(seed);
  Rng rng(seed ^ 0xFA017ULL);
  auto pick = [&](std::uint64_t lo, std::uint64_t hi) {  // inclusive
    return lo + rng() % (hi - lo + 1);
  };

  // Transient plan: a handful of sites, each throwing once or twice.
  // Duplicate sites are fine — set_throws overwrites, and the expected
  // count comes from FaultInjector::injected(), not from the plan.
  struct Site {
    std::size_t phase;
    GranuleId granule;
    std::uint32_t throws;
  };
  std::vector<Site> sites;
  const std::size_t n_sites = pick(1, 6);
  for (std::size_t i = 0; i < n_sites; ++i) {
    const std::size_t p = pick(0, g.phases.size() - 1);
    sites.push_back({p, static_cast<GranuleId>(pick(0, g.granules[p] - 1)),
                     static_cast<std::uint32_t>(pick(1, 2))});
  }
  // Retry budget must cover the worst stack-up of sites in one grain-sized
  // range (attempts are bumped range-wide per fault, so colocated sites
  // compound): 6 sites x 2 throws = 12 < 16.
  constexpr std::uint32_t kBudget = 16;

  // Threaded arm.
  {
    ExecutionRecorder rec(g.granules);
    FaultInjector inj(g.granules);
    for (const Site& s : sites) inj.set_throws(s.phase, s.granule, s.throws);
    std::atomic<std::uint64_t> sink{0};
    rt::BodyTable bodies = make_faulty_bodies(g, rec, sink, inj);
    rt::RtConfig rc;
    rc.workers = g.workers;
    rc.batch = g.batch;
    rc.shards = g.shards;
    ExecConfig ec = g.exec;
    ec.max_granule_retries = kBudget;
    ec.retry_backoff_ticks = static_cast<std::uint32_t>(pick(0, 3));
    rt::RtResult res = rt::ThreadedRuntime(g.program, ec,
                                           CostModel::free_of_charge(), bodies,
                                           rc)
                           .run();
    rec.expect_exactly_once();
    EXPECT_FALSE(res.faulted);
    EXPECT_EQ(res.granules_executed, g.total);
    EXPECT_EQ(metric(res.metrics, "worker.faulted"), inj.injected())
        << "worker-side fault count disagrees with injected throws";
    EXPECT_EQ(metric(res.metrics, "fault.retries"), inj.injected())
        << "every transient fault is within budget, so retries == faults";
    EXPECT_EQ(metric(res.metrics, "fault.poisoned"), 0u);
    EXPECT_EQ(metric(res.metrics, "fault.map"), 0u);
    EXPECT_FALSE(res.fault_summary.empty());
  }

  // Pool arm (fresh recorder and budgets), with the body-cost dimension.
  // On some seeds a sibling job shares the pool whose bodies throw forever
  // at one site: it is retried to exhaustion, poisoned and fails, while the
  // main job completes. On a multi-worker pool a wide no-op job with its
  // own transient faults rides along, so cap leaves race retries, the
  // poison and the finalize election.
  {
    ExecutionRecorder rec(g.granules);
    FaultInjector inj(g.granules);
    for (const Site& s : sites) inj.set_throws(s.phase, s.granule, s.throws);
    std::atomic<std::uint64_t> sink{0};
    rt::BodyTable bodies =
        make_faulty_bodies(g, rec, sink, inj, {}, pick_body_spin(rng));
    const bool poison_sibling = pick(0, 3) == 0;
    ExecutionRecorder prec(g.granules);
    FaultInjector pinj(g.granules);
    if (poison_sibling) {
      const std::size_t p = pick(0, g.phases.size() - 1);
      pinj.set_throws(p, static_cast<GranuleId>(pick(0, g.granules[p] - 1)),
                      FaultInjector::kAlways);
    }
    std::atomic<std::uint64_t> psink{0};
    rt::BodyTable pbodies =
        make_faulty_bodies(g, prec, psink, pinj, {}, pick_body_spin(rng));

    pool::PoolConfig pc;
    pc.workers = g.workers;
    pc.batch = g.batch;
    pc.shards = g.shards;
    ExecConfig ec = g.exec;
    ec.max_granule_retries = kBudget;
    ec.retry_backoff_ticks = static_cast<std::uint32_t>(pick(0, 3));

    std::unique_ptr<WideNoOpJob> wide;
    if (pc.workers > 1) {
      wide = std::make_unique<WideNoOpJob>(pc.workers);
      const std::size_t n_wide_sites = pick(0, 3);
      for (std::size_t i = 0; i < n_wide_sites; ++i)
        wide->inj.set_throws(
            0, static_cast<GranuleId>(pick(0, WideNoOpJob::kGranules - 1)),
            static_cast<std::uint32_t>(pick(1, 2)));
      wide->exec.max_granule_retries = kBudget;
      wide->exec.retry_backoff_ticks = ec.retry_backoff_ticks;
    }

    pool::PoolRuntime pool(pc);
    pool::JobHandle h = pool.submit(g.program, bodies, ec, {});
    pool::JobHandle ph;
    if (poison_sibling) ph = pool.submit(g.program, pbodies, ec, {});
    pool::JobHandle wh;
    if (wide != nullptr) wh = pool.submit(wide->program, wide->bodies, wide->exec, {});
    EXPECT_EQ(h.wait(), pool::JobState::kComplete);
    if (poison_sibling) {
      EXPECT_EQ(ph.wait(), pool::JobState::kFailed);
    }
    if (wide != nullptr) {
      EXPECT_EQ(wh.wait(), pool::JobState::kComplete);
    }
    pool.shutdown();

    rec.expect_exactly_once();
    const pool::JobStats js = h.stats();
    EXPECT_EQ(js.granules, g.total);
    EXPECT_EQ(js.granule_faults, inj.injected());
    EXPECT_EQ(js.granule_retries, inj.injected());
    EXPECT_EQ(js.granules_poisoned, 0u);
    EXPECT_TRUE(inj.injected() == 0 || !js.fault_summary.empty());
    pool::JobStats pjs;
    if (poison_sibling) {
      pjs = ph.stats();
      prec.expect_at_most_once();
      EXPECT_EQ(prec.total(), pjs.granules);
      EXPECT_GE(pjs.granules_poisoned, 1u);
      EXPECT_EQ(pjs.granule_faults, pinj.injected());
      EXPECT_FALSE(pjs.fault_summary.empty());
    }
    std::uint64_t wide_granules = 0;
    std::uint64_t wide_faults = 0;
    if (wide != nullptr) {
      const pool::JobStats wjs = wh.stats();
      wide->rec.expect_exactly_once();
      wide_granules = wjs.granules;
      wide_faults = wide->inj.injected();
      EXPECT_EQ(wide_granules, WideNoOpJob::kGranules);
      EXPECT_EQ(wjs.granule_faults, wide_faults);
      EXPECT_EQ(wjs.granule_retries, wide_faults);
    }
    const pool::PoolStats ps = pool.stats();
    EXPECT_EQ(metric(ps.metrics, "pool.jobs_completed"), wide != nullptr ? 2u : 1u);
    EXPECT_EQ(metric(ps.metrics, "pool.jobs_failed"), poison_sibling ? 1u : 0u);
    EXPECT_EQ(metric(ps.metrics, "worker.granules"),
              g.total + pjs.granules + wide_granules);
    EXPECT_EQ(metric(ps.metrics, "worker.faulted"),
              inj.injected() + pinj.injected() + wide_faults)
        << "pool worker-side fault total disagrees with injected throws";
    EXPECT_EQ(metric(ps.metrics, "fault.retries"),
              inj.injected() + pjs.granule_retries + wide_faults)
        << "executive-side retry sum disagrees — the two accounting paths "
           "must cross-check";
    EXPECT_EQ(metric(ps.metrics, "fault.poisoned"), pjs.granules_poisoned);
    EXPECT_EQ(metric(ps.metrics, "fault.watchdog_flags"), 0u);
    cap_tally().add(ps, 1 + (poison_sibling ? 1 : 0) + (wide != nullptr ? 1 : 0));
  }
}

/// The full cross-runtime check for one seed.
inline void run_seed(std::uint64_t seed) {
  SCOPED_TRACE("seed=" + std::to_string(seed) +
               " (replay: PAX_STRESS_SEED=" + std::to_string(seed) +
               " ctest -R stress)");
  const GeneratedProgram g = generate_program(seed);
  run_threaded_checked(g);
  run_pool_checked(g);
  run_sim_checked(g);
}

}  // namespace pax::testing
