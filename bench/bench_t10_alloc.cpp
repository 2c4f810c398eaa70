// bench_t10_alloc — Experiment T10.
//
// PRs 1-4 decontended the executive (batching, stealing, sharding); this
// bench gates the layer below all of them: the control plane's *heap
// traffic*. The rundown analysis says utilization dies when per-granule
// management cost grows against shrinking task cost, and the work-inflation
// results of Acar et al. locate much of that inflation in allocator traffic
// and memory effects inside the scheduler. After the arena/workspace rework
// (DESIGN.md §10) the steady-state worker protocol performs no heap
// allocation at all; this binary links the counting operator new/delete
// hooks (common/alloc_stats.hpp) and holds the claim to numbers.
//
// Gates (exit non-zero on failure):
//   1. Steady-state allocations per granule on the single-threaded executive
//      hot path (scattered reverse-indirect workload, grain 16, batch 16),
//      measured deterministically over a warm window: must be at least 10x
//      below the pre-rework baseline of ~0.123 allocs/granule (measured on
//      the PR 4 tree with this exact workload) — in practice it is ~0.003,
//      all of it residual high-water growth, with long-run windows at zero.
//      The same workload and window driven through the sharded executive's
//      acquire protocol (two shards: ring pops, deposit pushes, sweeps,
//      spill) must clear the same bar.
//   2. Control-plane ns/granule no worse than the T9 protocol: the T9
//      workload at the full worker count must still hold sharded
//      acquire-to-release hold time per granule strictly below the 1-shard
//      baseline (medians of 3, up to 4 attempts, interleaved) — i.e. the
//      allocation discipline did not tax the path T9 optimised.
//
// Reported alongside: bytes/granule, threaded allocs/granule for both shard
// modes (the run's heap.allocs metric; process-wide, so worker threads
// count).
#define PAX_ALLOC_STATS_IMPLEMENT
#include "common/alloc_stats.hpp"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "runtime/threaded_runtime.hpp"

namespace {

using namespace pax;
using pax::bench::fixed;
using pax::bench::spin;

// --- gate 1: deterministic steady-state allocs/granule ----------------------

/// Pre-rework baseline for this exact workload, measured on the PR 4 tree
/// (per-ticket `newly` vectors, per-batch DeferredEnable tables, coalesce
/// temporaries): 0.123 allocs per granule in the same warm window. Shared
/// via bench_util so the serve and fault benches hold to the same bar.
constexpr double kPreReworkAllocsPerGranule =
    pax::bench::kT10PreReworkAllocsPerGranule;
constexpr double kRequiredReduction = pax::bench::kT10RequiredReduction;

struct SteadyState {
  double allocs_per_granule = 0.0;
  double bytes_per_granule = 0.0;
  std::uint64_t granules = 0;
};

/// The gate-1 workload: two phases bridged by a scattered reverse-indirect
/// map (fan 3), grain 16, map built eagerly.
PhaseProgram steady_state_program() {
  const GranuleId n = 200000;
  PhaseProgram prog;
  prog.define_phase(make_phase("a", n).writes("X"));
  prog.define_phase(make_phase("b", n).reads("X").writes("Y"));
  EnableClause clause{"b", MappingKind::kReverseIndirect, {}};
  clause.indirection.requires_of = [n](GranuleId r, std::vector<GranuleId>& out) {
    out.insert(out.end(), {r, (r * 7 + 3) % n, (r * 13 + 11) % n});
  };
  prog.dispatch(0, {clause});
  prog.dispatch(1);
  prog.halt();
  return prog;
}

ExecConfig steady_state_config() {
  ExecConfig cfg;
  cfg.grain = 16;
  cfg.defer_map_build = false;
  return cfg;
}

double per_granule(std::uint64_t n, std::uint64_t granules) {
  return granules > 0
             ? static_cast<double>(n) / static_cast<double>(granules)
             : 0.0;
}

SteadyState steady_state_allocs() {
  const PhaseProgram prog = steady_state_program();
  ExecutiveCore core(prog, steady_state_config(), CostModel::free_of_charge());
  core.start();

  std::vector<Assignment> out;
  out.reserve(32);
  std::vector<Ticket> done;
  done.reserve(32);
  SteadyState res;
  std::uint64_t measured_allocs = 0, measured_bytes = 0;
  int cycles = 0;
  while (!core.finished()) {
    out.clear();
    done.clear();
    const AllocTotals t0 = alloc_stats::thread_totals();
    if (core.request_work_batch(0, 16, out) == 0) {
      if (!core.idle_work()) break;
      continue;
    }
    for (const Assignment& a : out) done.push_back(a.ticket);
    core.complete_batch(done);
    ++cycles;
    // Warm window: skip the first 500 cycles (map build, pool/range-set
    // high-water growth) exactly as the pre-rework baseline run did.
    if (cycles > 500) {
      const AllocTotals d = alloc_stats::delta(t0, alloc_stats::thread_totals());
      measured_allocs += d.allocs;
      measured_bytes += d.bytes;
      for (const Assignment& a : out) res.granules += a.range.size();
    }
  }
  res.allocs_per_granule = per_granule(measured_allocs, res.granules);
  res.bytes_per_granule = per_granule(measured_bytes, res.granules);
  return res;
}

/// Gate 1's window through the sharded executive: one thread plays the
/// worker protocol against two shards, so the rings themselves — pops,
/// deposit pushes, sweeps, spill — are the measured path. Deterministic.
SteadyState steady_state_allocs_sharded() {
  const PhaseProgram prog = steady_state_program();
  ShardConfig sc;
  sc.shards = 2;
  sc.workers = 2;
  sc.batch = 16;
  ShardedExecutive exec(prog, steady_state_config(),
                        CostModel::free_of_charge(), sc);
  exec.start();

  std::vector<Assignment> out;
  out.reserve(64);
  std::vector<Ticket> done;
  done.reserve(64);
  SteadyState res;
  std::uint64_t measured_allocs = 0, measured_bytes = 0;
  int cycles = 0, dry = 0;
  while (!exec.finished() && dry < 10000) {
    out.clear();
    const AllocTotals t0 = alloc_stats::thread_totals();
    const ShardAcquire r = exec.acquire(0, 16, done, out);
    // acquire() consumed `done` (deposited or retired); refill it with this
    // cycle's tickets for the next call — the worker protocol verbatim.
    done.clear();
    for (const Assignment& a : out) done.push_back(a.ticket);
    ++cycles;
    if (cycles > 500) {
      const AllocTotals d = alloc_stats::delta(t0, alloc_stats::thread_totals());
      measured_allocs += d.allocs;
      measured_bytes += d.bytes;
      for (const Assignment& a : out) res.granules += a.range.size();
    }
    dry = r.taken == 0 ? dry + 1 : 0;
  }
  if (!done.empty()) {
    out.clear();
    exec.acquire(0, 0, done, out);  // retire the final batch
  }
  res.allocs_per_granule = per_granule(measured_allocs, res.granules);
  res.bytes_per_granule = per_granule(measured_bytes, res.granules);
  return res;
}

// --- gate 2: the T9 protocol with the allocation-free control plane ---------
// The workload, knobs and run harness are bench_util's shared T9 protocol
// definition — the same one bench_t9_shard gates — so the "no worse than T9"
// comparison can never drift onto a different workload.

constexpr std::uint64_t kTotal = pax::bench::kT9Total;
constexpr std::uint32_t kBatch = pax::bench::kT9Batch;

rt::RtResult run_once(std::uint32_t workers, std::uint32_t shards) {
  return pax::bench::run_t9_protocol(workers, shards);
}

double hold_ns_per_granule(const rt::RtResult& r) {
  return static_cast<double>(r.metrics.at("exec.control_hold_ns")) /
         static_cast<double>(r.granules_executed);
}

double allocs_per_granule(const rt::RtResult& r) {
  return static_cast<double>(r.metrics.at("heap.allocs")) /
         static_cast<double>(r.granules_executed);
}

struct ModeMetrics {
  double hold = 0.0;    // control-lock hold ns / granule (median of reps)
  double allocs = 0.0;  // heap allocs / granule (median of reps)
  rt::RtResult mid;     // hold-median repetition, for table rows
  bool granules_ok = true;
};

ModeMetrics metrics_of(std::vector<rt::RtResult> reps) {
  ModeMetrics m;
  for (const rt::RtResult& r : reps)
    if (r.granules_executed != kTotal) m.granules_ok = false;
  std::sort(reps.begin(), reps.end(),
            [](const rt::RtResult& x, const rt::RtResult& y) {
              return allocs_per_granule(x) < allocs_per_granule(y);
            });
  m.allocs = allocs_per_granule(reps[reps.size() / 2]);
  std::sort(reps.begin(), reps.end(),
            [](const rt::RtResult& x, const rt::RtResult& y) {
              return hold_ns_per_granule(x) < hold_ns_per_granule(y);
            });
  m.hold = hold_ns_per_granule(reps[reps.size() / 2]);
  m.mid = std::move(reps[reps.size() / 2]);
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace pax;
  using namespace pax::bench;
  JsonReport json = JsonReport::from_args(argc, argv);
  print_banner("T10 — allocation-free control plane: arena + workspace",
               "per-granule management cost must not inflate with allocator "
               "traffic inside the scheduler; the steady-state worker "
               "protocol performs no heap allocation once warm");

  // --- gate 1 -----------------------------------------------------------------
  const SteadyState ss = steady_state_allocs();
  const SteadyState sh = steady_state_allocs_sharded();
  auto at_bar = [](const SteadyState& s) {
    return s.granules > 0 && s.allocs_per_granule * kRequiredReduction <=
                                 kPreReworkAllocsPerGranule;
  };
  auto reduction = [](const SteadyState& s) {
    return s.allocs_per_granule > 0.0
               ? kPreReworkAllocsPerGranule / s.allocs_per_granule
               : 1e9;
  };
  const bool gate1 = at_bar(ss) && at_bar(sh);

  Table t1("T10a — executive hot path, warm window (core alone, 2 shards)");
  t1.header({"path", "granules", "allocs/granule", "bytes/granule",
             "pre-rework", "reduction"});
  for (const SteadyState* s : {&ss, &sh}) {
    const char* path = s == &ss ? "core" : "sharded";
    t1.row({path, Table::count(s->granules), fixed(s->allocs_per_granule, 4),
            fixed(s->bytes_per_granule, 1),
            fixed(kPreReworkAllocsPerGranule, 3),
            fixed(reduction(*s), 1) + "x"});
    const std::string config =
        std::string("grain=16 batch=16 reverse-indirect fan=3 path=") + path;
    json.add("t10_alloc", "steady_allocs_per_granule", s->allocs_per_granule,
             config);
    json.add("t10_alloc", "steady_bytes_per_granule", s->bytes_per_granule,
             config);
  }
  t1.print(std::cout);

  // --- gate 2 -----------------------------------------------------------------
  const std::uint32_t workers =
      std::max(8u, std::min(16u, std::thread::hardware_concurrency()));
  json.set_meta("workers", workers);
  json.set_meta("batch", kBatch);
  json.set_meta("shards", "1 vs auto");
  constexpr int kReps = 3;
  constexpr int kAttempts = 4;  // whole-measurement retries against host noise

  bool gate2 = false;
  ModeMetrics base, shard;
  for (int attempt = 0; attempt < kAttempts && !gate2; ++attempt) {
    // Interleave the repetitions (b,s,b,s,...) so slow host-load drift hits
    // both modes evenly instead of biasing whichever ran last.
    std::vector<rt::RtResult> base_reps, shard_reps;
    for (int i = 0; i < kReps; ++i) {
      base_reps.push_back(run_once(workers, /*shards=*/1));
      shard_reps.push_back(run_once(workers, kAutoShards));
    }
    base = metrics_of(std::move(base_reps));
    shard = metrics_of(std::move(shard_reps));
    gate2 = base.granules_ok && shard.granules_ok && shard.hold < base.hold;
  }

  Table t2("T10b — T9 workload, allocation-free control plane");
  t2.header({"workers", "mode", "shards", "granules", "hold ns/g",
             "allocs/g", "heap bytes", "wall ms"});
  for (const ModeMetrics* m : {&base, &shard}) {
    const rt::RtResult& r = m->mid;
    t2.row({std::to_string(workers), m == &base ? "1-shard" : "sharded",
            std::to_string(r.metrics.at("shard.count")),
            Table::count(r.granules_executed), fixed(m->hold, 1),
            fixed(m->allocs, 4), Table::count(r.metrics.at("heap.bytes")),
            fixed(static_cast<double>(r.wall.count()) / 1e6, 1)});
    const std::string config = "workers=" + std::to_string(workers) +
                               " batch=" + std::to_string(kBatch) +
                               " shards=" + std::to_string(r.metrics.at("shard.count"));
    json.add("t10_alloc", "lock_hold_ns_per_granule", m->hold, config);
    json.add("t10_alloc", "threaded_allocs_per_granule", m->allocs, config);
  }
  t2.print(std::cout);

  const bool pass = gate1 && gate2;
  std::printf(
      "\nacceptance: steady-state allocs/granule %.4f (core) and %.4f "
      "(sharded) vs pre-rework %.3f (need >= %.0fx reduction, got %.1fx and "
      "%.1fx): %s; T9-protocol hold ns/granule %.1f vs 1-shard %.1f at %u "
      "workers (medians of %d, up to %d attempts, need <): %s => %s\n",
      ss.allocs_per_granule, sh.allocs_per_granule, kPreReworkAllocsPerGranule,
      kRequiredReduction, reduction(ss), reduction(sh),
      gate1 ? "PASS" : "FAIL", shard.hold, base.hold, workers, kReps,
      kAttempts, gate2 ? "PASS" : "FAIL", pass ? "PASS" : "FAIL");
  return pass ? 0 : 1;
}
