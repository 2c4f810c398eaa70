// bench_micro_scheduler — Experiment M1.
//
// google-benchmark microbenchmarks of the executive's primitive operations,
// supporting the T3 management-ratio accounting: descriptor pool churn,
// waiting-queue and conflict-ring operations, carving, composite-map
// construction and counter updates, a full request/complete cycle, and the
// dispatch layer's refill + drain loop on top of it.
#include <benchmark/benchmark.h>

#include "common/rng.hpp"
#include "core/descriptor.hpp"
#include "core/enablement.hpp"
#include "core/executive.hpp"
#include "core/range_set.hpp"
#include "core/sharded_executive.hpp"
#include "core/waiting_queue.hpp"
#include "sched/dispatcher.hpp"

namespace pax {
namespace {

void BM_DescriptorPoolAcquireRelease(benchmark::State& state) {
  DescriptorPool pool;
  for (auto _ : state) {
    Descriptor& d = pool.acquire(0, 0, {0, 16});
    benchmark::DoNotOptimize(&d);
    pool.release(d);
  }
}
BENCHMARK(BM_DescriptorPoolAcquireRelease);

void BM_WaitingQueueEnqueueDequeue(benchmark::State& state) {
  DescriptorPool pool;
  WaitingQueue q;
  std::vector<Descriptor*> descs;
  for (int i = 0; i < 64; ++i)
    descs.push_back(&pool.acquire(0, 0, {static_cast<GranuleId>(i),
                                         static_cast<GranuleId>(i + 1)}));
  for (auto _ : state) {
    for (Descriptor* d : descs) q.enqueue(*d);
    while (Descriptor* d = q.pop()) benchmark::DoNotOptimize(d);
  }
  for (Descriptor* d : descs) pool.release(*d);
}
BENCHMARK(BM_WaitingQueueEnqueueDequeue);

void BM_ConflictRingPushDrain(benchmark::State& state) {
  DescriptorPool pool;
  Descriptor& owner = pool.acquire(0, 0, {0, 64});
  std::vector<Descriptor*> waiters;
  for (int i = 0; i < 16; ++i)
    waiters.push_back(&pool.acquire(1, 1, {static_cast<GranuleId>(i),
                                           static_cast<GranuleId>(i + 1)}));
  for (auto _ : state) {
    for (Descriptor* w : waiters) owner.conflict_queue.push_back(*w);
    owner.conflict_queue.drain([](Descriptor& d) { benchmark::DoNotOptimize(&d); });
  }
  for (Descriptor* w : waiters) pool.release(*w);
  pool.release(owner);
}
BENCHMARK(BM_ConflictRingPushDrain);

void BM_RangeSetInsertFragmented(benchmark::State& state) {
  const auto n = static_cast<GranuleId>(state.range(0));
  for (auto _ : state) {
    RangeSet rs;
    // Worst-ish case: evens then odds (maximal fragmentation, then merge).
    for (GranuleId g = 0; g < n; g += 2) rs.insert({g, g + 1});
    for (GranuleId g = 1; g < n; g += 2) rs.insert({g, g + 1});
    benchmark::DoNotOptimize(rs.fragments());
  }
}
BENCHMARK(BM_RangeSetInsertFragmented)->Arg(64)->Arg(512);

void BM_CompositeMapBuildReverse(benchmark::State& state) {
  const auto n = static_cast<GranuleId>(state.range(0));
  auto requires_of = [n](GranuleId r, std::vector<GranuleId>& need) {
    std::uint64_t s = 0x1234 ^ (static_cast<std::uint64_t>(r) << 7);
    for (int j = 0; j < 10; ++j)
      need.push_back(static_cast<GranuleId>(splitmix64(s) % n));
  };
  for (auto _ : state) {
    auto built = CompositeGranuleMap::build_reverse(n, n, requires_of);
    benchmark::DoNotOptimize(built.entries);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) * 10);
}
BENCHMARK(BM_CompositeMapBuildReverse)->Arg(256)->Arg(4096);

void BM_CompositeMapOnComplete(benchmark::State& state) {
  const GranuleId n = 4096;
  auto requires_of = [](GranuleId r, std::vector<GranuleId>& need) {
    std::uint64_t s = 0x9876 ^ (static_cast<std::uint64_t>(r) << 9);
    for (int j = 0; j < 10; ++j)
      need.push_back(static_cast<GranuleId>(splitmix64(s) % n));
  };
  auto built = CompositeGranuleMap::build_reverse(n, n, requires_of);
  std::vector<GranuleId> newly;
  GranuleId g = 0;
  for (auto _ : state) {
    state.PauseTiming();
    // Re-build once we run out of fresh granules.
    if (g == n) {
      built = CompositeGranuleMap::build_reverse(n, n, requires_of);
      g = 0;
    }
    newly.clear();
    state.ResumeTiming();
    benchmark::DoNotOptimize(built.map.on_complete(g++, newly));
  }
}
BENCHMARK(BM_CompositeMapOnComplete);

void BM_RequestCompleteCycle(benchmark::State& state) {
  // Full executive round trip: request a grain-4 task and complete it, over
  // a long single-phase program (re-created when drained).
  const GranuleId n = 1 << 20;
  auto make_core = [&] {
    auto prog = std::make_unique<PhaseProgram>();
    PhaseId p = prog->define_phase(make_phase("p", n));
    prog->dispatch(p);
    prog->halt();
    return prog;
  };
  auto prog = make_core();
  ExecConfig cfg;
  cfg.grain = 4;
  auto core = std::make_unique<ExecutiveCore>(*prog, cfg, CostModel::free_of_charge());
  core->start();
  for (auto _ : state) {
    auto a = core->request_work(0);
    if (!a.has_value()) {
      state.PauseTiming();
      prog = make_core();
      core = std::make_unique<ExecutiveCore>(*prog, cfg, CostModel::free_of_charge());
      core->start();
      state.ResumeTiming();
      a = core->request_work(0);
    }
    core->complete(a->ticket);
  }
}
BENCHMARK(BM_RequestCompleteCycle);

void BM_RequestCompleteCycleWithIdentityOverlap(benchmark::State& state) {
  const GranuleId n = 1 << 19;
  auto make_prog = [&] {
    auto prog = std::make_unique<PhaseProgram>();
    PhaseId a = prog->define_phase(make_phase("a", n).writes("X"));
    PhaseId b = prog->define_phase(make_phase("b", n).reads("X"));
    prog->dispatch(a, {EnableClause{"b", MappingKind::kIdentity, {}}});
    prog->dispatch(b);
    prog->halt();
    return prog;
  };
  ExecConfig cfg;
  cfg.grain = 4;
  auto prog = make_prog();
  auto core = std::make_unique<ExecutiveCore>(*prog, cfg, CostModel::free_of_charge());
  core->start();
  for (auto _ : state) {
    auto a = core->request_work(0);
    if (!a.has_value()) {
      state.PauseTiming();
      prog = make_prog();
      core = std::make_unique<ExecutiveCore>(*prog, cfg, CostModel::free_of_charge());
      core->start();
      state.ResumeTiming();
      a = core->request_work(0);
    }
    core->complete(a->ticket);
  }
}
BENCHMARK(BM_RequestCompleteCycleWithIdentityOverlap);

void BM_DispatcherRefillDrain(benchmark::State& state) {
  // The dispatch layer's per-task cost: one worker, one shard, batch 8, and
  // a 2^16-granule grain-1 phase of no-op bodies driven through
  // Dispatcher::refill + drain_local until the program finishes. Read
  // against BM_RequestCompleteCycle (the executive alone), time_per_task
  // splits executive cost from dispatch cost, so a per-task cost added to
  // either layer shows up here.
  const GranuleId n = 1 << 16;
  PhaseProgram prog;
  const PhaseId p = prog.define_phase(make_phase("p", n));
  prog.dispatch(p);
  prog.halt();
  ExecConfig cfg;
  cfg.grain = 1;
  const ShardConfig shards{.shards = 1, .workers = 1, .batch = sched::kDefaultBatch};
  rt::BodyTable bodies;
  bodies.set(p, [](GranuleRange, WorkerId) {});
  std::vector<Ticket> done;
  std::uint64_t tasks = 0;
  for (auto _ : state) {
    state.PauseTiming();
    sched::Dispatcher d({.workers = 1, .batch = sched::kDefaultBatch});
    ShardedExecutive ex(prog, cfg, CostModel::free_of_charge(), shards);
    ex.start();
    done.clear();
    done.reserve(d.capacity());
    sched::BodyLoopStats stats;
    state.ResumeTiming();
    while (!ex.finished()) {
      d.refill(ex, 0, done);
      d.drain_local(bodies, 0, done, stats);
    }
    benchmark::DoNotOptimize(stats);
    tasks += stats.tasks;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(tasks));
  state.counters["time_per_task"] = benchmark::Counter(
      static_cast<double>(tasks),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_DispatcherRefillDrain)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace pax

BENCHMARK_MAIN();
