// test_alloc.cpp — the memory-discipline regression suite (DESIGN.md §10).
//
// This binary defines PAX_ALLOC_STATS_IMPLEMENT, so the global operator
// new/delete are the counting hooks of common/alloc_stats.hpp and a warm
// executive cycle can be asserted to perform literally ZERO heap
// allocations. The warm paths the hooks pin: the core's request/complete
// cycle, the two-shard acquire protocol, the trace-ring and metric-cell
// emit path, and a pool's marginal cost per extra granule. Alongside them:
// unit tests for the arena/slab layer, the live-table iteration fix in the
// executive teardown/completion paths, and the sharded executive's
// reusable census-lock staging.
#define PAX_ALLOC_STATS_IMPLEMENT
#include "common/alloc_stats.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <numeric>
#include <vector>

#include "common/arena.hpp"
#include "core/executive.hpp"
#include "core/sharded_executive.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_ring.hpp"
#include "pool/pool_runtime.hpp"

namespace pax {
namespace {

// --- arena -----------------------------------------------------------------

TEST(Arena, AlignedBumpAllocation) {
  MonotonicArena arena(256);
  void* a = arena.allocate(1, 1);
  void* b = arena.allocate(8, 8);
  void* c = arena.allocate(32, 32);
  EXPECT_NE(a, nullptr);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(b) % 8, 0u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(c) % 32, 0u);
  EXPECT_NE(a, b);
  EXPECT_NE(b, c);
}

TEST(Arena, GrowsByChunksAndHandlesOversized) {
  MonotonicArena arena(64);
  for (int i = 0; i < 16; ++i) arena.allocate(16, 8);  // forces several chunks
  EXPECT_GT(arena.chunk_count(), 1u);
  // An allocation larger than the chunk size gets a dedicated chunk.
  void* big = arena.allocate(1024, 16);
  EXPECT_NE(big, nullptr);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(big) % 16, 0u);
}

TEST(Arena, ResetReusesChunksWithoutNewHeapTraffic) {
  MonotonicArena arena(128);
  for (int i = 0; i < 32; ++i) arena.allocate(24, 8);
  const std::size_t chunks = arena.chunk_count();
  const std::size_t reserved = arena.bytes_reserved();
  arena.reset();
  alloc_stats::ThreadScope scope;
  for (int i = 0; i < 32; ++i) arena.allocate(24, 8);
  EXPECT_EQ(scope.so_far().allocs, 0u) << "reset replay must reuse chunks";
  EXPECT_EQ(arena.chunk_count(), chunks);
  EXPECT_EQ(arena.bytes_reserved(), reserved);
}

// --- slab ------------------------------------------------------------------

struct SlabProbe {
  static int live_objects;
  std::vector<int> payload;
  SlabProbe() { ++live_objects; }
  ~SlabProbe() { --live_objects; }
};
int SlabProbe::live_objects = 0;

TEST(Slab, StableAddressesAcrossGrowth) {
  Slab<SlabProbe> slab(128);  // small chunks: force several
  std::vector<SlabProbe*> ptrs;
  for (int i = 0; i < 64; ++i) ptrs.push_back(&slab.acquire());
  EXPECT_EQ(slab.created(), 64u);
  EXPECT_EQ(slab.live(), 64u);
  // Every address distinct and still valid (write through all of them).
  for (std::size_t i = 0; i < ptrs.size(); ++i)
    ptrs[i]->payload.assign(4, static_cast<int>(i));
  for (std::size_t i = 0; i < ptrs.size(); ++i)
    EXPECT_EQ(ptrs[i]->payload[0], static_cast<int>(i));
}

TEST(Slab, RecycleReturnsSameSlotWithStateIntact) {
  Slab<SlabProbe> slab;
  SlabProbe& a = slab.acquire();
  a.payload.assign(100, 7);
  const int* data = a.payload.data();
  slab.release(a);
  EXPECT_EQ(slab.live(), 0u);
  EXPECT_EQ(slab.free_count(), 1u);
  SlabProbe& b = slab.acquire();
  // Same slot, same buffer: the recycled object keeps its grown capacity —
  // the property the executive's edge/composite-map reuse relies on.
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(b.payload.data(), data);
  EXPECT_EQ(slab.created(), 1u);
}

TEST(Slab, RecycledAcquireIsAllocationFree) {
  Slab<SlabProbe> slab;
  SlabProbe& a = slab.acquire();
  a.payload.reserve(64);
  slab.release(a);
  alloc_stats::ThreadScope scope;
  SlabProbe& b = slab.acquire();
  b.payload.assign(64, 1);  // fits the recycled capacity
  slab.release(b);
  EXPECT_EQ(scope.so_far().allocs, 0u);
}

TEST(Slab, DestructorDestroysEveryConstructedObject) {
  const int before = SlabProbe::live_objects;
  {
    Slab<SlabProbe> slab;
    for (int i = 0; i < 10; ++i) slab.acquire();
    SlabProbe& r = slab.acquire();
    slab.release(r);  // released objects are destroyed exactly once too
    EXPECT_EQ(SlabProbe::live_objects, before + 11);
  }
  EXPECT_EQ(SlabProbe::live_objects, before);
}

// --- alloc_stats sanity ----------------------------------------------------

TEST(AllocStats, HooksCountThisBinary) {
  ASSERT_TRUE(alloc_stats::active());
  alloc_stats::ThreadScope scope;
  {
    std::vector<int> v(1000);
    EXPECT_EQ(std::accumulate(v.begin(), v.end(), 0), 0);
  }
  const AllocTotals d = scope.so_far();
  EXPECT_GE(d.allocs, 1u);
  EXPECT_GE(d.frees, 1u);
  EXPECT_GE(d.bytes, 1000u * sizeof(int));
}

// --- the zero-allocation steady state --------------------------------------

PhaseProgram identity_two_phase(GranuleId n) {
  PhaseProgram prog;
  prog.define_phase(make_phase("a", n).writes("X"));
  prog.define_phase(make_phase("b", n).reads("X").writes("Y"));
  prog.dispatch(0, {EnableClause{"b", MappingKind::kIdentity, {}}});
  prog.dispatch(1);
  prog.halt();
  return prog;
}

/// Drive `core` for `cycles` request/complete rounds of `batch` assignments
/// (or until drained). Returns the cycles actually executed.
int pump(ExecutiveCore& core, std::vector<Assignment>& out,
         std::vector<Ticket>& done, std::size_t batch, int cycles) {
  int done_cycles = 0;
  while (done_cycles < cycles && !core.finished()) {
    out.clear();
    done.clear();
    if (core.request_work_batch(0, batch, out) == 0) {
      if (!core.idle_work()) break;
      continue;
    }
    for (const Assignment& a : out) done.push_back(a.ticket);
    core.complete_batch(done);
    ++done_cycles;
  }
  return done_cycles;
}

TEST(ZeroAlloc, WarmIdentitySteadyStateAllocatesNothing) {
  // Once the executive's structures reach their high-water mark,
  // N further request_work_batch/complete_batch cycles perform ZERO heap
  // allocations — not "few", zero. Identity mapping exercises enqueue,
  // merge-on-enqueue, conflict release, carving and ticket recycling.
  // elevate_released keeps the released successor pieces draining at the
  // same rate they are produced (the paper's elevated lane), so the live
  // descriptor population is stationary — without it phase B's backlog grows
  // for the whole of phase A and the pool never stops extending.
  const GranuleId n = 60000;
  PhaseProgram prog = identity_two_phase(n);
  ExecConfig cfg;
  cfg.grain = 8;
  cfg.elevate_released = true;
  ExecutiveCore core(prog, cfg, CostModel::free_of_charge());
  core.start();

  std::vector<Assignment> out;
  out.reserve(64);
  std::vector<Ticket> done;
  done.reserve(64);
  ASSERT_EQ(pump(core, out, done, 8, 400), 400);  // warm-up

  alloc_stats::ThreadScope scope;
  ASSERT_EQ(pump(core, out, done, 8, 800), 800);
  const AllocTotals d = scope.so_far();
  EXPECT_EQ(d.allocs, 0u)
      << "steady-state executive cycle allocated (" << d.allocs << " allocs, "
      << d.bytes << " bytes)";
  EXPECT_EQ(d.frees, 0u);

  // Drain to completion; program correctness unchanged by the measurement.
  while (!core.finished() && pump(core, out, done, 8, 1 << 20) > 0) {
  }
  EXPECT_TRUE(core.finished());
  EXPECT_EQ(core.live_descriptors(), 0u);
}

TEST(ZeroAlloc, WarmReverseIndirectSteadyStateAllocatesNothing) {
  // Indirect enablement is the path that used to allocate per ticket (the
  // `newly` vector) and per batch (the DeferredEnable table + coalesce
  // temporaries). Warm, it must be allocation-free too. A near-diagonal
  // indirection keeps the successor's completion order contiguous (the
  // range-set and merge-on-enqueue stay at a bounded fragment count), and
  // elevate_released keeps the enabled work draining as fast as it fires —
  // both make the steady state stationary so "zero" is exact, while the
  // counter-decrement / deferred-flush / coalesce machinery all still runs.
  const GranuleId n = 120000;
  PhaseProgram prog;
  prog.define_phase(make_phase("a", n).writes("X"));
  prog.define_phase(make_phase("b", n).reads("X").writes("Y"));
  EnableClause clause{"b", MappingKind::kReverseIndirect, {}};
  clause.indirection.requires_of = [n](GranuleId r, std::vector<GranuleId>& out) {
    out.insert(out.end(), {r, (r + 1) % n, (r + 2) % n});
  };
  prog.dispatch(0, {clause});
  prog.dispatch(1);
  prog.halt();

  ExecConfig cfg;
  cfg.grain = 16;
  cfg.defer_map_build = false;
  cfg.elevate_released = true;
  ExecutiveCore core(prog, cfg, CostModel::free_of_charge());
  core.start();

  std::vector<Assignment> out;
  out.reserve(64);
  std::vector<Ticket> done;
  done.reserve(64);
  ASSERT_EQ(pump(core, out, done, 16, 700), 700);  // deep warm-up

  alloc_stats::ThreadScope scope;
  ASSERT_EQ(pump(core, out, done, 16, 200), 200);
  const AllocTotals d = scope.so_far();
  EXPECT_EQ(d.allocs, 0u)
      << "warm indirect completion cycle allocated (" << d.allocs
      << " allocs, " << d.bytes << " bytes)";

  while (!core.finished() && pump(core, out, done, 16, 1 << 20) > 0) {
  }
  EXPECT_TRUE(core.finished());
  EXPECT_EQ(core.live_descriptors(), 0u);
}

// --- the warm-window bar -----------------------------------------------------

/// Heap allocations per granule the control plane made in a warm window
/// before the arena rework (DESIGN.md §10), on the scattered reverse-
/// indirect workload below; the warm paths must stay 10x under it.
constexpr double kPreReworkAllocsPerGranule = 0.123;
constexpr double kWarmAllocBar = kPreReworkAllocsPerGranule / 10.0;

/// Two phases bridged by a scattered reverse-indirect map (fan 3), map
/// built eagerly, grain 16: the workload the pre-rework figure was taken
/// on.
PhaseProgram scattered_reverse_program() {
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

TEST(WarmAlloc, TwoShardAcquireWindowStaysUnderTheBar) {
  // One thread plays the worker protocol against two shards, so the rings
  // themselves — pops, deposit pushes, sweeps, spill — are the measured
  // path. The window opens after 500 acquires (map build, pool and
  // range-set high-water growth), as the pre-rework figure's did.
  const PhaseProgram prog = scattered_reverse_program();
  ExecConfig cfg;
  cfg.grain = 16;
  cfg.defer_map_build = false;
  ShardedExecutive exec(prog, cfg, CostModel::free_of_charge(),
                        {.shards = 2, .workers = 2, .batch = 16});
  exec.start();

  std::vector<Assignment> out;
  out.reserve(64);
  std::vector<Ticket> done;
  done.reserve(64);
  std::uint64_t allocs = 0, granules = 0;
  int cycles = 0, dry = 0;
  while (!exec.finished() && dry < 10000) {
    out.clear();
    const AllocTotals t0 = alloc_stats::thread_totals();
    const ShardAcquire r = exec.acquire(0, 16, done, out);
    // acquire() consumed `done`; this cycle's tickets retire in the next.
    done.clear();
    for (const Assignment& a : out) done.push_back(a.ticket);
    if (++cycles > 500) {
      allocs += alloc_stats::delta(t0, alloc_stats::thread_totals()).allocs;
      for (const Assignment& a : out) granules += a.range.size();
    }
    dry = r.taken == 0 ? dry + 1 : 0;
  }
  out.clear();
  exec.acquire(0, 0, done, out);  // retire the final batch
  ASSERT_TRUE(exec.finished());
  ASSERT_GT(granules, 0u);
  const double per_granule =
      static_cast<double>(allocs) / static_cast<double>(granules);
  EXPECT_LE(per_granule, kWarmAllocBar)
      << allocs << " allocs over " << granules << " warm granules";
}

TEST(ZeroAlloc, TraceEmitsAndMetricCellsAllocateNothing) {
  // A small ring on purpose: the window wraps each ring about 25 times, the
  // one spot a naive ring would grow or re-allocate. Every emit and every
  // counter and histogram cell update is a store into memory the buffer
  // and the registry allocated up front.
  obs::TraceConfig tc;
  tc.ring_capacity = 1u << 10;
  obs::TraceBuffer buf(/*workers=*/4, tc);
  obs::MetricsRegistry reg;
  const obs::MetricId ctr = reg.register_counter("test.counter");
  const obs::MetricId hist = reg.register_histogram("test.hist", {10, 100, 1000});
  reg.bind(4);

  obs::TraceRecord r;
  r.job = obs::kNoTraceJob;
  r.phase = 0;
  // Touch every ring, cell and slot once before the window opens.
  for (WorkerId w = 0; w < 4; ++w) {
    r.worker = static_cast<std::uint16_t>(w);
    r.ts_ns = obs::trace_now_ns();
    r.kind = obs::TraceKind::kExecBegin;
    buf.ring(w).emit(r);
    reg.add(ctr, w, 1);
    reg.observe(hist, w, 50);
  }

  constexpr std::uint64_t kEvents = 100000;
  alloc_stats::ThreadScope scope;
  for (std::uint64_t i = 0; i < kEvents; ++i) {
    const auto w = static_cast<WorkerId>(i & 3);
    r.worker = static_cast<std::uint16_t>(w);
    r.ts_ns = obs::trace_now_ns();
    r.kind = (i & 1) != 0 ? obs::TraceKind::kExecEnd : obs::TraceKind::kExecBegin;
    r.aux = static_cast<std::uint32_t>(i & 0xFF);
    buf.ring(w).emit(r);
    reg.add(ctr, w, 1);
    reg.observe(hist, w, i & 0x7FF);
  }
  const AllocTotals d = scope.so_far();
  EXPECT_EQ(d.allocs, 0u) << d.bytes << " bytes";
  EXPECT_GT(buf.total_dropped(), 0u) << "the window never wrapped a ring";
}

/// Process-wide heap allocations, less the calling thread's, made while
/// `n_jobs` one-phase jobs of `granules` spin granules run through a warm
/// 4-worker pool: the worker plane's share (workers and watchdog). The first
/// job of the window carries a granule timeout, so the watchdog samples the
/// body sequence cells throughout.
std::uint64_t pool_worker_allocs(std::size_t n_jobs, GranuleId granules) {
  PhaseProgram prog;
  const PhaseId p = prog.define_phase(make_phase("p", granules).writes("X"));
  prog.dispatch(p);
  prog.halt();
  std::atomic<std::uint64_t> sink{0};
  rt::BodyTable bodies;
  bodies.set(p, [&sink](GranuleRange r, WorkerId) {
    std::uint64_t acc = 0;
    for (GranuleId g = r.lo; g < r.hi; ++g)
      for (std::uint32_t i = 0; i < 400; ++i)
        acc += (static_cast<std::uint64_t>(i) * 2654435761u) ^ (acc >> 7);
    sink.fetch_add(acc, std::memory_order_relaxed);
  });
  ExecConfig cfg;
  cfg.grain = 1;
  using Options = pool::PoolRuntime::SubmitOptions;
  const Options watched{.granule_timeout = std::chrono::seconds{30}};

  pool::PoolRuntime pool({.workers = 4, .batch = 4});
  {
    std::vector<pool::JobHandle> warm;
    warm.push_back(pool.submit(prog, bodies, cfg, watched));
    for (int i = 0; i < 7; ++i) warm.push_back(pool.submit(prog, bodies, cfg, {}));
    pool.drain();
  }
  const AllocTotals proc0 = alloc_stats::totals();
  const AllocTotals self0 = alloc_stats::thread_totals();
  std::vector<pool::JobHandle> handles;
  handles.reserve(n_jobs);
  for (std::size_t i = 0; i < n_jobs; ++i)
    handles.push_back(pool.submit(prog, bodies, cfg, i == 0 ? watched : Options{}));
  pool.drain();
  pool.shutdown();
  const AllocTotals proc1 = alloc_stats::totals();
  const AllocTotals self1 = alloc_stats::thread_totals();
  for (const pool::JobHandle& h : handles) {
    EXPECT_EQ(h.state(), pool::JobState::kComplete);
    EXPECT_EQ(h.stats().granules, granules);
  }
  return (proc1.allocs - proc0.allocs) - (self1.allocs - self0.allocs);
}

TEST(WarmAlloc, PoolMarginalAllocsPerGranuleStayUnderTheBar) {
  // A served job pays a one-time cost on the worker plane (start(), the
  // dispatch advance, buffer growth), so gross allocs per granule of a job
  // stream say little. The same job count at two granule counts, both past
  // the per-job growth, differences that cost out and leaves the warm
  // handout path: carve, ring, local queue, exception barrier, retire.
  constexpr std::size_t kJobs = 8;
  constexpr GranuleId kSmall = 512, kLarge = 4096;
  const std::uint64_t small = pool_worker_allocs(kJobs, kSmall);
  const std::uint64_t large = pool_worker_allocs(kJobs, kLarge);
  const double marginal =
      large <= small ? 0.0
                     : static_cast<double>(large - small) /
                           static_cast<double>(kJobs * (kLarge - kSmall));
  EXPECT_LE(marginal, kWarmAllocBar)
      << "worker-plane allocs: " << small << " at " << kSmall
      << " granules a job, " << large << " at " << kLarge;
}

// --- live-table iteration regression ---------------------------------------

TEST(LiveTable, BatchCompletionUnderLiveMutationStaysExactlyOnce) {
  // Identity overlap attaches tracking successor pieces to live current
  // descriptors; completing a batch then mutates BOTH runs' live tables
  // mid-batch (retire swap-pop on the current run, release-enqueue on the
  // successor). The executive must tolerate that churn without the old
  // defensive live-table copies.
  const GranuleId n = 512;
  PhaseProgram prog = identity_two_phase(n);
  ExecConfig cfg;
  cfg.grain = 4;
  ExecutiveCore core(prog, cfg, CostModel::free_of_charge());
  core.start();

  RangeSet seen_a, seen_b;
  std::vector<Assignment> out;
  std::vector<Ticket> done;
  std::size_t spins = 0;
  while (!core.finished() || core.work_available()) {
    ASSERT_LT(++spins, 1'000'000u);
    out.clear();
    done.clear();
    if (core.request_work_batch(0, 32, out) == 0) {
      if (!core.idle_work()) break;
      continue;
    }
    for (const Assignment& a : out) {
      (a.phase == 0 ? seen_a : seen_b).insert(a.range);  // aborts on overlap
      done.push_back(a.ticket);
    }
    core.complete_batch(done);
  }
  EXPECT_TRUE(core.finished());
  EXPECT_EQ(seen_a.cardinality(), n);
  EXPECT_EQ(seen_b.cardinality(), n);
  EXPECT_EQ(core.live_descriptors(), 0u);
}

TEST(LiveTable, MidProgramTeardownWithLinkedStructures) {
  // Destroy a core while descriptors sit in every structure the destructor
  // must unlink: the waiting queue, conflict queues (identity tracking
  // pieces), a pending deferred-split task, and a dynamically submitted
  // conflicting computation. The ASan job turns any stale-pointer walk into
  // a hard failure; the DCHECKed ring teardown catches the rest.
  const GranuleId n = 256;
  PhaseProgram prog = identity_two_phase(n);
  ExecConfig cfg;
  cfg.grain = 8;
  cfg.split_policy = SplitPolicy::kDeferred;
  auto core = std::make_unique<ExecutiveCore>(prog, cfg, CostModel::free_of_charge());
  core->start();
  core->submit_conflicting(/*blocker=*/0, /*phase=*/1, {0, 16});
  // A few carves so deferred split tasks and partial completions exist.
  std::vector<Assignment> out;
  core->request_work_batch(0, 6, out);
  core->complete(out[2].ticket);  // out-of-order completion
  core->complete(out[0].ticket);
  EXPECT_GT(core->live_descriptors(), 0u);
  core.reset();  // must not crash, double-free, or trip a ring DCHECK
}

// --- sharded executive: census staging reuse --------------------------------

TEST(ShardedCensus, RepeatedProbesAllocateNothingOnceWarm) {
  const GranuleId n = 256;
  PhaseProgram prog = identity_two_phase(n);
  ExecConfig cfg;
  cfg.grain = 4;
  ShardConfig sc;
  sc.shards = 4;
  sc.workers = 4;
  sc.batch = 4;
  ShardedExecutive exec(prog, cfg, CostModel::free_of_charge(), sc);
  exec.start();
  std::vector<Ticket> done;
  std::vector<Assignment> out;
  exec.acquire(0, 4, done, out);
  exec.check_census();  // warm the lock staging
  alloc_stats::ThreadScope scope;
  for (int i = 0; i < 16; ++i) exec.check_census();
  EXPECT_EQ(scope.so_far().allocs, 0u)
      << "census probe rebuilt its lock staging";
  // Drain the program so the executive tears down quiescent.
  std::size_t spins = 0;
  while (!exec.finished()) {
    ASSERT_LT(++spins, 1'000'000u);
    done.clear();
    for (const Assignment& a : out) done.push_back(a.ticket);
    out.clear();
    const ShardAcquire r = exec.acquire(0, 8, done, out);
    if (r.taken == 0 && !exec.work_available() && !exec.finished()) {
      if (!exec.idle_work()) break;
    }
  }
  EXPECT_TRUE(exec.finished());
}

// --- event text laziness ----------------------------------------------------

TEST(ExecEvents, BorrowedTextViewsAreCorrectAndEventsAllocationFree) {
  const GranuleId n = 64;
  PhaseProgram prog = identity_two_phase(n);
  ExecConfig cfg;
  cfg.grain = 8;
  ExecutiveCore core(prog, cfg, CostModel::free_of_charge());
  std::string overlap_text;
  std::uint64_t events = 0;
  FunctionEventSink sink([&](const ExecEvent& ev) {
    ++events;
    if (ev.kind == ExecEvent::Kind::kOverlapSetUp)
      overlap_text.assign(ev.text);  // must copy to retain
  });
  core.set_event_sink(&sink);
  core.start();
  std::vector<Assignment> out;
  std::vector<Ticket> done;
  while (pump(core, out, done, 8, 1 << 20) > 0 && !core.finished()) {
  }
  EXPECT_TRUE(core.finished());
  EXPECT_GT(events, 0u);
  EXPECT_EQ(overlap_text, "identity");
}

}  // namespace
}  // namespace pax
