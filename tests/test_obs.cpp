// test_obs.cpp — the observability layer (DESIGN.md §12).
//
// Covers the trace ring's wrap/overflow-drop accounting, the metrics
// registry's cell-sum identities, the structural-event trace sink, and —
// against the seeded cross-runtime stress harness — the sum identities the
// layer promises: with zero drops, the per-worker busy time reconstructed
// from exec begin/end trace pairs equals the runtime's own accounting
// *exactly* (the dispatch layer chains the exec stamps within a drain, so
// they tile the drain span it adds to busy), the
// granules covered by exec-end records equal the granule totals, the typed
// result fields agree with their metrics-snapshot entries, and every name
// the repo benchmark reads is present on both runtime surfaces. The threaded
// and pool cases run real worker threads with tracing on, so the TSAN CI matrix
// entry for this binary exercises the rings' single-writer contract under
// the race detector.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace_export.hpp"
#include "obs/trace_ring.hpp"
#include "obs/trace_sink.hpp"
#include "sched/dispatcher.hpp"
#include "sim/trace.hpp"
#include "testing_util.hpp"

namespace pax {
namespace {

using obs::TraceBuffer;
using obs::TraceKind;
using obs::TraceRecord;
using obs::TraceRing;

// --- trace ring -------------------------------------------------------------

TraceRecord numbered(std::uint32_t n) {
  TraceRecord r;
  r.ts_ns = n;
  r.aux = n;
  r.kind = TraceKind::kRefill;
  return r;
}

TEST(TraceRing, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(TraceRing(0).capacity(), 2u);
  EXPECT_EQ(TraceRing(1).capacity(), 2u);
  EXPECT_EQ(TraceRing(2).capacity(), 2u);
  EXPECT_EQ(TraceRing(3).capacity(), 4u);
  EXPECT_EQ(TraceRing(1000).capacity(), 1024u);
  EXPECT_EQ(TraceRing(1024).capacity(), 1024u);
}

TEST(TraceRing, RetainsEverythingUnderCapacity) {
  TraceRing ring(16);
  for (std::uint32_t i = 0; i < 10; ++i) ring.emit(numbered(i));
  EXPECT_EQ(ring.emitted(), 10u);
  EXPECT_EQ(ring.dropped(), 0u);
  EXPECT_EQ(ring.size(), 10u);
  std::vector<TraceRecord> out;
  ring.snapshot_into(out);
  ASSERT_EQ(out.size(), 10u);
  for (std::uint32_t i = 0; i < 10; ++i) EXPECT_EQ(out[i].aux, i);
}

TEST(TraceRing, WrapOverwritesOldestAndCountsDrops) {
  TraceRing ring(16);
  constexpr std::uint32_t kEmit = 100;
  for (std::uint32_t i = 0; i < kEmit; ++i) ring.emit(numbered(i));
  // The drop count is exactly emitted - capacity: truncation is explicit.
  EXPECT_EQ(ring.emitted(), kEmit);
  EXPECT_EQ(ring.dropped(), kEmit - 16u);
  EXPECT_EQ(ring.size(), 16u);
  // The retained window is the *newest* records, oldest-first.
  std::vector<TraceRecord> out;
  ring.snapshot_into(out);
  ASSERT_EQ(out.size(), 16u);
  for (std::uint32_t i = 0; i < 16; ++i) EXPECT_EQ(out[i].aux, kEmit - 16 + i);
}

TEST(TraceRing, SnapshotAppendsWithoutClearing) {
  TraceRing a(4), b(4);
  a.emit(numbered(1));
  b.emit(numbered(2));
  std::vector<TraceRecord> out;
  a.snapshot_into(out);
  b.snapshot_into(out);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].aux, 1u);
  EXPECT_EQ(out[1].aux, 2u);
}

TEST(TraceBuffer, TotalsSumWorkerAndControlRings) {
  TraceBuffer buf(2, {.ring_capacity = 4});
  for (int i = 0; i < 3; ++i) buf.ring(0).emit(numbered(0));
  for (int i = 0; i < 7; ++i) buf.ring(1).emit(numbered(1));  // wraps: 3 drops
  buf.control_ring().emit(numbered(2));
  EXPECT_EQ(buf.workers(), 2u);
  EXPECT_EQ(buf.total_emitted(), 3u + 7u + 1u);
  EXPECT_EQ(buf.total_dropped(), 3u);
}

// --- metrics registry -------------------------------------------------------

TEST(Metrics, CounterSumsWorkerCells) {
  obs::MetricsRegistry reg;
  const obs::MetricId a = reg.register_counter("a");
  const obs::MetricId b = reg.register_counter("b");
  reg.bind(3);
  reg.add(a, 0, 5);
  reg.add(a, 1, 7);
  reg.add(a, 2, 11);
  reg.add(b, 1, 1);
  const obs::MetricsSnapshot s = reg.snapshot();
  EXPECT_EQ(s.value_of("a"), 23u);
  EXPECT_EQ(s.value_of("b"), 1u);
  EXPECT_EQ(s.value_of("missing", 42u), 42u);
  EXPECT_EQ(s.find("missing"), nullptr);
}

TEST(Metrics, GaugeIsLastSetPerCell) {
  obs::MetricsRegistry reg;
  const obs::MetricId g = reg.register_gauge("g");
  reg.bind(2);
  reg.set(g, 0, 100);
  reg.set(g, 0, 3);  // overwrites, does not accumulate
  reg.set(g, 1, 4);
  const obs::MetricsSnapshot s = reg.snapshot();
  ASSERT_NE(s.find("g"), nullptr);
  EXPECT_EQ(s.find("g")->kind, obs::MetricKind::kGauge);
  EXPECT_EQ(s.value_of("g"), 7u);
}

TEST(Metrics, HistogramBucketsCountAndSum) {
  obs::MetricsRegistry reg;
  const obs::MetricId h = reg.register_histogram("h", {10, 100});
  reg.bind(2);
  // Observations land in the first bucket whose bound >= value.
  for (std::uint64_t v : {5u, 10u}) reg.observe(h, 0, v);      // <= 10
  for (std::uint64_t v : {11u, 100u}) reg.observe(h, 1, v);    // <= 100
  for (std::uint64_t v : {101u, 1000u}) reg.observe(h, 0, v);  // overflow
  const obs::MetricsSnapshot s = reg.snapshot();
  const obs::MetricValue* v = s.find("h");
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->kind, obs::MetricKind::kHistogram);
  ASSERT_EQ(v->buckets.size(), 3u);
  EXPECT_EQ(v->buckets[0], 2u);
  EXPECT_EQ(v->buckets[1], 2u);
  EXPECT_EQ(v->buckets[2], 2u);
  EXPECT_EQ(v->value, 6u);  // observation count == bucket sum
  EXPECT_EQ(v->sum, 5u + 10u + 11u + 100u + 101u + 1000u);
}

TEST(Metrics, SnapshotPushFoldsControlPlaneValues) {
  obs::MetricsSnapshot s;
  s.push("x", 9);
  s.push("y", 1, obs::MetricKind::kGauge);
  EXPECT_EQ(s.value_of("x"), 9u);
  EXPECT_EQ(s.find("y")->kind, obs::MetricKind::kGauge);
}

// --- structural-event trace sink --------------------------------------------

TEST(TraceSink, MapsStructuralEventsToControlTrack) {
  TraceRing ring(64);
  int forwarded = 0;
  FunctionEventSink next([&](const ExecEvent&) { ++forwarded; });
  obs::TraceEventSink sink(ring, /*job=*/7, &next);

  ExecEvent ev;
  ev.kind = ExecEvent::Kind::kRunOpened;
  ev.run = 3;
  ev.phase = 1;
  sink.on_event(ev);
  ev.kind = ExecEvent::Kind::kGranulesEnabled;
  ev.range = {2, 10};
  sink.on_event(ev);
  ev.kind = ExecEvent::Kind::kDiagnostic;  // not timeline material
  sink.on_event(ev);
  ev.kind = ExecEvent::Kind::kRunCompleted;
  sink.on_event(ev);
  ev.kind = ExecEvent::Kind::kProgramFinished;
  sink.on_event(ev);

  // The diagnostic is forwarded to the chained sink but not recorded.
  EXPECT_EQ(forwarded, 5);
  std::vector<TraceRecord> out;
  ring.snapshot_into(out);
  ASSERT_EQ(out.size(), 4u);
  EXPECT_EQ(out[0].kind, TraceKind::kRunOpened);
  EXPECT_EQ(out[0].aux, 3u);  // run id
  EXPECT_EQ(out[1].kind, TraceKind::kGranulesEnabled);
  EXPECT_EQ(out[1].aux, 8u);  // enabled-range size
  EXPECT_EQ(out[2].kind, TraceKind::kRunCompleted);
  EXPECT_EQ(out[3].kind, TraceKind::kProgramFinished);
  for (const TraceRecord& r : out) {
    EXPECT_EQ(r.worker, obs::kControlTrack);
    EXPECT_EQ(r.job, 7u);
    EXPECT_GT(r.ts_ns, 0u);
  }
}

// --- threaded runtime: trace + metrics sum identities -----------------------

// Rings sized so the stress programs (<= ~400 granules) can never wrap: the
// exact-identity checks below are only promised at zero drops.
constexpr std::size_t kTestRing = std::size_t{1} << 14;

rt::RtResult run_threaded_traced(const testing::GeneratedProgram& g,
                                 TraceBuffer& trace) {
  testing::ExecutionRecorder rec(g.granules);
  std::atomic<std::uint64_t> sink{0};
  rt::BodyTable bodies = testing::make_recording_bodies(g, rec, sink);
  rt::RtConfig rc;
  rc.workers = g.workers;
  rc.batch = g.batch;
  rc.shards = g.shards;
  rc.trace = &trace;
  rt::RtResult res = rt::ThreadedRuntime(g.program, g.exec,
                                         CostModel::free_of_charge(), bodies, rc)
                         .run();
  rec.expect_exactly_once();
  return res;
}

TEST(ThreadedTracing, BusyAndGranuleIdentitiesAtZeroDrops) {
  for (std::uint64_t seed : {11u, 23u, 47u}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    const testing::GeneratedProgram g = testing::generate_program(seed);
    TraceBuffer trace(g.workers, {.ring_capacity = kTestRing});
    const rt::RtResult res = run_threaded_traced(g, trace);
    ASSERT_EQ(trace.total_dropped(), 0u);
    EXPECT_GT(trace.total_emitted(), 0u);

    // Busy identity: within a drain each exec-begin is the previous
    // exec-end (or the drain's start), and the last exec-end closes the
    // span the drain adds to busy, so at zero drops the trace
    // reconstruction is *exact*, not approximate.
    const std::vector<std::uint64_t> busy = obs::busy_ns_by_worker(trace);
    ASSERT_EQ(busy.size(), g.workers);
    for (std::uint32_t w = 0; w < g.workers; ++w) {
      EXPECT_EQ(busy[w],
                static_cast<std::uint64_t>(res.worker_busy[w].count()))
          << "worker " << w;
    }

    // Granule identity: exec-end records cover every granule exactly once.
    const std::vector<TraceRecord> merged = obs::merged_records(trace);
    EXPECT_EQ(obs::granules_in(merged), res.granules_executed);
    EXPECT_EQ(res.granules_executed, g.total);

    // merged_records is sorted by timestamp.
    for (std::size_t i = 1; i < merged.size(); ++i)
      ASSERT_LE(merged[i - 1].ts_ns, merged[i].ts_ns);

    // The control track carries the structural story: one program finish,
    // and every phase's run completing. kRunOpened marks a *pending*
    // (overlap-created) run being reached by the program counter — fresh
    // runs created at their dispatch node announce as kGranulesEnabled
    // instead — so completions may outnumber openings.
    std::uint64_t opened = 0, completed = 0, finished = 0;
    for (const TraceRecord& r : merged) {
      if (r.kind == TraceKind::kRunOpened) ++opened;
      if (r.kind == TraceKind::kRunCompleted) ++completed;
      if (r.kind == TraceKind::kProgramFinished) ++finished;
      if (r.kind == TraceKind::kRunOpened ||
          r.kind == TraceKind::kRunCompleted ||
          r.kind == TraceKind::kProgramFinished) {
        EXPECT_EQ(r.worker, obs::kControlTrack);
      }
    }
    EXPECT_EQ(finished, 1u);
    EXPECT_LE(opened, completed);
    EXPECT_GE(completed, g.phases.size());
  }
}

TEST(ThreadedTracing, MetricsSnapshotAgreesWithTypedFields) {
  const testing::GeneratedProgram g = testing::generate_program(91);
  TraceBuffer trace(g.workers, {.ring_capacity = kTestRing});
  const rt::RtResult res = run_threaded_traced(g, trace);
  const obs::MetricsSnapshot& m = res.metrics;

  // The per-worker vectors are the worker.busy_ns / worker.wall_ns cells
  // read one worker at a time.
  std::uint64_t busy = 0, wall = 0;
  for (auto b : res.worker_busy) busy += static_cast<std::uint64_t>(b.count());
  for (auto w : res.worker_wall) wall += static_cast<std::uint64_t>(w.count());

  EXPECT_EQ(testing::metric(m, "worker.granules"), res.granules_executed);
  EXPECT_EQ(testing::metric(m, "worker.busy_ns"), busy);
  EXPECT_EQ(testing::metric(m, "worker.wall_ns"), wall);
  // shard.hits counts home and sibling hits, as on a pool.
  EXPECT_GE(testing::metric(m, "shard.hits"), testing::metric(m, "shard.sibling_hits"));
  EXPECT_EQ(testing::metric(m, "trace.emitted"), trace.total_emitted());
  EXPECT_EQ(testing::metric(m, "trace.dropped"), 0u);
}

TEST(ThreadedTracing, UntracedRunCarriesMetricsButNoTraceCounters) {
  const testing::GeneratedProgram g = testing::generate_program(5);
  const rt::RtResult res = testing::run_threaded_checked(g);
  EXPECT_EQ(testing::metric(res.metrics, "worker.granules"), g.total);
  EXPECT_EQ(res.metrics.find("trace.emitted"), nullptr);
  EXPECT_EQ(res.metrics.find("trace.dropped"), nullptr);
}

// --- dispatcher: chained exec stamps ----------------------------------------

TEST(DispatcherTracing, ExecStampsChainWithinADrain) {
  PhaseProgram prog;
  const PhaseId p = prog.define_phase(make_phase("p", 12).writes("X"));
  prog.dispatch(p);
  prog.halt();
  ExecConfig cfg;
  cfg.grain = 1;
  ShardedExecutive ex(prog, cfg, CostModel::free_of_charge(),
                      {.shards = 1, .workers = 1, .batch = 4});
  ex.start();

  TraceBuffer trace(1, {.ring_capacity = kTestRing});
  sched::Dispatcher d({.workers = 1, .batch = 4, .trace = &trace});
  rt::BodyTable bodies;
  bodies.set(p, [](GranuleRange, WorkerId) {});

  std::vector<Ticket> done;
  sched::BodyLoopStats stats;
  std::vector<TraceRecord> ring;
  std::uint64_t drains = 0;
  while (!ex.finished()) {
    ASSERT_LT(drains, 12u);
    d.refill(ex, 0, done);
    const std::chrono::nanoseconds before = stats.busy;
    d.drain_local(bodies, 0, done, stats);
    ++drains;

    // This drain's exec records: one begin/end pair per task, each begin
    // equal to the previous end, tiling the busy span the drain added.
    ring.clear();
    trace.ring(0).snapshot_into(ring);
    std::vector<TraceRecord> exec;
    for (const TraceRecord& r : ring)
      if (r.kind == TraceKind::kExecBegin || r.kind == TraceKind::kExecEnd)
        exec.push_back(r);
    const std::size_t tasks = done.size();
    ASSERT_GE(exec.size(), 2 * tasks);
    const std::size_t first = exec.size() - 2 * tasks;
    std::uint64_t span = 0;
    for (std::size_t i = first; i < exec.size(); i += 2) {
      ASSERT_EQ(exec[i].kind, TraceKind::kExecBegin);
      ASSERT_EQ(exec[i + 1].kind, TraceKind::kExecEnd);
      EXPECT_LE(exec[i].ts_ns, exec[i + 1].ts_ns);
      if (i > first) {
        EXPECT_EQ(exec[i].ts_ns, exec[i - 1].ts_ns);
      }
      span += exec[i + 1].ts_ns - exec[i].ts_ns;
    }
    EXPECT_EQ(span, static_cast<std::uint64_t>((stats.busy - before).count()));
  }
  EXPECT_GT(drains, 1u);
  EXPECT_EQ(stats.granules, 12u);
  ASSERT_EQ(trace.total_dropped(), 0u);
  EXPECT_EQ(obs::busy_ns_by_worker(trace)[0],
            static_cast<std::uint64_t>(stats.busy.count()));
}

// --- pool runtime: job-tagged worker-side records ---------------------------

TEST(PoolTracing, JobLifecycleAndGranuleIdentities) {
  for (std::uint64_t seed : {7u, 19u}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    const testing::GeneratedProgram g = testing::generate_program(seed);
    testing::ExecutionRecorder rec(g.granules);
    std::atomic<std::uint64_t> sink{0};
    rt::BodyTable bodies = testing::make_recording_bodies(g, rec, sink);

    TraceBuffer trace(g.workers, {.ring_capacity = kTestRing});
    pool::PoolConfig pc;
    pc.workers = g.workers;
    pc.batch = g.batch;
    pc.shards = g.shards;
    pc.trace = &trace;

    pool::PoolRuntime pool(pc);
    pool::JobHandle job = pool.submit(g.program, bodies, g.exec);
    ASSERT_EQ(job.wait(), pool::JobState::kComplete);
    pool.shutdown();
    rec.expect_exactly_once();
    const pool::PoolStats ps = pool.stats();
    ASSERT_EQ(trace.total_dropped(), 0u);

    // Worker-side exec records are tagged with the job id; lifecycle records
    // bracket the job. The pool installs no control-track core sink (its
    // jobs hold independent control mutexes), so the control ring is empty.
    EXPECT_EQ(trace.control_ring().emitted(), 0u);
    const std::vector<TraceRecord> merged = obs::merged_records(trace);
    std::uint64_t opens = 0, finalizes = 0;
    for (const TraceRecord& r : merged) {
      if (r.kind == TraceKind::kJobOpen) ++opens;
      if (r.kind == TraceKind::kJobFinalize) ++finalizes;
      if (r.kind == TraceKind::kExecBegin || r.kind == TraceKind::kExecEnd) {
        EXPECT_EQ(r.job, job.id());
      }
    }
    // A small job can finish without any worker ever observing a *drained*
    // resident (the completing worker finalizes directly), so kJobDrain has
    // no count guarantee — open and finalize do.
    EXPECT_EQ(opens, 1u);
    EXPECT_EQ(finalizes, testing::metric(ps.metrics, "pool.jobs_completed"));

    // Granule and busy identities, same contract as the threaded runtime.
    EXPECT_EQ(obs::granules_in(merged), testing::metric(ps.metrics, "worker.granules"));
    const std::vector<std::uint64_t> busy = obs::busy_ns_by_worker(trace);
    for (std::uint32_t w = 0; w < g.workers; ++w)
      EXPECT_EQ(busy[w],
                static_cast<std::uint64_t>(ps.worker_busy[w].count()))
          << "worker " << w;

    // The per-worker vectors are the worker cells read one at a time.
    std::uint64_t busy_sum = 0, wall_sum = 0;
    for (auto b : ps.worker_busy) busy_sum += static_cast<std::uint64_t>(b.count());
    for (auto w : ps.worker_wall) wall_sum += static_cast<std::uint64_t>(w.count());
    EXPECT_EQ(testing::metric(ps.metrics, "worker.busy_ns"), busy_sum);
    EXPECT_EQ(testing::metric(ps.metrics, "worker.wall_ns"), wall_sum);
    EXPECT_EQ(testing::metric(ps.metrics, "trace.emitted"), trace.total_emitted());
  }
}

// --- the names the repo benchmark reads --------------------------------------

// bench_stack's Counters (bench_stack/workloads.hpp) reads these from a
// finished run's RtResult::metrics and a shut-down pool's PoolStats::metrics
// through value_of, whose fallback is a silent 0: a renamed metric would
// zero a per-layer benchmark figure without failing anything there.
TEST(MetricsSurface, BenchmarkCounterNamesArePresentOnBothSurfaces) {
  constexpr const char* kNames[] = {
      "worker.granules", "worker.tasks", "worker.busy_ns", "worker.wall_ns",
      "worker.steals", "worker.rotations", "worker.job_lock_acquisitions",
      "exec.control_acquisitions", "exec.control_hold_ns", "shard.ring.pop",
      "shard.ring.pop_empty", "shard.ring.push_full", "shard.ring.cas_retries",
      "heap.allocs"};
  static_assert(std::size(kNames) == 14);
  const testing::GeneratedProgram g = testing::generate_program(5);
  const rt::RtResult res = testing::run_threaded_checked(g);

  testing::ExecutionRecorder rec(g.granules);
  std::atomic<std::uint64_t> sink{0};
  rt::BodyTable bodies = testing::make_recording_bodies(g, rec, sink);
  pool::PoolRuntime pool({.workers = g.workers});
  ASSERT_EQ(pool.submit(g.program, bodies, g.exec).wait(), pool::JobState::kComplete);
  pool.shutdown();
  const pool::PoolStats ps = pool.stats();

  for (const char* name : kNames) {
    EXPECT_NE(res.metrics.find(name), nullptr) << name << " missing from RtResult";
    EXPECT_NE(ps.metrics.find(name), nullptr) << name << " missing from PoolStats";
  }
}

// --- simulator: the trace-record adapter ------------------------------------

TEST(SimTracing, AdapterPreservesBusyTicksAndRunLifecycles) {
  const testing::GeneratedProgram g = testing::generate_program(13);
  sim::Workload wl(g.seed);
  sim::MachineConfig mc;
  mc.workers = g.sim_workers;
  mc.shards = g.sim_shards;
  mc.record_intervals = true;
  const sim::SimResult res =
      sim::simulate(g.program, g.exec, CostModel{}, wl, mc);
  ASSERT_EQ(res.granules_executed, g.total);

  const std::vector<TraceRecord> records = sim::trace_records_of(res);
  ASSERT_FALSE(records.empty());
  for (std::size_t i = 1; i < records.size(); ++i)
    ASSERT_LE(records[i - 1].ts_ns, records[i].ts_ns);

  // Exec begin/end pairs carry the compute ticks at the 1 tick = 1000 ns
  // scale; worker track ids stay in range; run opened records cover every
  // completed run.
  std::uint64_t span_ns = 0, opened = 0, completed = 0;
  std::vector<std::uint64_t> begin_stack(res.workers, 0);
  std::vector<int> depth(res.workers, 0);
  for (const TraceRecord& r : records) {
    if (r.kind == TraceKind::kExecBegin) {
      ASSERT_LT(r.worker, res.workers);
      ASSERT_EQ(depth[r.worker], 0) << "overlapping sim intervals";
      begin_stack[r.worker] = r.ts_ns;
      depth[r.worker] = 1;
    } else if (r.kind == TraceKind::kExecEnd) {
      ASSERT_EQ(depth[r.worker], 1);
      span_ns += r.ts_ns - begin_stack[r.worker];
      depth[r.worker] = 0;
    } else {
      EXPECT_EQ(r.worker, obs::kControlTrack);
      if (r.kind == TraceKind::kRunOpened) ++opened;
      if (r.kind == TraceKind::kRunCompleted) ++completed;
    }
  }
  EXPECT_EQ(span_ns, res.compute_ticks * 1000u);
  EXPECT_EQ(opened, res.runs.size());
  EXPECT_LE(completed, opened);
  EXPECT_GE(completed, g.phases.size());
}

// --- exporter ---------------------------------------------------------------

TEST(TraceExport, WritesWellFormedChromeTraceJson) {
  const testing::GeneratedProgram g = testing::generate_program(29);
  TraceBuffer trace(g.workers, {.ring_capacity = kTestRing});
  (void)run_threaded_traced(g, trace);

  const std::string path = ::testing::TempDir() + "pax_test_obs.trace.json";
  ASSERT_TRUE(obs::write_chrome_trace(trace, path));
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string body = ss.str();
  std::remove(path.c_str());

  ASSERT_FALSE(body.empty());
  EXPECT_EQ(body.front(), '{');
  EXPECT_NE(body.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(body.find("\"displayTimeUnit\""), std::string::npos);
  EXPECT_NE(body.find("\"pax\""), std::string::npos);      // process lane
  EXPECT_NE(body.find("\"control\""), std::string::npos);  // control track
  EXPECT_NE(body.find("\"ph\":\"X\""), std::string::npos);  // exec spans
  // Balanced close: the events array and the root object both terminate.
  EXPECT_NE(body.rfind("]"), std::string::npos);
  EXPECT_GT(body.rfind("}"), body.rfind("]"));
}

TEST(TraceExport, UnwritablePathFailsGracefully) {
  TraceBuffer trace(1);
  trace.ring(0).emit(numbered(1));
  EXPECT_FALSE(
      obs::write_chrome_trace(trace, "/nonexistent-dir/pax.trace.json"));
}

}  // namespace
}  // namespace pax
