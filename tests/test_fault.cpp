// Fault-containment tests (DESIGN.md §15): the exception barrier converts a
// throwing phase body into a recorded fault instead of process death; the
// executive retries transient faults with backoff and poisons persistent
// ones into a faulted terminal; the pool degrades a faulted job to
// JobState::kFailed without touching its siblings; the stuck-granule
// watchdog escalates an over-budget body through the stop/recall machinery;
// and a throwing GranuleMapFn degrades its edge instead of wedging the
// program. Runs under ThreadSanitizer in CI.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "pool/pool_runtime.hpp"
#include "runtime/threaded_runtime.hpp"
#include "testing_util.hpp"

namespace pax {
namespace {

using pool::JobState;
using testing::ExecutionRecorder;
using testing::FaultInjector;
using testing::GeneratedProgram;
using testing::SlowGranuleSpec;

struct SinglePhase {
  PhaseProgram prog;
  PhaseId p = kNoPhase;
};

SinglePhase make_single_phase(GranuleId n) {
  SinglePhase s;
  s.p = s.prog.define_phase(make_phase("only", n).writes("O"));
  s.prog.dispatch(s.p);
  s.prog.halt();
  return s;
}

/// A deterministic single-phase GeneratedProgram shell so the fault-injection
/// helpers (FaultInjector / make_faulty_bodies) apply to hand-built tests.
GeneratedProgram single_phase_shell(GranuleId n) {
  GeneratedProgram g;
  g.seed = 42;
  g.phases.push_back(g.program.define_phase(make_phase("only", n).writes("O")));
  g.program.dispatch(g.phases[0]);
  g.program.halt();
  g.granules.push_back(n);
  g.total = n;
  g.workers = 3;
  g.batch = 2;
  return g;
}

rt::RtConfig config_of(const GeneratedProgram& g) {
  rt::RtConfig rc;
  rc.workers = g.workers;
  rc.batch = g.batch;
  rc.shards = g.shards;
  return rc;
}

// --- exception barrier + retry (threaded runtime) ---------------------------

TEST(FaultBarrier, TransientFaultRetriesToCompletion) {
  GeneratedProgram g = single_phase_shell(64);
  ExecutionRecorder rec(g.granules);
  FaultInjector inj(g.granules);
  inj.set_throws(0, 3, 1);   // fail once, succeed on retry
  inj.set_throws(0, 40, 2);  // fail twice
  std::atomic<std::uint64_t> sink{0};
  rt::BodyTable bodies = testing::make_faulty_bodies(g, rec, sink, inj);
  ExecConfig ec = g.exec;
  ec.max_granule_retries = 4;
  rt::RtResult res =
      rt::ThreadedRuntime(g.program, ec, CostModel::free_of_charge(), bodies,
                          config_of(g))
          .run();
  rec.expect_exactly_once();  // a throwing attempt records nothing
  EXPECT_FALSE(res.faulted);
  EXPECT_EQ(res.granules_executed, 64u);
  EXPECT_EQ(inj.injected(), 3u);
  EXPECT_EQ(testing::metric(res.metrics, "worker.faulted"), 3u);
  EXPECT_EQ(testing::metric(res.metrics, "fault.retries"), 3u);
  EXPECT_EQ(testing::metric(res.metrics, "fault.poisoned"), 0u);
  // The first fault site survives into the summary even on success.
  EXPECT_NE(res.fault_summary.find("injected fault"), std::string::npos);
}

TEST(FaultBarrier, PersistentFaultPoisonsAndFaultsTheRun) {
  GeneratedProgram g = single_phase_shell(48);
  ExecutionRecorder rec(g.granules);
  FaultInjector inj(g.granules);
  inj.set_throws(0, 7, FaultInjector::kAlways);
  std::atomic<std::uint64_t> sink{0};
  rt::BodyTable bodies = testing::make_faulty_bodies(g, rec, sink, inj);
  ExecConfig ec = g.exec;
  ec.max_granule_retries = 2;
  ec.retry_backoff_ticks = 1;
  // No abort, no escaped exception: the barrier + poison path must bring
  // run() back with the faulted terminal.
  rt::RtResult res =
      rt::ThreadedRuntime(g.program, ec, CostModel::free_of_charge(), bodies,
                          config_of(g))
          .run();
  rec.expect_at_most_once();
  EXPECT_TRUE(res.faulted);
  EXPECT_EQ(inj.injected(), 3u);  // initial attempt + 2 retries
  EXPECT_EQ(testing::metric(res.metrics, "worker.faulted"), 3u);
  EXPECT_EQ(testing::metric(res.metrics, "fault.retries"), 2u);
  EXPECT_GE(testing::metric(res.metrics, "fault.poisoned"), 1u);
  EXPECT_LT(res.granules_executed, 48u);  // the poisoned granule never ran
  EXPECT_NE(res.fault_summary.find("injected fault"), std::string::npos);
}

TEST(FaultBarrier, MapFnThrowDegradesEdgeAndCompletes) {
  // Two phases bridged by a reverse-indirect map whose callback throws: the
  // edge degrades to wholesale release at completion, so the program still
  // retires every granule of both phases — overlap is lost, not the run.
  PhaseProgram prog;
  const PhaseId a = prog.define_phase(make_phase("a", 32).writes("X"));
  const PhaseId b = prog.define_phase(make_phase("b", 32).reads("X"));
  std::atomic<std::uint32_t> map_calls{0};
  EnableClause clause;
  clause.successor_name = "b";
  clause.kind = MappingKind::kReverseIndirect;
  clause.indirection.requires_of = [&map_calls](GranuleId,
                                                std::vector<GranuleId>&) {
    map_calls.fetch_add(1, std::memory_order_release);
    throw std::runtime_error("map callback exploded");
  };
  prog.dispatch(a, {clause});
  prog.dispatch(b);
  prog.halt();

  // The edge is wired in start(), but its map is built as idle work: if
  // all of a retired first, a's completion would release b wholesale and
  // never call the map. So a's granule 0 waits until the map callback has
  // been entered. a cannot complete before that, and the workers not
  // holding granule 0 are free to run the idle work. The wait is bounded,
  // so a broken gate fails the test instead of hanging it.
  std::atomic<std::uint64_t> executed{0};
  rt::BodyTable bodies;
  bodies.set(a, [&executed, &map_calls](GranuleRange r, WorkerId) {
    if (r.lo == 0) {
      const auto give_up =
          std::chrono::steady_clock::now() + std::chrono::seconds{10};
      while (map_calls.load(std::memory_order_acquire) == 0 &&
             std::chrono::steady_clock::now() < give_up)
        std::this_thread::sleep_for(std::chrono::microseconds{50});
    }
    executed.fetch_add(r.size(), std::memory_order_relaxed);
  });
  bodies.set(b, [&executed](GranuleRange r, WorkerId) {
    executed.fetch_add(r.size(), std::memory_order_relaxed);
  });
  rt::RtConfig rc;
  rc.workers = 3;
  rt::RtResult res =
      rt::ThreadedRuntime(prog, ExecConfig{}, CostModel::free_of_charge(),
                          bodies, rc)
          .run();
  EXPECT_FALSE(res.faulted);  // degraded, not failed
  EXPECT_EQ(executed.load(), 64u);
  EXPECT_EQ(res.granules_executed, 64u);
  EXPECT_EQ(testing::metric(res.metrics, "fault.map"), 1u);
  EXPECT_EQ(testing::metric(res.metrics, "worker.faulted"), 0u);
  EXPECT_NE(res.fault_summary.find("map callback exploded"), std::string::npos);
}

TEST(FaultRetry, IdentityEdgeSetUpWhileARangeIsParkedForRetryStillEnablesIt) {
  // a -> b -> c, both identity. b0 faults while a is still running, so it is
  // parked for retry when a's completion sets up the b -> c edge. The parked
  // range must still get its tracking successor piece: otherwise c0 is never
  // enabled and the program stalls with no work and no outstanding ticket.
  PhaseProgram prog;
  const PhaseId a = prog.define_phase(make_phase("a", 2).writes("X"));
  const PhaseId b = prog.define_phase(make_phase("b", 2).reads("X").writes("Y"));
  const PhaseId c = prog.define_phase(make_phase("c", 2).reads("Y").writes("Z"));
  prog.dispatch(a, {EnableClause{"b", MappingKind::kIdentity, {}}});
  prog.dispatch(b, {EnableClause{"c", MappingKind::kIdentity, {}}});
  prog.dispatch(c);
  prog.halt();
  ExecConfig cfg;
  cfg.grain = 1;
  cfg.retry_backoff_ticks = 0;
  ExecutiveCore core(prog, cfg, CostModel::free_of_charge());
  core.start();

  const std::optional<Assignment> a0 = core.request_work(0);
  const std::optional<Assignment> a1 = core.request_work(0);
  ASSERT_TRUE(a0 && a1);
  ASSERT_EQ(a0->phase, a);
  (void)core.complete(a0->ticket);  // enables b0
  const std::optional<Assignment> b0 = core.request_work(0);
  ASSERT_TRUE(b0);
  ASSERT_EQ(b0->phase, b);
  GranuleFault f;
  f.ticket = b0->ticket;
  f.phase = b0->phase;
  f.range = b0->range;
  f.set_what("injected");
  (void)core.fail(f);               // b0 parked for retry
  (void)core.complete(a1->ticket);  // a completes: b -> c set up, b0 re-enqueued

  std::vector<GranuleId> executed(3, 0);
  executed[a] = 2;
  for (int step = 0; step < 64 && !core.finished(); ++step) {
    const std::optional<Assignment> next = core.request_work(0);
    if (!next) break;
    executed[next->phase] += next->range.size();
    (void)core.complete(next->ticket);
  }
  EXPECT_TRUE(core.finished()) << "stalled: c0 was never enabled";
  EXPECT_EQ(executed[b], 2u);
  EXPECT_EQ(executed[c], 2u);
  EXPECT_EQ(core.fault_stats().retries, 1u);
}

// --- pool degradation: kFailed, sibling isolation, wait semantics -----------

TEST(FaultPool, PoolJobFailsWithoutTouchingSiblings) {
  GeneratedProgram g = single_phase_shell(48);
  ExecutionRecorder rec(g.granules);
  FaultInjector inj(g.granules);
  inj.set_throws(0, 5, FaultInjector::kAlways);
  std::atomic<std::uint64_t> sink{0};
  rt::BodyTable bodies = testing::make_faulty_bodies(g, rec, sink, inj);

  SinglePhase clean = make_single_phase(96);
  std::atomic<std::uint64_t> clean_granules{0};
  rt::BodyTable clean_bodies;
  clean_bodies.set(clean.p, [&clean_granules](GranuleRange r, WorkerId) {
    clean_granules.fetch_add(r.size(), std::memory_order_relaxed);
  });

  pool::PoolConfig pc;
  pc.workers = 3;
  pool::JobHandle faulty, sibling;
  {
    pool::PoolRuntime pool(pc);
    ExecConfig ec;
    ec.max_granule_retries = 1;
    faulty = pool.submit(g.program, bodies, ec, {});
    sibling = pool.submit(clean.prog, clean_bodies, ExecConfig{}, {});

    // wait() must wake on the failure terminal, not hang — and by the
    // done() => stats()-final contract the fault accounting is complete
    // the moment it returns.
    EXPECT_EQ(faulty.wait(), JobState::kFailed);
    EXPECT_TRUE(faulty.done());
    const pool::JobStats js = faulty.stats();
    EXPECT_EQ(js.granule_faults, 2u);  // initial attempt + 1 retry
    EXPECT_EQ(js.granule_retries, 1u);
    EXPECT_GE(js.granules_poisoned, 1u);
    EXPECT_FALSE(js.watchdog_expired);
    EXPECT_NE(js.fault_summary.find("injected fault"), std::string::npos);

    // A second wait (and a timed one) must return the same terminal.
    EXPECT_EQ(faulty.wait_for(std::chrono::milliseconds{1}), JobState::kFailed);

    // The sibling is untouched by the neighbour's failure.
    EXPECT_EQ(sibling.wait(), JobState::kComplete);
    EXPECT_EQ(clean_granules.load(), 96u);
    pool.shutdown();

    const pool::PoolStats ps = pool.stats();
    EXPECT_EQ(testing::metric(ps.metrics, "pool.jobs_submitted"), 2u);
    EXPECT_EQ(testing::metric(ps.metrics, "pool.jobs_completed"), 1u);
    EXPECT_EQ(testing::metric(ps.metrics, "pool.jobs_failed"), 1u);
    EXPECT_EQ(testing::metric(ps.metrics, "pool.jobs_cancelled"), 0u);
    EXPECT_EQ(testing::metric(ps.metrics, "worker.faulted"), 2u);
    EXPECT_EQ(testing::metric(ps.metrics, "fault.retries"), 1u);
    EXPECT_GE(testing::metric(ps.metrics, "fault.poisoned"), 1u);
    EXPECT_EQ(testing::metric(ps.metrics, "fault.watchdog_flags"), 0u);
    // Failed jobs never enter the deadline tally.
    EXPECT_EQ(testing::metric(ps.metrics, "pool.deadline_missed"), 0u);
    EXPECT_EQ(testing::metric(ps.metrics, "pool.deadline_met"), 0u);
  }
  // Handles outlive the pool: the terminal state and final stats survive.
  EXPECT_EQ(faulty.state(), JobState::kFailed);
  EXPECT_TRUE(faulty.done());
  EXPECT_FALSE(faulty.cancel());
  EXPECT_GE(faulty.stats().granules_poisoned, 1u);
}

TEST(FaultPool, PoolTransientFaultStillCompletes) {
  GeneratedProgram g = single_phase_shell(64);
  ExecutionRecorder rec(g.granules);
  FaultInjector inj(g.granules);
  inj.set_throws(0, 0, 1);
  std::atomic<std::uint64_t> sink{0};
  rt::BodyTable bodies = testing::make_faulty_bodies(g, rec, sink, inj);

  pool::PoolConfig pc;
  pc.workers = 2;
  pool::PoolRuntime pool(pc);
  pool::JobHandle h = pool.submit(g.program, bodies, ExecConfig{}, {});
  EXPECT_EQ(h.wait(), JobState::kComplete);
  pool.shutdown();
  rec.expect_exactly_once();
  const pool::JobStats js = h.stats();
  EXPECT_EQ(js.granules, 64u);
  EXPECT_EQ(js.granule_faults, 1u);
  EXPECT_EQ(js.granule_retries, 1u);
  EXPECT_EQ(js.granules_poisoned, 0u);
  EXPECT_EQ(testing::metric(pool.stats().metrics, "pool.jobs_failed"), 0u);
}

// --- stuck-granule watchdog -------------------------------------------------

TEST(FaultWatchdog, WatchdogFlagsStuckGranule) {
  GeneratedProgram g = single_phase_shell(8);
  ExecutionRecorder rec(g.granules);
  FaultInjector inj(g.granules);  // no throws — the granule is stuck, not bad
  std::atomic<std::uint64_t> sink{0};
  SlowGranuleSpec slow;
  slow.phase = 0;
  slow.granule = 2;
  slow.sleep = std::chrono::milliseconds{150};
  rt::BodyTable bodies = testing::make_faulty_bodies(g, rec, sink, inj, slow);

  pool::PoolConfig pc;
  pc.workers = 2;
  pool::PoolRuntime pool(pc);
  pool::PoolRuntime::SubmitOptions opts;
  opts.granule_timeout = std::chrono::milliseconds{5};
  pool::JobHandle h = pool.submit(g.program, bodies, ExecConfig{}, opts);
  // Escalation is cooperative: the stuck body finishes its sleep, then the
  // job finalizes kFailed. wait() must ride through that.
  EXPECT_EQ(h.wait(), JobState::kFailed);
  pool.shutdown();

  const pool::JobStats js = h.stats();
  EXPECT_TRUE(js.watchdog_expired);
  EXPECT_EQ(js.granules_poisoned, 0u);  // nothing threw — watchdog terminal
  EXPECT_NE(js.fault_summary.find("watchdog"), std::string::npos);
  const pool::PoolStats ps = pool.stats();
  EXPECT_EQ(testing::metric(ps.metrics, "pool.jobs_failed"), 1u);
  EXPECT_EQ(testing::metric(ps.metrics, "fault.watchdog_flags"), 1u);
}

TEST(FaultWatchdog, WatchdogNeverFlagsBodiesShorterThanTheTimeout) {
  // 64 bodies of 5 ms on 2 workers under a 25 ms timeout. A drain runs up
  // to a local queue's worth of bodies back to back, far longer than the
  // timeout, but no single body overstays: the watchdog follows bodies by
  // sequence number, so it must never flag. A drain-level stamp would. The
  // 20 ms margin absorbs a late wake-up from the body's sleep (a 2 ms sleep
  // measured up to 9 ms on a shared 4-vCPU VM).
  SinglePhase s = make_single_phase(64);
  std::atomic<std::uint64_t> n{0};
  rt::BodyTable bodies;
  bodies.set(s.p, [&n](GranuleRange r, WorkerId) {
    std::this_thread::sleep_for(std::chrono::milliseconds{5});
    n.fetch_add(r.size(), std::memory_order_relaxed);
  });
  pool::PoolConfig pc;
  pc.workers = 2;
  pool::PoolRuntime pool(pc);
  pool::PoolRuntime::SubmitOptions opts;
  opts.granule_timeout = std::chrono::milliseconds{25};
  pool::JobHandle h = pool.submit(s.prog, bodies, ExecConfig{}, opts);
  EXPECT_EQ(h.wait(), JobState::kComplete);
  pool.shutdown();
  EXPECT_EQ(n.load(), 64u);
  EXPECT_FALSE(h.stats().watchdog_expired);
  EXPECT_EQ(testing::metric(pool.stats().metrics, "fault.watchdog_flags"), 0u);
}

TEST(FaultWatchdog, NoTimeoutMeansNoWatchdogFlag) {
  // A job slower than any poll interval but with no granule_timeout must
  // never be flagged — the watchdog only watches opted-in jobs.
  SinglePhase s = make_single_phase(4);
  std::atomic<std::uint64_t> n{0};
  rt::BodyTable bodies;
  bodies.set(s.p, [&n](GranuleRange r, WorkerId) {
    std::this_thread::sleep_for(std::chrono::milliseconds{5});
    n.fetch_add(r.size(), std::memory_order_relaxed);
  });
  pool::PoolConfig pc;
  pc.workers = 2;
  pool::PoolRuntime pool(pc);
  pool::JobHandle h = pool.submit(s.prog, bodies, ExecConfig{}, {});
  EXPECT_EQ(h.wait(), JobState::kComplete);
  pool.shutdown();
  EXPECT_EQ(n.load(), 4u);
  EXPECT_FALSE(h.stats().watchdog_expired);
  EXPECT_EQ(testing::metric(pool.stats().metrics, "fault.watchdog_flags"), 0u);
}

}  // namespace
}  // namespace pax
