// Dispatch-layer tests: local run-queue geometry (owner LIFO / thief FIFO),
// dispatcher refill-retire edge cases in their new home (empty-batch retire,
// refill returning zero while peers hold work), the drain's busy span and
// watchdog sequence cell, threaded and pool integration with rundown
// stealing, and cancellation observed mid-batch. The suite runs in the TSAN
// CI matrix.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <stdexcept>
#include <thread>

#include "pool/pool_runtime.hpp"
#include "runtime/happens_before.hpp"
#include "runtime/threaded_runtime.hpp"
#include "sched/dispatcher.hpp"
#include "testing_util.hpp"

namespace pax {
namespace {

// --- LocalRunQueue geometry --------------------------------------------------

Assignment asg(Ticket t) {
  Assignment a;
  a.ticket = t;
  return a;
}

TEST(LocalRunQueue, OwnerPopsLifoThievesTakeFifo) {
  sched::LocalRunQueue q(4);
  EXPECT_TRUE(q.push(asg(0)));
  EXPECT_TRUE(q.push(asg(1)));
  EXPECT_TRUE(q.push(asg(2)));
  EXPECT_EQ(q.size(), 3u);

  Assignment a;
  ASSERT_TRUE(q.pop(a));
  EXPECT_EQ(a.ticket, 2u);  // LIFO end: most recent push

  std::vector<Assignment> loot;
  EXPECT_EQ(q.steal(8, loot), 1u);  // half of 2, rounded up
  ASSERT_EQ(loot.size(), 1u);
  EXPECT_EQ(loot[0].ticket, 0u);  // FIFO end: oldest push

  ASSERT_TRUE(q.pop(a));
  EXPECT_EQ(a.ticket, 1u);
  EXPECT_FALSE(q.pop(a));
  EXPECT_EQ(q.peak(), 3u);
}

TEST(LocalRunQueue, CapacityBoundsAndWraparound) {
  sched::LocalRunQueue q(2);
  EXPECT_TRUE(q.push(asg(0)));
  EXPECT_TRUE(q.push(asg(1)));
  EXPECT_FALSE(q.push(asg(2)));  // full

  // Drain from the front so head wraps, then reuse the ring.
  std::vector<Assignment> loot;
  EXPECT_EQ(q.steal(2, loot), 1u);
  Assignment a;
  ASSERT_TRUE(q.pop(a));
  EXPECT_EQ(a.ticket, 1u);
  EXPECT_TRUE(q.push(asg(3)));
  EXPECT_TRUE(q.push(asg(4)));
  ASSERT_TRUE(q.pop(a));
  EXPECT_EQ(a.ticket, 4u);
  ASSERT_TRUE(q.pop(a));
  EXPECT_EQ(a.ticket, 3u);
}

TEST(LocalRunQueue, BulkPushReversedIsAllOrNothing) {
  sched::LocalRunQueue q(3);
  std::vector<Assignment> batch{asg(0), asg(1)};
  EXPECT_TRUE(q.push_reversed(batch));
  Assignment a;
  ASSERT_TRUE(q.pop(a));
  EXPECT_EQ(a.ticket, 0u);  // reversed push: pop order == buffer order
  EXPECT_TRUE(q.push(asg(9)));
  // Two slots free, three wanted: nothing is pushed.
  std::vector<Assignment> big{asg(2), asg(3), asg(4)};
  EXPECT_FALSE(q.push_reversed(big));
  EXPECT_EQ(q.size(), 2u);
  ASSERT_TRUE(q.pop(a));
  EXPECT_EQ(a.ticket, 9u);
  ASSERT_TRUE(q.pop(a));
  EXPECT_EQ(a.ticket, 1u);
}

TEST(LocalRunQueue, StealTakesHalfRoundedUp) {
  sched::LocalRunQueue q(8);
  for (Ticket t = 0; t < 5; ++t) ASSERT_TRUE(q.push(asg(t)));
  std::vector<Assignment> loot;
  EXPECT_EQ(q.steal(8, loot), 3u);  // (5+1)/2
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(loot[0].ticket, 0u);
  EXPECT_EQ(loot[2].ticket, 2u);
}

// --- Dispatcher refill/steal, driven deterministically -----------------------
// The Dispatcher cases refill from a one-shard ShardedExecutive: every
// refill is one control section over the core (the single-mutex protocol),
// so the handout is the core's own, in its order.

struct SinglePhase {
  PhaseProgram prog;
  PhaseId p = kNoPhase;
};

SinglePhase make_single_phase(GranuleId n) {
  SinglePhase s;
  s.p = s.prog.define_phase(make_phase("p", n).writes("X"));
  s.prog.dispatch(s.p);
  s.prog.halt();
  return s;
}

TEST(Dispatcher, EmptyBatchRetireIsANoOp) {
  SinglePhase s = make_single_phase(4);
  ExecConfig cfg;
  cfg.grain = 1;
  ShardedExecutive ex(s.prog, cfg, CostModel::free_of_charge(),
                      {.shards = 1, .workers = 1, .batch = 8});
  ex.start();

  sched::Dispatcher d({.workers = 1, .batch = 8});
  std::vector<Ticket> done;  // empty: nothing to retire on the first trip
  EXPECT_EQ(d.refill(ex, 0, done), 4u);

  // Queue still full, executive dry: a second refill retires nothing and
  // pulls nothing, without disturbing the queued assignments.
  EXPECT_EQ(d.refill(ex, 0, done), 0u);
  EXPECT_EQ(d.occupancy(0), 4u);
}

TEST(Dispatcher, DrainBusySpansEveryBodyAndNoMoreThanTheCall) {
  SinglePhase s = make_single_phase(8);
  ExecConfig cfg;
  cfg.grain = 1;
  ShardedExecutive ex(s.prog, cfg, CostModel::free_of_charge(),
                      {.shards = 1, .workers = 1, .batch = 8});
  ex.start();

  // Each body times itself between two clock reads of its own.
  std::chrono::nanoseconds self{0};
  rt::BodyTable bodies;
  bodies.set(s.p, [&self](GranuleRange, WorkerId) {
    const auto t0 = std::chrono::steady_clock::now();
    auto t1 = t0;
    while (t1 - t0 < std::chrono::microseconds{20})
      t1 = std::chrono::steady_clock::now();
    self += t1 - t0;
  });

  sched::Dispatcher d({.workers = 1, .batch = 8});
  std::vector<Ticket> done;
  sched::BodyLoopStats stats;
  // A drain that pops nothing adds no busy.
  d.drain_local(bodies, 0, done, stats);
  EXPECT_EQ(stats.busy.count(), 0);
  EXPECT_EQ(stats.tasks, 0u);

  ASSERT_EQ(d.refill(ex, 0, done), 8u);
  const auto c0 = std::chrono::steady_clock::now();
  d.drain_local(bodies, 0, done, stats);
  const auto c1 = std::chrono::steady_clock::now();
  EXPECT_EQ(stats.tasks, 8u);
  EXPECT_EQ(done.size(), 8u);
  // Busy is the drain's span: it covers every body and the bookkeeping
  // between them, and never exceeds the call that contains it.
  EXPECT_GE(stats.busy, self);
  EXPECT_LE(stats.busy, c1 - c0);

  // Queue dry: another drain pops nothing and leaves busy alone.
  const std::chrono::nanoseconds before = stats.busy;
  d.drain_local(bodies, 0, done, stats);
  EXPECT_EQ(stats.busy, before);
  EXPECT_EQ(stats.tasks, 8u);
}

TEST(Dispatcher, BodySequenceIsOddInsideABodyAndEvenAfterTheDrain) {
  SinglePhase s = make_single_phase(4);
  ExecConfig cfg;
  cfg.grain = 1;
  ShardedExecutive ex(s.prog, cfg, CostModel::free_of_charge(),
                      {.shards = 1, .workers = 2, .batch = 8});
  ex.start();

  sched::Dispatcher d({.workers = 2, .batch = 8});
  std::vector<std::uint64_t> seen;
  rt::BodyTable bodies;
  bodies.set(s.p, [&d, &seen](GranuleRange r, WorkerId w) {
    seen.push_back(d.body_seq(w));
    if (r.lo == 3) throw std::runtime_error("last body throws");
  });
  EXPECT_EQ(d.body_seq(0), 0u);

  std::vector<Ticket> done;
  ASSERT_EQ(d.refill(ex, 0, done), 4u);
  sched::BodyLoopStats stats;
  d.drain_local(bodies, 0, done, stats);
  // Owner pops follow the handout order, so granule 3's body runs last:
  // the cell is even after the drain even though that body threw.
  ASSERT_EQ(seen.size(), 4u);
  for (std::size_t i = 0; i < seen.size(); ++i)
    EXPECT_EQ(seen[i], 2 * i + 1) << "body " << i;
  EXPECT_EQ(d.body_seq(0), 8u);
  EXPECT_EQ(stats.faulted, 1u);
  EXPECT_EQ(d.fault_buffer(0).size(), 1u);
  EXPECT_EQ(d.body_seq(1), 0u);  // a worker's cell is its own
}

TEST(Dispatcher, RefillPreservesExecutiveHandoutOrder) {
  SinglePhase s = make_single_phase(6);
  ExecConfig cfg;
  cfg.grain = 2;
  ShardedExecutive ex(s.prog, cfg, CostModel::free_of_charge(),
                      {.shards = 1, .workers = 1, .batch = 8});
  ex.start();

  sched::Dispatcher d({.workers = 1, .batch = 8});
  std::vector<Ticket> done;
  ASSERT_EQ(d.refill(ex, 0, done), 3u);
  Assignment a;
  GranuleId expect_lo = 0;
  while (d.pop_local(0, a)) {
    EXPECT_EQ(a.range.lo, expect_lo);  // owner pop order == handout order
    expect_lo = a.range.hi;
  }
  EXPECT_EQ(expect_lo, 6u);
}

TEST(Dispatcher, StealCoversRefillReturningZeroWhilePeersHoldWork) {
  SinglePhase s = make_single_phase(8);
  ExecConfig cfg;
  cfg.grain = 1;
  ShardedExecutive ex(s.prog, cfg, CostModel::free_of_charge(),
                      {.shards = 1, .workers = 2, .batch = 8});
  ex.start();

  sched::Dispatcher d({.workers = 2, .batch = 8});
  std::vector<Ticket> done0, done1;
  // Worker 0 over-refills: the whole phase lands in its local queue.
  ASSERT_EQ(d.refill(ex, 0, done0), 8u);
  // Worker 1's refill returns zero — the executive is dry — while its peer
  // holds every assignment: the exact situation stealing exists for.
  EXPECT_EQ(d.refill(ex, 1, done1), 0u);
  EXPECT_FALSE(ex.work_available());
  EXPECT_FALSE(ex.finished());
  EXPECT_GT(d.occupancy(0), 0u);
  EXPECT_TRUE(d.any_local_work());

  const std::size_t got = d.try_steal(1);
  EXPECT_EQ(got, 4u);  // half of the victim's queue
  EXPECT_EQ(d.occupancy(1), 4u);
  EXPECT_EQ(d.occupancy(0), 4u);

  // Drive both "workers" to completion single-threadedly through the same
  // pop/retire cycle the runtimes use.
  rt::BodyTable bodies;
  bodies.set(s.p, [](GranuleRange, WorkerId) {});
  sched::BodyLoopStats stats;
  for (int rounds = 0; rounds < 8 && !ex.finished(); ++rounds) {
    d.drain_local(bodies, 0, done0, stats);
    d.refill(ex, 0, done0);
    d.drain_local(bodies, 1, done1, stats);
    d.refill(ex, 1, done1);
  }
  EXPECT_TRUE(ex.finished());
  EXPECT_EQ(stats.granules, 8u);
  EXPECT_FALSE(d.any_local_work());
}

// --- sharded executive front-end (deterministic, single-threaded) ------------

TEST(ShardedExecutive, SweepScattersAndSiblingsServeWithoutControl) {
  SinglePhase s = make_single_phase(32);
  ExecConfig cfg;
  cfg.grain = 1;
  ShardedExecutive ex(s.prog, cfg, CostModel::free_of_charge(),
                      {.shards = 2, .workers = 2, .batch = 4});
  EXPECT_EQ(ex.shards(), 2u);
  ex.start();
  EXPECT_TRUE(ex.work_available());

  // Worker 0's first acquire falls through to a control sweep: it pulls its
  // own batch and re-scatters the shard buffers (depth = batch = 4 each).
  std::vector<Ticket> done;
  std::vector<Assignment> out0;
  const ShardAcquire a0 = ex.acquire(0, 4, done, out0);
  EXPECT_TRUE(a0.swept);
  EXPECT_EQ(a0.taken, 4u);
  EXPECT_TRUE(a0.new_work);  // the scatter made work visible to peers
  const ShardStatsView after_sweep = ex.stats();
  EXPECT_EQ(after_sweep.scattered, 8u);  // both shards topped to depth

  // Worker 1's home shard was filled by that sweep: a pure shard-buffer hit,
  // no control-mutex section.
  std::vector<Assignment> out1;
  const ShardAcquire a1 = ex.acquire(1, 2, done, out1);
  EXPECT_FALSE(a1.swept);
  EXPECT_EQ(a1.taken, 2u);
  const ShardStatsView after_hit = ex.stats();
  EXPECT_EQ(after_hit.control_acquisitions, after_sweep.control_acquisitions);
  EXPECT_EQ(after_hit.shard_hits, 1u);

  // Worker 0 drains its home buffer, then its sibling's remainder before the
  // next sweep (sibling hit).
  std::vector<Assignment> out2;
  (void)ex.acquire(0, 32, done, out2);
  std::vector<Assignment> out3;
  const ShardAcquire a3 = ex.acquire(0, 32, done, out3);
  EXPECT_FALSE(a3.swept);
  EXPECT_GT(a3.taken, 0u);
  EXPECT_EQ(ex.stats().sibling_hits, 1u);
  ex.check_census();
}

TEST(ShardedExecutive, ElevatedReleaseOutranksBufferedNormalWork) {
  // A conflicting computation released at elevated priority must not wait
  // behind pre-carved normal work sitting in a shard buffer: the census
  // flags the elevated entry and the next acquire sweeps instead of taking
  // the buffer.
  PhaseProgram prog;
  const PhaseId p = prog.define_phase(make_phase("p", 24).writes("X"));
  const PhaseId q = prog.define_phase(make_phase("q", 4).reads("X").writes("Z"));
  prog.dispatch(p);
  prog.halt();

  ExecConfig cfg;
  cfg.grain = 1;
  ShardedExecutive ex(prog, cfg, CostModel::free_of_charge(),
                      {.shards = 2, .workers = 2, .batch = 4});
  ex.start();
  std::vector<Ticket> done;
  std::vector<Assignment> out;
  (void)ex.acquire(0, 2, done, out);  // sweep: buffers now hold normal work

  // Retire the first two assignments, completing... not the run; then submit
  // conflicting work against run 0 — released immediately *iff* complete.
  // Run 0 is still open, so the work parks on its barrier; finish the run.
  ex.submit_conflicting(0, q, {0, 4});
  while (!ex.finished()) {
    for (const Assignment& a : out) done.push_back(a.ticket);
    out.clear();
    const ShardAcquire a = ex.acquire(0, 4, done, out);
    if (a.taken == 0 && out.empty() && ex.finished()) break;
    // Once the elevated release fires, it must be handed out ahead of any
    // still-buffered normal work.
    for (const Assignment& got : out)
      if (got.priority == Priority::kElevated) {
        EXPECT_EQ(got.phase, q);
      }
    if (out.empty() && a.taken == 0) break;
  }
  EXPECT_TRUE(ex.finished());
  ex.check_census();
}

/// Holds the first structural event after arm() until open(). Sinks run
/// under the control mutex, so a blocked sink holds a sweep open for as long
/// as the test wants.
class GateSink final : public ExecEventSink {
 public:
  void on_event(const ExecEvent&) override {
    if (!armed_.exchange(false)) return;
    entered_.store(true);
    while (!open_.load()) std::this_thread::yield();
  }
  void arm() { armed_.store(true); }
  void open() { open_.store(true); }
  [[nodiscard]] bool entered() const { return entered_.load(); }

 private:
  std::atomic<bool> armed_{false};
  std::atomic<bool> entered_{false};
  std::atomic<bool> open_{false};
};

TEST(ShardedExecutive, BusyControlPlaneSkipsTheSweepInsteadOfQueueing) {
  // Worker 0's sweep is held open by the gate. Worker 1 deposits, finds the
  // control mutex taken, and must come back without blocking (counted as
  // control_busy); its deposits then retire in a later sweep, exactly once.
  const GranuleId n = 16;
  PhaseProgram prog;
  const PhaseId a = prog.define_phase(make_phase("a", n).writes("X"));
  const PhaseId b = prog.define_phase(make_phase("b", n).reads("X").writes("Y"));
  prog.dispatch(a, {EnableClause{"b", MappingKind::kIdentity, {}}});
  prog.dispatch(b);
  prog.halt();
  ExecConfig cfg;
  cfg.grain = 1;
  GateSink gate;
  ShardedExecutive ex(prog, cfg, CostModel::free_of_charge(),
                      {.shards = 2, .workers = 2, .batch = 4});
  ex.core_unsynchronized().set_event_sink(&gate);
  ex.start();

  // Hand out all of a; split its tickets between the two workers. Each half
  // reaches the flush threshold (2x batch), so each deposit asks to sweep.
  std::vector<Ticket> done0, done1;
  std::vector<Assignment> handed;
  std::size_t retired = 0;
  while (true) {
    std::vector<Assignment> buf;
    const ShardAcquire r0 = ex.acquire(0, 4, done0, buf);
    const ShardAcquire r1 = ex.acquire(1, 4, done1, buf);
    retired += r0.retired + r1.retired;
    handed.insert(handed.end(), buf.begin(), buf.end());
    if (r0.taken + r1.taken == 0) break;
  }
  ASSERT_EQ(handed.size(), n);
  for (std::size_t i = 0; i < handed.size(); ++i)
    (i % 2 == 0 ? done0 : done1).push_back(handed[i].ticket);

  gate.arm();
  std::vector<Assignment> out0, out1;
  auto sweeper = std::async(std::launch::async, [&] { return ex.acquire(0, 4, done0, out0); });
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds{10};
  while (!gate.entered() && std::chrono::steady_clock::now() < deadline)
    std::this_thread::yield();
  ASSERT_TRUE(gate.entered()) << "worker 0's sweep never reached the sink";

  auto skipper = std::async(std::launch::async, [&] { return ex.acquire(1, 4, done1, out1); });
  const bool returned =
      skipper.wait_for(std::chrono::seconds{10}) == std::future_status::ready;
  EXPECT_TRUE(returned) << "acquire() queued behind the sweep in flight";
  gate.open();
  const ShardAcquire skipped = skipper.get();
  const ShardAcquire swept = sweeper.get();
  EXPECT_FALSE(skipped.swept);
  EXPECT_EQ(skipped.retired, 0u);
  EXPECT_TRUE(done1.empty()) << "deposits must leave `done` even when the sweep is skipped";
  EXPECT_EQ(ex.stats().control_busy, 1u);
  EXPECT_TRUE(ex.work_available()) << "worker 1's deposits must keep the census live";
  EXPECT_TRUE(swept.swept);
  retired += swept.retired + skipped.retired;

  // Drive the rest single-threaded: everything handed out is retired by the
  // next acquire, until the program finishes.
  std::vector<Ticket> pending;
  for (const auto* out : {&out0, &out1}) {
    handed.insert(handed.end(), out->begin(), out->end());
    for (const Assignment& as : *out) pending.push_back(as.ticket);
  }
  for (int round = 0; !ex.finished() && round < 64; ++round) {
    std::vector<Assignment> buf;
    const ShardAcquire r = ex.acquire(static_cast<WorkerId>(round % 2), 4, pending, buf);
    retired += r.retired;
    handed.insert(handed.end(), buf.begin(), buf.end());
    for (const Assignment& as : buf) pending.push_back(as.ticket);
  }
  ASSERT_TRUE(ex.finished());
  std::vector<GranuleId> per_phase(2, 0);
  for (const Assignment& as : handed) per_phase[as.phase] += as.range.size();
  EXPECT_EQ(per_phase[a], n);
  EXPECT_EQ(per_phase[b], n);
  EXPECT_EQ(retired, handed.size()) << "every ticket retires exactly once";
  EXPECT_EQ(ex.stats().deposits, handed.size());
  ex.check_census();
}

TEST(ShardedExecutive, DepositsRetireInOneCoalescedSweep) {
  // Worker 0 deposits while a peer's sweep holds the control plane, so its
  // tickets stay in its shard's deposit box. Worker 1's deposit-only
  // acquire then retires both shards' boxes, 16 tickets, in ONE sweep.
  const GranuleId n = 17;  // 8 tickets per worker plus the holder's one
  PhaseProgram prog;
  const PhaseId a = prog.define_phase(make_phase("a", n).writes("X"));
  const PhaseId b = prog.define_phase(make_phase("b", n).reads("X").writes("Y"));
  prog.dispatch(a, {EnableClause{"b", MappingKind::kIdentity, {}}});
  prog.dispatch(b);
  prog.halt();
  ExecConfig cfg;
  cfg.grain = 1;
  GateSink gate;
  // batch 16: the forced-sweep threshold (2 x batch) is never crossed, so
  // only an acquire that reaches the control plane retires deposits.
  ShardedExecutive ex(prog, cfg, CostModel::free_of_charge(),
                      {.shards = 2, .workers = 2, .batch = 16});
  ex.core_unsynchronized().set_event_sink(&gate);
  ex.start();

  // Hand out all of a; nothing retires yet, so b stays disabled.
  std::vector<Ticket> none;
  std::vector<Assignment> handed;
  while (true) {
    std::vector<Assignment> buf;
    const ShardAcquire r0 = ex.acquire(0, 4, none, buf);
    const ShardAcquire r1 = ex.acquire(1, 4, none, buf);
    handed.insert(handed.end(), buf.begin(), buf.end());
    if (r0.taken + r1.taken == 0) break;
  }
  ASSERT_EQ(handed.size(), n);
  std::vector<Ticket> held{handed.back().ticket};
  std::vector<Ticket> done0, done1;
  for (std::size_t i = 0; i + 1 < handed.size(); ++i)
    (i % 2 == 0 ? done0 : done1).push_back(handed[i].ticket);

  // The holder's sweep retires its one ticket; the identity edge enables a
  // granule of b, and the gate holds that event — and the control mutex.
  gate.arm();
  std::vector<Assignment> held_out;
  auto holder = std::async(std::launch::async, [&] { return ex.acquire(1, 0, held, held_out); });
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds{10};
  while (!gate.entered() && std::chrono::steady_clock::now() < deadline)
    std::this_thread::yield();
  ASSERT_TRUE(gate.entered()) << "the holder's sweep never reached the sink";

  std::vector<Assignment> unused;
  const ShardAcquire d0 = ex.acquire(0, 0, done0, unused);  // deposit only
  EXPECT_FALSE(d0.swept) << "worker 0 swept while the control plane was held";
  EXPECT_TRUE(done0.empty());
  gate.open();
  const ShardAcquire h = holder.get();
  EXPECT_TRUE(h.swept);
  EXPECT_EQ(h.retired, 1u);

  // Worker 1 deposits its 8 and its acquire sweeps both boxes at once.
  const std::uint64_t sweeps_before = ex.stats().sweeps;
  const ShardAcquire d1 = ex.acquire(1, 0, done1, unused);
  EXPECT_TRUE(d1.swept);
  EXPECT_EQ(d1.retired, 16u) << "the sweep left a shard's deposit box behind";
  EXPECT_EQ(ex.stats().sweeps, sweeps_before + 1);
  EXPECT_EQ(ex.stats().deposits, n);
  EXPECT_TRUE(unused.empty());

  // a is retired whole; drive b to the end single-threaded.
  std::vector<Ticket> pending;
  std::size_t b_granules = 0;
  for (int round = 0; !ex.finished() && round < 64; ++round) {
    std::vector<Assignment> buf;
    (void)ex.acquire(static_cast<WorkerId>(round % 2), 4, pending, buf);
    for (const Assignment& as : buf) {
      EXPECT_EQ(as.phase, b);
      b_granules += as.range.size();
      pending.push_back(as.ticket);
    }
  }
  ASSERT_TRUE(ex.finished());
  EXPECT_EQ(b_granules, n);
  EXPECT_EQ(handed.front().phase, a);
  ex.check_census();
}

TEST(Dispatcher, RetireRetiresWithoutPullingWork) {
  // The last rounds of a worker leaving a capped pool job: its finished
  // tickets retire, but no new work lands in its local queue.
  SinglePhase s = make_single_phase(32);
  ExecConfig cfg;
  cfg.grain = 4;
  ShardedExecutive ex(s.prog, cfg, CostModel::free_of_charge(),
                      {.shards = 1, .workers = 1, .batch = 4});
  ex.start();
  sched::Dispatcher d({.workers = 1, .batch = 2});  // local capacity 4
  std::vector<Ticket> done;
  ASSERT_EQ(d.refill(ex, 0, done), 4u);
  GranuleId granules = 0;
  Assignment a;
  while (d.pop_local(0, a)) {
    granules += a.range.hi - a.range.lo;
    done.push_back(a.ticket);
  }
  d.retire(ex, 0, done);
  EXPECT_TRUE(done.empty());
  EXPECT_EQ(d.occupancy(0), 0u);
  EXPECT_FALSE(ex.finished());
  d.retire(ex, 0, done);  // nothing to retire: returns at once
  EXPECT_EQ(d.occupancy(0), 0u);

  // The retired tickets are gone for good: the rest of the program runs
  // to completion with every granule handed out once.
  for (int round = 0; round < 16 && !ex.finished(); ++round) {
    d.refill(ex, 0, done);
    while (d.pop_local(0, a)) {
      granules += a.range.hi - a.range.lo;
      done.push_back(a.ticket);
    }
  }
  EXPECT_TRUE(ex.finished());
  EXPECT_EQ(granules, 32u);
}

TEST(Dispatcher, SingleShardRefillMatchesDirectCoreProtocol) {
  // shards = 1 must reproduce the single-mutex protocol exactly: the
  // handout ranges and order the core's own retire/request cycle produces,
  // one control section per refill. The reference drives the core
  // directly: retire the previous batch, then request a local queue's
  // worth.
  SinglePhase s1 = make_single_phase(24);
  SinglePhase s2 = make_single_phase(24);
  ExecConfig cfg;
  cfg.grain = 4;

  ExecutiveCore core(s1.prog, cfg);
  core.start();
  ShardedExecutive ex(s2.prog, cfg, CostModel::free_of_charge(),
                      {.shards = 1, .workers = 1, .batch = 4});
  ex.start();
  sched::Dispatcher d({.workers = 1, .batch = 2});  // local capacity 4

  std::vector<Ticket> done_a, done_b;
  std::vector<Assignment> direct;
  for (int round = 0; round < 16 && !(core.finished() && ex.finished());
       ++round) {
    if (!done_a.empty()) {
      (void)core.complete_batch(done_a);
      done_a.clear();
    }
    direct.clear();
    core.request_work_batch(0, d.capacity(), direct);
    const std::uint64_t sections = ex.stats().control_acquisitions;
    EXPECT_EQ(direct.size(), d.refill(ex, 0, done_b));
    EXPECT_EQ(ex.stats().control_acquisitions, sections + 1);
    std::vector<std::pair<GranuleId, GranuleId>> seq_a, seq_b;
    for (const Assignment& a : direct) {
      seq_a.emplace_back(a.range.lo, a.range.hi);
      done_a.push_back(a.ticket);
    }
    Assignment b;
    while (d.pop_local(0, b)) {
      seq_b.emplace_back(b.range.lo, b.range.hi);
      done_b.push_back(b.ticket);
    }
    EXPECT_EQ(seq_a, seq_b) << "handout diverged in round " << round;
  }
  EXPECT_TRUE(core.finished());
  EXPECT_TRUE(ex.finished());
}

// --- threaded runtime: rundown stealing --------------------------------------

TEST(RtSteal, TailHeavyRunStealsAndStaysCorrect) {
  // Ramped granule cost: the last refill holds the most expensive work, so
  // peers go dry and steal. Identity enablement must still hold.
  const GranuleId n = 256;
  PhaseProgram prog;
  PhaseId a = prog.define_phase(make_phase("a", n).writes("X"));
  PhaseId b = prog.define_phase(make_phase("b", n).reads("X").writes("Y"));
  prog.dispatch(a, {EnableClause{"b", MappingKind::kIdentity, {}}});
  prog.dispatch(b);
  prog.halt();

  rt::HappensBeforeRecorder rec(2, n);
  std::atomic<std::uint64_t> sink{0};
  rt::BodyTable bodies;
  bodies.set(a, [&](GranuleRange r, WorkerId) {
    for (GranuleId g = r.lo; g < r.hi; ++g) {
      rec.on_start(0, g);
      std::uint64_t acc = 0;
      for (GranuleId i = 0; i < 200 + g * 8; ++i) acc += i * g;
      sink.fetch_add(acc, std::memory_order_relaxed);
      rec.on_finish(0, g);
    }
  });
  bodies.set(b, [&](GranuleRange r, WorkerId) {
    for (GranuleId g = r.lo; g < r.hi; ++g) {
      rec.on_start(1, g);
      rec.on_finish(1, g);
    }
  });

  ExecConfig cfg;
  cfg.grain = 8;
  rt::RtConfig rc;
  rc.workers = 4;
  rc.batch = 8;  // capacity 16: over-refill leaves stealable slack
  const rt::RtResult res =
      rt::ThreadedRuntime(prog, cfg, CostModel::free_of_charge(), bodies, rc).run();

  EXPECT_EQ(res.granules_executed, 2u * n);
  EXPECT_GT(testing::metric(res.metrics, "queue.peak_occupancy"), 1u);
  for (GranuleId g = 0; g < n; ++g) {
    ASSERT_TRUE(rec.executed(0, g));
    ASSERT_TRUE(rec.executed(1, g));
    EXPECT_LT(rec.finish_ticket(0, g), rec.start_ticket(1, g))
        << "identity enablement violated at granule " << g;
  }
}

TEST(RtSteal, SingleWorkerNeverSteals) {
  SinglePhase s = make_single_phase(64);
  rt::BodyTable bodies;
  bodies.set(s.p, [](GranuleRange, WorkerId) {});
  ExecConfig cfg;
  cfg.grain = 4;
  rt::RtConfig rc;
  rc.workers = 1;
  rc.batch = 4;
  const rt::RtResult res =
      rt::ThreadedRuntime(s.prog, cfg, CostModel::free_of_charge(), bodies, rc)
          .run();
  EXPECT_EQ(res.granules_executed, 64u);
  EXPECT_EQ(testing::metric(res.metrics, "worker.steals"), 0u);
  EXPECT_EQ(testing::metric(res.metrics, "worker.steal_fail_spins"), 0u);
}

// --- pool integration --------------------------------------------------------

TEST(PoolSteal, StealsSumAcrossJobsAndStatsStayConsistent) {
  // Imbalanced jobs on a stealing pool: whatever steals happen, worker-side
  // and job-side accounting must agree exactly.
  pool::PoolRuntime pool({.workers = 4, .batch = 8});
  std::atomic<std::uint64_t> sink{0};

  SinglePhase progs[3] = {make_single_phase(96), make_single_phase(96),
                          make_single_phase(96)};
  std::vector<rt::BodyTable> bodies(3);
  for (int j = 0; j < 3; ++j)
    bodies[j].set(progs[j].p, [&sink](GranuleRange r, WorkerId) {
      std::uint64_t acc = 0;
      for (GranuleId g = r.lo; g < r.hi; ++g)
        for (GranuleId i = 0; i < 100 + g * 4; ++i) acc += i;
      sink.fetch_add(acc, std::memory_order_relaxed);
    });

  ExecConfig cfg;
  cfg.grain = 8;
  std::vector<pool::JobHandle> handles;
  for (int j = 0; j < 3; ++j)
    handles.push_back(pool.submit(progs[j].prog, bodies[j], cfg));
  for (auto& h : handles) EXPECT_EQ(h.wait(), pool::JobState::kComplete);
  pool.shutdown();

  const pool::PoolStats ps = pool.stats();
  std::uint64_t job_granules = 0, job_steals = 0;
  for (auto& h : handles) {
    job_granules += h.stats().granules;
    job_steals += h.stats().steals;
  }
  EXPECT_EQ(job_granules, 3u * 96u);
  EXPECT_EQ(testing::metric(ps.metrics, "worker.granules"), job_granules);
  EXPECT_EQ(testing::metric(ps.metrics, "worker.steals"), job_steals);
  EXPECT_EQ(testing::metric(ps.metrics, "pool.jobs_completed"), 3u);
}

TEST(PoolSteal, CancellationObservedMidBatch) {
  // One worker, resident mid-batch on a gated job A when job B is cancelled:
  // B must report cancelled with zero stats, A must run to completion, and
  // the pool must drain cleanly.
  pool::PoolRuntime pool({.workers = 1, .batch = 4});
  SinglePhase a = make_single_phase(8);
  SinglePhase b = make_single_phase(8);

  std::atomic<bool> gate{false};
  std::atomic<bool> a_started{false};
  std::atomic<std::uint32_t> a_granules{0};
  rt::BodyTable a_bodies;
  a_bodies.set(a.p, [&](GranuleRange r, WorkerId) {
    a_started.store(true, std::memory_order_release);
    while (!gate.load(std::memory_order_acquire)) std::this_thread::yield();
    a_granules += r.size();
  });
  rt::BodyTable b_bodies;
  b_bodies.set(b.p, [](GranuleRange, WorkerId) { FAIL() << "cancelled job ran"; });

  ExecConfig cfg;
  cfg.grain = 2;  // several assignments per batch: the cancel lands mid-batch
  pool::JobHandle ha = pool.submit(a.prog, a_bodies, cfg);
  while (!a_started.load(std::memory_order_acquire)) std::this_thread::yield();
  pool::JobHandle hb = pool.submit(b.prog, b_bodies, cfg);
  EXPECT_TRUE(hb.cancel());  // the only worker is pinned inside A's batch
  EXPECT_EQ(hb.state(), pool::JobState::kCancelled);
  gate.store(true, std::memory_order_release);

  EXPECT_EQ(ha.wait(), pool::JobState::kComplete);
  pool.shutdown();

  EXPECT_EQ(a_granules.load(), 8u);
  EXPECT_EQ(hb.stats().granules, 0u);
  EXPECT_EQ(hb.stats().steals, 0u);
  const pool::PoolStats ps = pool.stats();
  EXPECT_EQ(testing::metric(ps.metrics, "pool.jobs_cancelled"), 1u);
  EXPECT_EQ(testing::metric(ps.metrics, "pool.jobs_completed"), 1u);
  EXPECT_EQ(testing::metric(ps.metrics, "worker.granules"), 8u);
}

}  // namespace
}  // namespace pax
