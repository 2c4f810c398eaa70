// Threaded runtime tests: happens-before verification of enablement on real
// threads, overlap evidence, strict baseline, and stress.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>

#include "runtime/happens_before.hpp"
#include "runtime/threaded_runtime.hpp"
#include "testing_util.hpp"

namespace pax::rt {
namespace {

struct TwoPhaseSetup {
  PhaseProgram prog;
  PhaseId a = kNoPhase;
  PhaseId b = kNoPhase;
};

TwoPhaseSetup make_two_phase(GranuleId n, MappingKind kind,
                             IndirectionSpec indirection = {}) {
  TwoPhaseSetup s;
  s.a = s.prog.define_phase(make_phase("a", n).writes("X"));
  s.b = s.prog.define_phase(make_phase("b", n).reads("X").writes("Y"));
  EnableClause clause{"b", kind, std::move(indirection)};
  s.prog.dispatch(s.a, {clause});
  s.prog.dispatch(s.b);
  s.prog.halt();
  return s;
}

class RtIdentityOrder : public ::testing::TestWithParam<int> {};

TEST_P(RtIdentityOrder, SuccessorGranuleNeverStartsBeforeEnablerFinishes) {
  const auto workers = static_cast<std::uint32_t>(GetParam());
  const GranuleId n = 512;
  TwoPhaseSetup s = make_two_phase(n, MappingKind::kIdentity);
  HappensBeforeRecorder rec(2, n);

  BodyTable bodies;
  bodies.set(s.a, [&](GranuleRange r, WorkerId) {
    for (GranuleId g = r.lo; g < r.hi; ++g) {
      rec.on_start(0, g);
      rec.on_finish(0, g);
    }
  });
  bodies.set(s.b, [&](GranuleRange r, WorkerId) {
    for (GranuleId g = r.lo; g < r.hi; ++g) {
      rec.on_start(1, g);
      rec.on_finish(1, g);
    }
  });

  ExecConfig cfg;
  cfg.grain = 16;
  ThreadedRuntime runtime(s.prog, cfg, CostModel::free_of_charge(), bodies,
                          {workers});
  const RtResult res = runtime.run();
  EXPECT_EQ(res.granules_executed, 2u * n);

  for (GranuleId g = 0; g < n; ++g) {
    ASSERT_TRUE(rec.executed(0, g));
    ASSERT_TRUE(rec.executed(1, g));
    EXPECT_LT(rec.finish_ticket(0, g), rec.start_ticket(1, g))
        << "identity enablement violated at granule " << g;
  }
}

INSTANTIATE_TEST_SUITE_P(Workers, RtIdentityOrder, ::testing::Values(1, 2, 4, 8),
                         [](const auto& info) {
                           return "w" + std::to_string(info.param);
                         });

TEST(RtReverseIndirect, AllRequirementsFinishBeforeSuccessorStarts) {
  const GranuleId n = 256;
  auto requires_list = [n](GranuleId r) {
    return std::vector<GranuleId>{r, (r * 5 + 3) % n, (r * 11 + 7) % n};
  };
  IndirectionSpec ind;
  ind.requires_of = [requires_list](GranuleId r, std::vector<GranuleId>& out) {
    for (GranuleId p : requires_list(r)) out.push_back(p);
  };
  TwoPhaseSetup s = make_two_phase(n, MappingKind::kReverseIndirect, ind);
  HappensBeforeRecorder rec(2, n);
  BodyTable bodies;
  bodies.set(s.a, [&](GranuleRange r, WorkerId) {
    for (GranuleId g = r.lo; g < r.hi; ++g) {
      rec.on_start(0, g);
      rec.on_finish(0, g);
    }
  });
  bodies.set(s.b, [&](GranuleRange r, WorkerId) {
    for (GranuleId g = r.lo; g < r.hi; ++g) {
      rec.on_start(1, g);
      rec.on_finish(1, g);
    }
  });
  ExecConfig cfg;
  cfg.grain = 8;
  ThreadedRuntime runtime(s.prog, cfg, CostModel::free_of_charge(), bodies, {4});
  const RtResult res = runtime.run();
  EXPECT_EQ(res.granules_executed, 2u * n);
  for (GranuleId r = 0; r < n; ++r)
    for (GranuleId need : requires_list(r))
      EXPECT_LT(rec.finish_ticket(0, need), rec.start_ticket(1, r))
          << "successor " << r << " started before requirement " << need;
}

TEST(RtStrictBaseline, NoOverlapMeansStrictPhaseOrder) {
  const GranuleId n = 256;
  TwoPhaseSetup s = make_two_phase(n, MappingKind::kIdentity);
  HappensBeforeRecorder rec(2, n);
  BodyTable bodies;
  bodies.set(s.a, [&](GranuleRange r, WorkerId) {
    for (GranuleId g = r.lo; g < r.hi; ++g) {
      rec.on_start(0, g);
      rec.on_finish(0, g);
    }
  });
  bodies.set(s.b, [&](GranuleRange r, WorkerId) {
    for (GranuleId g = r.lo; g < r.hi; ++g) {
      rec.on_start(1, g);
      rec.on_finish(1, g);
    }
  });
  ExecConfig cfg;
  cfg.grain = 16;
  cfg.overlap = false;
  ThreadedRuntime runtime(s.prog, cfg, CostModel::free_of_charge(), bodies, {4});
  runtime.run();
  EXPECT_TRUE(rec.strict_phase_order(0, 1, n));
}

TEST(RtOverlapEvidence, OverlapActuallyHappensWithManyWorkers) {
  // With overlap on and several workers, at least one successor granule
  // should start before the predecessor fully finishes (probabilistic but
  // over 512 granules effectively certain — the last predecessor granule
  // cannot finish before the first enabled successor granule is available).
  const GranuleId n = 512;
  TwoPhaseSetup s = make_two_phase(n, MappingKind::kIdentity);
  HappensBeforeRecorder rec(2, n);
  std::atomic<int> spin{0};
  BodyTable bodies;
  bodies.set(s.a, [&](GranuleRange r, WorkerId) {
    for (GranuleId g = r.lo; g < r.hi; ++g) {
      rec.on_start(0, g);
      for (int i = 0; i < 2000; ++i) spin.fetch_add(1, std::memory_order_relaxed);
      rec.on_finish(0, g);
    }
  });
  bodies.set(s.b, [&](GranuleRange r, WorkerId) {
    for (GranuleId g = r.lo; g < r.hi; ++g) {
      rec.on_start(1, g);
      rec.on_finish(1, g);
    }
  });
  ExecConfig cfg;
  cfg.grain = 8;
  ThreadedRuntime runtime(s.prog, cfg, CostModel::free_of_charge(), bodies, {4});
  runtime.run();
  EXPECT_TRUE(rec.overlapped(0, 1, n));
}

TEST(RtResultAccounting, UtilizationAndBusyTimesPlausible) {
  const GranuleId n = 128;
  TwoPhaseSetup s = make_two_phase(n, MappingKind::kIdentity);
  std::atomic<std::uint64_t> sink{0};
  BodyTable bodies;
  auto burn = [&](GranuleRange r, WorkerId) {
    std::uint64_t acc = 0;
    for (GranuleId g = r.lo; g < r.hi; ++g)
      for (int i = 0; i < 5000; ++i) acc += static_cast<std::uint64_t>(i) * g;
    sink.fetch_add(acc, std::memory_order_relaxed);
  };
  bodies.set(s.a, burn);
  bodies.set(s.b, burn);
  ExecConfig cfg;
  cfg.grain = 8;
  ThreadedRuntime runtime(s.prog, cfg, CostModel{}, bodies, {2});
  const RtResult res = runtime.run();
  EXPECT_EQ(res.worker_busy.size(), 2u);
  EXPECT_GT(res.utilization(), 0.0);
  EXPECT_LE(res.utilization(), 1.0 + 1e-9);
  EXPECT_GT(res.ledger.count(MgmtOp::kCompletion), 0u);
}

TEST(RtStress, ManySmallPhasesInLoop) {
  // A loop program with three phases cycling 20 times on 4 workers.
  PhaseProgram prog;
  PhaseId a = prog.define_phase(make_phase("a", 64).writes("A64"));
  PhaseId b = prog.define_phase(make_phase("b", 64).reads("A64").writes("B64"));
  PhaseId c = prog.define_phase(make_phase("c", 64).reads("B64").writes("C64"));
  prog.serial("init", [](ProgramEnv& env) { env.set("i", 0); }, 0, false);
  const std::uint32_t top =
      prog.dispatch(a, {EnableClause{"b", MappingKind::kIdentity, {}}});
  prog.dispatch(b, {EnableClause{"c", MappingKind::kIdentity, {}}});
  prog.dispatch(c);
  prog.serial("inc", [](ProgramEnv& env) { env.add("i", 1); }, 0, false);
  prog.branch("loop",
              [](const ProgramEnv& env) {
                return env.get("i") < 20 ? std::size_t{0} : std::size_t{1};
              },
              {top, static_cast<std::uint32_t>(prog.size() + 1)}, true);
  prog.halt();

  std::atomic<std::uint64_t> executed{0};
  BodyTable bodies;
  auto body = [&](GranuleRange r, WorkerId) {
    executed.fetch_add(r.size(), std::memory_order_relaxed);
  };
  bodies.set(a, body);
  bodies.set(b, body);
  bodies.set(c, body);
  ExecConfig cfg;
  cfg.grain = 8;
  cfg.early_serial = true;
  ThreadedRuntime runtime(prog, cfg, CostModel::free_of_charge(), bodies, {4});
  const RtResult res = runtime.run();
  EXPECT_EQ(res.granules_executed, 20u * 3u * 64u);
  EXPECT_EQ(executed.load(), 20u * 3u * 64u);
  EXPECT_TRUE(res.diagnostics.empty());
}

// --- batched executive handoff ---------------------------------------------

class RtBatchedHandoff : public ::testing::TestWithParam<int> {};

TEST_P(RtBatchedHandoff, IdentityOrderHoldsUnderBatching) {
  const auto batch = static_cast<std::uint32_t>(GetParam());
  const GranuleId n = 512;
  TwoPhaseSetup s = make_two_phase(n, MappingKind::kIdentity);
  HappensBeforeRecorder rec(2, n);

  BodyTable bodies;
  bodies.set(s.a, [&](GranuleRange r, WorkerId) {
    for (GranuleId g = r.lo; g < r.hi; ++g) {
      rec.on_start(0, g);
      rec.on_finish(0, g);
    }
  });
  bodies.set(s.b, [&](GranuleRange r, WorkerId) {
    for (GranuleId g = r.lo; g < r.hi; ++g) {
      rec.on_start(1, g);
      rec.on_finish(1, g);
    }
  });

  ExecConfig cfg;
  cfg.grain = 16;
  ThreadedRuntime runtime(s.prog, cfg, CostModel::free_of_charge(), bodies,
                          {4, batch});
  const RtResult res = runtime.run();
  EXPECT_EQ(res.granules_executed, 2u * n);

  for (GranuleId g = 0; g < n; ++g) {
    ASSERT_TRUE(rec.executed(0, g));
    ASSERT_TRUE(rec.executed(1, g));
    EXPECT_LT(rec.finish_ticket(0, g), rec.start_ticket(1, g))
        << "identity enablement violated at granule " << g;
  }
}

INSTANTIATE_TEST_SUITE_P(Batches, RtBatchedHandoff, ::testing::Values(2, 4, 16),
                         [](const auto& info) {
                           return "b" + std::to_string(info.param);
                         });

TEST(RtBatchedHandoff, ReverseIndirectOrderHoldsUnderBatching) {
  const GranuleId n = 256;
  auto requires_list = [n](GranuleId r) {
    return std::vector<GranuleId>{r, (r * 5 + 3) % n, (r * 11 + 7) % n};
  };
  IndirectionSpec ind;
  ind.requires_of = [requires_list](GranuleId r, std::vector<GranuleId>& out) {
    for (GranuleId p : requires_list(r)) out.push_back(p);
  };
  TwoPhaseSetup s = make_two_phase(n, MappingKind::kReverseIndirect, ind);
  HappensBeforeRecorder rec(2, n);
  BodyTable bodies;
  bodies.set(s.a, [&](GranuleRange r, WorkerId) {
    for (GranuleId g = r.lo; g < r.hi; ++g) {
      rec.on_start(0, g);
      rec.on_finish(0, g);
    }
  });
  bodies.set(s.b, [&](GranuleRange r, WorkerId) {
    for (GranuleId g = r.lo; g < r.hi; ++g) {
      rec.on_start(1, g);
      rec.on_finish(1, g);
    }
  });
  ExecConfig cfg;
  cfg.grain = 8;
  ThreadedRuntime runtime(s.prog, cfg, CostModel::free_of_charge(), bodies,
                          {4, 16});
  const RtResult res = runtime.run();
  EXPECT_EQ(res.granules_executed, 2u * n);
  for (GranuleId r = 0; r < n; ++r)
    for (GranuleId need : requires_list(r))
      EXPECT_LT(rec.finish_ticket(0, need), rec.start_ticket(1, r))
          << "successor " << r << " started before requirement " << need;
}

TEST(RtBatchedHandoff, FewerLockAcquisitionsSameWork) {
  // A loop program with enough tasks that steady-state handoff dominates.
  PhaseProgram prog;
  PhaseId a = prog.define_phase(make_phase("a", 512).writes("A"));
  PhaseId b = prog.define_phase(make_phase("b", 512).reads("A").writes("B"));
  prog.serial("init", [](ProgramEnv& env) { env.set("i", 0); }, 0, false);
  const std::uint32_t top =
      prog.dispatch(a, {EnableClause{"b", MappingKind::kIdentity, {}}});
  prog.dispatch(b);
  prog.serial("inc", [](ProgramEnv& env) { env.add("i", 1); }, 0, false);
  prog.branch("loop",
              [](const ProgramEnv& env) {
                return env.get("i") < 4 ? std::size_t{0} : std::size_t{1};
              },
              {top, static_cast<std::uint32_t>(prog.size() + 1)}, true);
  prog.halt();

  BodyTable bodies;
  auto body = [](GranuleRange, WorkerId) {};
  bodies.set(a, body);
  bodies.set(b, body);

  auto run_with_batch = [&](std::uint32_t batch) {
    ExecConfig cfg;
    cfg.grain = 4;
    cfg.early_serial = true;
    // Every assignment is carved at the grain, so task counts stay equal
    // across batch sizes whoever runs or steals them (test_sched covers
    // the dispatch layer on top).
    RtConfig rc;
    rc.workers = 4;
    rc.batch = batch;
    ThreadedRuntime runtime(prog, cfg, CostModel::free_of_charge(), bodies, rc);
    return runtime.run();
  };
  const RtResult r1 = run_with_batch(1);
  const RtResult r16 = run_with_batch(16);

  EXPECT_EQ(r1.granules_executed, 4u * 2u * 512u);
  EXPECT_EQ(r16.granules_executed, r1.granules_executed);
  EXPECT_EQ(testing::metric(r16.metrics, "worker.tasks"),
            testing::metric(r1.metrics, "worker.tasks"));
  // The acceptance bar is 2x; steady state delivers far more (~16x), so 2x
  // leaves headroom for wait-path reacquisitions under scheduler noise.
  const std::uint64_t locks1 = testing::control_and_wait_locks(r1.metrics);
  const std::uint64_t locks16 = testing::control_and_wait_locks(r16.metrics);
  EXPECT_GE(locks1, 2 * locks16)
      << "batch=1 locks: " << locks1 << ", batch=16 locks: " << locks16;
}

// --- dynamic conflicting submission on real threads --------------------------

/// Phase a runs with phase b's root already queued behind it (universal
/// mapping). Mid-run, a body dynamically submits phase-c work conflicting
/// with a's run; c is released at elevated priority when a's run completes.
/// Runs on one worker with `batch`, `n` granules in a and in b.
struct ElevatedReleaseRun {
  static constexpr GranuleId kM = 16;  ///< granules of c
  static constexpr GranuleId kGrain = 8;
  GranuleId n;  ///< granules of a and of b
  HappensBeforeRecorder rec;
  RtResult res;

  ElevatedReleaseRun(std::uint32_t batch, GranuleId granules)
      : n(granules), rec(3, granules) {
    PhaseProgram prog;
    PhaseId a = prog.define_phase(make_phase("a", n).writes("X"));
    PhaseId b = prog.define_phase(make_phase("b", n).reads("X").writes("Y"));
    PhaseId c = prog.define_phase(make_phase("c", kM).reads("X").writes("Z"));
    prog.dispatch(a, {EnableClause{"b", MappingKind::kUniversal, {}}});
    prog.dispatch(b);
    prog.halt();

    ThreadedRuntime* rt_ptr = nullptr;
    std::atomic<bool> submitted{false};
    BodyTable bodies;
    bodies.set(a, [&](GranuleRange r, WorkerId) {
      if (!submitted.exchange(true)) {
        // Bodies run with the executive lock released, so submitting from
        // here is legal; a's run id is 0 (first run created).
        rt_ptr->submit_conflicting(/*blocker=*/0, c, {0, kM});
      }
      record(0, r);
    });
    bodies.set(b, [&](GranuleRange r, WorkerId) { record(1, r); });
    bodies.set(c, [&](GranuleRange r, WorkerId) { record(2, r); });

    ExecConfig cfg;
    cfg.grain = kGrain;
    ThreadedRuntime runtime(prog, cfg, CostModel::free_of_charge(), bodies,
                            RtConfig{.workers = 1, .batch = batch});
    rt_ptr = &runtime;
    res = runtime.run();
  }

  void record(PhaseId phase, GranuleRange r) {
    for (GranuleId g = r.lo; g < r.hi; ++g) {
      rec.on_start(phase, g);
      rec.on_finish(phase, g);
    }
  }

  [[nodiscard]] std::uint64_t last_finish(PhaseId phase, GranuleId count) const {
    std::uint64_t last = 0;
    for (GranuleId g = 0; g < count; ++g)
      last = std::max(last, rec.finish_ticket(phase, g));
    return last;
  }
};

TEST(RtSubmitConflicting, ElevatedReleaseOrderingEndToEnd) {
  // The paper's contract, end-to-end on real threads, with the strict
  // single-item handoff (batch 1):
  //   1. no c granule starts before a's run fully completes, and
  //   2. released c work takes the elevated lane — with one worker it must
  //      run strictly before the normal-priority b work already waiting.
  const ElevatedReleaseRun run(/*batch=*/1, /*n=*/64);
  EXPECT_EQ(run.res.granules_executed, 2u * run.n + ElevatedReleaseRun::kM);

  const std::uint64_t last_a_finish = run.last_finish(0, run.n);
  for (GranuleId g = 0; g < ElevatedReleaseRun::kM; ++g) {
    ASSERT_TRUE(run.rec.executed(2, g));
    EXPECT_GT(run.rec.start_ticket(2, g), last_a_finish)
        << "conflicting granule " << g << " ran before its blocker completed";
    EXPECT_LT(run.rec.finish_ticket(2, g), run.rec.start_ticket(1, 0))
        << "elevated release did not outrank queued normal work at " << g;
  }
}

TEST(RtSubmitConflicting, ElevatedReleaseBoundedByOneLocalQueueAtDefaultBatch) {
  // At the shipped batch the release can land behind normal work already
  // pulled into the worker's local queue, but never behind more than one
  // queue's worth: 2x batch assignments of at most `grain` granules each.
  // With a one assignment longer than a queue, a's last assignment shares
  // its refill with 2x batch - 1 assignments of b: the worst case.
  const std::uint32_t batch = RtConfig{}.batch;
  const GranuleId queue_granules = 2 * batch * ElevatedReleaseRun::kGrain;
  const ElevatedReleaseRun run(batch, queue_granules + ElevatedReleaseRun::kGrain);
  EXPECT_EQ(run.res.granules_executed, 2u * run.n + ElevatedReleaseRun::kM);

  const std::uint64_t last_a_finish = run.last_finish(0, run.n);
  for (GranuleId g = 0; g < ElevatedReleaseRun::kM; ++g) {
    ASSERT_TRUE(run.rec.executed(2, g));
    EXPECT_GT(run.rec.start_ticket(2, g), last_a_finish)
        << "conflicting granule " << g << " ran before its blocker completed";
  }
  const std::uint64_t last_c_finish = run.last_finish(2, ElevatedReleaseRun::kM);
  std::uint64_t b_ahead = 0;
  for (GranuleId g = 0; g < run.n; ++g)
    if (run.rec.start_ticket(1, g) < last_c_finish) ++b_ahead;
  EXPECT_LE(b_ahead, queue_granules)
      << "more than one local queue of normal work ran ahead of the release";
}

TEST(RtSubmitConflicting, ImmediateWhenBlockerAlreadyComplete) {
  // Submitting against an already-complete run enqueues the work directly;
  // it must still execute before the program can finish.
  const GranuleId n = 64;
  const GranuleId m = 8;
  PhaseProgram prog;
  PhaseId a = prog.define_phase(make_phase("a", n).writes("X"));
  PhaseId b = prog.define_phase(make_phase("b", n).reads("X").writes("Y"));
  PhaseId c = prog.define_phase(make_phase("c", m).reads("X").writes("Z"));
  prog.dispatch(a, {EnableClause{"b", MappingKind::kIdentity, {}}});
  prog.dispatch(b);
  prog.halt();

  std::atomic<std::uint32_t> c_granules{0};
  ThreadedRuntime* rt_ptr = nullptr;
  std::atomic<bool> submitted{false};

  BodyTable bodies;
  bodies.set(a, [](GranuleRange, WorkerId) {});
  bodies.set(b, [&](GranuleRange, WorkerId) {
    // With one worker and released b work queued at normal priority behind
    // a's remainder, every b body runs after a's run fully completed — this
    // submission deterministically takes the blocker-already-complete path.
    if (!submitted.exchange(true)) rt_ptr->submit_conflicting(0, c, {0, m});
  });
  bodies.set(c, [&](GranuleRange r, WorkerId) { c_granules += r.size(); });

  ExecConfig cfg;
  cfg.grain = 8;
  ThreadedRuntime runtime(prog, cfg, CostModel::free_of_charge(), bodies, {1});
  rt_ptr = &runtime;
  const RtResult res = runtime.run();
  EXPECT_EQ(res.granules_executed, 2u * n + m);
  EXPECT_EQ(c_granules.load(), m);
}

// --- per-worker wall accounting ----------------------------------------------

TEST(RtResultAccounting, WorkerWallMeasuredInsideWorkerMain) {
  const GranuleId n = 128;
  TwoPhaseSetup s = make_two_phase(n, MappingKind::kIdentity);
  std::atomic<std::uint64_t> sink{0};
  BodyTable bodies;
  auto burn = [&](GranuleRange r, WorkerId) {
    std::uint64_t acc = 0;
    for (GranuleId g = r.lo; g < r.hi; ++g)
      for (int i = 0; i < 2000; ++i) acc += static_cast<std::uint64_t>(i) * g;
    sink.fetch_add(acc, std::memory_order_relaxed);
  };
  bodies.set(s.a, burn);
  bodies.set(s.b, burn);
  ExecConfig cfg;
  cfg.grain = 8;
  ThreadedRuntime runtime(s.prog, cfg, CostModel{}, bodies, {3});
  const RtResult res = runtime.run();
  ASSERT_EQ(res.worker_wall.size(), 3u);
  for (std::size_t w = 0; w < res.worker_wall.size(); ++w) {
    // Busy time is a sub-interval of the worker's own wall time, and the
    // worker's wall time sits inside run()'s span (which adds spawn/join).
    EXPECT_GE(res.worker_wall[w].count(), res.worker_busy[w].count());
    EXPECT_LE(res.worker_wall[w].count(), res.wall.count());
  }
  EXPECT_GT(res.utilization(), 0.0);
  EXPECT_LE(res.utilization(), 1.0 + 1e-9);
  EXPECT_GT(testing::control_and_wait_locks(res.metrics), 0u);
}

// --- configuration validation ------------------------------------------------

TEST(RtConfigDeathTest, RejectsZeroWorkers) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  TwoPhaseSetup s = make_two_phase(8, MappingKind::kIdentity);
  BodyTable bodies;
  auto noop = [](GranuleRange, WorkerId) {};
  bodies.set(s.a, noop);
  bodies.set(s.b, noop);
  EXPECT_DEATH(ThreadedRuntime(s.prog, ExecConfig{}, CostModel::free_of_charge(),
                               bodies, {0, 1}),
               "need at least one worker");
}

TEST(RtConfigDeathTest, RejectsZeroBatch) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  TwoPhaseSetup s = make_two_phase(8, MappingKind::kIdentity);
  BodyTable bodies;
  auto noop = [](GranuleRange, WorkerId) {};
  bodies.set(s.a, noop);
  bodies.set(s.b, noop);
  EXPECT_DEATH(ThreadedRuntime(s.prog, ExecConfig{}, CostModel::free_of_charge(),
                               bodies, {4, 0}),
               "batch must be at least 1");
}

TEST(RtConfigDeathTest, RejectsZeroShards) {
  // 0 is invalid by design: "auto" is the explicit kAutoShards sentinel, so
  // a config bug can never silently mean "pick for me".
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  TwoPhaseSetup s = make_two_phase(8, MappingKind::kIdentity);
  BodyTable bodies;
  auto noop = [](GranuleRange, WorkerId) {};
  bodies.set(s.a, noop);
  bodies.set(s.b, noop);
  RtConfig rc;
  rc.workers = 2;
  rc.shards = 0;
  EXPECT_DEATH(ThreadedRuntime(s.prog, ExecConfig{}, CostModel::free_of_charge(),
                               bodies, rc),
               "shards must be at least 1");
}

TEST(RtConfigDeathTest, RejectsMoreShardsThanGranules) {
  // An explicit shard count beyond the largest phase cannot partition the
  // granule space; only kAutoShards clamps silently.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  TwoPhaseSetup s = make_two_phase(8, MappingKind::kIdentity);
  BodyTable bodies;
  auto noop = [](GranuleRange, WorkerId) {};
  bodies.set(s.a, noop);
  bodies.set(s.b, noop);
  RtConfig rc;
  rc.workers = 2;
  rc.shards = 64;
  EXPECT_DEATH(ThreadedRuntime(s.prog, ExecConfig{}, CostModel::free_of_charge(),
                               bodies, rc),
               "more shards than granules");
}

TEST(RtConfig, AutoShardsClampToWorkersAndProgram) {
  // kAutoShards = 2x workers clamped to the largest phase; a single worker
  // keeps the exact single-lock protocol (nothing to decontend).
  TwoPhaseSetup s = make_two_phase(8, MappingKind::kIdentity);
  BodyTable bodies;
  auto noop = [](GranuleRange, WorkerId) {};
  bodies.set(s.a, noop);
  bodies.set(s.b, noop);
  auto shards_used = [&](std::uint32_t workers) {
    RtConfig rc;
    rc.workers = workers;
    ExecConfig cfg;
    cfg.grain = 2;
    const RtResult res =
        ThreadedRuntime(s.prog, cfg, CostModel::free_of_charge(), bodies, rc).run();
    return testing::metric(res.metrics, "shard.count");
  };
  EXPECT_EQ(shards_used(1), 1u);
  EXPECT_EQ(shards_used(3), 6u);
  EXPECT_EQ(shards_used(16), 8u);  // clamped to the 8-granule phases
}

TEST(HappensBefore, RecorderPrimitives) {
  HappensBeforeRecorder rec(1, 4);
  EXPECT_FALSE(rec.executed(0, 0));
  rec.on_start(0, 0);
  rec.on_finish(0, 0);
  rec.on_start(0, 1);
  rec.on_finish(0, 1);
  EXPECT_TRUE(rec.executed(0, 0));
  EXPECT_LT(rec.start_ticket(0, 0), rec.finish_ticket(0, 0));
  EXPECT_LT(rec.finish_ticket(0, 0), rec.start_ticket(0, 1));
}

}  // namespace
}  // namespace pax::rt
