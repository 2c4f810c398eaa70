// quickstart — the smallest useful PAX program.
//
// The paper's simplest identity example, as real code:
//
//     DO 100 I=1,N          |  first computational phase
//       B(I)=A(I)           |
//     DO 200 I=1,N          |  second computational phase
//       C(I)=B(I)           |
//
// The identity mapping (I = I) lets granule I of the second phase start as
// soon as granule I of the first completes — no barrier between the phases.
// This example runs both phases on real threads with overlap enabled and
// checks the result.
//
// The example binary links the counting allocator hooks so the run can
// report the control plane's heap traffic (DESIGN.md §10) — production
// binaries simply omit the define and pay nothing.
#define PAX_ALLOC_STATS_IMPLEMENT
#include "common/alloc_stats.hpp"

#include <cstdio>
#include <cstring>
#include <vector>

#include "core/dataflow.hpp"
#include "core/executive.hpp"
#include "obs/trace_export.hpp"
#include "obs/trace_ring.hpp"
#include "runtime/threaded_runtime.hpp"

int main(int argc, char** argv) {
  using namespace pax;
  constexpr GranuleId kN = 1 << 16;

  // `--trace out.trace.json` records the run into per-worker rings and
  // exports a Chrome/Perfetto trace (open at https://ui.perfetto.dev).
  const char* trace_path = nullptr;
  for (int i = 1; i + 1 < argc; ++i)
    if (std::strcmp(argv[i], "--trace") == 0) trace_path = argv[i + 1];

  std::vector<double> a(kN), b(kN), c(kN);
  for (GranuleId i = 0; i < kN; ++i) a[i] = 0.5 * static_cast<double>(i);

  // 1. Define the phases and their data accesses. The access declarations
  //    let the library verify that the identity mapping is legal.
  PhaseProgram program;
  const PhaseId copy_ab =
      program.define_phase(make_phase("copyA", kN).reads("A").writes("B"));
  const PhaseId copy_bc =
      program.define_phase(make_phase("copyB", kN).reads("B").writes("C"));

  // 2. The control stream: DISPATCH copyA ENABLE [copyB/MAPPING=IDENTITY].
  program.dispatch(copy_ab, {EnableClause{"copyB", MappingKind::kIdentity, {}}});
  program.dispatch(copy_bc);
  program.halt();

  // Sanity: the mapping we requested is the one the dataflow implies.
  const MappingAnalysis inferred =
      infer_mapping(program.phase(copy_ab), program.phase(copy_bc));
  std::printf("inferred mapping copyA -> copyB: %s (%s)\n",
              to_string(inferred.kind), inferred.rationale.c_str());

  // 3. Bind the phase bodies and run on a worker pool with overlap.
  rt::BodyTable bodies;
  bodies.set(copy_ab, [&](GranuleRange r, WorkerId) {
    for (GranuleId i = r.lo; i < r.hi; ++i) b[i] = a[i];
  });
  bodies.set(copy_bc, [&](GranuleRange r, WorkerId) {
    for (GranuleId i = r.lo; i < r.hi; ++i) c[i] = b[i];
  });

  ExecConfig config;
  config.overlap = true;  // flip to false for the strict-barrier baseline
  config.grain = 1024;

  rt::RtConfig rt_config;
  rt_config.workers = 4;
  obs::TraceBuffer trace(rt_config.workers);
  if (trace_path != nullptr) rt_config.trace = &trace;
  rt::ThreadedRuntime runtime(program, config, CostModel{}, bodies, rt_config);
  const rt::RtResult result = runtime.run();
  if (trace_path != nullptr) {
    obs::write_chrome_trace(trace, trace_path);
    std::printf("trace             : %s (%llu records, %llu dropped)\n",
                trace_path,
                static_cast<unsigned long long>(trace.total_emitted()),
                static_cast<unsigned long long>(trace.total_dropped()));
  }

  // 4. Verify and report.
  std::size_t wrong = 0;
  for (GranuleId i = 0; i < kN; ++i)
    if (c[i] != a[i]) ++wrong;

  // Every runtime counter is an entry of the metrics snapshot, read by its
  // dotted name (DESIGN.md §12).
  auto m = [&result](const char* name) {
    return static_cast<unsigned long long>(result.metrics.at(name));
  };
  std::printf("granules executed : %llu (expected %llu)\n",
              static_cast<unsigned long long>(result.granules_executed),
              static_cast<unsigned long long>(2ull * kN));
  std::printf("tasks executed    : %llu\n", m("worker.tasks"));
  std::printf("wall time         : %.2f ms\n",
              static_cast<double>(result.wall.count()) / 1e6);
  // The paper's headline number: fraction of worker wall-time spent inside
  // phase bodies (kept high through the rundown by overlap + stealing).
  std::printf("utilization       : %.1f%%\n", 100.0 * result.utilization());
  std::printf("steals            : %llu (failed spins: %llu, peak local "
              "queue: %llu)\n",
              m("worker.steals"), m("worker.steal_fail_spins"),
              m("queue.peak_occupancy"));
  std::printf("exec lock acq.    : %llu (control %llu + wait %llu)\n",
              m("exec.control_acquisitions") + m("worker.wait_wakeups"),
              m("exec.control_acquisitions"), m("worker.wait_wakeups"));
  // Sharded executive traffic: refills served lock-locally by a shard
  // buffer never touch the control mutex at all, and a worker that finds a
  // sweep in flight goes back to the rings instead of queueing (busy).
  std::printf("shards            : %llu (buffer hits %llu, %llu of them "
              "sibling; scattered %llu, hold %.1f us, busy %llu)\n",
              m("shard.count"), m("shard.hits"), m("shard.sibling_hits"),
              m("shard.scattered"),
              static_cast<double>(m("exec.control_hold_ns")) / 1e3,
              m("exec.control_busy"));
  // Lock-free/slow-path split (DESIGN.md §13): warm assignments popped from
  // the shard rings with no mutex vs. control sweeps; dry probes and refused
  // pushes show how often the slow path absorbed an edge case.
  std::printf("lock-free handout : %llu ring pops (dry probes %llu, "
              "push overflows %llu, cas retries %llu)\n",
              m("shard.ring.pop"), m("shard.ring.pop_empty"),
              m("shard.ring.push_full"), m("shard.ring.cas_retries"));
  // Heap traffic of the whole run (alloc_stats hooks): the steady-state
  // scheduling path allocates nothing, so this amortizes toward zero.
  std::printf("heap traffic      : %.4f allocs/granule (%llu allocs, %llu KiB)\n",
              static_cast<double>(m("heap.allocs")) /
                  static_cast<double>(result.granules_executed),
              m("heap.allocs"), m("heap.bytes") / 1024);
  std::printf("result check      : %s\n", wrong == 0 ? "OK" : "CORRUPT");
  for (const auto& d : result.diagnostics)
    std::printf("diagnostic: %s\n", d.c_str());
  return wrong == 0 ? 0 : 1;
}
