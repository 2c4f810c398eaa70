// trace.hpp — simulation results: utilization accounting, timelines,
// rundown-window metrics.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/stats.hpp"
#include "common/types.hpp"
#include "core/cost_model.hpp"
#include "core/granule.hpp"
#include "core/phase.hpp"
#include "obs/trace_ring.hpp"

namespace pax::sim {

/// A half-open busy interval of one worker.
struct Interval {
  SimTime begin = 0;
  SimTime end = 0;
  WorkerId worker = 0;
};

/// Lifecycle of one phase run in simulated time.
struct RunRecord {
  RunId run = kNoRun;
  PhaseId phase = kNoPhase;
  std::string phase_name;
  SimTime created = 0;    ///< run creation (overlap setup or dispatch)
  SimTime opened = 0;     ///< program counter reached its node
  SimTime completed = kTimeNever;
  SimTime first_task = kTimeNever;  ///< first granule began executing
};

class SimResult {
 public:
  SimTime makespan = 0;
  std::uint32_t workers = 0;
  /// Executive shards (management lanes) the run modeled; 1 = serial.
  std::uint32_t shards = 1;

  std::uint64_t tasks_executed = 0;
  std::uint64_t granules_executed = 0;

  /// Worker-ticks spent computing granules.
  std::uint64_t compute_ticks = 0;
  /// Executive busy ticks (management), summed over all lanes.
  std::uint64_t exec_ticks = 0;
  /// Per-lane executive busy ticks (size = shards). The spread shows how
  /// much management serialization the sharding removed: one hot lane is
  /// the serial executive, an even spread is the sharded front-end.
  std::vector<std::uint64_t> shard_exec_ticks;
  /// Worker-ticks spent blocked on the executive (worker-stealing mode).
  std::uint64_t mgmt_wait_ticks = 0;

  /// Decentralized-dispatch bypasses (MachineConfig::steal): assignments a
  /// worker took itself while the serial executive was contended, and the
  /// worker-side ticks those pops cost (billed per CostModel::kSteal plus
  /// the pop's management charges; never executive busy-time).
  std::uint64_t steals = 0;
  std::uint64_t steal_ticks = 0;

  /// Latency from a worker presenting itself to receiving an assignment
  /// (queueing on the serial executive included) — the delay the paper
  /// worries about when successor splitting sits on the request path.
  Accumulator request_latency;

  /// Heap traffic of the simulation run (alloc_stats hooks; zero when the
  /// binary is not instrumented). The simulator is single-threaded, so this
  /// is the executive control plane's own allocator footprint.
  std::uint64_t heap_allocs = 0;
  std::uint64_t heap_bytes = 0;

  std::vector<RunRecord> runs;
  std::vector<Interval> compute_intervals;  ///< empty if recording disabled
  pax::MgmtLedger ledger;
  std::vector<std::string> diagnostics;

  /// Overall processor utilization: compute / (P * makespan).
  [[nodiscard]] double utilization() const;

  /// The paper's computation : management ratio (~200 in PAX experience).
  [[nodiscard]] double mgmt_ratio() const;

  /// Busy-fraction timeline with `buckets` samples over [0, makespan).
  /// Requires recorded intervals.
  [[nodiscard]] std::vector<double> timeline(std::size_t buckets) const;

  /// Mean number of busy workers in [a, b). Requires recorded intervals.
  [[nodiscard]] double busy_workers_in(SimTime a, SimTime b) const;

  /// Utilization (0..1) in [a, b).
  [[nodiscard]] double window_utilization(SimTime a, SimTime b) const;

  [[nodiscard]] const RunRecord* run_record(RunId id) const;

  /// Latest completion time across runs of the given phase (kTimeNever if
  /// the phase never completed).
  [[nodiscard]] SimTime phase_completion(PhaseId phase) const;
};

/// Adapt a simulation result to the trace-record schema so the one exporter
/// (obs/trace_export.hpp) renders simulated and real timelines identically.
/// Scale: 1 simulated tick = 1000 ns, so ticks read as microseconds in the
/// Perfetto UI. Compute intervals become exec begin/end pairs on worker
/// tracks; run lifecycles become control-track run opened/completed events.
/// Requires recorded intervals (MachineConfig::record_intervals).
[[nodiscard]] std::vector<obs::TraceRecord> trace_records_of(const SimResult& res);

}  // namespace pax::sim
