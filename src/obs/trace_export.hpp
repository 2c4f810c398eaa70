// trace_export.hpp — merge trace rings into a Perfetto-loadable timeline.
//
// Output is the Chrome trace-event JSON format (a {"traceEvents": [...]}
// object), which both chrome://tracing and ui.perfetto.dev open directly:
//   * one *process* lane per pool job (a threaded run is job 0); the sim,
//     and the pool workers' sleep spans, use the kNoTraceJob lane, named
//     "pax";
//   * one *thread* track per worker, plus a "control" track for the
//     executive's structural events;
//   * exec begin/end pairs become complete ("X") duration events, sleep/wake
//     pairs become "sleep" spans, everything else becomes instants;
//   * run opened→completed pairs on the control track become run-lane spans;
//   * a global "rundown t90" marker is placed where cumulative executed
//     granules cross 90% of the total — the window the paper's figures and
//     bench_stack's tail_util measure.
//
// Export runs post-quiescence (after join), off the hot path; it is the one
// obs component allowed to allocate freely.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/trace_ring.hpp"

namespace pax::obs {

/// All retained records of every ring, merged and sorted by timestamp
/// (ties keep worker order). Quiescent-only, like TraceRing::snapshot_into.
[[nodiscard]] std::vector<TraceRecord> merged_records(const TraceBuffer& buf);

/// Per-worker busy nanoseconds summed from matched exec begin/end pairs in
/// each worker's ring (index == worker id). With zero drops this equals the
/// runtime's own per-worker busy accounting *exactly*, because the dispatch
/// layer chains the stamps within a drain (each exec-begin is the previous
/// exec-end, or the drain's start), so the records tile the drain span it
/// adds to busy — the identity test_obs checks
/// (ThreadedTracing.BusyAndGranuleIdentitiesAtZeroDrops,
/// PoolTracing.JobLifecycleAndGranuleIdentities).
[[nodiscard]] std::vector<std::uint64_t> busy_ns_by_worker(
    const TraceBuffer& buf);

/// Total granules covered by exec-end records across all rings.
[[nodiscard]] std::uint64_t granules_in(const std::vector<TraceRecord>& records);

/// Serialize `records` (typically merged_records()) as Chrome trace JSON.
/// Returns false (with a stderr warning) when the file cannot be written.
bool write_chrome_trace(const std::vector<TraceRecord>& records,
                        const std::string& path);

/// Convenience: merge + write in one call.
bool write_chrome_trace(const TraceBuffer& buf, const std::string& path);

}  // namespace pax::obs
