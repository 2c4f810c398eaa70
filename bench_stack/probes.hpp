// probes.hpp — single-threaded layer probes over a workload's own program.
//
// Both probes run the program with no bodies on the calling thread only, so
// they isolate the serial management cost of one layer from contention and
// from body work.
#pragma once

#include <chrono>
#include <cstdint>
#include <vector>

#include "core/executive.hpp"
#include "core/sharded_executive.hpp"

namespace stackbench {

struct ProbeResult {
  double ns = 0.0;            ///< total timed nanoseconds
  std::uint64_t samples = 0;  ///< granules (core) or warm acquires (shard)
  std::uint64_t granules = 0; ///< granules the probe handed out
  bool ok = false;            ///< the program ran to completion
};

/// core.ns_per_granule: one thread drives ExecutiveCore start /
/// request_work_batch / complete_batch (plus idle_work when the queue is
/// dry) over `program` until it finishes.
inline ProbeResult probe_core(const pax::PhaseProgram& program,
                              pax::ExecConfig cfg, std::size_t batch) {
  ProbeResult r;
  pax::ExecutiveCore core(program, cfg, pax::CostModel{});
  std::vector<pax::Assignment> out;
  std::vector<pax::Ticket> done;
  out.reserve(batch);
  done.reserve(batch);
  const auto t0 = std::chrono::steady_clock::now();
  core.start();
  while (!core.finished()) {
    out.clear();
    core.request_work_batch(0, batch, out);
    if (out.empty()) {
      if (core.idle_work()) continue;
      break;  // nothing outstanding and nothing to do: stuck
    }
    done.clear();
    for (const pax::Assignment& a : out) {
      r.granules += a.range.size();
      done.push_back(a.ticket);
    }
    core.complete_batch(done);
  }
  const auto t1 = std::chrono::steady_clock::now();
  r.ns = static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
  r.samples = r.granules;
  r.ok = core.finished();
  return r;
}

/// shard.acquire_ns: warm single-assignment acquire() on the lock-free
/// sharded executive (two shards, so the shard warm path is engaged rather
/// than the one-shard short-circuit), as bench_util's warm_acquire_cost_ns
/// measures it — but over the workload's own program, retiring each
/// assignment on the next call so the program advances. Only acquires that
/// did not enter a control sweep are timed: sweeps are the control plane,
/// probed by probe_core.
inline ProbeResult probe_shard(const pax::PhaseProgram& program,
                               pax::ExecConfig cfg, std::uint64_t max_samples) {
  ProbeResult r;
  pax::ShardedExecutive exec(program, cfg, pax::CostModel{},
                             pax::ShardConfig{.shards = 2, .workers = 2, .batch = 1});
  exec.start();
  std::vector<pax::Ticket> done;
  std::vector<pax::Assignment> out;
  done.reserve(4);
  out.reserve(4);
  while (!exec.finished() && r.samples < max_samples) {
    out.clear();
    const auto t0 = std::chrono::steady_clock::now();
    const pax::ShardAcquire res = exec.acquire(0, 1, done, out);
    const auto t1 = std::chrono::steady_clock::now();
    if (!res.swept && res.taken > 0) {
      r.ns += static_cast<double>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
      ++r.samples;
    }
    for (const pax::Assignment& a : out) {
      r.granules += a.range.size();
      done.push_back(a.ticket);
    }
    if (res.taken == 0 && done.empty() && !exec.finished() && !exec.idle_work())
      break;  // stuck
  }
  r.ok = r.samples > 0;
  return r;
}

}  // namespace stackbench
