// trace_ring.hpp — always-on, lock-free, per-worker trace rings.
//
// The paper's whole argument is about *where worker time goes during
// rundown*, but RtResult/PoolStats/SimResult only answer in aggregate. The
// trace ring is the per-granule answer: every worker owns a fixed-size,
// preallocated ring of compact binary records (granule exec begin/end,
// refills, steal attempts, shard sweeps, deposit flushes, sleep/wake, pool
// job lifecycle) written from the hot path with relaxed atomics and no
// locks. The rings honor the two standing disciplines:
//
//   * memory (DESIGN.md §10): the buffer is allocated once at construction
//     and never grows — emitting a record is a store, full stop. Warm-window
//     heap traffic with tracing enabled stays exactly zero
//     (ZeroAlloc.TraceEmitsAndMetricCellsAllocateNothing in test_alloc).
//   * concurrency (DESIGN.md §11): each ring has exactly one writer — the
//     owning worker (the control-track ring is written only under the
//     executive control mutex, which serializes its writers). Readers run
//     post-quiescence (after join / program finish), ordered by the join
//     itself, so the ring needs no internal synchronization beyond the
//     relaxed head counter.
//
// Overflow semantics: the ring *wraps*, overwriting the oldest records and
// counting the overwrites as drops. Rundown lives at the end of a run, so
// keeping the newest records is the right default for the paper's question;
// dropped() makes the truncation explicit instead of silent.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/types.hpp"

namespace pax::obs {

/// The trace clock: steady-clock nanoseconds since the (unspecified) epoch.
/// Every live-runtime emit site stamps with this, so records from different
/// workers, rings and subsystems merge onto one comparable axis; the
/// exporter normalizes to the run's earliest record.
[[nodiscard]] inline std::uint64_t trace_now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// What one trace record describes. Worker-side kinds are written by the
/// worker the record belongs to; control kinds are written on the control
/// track by whichever thread holds the executive control mutex.
enum class TraceKind : std::uint8_t {
  // Worker-side execution records.
  kExecBegin,     ///< phase-body execution of `range` began
  kExecEnd,       ///< ... ended (same worker, strictly after its begin)
  kRefill,        ///< dispatcher refill (aux = assignments pulled)
  kStealAttempt,  ///< rundown steal probe found every peer dry
  kStealSuccess,  ///< stole aux assignments from the most-loaded peer
  kShardSweep,    ///< control sweep entered (aux = tickets retired)
  kDepositFlush,  ///< tickets parked in the home shard (aux = tickets)
  kRingOverflow,  ///< deposit ring refused a push (aux = tickets going direct)
  kSleep,         ///< worker parked on the sleep condition variable
  kWake,          ///< ... and resumed
  // Pool job lifecycle (job = pool job id).
  kJobOpen,       ///< this worker opened (start()ed) the job
  kJobDrain,      ///< resident job ran dry (rundown signal; worker rotates)
  kJobFinalize,   ///< this worker won the job's finalize CAS
  // Control-track records (ExecEvent structural events, via TraceEventSink).
  kRunOpened,
  kRunCompleted,
  kGranulesEnabled,  ///< aux = range size
  kProgramFinished,
  // Fault containment (DESIGN.md §15).
  kGranuleFault,     ///< a phase body threw; the barrier caught it (aux = faults)
  kGranuleRetry,     ///< faulted range re-queued for another attempt (aux = retries)
  kGranulePoisoned,  ///< retry budget exhausted; granules poisoned (aux = granules)
  kWatchdogFlag,     ///< watchdog flagged a stuck granule (aux = worker flagged)
};

[[nodiscard]] inline const char* to_string(TraceKind k) {
  switch (k) {
    case TraceKind::kExecBegin: return "exec_begin";
    case TraceKind::kExecEnd: return "exec_end";
    case TraceKind::kRefill: return "refill";
    case TraceKind::kStealAttempt: return "steal_attempt";
    case TraceKind::kStealSuccess: return "steal_success";
    case TraceKind::kShardSweep: return "shard_sweep";
    case TraceKind::kDepositFlush: return "deposit_flush";
    case TraceKind::kRingOverflow: return "ring_overflow";
    case TraceKind::kSleep: return "sleep";
    case TraceKind::kWake: return "wake";
    case TraceKind::kJobOpen: return "job_open";
    case TraceKind::kJobDrain: return "job_drain";
    case TraceKind::kJobFinalize: return "job_finalize";
    case TraceKind::kRunOpened: return "run_opened";
    case TraceKind::kRunCompleted: return "run_completed";
    case TraceKind::kGranulesEnabled: return "granules_enabled";
    case TraceKind::kProgramFinished: return "program_finished";
    case TraceKind::kGranuleFault: return "granule_fault";
    case TraceKind::kGranuleRetry: return "granule_retry";
    case TraceKind::kGranulePoisoned: return "granule_poisoned";
    case TraceKind::kWatchdogFlag: return "watchdog_flag";
  }
  return "?";
}

/// "No pool job": the simulator traces under this id, and pool workers tag
/// their sleep/wake records with it; the exporter renders it as one
/// process lane. (A threaded run is job 0 of its private pool.)
inline constexpr std::uint64_t kNoTraceJob = ~std::uint64_t{0};

/// Worker id of the control track (records emitted under the executive
/// control mutex rather than by a specific worker's own loop).
inline constexpr std::uint16_t kControlTrack = 0xFFFFu;

/// One compact binary trace record. POD, fixed layout, 40 bytes; written by
/// value into a preallocated ring slot — emitting never allocates.
struct TraceRecord {
  std::uint64_t ts_ns = 0;         ///< steady-clock ns (sim: ticks * 1000)
  std::uint64_t job = kNoTraceJob; ///< pool job id, or kNoTraceJob
  GranuleRange range{};            ///< exec spans / enablement records
  PhaseId phase = kNoPhase;
  std::uint32_t aux = 0;           ///< count payload (see TraceKind comments)
  std::uint16_t worker = 0;        ///< owning track (kControlTrack = control)
  TraceKind kind{};
  std::uint8_t reserved = 0;
};
static_assert(sizeof(TraceRecord) == 40, "keep trace records compact");

/// Fixed-capacity single-writer ring of TraceRecords.
///
/// Writer contract: exactly one thread emits at a time (the owning worker,
/// or — for the control track — whichever thread holds the control mutex;
/// the mutex provides the cross-thread ordering the relaxed head cannot).
/// Reader contract: snapshot_into()/read access is quiescent-only — after
/// the writers joined or the program finished under a lock the reader also
/// passed through. emitted()/dropped() are safe to probe any time (they are
/// single relaxed loads and may be a moment stale).
class TraceRing {
 public:
  /// `capacity` is rounded up to a power of two (minimum 2) so the wrap is
  /// a mask, not a division, on the hot path.
  explicit TraceRing(std::size_t capacity) {
    std::size_t cap = 2;
    while (cap < capacity) cap <<= 1;
    buf_.resize(cap);
    mask_ = cap - 1;
  }

  TraceRing(const TraceRing&) = delete;
  TraceRing& operator=(const TraceRing&) = delete;

  [[nodiscard]] std::size_t capacity() const { return buf_.size(); }

  /// Hot path: one slot store + one relaxed counter bump. Never allocates,
  /// never locks, never fails — a full ring overwrites its oldest record.
  void emit(const TraceRecord& r) {
    // Relaxed: single-writer ring; readers are quiescent (ordered by join)
    // or probe-only. No other memory is inferred from the counter.
    const std::uint64_t h = head_.load(std::memory_order_relaxed);
    buf_[h & mask_] = r;
    head_.store(h + 1, std::memory_order_relaxed);
  }

  /// Total records ever emitted (including overwritten ones).
  [[nodiscard]] std::uint64_t emitted() const {
    return head_.load(std::memory_order_relaxed);
  }

  /// Records lost to wrap-overwrite: emitted() minus what the ring retains.
  [[nodiscard]] std::uint64_t dropped() const {
    const std::uint64_t n = emitted();
    return n > buf_.size() ? n - buf_.size() : 0;
  }

  /// Records currently retained (= min(emitted, capacity)).
  [[nodiscard]] std::size_t size() const {
    const std::uint64_t n = emitted();
    return n < buf_.size() ? static_cast<std::size_t>(n) : buf_.size();
  }

  /// Append the retained window, oldest record first, onto `out`.
  /// Quiescent-only (see class comment).
  void snapshot_into(std::vector<TraceRecord>& out) const {
    const std::uint64_t n = emitted();
    const std::uint64_t lo = n > buf_.size() ? n - buf_.size() : 0;
    for (std::uint64_t i = lo; i < n; ++i) out.push_back(buf_[i & mask_]);
  }

 private:
  std::vector<TraceRecord> buf_;
  std::size_t mask_ = 0;
  /// alignas: the head is the only mutable hot word; keep it off the cache
  /// line of whatever neighbors the allocator gives this object.
  alignas(64) std::atomic<std::uint64_t> head_{0};
};

struct TraceConfig {
  /// Records per ring (rounded up to a power of two). 1<<15 records is
  /// 1.25 MiB per worker — hours of steady state for typical record rates,
  /// and the wrap keeps the newest (rundown) window when it is not.
  std::size_t ring_capacity = std::size_t{1} << 15;
};

/// The per-run trace: one ring per worker plus one control-track ring.
/// All rings are preallocated at construction; nothing here allocates after
/// that. Pass a pointer to the runtimes' configs to turn tracing on; leave
/// it null (the default) and every emit site is one untaken branch.
class TraceBuffer {
 public:
  explicit TraceBuffer(std::uint32_t workers, TraceConfig config = {})
      : workers_(workers) {
    rings_.reserve(workers + 1u);
    for (std::uint32_t i = 0; i <= workers; ++i)
      rings_.push_back(std::make_unique<TraceRing>(config.ring_capacity));
  }

  TraceBuffer(const TraceBuffer&) = delete;
  TraceBuffer& operator=(const TraceBuffer&) = delete;

  [[nodiscard]] std::uint32_t workers() const { return workers_; }

  /// Worker `w`'s ring. The caller must be (or be serialized with) the
  /// ring's single writer.
  [[nodiscard]] TraceRing& ring(WorkerId w) { return *rings_[w]; }
  [[nodiscard]] const TraceRing& ring(WorkerId w) const { return *rings_[w]; }

  /// The control track: written only under an executive control mutex.
  [[nodiscard]] TraceRing& control_ring() { return *rings_[workers_]; }
  [[nodiscard]] const TraceRing& control_ring() const {
    return *rings_[workers_];
  }

  [[nodiscard]] std::uint64_t total_emitted() const {
    std::uint64_t n = 0;
    for (const auto& r : rings_) n += r->emitted();
    return n;
  }

  [[nodiscard]] std::uint64_t total_dropped() const {
    std::uint64_t n = 0;
    for (const auto& r : rings_) n += r->dropped();
    return n;
  }

 private:
  std::uint32_t workers_;
  /// unique_ptr per ring: stable addresses and no false sharing between
  /// rings' head counters (each ring is its own allocation).
  std::vector<std::unique_ptr<TraceRing>> rings_;
};

}  // namespace pax::obs
