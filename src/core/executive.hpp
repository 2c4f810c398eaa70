// executive.hpp — the PAX executive scheduling state machine.
//
// ExecutiveCore implements the paper's dynamic-scheduling executive:
//   * demand-driven splitting of computation descriptions for idle workers,
//   * the waiting computation queue with elevated priority for
//     conflict-released / enabling work,
//   * conflict queues releasing successors on completion,
//   * the five enablement mappings with lookahead, branch preprocessing,
//     successor verification, and early serial actions,
//   * composite granule maps with enablement counters for the indirect
//     mappings, and
//   * the three split-propagation policies (inline / presplit / deferred
//     successor-splitting tasks).
//
// The core is *timeless and single-threaded*: it has no clock and no locks.
// Drivers give it time and concurrency:
//   * sim::Machine calls it at discrete-event times and bills the management
//     charges it accrues as executive busy-time;
//   * pool::PoolRuntime (and rt::ThreadedRuntime, a one-job pool)
//     serialises calls with a mutex and lets real std::jthread workers
//     execute the assignments.
// Under the sharded executive the serialising mutex is the control mutex,
// and the core member is PAX_GUARDED_BY it (DESIGN.md §11) — the
// thread-safety analysis rejects any new call path that reaches the core
// without it. The one deliberate hole, core_unsynchronized(), is for
// pre-start configuration and post-quiescence reads only; no field of the
// core is touched outside the lock.
//
// Memory discipline (DESIGN.md §10): the steady-state worker protocol —
// request_work/request_work_batch, complete/complete_batch — performs no
// heap allocation once warm. Run/Edge/SplitTask/CachedMap/CompositeGranuleMap
// records live on typed slabs (common/arena.hpp; dead edges and their maps
// are recycled with their buffer capacity intact), and every hot-path
// temporary draws on a Workspace of cleared-not-freed scratch buffers owned
// by the core. What may still allocate: program advance at phase boundaries
// (first-time slab chunks, run bookkeeping growth), cold map builds, and
// diagnostics. tests/test_alloc.cpp pins the zero-allocation claim;
// bench_t10_alloc gates allocs/granule end to end.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/arena.hpp"
#include "core/cost_model.hpp"
#include "core/descriptor.hpp"
#include "core/enablement.hpp"
#include "core/granule.hpp"
#include "core/policies.hpp"
#include "core/program.hpp"
#include "core/range_set.hpp"
#include "core/waiting_queue.hpp"

namespace pax {

enum class RunState : std::uint8_t {
  kPending,   ///< created early by overlap setup; granules trickle in
  kOpen,      ///< its dispatch node has been reached by the program counter
  kComplete,  ///< all granules done
};

/// Structural events for traces and tests (drivers add timestamps).
struct ExecEvent {
  enum class Kind : std::uint8_t {
    kRunCreated,
    kRunOpened,
    kGranulesEnabled,   ///< range of `run` entered the waiting queue
    kRunCompleted,
    kOverlapSetUp,      ///< edge cur->succ established (text = mapping kind)
    kSerialExecuted,
    kBranchTaken,
    kDiagnostic,        ///< verification failure or other soft error
    kProgramFinished,
  };
  Kind kind{};
  RunId run = kNoRun;
  PhaseId phase = kNoPhase;
  GranuleRange range{};
  /// Borrowed label (static string or executive-owned storage), valid only
  /// for the duration of the observer call — copy it to keep it. A view
  /// rather than a std::string so emitting an event never allocates, whether
  /// or not an observer is installed.
  std::string_view text;
};

/// Structural-event observation interface. The core calls on_event()
/// synchronously at each emit site, under whatever lock the driver wraps
/// the core in (the control mutex in the sharded front-end) — sinks must be
/// cheap and must not re-enter the core. The virtual call replaces the old
/// std::function observer: installing a sink never allocates, and the null
/// check on emit is the entire cost of tracing-off builds, which is what
/// lets the hook stay compiled in on production paths (DESIGN.md §12).
class ExecEventSink {
 public:
  virtual ~ExecEventSink() = default;
  virtual void on_event(const ExecEvent& ev) = 0;
};

/// Compatibility shim for the retired `core.observer = lambda` idiom: wraps
/// a std::function as a sink. The *shim* owns the function (constructing it
/// may allocate — fine for tests and tools, which is who this is for); the
/// caller owns the shim and keeps it alive for the core's lifetime.
class FunctionEventSink final : public ExecEventSink {
 public:
  explicit FunctionEventSink(std::function<void(const ExecEvent&)> fn)
      : fn_(std::move(fn)) {}
  void on_event(const ExecEvent& ev) override { fn_(ev); }

 private:
  std::function<void(const ExecEvent&)> fn_;
};

/// Outcome of a completion call, telling the driver what changed.
struct CompletionResult {
  bool new_work = false;       ///< the waiting queue gained entries
  bool run_completed = false;  ///< the completed task finished its run
  bool program_finished = false;
};

/// A contained granule failure, recorded by the dispatch layer's exception
/// barrier when a phase body throws. POD with a fixed-size message buffer so
/// capturing one on the worker side never touches the heap.
struct GranuleFault {
  Ticket ticket = kNoTicket;
  PhaseId phase = kNoPhase;
  GranuleRange range{};
  WorkerId worker = 0;
  char what[96] = {};

  void set_what(const char* msg) {
    std::size_t i = 0;
    for (; msg != nullptr && msg[i] != '\0' && i + 1 < sizeof(what); ++i)
      what[i] = msg[i];
    what[i] = '\0';
  }
};

/// Failure accounting for one program execution. Written only under the
/// driver's core serialization; final (and safe to read without it) once
/// finished() is true.
struct FaultStats {
  std::uint64_t faults = 0;           ///< barrier-contained body throws
  std::uint64_t retries = 0;          ///< fault-retire events that re-enqueued
  std::uint64_t retried_granules = 0; ///< granules re-executed (work inflation)
  std::uint64_t poisoned = 0;         ///< granules whose retry budget exhausted
  std::uint64_t map_faults = 0;       ///< GranuleMapFn throws (edge degraded)
  PhaseId first_phase = kNoPhase;     ///< site of the first recorded fault
  GranuleRange first_range{};
  char first_what[96] = {};

  [[nodiscard]] bool any() const { return faults + map_faults > 0; }
};

class ExecutiveCore {
 public:
  ExecutiveCore(const PhaseProgram& program, ExecConfig config,
                CostModel costs = {});

  ExecutiveCore(const ExecutiveCore&) = delete;
  ExecutiveCore& operator=(const ExecutiveCore&) = delete;
  ~ExecutiveCore();

  /// Begin program execution (processes nodes up to the first dispatch).
  void start();

  /// An idle worker presents itself. Returns no value when nothing is
  /// computable right now.
  std::optional<Assignment> request_work(WorkerId worker);

  /// Batched handoff: pop up to `max_n` assignments in one call, appending
  /// them to `out`. Stops early when the queue runs dry. Ledger charges are
  /// identical to `max_n` single requests; what a batch saves is the
  /// *driver's* per-assignment executive round-trip (mutex acquisition on
  /// the threaded runtime). Returns the number of assignments appended.
  std::size_t request_work_batch(WorkerId worker, std::size_t max_n,
                                 std::vector<Assignment>& out);

  /// Completion processing for an assignment previously handed out.
  CompletionResult complete(Ticket ticket);

  /// Batched completion: retire several tickets in one call. Indirect
  /// enablements are coalesced across the whole batch — counter decrements
  /// happen per ticket, but newly enabled successor granules are enqueued
  /// (and their kGranulesEnabled events emitted) once, as maximal ranges,
  /// which keeps the waiting queue unfragmented when one worker retires
  /// many scattered granules at once. The merged result ORs the per-ticket
  /// outcomes; `new_work` reflects the whole batch.
  CompletionResult complete_batch(std::span<const Ticket> tickets);

  /// Executive idle-time work: presplitting and deferred successor-splitting
  /// tasks. Returns true if something was done (drivers loop while true and
  /// idle workers exist).
  bool idle_work();

  /// Dynamically submit a computation that conflicts with `blocker`'s run
  /// (the mechanism's original purpose in PAX). The work is held and
  /// released — at elevated priority — when the blocking run completes.
  void submit_conflicting(RunId blocker, PhaseId phase, GranuleRange range);

  /// Cooperative mid-run stop (job cancellation). After this call the core
  /// hands out no new assignments, runs no further program nodes, and does
  /// no idle-time work; outstanding tickets still retire normally through
  /// complete/complete_batch (their enablement bookkeeping must balance) or
  /// are recalled via abandon(). The core flips finished() once the last
  /// outstanding ticket returns — immediately, when none are outstanding.
  /// Idempotent; a no-op after normal completion.
  void request_stop();
  [[nodiscard]] bool stop_requested() const { return stop_requested_; }

  /// Retire a recalled ticket WITHOUT completing its granules: no run
  /// accounting, no enablement decrements, no ledger completion charge. For
  /// assignments handed out but never executed (drained from shard buffers
  /// and local queues after request_stop). Releases any conflict queue the
  /// descriptor guards so held work is not leaked.
  void abandon(Ticket ticket);

  /// Fail-retire a ticket whose body threw (reported by the dispatch
  /// layer's exception barrier). The granules did NOT execute: no completion
  /// accounting, no enablement decrements. While retry budget remains
  /// (config.max_granule_retries per granule) the descriptor is parked and
  /// re-enters the waiting queue after an exponential backoff — its conflict
  /// queue stays attached, so tracked successors release only on a real
  /// completion. Once the budget is exhausted the range's granules are
  /// poisoned: the dataflow is unsatisfiable, and the core enters the
  /// faulted terminal exactly like request_stop() — the program counter
  /// freezes, no new work is handed out, and finished() flips when the last
  /// outstanding ticket retires.
  CompletionResult fail(const GranuleFault& f);

  /// True once a poisoned granule (or a fail after stop) made the program
  /// terminate without completing. Implies stop_requested(); final when
  /// finished() is true.
  [[nodiscard]] bool faulted() const { return faulted_; }

  /// Failure accounting; final once finished() is true.
  [[nodiscard]] const FaultStats& fault_stats() const { return fault_stats_; }

  /// Granule ranges parked for retry backoff. Counted by work_available()
  /// so drivers keep polling while a backoff interval drains.
  [[nodiscard]] std::size_t retry_pending() const { return retry_queue_.size(); }

  /// Tickets currently handed out and not yet retired.
  [[nodiscard]] std::size_t outstanding_tickets() const {
    return assignments_.size() - free_tickets_.size();
  }

  [[nodiscard]] bool finished() const { return finished_; }
  [[nodiscard]] bool work_available() const {
    return !stop_requested_ && (!waiting_.empty() || !retry_queue_.empty());
  }
  [[nodiscard]] std::size_t waiting_size() const { return waiting_.size(); }
  /// Elevated-class entries in the waiting queue (conflict releases and
  /// enabling splits). The sharded front-end snapshots this after every
  /// control section so buffered normal work never starves an elevated
  /// release behind a stale shard buffer.
  [[nodiscard]] std::size_t waiting_elevated_size() const {
    return waiting_.elevated_size();
  }

  /// Idle-time work *may* be pending (presplitting is excluded: it only
  /// matters while the waiting queue is non-empty). May report stale `true`
  /// for dead map builds or retired split tasks; idle_work() is the exact
  /// answer and erases such entries as it scans.
  [[nodiscard]] bool has_idle_work() const {
    return !stop_requested_ &&
           (!pending_map_builds_.empty() || !split_tasks_.empty());
  }

  /// Cheap probe for cross-job scheduling (pool runtime): can a worker make
  /// progress on this core right now? False does not mean finished — work
  /// may be outstanding on other workers whose completions will enable more.
  /// A core that has not start()ed yet also reports false.
  [[nodiscard]] bool runnable() const {
    return !finished_ && (work_available() || has_idle_work());
  }

  [[nodiscard]] const MgmtLedger& ledger() const { return ledger_; }
  MgmtLedger& ledger() { return ledger_; }

  [[nodiscard]] const ProgramEnv& env() const { return env_; }
  ProgramEnv& env() { return env_; }

  [[nodiscard]] const std::vector<std::string>& diagnostics() const {
    return diagnostics_;
  }

  /// Install (or clear, with nullptr) the structural-event sink. Non-owning;
  /// the sink must outlive the core or be cleared first. Call before
  /// start() or after quiescence — the drivers serialize core access, and
  /// the sink pointer rides under the same serialization.
  void set_event_sink(ExecEventSink* sink) { sink_ = sink; }
  [[nodiscard]] ExecEventSink* event_sink() const { return sink_; }

  // --- introspection for tests ------------------------------------------
  struct RunInfo {
    RunId id = kNoRun;
    PhaseId phase = kNoPhase;
    std::uint32_t node = 0;
    RunState state = RunState::kPending;
    GranuleId total = 0;
    GranuleId completed = 0;
  };
  [[nodiscard]] std::vector<RunInfo> runs() const;
  [[nodiscard]] std::size_t live_descriptors() const { return pool_.live(); }
  [[nodiscard]] std::uint32_t program_counter() const { return pc_; }

 private:
  struct Run;
  struct Edge;
  struct SplitTask;
  /// Indirect enablements accumulated across a completion batch, flushed as
  /// coalesced ranges (and always before a run-completion can advance the
  /// program, so dispatch-time invariants see a fully enqueued successor).
  struct DeferredEnable;
  /// Reusable scratch buffers for the hot paths (completion batches, map
  /// builds, elevation extraction): cleared, never freed, between calls.
  struct Workspace;

  // Node processing.
  void advance_program();
  void process_dispatch(std::uint32_t node_index, const DispatchNode& d);
  void setup_overlap(Run& cur, const DispatchNode& d);
  std::optional<std::uint32_t> lookahead(std::uint32_t from);

  // Edge setup per mapping kind.
  void setup_universal(Run& cur, Run& succ);
  void setup_identity(Run& cur, Run& succ);
  void setup_indirect(Run& cur, Run& succ, const EnableClause& clause, Edge& edge);
  /// Build (or fetch from the static-relation cache) the composite map of an
  /// indirect edge, replay completions that predate it, and fire the initial
  /// enablements. Called at dispatch (defer_map_build=false) or from
  /// executive idle time.
  void materialize_map(Edge& edge);
  /// One bounded slice of incremental map construction; true when the map
  /// finished (and enablements fired) in this call.
  bool map_build_step(Edge& edge);

  // Run and descriptor plumbing.
  Run& create_run(PhaseId phase, std::uint32_t node, RunState state);
  Run& run_of(RunId id);
  const Run& run_of(RunId id) const;
  Descriptor& make_desc(Run& r, GranuleRange range, Priority prio);
  void retire_desc(Descriptor& d);
  /// Completion processing for one ticket; indirect enablements accumulate
  /// in the workspace's deferred table for a coalesced flush (complete() is
  /// a batch of one — for a single ticket the deferred flush is observably
  /// identical to an eager enqueue).
  void complete_one(Ticket ticket, CompletionResult& res);
  void flush_deferred();
  void enqueue_enabled(Run& succ, GranuleRange range, Priority prio);
  void on_run_complete(Run& r);
  /// Detach a dead edge's composite map and the edge itself back onto their
  /// slabs (buffers keep their capacity for the next overlap edge).
  void recycle_edge(Edge& e);
  void release_conflicts(Descriptor& d);
  void force_pending_split(Descriptor& d);
  void propagate_split(Descriptor& parent, Descriptor& piece);
  /// Carve the sub-range `piece` out of waiting descriptor `d` (piece must
  /// be a prefix, suffix or interior slice). Returns the carved descriptor,
  /// detached from the queue. Successor propagation included per policy.
  Descriptor& carve(Descriptor& d, GranuleRange piece);
  void extract_elevated(Run& r, std::span<const GranuleId> order);
  void run_serial(std::uint32_t node_index, const SerialNode& s);
  void emit(const ExecEvent& ev);
  void diagnose(std::string msg);
  /// After a stop request, flip finished() once every ticket has retired
  /// (completion or abandonment). The kProgramFinished event fires exactly
  /// once, from whichever retirement drains the last outstanding ticket.
  void maybe_finish_stopped();
  /// Record the fault in the ledger of firsts and bump counters (cold path —
  /// may allocate for per-run attempt tables).
  std::uint32_t bump_fault_attempts(Run& r, GranuleRange range);
  void note_first_fault(PhaseId phase, GranuleRange range, const char* what);
  /// Move backoff-expired retry parks back into the waiting queue.
  void flush_retries();
  /// A GranuleMapFn threw during map construction: degrade the edge to
  /// wholesale release at completion (cmap stays null) and account the fault.
  void note_map_fault(Edge& edge, const char* what);

  const PhaseProgram& program_;
  ExecConfig config_;
  CostModel costs_;

  DescriptorPool pool_;
  WaitingQueue waiting_;
  MgmtLedger ledger_;
  ProgramEnv env_;

  // Control-plane records live on typed slabs (common/arena.hpp): stable
  // addresses, no per-record heap round-trips, and recycled records keep
  // their internal buffer capacity. Runs and cached maps are immortal;
  // edges, composite maps and split tasks recycle.
  struct CachedMap;
  Slab<Run> run_slab_;
  Slab<Edge> edge_slab_;
  Slab<SplitTask> split_slab_;
  Slab<CachedMap> cache_slab_;
  Slab<CompositeGranuleMap> cmap_slab_;

  std::vector<Run*> runs_;  ///< index == RunId

  // Assignments by ticket.
  std::vector<Descriptor*> assignments_;
  std::vector<Ticket> free_tickets_;

  // Deferred successor-splitting tasks (drained in idle time; slots return
  // to split_slab_ when retired).
  std::vector<SplitTask*> split_tasks_;

  // Indirect edges whose composite maps await construction in idle time.
  std::vector<Edge*> pending_map_builds_;

  // Cache of composite maps for clauses whose indirection is declared
  // stable, keyed by clause identity (clauses live in program nodes).
  std::vector<CachedMap*> map_cache_;

  // Hot-path scratch (defined in executive.cpp; one allocation at
  // construction, buffers grow once and are reused forever after).
  std::unique_ptr<Workspace> ws_;

  // Per-node early-execution state from lookahead.
  std::vector<std::uint8_t> serial_done_early_;
  std::vector<std::int32_t> branch_predecided_;  // -1 = not predecided
  std::vector<RunId> node_pending_run_;          // run created early for node

  ExecEventSink* sink_ = nullptr;  ///< non-owning; rides the core's lock

  std::uint32_t pc_ = 0;
  RunId waiting_run_ = kNoRun;   ///< run the program counter is blocked on
  RunId node_pc_run_ = kNoRun;   ///< run produced by the last dispatch node
  bool started_ = false;
  bool finished_ = false;
  bool stop_requested_ = false;  ///< cooperative cancel; see request_stop()
  bool faulted_ = false;         ///< poisoned-granule terminal; see fail()
  std::vector<std::string> diagnostics_;

  // Fault containment (all cold-path: empty and untouched on fault-free
  // executions, so the warm-path allocation discipline is unaffected).
  struct RetryEntry {
    Descriptor* desc = nullptr;
    std::uint64_t ready_tick = 0;
  };
  std::vector<RetryEntry> retry_queue_;  ///< parked kHeld descriptors
  std::uint64_t fault_tick_ = 0;         ///< advances per completion batch
  /// Per-run, per-granule fault attempt counts (created on first fault).
  struct FaultAttempts {
    RunId run = kNoRun;
    std::vector<std::uint32_t> per_granule;
  };
  std::vector<FaultAttempts> fault_attempts_;
  FaultStats fault_stats_;
};

}  // namespace pax
