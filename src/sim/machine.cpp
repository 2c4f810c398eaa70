#include "sim/machine.hpp"

#include <algorithm>

#include "common/alloc_stats.hpp"
#include "common/check.hpp"

namespace pax::sim {

Machine::Machine(const PhaseProgram& program, ExecConfig exec_config,
                 CostModel costs, Workload workload, MachineConfig config)
    : program_(program),
      core_(program, exec_config, costs),
      costs_(costs),
      workload_(std::move(workload)),
      config_(config),
      placement_(exec_config.placement),
      lane_sync_(std::max(1u, config.shards)),
      lane_async_(std::max(1u, config.shards)),
      lane_busy_(std::max(1u, config.shards), 0),
      parked_(config.workers, 0) {
  PAX_CHECK_MSG(config_.workers > 0, "need at least one worker");
  PAX_CHECK_MSG(config_.shards >= 1,
                "shards must be at least 1 (0 is invalid)");
  result_.workers = config_.workers;
  result_.shards = config_.shards;
  result_.shard_exec_ticks.assign(config_.shards, 0);

  core_.set_event_sink(this);
}

void Machine::on_event(const ExecEvent& ev) {
  switch (ev.kind) {
    case ExecEvent::Kind::kRunCreated: {
      RunRecord rec;
      rec.run = ev.run;
      rec.phase = ev.phase;
      rec.phase_name =
          ev.phase == kNoPhase ? "<anon>" : program_.phase(ev.phase).name;
      rec.created = now_;
      rec.opened = now_;
      result_.runs.push_back(rec);
      break;
    }
    case ExecEvent::Kind::kRunOpened:
      if (ev.run < result_.runs.size()) result_.runs[ev.run].opened = now_;
      break;
    case ExecEvent::Kind::kRunCompleted:
      if (ev.run < result_.runs.size()) result_.runs[ev.run].completed = now_;
      break;
    default:
      break;
  }
}

void Machine::push_event(Event e) {
  e.seq = seq_++;
  events_.push(std::move(e));
}

bool Machine::all_lanes_idle() const {
  for (std::uint32_t l = 0; l < config_.shards; ++l)
    if (lane_busy_[l] || !lane_sync_[l].empty() || !lane_async_[l].empty())
      return false;
  return true;
}

void Machine::enqueue_job(Job j, bool front) {
  if (j.kind == JobKind::kRequest) j.enqueued_at = now_;
  // Worker-initiated jobs are laned by their home shard; program start and
  // idle work stay on lane 0 (the control plane).
  j.lane = (j.kind == JobKind::kRequest || j.kind == JobKind::kCompletion)
               ? lane_of(j.worker)
               : 0;
  const bool async =
      placement_ == ExecPlacement::kDedicated && j.kind == JobKind::kCompletion;
  auto& q = async ? lane_async_[j.lane] : lane_sync_[j.lane];
  if (front) {
    q.push_front(j);
  } else {
    q.push_back(j);
  }
}

void Machine::start_job(Job j) {
  PAX_CHECK(!lane_busy_[j.lane]);
  lane_busy_[j.lane] = 1;

  Event done;
  done.kind = Event::Kind::kExecDone;
  done.worker = j.worker;
  done.ticket = j.ticket;
  done.job = j;

  switch (j.kind) {
    case JobKind::kStart:
      core_.start();
      break;
    case JobKind::kRequest:
      done.assignment = core_.request_work(j.worker);
      break;
    case JobKind::kCompletion: {
      const CompletionResult res = core_.complete(j.ticket);
      done.new_work = res.new_work;
      // Sharded executive: an enablement-producing completion pays the
      // cross-shard publish step (the coalesced flush's per-shard slice).
      if (config_.shards > 1 && res.new_work)
        core_.ledger().charge(MgmtOp::kShardFlush, costs_);
      break;
    }
    case JobKind::kIdleWork:
      PAX_CHECK_MSG(false, "idle work is started inline by pump_executive");
      break;
  }

  const SimTime delta = core_.ledger().drain_pending();
  result_.exec_ticks += delta;
  result_.shard_exec_ticks[j.lane] += delta;
  if (placement_ == ExecPlacement::kWorkerStealing &&
      (j.kind == JobKind::kRequest || j.kind == JobKind::kCompletion)) {
    result_.mgmt_wait_ticks += delta;
  }
  done.t = now_ + delta;
  push_event(std::move(done));
}

void Machine::pump_executive() {
  // Start one job on every free lane: jobs on different lanes (different
  // home shards) proceed concurrently; jobs on the same lane serialize —
  // the per-shard serialization of the sharded front-end. With one shard
  // this is the classic serial executive.
  for (std::uint32_t l = 0; l < config_.shards; ++l) {
    if (lane_busy_[l]) continue;
    if (!lane_sync_[l].empty()) {
      Job j = lane_sync_[l].front();
      lane_sync_[l].pop_front();
      start_job(j);
      continue;
    }
    if (!lane_async_[l].empty()) {
      Job j = lane_async_[l].front();
      lane_async_[l].pop_front();
      start_job(j);
      continue;
    }
  }
  // Executive idle time: presplitting / deferred successor-splitting tasks,
  // on the control plane (lane 0) once every lane is quiet. On the worker-
  // stealing testbed this time is donated by a parked worker; with a
  // dedicated management processor it is always available.
  if (!all_lanes_idle()) return;
  const bool may_work_ahead =
      placement_ == ExecPlacement::kDedicated || parked_count_ > 0;
  if (!may_work_ahead) return;
  if (!core_.idle_work()) return;
  lane_busy_[0] = 1;
  const SimTime delta = core_.ledger().drain_pending();
  result_.exec_ticks += delta;
  result_.shard_exec_ticks[0] += delta;
  Event done;
  done.kind = Event::Kind::kExecDone;
  done.job = Job{JobKind::kIdleWork, 0, kNoTicket, 0, 0};
  done.t = now_ + delta;
  push_event(std::move(done));
}

void Machine::park(WorkerId w) {
  if (parked_[w]) return;
  parked_[w] = 1;
  ++parked_count_;
}

void Machine::unpark_all() {
  // Wake only as many parked workers as there is visible work; waking the
  // whole pool for one descriptor would swamp the serial executive with
  // fruitless request processing.
  std::size_t wake = std::min<std::size_t>(parked_count_, core_.waiting_size());
  if (wake == 0) return;
  for (WorkerId w = 0; w < parked_.size() && wake > 0; ++w) {
    if (!parked_[w]) continue;
    parked_[w] = 0;
    --parked_count_;
    --wake;
    enqueue_job({JobKind::kRequest, w, kNoTicket});
  }
}

void Machine::begin_assignment(WorkerId w, const Assignment& a, SimTime delay) {
  const SimTime start = now_ + delay;
  const SimTime dur =
      workload_.task_duration(a.phase, a.range) + config_.task_overhead;
  ++result_.tasks_executed;
  result_.granules_executed += a.range.size();
  result_.compute_ticks += dur;
  if (config_.record_intervals)
    result_.compute_intervals.push_back({start, start + dur, w});
  if (a.run < result_.runs.size() && result_.runs[a.run].first_task == kTimeNever)
    result_.runs[a.run].first_task = start;
  Event done;
  done.kind = Event::Kind::kTaskDone;
  done.worker = w;
  done.ticket = a.ticket;
  done.t = start + dur;
  push_event(std::move(done));
}

bool Machine::try_steal(WorkerId w) {
  if (!config_.steal || core_.finished() || !core_.work_available()) return false;
  // Uncontended home lane: the normal request path costs nothing extra, and
  // keeping it preserves the donated-idle-time machinery.
  const std::uint32_t l = lane_of(w);
  if (!lane_busy_[l] && lane_sync_[l].empty()) return false;
  std::optional<Assignment> a = core_.request_work(w);
  // The guard above saw a non-empty waiting queue and the sim is
  // single-threaded, so the pop cannot come back empty.
  PAX_CHECK_MSG(a.has_value(), "steal pop raced empty in a serial simulation");
  core_.ledger().charge(MgmtOp::kSteal, costs_);
  // The pop's management charges are paid by the stealing worker itself —
  // decentralized dispatch never occupies the serial executive.
  const SimTime delta = core_.ledger().drain_pending();
  ++result_.steals;
  result_.steal_ticks += delta;
  result_.request_latency.add(static_cast<double>(delta));
  begin_assignment(w, *a, delta);
  return true;
}

void Machine::handle_exec_done(const Event& e) {
  lane_busy_[e.job.lane] = 0;
  switch (e.job.kind) {
    case JobKind::kStart:
      break;
    case JobKind::kRequest: {
      const WorkerId w = e.worker;
      if (e.assignment.has_value()) {
        result_.request_latency.add(static_cast<double>(now_ - e.job.enqueued_at));
        begin_assignment(w, *e.assignment, 0);
      } else if (!core_.finished()) {
        park(w);
      } else {
        park(w);  // program done; worker retires
      }
      break;
    }
    case JobKind::kCompletion:
      if (placement_ == ExecPlacement::kWorkerStealing) {
        // The completing worker regains control only now; it presents
        // itself for more work — directly (steal) when the executive is
        // backed up, through the serial request lane otherwise.
        if (!try_steal(e.worker))
          enqueue_job({JobKind::kRequest, e.worker, kNoTicket});
      }
      break;
    case JobKind::kIdleWork:
      break;
  }
  if (core_.work_available() && parked_count_ > 0) unpark_all();
}

void Machine::handle_task_done(const Event& e) {
  enqueue_job({JobKind::kCompletion, e.worker, e.ticket});
  if (placement_ == ExecPlacement::kDedicated) {
    // Completion is processed asynchronously; the worker asks for new work
    // right away (its request is serviced in the priority lane, or taken
    // directly when the executive is contended and stealing is on).
    if (!try_steal(e.worker)) enqueue_job({JobKind::kRequest, e.worker, kNoTicket});
  }
}

SimResult Machine::run() {
  const AllocTotals heap0 = alloc_stats::thread_totals();
  enqueue_job({JobKind::kStart, 0, kNoTicket});
  for (WorkerId w = 0; w < config_.workers; ++w) park(w);
  pump_executive();

  while (!events_.empty()) {
    const Event e = events_.top();
    events_.pop();
    PAX_CHECK_MSG(e.t >= now_, "time went backwards");
    now_ = e.t;
    PAX_CHECK_MSG(now_ <= config_.max_time, "simulation exceeded max_time");
    switch (e.kind) {
      case Event::Kind::kExecDone:
        handle_exec_done(e);
        break;
      case Event::Kind::kTaskDone:
        handle_task_done(e);
        break;
    }
    pump_executive();
  }

  PAX_CHECK_MSG(core_.finished(), "simulation deadlocked before program end");
  PAX_CHECK_MSG(!core_.work_available(), "work left in queue at program end");
  result_.makespan = now_;
  const AllocTotals heap =
      alloc_stats::delta(heap0, alloc_stats::thread_totals());
  result_.heap_allocs = heap.allocs;
  result_.heap_bytes = heap.bytes;
  result_.ledger = core_.ledger();
  result_.diagnostics = core_.diagnostics();
  return std::move(result_);
}

SimResult simulate(const PhaseProgram& program, ExecConfig exec_config,
                   CostModel costs, Workload workload, MachineConfig config) {
  Machine m(program, exec_config, costs, std::move(workload), config);
  return m.run();
}

}  // namespace pax::sim
