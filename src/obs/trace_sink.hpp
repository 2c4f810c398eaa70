// trace_sink.hpp — bridge from the executive's structural events to the
// control-track trace ring.
//
// The executive's ExecEventSink fires under whatever lock the driver wraps
// the core in (the control mutex, for the sharded front-end) — which is
// exactly the serialization the control-track ring's single-writer contract
// needs. TraceEventSink translates the structural kinds that belong on a
// timeline (run opened/completed, enablement ranges, program finish) into
// TraceRecords and drops the rest; an optional `next` sink keeps the old
// observer idiom composable (trace AND a test observer on the same core).
//
// A pool with many jobs deliberately does NOT install this sink: its jobs
// have independent control mutexes, so two workers sweeping *different*
// jobs would race on the one shared control ring. Pool timelines come from
// the worker-side records (exec spans + job lifecycle) instead. A threaded
// run installs it on the one job of its private pool — one control mutex,
// one writer.
#pragma once

#include "core/executive.hpp"
#include "obs/trace_ring.hpp"

namespace pax::obs {

class TraceEventSink final : public ExecEventSink {
 public:
  /// `ring` should be the TraceBuffer's control ring; `job` tags the lane
  /// (kNoTraceJob for the sim; job 0 for a threaded run). Non-owning `next`
  /// is invoked after the record is written, for every event (including the
  /// kinds this sink does not record).
  explicit TraceEventSink(TraceRing& ring, std::uint64_t job = kNoTraceJob,
                          ExecEventSink* next = nullptr)
      : ring_(ring), job_(job), next_(next) {}

  void on_event(const ExecEvent& ev) override {
    TraceKind kind{};
    bool record = true;
    switch (ev.kind) {
      case ExecEvent::Kind::kRunOpened: kind = TraceKind::kRunOpened; break;
      case ExecEvent::Kind::kRunCompleted: kind = TraceKind::kRunCompleted; break;
      case ExecEvent::Kind::kGranulesEnabled:
        kind = TraceKind::kGranulesEnabled;
        break;
      case ExecEvent::Kind::kProgramFinished:
        kind = TraceKind::kProgramFinished;
        break;
      default:
        record = false;  // creation/overlap/serial/branch/diagnostic: not
                         // timeline material; tests read them via `next`
    }
    if (record) {
      TraceRecord r;
      r.ts_ns = trace_now_ns();
      r.job = job_;
      r.range = ev.range;
      r.phase = ev.phase;
      // aux carries the run id for run events, the enabled-range size for
      // enablements (the run id rides in neither — range disambiguates).
      r.aux = ev.kind == ExecEvent::Kind::kGranulesEnabled
                  ? static_cast<std::uint32_t>(ev.range.size())
                  : ev.run;
      r.worker = kControlTrack;
      r.kind = kind;
      ring_.emit(r);
    }
    if (next_ != nullptr) next_->on_event(ev);
  }

 private:
  TraceRing& ring_;
  std::uint64_t job_;
  ExecEventSink* next_;
};

}  // namespace pax::obs
