// scheduler_policy.hpp — cross-job scheduling policies for the pool runtime.
//
// The pool's worker loop is a two-level pick: a worker prefers its resident
// job while that job's waiting queue is non-empty, and when the queue drains
// (the rundown signal, now at *program* scope) it rotates to another
// runnable job. The policy decides the second level — which job a rotating
// worker adopts — and, under kDeadline and kPriority, whether an arrival
// outranks a running job enough to draw a spare resident off it early
// (DESIGN.md §7). Either way it is a pure comparator over a small snapshot
// of each job, testable without threads.
#pragma once

#include <cstdint>
#include <limits>

namespace pax::pool {

enum class SchedPolicy : std::uint8_t {
  kFifo,      ///< submission order (lowest job id first)
  kPriority,  ///< highest submit-time priority, fifo within a priority
  kDeadline,  ///< earliest absolute deadline first (EDF), no-deadline last
};

[[nodiscard]] inline const char* to_string(SchedPolicy p) {
  switch (p) {
    case SchedPolicy::kFifo: return "fifo";
    case SchedPolicy::kPriority: return "priority";
    case SchedPolicy::kDeadline: return "deadline";
  }
  return "?";
}

/// JobView::deadline_ns for a job with no deadline: sorts after every real
/// deadline under EDF, so deadline-free batch work fills leftover capacity.
inline constexpr std::int64_t kNoDeadline =
    std::numeric_limits<std::int64_t>::max();

/// Scheduling-relevant view of a runnable job: every field is fixed at
/// submit, so the pick reads it without the job lock.
struct JobView {
  std::uint64_t id = 0;  ///< submission order, dense from 0
  int priority = 0;      ///< larger = more urgent
  /// Absolute deadline (steady-clock ns since epoch); kNoDeadline = none.
  std::int64_t deadline_ns = kNoDeadline;
};

/// True when a rotating worker should adopt `a` ahead of `b` under `policy`.
/// Total order for fixed snapshots: every policy tie-breaks by id.
[[nodiscard]] inline bool schedules_before(const JobView& a, const JobView& b,
                                           SchedPolicy policy) {
  switch (policy) {
    case SchedPolicy::kFifo:
      break;
    case SchedPolicy::kPriority:
      if (a.priority != b.priority) return a.priority > b.priority;
      break;
    case SchedPolicy::kDeadline:
      if (a.deadline_ns != b.deadline_ns) return a.deadline_ns < b.deadline_ns;
      break;
  }
  return a.id < b.id;
}

}  // namespace pax::pool
