// run_queue.hpp — per-worker bounded local run-queue of Assignments.
//
// The decentralized half of the dispatch layer (DESIGN.md §8): every worker
// owns one fixed-capacity ring. The owner pushes refilled assignments at the
// back and pops from the back (LIFO — it executes the most recently refilled
// work, which is also the work the refill ordered last; the dispatcher
// pushes each refill batch in reverse so the owner's pop order equals the
// executive's handout order). Thieves take FIFO ranges from the front — the
// assignments the owner would reach last — under the same light per-queue
// mutex. Occupancy is mirrored into an atomic so the steal picker can size
// up victims without touching any lock.
//
// Concurrency discipline (DESIGN.md §11): the ring and its geometry are
// PAX_GUARDED_BY the queue mutex (rank: queue — normally held alone; the
// one sanctioned nesting is the pool finalize path reading peak() under a
// job mutex, which is why queue ranks above job). The occupancy mirror is
// the one field read outside it.
#pragma once

#include <atomic>
#include <cstddef>
#include <vector>

#include "common/check.hpp"
#include "common/lock_rank.hpp"
#include "common/thread_annotations.hpp"
#include "core/granule.hpp"

namespace pax::sched {

class LocalRunQueue {
 public:
  explicit LocalRunQueue(std::size_t capacity) : ring_(capacity) {
    PAX_CHECK_MSG(capacity > 0, "local run-queue needs capacity >= 1");
  }

  LocalRunQueue(const LocalRunQueue&) = delete;
  LocalRunQueue& operator=(const LocalRunQueue&) = delete;

  [[nodiscard]] std::size_t capacity() const { return capacity_; }

  /// Peer-visible occupancy. May be momentarily stale; exact size is only
  /// observable under the queue lock and nobody needs it.
  [[nodiscard]] std::size_t size() const {
    return occupancy_.load(std::memory_order_relaxed);
  }

  /// Owner: append at the back. False when the ring is full (the dispatcher
  /// never over-refills, so a failed push is a caller bug in practice).
  bool push(const Assignment& a) PAX_EXCLUDES(mu_) {
    RankedLock lock(mu_);
    if (count_ == capacity_) return false;
    ring_[(head_ + count_) % capacity_] = a;
    ++count_;
    if (count_ > peak_) peak_ = count_;
    occupancy_.store(count_, std::memory_order_relaxed);
    return true;
  }

  /// Owner: append `buf` back-to-front under ONE lock acquisition. The
  /// dispatcher pushes a refill after ShardedExecutive::acquire returns,
  /// with no executive lock held, and a steal's loot the same way; one bulk
  /// section instead of a lock round-trip per assignment keeps a thief
  /// probing this queue from waiting out a whole batch of them.
  /// All-or-nothing: false when the ring lacks room for the whole buffer.
  bool push_reversed(const std::vector<Assignment>& buf) PAX_EXCLUDES(mu_) {
    RankedLock lock(mu_);
    if (buf.size() > capacity_ - count_) return false;
    for (auto it = buf.rbegin(); it != buf.rend(); ++it) {
      ring_[(head_ + count_) % capacity_] = *it;
      ++count_;
    }
    if (count_ > peak_) peak_ = count_;
    occupancy_.store(count_, std::memory_order_relaxed);
    return true;
  }

  /// Owner: pop the most recent assignment (LIFO end).
  bool pop(Assignment& out) PAX_EXCLUDES(mu_) {
    RankedLock lock(mu_);
    if (count_ == 0) return false;
    --count_;
    out = ring_[(head_ + count_) % capacity_];
    occupancy_.store(count_, std::memory_order_relaxed);
    return true;
  }

  /// Thief: take up to `max_n` assignments from the front (FIFO end), capped
  /// at half the current occupancy rounded up, appended to `out`. Returns
  /// how many were taken (0 when the queue raced empty).
  std::size_t steal(std::size_t max_n, std::vector<Assignment>& out)
      PAX_EXCLUDES(mu_) {
    RankedLock lock(mu_);
    const std::size_t take = std::min(max_n, (count_ + 1) / 2);
    for (std::size_t i = 0; i < take; ++i) {
      out.push_back(ring_[head_]);
      head_ = (head_ + 1) % capacity_;
      --count_;
    }
    occupancy_.store(count_, std::memory_order_relaxed);
    return take;
  }

  /// High-water mark of the occupancy (for RtResult / PoolStats reporting).
  [[nodiscard]] std::size_t peak() const PAX_EXCLUDES(mu_) {
    RankedLock lock(mu_);
    return peak_;
  }

 private:
  mutable RankedMutex<LockRank::kQueue> mu_;
  std::vector<Assignment> ring_ PAX_GUARDED_BY(mu_);
  std::size_t head_ PAX_GUARDED_BY(mu_) = 0;  ///< front (FIFO/steal) index
  std::size_t count_ PAX_GUARDED_BY(mu_) = 0;
  std::size_t peak_ PAX_GUARDED_BY(mu_) = 0;
  /// Mirror of count_, written under mu_ on every mutation, read lock-free
  /// by the steal picker and sleep predicates. Relaxed on both sides: the
  /// value is a sizing heuristic — a stale read mispicks a victim or spins
  /// one extra round, and every correctness-bearing read of the ring itself
  /// happens under mu_, which provides the ordering.
  std::atomic<std::size_t> occupancy_{0};
  /// ring_.size(), readable without the lock (never resized after
  /// construction). Kept separate so capacity() needs no capability and the
  /// guarded ring_ is only touched inside critical sections.
  const std::size_t capacity_ = ring_.size();
};

}  // namespace pax::sched
