// mpmc_ring.hpp — bounded multi-producer/multi-consumer ring buffer.
//
// The lock-free handout path of the sharded executive (DESIGN.md §13): each
// shard's ready buffer and deposit box become one of these rings, so the
// steady-state worker protocol — pop assignments from the home shard, probe a
// sibling, push finished tickets — runs with no mutex at all, and the per-
// shard lock the PR 4 design still took on every warm acquire is retired to
// the control sweep's slow path.
//
// Shape: the classic Vyukov bounded queue. A power-of-two array of cells,
// each carrying an atomic sequence number beside its value; producers claim
// cells by CAS on an enqueue cursor, consumers by CAS on a dequeue cursor,
// and the per-cell sequence number is what publishes the value between them:
//
//   * a cell whose seq equals the enqueue position is free to push; the
//     producer CASes the cursor, writes the value, then release-stores
//     seq = pos + 1 — the only producer→consumer edge;
//   * a cell whose seq equals the dequeue position + 1 holds a value; the
//     consumer CASes the cursor, reads the value, then release-stores
//     seq = pos + capacity — recycling the cell for the next lap;
//   * a lagging seq means the ring is full (push) or empty (pop): both
//     operations FAIL rather than wait, and the caller falls back to the
//     control sweep — bounded and non-blocking is the whole contract.
//
// Memory discipline (DESIGN.md §10): the cell array is allocated once at
// construction and never grows; try_push/try_pop are loads, CASes and stores,
// full stop — the t10 zero-alloc warm-window gate holds through this ring.
// Census accounting stays OUTSIDE the ring (the executive's relaxed
// ready_/deposited_ atomics); the ring only exposes its cursors (pushed()/
// popped()) so check_census can cross-validate occupancy at quiescence.
//
// Sizing caveat (why the executive still handles push failure even on rings
// it never over-fills): a consumer that CASed the dequeue cursor but has not
// yet release-stored the recycled seq leaves its cell transiently "occupied
// from a lap ago". A producer lapping onto exactly that cell sees the stale
// seq and reports full, however much arithmetic room the cursors show. The
// executive treats any failed push as ring-full overflow (counted, traced,
// retired by the sweep), so this transient is indistinguishable from — and
// exactly as harmless as — a genuinely full ring.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>

#include "common/check.hpp"

namespace pax {

template <typename T>
class MpmcRing {
 public:
  /// `min_capacity` is rounded up to a power of two (minimum 2) so the slot
  /// index is a mask, not a division, on the hot path.
  explicit MpmcRing(std::size_t min_capacity) {
    std::size_t cap = 2;
    while (cap < min_capacity) cap <<= 1;
    cells_ = std::make_unique<Cell[]>(cap);
    mask_ = cap - 1;
    for (std::size_t i = 0; i < cap; ++i)
      cells_[i].seq.store(i, std::memory_order_relaxed);
  }

  MpmcRing(const MpmcRing&) = delete;
  MpmcRing& operator=(const MpmcRing&) = delete;

  [[nodiscard]] std::size_t capacity() const { return mask_ + 1; }

  /// Claim a cell and publish `v`. False when the ring is full (or a lapped
  /// cell's recycle is still in flight — see the sizing caveat above); the
  /// value is NOT enqueued and the caller owns the fallback.
  bool try_push(const T& v) {
    Cell* cell;
    std::uint64_t pos = enqueue_pos_.load(std::memory_order_relaxed);
    std::uint64_t retries = 0;
    for (;;) {
      cell = &cells_[pos & mask_];
      // Acquire: pairs with the consumer's release recycle so the producer
      // never writes a value the consumer is still reading out.
      const std::uint64_t seq = cell->seq.load(std::memory_order_acquire);
      const auto dif = static_cast<std::int64_t>(seq) - static_cast<std::int64_t>(pos);
      if (dif == 0) {
        // Relaxed CAS: claiming the cursor orders nothing by itself — the
        // value hand-off rides entirely on the cell's seq release below.
        if (enqueue_pos_.compare_exchange_weak(pos, pos + 1,
                                               std::memory_order_relaxed))
          break;
        ++retries;  // lost the claim to another producer; pos was reloaded
      } else if (dif < 0) {
        note_retries(retries);
        return false;  // full (the cell still holds last lap's value)
      } else {
        // Another producer claimed this cell first; chase the cursor.
        pos = enqueue_pos_.load(std::memory_order_relaxed);
      }
    }
    cell->value = v;
    // Release: publishes the value write above to the consumer that acquires
    // this seq — the one producer→consumer edge of the protocol.
    cell->seq.store(pos + 1, std::memory_order_release);
    note_retries(retries);
    return true;
  }

  /// Claim the oldest value into `out`. False when the ring is empty (or the
  /// oldest cell's publish is still in flight). FIFO per ring: cells are
  /// claimed in cursor order, which is what preserves the executive's
  /// handout order per scatter batch.
  bool try_pop(T& out) {
    Cell* cell;
    std::uint64_t pos = dequeue_pos_.load(std::memory_order_relaxed);
    std::uint64_t retries = 0;
    for (;;) {
      cell = &cells_[pos & mask_];
      // Acquire: pairs with the producer's release publish so the value read
      // below sees the fully-written value.
      const std::uint64_t seq = cell->seq.load(std::memory_order_acquire);
      const auto dif =
          static_cast<std::int64_t>(seq) - static_cast<std::int64_t>(pos + 1);
      if (dif == 0) {
        if (dequeue_pos_.compare_exchange_weak(pos, pos + 1,
                                               std::memory_order_relaxed))
          break;
        ++retries;
      } else if (dif < 0) {
        note_retries(retries);
        return false;  // empty (the cell is waiting for this lap's producer)
      } else {
        pos = dequeue_pos_.load(std::memory_order_relaxed);
      }
    }
    out = cell->value;
    // Release: recycles the cell for the producer that laps onto it (pairs
    // with the producer's acquire seq load).
    cell->seq.store(pos + mask_ + 1, std::memory_order_release);
    note_retries(retries);
    return true;
  }

  // --- census introspection --------------------------------------------------
  // Cursor snapshots, relaxed: exact only at quiescence (no operation in
  // flight), which is when check_census reads them; mid-run they are
  // monotonic progress counters a moment stale.
  [[nodiscard]] std::uint64_t pushed() const {
    return enqueue_pos_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t popped() const {
    return dequeue_pos_.load(std::memory_order_relaxed);
  }
  /// Occupancy estimate (pushed - popped, clamped at 0: the cursors are read
  /// independently, so a racing pop can momentarily invert them).
  [[nodiscard]] std::size_t approx_size() const {
    const std::uint64_t popped_first = popped();  // read popped first: a
    // concurrent pop then only shrinks the true size below the estimate,
    // so room computed from this estimate stays conservative.
    const std::uint64_t pushed_now = pushed();
    return pushed_now > popped_first
               ? static_cast<std::size_t>(pushed_now - popped_first)
               : 0;
  }
  /// CAS claim retries summed over both cursors — the ring's contention
  /// signal (exported as shard.ring.cas_retries).
  [[nodiscard]] std::uint64_t cas_retries() const {
    return cas_retries_.load(std::memory_order_relaxed);
  }

 private:
  struct Cell {
    std::atomic<std::uint64_t> seq{0};
    T value{};
  };

  void note_retries(std::uint64_t n) {
    // One relaxed add per operation that actually contended; the common
    // uncontended path never touches this (shared) counter.
    if (n != 0) cas_retries_.fetch_add(n, std::memory_order_relaxed);
  }

  std::unique_ptr<Cell[]> cells_;
  std::size_t mask_ = 0;
  /// alignas: producers and consumers hammer different cursors; keep each on
  /// its own cache line (and off the cells') so they don't false-share.
  alignas(64) std::atomic<std::uint64_t> enqueue_pos_{0};
  alignas(64) std::atomic<std::uint64_t> dequeue_pos_{0};
  alignas(64) std::atomic<std::uint64_t> cas_retries_{0};
};

}  // namespace pax
