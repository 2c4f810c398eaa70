// alloc_stats.hpp — opt-in heap-traffic instrumentation.
//
// The allocation-free control plane (DESIGN.md §10) is a *measured* claim,
// not a style rule: tests/test_alloc.cpp asserts a warm executive cycle
// performs ZERO allocations and holds the sharded and pool warm paths to an
// allocs-per-granule bar, and bench_stack reports heap.allocs_per_granule.
// Both need to observe the global allocator without
// perturbing production binaries, so the counting operator new/delete
// replacements live behind a macro: exactly one translation unit of an
// instrumented binary defines PAX_ALLOC_STATS_IMPLEMENT before including
// this header, which emits the (non-inline, per [replacement.functions])
// replacement definitions into that TU. Binaries that never define the
// macro link no hooks; the counters below read zero and active() is false.
//
// Counting is double-tracked:
//   * thread-local counters — exact scoped measurement on one thread
//     (ThreadScope), used by the deterministic zero-allocation tests;
//   * process-global relaxed atomics — aggregate allocs/bytes across worker
//     threads, sampled by the runtimes into RtResult/PoolStats/SimResult
//     heap fields for the bench reports.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>

namespace pax {

/// Plain-value allocator-traffic snapshot (global or per-thread).
struct AllocTotals {
  std::uint64_t allocs = 0;  ///< operator-new calls
  std::uint64_t frees = 0;   ///< operator-delete calls (non-null)
  std::uint64_t bytes = 0;   ///< bytes requested from operator new
};

namespace alloc_stats {

// All counters relaxed: they are pure sums read for reporting — no reader
// infers anything about *other* memory from a counter value, so no ordering
// is bought and none is paid for (these sit on the global new/delete path).
inline std::atomic<std::uint64_t> g_allocs{0};
inline std::atomic<std::uint64_t> g_frees{0};
inline std::atomic<std::uint64_t> g_bytes{0};
/// Set by the TU that implements the hooks (static initializer), so library
/// code can report honest zeros instead of claiming an unmeasured binary is
/// allocation-free.
inline std::atomic<bool> g_installed{false};

struct ThreadCounters {
  std::uint64_t allocs = 0;
  std::uint64_t frees = 0;
  std::uint64_t bytes = 0;
};
inline thread_local ThreadCounters tl_counters;

/// Are the counting hooks linked into this binary?
inline bool active() { return g_installed.load(std::memory_order_relaxed); }

/// Process-wide totals since start (all threads). Zero when !active().
inline AllocTotals totals() {
  return {g_allocs.load(std::memory_order_relaxed),
          g_frees.load(std::memory_order_relaxed),
          g_bytes.load(std::memory_order_relaxed)};
}

/// This thread's totals since thread start. Zero when !active().
inline AllocTotals thread_totals() {
  return {tl_counters.allocs, tl_counters.frees, tl_counters.bytes};
}

inline AllocTotals delta(const AllocTotals& from, const AllocTotals& to) {
  return {to.allocs - from.allocs, to.frees - from.frees, to.bytes - from.bytes};
}

/// Scoped measurement of the *current thread's* allocator traffic.
class ThreadScope {
 public:
  ThreadScope() : t0_(thread_totals()) {}
  [[nodiscard]] AllocTotals so_far() const { return delta(t0_, thread_totals()); }

 private:
  AllocTotals t0_;
};

/// Called by the hooks; exposed so tests can sanity-check the counting path.
inline void note_alloc(std::size_t bytes) {
  tl_counters.allocs += 1;
  tl_counters.bytes += bytes;
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  g_bytes.fetch_add(bytes, std::memory_order_relaxed);
}
inline void note_free() {
  tl_counters.frees += 1;
  g_frees.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace alloc_stats
}  // namespace pax

// ---------------------------------------------------------------------------
// Replacement allocation functions — one TU per instrumented binary defines
// PAX_ALLOC_STATS_IMPLEMENT before including this header. The replacements
// must not be inline ([replacement.functions]/3), hence the macro gate
// instead of inline definitions.
#ifdef PAX_ALLOC_STATS_IMPLEMENT

#include <cstdlib>
#include <new>

namespace pax::alloc_stats::detail {
[[maybe_unused]] inline const bool installer = [] {
  g_installed.store(true, std::memory_order_relaxed);
  return true;
}();

inline void* counted_alloc(std::size_t n) {
  void* p = std::malloc(n ? n : 1);
  if (p == nullptr) throw std::bad_alloc{};
  note_alloc(n);
  return p;
}

inline void* counted_aligned_alloc(std::size_t n, std::size_t align) {
  // aligned_alloc requires the size to be a multiple of the alignment.
  const std::size_t rounded = (n + align - 1) / align * align;
  void* p = std::aligned_alloc(align, rounded ? rounded : align);
  if (p == nullptr) throw std::bad_alloc{};
  note_alloc(n);
  return p;
}
}  // namespace pax::alloc_stats::detail

void* operator new(std::size_t n) { return pax::alloc_stats::detail::counted_alloc(n); }
void* operator new[](std::size_t n) { return pax::alloc_stats::detail::counted_alloc(n); }
void* operator new(std::size_t n, std::align_val_t a) {
  return pax::alloc_stats::detail::counted_aligned_alloc(
      n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return pax::alloc_stats::detail::counted_aligned_alloc(
      n, static_cast<std::size_t>(a));
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  void* p = std::malloc(n ? n : 1);
  if (p != nullptr) pax::alloc_stats::note_alloc(n);
  return p;
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  void* p = std::malloc(n ? n : 1);
  if (p != nullptr) pax::alloc_stats::note_alloc(n);
  return p;
}

void operator delete(void* p) noexcept {
  if (p == nullptr) return;
  pax::alloc_stats::note_free();
  std::free(p);
}
void operator delete[](void* p) noexcept {
  if (p == nullptr) return;
  pax::alloc_stats::note_free();
  std::free(p);
}
void operator delete(void* p, std::size_t) noexcept { operator delete(p); }
void operator delete[](void* p, std::size_t) noexcept { operator delete[](p); }
void operator delete(void* p, std::align_val_t) noexcept { operator delete(p); }
void operator delete[](void* p, std::align_val_t) noexcept { operator delete[](p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  operator delete(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  operator delete[](p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { operator delete(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  operator delete[](p);
}

#endif  // PAX_ALLOC_STATS_IMPLEMENT
