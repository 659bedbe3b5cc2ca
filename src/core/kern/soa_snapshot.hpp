// Structure-of-arrays snapshot of per-aircraft motion state, in the
// layout the batch kernels (src/core/kern/kernels.hpp) consume.
//
// The host hot paths historically read the flight table field-by-field
// through whatever container the caller owned; the kernel layer instead
// takes contiguous, 32-byte-aligned double arrays gathered once per run
// (positions, velocities, and altitudes never change between gather and
// commit — see the snapshot semantics notes in
// src/atm/reference/collision.hpp). The kernels themselves only require
// contiguity (they use unaligned vector loads, and indexed variants
// gather), so alignment is a throughput property, not a correctness
// precondition; the AlignedVector storage here guarantees it anyway so
// every full-width lane load of a snapshot is a single aligned fetch.
#pragma once

#include <cstddef>
#include <cstdint>
#include <new>
#include <span>
#include <vector>

namespace atm::core::kern {

/// Alignment of every kernel-facing array: one AVX2 register (32 bytes).
inline constexpr std::size_t kKernelAlignment = 32;

/// Minimal C++17 allocator handing out storage aligned to `Alignment`.
/// std::vector's default allocator only guarantees alignof(double) = 8.
template <typename T, std::size_t Alignment>
class AlignedAllocator {
  static_assert(Alignment >= alignof(T) &&
                    (Alignment & (Alignment - 1)) == 0,
                "Alignment must be a power of two covering alignof(T)");

 public:
  using value_type = T;

  AlignedAllocator() noexcept = default;
  template <typename U>
  explicit AlignedAllocator(const AlignedAllocator<U, Alignment>&) noexcept {}

  [[nodiscard]] T* allocate(std::size_t n) {
    return static_cast<T*>(
        ::operator new(n * sizeof(T), std::align_val_t{Alignment}));
  }
  void deallocate(T* p, std::size_t) noexcept {
    ::operator delete(p, std::align_val_t{Alignment});
  }

  template <typename U>
  struct rebind {
    using other = AlignedAllocator<U, Alignment>;
  };

  friend bool operator==(const AlignedAllocator&,
                         const AlignedAllocator&) = default;
};

/// A std::vector whose data() is 32-byte aligned (kernel lane width).
template <typename T>
using AlignedVector = std::vector<T, AlignedAllocator<T, kKernelAlignment>>;

/// Non-owning pointer view over SoA motion-state arrays. `alt` may be
/// null for callers that only run the box kernels; the band kernel
/// requires all five arrays.
struct SoaView {
  const double* x = nullptr;
  const double* y = nullptr;
  const double* dx = nullptr;
  const double* dy = nullptr;
  const double* alt = nullptr;
  std::size_t n = 0;
};

/// Owning SoA snapshot of positions, velocities, and altitudes, gathered
/// once per task run from any db-like source exposing x/y/dx/dy/alt
/// sequences (airfield::FlightDb): the whole table, or the rows an
/// `order` lists (a sector's candidates, a swept index's bucket order).
struct SoaSnapshot {
  AlignedVector<double> x, y, dx, dy, alt;

  [[nodiscard]] std::size_t size() const { return x.size(); }

  /// Copy the full table. O(n) per run against the O(n^2) scans that
  /// consume it; the copy also pins snapshot semantics — commits to the
  /// source mid-run cannot leak into in-flight scans.
  template <typename Db>
  void gather(const Db& db) {
    x.assign(db.x.begin(), db.x.end());
    y.assign(db.y.begin(), db.y.end());
    dx.assign(db.dx.begin(), db.dx.end());
    dy.assign(db.dy.begin(), db.dy.end());
    alt.assign(db.alt.begin(), db.alt.end());
  }

  /// Copy rows order[0], order[1], ... into slots 0, 1, ...: slot k holds
  /// db row order[k]. Reuses the buffers, so a sector can gather its
  /// candidates and later re-gather them in bucket order in place.
  template <typename Db>
  void gather(const Db& db, std::span<const std::int32_t> order) {
    const std::size_t m = order.size();
    x.resize(m);
    y.resize(m);
    dx.resize(m);
    dy.resize(m);
    alt.resize(m);
    for (std::size_t k = 0; k < m; ++k) {
      const auto j = static_cast<std::size_t>(order[k]);
      x[k] = db.x[j];
      y[k] = db.y[j];
      dx[k] = db.dx[j];
      dy[k] = db.dy[j];
      alt[k] = db.alt[j];
    }
  }

  [[nodiscard]] SoaView view() const {
    return {x.data(), y.data(), dx.data(), dy.data(), alt.data(), x.size()};
  }
};

}  // namespace atm::core::kern
