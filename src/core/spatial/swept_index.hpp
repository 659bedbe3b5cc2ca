// Swept broadphase index for the collision-detection look-ahead: a uniform
// grid keyed by current position plus altitude slabs, queried with a box
// expanded by velocity x horizon (the 4D-AABB idea of Bak & Hobbs reduced
// to the ATM tasks' geometry).
//
// Why the query expands instead of the insertion sweeping: every aircraft
// is inserted exactly once, by its *current* position, into one (slab,
// cell) bucket. A query for aircraft i expands its box by
//
//     band + (|v_i| + max_j |v_j|) * horizon
//
// per axis — if i and j can come within `band` of each other on an axis
// inside the horizon, their current positions differ by at most that
// radius, so j's bucket intersects the query box. Using |v_i| (speed, not
// direction) keeps the same query valid for every Task-3 trial rotation of
// i's velocity. Altitude slabs are `gate` feet wide, so any j within the
// altitude gate of i lies in i's slab or an adjacent one.
//
// Exactness contract: `for_each_candidate` enumerates a superset of every
// j (j != i is NOT filtered here) that can pass the altitude gate and the
// Batcher pair test against aircraft i at any velocity of magnitude
// `speed`; each inserted id is enumerated at most once. The caller
// re-applies the exact gate and pair test, so outcomes are identical to a
// brute-force scan. Bounds come from the finite coordinates only, and a
// NaN or infinite coordinate clamps into an edge bucket (clamp.hpp)
// instead of indexing out of bounds. That keeps the contract for every
// track without a NaN: an infinite coordinate never passes the exact
// tests, and an infinite speed widens every query to the whole grid.
// A NaN position or velocity is outside it — the pair test treats a NaN
// axis as always overlapping, but the NaN track sits in one bucket.
//
// Bucket order: build() counting-sorts the inserted ids by (slab, row,
// col) bucket, keeping input order inside a bucket; order() exposes that
// permutation. The buckets of one (slab, row) of a query box are adjacent
// in it, so a snapshot gathered in bucket order turns each of them into
// one contiguous slot range — `for_each_run` — that a batch kernel reads
// with plain vector loads instead of one gather per candidate.
// `for_each_candidate` visits exactly the ids of those runs, in order.
// `for_each_cell` reports the same buckets one at a time, and
// `cell_starts()` every bucket's position range, so a caller can reorder
// the inside of each bucket (the Tasks 2+3 scan region sorts it by
// altitude) and still enumerate bucket by bucket in this order.
//
// Query boxes: `query` names the buckets a track reaches as a
// SweptQuery, which depends on the speed only through `reach`. Two
// queries of one track at speeds that round to the same cells compare
// equal and enumerate the same runs, so a caller can keep per-box state
// (the Task-3 gate list) and reuse it for every trial rotation whose box
// has not changed.
//
// The index is immutable after build() and safe to query from many
// threads concurrently (the MIMD backend does).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "src/core/spatial/clamp.hpp"

namespace atm::core::spatial {

struct SweptIndexParams {
  double horizon_periods = 0.0;   ///< Look-ahead window (periods).
  double band_nm = 0.0;           ///< Batcher band width (total, nm).
  double altitude_gate_feet = 0.0;///< Slab height = altitude gate.
  /// Upper bound on grid cells per xy axis. The build also shrinks the
  /// grid (down to 1x1) when the typical query radius covers the field —
  /// at the paper's 20-minute horizon and en-route speeds the xy sweep
  /// saturates and all pruning comes from the altitude slabs.
  int max_cells_per_axis = 64;
};

/// The buckets one query reaches: columns [cx0, cx1] and rows [cy0, cy1]
/// of slabs [s0, s1].
struct SweptQuery {
  int cx0 = 0, cx1 = -1, cy0 = 0, cy1 = -1, s0 = 0, s1 = -1;

  friend bool operator==(const SweptQuery&, const SweptQuery&) = default;
};

class SweptIndex {
 public:
  /// Build from current positions, velocities (nm/period), and altitudes.
  void build(std::span<const double> x, std::span<const double> y,
             std::span<const double> dx, std::span<const double> dy,
             std::span<const double> alt, const SweptIndexParams& params);

  [[nodiscard]] bool empty() const { return ids_.empty(); }
  [[nodiscard]] std::size_t size() const { return ids_.size(); }
  [[nodiscard]] int slabs() const { return slabs_; }
  [[nodiscard]] int cols() const { return cols_; }
  [[nodiscard]] int rows() const { return rows_; }
  [[nodiscard]] double max_speed() const { return max_speed_; }

  /// Bucket position -> input slot: the inserted ids in bucket order.
  /// A snapshot gathered through this permutation has slot k = bucket
  /// position k, the slots for_each_run reports.
  [[nodiscard]] std::span<const std::int32_t> order() const { return ids_; }

  /// The candidate buckets of a track starting at (xi, yi), altitude
  /// alti, moving at `speed` nm/period in any direction. Empty (no runs)
  /// when the index is.
  [[nodiscard]] SweptQuery query(double xi, double yi, double alti,
                                 double speed) const {
    if (ids_.empty()) return {};
    const double reach = band_ + (speed + max_speed_) * horizon_;
    const int s = slab_of(alti);
    return {.cx0 = col_of(xi - reach),
            .cx1 = col_of(xi + reach),
            .cy0 = row_of(yi - reach),
            .cy1 = row_of(yi + reach),
            .s0 = s > 0 ? s - 1 : 0,
            .s1 = s < slabs_ - 1 ? s + 1 : slabs_ - 1};
  }

  /// Visit the buckets of `q`, a query() of this index, as contiguous
  /// bucket-position ranges [begin, end): one per (slab, row) of the box,
  /// slab-major, empty ones skipped. The visitor returns true to stop the
  /// enumeration early.
  template <typename Fn>
  void for_each_run(const SweptQuery& q, Fn&& fn) const {
    for (int si = q.s0; si <= q.s1; ++si) {
      for (int cy = q.cy0; cy <= q.cy1; ++cy) {
        const std::size_t row = row_cells(si, cy);
        const auto begin = static_cast<std::size_t>(
            cell_start_[row + static_cast<std::size_t>(q.cx0)]);
        const auto end = static_cast<std::size_t>(
            cell_start_[row + static_cast<std::size_t>(q.cx1) + 1]);
        if (begin < end && fn(begin, end)) return;
      }
    }
  }

  /// for_each_run over query(xi, yi, alti, speed).
  template <typename Fn>
  void for_each_run(double xi, double yi, double alti, double speed,
                    Fn&& fn) const {
    for_each_run(query(xi, yi, alti, speed), fn);
  }

  /// Visit the buckets of `q` one at a time, as bucket-position ranges
  /// [begin, end), in for_each_run order (each run is its row's buckets,
  /// columns ascending), empty ones skipped.
  template <typename Fn>
  void for_each_cell(const SweptQuery& q, Fn&& fn) const {
    for (int si = q.s0; si <= q.s1; ++si) {
      for (int cy = q.cy0; cy <= q.cy1; ++cy) {
        const std::size_t row = row_cells(si, cy);
        for (int cx = q.cx0; cx <= q.cx1; ++cx) {
          const std::size_t c = row + static_cast<std::size_t>(cx);
          const auto begin = static_cast<std::size_t>(cell_start_[c]);
          const auto end = static_cast<std::size_t>(cell_start_[c + 1]);
          if (begin < end) fn(begin, end);
        }
      }
    }
  }

  /// CSR bucket offsets: bucket c holds bucket positions [cell_starts()[c],
  /// cell_starts()[c + 1]) of order(), slabs * rows * cols + 1 entries.
  [[nodiscard]] std::span<const std::int32_t> cell_starts() const {
    return cell_start_;
  }

  /// The ids of for_each_run's runs, one at a time and in the same order.
  /// The visitor returns true to stop early.
  template <typename Fn>
  void for_each_candidate(double xi, double yi, double alti, double speed,
                          Fn&& fn) const {
    for_each_run(xi, yi, alti, speed, [&](std::size_t begin,
                                          std::size_t end) {
      for (std::size_t k = begin; k < end; ++k) {
        if (fn(static_cast<std::size_t>(ids_[k]))) return true;
      }
      return false;
    });
  }

 private:
  /// Slab-count cap: far above any real altitude range (1024 gates is
  /// over 200,000 ft at the smallest scenario gate), so it only bounds the
  /// table when a huge finite altitude stretches the range.
  static constexpr int kMaxSlabs = 1024;

  [[nodiscard]] int col_of(double x) const {
    return clamped_cell((x - min_x_) * inv_cell_, cols_);
  }
  [[nodiscard]] int row_of(double y) const {
    return clamped_cell((y - min_y_) * inv_cell_, rows_);
  }
  [[nodiscard]] int slab_of(double alt) const {
    return clamped_cell((alt - min_alt_) * inv_slab_, slabs_);
  }
  /// Bucket of column 0 in row cy of slab si.
  [[nodiscard]] std::size_t row_cells(int si, int cy) const {
    return (static_cast<std::size_t>(si) * static_cast<std::size_t>(rows_) +
            static_cast<std::size_t>(cy)) *
           static_cast<std::size_t>(cols_);
  }

  double min_x_ = 0.0, min_y_ = 0.0, min_alt_ = 0.0;
  double inv_cell_ = 0.0, inv_slab_ = 0.0;
  double band_ = 0.0, horizon_ = 0.0, max_speed_ = 0.0;
  int cols_ = 0, rows_ = 0, slabs_ = 0;
  std::vector<std::int32_t> cell_start_;  ///< CSR, slabs*rows*cols + 1.
  std::vector<std::int32_t> ids_;
  std::vector<std::int32_t> cursor_;      ///< Build scratch.
};

}  // namespace atm::core::spatial
