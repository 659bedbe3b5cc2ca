// A rebuildable uniform grid over 2-D points, CSR-packed for cache-friendly
// cell walks.
//
// Task 1 correlation uses one of these per bounding-box pass: eligible
// aircraft expected positions are binned by cell, and each radar return
// queries only the cells overlapping its (doubling) correlation box
// instead of scanning the whole flight table.
//
// Exactness contract: `for_each_in_box` enumerates a *superset* of the
// inserted points inside the box (cell granularity; out-of-bounds
// coordinates are clamped into the edge cells), and enumerates every
// inserted id at most once (each point lives in exactly one cell). The
// caller must re-apply its exact membership test to every candidate, so
// outcomes never depend on the grid geometry.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "src/core/spatial/clamp.hpp"

namespace atm::core::spatial {

class UniformGrid2D {
 public:
  /// Rebuild the grid from points (xs[i], ys[i]) for every i with
  /// mask[i] != 0 (an empty mask inserts all points). Bounds are taken
  /// from the inserted points' finite coordinates; a NaN or infinite
  /// coordinate clamps into an edge cell (no exact box test accepts it).
  /// `cell_hint_nm` is the preferred cell edge (nm) length (the caller's
  /// query box width is a good choice: a query then touches at most 4
  /// cells); it is enlarged as needed to keep the grid within
  /// `max_cells_per_axis` cells per axis.
  ///
  /// Buffers are reused across builds; rebuilding every pass is O(n +
  /// cells).
  void build(std::span<const double> xs, std::span<const double> ys,
             std::span<const std::uint8_t> mask, double cell_hint_nm,
             int max_cells_per_axis = 128);

  [[nodiscard]] bool empty() const { return ids_.empty(); }
  [[nodiscard]] std::size_t size() const { return ids_.size(); }
  [[nodiscard]] int cols() const { return cols_; }
  [[nodiscard]] int rows() const { return rows_; }

  /// Visit every inserted id whose cell intersects the closed box
  /// [x0, x1] x [y0, y1]. Each id is visited at most once.
  template <typename Fn>
  void for_each_in_box(double x0, double x1, double y0, double y1,
                       Fn&& fn) const {
    if (ids_.empty()) return;
    const int cx0 = col_of(x0);
    const int cx1 = col_of(x1);
    const int cy0 = row_of(y0);
    const int cy1 = row_of(y1);
    for (int cy = cy0; cy <= cy1; ++cy) {
      for (int cx = cx0; cx <= cx1; ++cx) {
        const std::size_t cell =
            static_cast<std::size_t>(cy) * static_cast<std::size_t>(cols_) +
            static_cast<std::size_t>(cx);
        for (std::int32_t k = cell_start_[cell]; k < cell_start_[cell + 1];
             ++k) {
          fn(static_cast<std::size_t>(ids_[static_cast<std::size_t>(k)]));
        }
      }
    }
  }

 private:
  /// Column / row clamped into the grid (clamp.hpp): out-of-bounds and
  /// non-finite queries and points land in the edge cells; the caller's
  /// exact test rejects any false candidates this produces.
  [[nodiscard]] int col_of(double x) const {
    return clamped_cell((x - min_x_) * inv_cell_, cols_);
  }
  [[nodiscard]] int row_of(double y) const {
    return clamped_cell((y - min_y_) * inv_cell_, rows_);
  }

  double min_x_ = 0.0;
  double min_y_ = 0.0;
  double inv_cell_ = 0.0;
  int cols_ = 0;
  int rows_ = 0;
  std::vector<std::int32_t> cell_start_;  ///< CSR offsets, cols*rows + 1.
  std::vector<std::int32_t> ids_;         ///< Inserted ids, grouped by cell.
  std::vector<std::int32_t> cursor_;      ///< Build scratch.
};

}  // namespace atm::core::spatial
