#include "src/core/spatial/uniform_grid.hpp"

#include <algorithm>
#include <cmath>

#include "src/core/check.hpp"

namespace atm::core::spatial {

void UniformGrid2D::build(std::span<const double> xs,
                          std::span<const double> ys,
                          std::span<const std::uint8_t> mask,
                          double cell_hint_nm, int max_cells_per_axis) {
  const std::size_t n = xs.size();
  const auto included = [&](std::size_t i) {
    return mask.empty() || mask[i] != 0;
  };

  // Bounds over the inserted points' finite coordinates.
  bool any = false;
  FiniteRange rx, ry;
  for (std::size_t i = 0; i < n; ++i) {
    if (!included(i)) continue;
    any = true;
    rx.add(xs[i]);
    ry.add(ys[i]);
  }
  if (!any) {
    ids_.clear();
    cell_start_.assign(1, 0);
    cols_ = rows_ = 0;
    return;
  }

  const double extent = std::max(rx.max() - rx.min(), ry.max() - ry.min());
  double cell = std::max(cell_hint_nm, 1e-9);
  if (max_cells_per_axis < 1) max_cells_per_axis = 1;
  cell = std::max(cell, extent / static_cast<double>(max_cells_per_axis));
  min_x_ = rx.min();
  min_y_ = ry.min();
  inv_cell_ = 1.0 / cell;
  cols_ = cells_covering((rx.max() - rx.min()) * inv_cell_,
                         max_cells_per_axis + 1);
  rows_ = cells_covering((ry.max() - ry.min()) * inv_cell_,
                         max_cells_per_axis + 1);
  // Clamping contract: every inserted point must land inside the grid, or
  // the CSR placement below writes out of bounds.
  ATM_CHECK_MSG(col_of(rx.max()) < cols_ && row_of(ry.max()) < rows_,
                "clamp overflow: cols=" << cols_ << " rows=" << rows_
                                        << " inv_cell=" << inv_cell_);

  // CSR counting sort: count per cell, prefix-sum, place.
  const std::size_t cells =
      static_cast<std::size_t>(cols_) * static_cast<std::size_t>(rows_);
  cell_start_.assign(cells + 1, 0);
  for (std::size_t i = 0; i < n; ++i) {
    if (!included(i)) continue;
    const std::size_t cell_idx =
        static_cast<std::size_t>(row_of(ys[i])) *
            static_cast<std::size_t>(cols_) +
        static_cast<std::size_t>(col_of(xs[i]));
    ++cell_start_[cell_idx + 1];
  }
  for (std::size_t c = 0; c < cells; ++c) {
    cell_start_[c + 1] += cell_start_[c];
  }
  cursor_.assign(cell_start_.begin(), cell_start_.end() - 1);
  ids_.resize(static_cast<std::size_t>(cell_start_[cells]));
  for (std::size_t i = 0; i < n; ++i) {
    if (!included(i)) continue;
    const std::size_t cell_idx =
        static_cast<std::size_t>(row_of(ys[i])) *
            static_cast<std::size_t>(cols_) +
        static_cast<std::size_t>(col_of(xs[i]));
    ATM_ASSERT_MSG(cursor_[cell_idx] < cell_start_[cell_idx + 1],
                   "CSR cursor overran cell " << cell_idx);
    ids_[static_cast<std::size_t>(cursor_[cell_idx]++)] =
        static_cast<std::int32_t>(i);
  }
  // Counting sort postcondition: every inserted id was placed exactly once.
  ATM_CHECK_MSG(static_cast<std::size_t>(cell_start_[cells]) == ids_.size(),
                "CSR total " << cell_start_[cells] << " != placed "
                             << ids_.size());
}

}  // namespace atm::core::spatial
