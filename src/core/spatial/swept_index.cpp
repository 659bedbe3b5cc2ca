#include "src/core/spatial/swept_index.hpp"

#include <algorithm>
#include <cmath>

#include "src/core/check.hpp"
#include "src/core/spatial/clamp.hpp"

namespace atm::core::spatial {

void SweptIndex::build(std::span<const double> x, std::span<const double> y,
                       std::span<const double> dx, std::span<const double> dy,
                       std::span<const double> alt,
                       const SweptIndexParams& params) {
  const std::size_t n = x.size();
  ATM_CHECK_MSG(y.size() == n && dx.size() == n && dy.size() == n &&
                    alt.size() == n,
                "span length mismatch: x=" << n << " y=" << y.size()
                                           << " dx=" << dx.size() << " dy="
                                           << dy.size() << " alt="
                                           << alt.size());
  ATM_CHECK_MSG(params.band_nm >= 0.0 && params.horizon_periods >= 0.0,
                "negative sweep: band_nm=" << params.band_nm
                                           << " horizon_periods="
                                           << params.horizon_periods);
  band_ = params.band_nm;
  horizon_ = params.horizon_periods;
  if (n == 0) {
    ids_.clear();
    cell_start_.assign(1, 0);
    cols_ = rows_ = slabs_ = 0;
    max_speed_ = 0.0;
    return;
  }

  // Bounds over the finite coordinates only: a NaN or infinite one clamps
  // into an edge bucket instead of stretching the grid. An infinite speed
  // is kept — it widens every query to the whole grid, which stays exact
  // — and only a NaN speed, outside the contract anyway, is skipped.
  FiniteRange range_x, range_y, range_alt;
  double speed_sum = 0.0;
  std::size_t speeds = 0;
  max_speed_ = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    range_x.add(x[i]);
    range_y.add(y[i]);
    range_alt.add(alt[i]);
    const double speed = std::sqrt(dx[i] * dx[i] + dy[i] * dy[i]);
    if (std::isnan(speed)) continue;
    speed_sum += speed;
    ++speeds;
    max_speed_ = std::max(max_speed_, speed);
  }
  const double min_x = range_x.min(), max_x = range_x.max();
  const double min_y = range_y.min(), max_y = range_y.max();
  const double min_alt = range_alt.min(), max_alt = range_alt.max();
  min_x_ = min_x;
  min_y_ = min_y;
  min_alt_ = min_alt;

  // Altitude slabs, one gate-width tall. A non-positive gate degenerates
  // to a single slab (no altitude pruning, still exact). The slab count
  // is capped at kMaxSlabs — the top slab then absorbs everything above;
  // clamping is monotone and moves no pair more than one slab apart, so
  // the adjacent-slab query stays exact.
  if (params.altitude_gate_feet > 0.0) {
    inv_slab_ = 1.0 / params.altitude_gate_feet;
    slabs_ = cells_covering((max_alt - min_alt) * inv_slab_, kMaxSlabs);
  } else {
    inv_slab_ = 0.0;
    slabs_ = 1;
  }

  // xy cells sized to the *typical* query radius, so a typical query
  // touches O(1) cells; when the sweep saturates the field the grid
  // collapses to 1x1 and the slabs carry all the pruning.
  const double extent = std::max(max_x - min_x, max_y - min_y);
  const double mean_speed =
      speeds > 0 ? speed_sum / static_cast<double>(speeds) : 0.0;
  const double typical_reach =
      band_ + (mean_speed + max_speed_) * horizon_;
  const int max_cells = std::max(1, params.max_cells_per_axis);
  double cell = std::max(typical_reach,
                         extent / static_cast<double>(max_cells));
  cell = std::max(cell, 1e-9);
  inv_cell_ = 1.0 / cell;
  cols_ = cells_covering((max_x - min_x) * inv_cell_, max_cells + 1);
  rows_ = cells_covering((max_y - min_y) * inv_cell_, max_cells + 1);

  // Slab-bounds contract: the highest altitude (and the farthest xy
  // corner) must clamp into the top bucket, or cell_of below indexes past
  // the CSR table.
  ATM_CHECK_MSG(slab_of(max_alt) < slabs_ && col_of(max_x) < cols_ &&
                    row_of(max_y) < rows_,
                "clamp overflow: slabs=" << slabs_ << " cols=" << cols_
                                         << " rows=" << rows_
                                         << " max_alt=" << max_alt);
  const std::size_t cells = static_cast<std::size_t>(slabs_) *
                            static_cast<std::size_t>(cols_) *
                            static_cast<std::size_t>(rows_);
  const std::size_t slab_stride =
      static_cast<std::size_t>(cols_) * static_cast<std::size_t>(rows_);
  const auto cell_of = [&](std::size_t i) {
    return static_cast<std::size_t>(slab_of(alt[i])) * slab_stride +
           static_cast<std::size_t>(row_of(y[i])) *
               static_cast<std::size_t>(cols_) +
           static_cast<std::size_t>(col_of(x[i]));
  };

  cell_start_.assign(cells + 1, 0);
  for (std::size_t i = 0; i < n; ++i) ++cell_start_[cell_of(i) + 1];
  for (std::size_t c = 0; c < cells; ++c) {
    cell_start_[c + 1] += cell_start_[c];
  }
  cursor_.assign(cell_start_.begin(), cell_start_.end() - 1);
  ids_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    ids_[static_cast<std::size_t>(cursor_[cell_of(i)]++)] =
        static_cast<std::int32_t>(i);
  }
  ATM_CHECK_MSG(static_cast<std::size_t>(cell_start_[cells]) == n,
                "CSR total " << cell_start_[cells] << " != aircraft " << n);
}

}  // namespace atm::core::spatial
