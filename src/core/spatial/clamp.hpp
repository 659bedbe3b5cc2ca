// Coordinate -> cell clamping shared by the spatial indexes
// (UniformGrid2D, SweptIndex, SectorPartition).
//
// Every index maps a coordinate to an integer cell and clamps it into
// [0, cells - 1], so out-of-bounds queries and points land in the edge
// cells and the caller's exact test rejects whatever false candidates
// that produces. The comparison happens in double, *before* the cast:
// converting NaN, +-inf or a value beyond int range to int is undefined
// behaviour (INT_MIN on x86), and an INT_MIN cell indexes the CSR tables
// out of bounds. NaN goes to cell 0.
#pragma once

#include <algorithm>
#include <cmath>
#include <limits>

namespace atm::core::spatial {

/// Running [min, max] of the finite values added; NaN and +-inf are
/// skipped, so one malformed coordinate cannot stretch (or poison) an
/// index's bounds. Reads as [0, 0] until a finite value arrives.
class FiniteRange {
 public:
  void add(double v) {
    if (!std::isfinite(v)) return;
    lo_ = std::min(lo_, v);
    hi_ = std::max(hi_, v);
  }
  [[nodiscard]] double min() const { return lo_ <= hi_ ? lo_ : 0.0; }
  [[nodiscard]] double max() const { return lo_ <= hi_ ? hi_ : 0.0; }

 private:
  double lo_ = std::numeric_limits<double>::infinity();
  double hi_ = -std::numeric_limits<double>::infinity();
};

/// Cell of a coordinate already scaled to cell units, c = (v - origin) *
/// cells_per_unit, clamped into [0, cells - 1]; NaN -> 0. Monotone in c
/// (the sector halo proof relies on it). `cells` >= 1. The early returns
/// fire only at or below the first cell's origin, past the last cell, or
/// on NaN, so in-bounds points (the last cell included) take no
/// data-dependent branch — at 4 sectors per axis a quarter of all points
/// sit in the last cell, and a branch on them mispredicts.
[[nodiscard]] inline int clamped_cell(double c, int cells) {
  if (!(c > 0.0)) return 0;
  if (!(c < static_cast<double>(cells))) return cells - 1;
  return static_cast<int>(c);
}

/// Number of cells covering an extent of c cell units, clamped into
/// [1, max_cells]: a NaN or infinite extent (or an infinite cell, scale
/// 0) gives one cell instead of an undefined cast.
[[nodiscard]] inline int cells_covering(double c, int max_cells) {
  return clamped_cell(c, max_cells) + 1;
}

}  // namespace atm::core::spatial
