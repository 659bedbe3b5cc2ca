// Sector sharding for the ATM hot paths: an S x S partition of the
// airfield with per-sector halo (ghost) sets.
//
// The broadphase indexes in this directory prune *candidates* inside one
// monolithic scan; a SectorPartition instead splits the scan itself so
// each sector's work can run as an independent task (the per-shard
// self-scheduling style MIT LL used for aircraft-track processing).
// Every inserted point gets exactly one *owner* sector — the clamped
// cell its coordinates fall in — and additionally appears in the
// *candidate* list of every sector whose queries could need it: all
// sectors within `halo_reach_nm` per axis of the point.
//
// Exactness contract (the property the sector equivalence tests assert):
// for ANY query point p — inserted or not, in bounds or not — and any
// inserted point q with |p.x - q.x| <= reach and |p.y - q.y| <= reach,
// q is in candidates(sector_of(p)). The proof is monotonicity of the
// clamped cell map: q's candidate range spans col_of(q.x - reach) ..
// col_of(q.x + reach), and q.x - reach <= p.x <= q.x + reach implies
// col_of(p.x) lies inside it (same per row). So a per-sector scan of
// candidates(s) sees a superset of every exact match of every query
// owned by s, the caller re-applies its exact test, and outcomes are
// bit-identical to the unsharded scan; only work counters differ.
//
// The partition is immutable after build() and safe to read from many
// threads concurrently (the sharded executives query it from every
// worker).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "src/core/spatial/clamp.hpp"

namespace atm::core::spatial {

/// Whether a host task splits its scan into per-sector tasks.
enum class ShardMode {
  /// One monolithic scan (the paper's algorithm).
  kNone,
  /// Per-sector tasks over an S x S partition with halo sets.
  kSectors,
};

/// Stable short name: "none" | "sectors".
[[nodiscard]] std::string_view to_string(ShardMode mode);

/// Parse "none" / "sectors" (case-sensitive). Empty optional on anything
/// else.
[[nodiscard]] std::optional<ShardMode> parse_shard_mode(
    std::string_view name);

/// An S x S spatial partition with CSR-packed owner and candidate lists.
class SectorPartition {
 public:
  /// Rebuild from points (xs[i], ys[i]) for every i with mask[i] != 0 (an
  /// empty mask inserts all points). Bounds are taken from the inserted
  /// points' finite coordinates; out-of-range and non-finite coordinates
  /// clamp into the edge sectors (NaN into the first), like
  /// UniformGrid2D. Each inserted point is owned by exactly one sector
  /// and listed as a candidate of every sector within `halo_reach_nm`
  /// per axis. Buffers are reused across builds; O(n + sectors).
  void build(std::span<const double> xs, std::span<const double> ys,
             std::span<const std::uint8_t> mask, double halo_reach_nm,
             int sectors_per_axis);

  [[nodiscard]] bool empty() const { return owned_ids_.empty(); }
  /// Inserted (masked-in) points.
  [[nodiscard]] std::size_t size() const { return owned_ids_.size(); }
  [[nodiscard]] int sectors_per_axis() const { return axis_; }
  [[nodiscard]] std::size_t sector_count() const {
    return static_cast<std::size_t>(axis_) * static_cast<std::size_t>(axis_);
  }
  [[nodiscard]] double halo_reach_nm() const { return reach_; }

  /// The clamped sector of an arbitrary coordinate (valid even for points
  /// that were not inserted — Task 1 maps radar returns through this).
  [[nodiscard]] int sector_of(double x, double y) const {
    return row_of(y) * axis_ + col_of(x);
  }

  /// Owner sector of inserted point i; -1 if i was masked out.
  [[nodiscard]] int owner_of(std::size_t i) const { return owner_[i]; }

  /// Ids owned by sector s (disjoint across sectors; union = inserted).
  [[nodiscard]] std::span<const std::int32_t> owned(std::size_t s) const {
    return {owned_ids_.data() + owned_start_[s],
            static_cast<std::size_t>(owned_start_[s + 1] - owned_start_[s])};
  }

  /// Ids a scan owned by sector s must consider: owned(s) plus the halo
  /// (each id appears at most once per sector).
  [[nodiscard]] std::span<const std::int32_t> candidates(
      std::size_t s) const {
    return {cand_ids_.data() + cand_start_[s],
            static_cast<std::size_t>(cand_start_[s + 1] - cand_start_[s])};
  }

  /// Sum of candidate-list sizes minus the inserted count: how many ghost
  /// copies the halos added (the shard handoff cost).
  [[nodiscard]] std::uint64_t halo_total() const {
    return cand_ids_.size() - owned_ids_.size();
  }
  [[nodiscard]] std::uint64_t candidate_total() const {
    return cand_ids_.size();
  }

  /// Debug oracle for the exactness contract: true iff every inserted
  /// point within `halo_reach_nm` per axis of (px, py) is listed in
  /// candidates(sector_of(px, py)). O(n + candidates); for ATM_ASSERT
  /// and the halo unit tests, not for hot paths.
  [[nodiscard]] bool covers(double px, double py,
                            std::span<const double> xs,
                            std::span<const double> ys) const;

 private:
  [[nodiscard]] int col_of(double x) const {
    return clamped_cell((x - min_x_) * inv_cell_x_, axis_);
  }
  [[nodiscard]] int row_of(double y) const {
    return clamped_cell((y - min_y_) * inv_cell_y_, axis_);
  }

  double min_x_ = 0.0, min_y_ = 0.0;
  double inv_cell_x_ = 0.0, inv_cell_y_ = 0.0;
  double reach_ = 0.0;
  int axis_ = 1;
  std::vector<std::int32_t> owner_;        ///< Per input index; -1 masked out.
  std::vector<std::int32_t> owned_start_;  ///< CSR offsets, sectors + 1.
  std::vector<std::int32_t> owned_ids_;
  std::vector<std::int32_t> cand_start_;   ///< CSR offsets, sectors + 1.
  std::vector<std::int32_t> cand_ids_;
  std::vector<std::int32_t> cursor_;       ///< Build scratch.
};

}  // namespace atm::core::spatial
