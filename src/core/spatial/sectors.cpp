#include "src/core/spatial/sectors.hpp"

#include <algorithm>
#include <cmath>

#include "src/core/check.hpp"

namespace atm::core::spatial {

std::string_view to_string(ShardMode mode) {
  switch (mode) {
    case ShardMode::kNone:
      return "none";
    case ShardMode::kSectors:
      return "sectors";
  }
  return "?";
}

std::optional<ShardMode> parse_shard_mode(std::string_view name) {
  if (name == "none") return ShardMode::kNone;
  if (name == "sectors") return ShardMode::kSectors;
  return std::nullopt;
}

void SectorPartition::build(std::span<const double> xs,
                            std::span<const double> ys,
                            std::span<const std::uint8_t> mask,
                            double halo_reach_nm, int sectors_per_axis) {
  const std::size_t n = xs.size();
  ATM_CHECK_MSG(ys.size() == n && (mask.empty() || mask.size() == n),
                "mismatched spans: xs=" << n << " ys=" << ys.size()
                                        << " mask=" << mask.size());
  ATM_CHECK_MSG(sectors_per_axis >= 1 && std::isfinite(halo_reach_nm) &&
                    halo_reach_nm >= 0.0,
                "degenerate partition params: sectors_per_axis="
                    << sectors_per_axis << " halo_reach_nm="
                    << halo_reach_nm);
  axis_ = sectors_per_axis;
  reach_ = halo_reach_nm;

  const auto inserted = [&](std::size_t i) {
    return mask.empty() || mask[i] != 0;
  };

  owner_.assign(n, -1);
  const std::size_t sectors = sector_count();
  owned_start_.assign(sectors + 1, 0);
  cand_start_.assign(sectors + 1, 0);
  owned_ids_.clear();
  cand_ids_.clear();

  // Bounds from the inserted points' finite coordinates (clamping makes
  // any query valid).
  FiniteRange range_x, range_y;
  std::size_t masked_in = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (!inserted(i)) continue;
    ++masked_in;
    range_x.add(xs[i]);
    range_y.add(ys[i]);
  }
  min_x_ = range_x.min();
  min_y_ = range_y.min();
  if (masked_in == 0) {
    inv_cell_x_ = inv_cell_y_ = 0.0;
    return;
  }
  const double span_x = range_x.max() - range_x.min();
  const double span_y = range_y.max() - range_y.min();
  inv_cell_x_ = span_x > 0.0 ? static_cast<double>(axis_) / span_x : 0.0;
  inv_cell_y_ = span_y > 0.0 ? static_cast<double>(axis_) / span_y : 0.0;

  // Count pass: one owner per point, one candidate entry per sector whose
  // rectangle lies within `reach` per axis (computed through the same
  // clamped cell map the queries use, so coverage is by construction).
  for (std::size_t i = 0; i < n; ++i) {
    if (!inserted(i)) continue;
    const int oc = col_of(xs[i]);
    const int orow = row_of(ys[i]);
    owner_[i] = orow * axis_ + oc;
    ++owned_start_[static_cast<std::size_t>(owner_[i]) + 1];
    const int c0 = col_of(xs[i] - reach_);
    const int c1 = col_of(xs[i] + reach_);
    const int r0 = row_of(ys[i] - reach_);
    const int r1 = row_of(ys[i] + reach_);
    // Contract: the halo range always covers the owner sector (clamped
    // cell maps are monotone); a violation means the geometry is corrupt
    // and per-sector scans would silently drop pairs.
    ATM_CHECK_MSG(c0 <= oc && oc <= c1 && r0 <= orow && orow <= r1,
                  "halo range lost the owner sector: i=" << i << " owner=("
                      << oc << "," << orow << ") cols=[" << c0 << "," << c1
                      << "] rows=[" << r0 << "," << r1 << "]");
    for (int r = r0; r <= r1; ++r) {
      for (int c = c0; c <= c1; ++c) {
        ++cand_start_[static_cast<std::size_t>(r * axis_ + c) + 1];
      }
    }
  }
  for (std::size_t s = 0; s < sectors; ++s) {
    owned_start_[s + 1] += owned_start_[s];
    cand_start_[s + 1] += cand_start_[s];
  }
  owned_ids_.resize(static_cast<std::size_t>(owned_start_[sectors]));
  cand_ids_.resize(static_cast<std::size_t>(cand_start_[sectors]));

  // Fill pass.
  cursor_.assign(owned_start_.begin(), owned_start_.end() - 1);
  std::vector<std::int32_t>& owned_cursor = cursor_;
  for (std::size_t i = 0; i < n; ++i) {
    if (owner_[i] < 0) continue;
    const auto s = static_cast<std::size_t>(owner_[i]);
    owned_ids_[static_cast<std::size_t>(owned_cursor[s]++)] =
        static_cast<std::int32_t>(i);
  }
  cursor_.assign(cand_start_.begin(), cand_start_.end() - 1);
  for (std::size_t i = 0; i < n; ++i) {
    if (owner_[i] < 0) continue;
    const int c0 = col_of(xs[i] - reach_);
    const int c1 = col_of(xs[i] + reach_);
    const int r0 = row_of(ys[i] - reach_);
    const int r1 = row_of(ys[i] + reach_);
    for (int r = r0; r <= r1; ++r) {
      for (int c = c0; c <= c1; ++c) {
        const auto s = static_cast<std::size_t>(r * axis_ + c);
        cand_ids_[static_cast<std::size_t>(cursor_[s]++)] =
            static_cast<std::int32_t>(i);
      }
    }
  }

  // Contract: every inserted point landed in exactly one owner list and
  // both CSR fills consumed exactly their counted slots.
  ATM_CHECK_MSG(owned_ids_.size() == masked_in,
                "owner lists lost aircraft: owned=" << owned_ids_.size()
                                                    << " inserted="
                                                    << masked_in);
  for (std::size_t s = 0; s < sectors; ++s) {
    ATM_CHECK_MSG(cursor_[s] == cand_start_[s + 1],
                  "candidate CSR fill diverged in sector " << s);
  }
}

bool SectorPartition::covers(double px, double py,
                             std::span<const double> xs,
                             std::span<const double> ys) const {
  const auto s = static_cast<std::size_t>(sector_of(px, py));
  std::vector<std::uint8_t> in_cand(owner_.size(), 0);
  for (const std::int32_t id : candidates(s)) {
    in_cand[static_cast<std::size_t>(id)] = 1;
  }
  for (std::size_t q = 0; q < owner_.size(); ++q) {
    if (owner_[q] < 0) continue;
    if (std::fabs(xs[q] - px) <= reach_ && std::fabs(ys[q] - py) <= reach_ &&
        !in_cand[q]) {
      return false;
    }
  }
  return true;
}

}  // namespace atm::core::spatial
