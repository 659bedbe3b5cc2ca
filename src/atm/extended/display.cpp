#include "src/atm/extended/display.hpp"

#include <algorithm>

#include "src/core/units.hpp"

namespace atm::tasks::extended {

std::int32_t sector_of(double x, double y, int sectors_per_axis) {
  const double span = 2.0 * core::kGridHalfExtentNm;
  const double fx = (x + core::kGridHalfExtentNm) / span;
  const double fy = (y + core::kGridHalfExtentNm) / span;
  const int k = sectors_per_axis;
  const int cx = std::clamp(static_cast<int>(fx * k), 0, k - 1);
  const int cy = std::clamp(static_cast<int>(fy * k), 0, k - 1);
  return static_cast<std::int32_t>(cy * k + cx);
}

DisplayStats display_update(airfield::FlightDb& db,
                            std::vector<std::int32_t>& occupancy,
                            const DisplayParams& params) {
  check_display_params(params);
  DisplayStats stats;
  stats.aircraft = db.size();
  const int k = params.sectors_per_axis;
  occupancy.assign(static_cast<std::size_t>(k) * k, 0);

  for (std::size_t i = 0; i < db.size(); ++i) {
    const std::int32_t s = sector_of(db.x[i], db.y[i], k);
    if (db.sector[i] != airfield::kNone && db.sector[i] != s) {
      ++stats.handoffs;
    }
    db.sector[i] = s;
    ++occupancy[static_cast<std::size_t>(s)];
  }
  for (const std::int32_t count : occupancy) {
    if (count > 0) ++stats.occupied_sectors;
    stats.max_occupancy =
        std::max(stats.max_occupancy, static_cast<std::uint64_t>(count));
  }
  return stats;
}

}  // namespace atm::tasks::extended
