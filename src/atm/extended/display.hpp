// Controller display update — reference implementation.
//
// Every period the display processor bins aircraft into control sectors,
// detects sector handoffs (an aircraft crossing into a new controller's
// sector), and refreshes per-sector occupancy for the controller screens.
// In [13]'s task set this is the display-processing activity scheduled
// alongside tracking each half-second.
#pragma once

#include <vector>

#include "src/airfield/flight_db.hpp"
#include "src/atm/extended/ext_types.hpp"

namespace atm::tasks::extended {

/// Sector id of position (x, y) on a k x k grid over the airfield.
/// Pure function shared by all backends.
[[nodiscard]] std::int32_t sector_of(double x, double y,
                                     int sectors_per_axis);

/// Reference display update: assigns db.sector, counts handoffs, and
/// fills `occupancy` (resized to k*k) with per-sector aircraft counts.
/// `params` must meet check_display_params.
DisplayStats display_update(airfield::FlightDb& db,
                            std::vector<std::int32_t>& occupancy,
                            const DisplayParams& params = {});

}  // namespace atm::tasks::extended
