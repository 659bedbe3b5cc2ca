// Parameter and statistics types for the extended ("complete ATM system")
// task set — the paper's Section 7.2 future work, with task definitions
// following the basic ATM task list of [13]: terrain avoidance, controller
// display update, and automatic voice advisory, plus the multi-tower radar
// correlation of the unsimplified radar environment.
#pragma once

#include <cmath>
#include <cstdint>
#include <vector>

#include "src/atm/task_types.hpp"
#include "src/core/check.hpp"
#include "src/core/units.hpp"

namespace atm::tasks {

// --- Terrain avoidance (every major cycle) ---------------------------------

struct TerrainTaskParams {
  /// Look-ahead along the current path, in periods (2 minutes).
  double horizon_periods = 240.0;
  /// Path sample points within the horizon.
  int samples = 16;
  /// Required ground clearance in feet.
  double clearance_feet = 1000.0;
  /// Extra altitude margin added when commanding a climb.
  double climb_buffer_feet = 500.0;
};

/// The terrain task's parameter contract, checked on entry to every
/// terrain path with check_motion_finite: a finite horizon >= 0 and a
/// finite clearance and climb buffer. A non-finite sample position would
/// reach TerrainMap::elevation_at's cell cast (NaN survives the clamp).
/// Aborts through ATM_CHECK otherwise.
inline void check_terrain_params(const TerrainTaskParams& params) {
  ATM_CHECK_MSG(params.horizon_periods >= 0.0 &&
                    std::isfinite(params.horizon_periods) &&
                    std::isfinite(params.clearance_feet) &&
                    std::isfinite(params.climb_buffer_feet),
                "TerrainTaskParams out of range: horizon_periods="
                    << params.horizon_periods
                    << " clearance_feet=" << params.clearance_feet
                    << " climb_buffer_feet=" << params.climb_buffer_feet);
}

struct TerrainStats {
  std::uint64_t aircraft = 0;
  std::uint64_t warnings = 0;  ///< Aircraft violating clearance ahead.
  std::uint64_t climbs = 0;    ///< Aircraft commanded to a higher level.
  std::uint64_t samples = 0;   ///< Work: terrain lookups performed.

  friend bool operator==(const TerrainStats&, const TerrainStats&) = default;
};

struct TerrainResult {
  double modeled_ms = 0.0;
  TerrainStats stats;
};

// --- Controller display update (every period) ------------------------------

struct DisplayParams {
  /// Sectors per axis over the airfield (16 => 16 nm sectors).
  int sectors_per_axis = 16;
};

/// Largest DisplayParams::sectors_per_axis: the k * k sector ids must fit
/// an int32 (46340^2 < 2^31).
inline constexpr int kMaxDisplaySectorsPerAxis = 46340;

/// The display's parameter contract, checked on entry to every display
/// path: 1 <= sectors_per_axis <= kMaxDisplaySectorsPerAxis. Aborts
/// through ATM_CHECK otherwise.
inline void check_display_params(const DisplayParams& params) {
  ATM_CHECK_MSG(params.sectors_per_axis >= 1 &&
                    params.sectors_per_axis <= kMaxDisplaySectorsPerAxis,
                "DisplayParams out of range: sectors_per_axis="
                    << params.sectors_per_axis);
}

struct DisplayStats {
  std::uint64_t aircraft = 0;
  std::uint64_t handoffs = 0;          ///< Aircraft that changed sector.
  std::uint64_t occupied_sectors = 0;  ///< Sectors with >= 1 aircraft.
  std::uint64_t max_occupancy = 0;     ///< Densest sector's count.

  friend bool operator==(const DisplayStats&, const DisplayStats&) = default;
};

struct DisplayResult {
  double modeled_ms = 0.0;
  DisplayStats stats;
};

// --- Automatic voice advisory (every 4 seconds) -----------------------------

struct AdvisoryParams {
  /// Aircraft closer than this to the field edge get a boundary advisory.
  double boundary_warn_nm = 8.0;
};

/// Advisory message categories, in queue order.
enum class AdvisoryType : std::int8_t {
  kConflict = 0,  ///< Collision flag raised by Tasks 2+3.
  kTerrain = 1,   ///< Terrain-avoidance warning active.
  kBoundary = 2,  ///< Approaching the edge of the controlled field.
};

struct Advisory {
  std::int32_t aircraft = -1;
  AdvisoryType type = AdvisoryType::kConflict;

  friend bool operator==(const Advisory&, const Advisory&) = default;
};

struct AdvisoryStats {
  std::uint64_t aircraft = 0;
  std::uint64_t conflict = 0;
  std::uint64_t terrain = 0;
  std::uint64_t boundary = 0;

  [[nodiscard]] std::uint64_t total() const {
    return conflict + terrain + boundary;
  }
  friend bool operator==(const AdvisoryStats&,
                         const AdvisoryStats&) = default;
};

struct AdvisoryResult {
  double modeled_ms = 0.0;
  AdvisoryStats stats;
  /// The voice queue, ordered by aircraft id then type (deterministic on
  /// every backend).
  std::vector<Advisory> queue;
};

// --- Sporadic requests (controller queries, random arrival) -----------------

/// Query kinds a controller can issue against the flight database.
enum class QueryKind : std::int8_t {
  kById = 0,     ///< Flight record of one aircraft.
  kInSector = 1, ///< All aircraft in a display sector.
  kNearPoint = 2 ///< All aircraft within a radius of a point.
};

struct Query {
  QueryKind kind = QueryKind::kById;
  std::int32_t id = -1;       ///< kById target.
  std::int32_t sector = -1;   ///< kInSector target.
  double x = 0.0, y = 0.0;    ///< kNearPoint centre (nm).
  double radius_nm = 20.0;    ///< kNearPoint radius.
};

struct SporadicParams {
  /// Queries arriving per batch (0 disables the task in the full system).
  int queries_per_batch = 4;
  /// Radius used when generating kNearPoint queries.
  double near_radius_nm = 20.0;
};

struct SporadicStats {
  std::uint64_t queries = 0;
  std::uint64_t hits = 0;  ///< Total aircraft returned across answers.

  friend bool operator==(const SporadicStats&,
                         const SporadicStats&) = default;
};

struct SporadicResult {
  double modeled_ms = 0.0;
  SporadicStats stats;
  /// Per-query answers: aircraft ids in ascending order (deterministic on
  /// every backend).
  std::vector<std::vector<std::int32_t>> answers;
};

// --- Multi-tower radar correlation ------------------------------------------

/// What one multi-tower Task 1 run concluded; `==` on it is the one
/// definition of "same outcome". extended::multi_outcome computes it.
struct MultiRadarOutcome {
  std::uint64_t returns = 0;           ///< Frame size.
  std::uint64_t matched_aircraft = 0;  ///< Aircraft that took a return.
  std::uint64_t redundant_returns = 0; ///< Covered by a better return.
  std::uint64_t discarded_returns = 0; ///< Ambiguous (covered 2+ aircraft).
  std::uint64_t unmatched_returns = 0;
  int passes = 0;

  friend bool operator==(const MultiRadarOutcome&,
                         const MultiRadarOutcome&) = default;
};

/// Calls f(name, value) on every MultiRadarOutcome field in declaration
/// order.
template <typename F>
void for_each(const MultiRadarOutcome& outcome, F&& f) {
  const auto& [returns, matched_aircraft, redundant_returns,
               discarded_returns, unmatched_returns, passes] = outcome;
  f("returns", returns);
  f("matched_aircraft", matched_aircraft);
  f("redundant_returns", redundant_returns);
  f("discarded_returns", discarded_returns);
  f("unmatched_returns", unmatched_returns);
  f("passes", passes);
}

inline std::ostream& operator<<(std::ostream& os,
                                const MultiRadarOutcome& o) {
  return print_outcome(os, o);
}

/// The work one multi-tower Task 1 run did (architecture-dependent).
struct MultiRadarWork {
  std::uint64_t box_tests = 0;

  friend bool operator==(const MultiRadarWork&,
                         const MultiRadarWork&) = default;
};

/// One multi-tower Task 1 run's counters: its outcome and its work.
struct MultiRadarStats : MultiRadarOutcome, MultiRadarWork {
  [[nodiscard]] const MultiRadarOutcome& outcome() const { return *this; }

  friend bool operator==(const MultiRadarStats&,
                         const MultiRadarStats&) = default;
};

struct MultiRadarResult {
  double modeled_ms = 0.0;
  MultiRadarStats stats;
};

}  // namespace atm::tasks
