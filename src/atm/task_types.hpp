// Parameter and statistics types shared by every backend's task
// implementations.
#pragma once

#include <cmath>
#include <cstdint>
#include <ostream>

#include "src/airfield/flight_db.hpp"
#include "src/core/check.hpp"
#include "src/core/kern/kernels.hpp"
#include "src/core/spatial/broadphase.hpp"
#include "src/core/spatial/sectors.hpp"
#include "src/core/units.hpp"

namespace atm::tasks {

/// Task 1 (tracking & correlation) parameters; defaults are the paper's.
struct Task1Params {
  /// Half-extent of the initial bounding box (0.5 nm => a 1 x 1 nm box).
  double box_half_nm = core::kCorrelationBoxHalfNm;
  /// How many times the box is doubled for unmatched radars (paper: 2).
  int retries = core::kCorrelationRetries;
  /// Candidate enumeration on the host paths (reference, MIMD/Xeon):
  /// kGrid bins expected positions into a uniform grid and queries only
  /// the cells overlapping each radar's box. Outcomes are identical to
  /// brute force by construction; only `box_tests` differs. Platform
  /// backends that model fixed all-pairs hardware (CUDA, STARAN,
  /// ClearSpeed, SIMD) ignore this field.
  core::spatial::BroadphaseMode broadphase =
      core::spatial::BroadphaseMode::kBruteForce;
  /// Sector sharding on the host paths: kSectors partitions the airfield
  /// into sectors_per_axis^2 sectors per pass and runs each sector's
  /// radar scan as an independent thread-pool task over its candidate
  /// (owned + halo) set. Outcomes are identical to the monolithic scan
  /// by construction (see src/core/spatial/sectors.hpp); composes with
  /// `broadphase`, which then prunes inside each sector. Platform
  /// backends modeling fixed all-pairs hardware ignore this field.
  core::spatial::ShardMode shard = core::spatial::ShardMode::kNone;
  int sectors_per_axis = 4;
  /// Batch-kernel selection for the host paths' box tests: kAuto picks
  /// AVX2 when the build and the CPU provide it, scalar otherwise.
  /// Outcomes are bit-identical either way (docs/PERF.md). Platform
  /// backends ignore this field.
  core::kern::KernelMode kernel = core::kern::KernelMode::kAuto;
};

/// Tasks 2+3 (collision detection & resolution) parameters.
struct Task23Params {
  double horizon_periods = core::kLookAheadPeriods;
  double critical_periods = core::kCriticalTimePeriods;
  double band_nm = core::kBatcherBandNm;
  double altitude_gate_feet = core::kAltitudeGateFeet;
  double turn_step_deg = core::kResolveStepDegrees;
  double turn_max_deg = core::kResolveMaxDegrees;
  /// Candidate enumeration on the host paths (reference, MIMD/Xeon):
  /// kGrid prunes pairs through the swept index (altitude slabs + a
  /// velocity-x-horizon expanded cell query) before the altitude gate and
  /// Batcher test. Outcomes are identical to brute force by construction;
  /// only `pair_candidates` (and the early-exit tail of `pair_tests`)
  /// differ. Platform backends modeling all-pairs hardware ignore this.
  core::spatial::BroadphaseMode broadphase =
      core::spatial::BroadphaseMode::kBruteForce;
  /// Sector sharding on the host paths: kSectors partitions the airfield
  /// into sectors_per_axis^2 sectors with halos, but only for the MIMD
  /// model's charge and the per-sector trace counters — the scans run on
  /// the one shared region of the unsharded path (sharded.hpp), so
  /// outcomes are identical to it. Platform backends modeling all-pairs
  /// hardware ignore this field.
  core::spatial::ShardMode shard = core::spatial::ShardMode::kNone;
  int sectors_per_axis = 4;
  /// Batch-kernel selection for the host paths' band-intersection scans:
  /// kAuto picks AVX2 when the build and the CPU provide it, scalar
  /// otherwise. Outcomes are bit-identical either way (docs/PERF.md).
  /// Platform backends ignore this field.
  core::kern::KernelMode kernel = core::kern::KernelMode::kAuto;
};

/// Largest Task1Params::retries: pass k's box is box_half_nm * (1 << k),
/// and 1 << 30 is the last such factor an int holds.
inline constexpr int kMaxCorrelationRetries = 30;

/// Largest sectors_per_axis of Task1Params and Task23Params. The executor
/// keeps about 0.6 KB of scratch per sector, so 256^2 sectors come to
/// about 40 MB; sector ids (row * axis + col) stay far inside an int.
inline constexpr int kMaxShardSectorsPerAxis = 256;

/// Task 1's parameter contract, checked on entry to every correlation
/// path: a positive box (NaN fails), 0 <= retries <=
/// kMaxCorrelationRetries and 1 <= sectors_per_axis <=
/// kMaxShardSectorsPerAxis, whatever the shard mode (the governor can
/// turn sharding on mid-run). Aborts through ATM_CHECK otherwise.
inline void check_task1_params(const Task1Params& params) {
  ATM_CHECK_MSG(params.box_half_nm > 0.0 && params.retries >= 0 &&
                    params.retries <= kMaxCorrelationRetries &&
                    params.sectors_per_axis >= 1 &&
                    params.sectors_per_axis <= kMaxShardSectorsPerAxis,
                "Task1Params out of range: box_half_nm="
                    << params.box_half_nm << " retries=" << params.retries
                    << " sectors_per_axis=" << params.sectors_per_axis);
}

/// Largest turn_max_deg / turn_step_deg: at most 360 trial rotations.
inline constexpr double kMaxTrialSteps = 180.0;

/// Tasks 2+3's parameter contract, checked on entry to every collision
/// path: a positive altitude gate, band and horizon (NaN fails each); a
/// finite turn step > 0, a turn maximum in (0, 180] degrees, and at most
/// kMaxTrialSteps steps to it, so the trial count (2 * floor(max / step))
/// is a small int; and 1 <= sectors_per_axis <= kMaxShardSectorsPerAxis,
/// whatever the shard mode. Aborts through ATM_CHECK otherwise.
///
/// The gate bound keeps every aircraft inside its own gate (|0| < gate),
/// which the host scans' counters assume (reference/collision.hpp), and
/// the band and horizon bounds are the band kernel's own, checked here
/// because a scan that reads no lane never calls it.
inline void check_task23_params(const Task23Params& params) {
  ATM_CHECK_MSG(params.altitude_gate_feet > 0.0 && params.band_nm > 0.0 &&
                    params.horizon_periods > 0.0 &&
                    params.turn_step_deg > 0.0 &&
                    std::isfinite(params.turn_step_deg) &&
                    params.turn_max_deg > 0.0 &&
                    params.turn_max_deg <= 180.0 &&
                    params.turn_max_deg / params.turn_step_deg <=
                        kMaxTrialSteps &&
                    params.sectors_per_axis >= 1 &&
                    params.sectors_per_axis <= kMaxShardSectorsPerAxis,
                "Task23Params out of range: turn_step_deg="
                    << params.turn_step_deg
                    << " turn_max_deg=" << params.turn_max_deg
                    << " sectors_per_axis=" << params.sectors_per_axis
                    << " altitude_gate_feet=" << params.altitude_gate_feet
                    << " band_nm=" << params.band_nm
                    << " horizon_periods=" << params.horizon_periods);
}

/// Tasks 2+3's state contract, checked wherever check_task23_params is:
/// every aircraft's x, y, dx, dy and alt are finite. A NaN passes every
/// pair test, but the sector partition clamps it into one edge sector,
/// so sharded and unsharded runs would disagree. Aborts through ATM_CHECK
/// otherwise.
inline void check_motion_finite(const airfield::FlightDb& db) {
  for (std::size_t i = 0; i < db.size(); ++i) {
    ATM_CHECK_MSG(std::isfinite(db.x[i]) && std::isfinite(db.y[i]) &&
                      std::isfinite(db.dx[i]) && std::isfinite(db.dy[i]) &&
                      std::isfinite(db.alt[i]),
                  "non-finite motion state: aircraft " << i);
  }
}

/// Prints `name=value` for every field `for_each` visits, space-separated;
/// the outcome types' operator<< (gtest failure text, oracle reports).
template <typename Outcome>
std::ostream& print_outcome(std::ostream& os, const Outcome& outcome) {
  const char* sep = "";
  for_each(outcome, [&](const char* name, auto value) {
    os << sep << name << '=' << value;
    sep = " ";
  });
  return os;
}

/// What one Task 1 run concluded. Every backend and every host strategy
/// reaches the same outcome for the same inputs; `==` on it is the one
/// definition of "same outcome". reference::task1_outcome computes it.
struct Task1Outcome {
  std::uint64_t radars = 0;
  std::uint64_t matched = 0;            ///< Radars committed to an aircraft.
  std::uint64_t discarded_radars = 0;   ///< rMatchWith set to -2.
  std::uint64_t unmatched_radars = 0;   ///< Still -1 after the final pass.
  std::uint64_t ambiguous_aircraft = 0; ///< rMatch set to -1.
  std::uint64_t updated_aircraft = 0;   ///< Position taken from a radar.
  int passes = 0;                       ///< Bounding-box passes run (1..3).

  friend bool operator==(const Task1Outcome&, const Task1Outcome&) = default;
};

/// Calls f(name, value) on every Task1Outcome field in declaration order.
/// The structured binding stops compiling when a field goes unvisited.
template <typename F>
void for_each(const Task1Outcome& outcome, F&& f) {
  const auto& [radars, matched, discarded_radars, unmatched_radars,
               ambiguous_aircraft, updated_aircraft, passes] = outcome;
  f("radars", radars);
  f("matched", matched);
  f("discarded_radars", discarded_radars);
  f("unmatched_radars", unmatched_radars);
  f("ambiguous_aircraft", ambiguous_aircraft);
  f("updated_aircraft", updated_aircraft);
  f("passes", passes);
}

inline std::ostream& operator<<(std::ostream& os, const Task1Outcome& o) {
  return print_outcome(os, o);
}

/// The work one Task 1 run did; it differs by backend and host strategy.
struct Task1Work {
  std::uint64_t box_tests = 0;  ///< Bounding-box membership tests executed.
  int sectors = 0;              ///< Sectors the run sharded into
                                ///< (0 = unsharded).
  std::uint64_t halo_candidates = 0;  ///< Ghost entries the sector halos
                                      ///< added across all passes.
  int kernel = -1;  ///< Dispatched kern::Kernel as int (-1 = the run did
                    ///< not use the batch kernels, e.g. a platform
                    ///< backend).
  std::uint64_t lanes_masked = 0;  ///< SIMD tail lanes masked off (0 under
                                   ///< the scalar kernel).

  friend bool operator==(const Task1Work&, const Task1Work&) = default;
};

/// One Task 1 run's counters: its outcome and its work.
struct Task1Stats : Task1Outcome, Task1Work {
  [[nodiscard]] const Task1Outcome& outcome() const { return *this; }

  friend bool operator==(const Task1Stats&, const Task1Stats&) = default;
};

/// What one Tasks 2+3 run concluded; `==` on it is the one definition of
/// "same outcome".
struct Task23Outcome {
  std::uint64_t aircraft = 0;
  std::uint64_t conflicts = 0;   ///< Aircraft with any conflict in horizon.
  std::uint64_t critical = 0;    ///< Aircraft with time_min < 300 periods.
  std::uint64_t resolved = 0;    ///< Critical aircraft given a new path.
  std::uint64_t unresolved = 0;  ///< No trial angle was conflict-free.

  friend bool operator==(const Task23Outcome&,
                         const Task23Outcome&) = default;
};

/// Calls f(name, value) on every Task23Outcome field in declaration order.
template <typename F>
void for_each(const Task23Outcome& outcome, F&& f) {
  const auto& [aircraft, conflicts, critical, resolved, unresolved] = outcome;
  f("aircraft", aircraft);
  f("conflicts", conflicts);
  f("critical", critical);
  f("resolved", resolved);
  f("unresolved", unresolved);
}

inline std::ostream& operator<<(std::ostream& os, const Task23Outcome& o) {
  return print_outcome(os, o);
}

/// The work one Tasks 2+3 run did; it differs by backend and host
/// strategy.
struct Task23Work {
  std::uint64_t pair_tests = 0;  ///< Batcher pair tests executed.
  std::uint64_t pair_candidates = 0;  ///< Pairs enumerated before the
                                      ///< altitude gate (broadphase output;
                                      ///< n-1 per scan under brute force).
  std::uint64_t rescans = 0;     ///< Full trial-path re-checks.
  int sectors = 0;               ///< Sectors the run sharded into
                                 ///< (0 = unsharded).
  std::uint64_t halo_candidates = 0;  ///< Ghost entries the sector halos
                                      ///< added.
  int kernel = -1;  ///< Dispatched kern::Kernel as int (-1 = the run did
                    ///< not use the batch kernels, e.g. a platform
                    ///< backend).
  std::uint64_t lanes_masked = 0;  ///< SIMD tail lanes masked off (0 under
                                   ///< the scalar kernel).

  friend bool operator==(const Task23Work&, const Task23Work&) = default;
};

/// One Tasks 2+3 run's counters: its outcome and its work.
struct Task23Stats : Task23Outcome, Task23Work {
  [[nodiscard]] const Task23Outcome& outcome() const { return *this; }

  friend bool operator==(const Task23Stats&, const Task23Stats&) = default;
};

/// A task run's modeled platform time plus its counters.
struct Task1Result {
  double modeled_ms = 0.0;
  Task1Stats stats;
};

struct Task23Result {
  double modeled_ms = 0.0;
  Task23Stats stats;
};

}  // namespace atm::tasks
