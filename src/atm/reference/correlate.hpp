// Reference (sequential) implementation of Task 1: radar correlation and
// tracking (paper Section 5.1, Algorithm 1).
//
// Every platform backend implements the same *order-independent* semantics
// reproduced here, so backend results can be compared bit-for-bit:
//
//  pass k (box half-extent = 0.5 nm * 2^k, k = 0..retries):
//    * consider "active" radars (rMatchWith == -1) against "eligible"
//      aircraft (rMatch == 0);
//    * an active radar whose box covers >= 2 eligible aircraft is
//      discarded (rMatchWith = -2);
//    * an eligible aircraft covered by >= 2 active radars becomes
//      ambiguous (rMatch = -1) and keeps its expected position;
//    * a radar covering exactly one aircraft that is covered by exactly
//      one radar is a correlation: rMatch = 1, rMatchWith = aircraft id;
//    * a radar covering exactly one aircraft that turned ambiguous keeps
//      the aircraft id (it is spent, matching the paper's behaviour of
//      not retrying such radars) but will fail the commit check;
//    * the next pass runs only if unmatched radars remain.
//
//  commit: a correlated aircraft takes its radar's measured position; all
//  other aircraft take their expected position (x + dx, y + dy).
//
// This is the count-based reading of Algorithm 1: the paper's CUDA kernel
// reaches the same states through first-writer-wins updates plus explicit
// un-matching; counting hits per radar and radars per aircraft yields those
// final states without depending on thread execution order.
#pragma once

#include "src/airfield/flight_db.hpp"
#include "src/airfield/radar.hpp"
#include "src/atm/task_types.hpp"
#include "src/core/kern/soa_snapshot.hpp"
#include "src/core/spatial/uniform_grid.hpp"

namespace atm::tasks::reference {

/// Scratch space for one Task 1 run; reusable across periods to avoid
/// re-allocating (the paper's program allocates once up front).
struct Task1Scratch {
  /// Expected positions, aligned for the batch box kernels.
  core::kern::AlignedVector<double> ex, ey;
  std::vector<std::int32_t> nhits;       ///< Eligible aircraft per radar.
  std::vector<std::int32_t> hit_id;      ///< Sole hit of a radar.
  std::vector<std::int32_t> nradars;     ///< Active radars per aircraft.
  std::vector<std::int32_t> amatch;      ///< Radar committed to aircraft.
  std::vector<std::uint8_t> eligible;    ///< Mask: rmatch == kUnmatched.
  std::vector<std::int32_t> cand;        ///< Grid-mode candidate gather.
  std::vector<std::int32_t> hits;        ///< Kernel hit output (<= n).
  core::spatial::UniformGrid2D grid;     ///< Broadphase bins (kGrid mode).
  /// nhits/hit_id are per-radar; everything else is per-aircraft. The
  /// counts can differ (dropouts, multi-return frames).
  void resize(std::size_t aircraft, std::size_t radars);
};

/// Task 1's outcome, read off the final correlation state: the one tally
/// every Task 1 path reports, after `passes` passes. `matched` (and
/// `updated_aircraft`) counts the kMatched aircraft: every path commits
/// the radar's position exactly to those.
Task1Outcome task1_outcome(const airfield::FlightDb& db,
                           const airfield::RadarFrame& frame, int passes);

/// Run Task 1 on `db` against `frame`, updating both in place. Consumes
/// and fills `scratch`. Returns the run's counters (modeled platform time
/// is the backends' job; the reference is the semantic golden).
Task1Stats correlate_and_track(airfield::FlightDb& db,
                               airfield::RadarFrame& frame,
                               Task1Scratch& scratch,
                               const Task1Params& params = {});

/// Convenience overload with throwaway scratch.
Task1Stats correlate_and_track(airfield::FlightDb& db,
                               airfield::RadarFrame& frame,
                               const Task1Params& params = {});

}  // namespace atm::tasks::reference
