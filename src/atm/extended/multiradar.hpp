// Multi-tower radar correlation — the unsimplified Task 1.
//
// With 2-6 towers seeing each aircraft, a period's frame carries several
// returns per aircraft and the paper's single-return rules no longer
// apply: an aircraft covered by multiple returns is not ambiguous — it is
// well-observed, and correlation should keep the *best* return and mark
// the rest redundant. Order-independent semantics shared by all backends:
//
//  pass k (box half-extent doubling as in the base Task 1):
//    * a return whose box covers >= 2 eligible aircraft is ambiguous and
//      discarded (rMatchWith = -2), exactly as in the base task;
//    * an eligible aircraft's *candidate set* is the active single-hit
//      returns covering it; if non-empty, the candidate with the smallest
//      squared distance to the aircraft's expected position (ties to the
//      lowest return index) wins: aircraft matched, return committed;
//      losing candidates are marked redundant (rMatchWith = -3);
//    * further passes only look at still-unmatched returns and aircraft.
//
//  commit: matched aircraft take their winning return's position;
//  everyone else advances to the expected position.
#pragma once

#include "src/airfield/flight_db.hpp"
#include "src/airfield/towers.hpp"
#include "src/atm/extended/ext_types.hpp"
#include "src/atm/task_types.hpp"

namespace atm::tasks::extended {

/// Reusable scratch for the multi-return correlation.
struct MultiRadarScratch {
  std::vector<double> ex, ey;
  std::vector<std::int32_t> nhits;   ///< Eligible aircraft per return.
  std::vector<std::int32_t> hit_id;  ///< Sole covered aircraft.
  std::vector<std::int32_t> amatch;  ///< Winning return per aircraft.
  std::vector<double> best_d2;       ///< Winning squared distance.
};

/// The multi-tower outcome, read off the final correlation state: the one
/// tally every multi-radar path reports, after `passes` passes.
/// `matched_aircraft` counts the kMatched aircraft: every path commits a
/// return's position exactly to those.
MultiRadarOutcome multi_outcome(const airfield::FlightDb& db,
                                const airfield::MultiRadarFrame& frame,
                                int passes);

/// Reference (sequential) multi-return correlation and tracking.
MultiRadarStats correlate_multi(airfield::FlightDb& db,
                                airfield::MultiRadarFrame& frame,
                                MultiRadarScratch& scratch,
                                const Task1Params& params = {});

/// Convenience overload with throwaway scratch.
MultiRadarStats correlate_multi(airfield::FlightDb& db,
                                airfield::MultiRadarFrame& frame,
                                const Task1Params& params = {});

}  // namespace atm::tasks::extended
