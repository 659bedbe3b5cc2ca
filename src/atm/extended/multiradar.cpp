#include "src/atm/extended/multiradar.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "src/atm/reference/correlate.hpp"

namespace atm::tasks::extended {

using airfield::kDiscarded;
using airfield::kNone;
using airfield::kRedundant;
using airfield::MatchState;

MultiRadarOutcome multi_outcome(const airfield::FlightDb& db,
                                const airfield::MultiRadarFrame& frame,
                                int passes) {
  // The base frame's Task 1 tally counts everything but redundancy.
  const Task1Outcome base = reference::task1_outcome(db, frame.base, passes);
  const auto& rmw = frame.base.rmatch_with;
  return {.returns = base.radars,
          .matched_aircraft = base.matched,
          .redundant_returns = static_cast<std::uint64_t>(
              std::count(rmw.begin(), rmw.end(), kRedundant)),
          .discarded_returns = base.discarded_radars,
          .unmatched_returns = base.unmatched_radars,
          .passes = passes};
}

MultiRadarStats correlate_multi(airfield::FlightDb& db,
                                airfield::MultiRadarFrame& frame,
                                MultiRadarScratch& scratch,
                                const Task1Params& params) {
  check_task1_params(params);
  const std::size_t n = db.size();
  const std::size_t returns = frame.size();
  MultiRadarWork work;
  int passes = 0;

  db.reset_correlation_state();
  frame.base.reset_matches();
  scratch.ex.resize(n);
  scratch.ey.resize(n);
  scratch.nhits.resize(returns);
  scratch.hit_id.resize(returns);
  scratch.amatch.assign(n, kNone);
  scratch.best_d2.assign(n, std::numeric_limits<double>::infinity());

  for (std::size_t i = 0; i < n; ++i) {
    scratch.ex[i] = db.x[i] + db.dx[i];
    scratch.ey[i] = db.y[i] + db.dy[i];
  }

  auto& rmw = frame.base.rmatch_with;
  const auto& rx = frame.base.rx;
  const auto& ry = frame.base.ry;

  const int total_passes = 1 + params.retries;
  for (int pass = 0; pass < total_passes; ++pass) {
    const bool any_active = std::any_of(
        rmw.begin(), rmw.end(), [](std::int32_t m) { return m == kNone; });
    if (!any_active) break;
    ++passes;
    const double half = params.box_half_nm * static_cast<double>(1 << pass);

    // Phase 1 (return-major): coverage counts. A return covering two or
    // more eligible aircraft is ambiguous, exactly as in the base task.
    for (std::size_t r = 0; r < returns; ++r) {
      if (rmw[r] != kNone) continue;
      scratch.nhits[r] = 0;
      scratch.hit_id[r] = kNone;
      for (std::size_t a = 0; a < n; ++a) {
        if (db.rmatch[a] !=
            static_cast<std::int8_t>(MatchState::kUnmatched)) {
          continue;
        }
        ++work.box_tests;
        if (std::fabs(scratch.ex[a] - rx[r]) < half &&
            std::fabs(scratch.ey[a] - ry[r]) < half) {
          ++scratch.nhits[r];
          scratch.hit_id[r] = static_cast<std::int32_t>(a);
        }
      }
      if (scratch.nhits[r] >= 2) rmw[r] = kDiscarded;
    }

    // Phase 2 (aircraft-major): pick the closest single-hit candidate.
    for (std::size_t a = 0; a < n; ++a) {
      if (db.rmatch[a] != static_cast<std::int8_t>(MatchState::kUnmatched)) {
        continue;
      }
      std::int32_t best = kNone;
      double best_d2 = std::numeric_limits<double>::infinity();
      for (std::size_t r = 0; r < returns; ++r) {
        if (rmw[r] != kNone) continue;  // discarded or spoken for earlier
        if (scratch.nhits[r] != 1 ||
            scratch.hit_id[r] != static_cast<std::int32_t>(a)) {
          continue;
        }
        const double dx = rx[r] - scratch.ex[a];
        const double dy = ry[r] - scratch.ey[a];
        const double d2 = dx * dx + dy * dy;
        if (d2 < best_d2) {
          best_d2 = d2;
          best = static_cast<std::int32_t>(r);
        }
      }
      if (best != kNone) {
        db.rmatch[a] = static_cast<std::int8_t>(MatchState::kMatched);
        scratch.amatch[a] = best;
        scratch.best_d2[a] = best_d2;
      }
    }

    // Phase 3 (return-major): disposition. A single-hit return either won
    // its aircraft or lost to a closer tower.
    for (std::size_t r = 0; r < returns; ++r) {
      if (rmw[r] != kNone) continue;
      if (scratch.nhits[r] != 1) continue;  // zero hits: retry next pass
      const std::int32_t a = scratch.hit_id[r];
      const auto ai = static_cast<std::size_t>(a);
      if (scratch.amatch[ai] == static_cast<std::int32_t>(r)) {
        rmw[r] = a;
      } else if (db.rmatch[ai] ==
                 static_cast<std::int8_t>(MatchState::kMatched)) {
        rmw[r] = kRedundant;
      }
      // else: its sole aircraft stayed unmatched this pass (cannot happen
      // — a single-hit candidate guarantees a non-empty candidate set —
      // but kept for clarity with the kernel variants).
    }
  }

  // Commit.
  for (std::size_t a = 0; a < n; ++a) {
    if (db.rmatch[a] == static_cast<std::int8_t>(MatchState::kMatched) &&
        scratch.amatch[a] >= 0) {
      const auto r = static_cast<std::size_t>(scratch.amatch[a]);
      db.x[a] = rx[r];
      db.y[a] = ry[r];
    } else {
      db.x[a] = scratch.ex[a];
      db.y[a] = scratch.ey[a];
    }
  }
  return {multi_outcome(db, frame, passes), work};
}

MultiRadarStats correlate_multi(airfield::FlightDb& db,
                                airfield::MultiRadarFrame& frame,
                                const Task1Params& params) {
  MultiRadarScratch scratch;
  return correlate_multi(db, frame, scratch, params);
}

}  // namespace atm::tasks::extended
