#include "src/atm/reference/correlate.hpp"

#include <algorithm>
#include <cmath>

#include "src/core/check.hpp"
#include "src/core/kern/kernels.hpp"

namespace atm::tasks::reference {

using airfield::kDiscarded;
using airfield::kNone;
using airfield::MatchState;

void Task1Scratch::resize(std::size_t aircraft, std::size_t radars) {
  ex.resize(aircraft);
  ey.resize(aircraft);
  nhits.resize(radars);
  hit_id.resize(radars);
  nradars.resize(aircraft);
  amatch.resize(aircraft);
  eligible.resize(aircraft);
  hits.resize(aircraft);
}

Task1Outcome task1_outcome(const airfield::FlightDb& db,
                           const airfield::RadarFrame& frame, int passes) {
  const auto aircraft = [&](MatchState state) {
    return static_cast<std::uint64_t>(std::count(
        db.rmatch.begin(), db.rmatch.end(), static_cast<std::int8_t>(state)));
  };
  const auto radars = [&](std::int32_t match) {
    return static_cast<std::uint64_t>(std::count(
        frame.rmatch_with.begin(), frame.rmatch_with.end(), match));
  };
  const std::uint64_t matched = aircraft(MatchState::kMatched);
  return {.radars = frame.size(),
          .matched = matched,
          .discarded_radars = radars(kDiscarded),
          .unmatched_radars = radars(kNone),
          .ambiguous_aircraft = aircraft(MatchState::kAmbiguous),
          .updated_aircraft = matched,
          .passes = passes};
}

Task1Stats correlate_and_track(airfield::FlightDb& db,
                               airfield::RadarFrame& frame,
                               Task1Scratch& scratch,
                               const Task1Params& params) {
  const std::size_t n = db.size();
  Task1Work work;
  int passes = 0;
  const core::kern::Kernel kernel = core::kern::resolve(params.kernel);
  work.kernel = static_cast<int>(kernel);
  check_task1_params(params);

  scratch.resize(n, frame.size());
  db.reset_correlation_state();
  frame.reset_matches();
  std::fill(scratch.amatch.begin(), scratch.amatch.end(), kNone);

  // Expected positions: each aircraft advances one period along its track.
  for (std::size_t i = 0; i < n; ++i) {
    scratch.ex[i] = db.x[i] + db.dx[i];
    scratch.ey[i] = db.y[i] + db.dy[i];
  }

  const int total_passes = 1 + params.retries;
  double prev_half = 0.0;
  for (int pass = 0; pass < total_passes; ++pass) {
    const double half = params.box_half_nm * static_cast<double>(1 << pass);
    // Retry-doubling contract: each pass widens the box (and the widening
    // must not overflow to inf), otherwise the retry passes silently
    // re-test the same box and the pass count lies.
    ATM_CHECK_MSG(half > prev_half && std::isfinite(half),
                  "correlation box failed to grow: pass=" << pass << " half="
                                                          << half
                                                          << " prev="
                                                          << prev_half);
    prev_half = half;
    ++passes;

    std::fill(scratch.nhits.begin(), scratch.nhits.end(), 0);
    std::fill(scratch.hit_id.begin(), scratch.hit_id.end(), kNone);
    std::fill(scratch.nradars.begin(), scratch.nradars.end(), 0);

    // Count coverage. The per-hit updates are order-free (hit_id[r] is
    // only read when nhits[r] == 1, i.e. when it had a single writer), so
    // candidates may come from a full eligible scan (brute force) or from
    // the grid cells overlapping the radar's box — the exact |dx|,|dy| <
    // half test (a batch box kernel either way) decides membership and
    // outcomes are identical; only the box_tests work counter differs.
    // db.rmatch is read-only during this phase (dispositions run after),
    // so the eligibility mask is hoisted out of the radar loop.
    const bool use_grid =
        params.broadphase == core::spatial::BroadphaseMode::kGrid;
    std::size_t eligible_count = 0;
    for (std::size_t a = 0; a < n; ++a) {
      const bool e =
          db.rmatch[a] == static_cast<std::int8_t>(MatchState::kUnmatched);
      scratch.eligible[a] = e ? 1 : 0;
      eligible_count += e ? 1u : 0u;
    }
    if (use_grid) {
      scratch.grid.build(scratch.ex, scratch.ey, scratch.eligible,
                         /*cell_hint_nm=*/2.0 * half);
    }
    bool any_active = false;
    for (std::size_t r = 0; r < frame.size(); ++r) {
      if (frame.rmatch_with[r] != kNone) continue;
      any_active = true;
      std::size_t hit_count = 0;
      if (use_grid) {
        scratch.cand.clear();
        scratch.grid.for_each_in_box(
            frame.rx[r] - half, frame.rx[r] + half, frame.ry[r] - half,
            frame.ry[r] + half, [&](std::size_t a) {
              scratch.cand.push_back(static_cast<std::int32_t>(a));
            });
        work.box_tests += scratch.cand.size();
        hit_count = core::kern::box_test_batch_indexed(
            kernel, scratch.ex.data(), scratch.ey.data(),
            scratch.cand.data(), scratch.cand.size(), frame.rx[r],
            frame.ry[r], half, scratch.hits.data(), &work.lanes_masked);
      } else {
        // Brute force tests exactly the eligible aircraft (the kernel
        // masks the rest off at emission), so the work counter is the
        // eligible count — identical to the pre-kernel per-test tally.
        work.box_tests += eligible_count;
        hit_count = core::kern::box_test_batch(
            kernel, scratch.ex.data(), scratch.ey.data(), n,
            scratch.eligible.data(), frame.rx[r], frame.ry[r], half,
            scratch.hits.data(), &work.lanes_masked);
      }
      for (std::size_t k = 0; k < hit_count; ++k) {
        const std::int32_t a = scratch.hits[k];
        ++scratch.nhits[r];
        scratch.hit_id[r] = a;
        ++scratch.nradars[static_cast<std::size_t>(a)];
      }
    }
    if (!any_active) {
      --passes;
      break;
    }

    // Ambiguous aircraft drop out permanently.
    for (std::size_t a = 0; a < n; ++a) {
      if (db.rmatch[a] ==
              static_cast<std::int8_t>(MatchState::kUnmatched) &&
          scratch.nradars[a] >= 2) {
        db.rmatch[a] = static_cast<std::int8_t>(MatchState::kAmbiguous);
      }
    }

    // Radar dispositions.
    for (std::size_t r = 0; r < frame.size(); ++r) {
      if (frame.rmatch_with[r] != kNone) continue;
      if (scratch.nhits[r] >= 2) {
        frame.rmatch_with[r] = kDiscarded;
      } else if (scratch.nhits[r] == 1) {
        const std::int32_t a = scratch.hit_id[r];
        frame.rmatch_with[r] = a;  // radar records the id either way
        if (scratch.nradars[static_cast<std::size_t>(a)] == 1) {
          db.rmatch[static_cast<std::size_t>(a)] =
              static_cast<std::int8_t>(MatchState::kMatched);
          scratch.amatch[static_cast<std::size_t>(a)] =
              static_cast<std::int32_t>(r);
        }
      }
    }

    // Another pass only if some radar is still unmatched.
    const bool unmatched_remain =
        std::any_of(frame.rmatch_with.begin(), frame.rmatch_with.end(),
                    [](std::int32_t m) { return m == kNone; });
    if (!unmatched_remain) break;
  }

  // Commit: correlated aircraft take the radar position; everyone else
  // advances to the expected position.
  std::vector<std::uint8_t> updated(n, 0);
  for (std::size_t r = 0; r < frame.size(); ++r) {
    const std::int32_t a = frame.rmatch_with[r];
    if (a < 0) continue;
    const auto ai = static_cast<std::size_t>(a);
    if (db.rmatch[ai] == static_cast<std::int8_t>(MatchState::kMatched) &&
        scratch.amatch[ai] == static_cast<std::int32_t>(r)) {
      db.x[ai] = frame.rx[r];
      db.y[ai] = frame.ry[r];
      updated[ai] = 1;
    }
  }
  for (std::size_t a = 0; a < n; ++a) {
    if (!updated[a]) {
      db.x[a] = scratch.ex[a];
      db.y[a] = scratch.ey[a];
    }
  }
  return {task1_outcome(db, frame, passes), work};
}

Task1Stats correlate_and_track(airfield::FlightDb& db,
                               airfield::RadarFrame& frame,
                               const Task1Params& params) {
  Task1Scratch scratch;
  return correlate_and_track(db, frame, scratch, params);
}

}  // namespace atm::tasks::reference
