#include "src/atm/reference/collision.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "src/core/check.hpp"
#include "src/core/vec2.hpp"

namespace atm::tasks::reference {

namespace {

/// Slots are fed to the band kernel in blocks of at most this many lanes
/// (an index run may end a block early), and the per-lane decision loop
/// runs after each block: under stop_at_critical at most one block of
/// kernel work past the stopping lane is wasted, while full blocks keep
/// the SIMD lanes saturated.
constexpr std::size_t kScanBlock = 512;

}  // namespace

DetectOutcome scan_candidates(const core::kern::SoaView& view,
                              const std::int32_t* ids, std::int32_t self,
                              double xi, double yi, double alti, double vx,
                              double vy, const Task23Params& params,
                              core::kern::Kernel kernel, ScanWork& work,
                              bool stop_at_critical,
                              const core::spatial::SweptIndex* index,
                              ScanScratch& scratch) {
  ATM_CHECK_MSG(index == nullptr || index->size() == view.n,
                "swept index and snapshot cover different slots: index="
                    << index->size() << " view=" << view.n);
  if (scratch.tmin.size() < kScanBlock) {
    scratch.tmin.resize(kScanBlock);
    scratch.flags.resize(kScanBlock);
  }

  const core::kern::BandParams band{params.band_nm, params.horizon_periods,
                                    params.altitude_gate_feet};
  DetectOutcome out;
  double soonest = params.horizon_periods + 1.0;
  std::uint64_t candidates = 0;
  std::uint64_t tests = 0;

  // Scan the contiguous view slots [begin, end) blockwise; true = stopped
  // at a critical conflict. After each kernel block the decision loop
  // consumes the block's lanes in slot order, in two passes. The first
  // branches only on conflict lanes: the soonest-partner update and the
  // critical early exit, which ends the consumed prefix. The soonest-
  // conflict min uses a (time_min, partner id) lexicographic tie-break:
  // for the ascending brute-force scan this is exactly the historical
  // first-writer-wins behaviour, and it makes the outcome independent of
  // the order an index enumerates candidates in. The second pass tallies
  // the work counters over the consumed prefix as branch-free arithmetic
  // (every lane but self is a candidate, its gate bit a test).
  static_assert(core::kern::kBandGatePass == 1u);
  const auto id_of = [ids](std::size_t slot) {
    return ids != nullptr ? ids[slot] : static_cast<std::int32_t>(slot);
  };
  double* const lane_tmin = scratch.tmin.data();
  std::uint8_t* const lane_flags = scratch.flags.data();
  const auto scan_run = [&](std::size_t begin, std::size_t end) {
    for (std::size_t base = begin; base < end; base += kScanBlock) {
      const std::size_t count = std::min(kScanBlock, end - base);
      const core::kern::SoaView block{view.x + base,  view.y + base,
                                      view.dx + base, view.dy + base,
                                      view.alt + base, count};
      core::kern::band_intersect_batch(kernel, block, /*idx=*/nullptr,
                                       count, xi, yi, alti, vx, vy, band,
                                       lane_tmin, lane_flags,
                                       &work.lanes_masked);
      std::size_t consumed = count;
      bool stopped = false;
      for (std::size_t k = 0; k < count; ++k) {
        if ((lane_flags[k] & core::kern::kBandConflict) == 0) continue;
        const std::int32_t j = id_of(base + k);
        if (j == self) continue;
        out.conflict = true;
        const double tmin = lane_tmin[k];
        if (tmin < soonest || (tmin == soonest && j < out.partner)) {
          soonest = tmin;
          out.partner = j;
          out.time_min = tmin;
        }
        if (tmin < params.critical_periods) {
          out.critical = true;
          if (stop_at_critical) {
            consumed = k + 1;
            stopped = true;
            break;
          }
        }
      }
      for (std::size_t k = 0; k < consumed; ++k) {
        const unsigned live = id_of(base + k) != self ? 1u : 0u;
        candidates += live;
        tests += live & lane_flags[k];
      }
      if (stopped) return true;
    }
    return false;
  };
  if (index != nullptr) {
    index->for_each_run(xi, yi, alti, std::sqrt(vx * vx + vy * vy),
                        scan_run);
  } else {
    scan_run(0, view.n);
  }
  work.pair_candidates += candidates;
  work.pair_tests += tests;
  return out;
}

DetectOutcome scan_against_all(const airfield::FlightDb& db, std::size_t i,
                               double vx, double vy,
                               const Task23Params& params, ScanWork& work,
                               bool stop_at_critical,
                               const core::spatial::SweptIndex* index) {
  core::kern::SoaSnapshot snap;
  const std::int32_t* ids = nullptr;
  if (index != nullptr) {
    snap.gather(db, index->order());
    ids = index->order().data();
  } else {
    snap.gather(db);
  }
  ScanScratch scratch;
  return scan_candidates(snap.view(), ids, static_cast<std::int32_t>(i),
                         db.x[i], db.y[i], db.alt[i], vx, vy, params,
                         core::kern::resolve(params.kernel), work,
                         stop_at_critical, index, scratch);
}

core::spatial::SweptIndexParams swept_index_params(
    const Task23Params& params) {
  core::spatial::SweptIndexParams ip;
  ip.horizon_periods = params.horizon_periods;
  ip.band_nm = params.band_nm;
  ip.altitude_gate_feet = params.altitude_gate_feet;
  return ip;
}

void build_swept_index(const airfield::FlightDb& db,
                       const Task23Params& params,
                       core::spatial::SweptIndex& index) {
  index.build(db.x, db.y, db.dx, db.dy, db.alt, swept_index_params(params));
}

double trial_angle_deg(int attempt, double step_deg) {
  // attempt 0 -> +step, 1 -> -step, 2 -> +2*step, 3 -> -2*step, ...
  const int magnitude = attempt / 2 + 1;
  const double sign = (attempt % 2 == 0) ? 1.0 : -1.0;
  return sign * step_deg * static_cast<double>(magnitude);
}

int max_trial_attempts(const Task23Params& params) {
  const int steps =
      static_cast<int>(std::floor(params.turn_max_deg / params.turn_step_deg +
                                  1e-9));
  return 2 * steps;
}

Task23Stats detect_and_resolve(airfield::FlightDb& db,
                               const Task23Params& params) {
  const std::size_t n = db.size();
  Task23Stats stats;
  stats.aircraft = n;
  const core::kern::Kernel kernel = core::kern::resolve(params.kernel);
  stats.kernel = static_cast<int>(kernel);
  check_task23_params(params);
  check_motion_finite(db);

  db.reset_collision_state();
  std::vector<std::uint8_t> resolved_flag(n, 0);

  // One gathered snapshot (and, under kGrid, one swept index whose
  // bucket order is the snapshot's slot order) serves every scan of the
  // run. Positions, velocities, and altitudes are only mutated by the
  // commit phase below, after all scanning is done.
  core::kern::SoaSnapshot snap;
  core::spatial::SweptIndex swept;
  const core::spatial::SweptIndex* index = nullptr;
  const std::int32_t* ids = nullptr;
  if (params.broadphase == core::spatial::BroadphaseMode::kGrid) {
    build_swept_index(db, params, swept);
    index = &swept;
    ids = swept.order().data();
    snap.gather(db, swept.order());
  } else {
    snap.gather(db);
  }
  const core::kern::SoaView view = snap.view();

  ScanWork work;
  ScanScratch scratch;
  const int attempts = max_trial_attempts(params);

  for (std::size_t i = 0; i < n; ++i) {
    // Task 2: detection on the current path.
    DetectOutcome det = scan_candidates(
        view, ids, static_cast<std::int32_t>(i), db.x[i],
        db.y[i], db.alt[i], db.dx[i], db.dy[i], params, kernel, work,
        /*stop_at_critical=*/false, index, scratch);
    if (det.conflict) {
      ++stats.conflicts;
      db.col[i] = 1;
      db.col_with[i] = det.partner;
      if (det.time_min < db.time_till[i]) db.time_till[i] = det.time_min;
    }
    if (!det.critical) continue;
    ++stats.critical;

    // Task 3: trial rotations against everyone's original paths.
    const core::Vec2 vel{db.dx[i], db.dy[i]};
    for (int attempt = 0; attempt < attempts; ++attempt) {
      const double angle = trial_angle_deg(attempt, params.turn_step_deg);
      const core::Vec2 trial = core::rotate_deg(vel, angle);
      ++stats.rescans;
      const DetectOutcome check = scan_candidates(
          view, ids, static_cast<std::int32_t>(i), db.x[i],
          db.y[i], db.alt[i], trial.x, trial.y, params, kernel, work,
          /*stop_at_critical=*/true, index, scratch);
      if (!check.critical) {
        db.batx[i] = trial.x;
        db.baty[i] = trial.y;
        resolved_flag[i] = 1;
        break;
      }
    }
    if (resolved_flag[i]) {
      ++stats.resolved;
    } else {
      ++stats.unresolved;
    }
  }

  // Commit: resolved aircraft turn onto the trial path and clear their
  // collision flags (Algorithm 2 line 12).
  for (std::size_t i = 0; i < n; ++i) {
    if (!resolved_flag[i]) continue;
    db.dx[i] = db.batx[i];
    db.dy[i] = db.baty[i];
    db.col[i] = 0;
    db.col_with[i] = airfield::kNone;
    db.time_till[i] = params.critical_periods;
  }
  stats.pair_tests = work.pair_tests;
  stats.pair_candidates = work.pair_candidates;
  stats.lanes_masked = work.lanes_masked;
  return stats;
}

}  // namespace atm::tasks::reference
