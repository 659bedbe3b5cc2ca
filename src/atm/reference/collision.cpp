#include "src/atm/reference/collision.hpp"

#include <algorithm>
#include <cmath>
#include <span>
#include <vector>

#include "src/core/check.hpp"
#include "src/core/kern/band_math.hpp"
#include "src/core/vec2.hpp"

namespace atm::tasks::reference {

namespace {

/// Detection feeds slots to the band kernel in blocks of at most this
/// many lanes (an index run may end a block early): a block's kernel
/// output (4.5 KB of tmin and flags) stays in L1 for the decision loop
/// that reads it, while full blocks keep the SIMD lanes saturated. The
/// gate-list build walks its lanes in the same blocks.
constexpr std::size_t kScanBlock = 512;

/// Trial checks run the band kernel over the gate list in blocks of this
/// many lanes: a trial stops at its first critical conflict, so at most
/// one small block of kernel work past it is wasted.
constexpr std::size_t kTrialBlock = 64;

/// Size the kernel output buffers for one block.
void reserve_block(ScanScratch& scratch) {
  if (scratch.tmin.size() < kScanBlock) {
    scratch.tmin.resize(kScanBlock);
    scratch.flags.resize(kScanBlock);
  }
}

core::kern::BandParams band_params(const Task23Params& params) {
  return {params.band_nm, params.horizon_periods, params.altitude_gate_feet};
}

/// The aircraft id of a region slot.
std::int32_t id_of(const ScanRegion& region, std::size_t slot) {
  return region.ids != nullptr ? region.ids[slot]
                               : static_cast<std::int32_t>(slot);
}

/// The index query of a track moving at the speed of (vx, vy). Detection
/// and the trials both ask here, so equal velocities give equal boxes.
core::spatial::SweptQuery query_of(const core::spatial::SweptIndex& index,
                                   double xi, double yi, double alti,
                                   double vx, double vy) {
  return index.query(xi, yi, alti, std::sqrt(vx * vx + vy * vy));
}

/// Grow `column` to at least n elements without spare capacity (reserve
/// allocates exactly n): every pool thread keeps a gate list, and
/// doubling growth would double them.
template <typename Column>
void grow_exact(Column& column, std::size_t n) {
  if (column.size() < n) {
    column.reserve(n);
    column.resize(n);
  }
}

/// Call scan_run(begin, end) on every slot range a scan of `box` reads:
/// the index's runs, or the whole view without an index.
template <typename Fn>
void for_each_scan_run(const ScanRegion& region,
                       const core::spatial::SweptQuery& box, Fn&& scan_run) {
  if (region.index != nullptr) {
    region.index->for_each_run(box, [&](std::size_t begin, std::size_t end) {
      scan_run(begin, end);
      return false;
    });
  } else {
    scan_run(0, region.view.n);
  }
}

}  // namespace

DetectOutcome scan_candidates(const ScanRegion& region, std::int32_t self,
                              double xi, double yi, double alti, double vx,
                              double vy, const Task23Params& params,
                              core::kern::Kernel kernel, ScanWork& work,
                              ScanScratch& scratch) {
  const core::kern::SoaView& view = region.view;
  ATM_CHECK_MSG(region.index == nullptr || region.index->size() == view.n,
                "swept index and snapshot cover different slots: index="
                    << region.index->size() << " view=" << view.n);
  reserve_block(scratch);

  const core::kern::BandParams band = band_params(params);
  DetectOutcome out;
  double soonest = params.horizon_periods + 1.0;
  std::uint64_t candidates = 0;
  std::uint64_t tests = 0;

  // Scan the contiguous view slots [begin, end) blockwise. After each
  // kernel block the decision loop reads the block's lanes in slot order,
  // in two passes. The first branches only on conflict lanes: the
  // soonest-partner update, with a (time_min, partner id) lexicographic
  // tie-break — for the ascending brute-force scan this is exactly the
  // historical first-writer-wins behaviour, and it makes the outcome
  // independent of the order an index enumerates candidates in. The
  // second pass tallies the work counters as branch-free arithmetic
  // (every lane but self is a candidate, its gate bit a test).
  static_assert(core::kern::kBandGatePass == 1u);
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
      for (std::size_t k = 0; k < count; ++k) {
        if ((lane_flags[k] & core::kern::kBandConflict) == 0) continue;
        const std::int32_t j = id_of(region, base + k);
        if (j == self) continue;
        out.conflict = true;
        const double tmin = lane_tmin[k];
        if (tmin < soonest || (tmin == soonest && j < out.partner)) {
          soonest = tmin;
          out.partner = j;
          out.time_min = tmin;
        }
        if (tmin < params.critical_periods) out.critical = true;
      }
      for (std::size_t k = 0; k < count; ++k) {
        const unsigned live = id_of(region, base + k) != self ? 1u : 0u;
        candidates += live;
        tests += live & lane_flags[k];
      }
    }
  };
  const core::spatial::SweptQuery box =
      region.index != nullptr ? query_of(*region.index, xi, yi, alti, vx, vy)
                              : core::spatial::SweptQuery{};
  for_each_scan_run(region, box, scan_run);
  work.pair_candidates += candidates;
  work.pair_tests += tests;
  return out;
}

TrialScan::TrialScan(const ScanRegion& region, std::int32_t self, double xi,
                     double yi, double alti, const Task23Params& params,
                     core::kern::Kernel kernel, ScanScratch& scratch)
    : region_(region),
      self_(self),
      xi_(xi),
      yi_(yi),
      alti_(alti),
      band_(band_params(params)),
      critical_periods_(params.critical_periods),
      kernel_(kernel),
      scratch_(scratch) {
  reserve_block(scratch);
}

void TrialScan::build(const core::spatial::SweptQuery& box) {
  // One branch-free pass over the lanes a scan of `box` reads, blockwise:
  // every lane writes its slot and rank at `kept`, and only a non-self
  // lane that passes the gate advances it, so the buffers need room for
  // the passers plus one block. The loop works on locals: the stores
  // could otherwise alias the counters and the focus fields, and the
  // compiler would reload them per lane.
  GateList& gates = scratch_.gates;
  const core::kern::SoaView& view = region_.view;
  const std::int32_t self = self_;
  const double alti = alti_;
  const double gate_feet = band_.altitude_gate_feet;
  std::size_t kept = 0;
  std::uint64_t enumerated = 0;  // Non-self lanes read so far.
  for_each_scan_run(region_, box, [&](std::size_t begin, std::size_t end) {
    for (std::size_t base = begin; base < end; base += kScanBlock) {
      const std::size_t block_end = std::min(end, base + kScanBlock);
      grow_exact(gates.slot, kept + (block_end - base));
      grow_exact(gates.rank, kept + (block_end - base));
      std::int32_t* const slot_out = gates.slot.data();
      std::uint32_t* const rank_out = gates.rank.data();
      std::size_t k = kept;
      std::uint64_t e = enumerated;
      for (std::size_t slot = base; slot < block_end; ++slot) {
        const std::uint64_t live = id_of(region_, slot) != self ? 1u : 0u;
        e += live;
        slot_out[k] = static_cast<std::int32_t>(slot);
        rank_out[k] = static_cast<std::uint32_t>(e);
        k += live & (core::kern::altitude_gate_pass(alti, view.alt[slot],
                                                    gate_feet)
                         ? 1u
                         : 0u);
      }
      kept = k;
      enumerated = e;
    }
  });
  gates.box = box;
  gates.candidates = enumerated;
  core::kern::SoaSnapshot& lanes = gates.lanes;
  for (auto* column : {&lanes.x, &lanes.y, &lanes.dx, &lanes.dy, &lanes.alt}) {
    column->reserve(kept);
  }
  lanes.gather(view, std::span{gates.slot.data(), kept});
  built_ = true;
}

bool TrialScan::critical(double vx, double vy, ScanWork& work) {
  const core::spatial::SweptQuery box =
      region_.index != nullptr
          ? query_of(*region_.index, xi_, yi_, alti_, vx, vy)
          : core::spatial::SweptQuery{};
  if (!built_ || box != scratch_.gates.box) build(box);

  const GateList& gates = scratch_.gates;
  const core::kern::SoaView lanes = gates.lanes.view();
  double* const lane_tmin = scratch_.tmin.data();
  std::uint8_t* const lane_flags = scratch_.flags.data();
  for (std::size_t base = 0; base < lanes.n; base += kTrialBlock) {
    const std::size_t count = std::min(kTrialBlock, lanes.n - base);
    const core::kern::SoaView block{lanes.x + base,  lanes.y + base,
                                    lanes.dx + base, lanes.dy + base,
                                    lanes.alt + base, count};
    core::kern::band_intersect_batch(kernel_, block, /*idx=*/nullptr, count,
                                     xi_, yi_, alti_, vx, vy, band_,
                                     lane_tmin, lane_flags,
                                     &work.lanes_masked);
    for (std::size_t k = 0; k < count; ++k) {
      if ((lane_flags[k] & core::kern::kBandConflict) != 0 &&
          lane_tmin[k] < critical_periods_) {
        work.pair_candidates += gates.rank[base + k];
        work.pair_tests += base + k + 1;
        return true;
      }
    }
  }
  work.pair_candidates += gates.candidates;
  work.pair_tests += lanes.n;
  return false;
}

DetectOutcome scan_against_all(const airfield::FlightDb& db, std::size_t i,
                               double vx, double vy,
                               const Task23Params& params, ScanWork& work,
                               const core::spatial::SweptIndex* index) {
  core::kern::SoaSnapshot snap;
  ScanRegion region;
  if (index != nullptr) {
    snap.gather(db, index->order());
    region.ids = index->order().data();
    region.index = index;
  } else {
    snap.gather(db);
  }
  region.view = snap.view();
  ScanScratch scratch;
  return scan_candidates(region, static_cast<std::int32_t>(i), db.x[i],
                         db.y[i], db.alt[i], vx, vy, params,
                         core::kern::resolve(params.kernel), work, scratch);
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
  ScanRegion region;
  if (params.broadphase == core::spatial::BroadphaseMode::kGrid) {
    build_swept_index(db, params, swept);
    region.index = &swept;
    region.ids = swept.order().data();
    snap.gather(db, swept.order());
  } else {
    snap.gather(db);
  }
  region.view = snap.view();

  ScanWork work;
  ScanScratch scratch;
  const int attempts = max_trial_attempts(params);

  for (std::size_t i = 0; i < n; ++i) {
    const auto self = static_cast<std::int32_t>(i);
    // Task 2: detection on the current path.
    DetectOutcome det =
        scan_candidates(region, self, db.x[i], db.y[i], db.alt[i], db.dx[i],
                        db.dy[i], params, kernel, work, scratch);
    if (det.conflict) {
      ++stats.conflicts;
      db.col[i] = 1;
      db.col_with[i] = det.partner;
      if (det.time_min < db.time_till[i]) db.time_till[i] = det.time_min;
    }
    if (!det.critical) continue;
    ++stats.critical;

    // Task 3: trial rotations against everyone's original paths.
    TrialScan trials(region, self, db.x[i], db.y[i], db.alt[i], params,
                     kernel, scratch);
    const core::Vec2 vel{db.dx[i], db.dy[i]};
    for (int attempt = 0; attempt < attempts; ++attempt) {
      const double angle = trial_angle_deg(attempt, params.turn_step_deg);
      const core::Vec2 trial = core::rotate_deg(vel, angle);
      ++stats.rescans;
      if (!trials.critical(trial.x, trial.y, work)) {
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
