#include "src/atm/reference/collision.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <span>
#include <utility>
#include <vector>

#include "src/core/check.hpp"
#include "src/core/kern/band_math.hpp"
#include "src/core/vec2.hpp"

namespace atm::tasks::reference {

namespace {

/// Detection feeds a gate window to the band kernel in blocks of at most
/// this many lanes: a block's kernel output (4.5 KB of tmin and flags)
/// stays in L1 for the decision loop that reads it, while full blocks
/// keep the SIMD lanes saturated.
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

/// The index query of a track moving at the speed of (vx, vy), or the
/// empty query without an index. Detection and the trials both ask here,
/// so equal velocities give equal boxes.
core::spatial::SweptQuery query_of(const ScanRegion& region, double xi,
                                   double yi, double alti, double vx,
                                   double vy) {
  if (region.index == nullptr) return {};
  return region.index->query(xi, yi, alti, std::sqrt(vx * vx + vy * vy));
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

/// Call scan_cell(begin, end) on every cell a scan of `box` reads, in
/// enumeration order: the index's buckets, or the whole view without an
/// index.
template <typename Fn>
void for_each_scan_cell(const ScanRegion& region,
                        const core::spatial::SweptQuery& box,
                        Fn&& scan_cell) {
  if (region.index != nullptr) {
    region.index->for_each_cell(box, scan_cell);
  } else if (region.view.n > 0) {
    scan_cell(std::size_t{0}, region.view.n);
  }
}

/// The slots of cell [begin, end), sorted by altitude, whose altitude
/// passes altitude_gate_pass against `alti`. For a fixed alti the rounded
/// difference alti - a is monotone in a, so the failures below alti are
/// a prefix of the cell and those above it a suffix.
std::pair<std::size_t, std::size_t> gate_window(const double* alt,
                                                std::size_t begin,
                                                std::size_t end, double alti,
                                                double gate_feet) {
  const double* const first = alt + begin;
  const double* const last = alt + end;
  const double* const lo = std::partition_point(first, last, [&](double a) {
    return a < alti && !core::kern::altitude_gate_pass(alti, a, gate_feet);
  });
  const double* const hi = std::partition_point(lo, last, [&](double a) {
    return a <= alti || core::kern::altitude_gate_pass(alti, a, gate_feet);
  });
  return {static_cast<std::size_t>(lo - alt),
          static_cast<std::size_t>(hi - alt)};
}

}  // namespace

const ScanRegion& SortedSnapshot::build(const airfield::FlightDb& db,
                                        const Task23Params& params) {
  const std::size_t n = db.size();
  const bool grid =
      params.broadphase == core::spatial::BroadphaseMode::kGrid;
  std::span<const std::int32_t> order;  // Position -> id (kGrid).
  std::span<const std::int32_t> cells;  // Cell starts.
  const std::array<std::int32_t, 2> one_cell{0, static_cast<std::int32_t>(n)};
  if (grid) {
    build_swept_index(db, params, index_);
    order = index_.order();
    cells = index_.cell_starts();
  } else {
    cells = one_cell;
  }
  const auto id_at = [&](std::size_t p) {
    return grid ? order[p] : static_cast<std::int32_t>(p);
  };

  keys_.resize(n);
  for (std::size_t p = 0; p < n; ++p) {
    keys_[p] = {db.alt[static_cast<std::size_t>(id_at(p))],
                static_cast<std::int32_t>(p)};
  }
  // A cell's positions ascend with its ids, so (alt, position) orders it
  // by (alt, id).
  for (std::size_t c = 0; c + 1 < cells.size(); ++c) {
    std::sort(keys_.begin() + cells[c], keys_.begin() + cells[c + 1],
              [](const Key& a, const Key& b) {
                return a.alt < b.alt ||
                       (a.alt == b.alt && a.position < b.position);
              });
  }
  ids_.resize(n);
  position_.resize(n);
  slot_at_.resize(n);
  for (std::size_t slot = 0; slot < n; ++slot) {
    const auto p = static_cast<std::size_t>(keys_[slot].position);
    position_[slot] = static_cast<std::int32_t>(p);
    ids_[slot] = id_at(p);
    slot_at_[p] = static_cast<std::int32_t>(slot);
  }
  snap_.gather(db, ids_);
  region_ = {snap_.view(), ids_.data(), position_.data(), slot_at_.data(),
             grid ? &index_ : nullptr};
  return region_;
}

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

  // Scan each cell's gate window blockwise. After each kernel block the
  // decision loop reads the block's conflict lanes: the soonest-partner
  // update, with a (time_min, partner id) lexicographic tie-break, which
  // makes the outcome independent of the order lanes are read in.
  double* const lane_tmin = scratch.tmin.data();
  std::uint8_t* const lane_flags = scratch.flags.data();
  const auto scan_cell = [&](std::size_t begin, std::size_t end) {
    const auto [lo, hi] =
        gate_window(view.alt, begin, end, alti, params.altitude_gate_feet);
    candidates += end - begin;
    tests += hi - lo;
    for (std::size_t base = lo; base < hi; base += kScanBlock) {
      const std::size_t count = std::min(kScanBlock, hi - base);
      const core::kern::SoaView block{view.x + base,  view.y + base,
                                      view.dx + base, view.dy + base,
                                      view.alt + base, count};
      core::kern::band_intersect_batch(kernel, block, /*idx=*/nullptr,
                                       count, xi, yi, alti, vx, vy, band,
                                       lane_tmin, lane_flags,
                                       &work.lanes_masked);
      for (std::size_t k = 0; k < count; ++k) {
        if ((lane_flags[k] & core::kern::kBandConflict) == 0) continue;
        const std::int32_t j = region.ids[base + k];
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
    }
  };
  for_each_scan_cell(region, query_of(region, xi, yi, alti, vx, vy),
                     scan_cell);
  // Self is one of the candidates and one of the tests, not a pair.
  work.pair_candidates += candidates - 1;
  work.pair_tests += tests - 1;
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
  // Cell by cell in enumeration order: mark the positions of the cell's
  // gate window (self excepted) in the bitset, then read the marks back
  // in ascending position, clearing them, so the list comes out in
  // enumeration order. Each rank counts the positions enumerated up to
  // and including the passer, less self when self precedes it. The loops
  // work on locals: the stores could otherwise alias them, and the
  // compiler would reload them per lane.
  GateList& gates = scratch_.gates;
  const core::kern::SoaView& view = region_.view;
  const std::int32_t* const ids = region_.ids;
  const std::int32_t* const position = region_.position;
  const std::int32_t* const slot_at = region_.slot_at;
  const std::int32_t self = self_;
  grow_exact(scratch_.marks, (view.n + 63) / 64);
  std::uint64_t* const marks = scratch_.marks.data();
  std::size_t kept = 0;
  std::uint64_t enumerated = 0;  // Positions of the cells before this one.
  std::size_t self_position = view.n;  // view.n until self is seen.
  for_each_scan_cell(region_, box, [&](std::size_t begin, std::size_t end) {
    const auto [lo, hi] =
        gate_window(view.alt, begin, end, alti_, band_.altitude_gate_feet);
    if (lo < hi) {
      for (std::size_t slot = lo; slot < hi; ++slot) {
        const auto p = static_cast<std::size_t>(position[slot]);
        if (ids[slot] == self) {
          self_position = p;
          continue;
        }
        marks[p / 64] |= std::uint64_t{1} << (p % 64);
      }
      grow_exact(gates.slot, kept + (hi - lo));
      grow_exact(gates.rank, kept + (hi - lo));
      std::int32_t* const slot_out = gates.slot.data();
      std::uint32_t* const rank_out = gates.rank.data();
      for (std::size_t w = begin / 64; w <= (end - 1) / 64; ++w) {
        for (std::uint64_t bits = marks[w]; bits != 0; bits &= bits - 1) {
          const std::size_t p =
              w * 64 + static_cast<std::size_t>(std::countr_zero(bits));
          slot_out[kept] = slot_at[p];
          rank_out[kept] = static_cast<std::uint32_t>(
              enumerated + (p - begin) + (p > self_position ? 0u : 1u));
          ++kept;
        }
        marks[w] = 0;
      }
    }
    enumerated += end - begin;
  });
  gates.box = box;
  gates.candidates = enumerated - 1;  // Self is in its own query.
  core::kern::SoaSnapshot& lanes = gates.lanes;
  for (auto* column : {&lanes.x, &lanes.y, &lanes.dx, &lanes.dy, &lanes.alt}) {
    column->reserve(kept);
  }
  lanes.gather(view, std::span{gates.slot.data(), kept});
  built_ = true;
}

bool TrialScan::critical(double vx, double vy, ScanWork& work) {
  const core::spatial::SweptQuery box =
      query_of(region_, xi_, yi_, alti_, vx, vy);
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
                               const Task23Params& params, ScanWork& work) {
  Task23Params brute = params;
  brute.broadphase = core::spatial::BroadphaseMode::kBruteForce;
  SortedSnapshot sorted;
  ScanScratch scratch;
  return scan_candidates(sorted.build(db, brute),
                         static_cast<std::int32_t>(i), db.x[i], db.y[i],
                         db.alt[i], vx, vy, params,
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

  // One sorted snapshot (and, under kGrid, its swept index) serves every
  // scan of the run. Positions, velocities, and altitudes are only
  // mutated by the commit phase below, after all scanning is done.
  SortedSnapshot sorted;
  const ScanRegion& region = sorted.build(db, params);

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
