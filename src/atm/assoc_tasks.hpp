// The associative-processor formulation of the ATM tasks ([12, 13]),
// shared by the STARAN backend and its ClearSpeed emulation.
//
// Both machines run the *same algorithm*; what differs is the cost of each
// primitive: on a true AP (one PE per aircraft) every parallel operation,
// search, responder step, and min-reduction is constant time, so the task
// loops below are linear in the number of aircraft — the [12, 13] result.
// On the ClearSpeed emulation (192 physical PEs) every parallel primitive
// pays ceil(n / 192) virtualization rounds, which is what the emulated
// curves in the paper's figures reflect.
//
// The algorithms are expressed against a small "associative machine"
// concept (see AssocMachineConcept below) implemented by adapters over
// ap::ApMachine and simd::LockstepMachine.
//
// Task 1 (tracking & correlation), associative form:
//   * all PEs compute expected positions in parallel;
//   * the control unit iterates the (unmatched) radars: broadcast the
//     return, associative-search the eligible aircraft within the box,
//     count responders in constant time; a single responder is a tentative
//     pair (selected with the "step" operation), multiple responders
//     discard the radar, and every responder increments its own coverage
//     counter in parallel;
//   * after the radar sweep, aircraft with coverage >= 2 become ambiguous
//     in one parallel step, tentative pairs whose aircraft kept coverage 1
//     commit;
//   * unmatched radars repeat with a doubled box (two retries), then one
//     parallel step moves every aircraft to its radar/expected position.
//
// Tasks 2+3, associative form:
//   * the control unit iterates the aircraft: broadcast the track, all PEs
//     run Batcher's test against their own record in parallel; "any
//     responders" answers conflict existence in constant time and a
//     bit-serial min-reduction finds the soonest conflicting partner;
//   * a critical track trials rotated paths: each trial is a broadcast
//     plus one parallel re-test — constant time per trial on the AP,
//     regardless of aircraft count;
//   * one final parallel step commits resolved paths.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/airfield/flight_db.hpp"
#include "src/airfield/radar.hpp"
#include "src/airfield/terrain.hpp"
#include "src/airfield/towers.hpp"
#include "src/atm/batcher.hpp"
#include "src/atm/extended/advisory.hpp"
#include "src/atm/extended/display.hpp"
#include "src/atm/extended/ext_types.hpp"
#include "src/atm/extended/multiradar.hpp"
#include "src/atm/extended/sporadic.hpp"
#include "src/atm/extended/terrain_task.hpp"
#include "src/atm/reference/collision.hpp"
#include "src/atm/reference/correlate.hpp"
#include "src/atm/task_types.hpp"
#include "src/core/vec2.hpp"

namespace atm::tasks::assoc {

/// Mask type shared by the adapters (nonzero byte = responder).
using Mask = std::vector<std::uint8_t>;

// The machine adapter concept (documented, duck-typed):
//   void   parallel_all(F fn, int word_ops);            fn(i) for all PEs
//   void   parallel_masked(const Mask&, F fn, int ops); fn(i) for responders
//   void   search(P pred, Mask& out, int word_ops);     out[i] = pred(i)
//   bool   any(const Mask&);
//   size_t first(const Mask&);                           npos when none
//   size_t count(const Mask&);
//   size_t min_index(span<const double>, const Mask&);   npos when none
//   void   broadcast();
//   void   host_access(int word_ops);                    control-unit scalar
//   double elapsed_ms();  void reset();
//   static constexpr size_t npos;

/// Word-op weights of the associative task steps (bit-serial field ops per
/// parallel instruction). Shared so both machines charge identical op
/// counts and differ only in per-op cost.
struct AssocOpWeights {
  int expected_position = 2;  ///< ex = x + dx; ey = y + dy.
  int reset_flags = 1;
  int box_search = 4;         ///< Two field compares per axis.
  int coverage_inc = 1;
  int ambiguity = 2;
  int commit_tracking = 3;
  int batcher_scan = 16;      ///< Projection, 4 divides, window logic.
  int conflict_flags = 2;
  int trial_check = 16;
  int commit_paths = 2;
  // Extended-system steps.
  int terrain_sample = 6;     ///< Bilinear lookup + compare, per sample.
  int display_sector = 3;     ///< Sector arithmetic + handoff compare.
  int advisory_classify = 3;  ///< Flag tests + boundary compare.
  int candidate_distance = 2; ///< Squared-distance evaluation.
  int query_search = 2;       ///< One associative query evaluation.
};

/// Task 1 on an associative machine. Semantics identical to
/// tasks::reference::correlate_and_track. stats.box_tests counts PE
/// comparisons (all PEs compare on every search — that is how an
/// associative search works), so it differs from the sequential backends'
/// eligible-only count; outcome fields are identical.
template <typename M>
Task1Stats assoc_task1(M& m, airfield::FlightDb& db,
                       airfield::RadarFrame& frame,
                       const Task1Params& params,
                       const AssocOpWeights& w = {}) {
  using airfield::kDiscarded;
  using airfield::kNone;
  using airfield::MatchState;

  const std::size_t n = db.size();
  Task1Work work;
  int passes = 0;

  db.reset_correlation_state();
  frame.reset_matches();

  std::vector<double> ex(n), ey(n), rxa(n, 0.0), rya(n, 0.0);
  std::vector<std::int32_t> hits(n, 0);
  std::vector<std::int32_t> amatch(n, kNone);

  m.parallel_all(
      [&](std::size_t i) {
        ex[i] = db.x[i] + db.dx[i];
        ey[i] = db.y[i] + db.dy[i];
      },
      w.expected_position);

  Mask mask;
  std::vector<std::pair<std::int32_t, std::int32_t>> pending;

  const int total_passes = 1 + params.retries;
  for (int pass = 0; pass < total_passes; ++pass) {
    if (std::none_of(frame.rmatch_with.begin(), frame.rmatch_with.end(),
                     [](std::int32_t rm) { return rm == kNone; })) {
      break;
    }
    ++passes;
    const double half = params.box_half_nm * static_cast<double>(1 << pass);

    m.parallel_all([&](std::size_t i) { hits[i] = 0; }, w.reset_flags);
    pending.clear();

    for (std::size_t r = 0; r < frame.size(); ++r) {
      if (frame.rmatch_with[r] != kNone) continue;
      const double rx = frame.rx[r];
      const double ry = frame.ry[r];
      m.broadcast();
      m.search(
          [&](std::size_t a) {
            return db.rmatch[a] ==
                       static_cast<std::int8_t>(MatchState::kUnmatched) &&
                   std::fabs(ex[a] - rx) < half &&
                   std::fabs(ey[a] - ry) < half;
          },
          mask, w.box_search);
      work.box_tests += n;  // every PE compares
      const std::size_t cnt = m.count(mask);
      if (cnt == 0) continue;
      m.parallel_masked(mask, [&](std::size_t a) { ++hits[a]; },
                        w.coverage_inc);
      if (cnt >= 2) {
        frame.rmatch_with[r] = kDiscarded;
      } else {
        pending.emplace_back(static_cast<std::int32_t>(r),
                             static_cast<std::int32_t>(m.first(mask)));
      }
    }

    // Ambiguity in one parallel step.
    m.search(
        [&](std::size_t a) {
          return db.rmatch[a] ==
                     static_cast<std::int8_t>(MatchState::kUnmatched) &&
                 hits[a] >= 2;
        },
        mask, w.ambiguity);
    m.parallel_masked(
        mask,
        [&](std::size_t a) {
          db.rmatch[a] = static_cast<std::int8_t>(MatchState::kAmbiguous);
        },
        w.reset_flags);

    // Commit tentative pairs whose aircraft kept single coverage.
    for (const auto& [r, a] : pending) {
      frame.rmatch_with[static_cast<std::size_t>(r)] = a;
      m.host_access(1);
      const auto ai = static_cast<std::size_t>(a);
      if (hits[ai] == 1) {
        db.rmatch[ai] = static_cast<std::int8_t>(MatchState::kMatched);
        amatch[ai] = r;
        rxa[ai] = frame.rx[static_cast<std::size_t>(r)];
        rya[ai] = frame.ry[static_cast<std::size_t>(r)];
        m.host_access(2);
      }
    }
  }

  // Commit the new positions in one parallel step.
  m.parallel_all(
      [&](std::size_t a) {
        if (db.rmatch[a] == static_cast<std::int8_t>(MatchState::kMatched) &&
            amatch[a] >= 0) {
          db.x[a] = rxa[a];
          db.y[a] = rya[a];
        } else {
          db.x[a] = ex[a];
          db.y[a] = ey[a];
        }
      },
      w.commit_tracking);
  return {reference::task1_outcome(db, frame, passes), work};
}

/// Tasks 2+3 on an associative machine. Semantics identical to
/// tasks::reference::detect_and_resolve. stats.pair_tests counts the
/// altitude-gated Batcher evaluations the PEs performed (parallel scans
/// evaluate every PE; there is no early exit in lock-step hardware).
template <typename M>
Task23Stats assoc_task23(M& m, airfield::FlightDb& db,
                         const Task23Params& params,
                         const AssocOpWeights& w = {}) {
  using airfield::kNone;

  const std::size_t n = db.size();
  Task23Stats stats;
  stats.aircraft = n;

  db.reset_collision_state();
  m.parallel_all([](std::size_t) {}, w.reset_flags);

  std::vector<double> tmin(n, 0.0);
  std::vector<std::uint8_t> resolved(n, 0);
  Mask conflict_mask(n, 0), bad_mask(n, 0);

  const int attempts = reference::max_trial_attempts(params);

  for (std::size_t i = 0; i < n; ++i) {
    m.host_access(1);  // control unit reads out the track record
    m.broadcast();

    // Parallel Batcher scan of track i against every PE's own record.
    m.parallel_all(
        [&](std::size_t j) {
          tmin[j] = params.horizon_periods + 1.0;
          conflict_mask[j] = 0;
          if (j == i) return;
          if (!altitude_gate(db.alt[i], db.alt[j],
                             params.altitude_gate_feet)) {
            return;
          }
          ++stats.pair_tests;
          const PairConflict pc = batcher_pair_test(
              db.x[j] - db.x[i], db.y[j] - db.y[i], db.dx[j] - db.dx[i],
              db.dy[j] - db.dy[i], params.band_nm, params.horizon_periods);
          if (pc.conflict) {
            tmin[j] = pc.time_min;
            conflict_mask[j] = 1;
          }
        },
        w.batcher_scan);
    if (!m.any(conflict_mask)) continue;

    const std::size_t partner = m.min_index(tmin, conflict_mask);
    const double soonest = tmin[partner];
    ++stats.conflicts;
    db.col[i] = 1;
    db.col_with[i] = static_cast<std::int32_t>(partner);
    if (soonest < db.time_till[i]) db.time_till[i] = soonest;
    m.host_access(1);

    if (soonest >= params.critical_periods) continue;
    ++stats.critical;

    const core::Vec2 vel{db.dx[i], db.dy[i]};
    for (int attempt = 0; attempt < attempts; ++attempt) {
      const double angle =
          reference::trial_angle_deg(attempt, params.turn_step_deg);
      const core::Vec2 trial = core::rotate_deg(vel, angle);
      m.host_access(1);  // control unit computes and broadcasts the trial
      m.broadcast();
      ++stats.rescans;
      m.parallel_all(
          [&](std::size_t j) {
            bad_mask[j] = 0;
            if (j == i) return;
            if (!altitude_gate(db.alt[i], db.alt[j],
                               params.altitude_gate_feet)) {
              return;
            }
            ++stats.pair_tests;
            const PairConflict pc = batcher_pair_test(
                db.x[j] - db.x[i], db.y[j] - db.y[i], db.dx[j] - trial.x,
                db.dy[j] - trial.y, params.band_nm,
                params.horizon_periods);
            if (pc.conflict && pc.time_min < params.critical_periods) {
              bad_mask[j] = 1;
            }
          },
          w.trial_check);
      if (!m.any(bad_mask)) {
        db.batx[i] = trial.x;
        db.baty[i] = trial.y;
        resolved[i] = 1;
        m.host_access(1);
        break;
      }
    }
    if (resolved[i]) {
      ++stats.resolved;
    } else {
      ++stats.unresolved;
    }
  }

  // Commit resolved paths in one parallel step.
  m.parallel_all(
      [&](std::size_t i) {
        if (!resolved[i]) return;
        db.dx[i] = db.batx[i];
        db.dy[i] = db.baty[i];
        db.col[i] = 0;
        db.col_with[i] = kNone;
        db.time_till[i] = params.critical_periods;
      },
      w.commit_paths);
  return stats;
}

// --- Extended-system tasks on an associative machine ------------------------

/// Terrain avoidance: every PE scans its own record's projected path
/// against the (PE-memory-resident) terrain in parallel — constant time
/// with respect to aircraft count, samples * lookup word-ops total.
template <typename M>
TerrainStats assoc_terrain(M& m, airfield::FlightDb& db,
                           const airfield::TerrainMap& terrain,
                           const TerrainTaskParams& params,
                           const AssocOpWeights& w = {}) {
  TerrainStats stats;
  stats.aircraft = db.size();
  m.parallel_all(
      [&](std::size_t i) {
        const extended::TerrainScan scan =
            extended::scan_terrain(db, i, terrain, params);
        stats.samples += static_cast<std::uint64_t>(params.samples);
        if (scan.warn) ++stats.warnings;
        if (extended::apply_terrain_scan(db, i, scan)) ++stats.climbs;
      },
      params.samples * w.terrain_sample);
  return stats;
}

/// Display update: sector arithmetic is one parallel step; the occupancy
/// histogram is one associative search + responder count per sector
/// (constant time each on a true AP).
template <typename M>
DisplayStats assoc_display(M& m, airfield::FlightDb& db,
                           std::vector<std::int32_t>& occupancy,
                           const DisplayParams& params,
                           const AssocOpWeights& w = {}) {
  DisplayStats stats;
  stats.aircraft = db.size();
  const int k = params.sectors_per_axis;
  occupancy.assign(static_cast<std::size_t>(k) * k, 0);

  std::vector<std::int32_t> new_sector(db.size(), airfield::kNone);
  m.parallel_all(
      [&](std::size_t i) {
        new_sector[i] = extended::sector_of(db.x[i], db.y[i], k);
      },
      w.display_sector);

  Mask mask;
  m.search(
      [&](std::size_t i) {
        return db.sector[i] != airfield::kNone &&
               db.sector[i] != new_sector[i];
      },
      mask, 1);
  stats.handoffs = m.count(mask);

  m.parallel_all([&](std::size_t i) { db.sector[i] = new_sector[i]; }, 1);

  for (std::int32_t s = 0; s < k * k; ++s) {
    m.search([&](std::size_t i) { return db.sector[i] == s; }, mask, 1);
    const std::size_t count = m.count(mask);
    occupancy[static_cast<std::size_t>(s)] = static_cast<std::int32_t>(count);
    if (count > 0) ++stats.occupied_sectors;
    stats.max_occupancy =
        std::max(stats.max_occupancy, static_cast<std::uint64_t>(count));
  }
  return stats;
}

/// AVA: one search per advisory class; the control unit steps through the
/// responders in id order to drain the voice queue.
template <typename M>
AdvisoryStats assoc_advisory(M& m, const airfield::FlightDb& db,
                             const AdvisoryParams& params,
                             std::vector<Advisory>& queue,
                             const AssocOpWeights& w = {}) {
  AdvisoryStats stats;
  stats.aircraft = db.size();
  queue.clear();

  Mask conflict_mask, terrain_mask, boundary_mask;
  m.search([&](std::size_t i) { return db.col[i] != 0; }, conflict_mask,
           w.advisory_classify);
  m.search([&](std::size_t i) { return db.terrain_warn[i] != 0; },
           terrain_mask, w.advisory_classify);
  const double edge = core::kGridHalfExtentNm - params.boundary_warn_nm;
  m.search(
      [&](std::size_t i) {
        return std::fabs(db.x[i]) > edge || std::fabs(db.y[i]) > edge;
      },
      boundary_mask, w.advisory_classify);

  stats.conflict = m.count(conflict_mask);
  stats.terrain = m.count(terrain_mask);
  stats.boundary = m.count(boundary_mask);

  // Drain in aircraft order (types interleaved per aircraft, matching the
  // reference queue). Each message is one responder step + one readout.
  for (std::size_t i = 0; i < db.size(); ++i) {
    const auto id = static_cast<std::int32_t>(i);
    if (conflict_mask[i]) {
      queue.push_back(Advisory{id, AdvisoryType::kConflict});
      m.host_access(1);
    }
    if (terrain_mask[i]) {
      queue.push_back(Advisory{id, AdvisoryType::kTerrain});
      m.host_access(1);
    }
    if (boundary_mask[i]) {
      queue.push_back(Advisory{id, AdvisoryType::kBoundary});
      m.host_access(1);
    }
  }
  return stats;
}

/// Sporadic requests: THE associative-processor task — each controller
/// query is exactly one broadcast + associative search, constant time in
/// the aircraft count, with the responders stepped out in id order.
template <typename M>
SporadicStats assoc_sporadic(M& m, const airfield::FlightDb& db,
                             std::span<const Query> queries,
                             std::vector<std::vector<std::int32_t>>& answers,
                             const AssocOpWeights& w = {}) {
  SporadicStats stats;
  stats.queries = queries.size();
  answers.assign(queries.size(), {});
  Mask mask;
  for (std::size_t q = 0; q < queries.size(); ++q) {
    const Query& query = queries[q];
    m.broadcast();
    m.search(
        [&](std::size_t i) {
          return extended::query_matches(db, i, query);
        },
        mask, w.query_search);
    // Step out the responders (one responder-select per hit).
    for (std::size_t i = 0; i < db.size(); ++i) {
      if (!mask[i]) continue;
      answers[q].push_back(static_cast<std::int32_t>(i));
      ++stats.hits;
      m.host_access(1);
    }
  }
  return stats;
}

/// Multi-tower correlation on an associative machine: the control unit
/// iterates the returns (broadcast + search, as in the base Task 1); the
/// closest-candidate selection happens in control-unit memory, and the
/// commits are masked parallel writes.
template <typename M>
MultiRadarStats assoc_multi_task1(M& m, airfield::FlightDb& db,
                                  airfield::MultiRadarFrame& frame,
                                  const Task1Params& params,
                                  const AssocOpWeights& w = {}) {
  using airfield::kDiscarded;
  using airfield::kNone;
  using airfield::kRedundant;
  using airfield::MatchState;

  const std::size_t n = db.size();
  const std::size_t returns = frame.size();
  MultiRadarWork work;
  int passes = 0;

  db.reset_correlation_state();
  frame.base.reset_matches();

  std::vector<double> ex(n), ey(n);
  std::vector<std::int32_t> amatch(n, kNone);
  std::vector<double> best_d2(n, 0.0);
  std::vector<std::int32_t> nhits(returns, 0);
  std::vector<std::int32_t> hit_id(returns, kNone);

  m.parallel_all(
      [&](std::size_t i) {
        ex[i] = db.x[i] + db.dx[i];
        ey[i] = db.y[i] + db.dy[i];
      },
      w.expected_position);

  auto& rmw = frame.base.rmatch_with;
  Mask mask;

  const int total_passes = 1 + params.retries;
  for (int pass = 0; pass < total_passes; ++pass) {
    if (std::none_of(rmw.begin(), rmw.end(),
                     [](std::int32_t rm) { return rm == kNone; })) {
      break;
    }
    ++passes;
    const double half = params.box_half_nm * static_cast<double>(1 << pass);

    // Phase 1: per active return — associative box search.
    for (std::size_t r = 0; r < returns; ++r) {
      if (rmw[r] != kNone) continue;
      const double rx = frame.base.rx[r];
      const double ry = frame.base.ry[r];
      m.broadcast();
      m.search(
          [&](std::size_t a) {
            return db.rmatch[a] ==
                       static_cast<std::int8_t>(MatchState::kUnmatched) &&
                   std::fabs(ex[a] - rx) < half &&
                   std::fabs(ey[a] - ry) < half;
          },
          mask, w.box_search);
      work.box_tests += n;
      const std::size_t cnt = m.count(mask);
      nhits[r] = static_cast<std::int32_t>(cnt);
      if (cnt >= 2) {
        rmw[r] = kDiscarded;
        hit_id[r] = kNone;
      } else if (cnt == 1) {
        hit_id[r] = static_cast<std::int32_t>(m.first(mask));
      } else {
        hit_id[r] = kNone;
      }
    }

    // Phase 2: closest-candidate selection in control-unit memory.
    std::vector<std::int32_t> best(n, kNone);
    std::vector<double> best_dist(n, 0.0);
    for (std::size_t r = 0; r < returns; ++r) {
      if (rmw[r] != kNone || nhits[r] != 1) continue;
      const auto a = static_cast<std::size_t>(hit_id[r]);
      const double dx = frame.base.rx[r] - ex[a];
      const double dy = frame.base.ry[r] - ey[a];
      const double d2 = dx * dx + dy * dy;
      m.host_access(w.candidate_distance);
      if (best[a] == kNone || d2 < best_dist[a]) {
        best[a] = static_cast<std::int32_t>(r);
        best_dist[a] = d2;
      }
    }

    // Phase 3: commit winners (masked single-PE writes), mark losers.
    for (std::size_t r = 0; r < returns; ++r) {
      if (rmw[r] != kNone || nhits[r] != 1) continue;
      const auto a = static_cast<std::size_t>(hit_id[r]);
      if (best[a] == static_cast<std::int32_t>(r)) {
        db.rmatch[a] = static_cast<std::int8_t>(MatchState::kMatched);
        amatch[a] = static_cast<std::int32_t>(r);
        best_d2[a] = best_dist[a];
        rmw[r] = hit_id[r];
        m.host_access(2);
      } else {
        rmw[r] = kRedundant;
        m.host_access(1);
      }
    }
  }

  // Commit positions in one parallel step.
  m.parallel_all(
      [&](std::size_t a) {
        if (db.rmatch[a] == static_cast<std::int8_t>(MatchState::kMatched) &&
            amatch[a] >= 0) {
          const auto r = static_cast<std::size_t>(amatch[a]);
          db.x[a] = frame.base.rx[r];
          db.y[a] = frame.base.ry[r];
        } else {
          db.x[a] = ex[a];
          db.y[a] = ey[a];
        }
      },
      w.commit_tracking);
  return {extended::multi_outcome(db, frame, passes), work};
}

}  // namespace atm::tasks::assoc
