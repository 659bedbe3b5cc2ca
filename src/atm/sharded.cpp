#include "src/atm/sharded.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>

#include "src/atm/reference/collision.hpp"
#include "src/core/check.hpp"
#include "src/core/kern/kernels.hpp"
#include "src/core/vec2.hpp"

namespace atm::tasks::sharded {

using airfield::kDiscarded;
using airfield::kNone;
using airfield::MatchState;

namespace {

/// Items per dynamically claimed chunk for the flat (non-sector) phases.
constexpr std::size_t kChunk = 64;

void reset_telemetry(ShardTelemetry& t, std::size_t sectors) {
  t.sectors = static_cast<int>(sectors);
  t.gather_ops = 0;
  t.inner_ops = 0;
  t.parallel_regions = 0;
  t.sector_owned.assign(sectors, 0);
  t.sector_candidates.assign(sectors, 0);
}

}  // namespace

Task1Stats correlate_and_track(airfield::FlightDb& db,
                               airfield::RadarFrame& frame,
                               mimd::ThreadPool& pool, ShardScratch& scratch,
                               const Task1Params& params,
                               ShardTelemetry* telemetry) {
  const std::size_t n = db.size();
  Task1Stats stats;
  stats.radars = frame.size();
  const core::kern::Kernel kernel = core::kern::resolve(params.kernel);
  stats.kernel = static_cast<int>(kernel);
  check_task1_params(params);
  ATM_CHECK_MSG(params.sectors_per_axis >= 1,
                "degenerate sharded correlation params: sectors_per_axis="
                    << params.sectors_per_axis);

  const auto sectors =
      static_cast<std::size_t>(params.sectors_per_axis) *
      static_cast<std::size_t>(params.sectors_per_axis);
  stats.sectors = static_cast<int>(sectors);
  ShardTelemetry local_telemetry;
  ShardTelemetry& tele = telemetry != nullptr ? *telemetry : local_telemetry;
  reset_telemetry(tele, sectors);
  scratch.sectors.resize(sectors);
  scratch.task1.resize(n, frame.size());
  reference::Task1Scratch& t1 = scratch.task1;

  db.reset_correlation_state();
  frame.reset_matches();
  std::fill(t1.amatch.begin(), t1.amatch.end(), kNone);

  // Expected positions (parallel region).
  pool.parallel_for(0, n, kChunk, [&](std::size_t i) {
    t1.ex[i] = db.x[i] + db.dx[i];
    t1.ey[i] = db.y[i] + db.dy[i];
  });
  ++tele.parallel_regions;

  // Per-sector work and box-test counts, filled by the sector tasks and
  // summed after the join (deterministic, no shared accumulators).
  std::vector<std::uint64_t> sector_tests(sectors, 0);
  std::vector<std::uint64_t> sector_inner(sectors, 0);
  std::vector<std::uint64_t> sector_lanes(sectors, 0);

  const bool use_grid =
      params.broadphase == core::spatial::BroadphaseMode::kGrid;
  const int total_passes = 1 + params.retries;
  double prev_half = 0.0;
  for (int pass = 0; pass < total_passes; ++pass) {
    const bool any_active =
        std::any_of(frame.rmatch_with.begin(), frame.rmatch_with.end(),
                    [](std::int32_t m) { return m == kNone; });
    if (!any_active) break;
    ++stats.passes;
    const double half = params.box_half_nm * static_cast<double>(1 << pass);
    ATM_CHECK_MSG(half > prev_half && std::isfinite(half),
                  "correlation box failed to grow: pass=" << pass << " half="
                                                          << half << " prev="
                                                          << prev_half);
    prev_half = half;

    std::fill(t1.nhits.begin(), t1.nhits.end(), 0);
    std::fill(t1.hit_id.begin(), t1.hit_id.end(), kNone);
    std::fill(t1.nradars.begin(), t1.nradars.end(), 0);
    for (std::size_t a = 0; a < n; ++a) {
      t1.eligible[a] =
          db.rmatch[a] == static_cast<std::int8_t>(MatchState::kUnmatched)
              ? 1
              : 0;
    }

    // Partition the eligible expected positions; a radar's box only
    // reaches `half` per axis, so that is the halo reach. Rebuilt per
    // pass: the box doubles and the eligible set shrinks.
    scratch.partition.build(t1.ex, t1.ey, t1.eligible, /*halo_reach_nm=*/half,
                            params.sectors_per_axis);
    stats.halo_candidates += scratch.partition.halo_total();

    // Assign the still-active radars to sectors by position (CSR build).
    scratch.radar_start.assign(sectors + 1, 0);
    for (std::size_t r = 0; r < frame.size(); ++r) {
      if (frame.rmatch_with[r] != kNone) continue;
      const int s = scratch.partition.sector_of(frame.rx[r], frame.ry[r]);
      ++scratch.radar_start[static_cast<std::size_t>(s) + 1];
    }
    for (std::size_t s = 0; s < sectors; ++s) {
      scratch.radar_start[s + 1] += scratch.radar_start[s];
    }
    scratch.radar_ids.resize(
        static_cast<std::size_t>(scratch.radar_start[sectors]));
    {
      std::vector<std::int32_t> cursor(scratch.radar_start.begin(),
                                       scratch.radar_start.end() - 1);
      for (std::size_t r = 0; r < frame.size(); ++r) {
        if (frame.rmatch_with[r] != kNone) continue;
        const auto s = static_cast<std::size_t>(
            scratch.partition.sector_of(frame.rx[r], frame.ry[r]));
        scratch.radar_ids[static_cast<std::size_t>(cursor[s]++)] =
            static_cast<std::int32_t>(r);
      }
    }

    // One task per sector: gather the candidate snapshot, then scan the
    // sector's radars against it. nhits/hit_id are per-radar (each radar
    // owned by one sector task); the shared per-aircraft coverage count
    // uses commutative relaxed adds, so the result is order-independent.
    pool.parallel_for(0, sectors, 1, [&](std::size_t s) {
      const std::span<const std::int32_t> radars{
          scratch.radar_ids.data() + scratch.radar_start[s],
          static_cast<std::size_t>(scratch.radar_start[s + 1] -
                                   scratch.radar_start[s])};
      const std::span<const std::int32_t> cand =
          scratch.partition.candidates(s);
      tele.sector_owned[s] += radars.size();
      if (radars.empty()) return;
      tele.sector_candidates[s] += cand.size();

      ShardScratch::SectorBuffers& buf = scratch.sectors[s];
      buf.ex.resize(cand.size());
      buf.ey.resize(cand.size());
      buf.id.assign(cand.begin(), cand.end());
      for (std::size_t k = 0; k < cand.size(); ++k) {
        const auto a = static_cast<std::size_t>(cand[k]);
        buf.ex[k] = t1.ex[a];
        buf.ey[k] = t1.ey[a];
      }
      if (use_grid) {
        buf.grid.build(buf.ex, buf.ey, {}, /*cell_hint_nm=*/2.0 * half);
      }

      std::uint64_t local_tests = 0;
      std::uint64_t local_ops = 0;
      std::uint64_t local_lanes = 0;
      buf.hits.resize(cand.size());
      for (const std::int32_t radar : radars) {
        const auto r = static_cast<std::size_t>(radar);
        // The partition was built over eligible aircraft only, so every
        // snapshot slot is a test candidate (eligible = nullptr). Hit
        // slots come back in enumeration order; the coverage adds stay
        // relaxed-atomic (commutative) exactly as before.
        std::size_t hit_count = 0;
        if (use_grid) {
          buf.cand.clear();
          buf.grid.for_each_in_box(
              frame.rx[r] - half, frame.rx[r] + half, frame.ry[r] - half,
              frame.ry[r] + half, [&](std::size_t k) {
                buf.cand.push_back(static_cast<std::int32_t>(k));
              });
          local_ops += buf.cand.size();
          local_tests += buf.cand.size();
          hit_count = core::kern::box_test_batch_indexed(
              kernel, buf.ex.data(), buf.ey.data(), buf.cand.data(),
              buf.cand.size(), frame.rx[r], frame.ry[r], half,
              buf.hits.data(), &local_lanes);
        } else {
          local_ops += cand.size();
          local_tests += cand.size();
          hit_count = core::kern::box_test_batch(
              kernel, buf.ex.data(), buf.ey.data(), cand.size(),
              /*eligible=*/nullptr, frame.rx[r], frame.ry[r], half,
              buf.hits.data(), &local_lanes);
        }
        for (std::size_t h = 0; h < hit_count; ++h) {
          const auto k = static_cast<std::size_t>(buf.hits[h]);
          ++t1.nhits[r];
          t1.hit_id[r] = buf.id[k];
          std::atomic_ref<std::int32_t> coverage(
              t1.nradars[static_cast<std::size_t>(buf.id[k])]);
          coverage.fetch_add(1, std::memory_order_relaxed);
        }
      }
      sector_tests[s] += local_tests;
      sector_inner[s] += local_ops;
      sector_lanes[s] += local_lanes;
    });
    ++tele.parallel_regions;

    // Ambiguity (the pool join above made every coverage add visible).
    pool.parallel_for(0, n, kChunk, [&](std::size_t a) {
      if (db.rmatch[a] ==
              static_cast<std::int8_t>(MatchState::kUnmatched) &&
          t1.nradars[a] >= 2) {
        db.rmatch[a] = static_cast<std::int8_t>(MatchState::kAmbiguous);
      }
    });
    ++tele.parallel_regions;

    // Radar disposition. Single-writer everywhere: rmatch_with[r] belongs
    // to radar r, and the aircraft write is guarded by nradars == 1 —
    // exactly one active radar covers that aircraft this pass.
    pool.parallel_for(0, frame.size(), kChunk, [&](std::size_t r) {
      if (frame.rmatch_with[r] != kNone) return;
      if (t1.nhits[r] >= 2) {
        frame.rmatch_with[r] = kDiscarded;
        return;
      }
      if (t1.nhits[r] == 1) {
        const std::int32_t a = t1.hit_id[r];
        frame.rmatch_with[r] = a;
        const auto ai = static_cast<std::size_t>(a);
        if (t1.nradars[ai] == 1) {
          db.rmatch[ai] = static_cast<std::int8_t>(MatchState::kMatched);
          t1.amatch[ai] = static_cast<std::int32_t>(r);
        }
      }
    });
    ++tele.parallel_regions;
  }

  // Commit.
  pool.parallel_for(0, n, kChunk, [&](std::size_t a) {
    if (db.rmatch[a] == static_cast<std::int8_t>(MatchState::kMatched) &&
        t1.amatch[a] >= 0) {
      const auto r = static_cast<std::size_t>(t1.amatch[a]);
      db.x[a] = frame.rx[r];
      db.y[a] = frame.ry[r];
    } else {
      db.x[a] = t1.ex[a];
      db.y[a] = t1.ey[a];
    }
  });
  ++tele.parallel_regions;

  // Outcome stats.
  for (const std::int32_t m : frame.rmatch_with) {
    if (m == kNone) ++stats.unmatched_radars;
    if (m == kDiscarded) ++stats.discarded_radars;
  }
  for (std::size_t a = 0; a < n; ++a) {
    if (db.rmatch[a] == static_cast<std::int8_t>(MatchState::kAmbiguous)) {
      ++stats.ambiguous_aircraft;
    }
    if (db.rmatch[a] == static_cast<std::int8_t>(MatchState::kMatched) &&
        t1.amatch[a] >= 0) {
      ++stats.matched;
      ++stats.updated_aircraft;
    }
  }

  for (std::size_t s = 0; s < sectors; ++s) {
    stats.box_tests += sector_tests[s];
    stats.lanes_masked += sector_lanes[s];
    tele.inner_ops += sector_inner[s];
    tele.gather_ops += tele.sector_candidates[s];
  }
  return stats;
}

Task23Stats detect_and_resolve(airfield::FlightDb& db,
                               mimd::ThreadPool& pool, ShardScratch& scratch,
                               const Task23Params& params,
                               ShardTelemetry* telemetry) {
  const std::size_t n = db.size();
  Task23Stats stats;
  stats.aircraft = n;
  const core::kern::Kernel kernel = core::kern::resolve(params.kernel);
  stats.kernel = static_cast<int>(kernel);
  ATM_CHECK_MSG(params.sectors_per_axis >= 1,
                "degenerate shard params: sectors_per_axis="
                    << params.sectors_per_axis);

  const auto sectors =
      static_cast<std::size_t>(params.sectors_per_axis) *
      static_cast<std::size_t>(params.sectors_per_axis);
  stats.sectors = static_cast<int>(sectors);
  ShardTelemetry local_telemetry;
  ShardTelemetry& tele = telemetry != nullptr ? *telemetry : local_telemetry;
  reset_telemetry(tele, sectors);
  scratch.sectors.resize(sectors);
  scratch.resolved.assign(n, 0);

  db.reset_collision_state();

  // Halo reach: a pair conflicting inside the horizon is currently at
  // most band + (|v_i| + |v_j|) * horizon apart per axis, and a Task-3
  // trial rotation preserves |v_i|. At paper horizons this saturates the
  // field — the candidate sets then carry everyone and the win is the
  // per-sector parallel execution, not pruning (see sharded.hpp).
  double max_speed = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double s2 = db.dx[i] * db.dx[i] + db.dy[i] * db.dy[i];
    max_speed = std::max(max_speed, s2);
  }
  max_speed = std::sqrt(max_speed);
  const double reach =
      params.band_nm + 2.0 * max_speed * params.horizon_periods;
  scratch.partition.build(db.x, db.y, {}, reach, params.sectors_per_axis);
  stats.halo_candidates = scratch.partition.halo_total();

  const bool use_index =
      params.broadphase == core::spatial::BroadphaseMode::kGrid;
  const int attempts = reference::max_trial_attempts(params);

  // Per-sector outcome/work slots, summed deterministically after the
  // join.
  struct SectorTally {
    std::uint64_t conflicts = 0, critical = 0, resolved = 0, unresolved = 0;
    std::uint64_t rescans = 0, inner_ops = 0;
    reference::ScanWork work;
  };
  std::vector<SectorTally> tally(sectors);

  // One task per sector: gather the snapshot (positions, velocities,
  // altitudes of owned + halo), optionally build the sector's swept
  // index and re-gather the snapshot in its bucket order, then run
  // detection and the trial rotations for every owned aircraft against
  // the snapshot. All db writes target owned aircraft — the owner
  // partition is disjoint, so every write has one writer; the snapshot
  // fields (x/y/dx/dy/alt) are never written before the commit phase
  // below, so concurrent gathers race with nothing.
  pool.parallel_for(0, sectors, 1, [&](std::size_t s) {
    const std::span<const std::int32_t> owned = scratch.partition.owned(s);
    const std::span<const std::int32_t> cand =
        scratch.partition.candidates(s);
    tele.sector_owned[s] = owned.size();
    if (owned.empty()) return;
    tele.sector_candidates[s] = cand.size();

    ShardScratch::SectorBuffers& buf = scratch.sectors[s];
    buf.snap.gather(db, cand);
    buf.id.assign(cand.begin(), cand.end());
    const core::spatial::SweptIndex* index = nullptr;
    if (use_index) {
      buf.swept.build(buf.snap.x, buf.snap.y, buf.snap.dx, buf.snap.dy,
                      buf.snap.alt, reference::swept_index_params(params));
      const std::span<const std::int32_t> order = buf.swept.order();
      for (std::size_t k = 0; k < order.size(); ++k) {
        buf.id[k] = cand[static_cast<std::size_t>(order[k])];
      }
      buf.snap.gather(db, buf.id);
      index = &buf.swept;
    }

    // Detection through the shared scan: the sector's snapshot view with
    // buf.id as the slot -> aircraft map, so self-exclusion, the
    // (time_min, id) tie-break, and the reported partner all use global
    // ids — identical to the monolithic scan over a candidate superset.
    const core::kern::SoaView view = buf.snap.view();
    SectorTally& t = tally[s];
    for (const std::int32_t id : owned) {
      const auto i = static_cast<std::size_t>(id);
      std::uint64_t scans = 1;
      const reference::DetectOutcome det = reference::scan_candidates(
          view, buf.id.data(), id, db.x[i], db.y[i], db.alt[i], db.dx[i],
          db.dy[i], params, kernel, t.work, /*stop_at_critical=*/false,
          index, buf.scan);
      if (det.conflict) {
        ++t.conflicts;
        db.col[i] = 1;
        db.col_with[i] = det.partner;
        if (det.time_min < db.time_till[i]) db.time_till[i] = det.time_min;
      }
      if (det.critical) {
        ++t.critical;
        const core::Vec2 vel{db.dx[i], db.dy[i]};
        bool ok = false;
        for (int attempt = 0; attempt < attempts; ++attempt) {
          const double angle =
              reference::trial_angle_deg(attempt, params.turn_step_deg);
          const core::Vec2 trial = core::rotate_deg(vel, angle);
          ++t.rescans;
          ++scans;
          const reference::DetectOutcome check = reference::scan_candidates(
              view, buf.id.data(), id, db.x[i], db.y[i], db.alt[i],
              trial.x, trial.y, params, kernel, t.work,
              /*stop_at_critical=*/true, index, buf.scan);
          if (!check.critical) {
            db.batx[i] = trial.x;
            db.baty[i] = trial.y;
            scratch.resolved[i] = 1;
            ok = true;
            break;
          }
        }
        if (ok) {
          ++t.resolved;
        } else {
          ++t.unresolved;
        }
      }
      t.inner_ops += use_index ? 0 : scans * cand.size();
    }
    if (use_index) t.inner_ops += t.work.pair_candidates;
  });
  ++tele.parallel_regions;

  // Commit.
  pool.parallel_for(0, n, kChunk, [&](std::size_t i) {
    if (!scratch.resolved[i]) return;
    db.dx[i] = db.batx[i];
    db.dy[i] = db.baty[i];
    db.col[i] = 0;
    db.col_with[i] = kNone;
    db.time_till[i] = params.critical_periods;
  });
  ++tele.parallel_regions;

  for (std::size_t s = 0; s < sectors; ++s) {
    const SectorTally& t = tally[s];
    stats.conflicts += t.conflicts;
    stats.critical += t.critical;
    stats.resolved += t.resolved;
    stats.unresolved += t.unresolved;
    stats.rescans += t.rescans;
    stats.pair_tests += t.work.pair_tests;
    stats.pair_candidates += t.work.pair_candidates;
    stats.lanes_masked += t.work.lanes_masked;
    tele.inner_ops += t.inner_ops;
    tele.gather_ops += tele.sector_candidates[s];
  }
  return stats;
}

}  // namespace atm::tasks::sharded
