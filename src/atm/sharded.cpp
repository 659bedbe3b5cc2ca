#include "src/atm/sharded.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <numeric>

#include "src/atm/reference/collision.hpp"
#include "src/core/check.hpp"
#include "src/core/kern/kernels.hpp"
#include "src/core/vec2.hpp"

namespace atm::tasks::sharded {

using airfield::kDiscarded;
using airfield::kNone;
using airfield::MatchState;

namespace {

/// Items per dynamically claimed chunk for the flat phases, and radars per
/// unsharded Task 1 coverage task.
constexpr std::size_t kChunk = 64;
/// Aircraft per Tasks 2+3 task: each one scans the whole region, so small
/// tasks keep the workers balanced.
constexpr std::size_t kAircraftChunk = 8;

constexpr auto kUnmatched = static_cast<std::int8_t>(MatchState::kUnmatched);
constexpr auto kMatched = static_cast<std::int8_t>(MatchState::kMatched);

/// Reset `t` for a run; returns the sector count (0 = unsharded). The
/// params contract bounds sectors_per_axis.
std::size_t begin_telemetry(ShardTelemetry& t, core::spatial::ShardMode shard,
                            int sectors_per_axis) {
  const auto axis = shard == core::spatial::ShardMode::kSectors
                        ? static_cast<std::size_t>(sectors_per_axis)
                        : std::size_t{0};
  t = ShardTelemetry{};
  t.sector_owned.assign(axis * axis, 0);
  t.sector_candidates.assign(axis * axis, 0);
  return axis * axis;
}

/// Records the sector tasks gathered into their snapshots.
std::uint64_t gathered(const ShardTelemetry& t) {
  return std::accumulate(t.sector_candidates.begin(),
                         t.sector_candidates.end(), std::uint64_t{0});
}

/// The expected positions one Task 1 coverage task scans: `n` slots of
/// (ex, ey) with their aircraft ids (`id` null: the slot is the id), the
/// slots to test (`eligible` null: every slot; `tests` is their count)
/// and, under kGrid, the grid binning the tested slots.
struct CoverRegion {
  const double* ex = nullptr;
  const double* ey = nullptr;
  std::size_t n = 0;
  const std::int32_t* id = nullptr;
  const std::uint8_t* eligible = nullptr;
  std::size_t tests = 0;
  const core::spatial::UniformGrid2D* grid = nullptr;
};

/// One coverage task's work, summed after the join. Each task's slot is
/// its own cache line: neighbouring tasks bump theirs concurrently.
struct alignas(64) CoverTally {
  std::uint64_t reads = 0;  ///< Slots swept (brute) or enumerated (grid).
  std::uint64_t tests = 0;  ///< Box tests.
  std::uint64_t lanes = 0;  ///< SIMD tail lanes masked off.
  std::uint64_t hits = 0;   ///< Coverage adds.
};

/// Box-test active radar r against `region`: radar r's nhits/hit_id (its
/// own slots) and a relaxed add to each covered aircraft's coverage count
/// (adds commute, so the result is order-independent). `cand` and `hits`
/// are the task's buffers; `hits` holds region.n entries.
void cover_radar(const CoverRegion& region, const airfield::RadarFrame& frame,
                 std::size_t r, double half, core::kern::Kernel kernel,
                 reference::Task1Scratch& t1, std::vector<std::int32_t>& cand,
                 std::vector<std::int32_t>& hits, CoverTally& tally) {
  const double rx = frame.rx[r];
  const double ry = frame.ry[r];
  std::size_t hit_count = 0;
  if (region.grid != nullptr) {
    cand.clear();
    region.grid->for_each_in_box(
        rx - half, rx + half, ry - half, ry + half,
        [&](std::size_t k) { cand.push_back(static_cast<std::int32_t>(k)); });
    tally.reads += cand.size();
    tally.tests += cand.size();
    hit_count = core::kern::box_test_batch_indexed(
        kernel, region.ex, region.ey, cand.data(), cand.size(), rx, ry, half,
        hits.data(), &tally.lanes);
  } else {
    // Brute force sweeps the whole region, but only the eligible slots
    // are box tests (the kernel masks the rest off at emission).
    tally.reads += region.n;
    tally.tests += region.tests;
    hit_count = core::kern::box_test_batch(kernel, region.ex, region.ey,
                                           region.n, region.eligible, rx, ry,
                                           half, hits.data(), &tally.lanes);
  }
  // hit_id is only read when the radar has exactly one hit, so keeping the
  // last one is enough.
  tally.hits += hit_count;
  t1.nhits[r] = static_cast<std::int32_t>(hit_count);
  t1.hit_id[r] = kNone;
  for (std::size_t h = 0; h < hit_count; ++h) {
    const std::int32_t a = region.id != nullptr ? region.id[hits[h]] : hits[h];
    t1.hit_id[r] = a;
    std::atomic_ref<std::int32_t>(t1.nradars[static_cast<std::size_t>(a)])
        .fetch_add(1, std::memory_order_relaxed);
  }
}

/// One Tasks 2+3 task's counts, summed after the join; one cache line per
/// task, as CoverTally.
struct alignas(64) ResolveTally {
  std::uint64_t conflicts = 0, critical = 0, resolved = 0, unresolved = 0;
  std::uint64_t rescans = 0;
  std::uint64_t reads = 0;  ///< Records [13]'s scans read: its whole
                            ///< region per detection and per trial.
  reference::ScanWork work;
};

/// Tasks 2+3 for aircraft `id` against `region`: detection on its current
/// path, then, when the soonest conflict is critical, the trial rotations
/// against everyone's original path until one clears. Writes aircraft
/// id's own record and resolved flag only. Each scan charges `reads`
/// records: the region [13] would scan for this aircraft.
void detect_and_resolve_one(airfield::FlightDb& db,
                            std::vector<std::uint8_t>& resolved,
                            std::int32_t id,
                            const reference::ScanRegion& region,
                            std::uint64_t reads, const Task23Params& params,
                            core::kern::Kernel kernel, ResolveTally& t) {
  const auto i = static_cast<std::size_t>(id);
  // The calling pool worker's scan buffers, shared by every task it runs
  // (the pool has no worker ids; thread_local buffers persist across
  // tasks and runs).
  thread_local reference::ScanScratch scan;
  t.reads += reads;
  const reference::DetectOutcome det = reference::scan_candidates(
      region, id, db.x[i], db.y[i], db.alt[i], db.dx[i], db.dy[i], params,
      kernel, t.work, scan);
  if (det.conflict) {
    ++t.conflicts;
    db.col[i] = 1;
    db.col_with[i] = det.partner;
    if (det.time_min < db.time_till[i]) db.time_till[i] = det.time_min;
  }
  if (!det.critical) return;
  ++t.critical;
  reference::TrialScan trials(region, id, db.x[i], db.y[i], db.alt[i],
                              params, kernel, scan);
  const core::Vec2 vel{db.dx[i], db.dy[i]};
  const int attempts = reference::max_trial_attempts(params);
  for (int attempt = 0; attempt < attempts; ++attempt) {
    const core::Vec2 trial = core::rotate_deg(
        vel, reference::trial_angle_deg(attempt, params.turn_step_deg));
    ++t.rescans;
    // [13] rescans its whole region per trial, and the model charges that
    // read although the host reads only the gate list.
    t.reads += reads;
    if (!trials.critical(trial.x, trial.y, t.work)) {
      db.batx[i] = trial.x;
      db.baty[i] = trial.y;
      resolved[i] = 1;
      ++t.resolved;
      return;
    }
  }
  ++t.unresolved;
}

}  // namespace

void begin_correlation(airfield::FlightDb& db, airfield::RadarFrame& frame,
                       mimd::ThreadPool& pool, reference::Task1Scratch& t1) {
  t1.resize(db.size(), frame.size());
  db.reset_correlation_state();
  frame.reset_matches();
  std::fill(t1.amatch.begin(), t1.amatch.end(), kNone);
  pool.parallel_for(0, db.size(), kChunk, [&](std::size_t i) {
    t1.ex[i] = db.x[i] + db.dx[i];
    t1.ey[i] = db.y[i] + db.dy[i];
  });
}

std::size_t mark_eligible(const airfield::FlightDb& db,
                          reference::Task1Scratch& t1) {
  std::size_t count = 0;
  for (std::size_t a = 0; a < db.size(); ++a) {
    const bool e = db.rmatch[a] == kUnmatched;
    t1.eligible[a] = e ? 1 : 0;
    count += e ? 1u : 0u;
  }
  return count;
}

void commit_tracks(airfield::FlightDb& db, const airfield::RadarFrame& frame,
                   mimd::ThreadPool& pool, const reference::Task1Scratch& t1) {
  pool.parallel_for(0, db.size(), kChunk, [&](std::size_t a) {
    if (db.rmatch[a] == kMatched && t1.amatch[a] >= 0) {
      const auto r = static_cast<std::size_t>(t1.amatch[a]);
      db.x[a] = frame.rx[r];
      db.y[a] = frame.ry[r];
    } else {
      db.x[a] = t1.ex[a];
      db.y[a] = t1.ey[a];
    }
  });
}

Task1Stats correlate_and_track(airfield::FlightDb& db,
                               airfield::RadarFrame& frame,
                               mimd::ThreadPool& pool, ShardScratch& scratch,
                               const Task1Params& params,
                               ShardTelemetry* telemetry) {
  const std::size_t n = db.size();
  Task1Work work;
  int passes = 0;
  const core::kern::Kernel kernel = core::kern::resolve(params.kernel);
  work.kernel = static_cast<int>(kernel);
  check_task1_params(params);
  ShardTelemetry local_telemetry;
  ShardTelemetry& tele = telemetry != nullptr ? *telemetry : local_telemetry;
  const std::size_t sectors =
      begin_telemetry(tele, params.shard, params.sectors_per_axis);
  work.sectors = static_cast<int>(sectors);
  reference::Task1Scratch& t1 = scratch.task1;

  begin_correlation(db, frame, pool, t1);
  ++tele.parallel_regions;

  // One coverage task per sector, or per kChunk radars unsharded; each
  // keeps its tally slot across passes.
  std::vector<CoverTally> tally(sectors > 0 ? sectors
                                            : (frame.size() + kChunk - 1) /
                                                  kChunk);
  const bool use_grid =
      params.broadphase == core::spatial::BroadphaseMode::kGrid;
  const int total_passes = 1 + params.retries;
  double prev_half = 0.0;
  for (int pass = 0; pass < total_passes; ++pass) {
    const bool any_active =
        std::any_of(frame.rmatch_with.begin(), frame.rmatch_with.end(),
                    [](std::int32_t m) { return m == kNone; });
    if (!any_active) break;
    ++passes;
    const double half = params.box_half_nm * static_cast<double>(1 << pass);
    ATM_CHECK_MSG(half > prev_half && std::isfinite(half),
                  "correlation box failed to grow: pass=" << pass << " half="
                                                          << half << " prev="
                                                          << prev_half);
    prev_half = half;

    std::fill(t1.nradars.begin(), t1.nradars.end(), 0);
    const std::size_t eligible_count = mark_eligible(db, t1);

    if (sectors == 0) {
      // The whole table: every active radar against the shared expected
      // positions, all of them eligibility-masked, or the grid cells its
      // box overlaps. The buffers are per thread (the pool has no worker
      // ids; thread_local buffers persist across tasks and runs).
      if (use_grid) {
        t1.grid.build(t1.ex, t1.ey, t1.eligible, /*cell_hint_nm=*/2.0 * half);
      }
      const CoverRegion region{.ex = t1.ex.data(),
                               .ey = t1.ey.data(),
                               .n = n,
                               .eligible = t1.eligible.data(),
                               .tests = eligible_count,
                               .grid = use_grid ? &t1.grid : nullptr};
      pool.parallel_for(0, tally.size(), 1, [&](std::size_t task) {
        thread_local std::vector<std::int32_t> cand;
        thread_local std::vector<std::int32_t> hits;
        hits.resize(n);
        const std::size_t end = std::min(frame.size(), (task + 1) * kChunk);
        for (std::size_t r = task * kChunk; r < end; ++r) {
          if (frame.rmatch_with[r] != kNone) continue;
          cover_radar(region, frame, r, half, kernel, t1, cand, hits,
                      tally[task]);
        }
      });
    } else {
      // Partition the eligible expected positions; a radar's box only
      // reaches `half` per axis, so that is the halo reach. Rebuilt per
      // pass: the box doubles and the eligible set shrinks.
      scratch.sectors.resize(sectors);
      scratch.partition.build(t1.ex, t1.ey, t1.eligible,
                              /*halo_reach_nm=*/half,
                              params.sectors_per_axis);
      work.halo_candidates += scratch.partition.halo_total();

      // Assign the still-active radars to sectors by position (CSR).
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
      // sector's radars against it. The partition was built over eligible
      // aircraft only, so every snapshot slot is a test.
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
        buf.hits.resize(cand.size());
        const CoverRegion region{.ex = buf.ex.data(),
                                 .ey = buf.ey.data(),
                                 .n = cand.size(),
                                 .id = buf.id.data(),
                                 .tests = cand.size(),
                                 .grid = use_grid ? &buf.grid : nullptr};
        for (const std::int32_t radar : radars) {
          cover_radar(region, frame, static_cast<std::size_t>(radar), half,
                      kernel, t1, buf.cand, buf.hits, tally[s]);
        }
      });
    }
    ++tele.parallel_regions;

    // Ambiguity (the pool join above made every coverage add visible).
    pool.parallel_for(0, n, kChunk, [&](std::size_t a) {
      if (db.rmatch[a] == kUnmatched && t1.nradars[a] >= 2) {
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
          db.rmatch[ai] = kMatched;
          t1.amatch[ai] = static_cast<std::int32_t>(r);
        }
      }
    });
    ++tele.parallel_regions;
  }

  commit_tracks(db, frame, pool, t1);
  ++tele.parallel_regions;
  const Task1Outcome outcome = reference::task1_outcome(db, frame, passes);

  std::uint64_t hits = 0;
  for (const CoverTally& t : tally) {
    work.box_tests += t.tests;
    work.lanes_masked += t.lanes;
    tele.inner_ops += t.reads;
    hits += t.hits;
  }
  // [13]'s lock charge: sharded, one per gathered record; unsharded, a
  // reader lock per record read plus a write lock per coverage add and
  // per correlation.
  tele.locked_ops = sectors > 0 ? gathered(tele)
                                : tele.inner_ops + hits + outcome.matched;
  return {outcome, work};
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
  check_task23_params(params);
  check_motion_finite(db);
  ShardTelemetry local_telemetry;
  ShardTelemetry& tele = telemetry != nullptr ? *telemetry : local_telemetry;
  const std::size_t sectors =
      begin_telemetry(tele, params.shard, params.sectors_per_axis);
  stats.sectors = static_cast<int>(sectors);
  scratch.resolved.assign(n, 0);

  db.reset_collision_state();

  // One serially sorted snapshot of every aircraft (reference/collision.hpp),
  // scanned read-only by every task in both shard modes.
  const reference::ScanRegion& region = scratch.region.build(db, params);

  // Sharded, the partition only sets the charge and the telemetry: [13]'s
  // sector task would gather its owned + halo records and scan them once
  // per detection and per trial. Halo reach: a pair conflicting inside
  // the horizon is currently at most band + (|v_i| + |v_j|) * horizon
  // apart per axis, and a Task-3 trial rotation preserves |v_i| (see
  // sharded.hpp).
  if (sectors > 0) {
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
    for (std::size_t s = 0; s < sectors; ++s) {
      tele.sector_owned[s] = scratch.partition.owned(s).size();
      if (tele.sector_owned[s] > 0) {
        tele.sector_candidates[s] = scratch.partition.candidates(s).size();
      }
    }
  }
  const auto scan_reads = [&](std::size_t i) -> std::uint64_t {
    if (sectors == 0) return n;
    return tele.sector_candidates[static_cast<std::size_t>(
        scratch.partition.owner_of(i))];
  };

  // One task per kAircraftChunk aircraft. Every db write targets the
  // task's own aircraft, and the scans read the snapshot, not the db.
  std::vector<ResolveTally> tally((n + kAircraftChunk - 1) / kAircraftChunk);
  pool.parallel_for(0, tally.size(), 1, [&](std::size_t task) {
    const std::size_t end = std::min(n, (task + 1) * kAircraftChunk);
    for (std::size_t i = task * kAircraftChunk; i < end; ++i) {
      detect_and_resolve_one(db, scratch.resolved,
                             static_cast<std::int32_t>(i), region,
                             scan_reads(i), params, kernel, tally[task]);
    }
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

  std::uint64_t reads = 0;
  for (const ResolveTally& t : tally) {
    stats.conflicts += t.conflicts;
    stats.critical += t.critical;
    stats.resolved += t.resolved;
    stats.unresolved += t.unresolved;
    stats.rescans += t.rescans;
    stats.pair_tests += t.work.pair_tests;
    stats.pair_candidates += t.work.pair_candidates;
    stats.lanes_masked += t.work.lanes_masked;
    reads += t.reads;
  }
  // Records read: the index's enumerated candidates under kGrid, [13]'s
  // region sweeps under brute force.
  tele.inner_ops =
      params.broadphase == core::spatial::BroadphaseMode::kGrid
          ? stats.pair_candidates
          : reads;
  // [13]'s lock charge: sharded, one per gathered record; unsharded, a
  // reader lock per record read plus a write lock per conflict flagged
  // and per trial path stored.
  tele.locked_ops =
      sectors > 0 ? gathered(tele)
                  : tele.inner_ops + stats.conflicts + stats.resolved;
  return stats;
}

}  // namespace atm::tasks::sharded
