#include "src/atm/mimd_backend.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>

#include "src/atm/extended/display.hpp"
#include "src/atm/extended/sporadic.hpp"
#include "src/atm/extended/terrain_task.hpp"
#include "src/atm/reference/collision.hpp"
#include "src/core/kern/kernels.hpp"
#include "src/core/units.hpp"
#include "src/core/vec2.hpp"

namespace atm::tasks {

using airfield::kDiscarded;
using airfield::kNone;
using airfield::MatchState;

namespace {
/// Items per dynamically claimed chunk. Small enough for load balance,
/// large enough that chunk claiming doesn't dominate.
constexpr std::size_t kChunk = 64;
}  // namespace

MimdBackend::MimdBackend(mimd::XeonSpec spec, unsigned pool_workers,
                         std::uint64_t jitter_seed)
    : model_(std::move(spec)),
      pool_(pool_workers),
      locks_(128),
      jitter_rng_(jitter_seed) {}

void MimdBackend::load(const airfield::FlightDb& db) {
  db_ = db;
  const std::size_t n = db_.size();
  ex_.resize(n);
  ey_.resize(n);
  nradars_.resize(n);
  amatch_.resize(n);
  resolved_.resize(n);
  eligible_.resize(n);
  best_return_.resize(n);
  best_d2_.resize(n);
}

void MimdBackend::begin_correlation(airfield::RadarFrame& frame,
                                    mimd::WorkCounters& work) {
  db_.reset_correlation_state();
  frame.reset_matches();
  std::fill(amatch_.begin(), amatch_.end(), kNone);
  pool_.parallel_for(0, db_.size(), kChunk, [&](std::size_t i) {
    ex_[i] = db_.x[i] + db_.dx[i];
    ey_[i] = db_.y[i] + db_.dy[i];
  });
  ++work.parallel_regions;
}

std::uint64_t MimdBackend::commit_tracks(const airfield::RadarFrame& frame,
                                         mimd::WorkCounters& work) {
  const auto took_return = [&](std::size_t a) {
    return db_.rmatch[a] == static_cast<std::int8_t>(MatchState::kMatched) &&
           amatch_[a] >= 0;
  };
  pool_.parallel_for(0, db_.size(), kChunk, [&](std::size_t a) {
    if (took_return(a)) {
      const auto r = static_cast<std::size_t>(amatch_[a]);
      db_.x[a] = frame.rx[r];
      db_.y[a] = frame.ry[r];
    } else {
      db_.x[a] = ex_[a];
      db_.y[a] = ey_[a];
    }
  });
  ++work.parallel_regions;
  std::uint64_t matched = 0;
  for (std::size_t a = 0; a < db_.size(); ++a) matched += took_return(a);
  return matched;
}

std::size_t MimdBackend::mark_eligible() {
  std::size_t count = 0;
  for (std::size_t a = 0; a < db_.size(); ++a) {
    const bool e =
        db_.rmatch[a] == static_cast<std::int8_t>(MatchState::kUnmatched);
    eligible_[a] = e ? 1 : 0;
    count += e ? 1u : 0u;
  }
  return count;
}

double MimdBackend::model_work(mimd::WorkCounters work,
                               std::uint64_t reader_ops) {
  const mimd::LockCounts locks = locks_.take_counts();
  work.locked_ops = reader_ops + locks.acquisitions;
  work.contended = locks.contended;
  last_work_ = work;
  return model_.model_ms(work, jitter_rng_);
}

Task1Result MimdBackend::do_run_task1(airfield::RadarFrame& frame,
                                   const Task1Params& params) {
  const std::size_t n = db_.size();
  Task1Result result;

  if (params.shard == core::spatial::ShardMode::kSectors) {
    // Sector-sharded executive: sector tasks gather private snapshots and
    // scan lock-free. The model charges one locked read per gathered
    // record instead of one per inner-loop access — the sharding's whole
    // point is that the [13] shared-record reader locks (and their
    // contention) disappear from the hot loop.
    mimd::WorkCounters work;
    work.items = n;
    sharded::ShardTelemetry telemetry;
    result.stats = sharded::correlate_and_track(db_, frame, pool_,
                                                shard_scratch_, params,
                                                &telemetry);
    work.inner_ops = telemetry.inner_ops;
    work.parallel_regions = telemetry.parallel_regions;
    result.modeled_ms = model_work(work, telemetry.gather_ops);
    emit_sector_counters("task1", telemetry);
    return result;
  }

  result.stats.radars = frame.size();
  const core::kern::Kernel kernel = core::kern::resolve(params.kernel);
  result.stats.kernel = static_cast<int>(kernel);
  // Per-radar scratch; the frame can carry more returns than aircraft.
  nhits_.resize(frame.size());
  hit_id_.resize(frame.size());

  mimd::WorkCounters work;
  work.items = n;
  std::atomic<std::uint64_t> inner_ops{0};
  std::atomic<std::uint64_t> box_tests{0};
  std::atomic<std::uint64_t> lanes_masked{0};

  begin_correlation(frame, work);

  const int total_passes = 1 + params.retries;
  for (int pass = 0; pass < total_passes; ++pass) {
    const bool any_active =
        std::any_of(frame.rmatch_with.begin(), frame.rmatch_with.end(),
                    [](std::int32_t m) { return m == kNone; });
    if (!any_active) break;
    ++result.stats.passes;
    const double half = params.box_half_nm * static_cast<double>(1 << pass);

    std::fill(nradars_.begin(), nradars_.end(), 0);

    // Eligibility mask, computed serially once per pass for both modes
    // (the kernels consume it brute-force; the grid build bins by it).
    // rmatch is not mutated during the scan, so the hoisted mask equals
    // the historical inline eligibility check and outcomes are identical.
    const bool use_grid =
        params.broadphase == core::spatial::BroadphaseMode::kGrid;
    const std::size_t eligible_count = mark_eligible();
    if (use_grid) {
      grid_.build(ex_, ey_, eligible_, /*cell_hint_nm=*/2.0 * half);
    }

    // Coverage scan: one worker-claimed radar runs a batch box kernel
    // over the shared aircraft table (all of it, eligibility-masked, or
    // just the grid cells under its box); hits on shared per-aircraft
    // counters go through the striped locks. The candidate/hit buffers
    // are per-thread (the pool has no worker ids; thread_local buffers
    // persist across chunks and runs, which is exactly the reuse the
    // scratch wants).
    pool_.parallel_for(0, frame.size(), kChunk, [&](std::size_t r) {
      if (frame.rmatch_with[r] != kNone) return;
      nhits_[r] = 0;
      hit_id_[r] = kNone;
      thread_local std::vector<std::int32_t> cand;
      thread_local std::vector<std::int32_t> hits;
      hits.resize(n);
      std::uint64_t local_ops = 0;
      std::uint64_t local_tests = 0;
      std::uint64_t local_lanes = 0;
      std::size_t hit_count = 0;
      if (use_grid) {
        cand.clear();
        grid_.for_each_in_box(frame.rx[r] - half, frame.rx[r] + half,
                              frame.ry[r] - half, frame.ry[r] + half,
                              [&](std::size_t a) {
                                cand.push_back(static_cast<std::int32_t>(a));
                              });
        local_ops += cand.size();
        local_tests += cand.size();
        hit_count = core::kern::box_test_batch_indexed(
            kernel, ex_.data(), ey_.data(), cand.data(), cand.size(),
            frame.rx[r], frame.ry[r], half, hits.data(), &local_lanes);
      } else {
        // Brute force sweeps the whole shared table (local_ops counts the
        // record reads) but only the eligible records are box tests.
        local_ops += n;
        local_tests += eligible_count;
        hit_count = core::kern::box_test_batch(
            kernel, ex_.data(), ey_.data(), n, eligible_.data(),
            frame.rx[r], frame.ry[r], half, hits.data(), &local_lanes);
      }
      for (std::size_t h = 0; h < hit_count; ++h) {
        const auto a = static_cast<std::size_t>(hits[h]);
        ++nhits_[r];
        hit_id_[r] = hits[h];
        locks_.with_lock(a, [&] { ++nradars_[a]; });
      }
      inner_ops.fetch_add(local_ops, std::memory_order_relaxed);
      // Outcome counter (architecture-independent): eligible box tests.
      // A single shared accumulator must not hide behind per-radar stripe
      // locks (stripe r and stripe r' don't exclude each other — TSan
      // caught the lost updates); accumulate like the other outcome stats.
      box_tests.fetch_add(local_tests, std::memory_order_relaxed);
      lanes_masked.fetch_add(local_lanes, std::memory_order_relaxed);
    });
    ++work.parallel_regions;

    // Ambiguity.
    pool_.parallel_for(0, n, kChunk, [&](std::size_t a) {
      if (db_.rmatch[a] ==
              static_cast<std::int8_t>(MatchState::kUnmatched) &&
          nradars_[a] >= 2) {
        db_.rmatch[a] = static_cast<std::int8_t>(MatchState::kAmbiguous);
      }
    });
    ++work.parallel_regions;

    // Radar disposition; correlation commits write shared aircraft records
    // under their stripe lock.
    pool_.parallel_for(0, frame.size(), kChunk, [&](std::size_t r) {
      if (frame.rmatch_with[r] != kNone) return;
      if (nhits_[r] >= 2) {
        frame.rmatch_with[r] = kDiscarded;
        return;
      }
      if (nhits_[r] == 1) {
        const std::int32_t a = hit_id_[r];
        frame.rmatch_with[r] = a;
        const auto ai = static_cast<std::size_t>(a);
        if (nradars_[ai] == 1) {
          locks_.with_lock(ai, [&] {
            db_.rmatch[ai] = static_cast<std::int8_t>(MatchState::kMatched);
            amatch_[ai] = static_cast<std::int32_t>(r);
          });
        }
      }
    });
    ++work.parallel_regions;
  }

  result.stats.matched = commit_tracks(frame, work);
  result.stats.updated_aircraft = result.stats.matched;

  // Outcome stats.
  for (const std::int32_t m : frame.rmatch_with) {
    if (m == kNone) ++result.stats.unmatched_radars;
    if (m == kDiscarded) ++result.stats.discarded_radars;
  }
  result.stats.ambiguous_aircraft = static_cast<std::uint64_t>(
      std::count(db_.rmatch.begin(), db_.rmatch.end(),
                 static_cast<std::int8_t>(MatchState::kAmbiguous)));

  result.stats.box_tests = box_tests.load();
  result.stats.lanes_masked = lanes_masked.load();
  work.inner_ops = inner_ops.load();
  result.modeled_ms = model_work(work, work.inner_ops);
  return result;
}

Task23Result MimdBackend::do_run_task23(const Task23Params& params) {
  const std::size_t n = db_.size();
  Task23Result result;

  if (params.shard == core::spatial::ShardMode::kSectors) {
    mimd::WorkCounters work;
    work.items = n;
    sharded::ShardTelemetry telemetry;
    result.stats = sharded::detect_and_resolve(db_, pool_, shard_scratch_,
                                               params, &telemetry);
    work.inner_ops = telemetry.inner_ops;
    work.parallel_regions = telemetry.parallel_regions;
    result.modeled_ms = model_work(work, telemetry.gather_ops);
    emit_sector_counters("task23", telemetry);
    return result;
  }

  result.stats.aircraft = n;
  const core::kern::Kernel kernel = core::kern::resolve(params.kernel);
  result.stats.kernel = static_cast<int>(kernel);

  mimd::WorkCounters work;
  work.items = n;
  std::atomic<std::uint64_t> inner_ops{0};
  std::atomic<std::uint64_t> lanes_masked{0};
  std::atomic<std::uint64_t> pair_tests{0}, pair_candidates{0}, rescans{0},
      conflicts{0}, critical{0}, resolved_count{0}, unresolved{0};

  db_.reset_collision_state();
  std::fill(resolved_.begin(), resolved_.end(), 0);

  // One serially gathered snapshot (and, under kGrid, one swept index
  // whose bucket order is the snapshot's slot order) queried read-only by
  // every worker. Valid for the whole scan phase — positions/velocities
  // only change in the commit region below.
  const core::spatial::SweptIndex* index = nullptr;
  const std::int32_t* ids = nullptr;
  if (params.broadphase == core::spatial::BroadphaseMode::kGrid) {
    reference::build_swept_index(db_, params, swept_);
    index = &swept_;
    ids = swept_.order().data();
    snap_.gather(db_, swept_.order());
  } else {
    snap_.gather(db_);
  }
  const core::kern::SoaView view = snap_.view();

  pool_.parallel_for(0, n, /*chunk=*/8, [&](std::size_t i) {
    reference::ScanWork local_work;
    thread_local reference::ScanScratch scratch;
    std::uint64_t scans = 1;  // detection sweep; trials add theirs below
    const reference::DetectOutcome det = reference::scan_candidates(
        view, ids, static_cast<std::int32_t>(i), db_.x[i],
        db_.y[i], db_.alt[i], db_.dx[i], db_.dy[i], params, kernel,
        local_work, /*stop_at_critical=*/false, index, scratch);
    if (det.conflict) {
      conflicts.fetch_add(1, std::memory_order_relaxed);
      locks_.with_lock(i, [&] {
        db_.col[i] = 1;
        db_.col_with[i] = det.partner;
        if (det.time_min < db_.time_till[i]) {
          db_.time_till[i] = det.time_min;
        }
      });
    }
    if (det.critical) {
      critical.fetch_add(1, std::memory_order_relaxed);
      const core::Vec2 vel{db_.dx[i], db_.dy[i]};
      const int attempts = reference::max_trial_attempts(params);
      bool ok = false;
      for (int attempt = 0; attempt < attempts; ++attempt) {
        const double angle =
            reference::trial_angle_deg(attempt, params.turn_step_deg);
        const core::Vec2 trial = core::rotate_deg(vel, angle);
        rescans.fetch_add(1, std::memory_order_relaxed);
        ++scans;
        const reference::DetectOutcome check = reference::scan_candidates(
            view, ids, static_cast<std::int32_t>(i), db_.x[i],
            db_.y[i], db_.alt[i], trial.x, trial.y, params, kernel,
            local_work, /*stop_at_critical=*/true, index, scratch);
        if (!check.critical) {
          locks_.with_lock(i, [&] {
            db_.batx[i] = trial.x;
            db_.baty[i] = trial.y;
            resolved_[i] = 1;
          });
          ok = true;
          break;
        }
      }
      if (ok) {
        resolved_count.fetch_add(1, std::memory_order_relaxed);
      } else {
        unresolved.fetch_add(1, std::memory_order_relaxed);
      }
    }
    // Model input: shared-table record reads this worker really performed
    // — full table sweeps under brute force, enumerated candidates under
    // the grid (the broadphase's whole point is doing fewer of these).
    const std::uint64_t local_ops =
        index != nullptr ? local_work.pair_candidates : scans * n;
    pair_tests.fetch_add(local_work.pair_tests, std::memory_order_relaxed);
    pair_candidates.fetch_add(local_work.pair_candidates,
                              std::memory_order_relaxed);
    inner_ops.fetch_add(local_ops, std::memory_order_relaxed);
    lanes_masked.fetch_add(local_work.lanes_masked,
                           std::memory_order_relaxed);
  });
  ++work.parallel_regions;

  // Commit.
  pool_.parallel_for(0, n, kChunk, [&](std::size_t i) {
    if (!resolved_[i]) return;
    db_.dx[i] = db_.batx[i];
    db_.dy[i] = db_.baty[i];
    db_.col[i] = 0;
    db_.col_with[i] = kNone;
    db_.time_till[i] = params.critical_periods;
  });
  ++work.parallel_regions;

  result.stats.pair_tests = pair_tests.load();
  result.stats.pair_candidates = pair_candidates.load();
  result.stats.rescans = rescans.load();
  result.stats.conflicts = conflicts.load();
  result.stats.critical = critical.load();
  result.stats.resolved = resolved_count.load();
  result.stats.unresolved = unresolved.load();
  result.stats.lanes_masked = lanes_masked.load();

  work.inner_ops = inner_ops.load();
  result.modeled_ms = model_work(work, work.inner_ops);
  return result;
}

// --- Extended system --------------------------------------------------------

TerrainResult MimdBackend::do_run_terrain(const TerrainTaskParams& params) {
  if (terrain_map() == nullptr) {
    throw std::logic_error("MimdBackend::run_terrain: no terrain attached");
  }
  const std::size_t n = db_.size();
  TerrainResult result;
  result.stats.aircraft = n;

  mimd::WorkCounters work;
  work.items = n;
  std::atomic<std::uint64_t> warnings{0}, climbs{0};

  const airfield::TerrainMap& terrain = *terrain_map();
  pool_.parallel_for(0, n, kChunk, [&](std::size_t i) {
    const extended::TerrainScan scan =
        extended::scan_terrain(db_, i, terrain, params);
    if (scan.warn) warnings.fetch_add(1, std::memory_order_relaxed);
    if (extended::apply_terrain_scan(db_, i, scan)) {
      climbs.fetch_add(1, std::memory_order_relaxed);
    }
  });
  ++work.parallel_regions;

  result.stats.warnings = warnings.load();
  result.stats.climbs = climbs.load();
  result.stats.samples = n * static_cast<std::uint64_t>(params.samples);
  // Each terrain sample reads 4 shared heightmap cells plus the record.
  work.inner_ops = result.stats.samples * 5;
  result.modeled_ms = model_work(work, work.inner_ops);
  return result;
}

DisplayResult MimdBackend::do_run_display(const DisplayParams& params) {
  const std::size_t n = db_.size();
  DisplayResult result;
  result.stats.aircraft = n;
  const int k = params.sectors_per_axis;

  mimd::WorkCounters work;
  work.items = n;
  std::vector<std::int32_t> occupancy(static_cast<std::size_t>(k) * k, 0);
  std::atomic<std::uint64_t> handoffs{0};

  // Occupancy bins are shared by all workers: real striped-lock traffic.
  pool_.parallel_for(0, n, kChunk, [&](std::size_t i) {
    const std::int32_t s = extended::sector_of(db_.x[i], db_.y[i], k);
    if (db_.sector[i] != kNone && db_.sector[i] != s) {
      handoffs.fetch_add(1, std::memory_order_relaxed);
    }
    db_.sector[i] = s;
    locks_.with_lock(static_cast<std::size_t>(s),
                     [&] { ++occupancy[static_cast<std::size_t>(s)]; });
  });
  ++work.parallel_regions;

  result.stats.handoffs = handoffs.load();
  for (const std::int32_t count : occupancy) {
    if (count > 0) ++result.stats.occupied_sectors;
    result.stats.max_occupancy = std::max(
        result.stats.max_occupancy, static_cast<std::uint64_t>(count));
  }
  work.inner_ops = n * 4;  // record read, sector math, bin update
  result.modeled_ms = model_work(work, work.inner_ops);
  return result;
}

AdvisoryResult MimdBackend::do_run_advisory(const AdvisoryParams& params) {
  const std::size_t n = db_.size();
  AdvisoryResult result;
  result.stats.aircraft = n;

  mimd::WorkCounters work;
  work.items = n;
  std::vector<std::uint8_t> flags(n, 0);

  const double edge = core::kGridHalfExtentNm - params.boundary_warn_nm;
  pool_.parallel_for(0, n, kChunk, [&](std::size_t i) {
    std::uint8_t f = 0;
    if (db_.col[i]) f |= 1;
    if (db_.terrain_warn[i]) f |= 2;
    if (std::fabs(db_.x[i]) > edge || std::fabs(db_.y[i]) > edge) f |= 4;
    flags[i] = f;
  });
  ++work.parallel_regions;

  // Serial drain (the voice channel is one stream); each enqueue on the
  // shared queue would be a locked operation on a real MIMD system.
  for (std::size_t i = 0; i < n; ++i) {
    const auto id = static_cast<std::int32_t>(i);
    if (flags[i] & 1) {
      result.queue.push_back(Advisory{id, AdvisoryType::kConflict});
      ++result.stats.conflict;
    }
    if (flags[i] & 2) {
      result.queue.push_back(Advisory{id, AdvisoryType::kTerrain});
      ++result.stats.terrain;
    }
    if (flags[i] & 4) {
      result.queue.push_back(Advisory{id, AdvisoryType::kBoundary});
      ++result.stats.boundary;
    }
  }
  work.inner_ops = n * 4;
  result.modeled_ms =
      model_work(work, work.inner_ops + result.queue.size());
  return result;
}

SporadicResult MimdBackend::do_run_sporadic(std::span<const Query> queries,
                                         const SporadicParams& params) {
  (void)params;
  const std::size_t n = db_.size();
  const std::size_t q = queries.size();
  SporadicResult result;
  result.stats.queries = q;
  result.answers.assign(q, {});

  mimd::WorkCounters work;
  work.items = n;
  if (q > 0 && n > 0) {
    // Each worker scans a chunk of the shared table against every query;
    // per-query partial answers merge under the query's stripe lock.
    std::vector<std::uint8_t> flags(q * n, 0);
    pool_.parallel_for(0, n, kChunk, [&](std::size_t i) {
      for (std::size_t qi = 0; qi < q; ++qi) {
        if (extended::query_matches(db_, i, queries[qi])) {
          flags[qi * n + i] = 1;
        }
      }
    });
    ++work.parallel_regions;
    for (std::size_t qi = 0; qi < q; ++qi) {
      for (std::size_t i = 0; i < n; ++i) {
        if (flags[qi * n + i]) {
          locks_.with_lock(qi, [&] {
            result.answers[qi].push_back(static_cast<std::int32_t>(i));
          });
          ++result.stats.hits;
        }
      }
    }
  }
  work.inner_ops = static_cast<std::uint64_t>(n) * q;
  result.modeled_ms = model_work(work, work.inner_ops);
  return result;
}

MultiRadarResult MimdBackend::do_run_multi_task1(
    airfield::MultiRadarFrame& frame, const Task1Params& params) {
  const std::size_t n = db_.size();
  const std::size_t returns = frame.size();
  MultiRadarResult result;
  result.stats.returns = returns;
  const core::kern::Kernel kernel = core::kern::resolve(params.kernel);

  mimd::WorkCounters work;
  work.items = n;
  std::atomic<std::uint64_t> inner_ops{0};
  std::atomic<std::uint64_t> box_tests{0};

  nhits_.resize(returns);
  hit_id_.resize(returns);
  begin_correlation(frame.base, work);

  auto& rmw = frame.base.rmatch_with;
  const auto& rx = frame.base.rx;
  const auto& ry = frame.base.ry;

  const int total_passes = 1 + params.retries;
  for (int pass = 0; pass < total_passes; ++pass) {
    const bool any_active = std::any_of(
        rmw.begin(), rmw.end(), [](std::int32_t m) { return m == kNone; });
    if (!any_active) break;
    ++result.stats.passes;
    const double half = params.box_half_nm * static_cast<double>(1 << pass);

    // Phase 1 (return-major): a batch box kernel per active return over
    // the whole shared table (n record reads), eligibility-masked (the
    // eligible records are its box tests). Hits come back in ascending
    // aircraft order, so the last one is the scalar loop's hit_id.
    const std::size_t eligible_count = mark_eligible();
    pool_.parallel_for(0, returns, kChunk, [&](std::size_t r) {
      if (rmw[r] != kNone) return;
      thread_local std::vector<std::int32_t> hits;
      hits.resize(n);
      const std::size_t hit_count = core::kern::box_test_batch(
          kernel, ex_.data(), ey_.data(), n, eligible_.data(), rx[r], ry[r],
          half, hits.data(), /*lanes_masked=*/nullptr);
      nhits_[r] = static_cast<std::int32_t>(hit_count);
      hit_id_[r] = hit_count > 0 ? hits[hit_count - 1] : kNone;
      if (nhits_[r] >= 2) rmw[r] = kDiscarded;
      inner_ops.fetch_add(n, std::memory_order_relaxed);
      box_tests.fetch_add(eligible_count, std::memory_order_relaxed);
    });
    ++work.parallel_regions;

    // Phase 2: each eligible aircraft's closest single-hit return, found
    // in one serial pass over the returns in ascending order; the strict
    // `<` keeps the lowest index on a tie. The model charges [13]'s
    // aircraft-major scan, which picks the same winners: `returns` record
    // reads per eligible aircraft (docs/COST_MODELS.md §4). The winners
    // commit under their stripe lock.
    std::fill(best_return_.begin(), best_return_.end(), kNone);
    for (std::size_t r = 0; r < returns; ++r) {
      if (rmw[r] != kNone || nhits_[r] != 1) continue;
      const auto a = static_cast<std::size_t>(hit_id_[r]);
      const double dx = rx[r] - ex_[a];
      const double dy = ry[r] - ey_[a];
      const double d2 = dx * dx + dy * dy;
      if (best_return_[a] == kNone || d2 < best_d2_[a]) {
        best_return_[a] = static_cast<std::int32_t>(r);
        best_d2_[a] = d2;
      }
    }
    inner_ops.fetch_add(eligible_count * returns, std::memory_order_relaxed);
    pool_.parallel_for(0, n, kChunk, [&](std::size_t a) {
      if (best_return_[a] == kNone) return;
      locks_.with_lock(a, [&] {
        db_.rmatch[a] = static_cast<std::int8_t>(MatchState::kMatched);
        amatch_[a] = best_return_[a];
      });
    });
    ++work.parallel_regions;

    // Phase 3 (return-major): disposition.
    pool_.parallel_for(0, returns, kChunk, [&](std::size_t r) {
      if (rmw[r] != kNone || nhits_[r] != 1) return;
      const std::int32_t a = hit_id_[r];
      const auto ai = static_cast<std::size_t>(a);
      if (amatch_[ai] == static_cast<std::int32_t>(r)) {
        rmw[r] = a;
      } else if (db_.rmatch[ai] ==
                 static_cast<std::int8_t>(MatchState::kMatched)) {
        rmw[r] = airfield::kRedundant;
      }
    });
    ++work.parallel_regions;
  }

  result.stats.matched_aircraft = commit_tracks(frame.base, work);

  result.stats.box_tests = box_tests.load();
  for (const std::int32_t m : rmw) {
    if (m == kNone) ++result.stats.unmatched_returns;
    if (m == kDiscarded) ++result.stats.discarded_returns;
    if (m == airfield::kRedundant) ++result.stats.redundant_returns;
  }
  work.inner_ops = inner_ops.load();
  result.modeled_ms = model_work(work, work.inner_ops);
  return result;
}

}  // namespace atm::tasks
