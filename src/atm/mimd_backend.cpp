#include "src/atm/mimd_backend.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>

#include "src/atm/extended/display.hpp"
#include "src/atm/extended/multiradar.hpp"
#include "src/atm/extended/sporadic.hpp"
#include "src/atm/extended/terrain_task.hpp"
#include "src/core/kern/kernels.hpp"
#include "src/core/units.hpp"

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
    : model_(std::move(spec)), pool_(pool_workers), jitter_rng_(jitter_seed) {}

void MimdBackend::load(const airfield::FlightDb& db) {
  db_ = db;
  best_return_.resize(db_.size());
  best_d2_.resize(db_.size());
}

double MimdBackend::model_work(mimd::WorkCounters work,
                               std::uint64_t locked_ops) {
  work.locked_ops = locked_ops;
  last_work_ = work;
  return model_.model_ms(work, jitter_rng_);
}

double MimdBackend::model_work(const sharded::ShardTelemetry& telemetry) {
  mimd::WorkCounters work;
  work.items = db_.size();
  work.inner_ops = telemetry.inner_ops;
  work.parallel_regions = telemetry.parallel_regions;
  return model_work(work, telemetry.locked_ops);
}

Task1Result MimdBackend::do_run_task1(airfield::RadarFrame& frame,
                                   const Task1Params& params) {
  sharded::ShardTelemetry telemetry;
  Task1Result result;
  result.stats = sharded::correlate_and_track(db_, frame, pool_,
                                              shard_scratch_, params,
                                              &telemetry);
  result.modeled_ms = model_work(telemetry);
  emit_sector_counters("task1", telemetry);
  return result;
}

Task23Result MimdBackend::do_run_task23(const Task23Params& params) {
  sharded::ShardTelemetry telemetry;
  Task23Result result;
  result.stats = sharded::detect_and_resolve(db_, pool_, shard_scratch_,
                                             params, &telemetry);
  result.modeled_ms = model_work(telemetry);
  emit_sector_counters("task23", telemetry);
  return result;
}

// --- Extended system --------------------------------------------------------

TerrainResult MimdBackend::do_run_terrain(const TerrainTaskParams& params) {
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
  std::atomic<std::uint64_t> handoffs{0};

  // Each worker writes only its own aircraft's sector record.
  pool_.parallel_for(0, n, kChunk, [&](std::size_t i) {
    const std::int32_t s = extended::sector_of(db_.x[i], db_.y[i], k);
    if (db_.sector[i] != kNone && db_.sector[i] != s) {
      handoffs.fetch_add(1, std::memory_order_relaxed);
    }
    db_.sector[i] = s;
  });
  ++work.parallel_regions;

  // After the join, one serial pass over the sector records fills the
  // occupancy bins.
  std::vector<std::int32_t> occupancy(static_cast<std::size_t>(k) * k, 0);
  for (const std::int32_t s : db_.sector) {
    ++occupancy[static_cast<std::size_t>(s)];
  }
  result.stats.handoffs = handoffs.load();
  for (const std::int32_t count : occupancy) {
    if (count > 0) ++result.stats.occupied_sectors;
    result.stats.max_occupancy = std::max(
        result.stats.max_occupancy, static_cast<std::uint64_t>(count));
  }
  work.inner_ops = n * 4;  // record read, sector math, bin update
  // [13] takes one write lock per aircraft on its sector's bin.
  result.modeled_ms = model_work(work, work.inner_ops + n);
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
    // Each worker scans a chunk of the shared table against every query
    // and flags the hits; a serial gather appends them to the answers.
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
          result.answers[qi].push_back(static_cast<std::int32_t>(i));
          ++result.stats.hits;
        }
      }
    }
  }
  work.inner_ops = static_cast<std::uint64_t>(n) * q;
  // [13] takes one lock per hit on the query's answer list.
  result.modeled_ms = model_work(work, work.inner_ops + result.stats.hits);
  return result;
}

MultiRadarResult MimdBackend::do_run_multi_task1(
    airfield::MultiRadarFrame& frame, const Task1Params& params) {
  const std::size_t n = db_.size();
  const std::size_t returns = frame.size();
  MultiRadarResult result;
  MultiRadarWork radar_work;
  int passes = 0;
  const core::kern::Kernel kernel = core::kern::resolve(params.kernel);
  reference::Task1Scratch& t1 = shard_scratch_.task1;

  mimd::WorkCounters work;
  work.items = n;
  sharded::begin_correlation(db_, frame.base, pool_, t1);
  ++work.parallel_regions;

  auto& rmw = frame.base.rmatch_with;
  const auto& rx = frame.base.rx;
  const auto& ry = frame.base.ry;

  const int total_passes = 1 + params.retries;
  for (int pass = 0; pass < total_passes; ++pass) {
    const auto active =
        static_cast<std::uint64_t>(std::count(rmw.begin(), rmw.end(), kNone));
    if (active == 0) break;
    ++passes;
    const double half = params.box_half_nm * static_cast<double>(1 << pass);

    // Phase 1 (return-major): a batch box kernel per active return over
    // the whole shared table (n record reads), eligibility-masked (the
    // eligible records are its box tests). Hits come back in ascending
    // aircraft order, so the last one is the scalar loop's hit_id.
    const std::size_t eligible_count = sharded::mark_eligible(db_, t1);
    pool_.parallel_for(0, returns, kChunk, [&](std::size_t r) {
      if (rmw[r] != kNone) return;
      thread_local std::vector<std::int32_t> hits;
      hits.resize(n);
      const std::size_t hit_count = core::kern::box_test_batch(
          kernel, t1.ex.data(), t1.ey.data(), n, t1.eligible.data(), rx[r],
          ry[r], half, hits.data(), /*lanes_masked=*/nullptr);
      t1.nhits[r] = static_cast<std::int32_t>(hit_count);
      t1.hit_id[r] = hit_count > 0 ? hits[hit_count - 1] : kNone;
      if (t1.nhits[r] >= 2) rmw[r] = kDiscarded;
    });
    ++work.parallel_regions;
    radar_work.box_tests += active * eligible_count;

    // Phase 2: each eligible aircraft's closest single-hit return, found
    // in one serial pass over the returns in ascending order; the strict
    // `<` keeps the lowest index on a tie. The model charges [13]'s
    // aircraft-major scan, which picks the same winners: `returns` record
    // reads per eligible aircraft (docs/COST_MODELS.md §4). Each winner
    // commits to its own aircraft's record.
    std::fill(best_return_.begin(), best_return_.end(), kNone);
    for (std::size_t r = 0; r < returns; ++r) {
      if (rmw[r] != kNone || t1.nhits[r] != 1) continue;
      const auto a = static_cast<std::size_t>(t1.hit_id[r]);
      const double dx = rx[r] - t1.ex[a];
      const double dy = ry[r] - t1.ey[a];
      const double d2 = dx * dx + dy * dy;
      if (best_return_[a] == kNone || d2 < best_d2_[a]) {
        best_return_[a] = static_cast<std::int32_t>(r);
        best_d2_[a] = d2;
      }
    }
    work.inner_ops += active * n + eligible_count * returns;
    pool_.parallel_for(0, n, kChunk, [&](std::size_t a) {
      if (best_return_[a] == kNone) return;
      db_.rmatch[a] = static_cast<std::int8_t>(MatchState::kMatched);
      t1.amatch[a] = best_return_[a];
    });
    ++work.parallel_regions;

    // Phase 3 (return-major): disposition.
    pool_.parallel_for(0, returns, kChunk, [&](std::size_t r) {
      if (rmw[r] != kNone || t1.nhits[r] != 1) return;
      const std::int32_t a = t1.hit_id[r];
      const auto ai = static_cast<std::size_t>(a);
      if (t1.amatch[ai] == static_cast<std::int32_t>(r)) {
        rmw[r] = a;
      } else if (db_.rmatch[ai] ==
                 static_cast<std::int8_t>(MatchState::kMatched)) {
        rmw[r] = airfield::kRedundant;
      }
    });
    ++work.parallel_regions;
  }

  sharded::commit_tracks(db_, frame.base, pool_, t1);
  ++work.parallel_regions;

  result.stats = {extended::multi_outcome(db_, frame, passes), radar_work};
  // [13] takes one write lock per winner it commits.
  result.modeled_ms =
      model_work(work, work.inner_ops + result.stats.matched_aircraft);
  return result;
}

}  // namespace atm::tasks
