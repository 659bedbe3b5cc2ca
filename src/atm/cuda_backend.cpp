#include "src/atm/cuda_backend.hpp"

#include <algorithm>
#include <limits>

#include "src/atm/extended/multiradar.hpp"
#include "src/atm/reference/correlate.hpp"

namespace atm::tasks {

using airfield::kNone;

CudaBackend::CudaBackend(simt::DeviceSpec spec, int threads_per_block)
    : device_(std::move(spec)), threads_per_block_(threads_per_block) {}

std::string CudaBackend::name() const { return device_.spec().name; }

cuda::DroneView CudaBackend::drone_view() {
  return cuda::DroneView{
      .x = db_.x,
      .y = db_.y,
      .dx = db_.dx,
      .dy = db_.dy,
      .alt = db_.alt,
      .batx = db_.batx,
      .baty = db_.baty,
      .time_till = db_.time_till,
      .ex = ex_,
      .ey = ey_,
      .rmatch = db_.rmatch,
      .col = db_.col,
      .col_with = db_.col_with,
      .amatch = amatch_,
      .nradars = nradars_,
      .terrain_warn = db_.terrain_warn,
      .sector = db_.sector,
  };
}

cuda::RadarView CudaBackend::radar_view() {
  return cuda::RadarView{
      .rx = radar_rx_,
      .ry = radar_ry_,
      .rmatch_with = radar_match_,
      .nhits = radar_nhits_,
      .hit_id = radar_hit_,
  };
}

void CudaBackend::resize_scratch(std::size_t n) {
  ex_.resize(n);
  ey_.resize(n);
  amatch_.resize(n);
  nradars_.resize(n);
  radar_rx_.resize(n);
  radar_ry_.resize(n);
  radar_match_.resize(n);
  radar_nhits_.resize(n);
  radar_hit_.resize(n);
  flags_a_.resize(n);
  flags_b_.resize(n);
  counters_.assign(cuda::kCounterSlots, 0);
}

std::uint64_t CudaBackend::radar_frame_bytes() const {
  return db_.size() * (2 * sizeof(double) + sizeof(std::int32_t));
}

void CudaBackend::load(const airfield::FlightDb& db) {
  db_ = db;
  resize_scratch(db_.size());
  // Initial host->device upload of the persistent flight fields
  // (x, y, dx, dy, alt, batx, baty, time_till, rmatch, col, colWith).
  const std::uint64_t bytes =
      db_.size() * (8 * sizeof(double) + sizeof(std::int8_t) +
                    sizeof(std::uint8_t) + sizeof(std::int32_t));
  device_.transfer(bytes);
}

double CudaBackend::setup_flights_on_device(
    std::size_t n, std::uint64_t seed, const airfield::SetupParams& params) {
  db_.resize(n);
  resize_scratch(n);
  const auto cfg = simt::one_thread_per_item(n, threads_per_block_);
  const cuda::DroneView drone = drone_view();
  const auto stats = device_.launch(cfg, [&](simt::ThreadCtx& ctx) {
    cuda::setup_flight_kernel(ctx, drone, seed, params);
  });
  return stats.modeled_ms;
}

airfield::RadarFrame CudaBackend::do_generate_radar(
    core::Rng& rng, const airfield::RadarParams& params,
    double* modeled_ms) {
  if (params.dropout_probability > 0.0) {
    // Dropout decisions are a host-generator feature; fall back.
    return Backend::do_generate_radar(rng, params, modeled_ms);
  }
  const std::size_t n = db_.size();
  // Draw the noise in the host generator's exact order so the frame is
  // identical across backends (determinism requirement; see DESIGN.md).
  std::vector<double> noise(2 * n);
  for (std::size_t i = 0; i < n; ++i) {
    noise[2 * i] = rng.uniform(-params.noise_nm, params.noise_nm);
    noise[2 * i + 1] = rng.uniform(-params.noise_nm, params.noise_nm);
  }

  double ms = 0.0;
  ms += device_.transfer(noise.size() * sizeof(double)).modeled_ms;
  const auto cfg = simt::one_thread_per_item(n, threads_per_block_);
  const cuda::DroneView drone = drone_view();
  const cuda::RadarView radar = radar_view();
  ms += device_
            .launch(cfg,
                    [&](simt::ThreadCtx& ctx) {
                      cuda::generate_radar_kernel(ctx, drone, radar, noise);
                    })
            .modeled_ms;
  // Paper Section 4.1: radar is copied back to the host, split into
  // fourths, and each fourth reversed; Task 1 then re-uploads it.
  ms += device_.transfer(radar_frame_bytes()).modeled_ms;

  airfield::RadarFrame frame;
  frame.resize(n);
  std::copy(radar_rx_.begin(), radar_rx_.end(), frame.rx.begin());
  std::copy(radar_ry_.begin(), radar_ry_.end(), frame.ry.begin());
  for (std::size_t i = 0; i < n; ++i) {
    frame.truth[i] = static_cast<std::int32_t>(i);
  }
  airfield::quarter_reversal_shuffle(frame);
  if (modeled_ms != nullptr) *modeled_ms = ms;
  return frame;
}

Task1Result CudaBackend::do_run_task1(airfield::RadarFrame& frame,
                                   const Task1Params& params) {
  const std::size_t n = db_.size();
  Task1Result result;
  if (frame.size() != n) {
    throw std::invalid_argument("CudaBackend: radar frame size mismatch");
  }

  // Upload the (host-shuffled) radar frame (Algorithm 1, line 1).
  std::copy(frame.rx.begin(), frame.rx.end(), radar_rx_.begin());
  std::copy(frame.ry.begin(), frame.ry.end(), radar_ry_.begin());
  std::fill(radar_match_.begin(), radar_match_.end(), kNone);
  counters_.assign(cuda::kCounterSlots, 0);
  result.modeled_ms += device_.transfer(radar_frame_bytes()).modeled_ms;

  const auto cfg = simt::one_thread_per_item(n, threads_per_block_);
  const cuda::DroneView drone = drone_view();
  const cuda::RadarView radar = radar_view();

  result.modeled_ms +=
      device_
          .launch(cfg,
                  [&](simt::ThreadCtx& ctx) {
                    cuda::expected_position_kernel(ctx, drone);
                  })
          .modeled_ms;

  int passes = 0;
  const int total_passes = 1 + params.retries;
  for (int pass = 0; pass < total_passes; ++pass) {
    // Host-side pass gate: any radar still unmatched? The device keeps a
    // flag the host reads back (modeled as a 8-byte transfer).
    const bool any_active =
        std::any_of(radar_match_.begin(), radar_match_.end(),
                    [](std::int32_t m) { return m == kNone; });
    result.modeled_ms += device_.transfer(sizeof(std::uint64_t)).modeled_ms;
    if (!any_active) break;
    ++passes;
    const double half =
        params.box_half_nm * static_cast<double>(1 << pass);

    result.modeled_ms +=
        device_
            .launch(cfg,
                    [&](simt::ThreadCtx& ctx) {
                      cuda::pass_reset_kernel(ctx, drone);
                    })
            .modeled_ms;
    result.modeled_ms +=
        device_
            .launch(cfg,
                    [&](simt::ThreadCtx& ctx) {
                      cuda::radar_scan_kernel(ctx, drone, radar, half,
                                              counters_);
                    })
            .modeled_ms;
    result.modeled_ms +=
        device_
            .launch(cfg,
                    [&](simt::ThreadCtx& ctx) {
                      cuda::ambiguity_kernel(ctx, drone);
                    })
            .modeled_ms;
    result.modeled_ms +=
        device_
            .launch(cfg,
                    [&](simt::ThreadCtx& ctx) {
                      cuda::radar_resolve_kernel(ctx, drone, radar);
                    })
            .modeled_ms;
  }

  result.modeled_ms +=
      device_
          .launch(cfg,
                  [&](simt::ThreadCtx& ctx) {
                    cuda::commit_tracking_kernel(ctx, drone, radar);
                  })
          .modeled_ms;

  export_radar_matches(frame);
  result.stats = {reference::task1_outcome(db_, frame, passes),
                  {.box_tests = counters_[cuda::kBoxTests]}};
  return result;
}

void CudaBackend::export_radar_matches(airfield::RadarFrame& frame) const {
  std::copy(radar_match_.begin(), radar_match_.end(),
            frame.rmatch_with.begin());
}

Task23Stats CudaBackend::task23_stats() const {
  Task23Stats stats;
  stats.aircraft = db_.size();
  stats.pair_tests = counters_[cuda::kPairTests];
  stats.rescans = counters_[cuda::kRescans];
  stats.conflicts = counters_[cuda::kConflicts];
  stats.critical = counters_[cuda::kCritical];
  stats.resolved = counters_[cuda::kResolved];
  stats.unresolved = counters_[cuda::kUnresolved];
  return stats;
}

Task23Result CudaBackend::do_run_task23(const Task23Params& params) {
  const std::size_t n = db_.size();
  Task23Result result;
  counters_.assign(cuda::kCounterSlots, 0);

  const auto cfg = simt::one_thread_per_item(n, threads_per_block_);
  const cuda::DroneView drone = drone_view();

  // The paper's fused CheckCollisionPath kernel, then the commit pass.
  result.modeled_ms +=
      device_
          .launch(cfg,
                  [&](simt::ThreadCtx& ctx) {
                    cuda::check_collision_path_kernel(ctx, drone, flags_a_,
                                                      params, counters_);
                  })
          .modeled_ms;
  result.modeled_ms +=
      device_
          .launch(cfg,
                  [&](simt::ThreadCtx& ctx) {
                    cuda::commit_paths_kernel(ctx, drone, flags_a_, params);
                  })
          .modeled_ms;

  result.stats = task23_stats();
  return result;
}

Task23Result CudaBackend::run_task23_split(const Task23Params& params) {
  check_task23_params(params);
  check_motion_finite(db_);
  const std::size_t n = db_.size();
  Task23Result result;
  counters_.assign(cuda::kCounterSlots, 0);

  const auto cfg = simt::one_thread_per_item(n, threads_per_block_);
  const cuda::DroneView drone = drone_view();

  // Detect, then round-trip the critical flags through the host (the
  // overhead the paper's fused design avoids), then resolve, then commit.
  result.modeled_ms +=
      device_
          .launch(cfg,
                  [&](simt::ThreadCtx& ctx) {
                    cuda::detect_kernel(ctx, drone, flags_a_, params,
                                        counters_);
                  })
          .modeled_ms;
  result.modeled_ms +=
      device_.transfer(n * sizeof(std::uint8_t)).modeled_ms;  // flags to host
  result.modeled_ms +=
      device_.transfer(n * sizeof(std::uint8_t)).modeled_ms;  // and back
  result.modeled_ms +=
      device_
          .launch(cfg,
                  [&](simt::ThreadCtx& ctx) {
                    cuda::resolve_kernel(ctx, drone, flags_a_, flags_b_,
                                         params, counters_);
                  })
          .modeled_ms;
  result.modeled_ms +=
      device_
          .launch(cfg,
                  [&](simt::ThreadCtx& ctx) {
                    cuda::commit_paths_kernel(ctx, drone, flags_b_, params);
                  })
          .modeled_ms;

  result.stats = task23_stats();
  return result;
}

Task23Result CudaBackend::run_task23_pairgrid(const Task23Params& params) {
  check_task23_params(params);
  check_motion_finite(db_);
  const std::size_t n = db_.size();
  Task23Result result;
  counters_.assign(cuda::kCounterSlots, 0);
  if (n == 0) return result;

  std::vector<double> soonest(n, params.horizon_periods + 1.0);
  std::vector<std::int32_t> partner(
      n, std::numeric_limits<std::int32_t>::max());

  // 2-D pair grid: 16 x 6 = 96 threads per block (the paper's block size,
  // reshaped), covering the n x n pair matrix.
  const auto tiles_x = static_cast<std::uint32_t>((n + 15) / 16);
  const auto tiles_y = static_cast<std::uint32_t>((n + 5) / 6);
  const simt::LaunchConfig pair_cfg{
      .grid = simt::Dim3{tiles_x, tiles_y, 1},
      .block = simt::Dim3{16, 6, 1},
  };
  const auto cfg_air = simt::one_thread_per_item(n, threads_per_block_);
  const cuda::DroneView drone = drone_view();

  result.modeled_ms +=
      device_
          .launch(pair_cfg,
                  [&](simt::ThreadCtx& ctx) {
                    cuda::pair_detect_time_kernel(ctx, drone, soonest,
                                                  params, counters_);
                  })
          .modeled_ms;
  result.modeled_ms +=
      device_
          .launch(pair_cfg,
                  [&](simt::ThreadCtx& ctx) {
                    cuda::pair_detect_partner_kernel(ctx, drone, soonest,
                                                     partner, params);
                  })
          .modeled_ms;
  result.modeled_ms +=
      device_
          .launch(cfg_air,
                  [&](simt::ThreadCtx& ctx) {
                    cuda::pair_detect_finalize_kernel(ctx, drone, soonest,
                                                      partner, flags_a_,
                                                      params, counters_);
                  })
          .modeled_ms;
  result.modeled_ms +=
      device_
          .launch(cfg_air,
                  [&](simt::ThreadCtx& ctx) {
                    cuda::resolve_kernel(ctx, drone, flags_a_, flags_b_,
                                         params, counters_);
                  })
          .modeled_ms;
  result.modeled_ms +=
      device_
          .launch(cfg_air,
                  [&](simt::ThreadCtx& ctx) {
                    cuda::commit_paths_kernel(ctx, drone, flags_b_, params);
                  })
          .modeled_ms;

  result.stats = task23_stats();
  return result;
}

// --- Extended system --------------------------------------------------------

void CudaBackend::on_terrain_attached() {
  if (terrain_map() != nullptr) {
    // One-time upload of the heightmap (static data, like the paper's
    // initial drone upload).
    device_.transfer(terrain_map()->cells().size() * sizeof(double));
  }
}

TerrainResult CudaBackend::do_run_terrain(const TerrainTaskParams& params) {
  const std::size_t n = db_.size();
  TerrainResult result;
  counters_.assign(cuda::kCounterSlots, 0);
  const auto cfg = simt::one_thread_per_item(n, threads_per_block_);
  const cuda::DroneView drone = drone_view();
  const airfield::TerrainMap& terrain = *terrain_map();
  result.modeled_ms +=
      device_
          .launch(cfg,
                  [&](simt::ThreadCtx& ctx) {
                    cuda::terrain_kernel(ctx, drone, terrain, params,
                                         counters_);
                  })
          .modeled_ms;
  result.stats.aircraft = n;
  result.stats.warnings = counters_[cuda::kTerrainWarnings];
  result.stats.climbs = counters_[cuda::kTerrainClimbs];
  result.stats.samples = counters_[cuda::kTerrainSamples];
  return result;
}

DisplayResult CudaBackend::do_run_display(const DisplayParams& params) {
  const std::size_t n = db_.size();
  DisplayResult result;
  counters_.assign(cuda::kCounterSlots, 0);
  const auto k = static_cast<std::size_t>(params.sectors_per_axis);
  occupancy_.assign(k * k, 0);

  const auto cfg = simt::one_thread_per_item(n, threads_per_block_);
  const cuda::DroneView drone = drone_view();
  result.modeled_ms +=
      device_
          .launch(cfg,
                  [&](simt::ThreadCtx& ctx) {
                    cuda::display_kernel(ctx, drone, occupancy_,
                                         params.sectors_per_axis, counters_);
                  })
          .modeled_ms;
  // The controller display lives on the host: download the occupancy grid.
  result.modeled_ms +=
      device_.transfer(occupancy_.size() * sizeof(std::int32_t)).modeled_ms;

  result.stats.aircraft = n;
  result.stats.handoffs = counters_[cuda::kHandoffs];
  for (const std::int32_t count : occupancy_) {
    if (count > 0) ++result.stats.occupied_sectors;
    result.stats.max_occupancy = std::max(
        result.stats.max_occupancy, static_cast<std::uint64_t>(count));
  }
  return result;
}

AdvisoryResult CudaBackend::do_run_advisory(const AdvisoryParams& params) {
  const std::size_t n = db_.size();
  AdvisoryResult result;
  flags_a_.assign(n, 0);

  const auto cfg = simt::one_thread_per_item(n, threads_per_block_);
  const cuda::DroneView drone = drone_view();
  result.modeled_ms +=
      device_
          .launch(cfg,
                  [&](simt::ThreadCtx& ctx) {
                    cuda::advisory_kernel(ctx, drone, flags_a_, params);
                  })
          .modeled_ms;
  // The voice channel is a host device: download the flags and drain the
  // queue in aircraft order (a serial voice channel has one order anyway).
  result.modeled_ms +=
      device_.transfer(n * sizeof(std::uint8_t)).modeled_ms;

  result.stats.aircraft = n;
  for (std::size_t i = 0; i < n; ++i) {
    const auto id = static_cast<std::int32_t>(i);
    if (flags_a_[i] & cuda::kAdvConflictBit) {
      result.queue.push_back(Advisory{id, AdvisoryType::kConflict});
      ++result.stats.conflict;
    }
    if (flags_a_[i] & cuda::kAdvTerrainBit) {
      result.queue.push_back(Advisory{id, AdvisoryType::kTerrain});
      ++result.stats.terrain;
    }
    if (flags_a_[i] & cuda::kAdvBoundaryBit) {
      result.queue.push_back(Advisory{id, AdvisoryType::kBoundary});
      ++result.stats.boundary;
    }
  }
  return result;
}

SporadicResult CudaBackend::do_run_sporadic(std::span<const Query> queries,
                                         const SporadicParams& params) {
  (void)params;
  const std::size_t n = db_.size();
  const std::size_t q = queries.size();
  SporadicResult result;
  result.stats.queries = q;
  result.answers.assign(q, {});
  if (q == 0 || n == 0) return result;

  // Upload the query batch, run the kernel, download the match matrix.
  std::vector<std::uint8_t> flags(q * n, 0);
  result.modeled_ms += device_.transfer(q * sizeof(Query)).modeled_ms;
  const auto cfg = simt::one_thread_per_item(n, threads_per_block_);
  const cuda::DroneView drone = drone_view();
  result.modeled_ms +=
      device_
          .launch(cfg,
                  [&](simt::ThreadCtx& ctx) {
                    cuda::query_kernel(ctx, drone, queries, flags);
                  })
          .modeled_ms;
  result.modeled_ms += device_.transfer(flags.size()).modeled_ms;

  for (std::size_t qi = 0; qi < q; ++qi) {
    for (std::size_t i = 0; i < n; ++i) {
      if (flags[qi * n + i]) {
        result.answers[qi].push_back(static_cast<std::int32_t>(i));
        ++result.stats.hits;
      }
    }
  }
  return result;
}

MultiRadarResult CudaBackend::do_run_multi_task1(
    airfield::MultiRadarFrame& frame, const Task1Params& params) {
  const std::size_t n = db_.size();
  const std::size_t returns = frame.size();
  MultiRadarResult result;
  int passes = 0;
  counters_.assign(cuda::kCounterSlots, 0);

  // Upload the multi-return frame.
  multi_rx_ = frame.base.rx;
  multi_ry_ = frame.base.ry;
  multi_match_.assign(returns, kNone);
  multi_nhits_.assign(returns, 0);
  multi_hit_.assign(returns, kNone);
  result.modeled_ms +=
      device_
          .transfer(returns * (2 * sizeof(double) + sizeof(std::int32_t)))
          .modeled_ms;

  const cuda::DroneView drone = drone_view();
  const cuda::MultiRadarView radar{
      .rx = multi_rx_,
      .ry = multi_ry_,
      .rmatch_with = multi_match_,
      .nhits = multi_nhits_,
      .hit_id = multi_hit_,
  };
  const auto cfg_air = simt::one_thread_per_item(n, threads_per_block_);
  const auto cfg_ret = simt::one_thread_per_item(returns, threads_per_block_);

  result.modeled_ms +=
      device_
          .launch(cfg_air,
                  [&](simt::ThreadCtx& ctx) {
                    cuda::expected_position_kernel(ctx, drone);
                  })
          .modeled_ms;

  const int total_passes = 1 + params.retries;
  for (int pass = 0; pass < total_passes; ++pass) {
    const bool any_active =
        std::any_of(multi_match_.begin(), multi_match_.end(),
                    [](std::int32_t m) { return m == kNone; });
    result.modeled_ms += device_.transfer(sizeof(std::uint64_t)).modeled_ms;
    if (!any_active) break;
    ++passes;
    const double half = params.box_half_nm * static_cast<double>(1 << pass);

    result.modeled_ms +=
        device_
            .launch(cfg_ret,
                    [&](simt::ThreadCtx& ctx) {
                      cuda::multi_scan_kernel(ctx, drone, radar, half,
                                              counters_);
                    })
            .modeled_ms;
    result.modeled_ms +=
        device_
            .launch(cfg_air,
                    [&](simt::ThreadCtx& ctx) {
                      cuda::multi_select_kernel(ctx, drone, radar);
                    })
            .modeled_ms;
    result.modeled_ms +=
        device_
            .launch(cfg_ret,
                    [&](simt::ThreadCtx& ctx) {
                      cuda::multi_disposition_kernel(ctx, drone, radar);
                    })
            .modeled_ms;
  }

  result.modeled_ms +=
      device_
          .launch(cfg_air,
                  [&](simt::ThreadCtx& ctx) {
                    cuda::multi_commit_kernel(ctx, drone, radar);
                  })
          .modeled_ms;

  std::copy(multi_match_.begin(), multi_match_.end(),
            frame.base.rmatch_with.begin());
  result.stats = {extended::multi_outcome(db_, frame, passes),
                  {.box_tests = counters_[cuda::kBoxTests]}};
  return result;
}

}  // namespace atm::tasks
