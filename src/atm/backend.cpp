#include "src/atm/backend.hpp"

#include <stdexcept>

#include "src/atm/extended/advisory.hpp"
#include "src/atm/extended/display.hpp"
#include "src/atm/extended/multiradar.hpp"
#include "src/atm/extended/sporadic.hpp"
#include "src/atm/extended/terrain_task.hpp"
#include "src/atm/sharded.hpp"
#include "src/rt/clock.hpp"

namespace atm::tasks {

void Backend::emit_sector_counters(
    std::string_view task, const sharded::ShardTelemetry& telemetry) {
  if (trace_ == nullptr || telemetry.sector_owned.empty()) return;
  const std::string owned = std::string(task) + ".sector_owned";
  const std::string candidates = std::string(task) + ".sector_candidates";
  obs::TraceEvent ev;
  ev.kind = obs::EventKind::kCounter;
  ev.backend = name();
  ev.cycle = trace_cycle_;
  ev.period = trace_period_;
  for (std::size_t s = 0; s < telemetry.sector_owned.size(); ++s) {
    ev.sector = static_cast<int>(s);
    ev.name = owned;
    ev.value = telemetry.sector_owned[s];
    trace_->record(ev);
    ev.name = candidates;
    ev.value = telemetry.sector_candidates[s];
    trace_->record(ev);
  }
}

namespace {

/// The event fields the host paths of Task 1 and Tasks 2+3 share.
template <typename Result, typename Params>
void fill_host_detail(obs::TraceEvent& ev, const Result& result,
                      const Params& params) {
  const auto& stats = result.stats;
  ev.modeled_ms = result.modeled_ms;
  ev.broadphase = core::spatial::to_string(params.broadphase);
  ev.shard = core::spatial::to_string(params.shard);
  if (stats.sectors > 0) {
    ev.sectors = stats.sectors;
    ev.halo_candidates = static_cast<std::int64_t>(stats.halo_candidates);
  }
  if (stats.kernel >= 0) {
    ev.kernel =
        core::kern::to_string(static_cast<core::kern::Kernel>(stats.kernel));
    ev.lanes_masked = static_cast<std::int64_t>(stats.lanes_masked);
  }
}

}  // namespace

template <typename Hook, typename Fill>
auto Backend::traced(std::string_view task, Hook&& hook, Fill fill) {
  if (trace_ == nullptr) return hook();
  const rt::Stopwatch sw;
  auto result = hook();
  obs::TraceEvent ev;
  ev.kind = obs::EventKind::kTask;
  ev.name = task;
  ev.backend = name();
  ev.cycle = trace_cycle_;
  ev.period = trace_period_;
  ev.aircraft = aircraft_count();
  fill(ev, result);
  ev.measured_ms = sw.elapsed_ms();
  trace_->record(ev);
  return result;
}

Task1Result Backend::run_task1(airfield::RadarFrame& frame,
                               const Task1Params& params) {
  check_task1_params(params);
  return traced(
      "task1", [&] { return do_run_task1(frame, params); },
      [&](obs::TraceEvent& ev, const Task1Result& r) {
        fill_host_detail(ev, r, params);
        ev.passes = r.stats.passes;
        ev.box_tests = static_cast<std::int64_t>(r.stats.box_tests);
      });
}

Task23Result Backend::run_task23(const Task23Params& params) {
  check_task23_params(params);
  check_motion_finite(state());
  return traced(
      "task23", [&] { return do_run_task23(params); },
      [&](obs::TraceEvent& ev, const Task23Result& r) {
        fill_host_detail(ev, r, params);
        ev.conflicts = static_cast<std::int64_t>(r.stats.conflicts);
        ev.resolved = static_cast<std::int64_t>(r.stats.resolved);
        ev.pair_candidates = static_cast<std::int64_t>(r.stats.pair_candidates);
        ev.pair_tests = static_cast<std::int64_t>(r.stats.pair_tests);
      });
}

airfield::RadarFrame Backend::generate_radar(
    core::Rng& rng, const airfield::RadarParams& params,
    double* modeled_ms) {
  double local_ms = 0.0;
  if (modeled_ms == nullptr) modeled_ms = &local_ms;
  return traced(
      "radar", [&] { return do_generate_radar(rng, params, modeled_ms); },
      [&](obs::TraceEvent& ev, const airfield::RadarFrame&) {
        ev.modeled_ms = *modeled_ms;
      });
}

TerrainResult Backend::run_terrain(const TerrainTaskParams& params) {
  if (terrain_map() == nullptr) {
    throw std::logic_error("Backend::run_terrain: no terrain attached");
  }
  check_terrain_params(params);
  check_motion_finite(state());
  return traced("terrain", [&] { return do_run_terrain(params); });
}

DisplayResult Backend::run_display(const DisplayParams& params) {
  check_display_params(params);
  return traced("display", [&] { return do_run_display(params); });
}

AdvisoryResult Backend::run_advisory(const AdvisoryParams& params) {
  return traced("advisory", [&] { return do_run_advisory(params); });
}

MultiRadarResult Backend::run_multi_task1(airfield::MultiRadarFrame& frame,
                                          const Task1Params& params) {
  check_task1_params(params);
  return traced(
      "multi_task1", [&] { return do_run_multi_task1(frame, params); },
      [](obs::TraceEvent& ev, const MultiRadarResult& r) {
        ev.modeled_ms = r.modeled_ms;
        ev.passes = r.stats.passes;
        ev.box_tests = static_cast<std::int64_t>(r.stats.box_tests);
      });
}

SporadicResult Backend::run_sporadic(std::span<const Query> queries,
                                     const SporadicParams& params) {
  return traced("sporadic", [&] { return do_run_sporadic(queries, params); });
}

void Backend::set_terrain(
    std::shared_ptr<const airfield::TerrainMap> terrain) {
  terrain_ = std::move(terrain);
  on_terrain_attached();
}

airfield::RadarFrame Backend::do_generate_radar(
    core::Rng& rng, const airfield::RadarParams& params,
    double* modeled_ms) {
  if (modeled_ms != nullptr) *modeled_ms = 0.0;
  return airfield::generate_radar(state(), rng, params);
}

TerrainResult Backend::do_run_terrain(const TerrainTaskParams& params) {
  const rt::Stopwatch sw;
  TerrainResult result;
  result.stats =
      extended::terrain_avoidance(mutable_state(), *terrain_map(), params);
  result.modeled_ms = sw.elapsed_ms();
  return result;
}

DisplayResult Backend::do_run_display(const DisplayParams& params) {
  const rt::Stopwatch sw;
  DisplayResult result;
  std::vector<std::int32_t> occupancy;
  result.stats = extended::display_update(mutable_state(), occupancy, params);
  result.modeled_ms = sw.elapsed_ms();
  return result;
}

AdvisoryResult Backend::do_run_advisory(const AdvisoryParams& params) {
  const rt::Stopwatch sw;
  AdvisoryResult result;
  result.stats = extended::advisory_scan(state(), params, result.queue);
  result.modeled_ms = sw.elapsed_ms();
  return result;
}

MultiRadarResult Backend::do_run_multi_task1(airfield::MultiRadarFrame& frame,
                                             const Task1Params& params) {
  const rt::Stopwatch sw;
  MultiRadarResult result;
  result.stats = extended::correlate_multi(mutable_state(), frame, params);
  result.modeled_ms = sw.elapsed_ms();
  return result;
}

SporadicResult Backend::do_run_sporadic(std::span<const Query> queries,
                                        const SporadicParams& params) {
  (void)params;
  const rt::Stopwatch sw;
  SporadicResult result;
  result.stats = extended::answer_queries(state(), queries, result.answers);
  result.modeled_ms = sw.elapsed_ms();
  return result;
}

}  // namespace atm::tasks
