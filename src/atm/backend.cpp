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

void Backend::emit_task_event(std::string_view task, double modeled_ms,
                              double measured_ms,
                              const TaskEventDetail& detail) {
  obs::TraceEvent ev;
  ev.kind = obs::EventKind::kTask;
  ev.name = task;
  ev.backend = name();
  ev.cycle = trace_cycle_;
  ev.period = trace_period_;
  ev.modeled_ms = modeled_ms;
  ev.measured_ms = measured_ms;
  ev.aircraft = aircraft_count();
  ev.passes = detail.passes;
  ev.conflicts = detail.conflicts;
  ev.resolved = detail.resolved;
  ev.broadphase = detail.broadphase;
  ev.shard = detail.shard;
  ev.sectors = detail.sectors;
  ev.halo_candidates = detail.halo_candidates;
  ev.box_tests = detail.box_tests;
  ev.pair_candidates = detail.pair_candidates;
  ev.pair_tests = detail.pair_tests;
  ev.kernel = detail.kernel;
  ev.lanes_masked = detail.lanes_masked;
  trace_->record(ev);
}

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

/// The detail fields the host paths of Task 1 and Tasks 2+3 share.
template <typename Detail, typename Stats, typename Params>
Detail host_detail(const Stats& stats, const Params& params) {
  Detail detail;
  detail.broadphase = core::spatial::to_string(params.broadphase);
  detail.shard = core::spatial::to_string(params.shard);
  if (stats.sectors > 0) {
    detail.sectors = stats.sectors;
    detail.halo_candidates = static_cast<std::int64_t>(stats.halo_candidates);
  }
  if (stats.kernel >= 0) {
    detail.kernel =
        core::kern::to_string(static_cast<core::kern::Kernel>(stats.kernel));
    detail.lanes_masked = static_cast<std::int64_t>(stats.lanes_masked);
  }
  return detail;
}

}  // namespace

template <typename Hook, typename DetailOf>
auto Backend::traced(std::string_view task, Hook&& hook, DetailOf detail_of) {
  if (trace_ == nullptr) return hook();
  const rt::Stopwatch sw;
  auto result = hook();
  const TaskEventDetail detail = detail_of(result);
  emit_task_event(task, result.modeled_ms, sw.elapsed_ms(), detail);
  return result;
}

Task1Result Backend::run_task1(airfield::RadarFrame& frame,
                               const Task1Params& params) {
  check_task1_params(params);
  return traced(
      "task1", [&] { return do_run_task1(frame, params); },
      [&](const Task1Result& r) {
        auto detail = host_detail<TaskEventDetail>(r.stats, params);
        detail.passes = r.stats.passes;
        detail.box_tests = static_cast<std::int64_t>(r.stats.box_tests);
        return detail;
      });
}

Task23Result Backend::run_task23(const Task23Params& params) {
  check_task23_params(params);
  return traced(
      "task23", [&] { return do_run_task23(params); },
      [&](const Task23Result& r) {
        auto detail = host_detail<TaskEventDetail>(r.stats, params);
        detail.conflicts = static_cast<std::int64_t>(r.stats.conflicts);
        detail.resolved = static_cast<std::int64_t>(r.stats.resolved);
        detail.pair_candidates =
            static_cast<std::int64_t>(r.stats.pair_candidates);
        detail.pair_tests = static_cast<std::int64_t>(r.stats.pair_tests);
        return detail;
      });
}

airfield::RadarFrame Backend::generate_radar(
    core::Rng& rng, const airfield::RadarParams& params,
    double* modeled_ms) {
  if (trace_ == nullptr) return do_generate_radar(rng, params, modeled_ms);
  double local_ms = 0.0;
  if (modeled_ms == nullptr) modeled_ms = &local_ms;
  const rt::Stopwatch sw;
  airfield::RadarFrame frame = do_generate_radar(rng, params, modeled_ms);
  emit_task_event("radar", *modeled_ms, sw.elapsed_ms(), {});
  return frame;
}

TerrainResult Backend::run_terrain(const TerrainTaskParams& params) {
  if (terrain_map() == nullptr) {
    throw std::logic_error("Backend::run_terrain: no terrain attached");
  }
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
      [](const MultiRadarResult& r) {
        TaskEventDetail detail;
        detail.passes = r.stats.passes;
        detail.box_tests = static_cast<std::int64_t>(r.stats.box_tests);
        return detail;
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
