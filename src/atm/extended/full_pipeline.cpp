#include "src/atm/extended/full_pipeline.hpp"

#include <memory>

#include "src/airfield/setup.hpp"
#include "src/atm/degrade.hpp"
#include "src/atm/executive.hpp"
#include "src/atm/extended/sporadic.hpp"

namespace atm::tasks::extended {

FullSystemResult run_full_system(Backend& backend,
                                 const FullSystemConfig& cfg) {
  if (!cfg.preloaded) {
    backend.load(airfield::make_airfield(cfg.aircraft, cfg.seed, cfg.setup));
  }
  backend.set_terrain(std::make_shared<const airfield::TerrainMap>(
      cfg.terrain_seed, cfg.terrain_map));
  std::vector<airfield::RadarTower> towers;
  if (cfg.multi_radar) {
    towers = airfield::make_tower_layout(cfg.seed ^ 0x70BE25ULL, cfg.towers);
  }

  FullSystemResult result;
  core::Rng query_rng(cfg.seed ^ 0x5B0AAD1C00FFEE11ULL);
  airfield::MultiRadarFrame multi_frame;
  std::vector<Query> batch;
  const detail::PaperSteps paper = detail::paper_steps(backend, cfg, result);

  std::vector<detail::Step> schedule;
  if (cfg.multi_radar) {
    schedule.push_back({.run = [&](detail::Period& p) {
      multi_frame = airfield::generate_multi_radar(backend.state(), towers,
                                                   p.radar_rng, cfg.radar);
      result.mean_coverage =
          airfield::mean_coverage(multi_frame, backend.aircraft_count());
      return 0.0;
    }});
    schedule.push_back({.task = "task1", .run = [&](detail::Period& p) {
                          const MultiRadarResult r =
                              backend.run_multi_task1(multi_frame, p.task1);
                          result.last_multi = r.stats;
                          return r.modeled_ms;
                        }});
  } else {
    schedule.push_back(paper.radar);
    schedule.push_back(paper.task1);
  }
  schedule.push_back(paper.reentry);
  schedule.push_back({.task = "display", .run = [&](detail::Period&) {
                        const DisplayResult r = backend.run_display(cfg.display);
                        result.last_display = r.stats;
                        return r.modeled_ms;
                      }});
  if (cfg.sporadic.queries_per_batch > 0) {
    // Query arrival is simulation scaffolding; answering is the ATM task.
    // The governor's deepest rung sheds the answering, but the queries
    // still arrive (the rng draw keeps the stream aligned), so shedding
    // never perturbs what a recovered period computes.
    schedule.push_back({.run = [&](detail::Period& p) {
      batch = make_query_batch(backend.state(), query_rng, cfg.sporadic,
                               cfg.display.sectors_per_axis);
      if (degradation_sheds_sporadic(p.log.governor_level)) {
        ++result.sporadic_shed;
      }
      return 0.0;
    }});
    schedule.push_back(
        {.task = "sporadic",
         .runs_at_level =
             [](int level) { return !degradation_sheds_sporadic(level); },
         .run = [&](detail::Period&) {
           const SporadicResult r = backend.run_sporadic(batch, cfg.sporadic);
           result.last_sporadic = r.stats;
           return r.modeled_ms;
         }});
  }
  schedule.push_back(paper.task23);
  schedule.push_back({.task = "terrain",
                      .every = core::kPeriodsPerMajorCycle,
                      .at = core::kPeriodsPerMajorCycle - 1,
                      .run = [&](detail::Period&) {
                        const TerrainResult r = backend.run_terrain(cfg.terrain);
                        result.last_terrain = r.stats;
                        return r.modeled_ms;
                      }});
  schedule.push_back({.task = "advisory",
                      .every = cfg.advisory_every_periods,
                      .at = cfg.advisory_every_periods - 1,
                      .run = [&](detail::Period&) {
                        AdvisoryResult r = backend.run_advisory(cfg.advisory);
                        result.last_advisory = r.stats;
                        result.last_queue = std::move(r.queue);
                        return r.modeled_ms;
                      }});

  detail::run_schedule(backend, cfg, schedule, result);
  return result;
}

}  // namespace atm::tasks::extended
