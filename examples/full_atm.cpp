// The complete ATM system (paper Section 7.2 future work): all basic ATM
// tasks under the real-time executive, with the unsimplified multi-tower
// radar environment.
//
//   $ ./full_atm [aircraft] [--multi-radar]
//
// Demonstrates: the extended schedule (tracking + display every period,
// collision + terrain every cycle, voice advisories every 4 s), terrain
// attachment, and the multi-return correlation.
#include <cstdlib>
#include <cstring>
#include <iostream>

#include "src/atm/extended/full_pipeline.hpp"
#include "src/atm/platforms.hpp"
#include "src/atm/scenarios.hpp"

int main(int argc, char** argv) {
  using namespace atm;

  std::size_t aircraft = 1500;
  bool multi_radar = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--multi-radar") == 0) {
      multi_radar = true;
    } else {
      aircraft = static_cast<std::size_t>(std::atoll(argv[i]));
    }
  }

  auto backend = tasks::make_titan_x_pascal();
  tasks::extended::FullSystemConfig cfg = tasks::make_full_config(
      tasks::paper_airfield(), /*major_cycles=*/2, /*seed=*/2018);
  cfg.aircraft = aircraft;
  cfg.multi_radar = multi_radar;

  const auto result = tasks::extended::run_full_system(*backend, cfg);

  std::cout << "platform : " << backend->name() << "\n"
            << "aircraft : " << aircraft << "\n"
            << "radar    : "
            << (multi_radar ? "multi-tower (all radar processed)"
                            : "single-return (paper's simplification)")
            << "\n";
  if (multi_radar) {
    std::cout << "coverage : " << result.mean_coverage
              << " returns per aircraft\n";
  }
  std::cout << "\n" << result.monitor.summary() << "\n";

  if (multi_radar) {
    std::cout << "correlation: " << result.last_multi.matched_aircraft
              << " aircraft matched, " << result.last_multi.redundant_returns
              << " redundant returns, " << result.last_multi.discarded_returns
              << " discarded\n";
  } else {
    std::cout << "correlation: " << result.last_task1.matched
              << " matched, " << result.last_task1.unmatched_radars
              << " unmatched\n";
  }
  std::cout << "collision  : " << result.last_task23.conflicts
            << " in conflict, " << result.last_task23.resolved
            << " resolved\n"
            << "terrain    : " << result.last_terrain.warnings
            << " warnings, " << result.last_terrain.climbs << " climbs\n"
            << "advisories : " << result.last_advisory.total() << " ("
            << result.last_advisory.conflict << " conflict, "
            << result.last_advisory.terrain << " terrain, "
            << result.last_advisory.boundary << " boundary)\n"
            << "display    : " << result.last_display.occupied_sectors
            << " occupied sectors, busiest holds "
            << result.last_display.max_occupancy << "\n\n";

  const auto bad = result.missed_or_skipped();
  std::cout << (bad == 0
                    ? "the complete system is viable: every deadline met.\n"
                    : "deadlines missed/skipped: " + std::to_string(bad) +
                          "\n");
  return 0;
}
