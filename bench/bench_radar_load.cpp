// Extension bench: processing *all* radar (the unsimplified environment).
//
// Paper Section 4.1: "most aircraft in the US are within the range of 2 to
// 6 radars" but "current air traffic control systems are unable to process
// most of the radar received, due to the computational complexity ...
// this makes the processing of all radar as a part of ATM an ideal tool to
// use in testing the ability of different architectures to handle
// real-time computations." This bench sweeps radar coverage (tower count)
// at a fixed aircraft count and measures the multi-return correlation on
// every platform, plus the correlation-quality payoff.
//
// `--json <path>` writes one row per (towers, backend) with host wall ms,
// modeled ms and the outcome digest; CI checks the digests against
// bench/baselines/BENCH_radar_load.json.
#include <iostream>

#include "bench/common.hpp"
#include "src/airfield/setup.hpp"
#include "src/atm/platforms.hpp"
#include "src/core/table.hpp"
#include "src/rt/clock.hpp"

int main(int argc, char** argv) {
  using namespace atm;
  constexpr std::size_t kAircraft = 2000;
  bench::JsonReport report("radar_load",
                           bench::json_path_from_args(argc, argv));
  report.add_param("aircraft", static_cast<long long>(kAircraft));

  // Tower grids 1x1 (the paper's single-return regime) through 4x4.
  std::cout << "\n== Multi-tower correlation: " << kAircraft
            << " aircraft, growing radar coverage ==\n";
  core::TextTable table({"towers", "returns", "coverage", "platform",
                         "modeled [ms]", "matched", "redundant",
                         "within 0.5 s period?"});
  for (const int grid : {1, 2, 3, 4}) {
    airfield::TowerLayoutParams layout;
    layout.grid = grid;
    layout.range_nm = grid == 1 ? 200.0 : 150.0;
    const auto towers = airfield::make_tower_layout(7, layout);

    auto platforms = tasks::make_platforms(tasks::PlatformSet::kAllPlatforms);
    platforms.push_back(tasks::make_xeon_phi());
    for (auto& backend : platforms) {
      backend->load(airfield::make_airfield(kAircraft, 42));
      core::Rng rng(9);
      auto frame = airfield::generate_multi_radar(backend->state(), towers,
                                                  rng, {});
      const rt::Stopwatch sw;
      const tasks::MultiRadarResult r = backend->run_multi_task1(frame, {});
      const double wall_ms = sw.elapsed_ms();
      report.begin_result();
      report.add_field("towers", static_cast<long long>(towers.size()));
      report.add_field("backend", backend->name());
      report.add_field("wall_ms", wall_ms);
      report.add_field("modeled_ms", r.modeled_ms);
      report.add_field("digest", bench::outcome_digest(r.stats));
      table.begin_row();
      table.add_cell(static_cast<long long>(towers.size()));
      table.add_cell(static_cast<long long>(frame.size()));
      table.add_cell(airfield::mean_coverage(frame, kAircraft), 2);
      table.add_cell(backend->name());
      table.add_cell(r.modeled_ms, 3);
      table.add_cell(static_cast<long long>(r.stats.matched_aircraft));
      table.add_cell(static_cast<long long>(r.stats.redundant_returns));
      table.add_cell(r.modeled_ms < 500.0 ? std::string("yes")
                                          : std::string("NO"));
    }
  }
  std::cout << table;
  std::cout << "\nObservation: coverage multiplies the correlation work "
               "(the frame grows ~4x from 1\nto 16 towers) — the platforms "
               "that were comfortable in the single-return regime\nabsorb "
               "it, while the multi-core's margin evaporates first: the "
               "paper's point about\nwhy processing all radar stresses "
               "architectures.\n";
  return report.write() ? 0 : 1;
}
