// Quickstart: simulate one 8-second ATM major cycle on the Titan X
// (Pascal) device model and print the deadline report.
//
//   $ ./quickstart [aircraft]
//
// This is the smallest end-to-end use of the library:
//   1. pick a platform backend (any of the paper's six),
//   2. pick a scenario and instantiate its PipelineConfig,
//   3. run the real-time pipeline,
//   4. read the deadline monitor and task statistics.
#include <cstdlib>
#include <iostream>

#include "src/atm/pipeline.hpp"
#include "src/atm/platforms.hpp"
#include "src/atm/scenarios.hpp"

int main(int argc, char** argv) {
  using namespace atm;

  const std::size_t aircraft =
      argc > 1 ? static_cast<std::size_t>(std::atoll(argv[1])) : 1000;

  // 1. The platform: the paper's research card.
  auto backend = tasks::make_titan_x_pascal();

  // 2. The workload: the paper's airfield scenario for one major cycle =
  //    16 half-second periods with Task 1 (tracking & correlation) every
  //    period and Tasks 2+3 (collision detection & resolution) at the end
  //    of the cycle. Any seed reproduces exactly on this platform.
  tasks::PipelineConfig cfg = tasks::make_pipeline_config(
      tasks::paper_airfield(), /*major_cycles=*/1, /*seed=*/2018);
  cfg.aircraft = aircraft;

  // 3. Run it.
  const tasks::PipelineResult result = tasks::run_pipeline(*backend, cfg);

  // 4. Report.
  std::cout << "platform : " << backend->name() << "\n"
            << "aircraft : " << aircraft << "\n\n"
            << result.deadlines().summary() << "\n";

  std::cout << "last Task 1:  " << result.last_task1.matched
            << " radars correlated, " << result.last_task1.unmatched_radars
            << " unmatched, " << result.last_task1.ambiguous_aircraft
            << " ambiguous aircraft (" << result.last_task1.passes
            << " box passes)\n";
  std::cout << "last Tasks 2+3: " << result.last_task23.conflicts
            << " aircraft in conflict, " << result.last_task23.critical
            << " critical, " << result.last_task23.resolved << " resolved, "
            << result.last_task23.unresolved << " unresolved\n\n";

  if (result.all_deadlines_met()) {
    std::cout << "every deadline met — the paper's CUDA result.\n";
  } else {
    std::cout << "deadlines missed: " << result.deadlines().total_missed()
              << ", skipped: " << result.deadlines().total_skipped() << "\n";
  }
  return 0;
}
