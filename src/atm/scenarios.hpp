// Named workload scenarios: parameter bundles for the situations the
// paper's introduction and future work motivate. Each scenario configures
// the airfield generator, the radar environment, and the task parameters
// coherently, so examples/benches/tests can say what they simulate instead
// of repeating parameter soup.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "src/airfield/radar.hpp"
#include "src/airfield/setup.hpp"
#include "src/atm/extended/ext_types.hpp"
#include "src/atm/extended/full_pipeline.hpp"
#include "src/atm/pipeline.hpp"
#include "src/atm/task_types.hpp"

namespace atm::tasks {

/// Execution policy of a scenario: every knob that shapes *how* the
/// workload runs rather than *what* the workload is. make_pipeline_config
/// is the single place this block fans out into a config — the broadphase /
/// shard knobs are copied into both task bundles, and the governor /
/// fault blocks are copied to the config verbatim — so examples, benches,
/// and tests configure execution through the policy instead of poking
/// task parameters directly (the lint_atm scenario-configs rule enforces
/// this outside tests).
struct ScenarioPolicy {
  /// Host-path candidate enumeration for both Task 1 and Tasks 2+3.
  /// Either value yields identical task outcomes (see src/core/spatial/).
  core::spatial::BroadphaseMode broadphase =
      core::spatial::BroadphaseMode::kBruteForce;
  /// Host-path sector sharding for both Task 1 and Tasks 2+3. Either
  /// value yields identical task outcomes (src/core/spatial/sectors.hpp).
  core::spatial::ShardMode shard = core::spatial::ShardMode::kNone;
  int sectors_per_axis = 4;
  /// Host-path batch-kernel selection for both Task 1 and Tasks 2+3.
  /// Any value yields bit-identical task outcomes (src/core/kern/).
  core::kern::KernelMode kernel = core::kern::KernelMode::kAuto;
  /// Deadline-aware overload governor (disabled by default); see
  /// src/rt/governor.hpp and src/atm/degrade.hpp for the ladder it walks.
  rt::GovernorConfig governor;
  /// Seeded fault injection (disabled by default); see src/rt/faults.hpp.
  rt::FaultConfig faults;
};

struct Scenario {
  std::string name;
  std::string description;
  std::size_t default_aircraft = 1000;
  airfield::SetupParams setup;
  airfield::RadarParams radar;
  Task1Params task1;
  Task23Params task23;
  TerrainTaskParams terrain;
  AdvisoryParams advisory;
  /// Sporadic controller-query mix for the full-system executive
  /// (queries_per_batch = 0 disables the task); ignored by the core
  /// pipeline, fanned out by make_full_config.
  SporadicParams sporadic;
  /// How the scenario executes (broadphase, sharding, governor, faults).
  ScenarioPolicy policy;
};

/// The paper's evaluation setup: a 256 nm field, 30-600 knot traffic at
/// all flight levels, one noisy return per aircraft per period.
[[nodiscard]] Scenario paper_airfield();

/// The STARAN heritage scenario: Goodyear's 1972 Dulles demonstration
/// scale — hundreds of aircraft, denser radar noise (real 1972 radar).
[[nodiscard]] Scenario dulles_1972();

/// High-altitude en-route traffic: fast, flight-level stratified (fewer
/// altitude-gate passes), longer look-ahead.
[[nodiscard]] Scenario dense_en_route();

/// Terminal area: a small busy box of slow descending traffic, tight
/// separation, frequent conflicts.
[[nodiscard]] Scenario terminal_area();

/// The Section 7.2 mobile-ATM drone swarm: tiny field, slow low drones,
/// GPS-grade reports, hard turns.
[[nodiscard]] Scenario drone_swarm();

/// Every scenario above plus any registered extras, for sweep-style tests
/// and demos.
[[nodiscard]] std::vector<Scenario> all_scenarios();

/// Add a scenario to the registry at runtime (a scenario with the same
/// name replaces the earlier registration). This is how generated repro
/// scenarios — e.g. fuzzer corpus entries loaded by
/// testkit::register_corpus_scenario — surface through all_scenarios(),
/// scenario_names(), and scenario_by_name() next to the built-ins.
/// Thread-safe; registrations last for the process lifetime.
void register_scenario(Scenario scenario);

/// Registry: the names of every scenario, in all_scenarios() order. For
/// `--scenario <name>` listings in CLIs and benches.
[[nodiscard]] std::vector<std::string> scenario_names();

/// Registry lookup by name ("paper-airfield", "dense-en-route", ...).
/// Returns false (leaving `out` untouched) for an unknown name.
[[nodiscard]] bool scenario_by_name(std::string_view name, Scenario& out);

/// Instantiate a core-pipeline configuration from a scenario. The single
/// place the Scenario -> config field mapping lives. The policy block
/// fans out here — broadphase/shard/kernel into both task bundles,
/// governor and faults onto the config — so callers configure execution
/// exactly once, on the Scenario.
[[nodiscard]] PipelineConfig make_pipeline_config(const Scenario& scenario,
                                                  int major_cycles = 1,
                                                  std::uint64_t seed = 42);

/// Instantiate a full-system configuration from a scenario: the pipeline
/// configuration plus the scenario's extended-task parameters.
[[nodiscard]] extended::FullSystemConfig make_full_config(
    const Scenario& scenario, int major_cycles = 1, std::uint64_t seed = 42);

}  // namespace atm::tasks
