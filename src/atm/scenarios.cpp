#include "src/atm/scenarios.hpp"

#include <utility>

#include "src/core/sync/mutex.hpp"

namespace atm::tasks {

namespace {

/// Runtime-registered scenarios (corpus repros, tool-defined workloads).
/// Guarded: registration can race with a concurrent all_scenarios() sweep
/// (e.g. a bench thread listing names while a corpus loads).
struct ScenarioRegistry {
  sync::Mutex mu;
  std::vector<Scenario> extra ATM_GUARDED_BY(mu);
};

ScenarioRegistry& registry() {
  static ScenarioRegistry r;
  return r;
}

}  // namespace

Scenario paper_airfield() {
  Scenario s;
  s.name = "paper-airfield";
  s.description =
      "The paper's Section 4 simulation: 256 nm field, 30-600 knot "
      "aircraft at all flight levels, one noisy radar return per aircraft "
      "per half-second period.";
  s.default_aircraft = 1000;
  return s;  // every parameter is already the paper default
}

Scenario dulles_1972() {
  Scenario s;
  s.name = "dulles-1972";
  s.description =
      "Goodyear's STARAN demonstration scale: hundreds of aircraft on "
      "1972-grade radar (coarser returns, wider correlation box).";
  s.default_aircraft = 400;
  s.radar.noise_nm = 0.4;
  s.radar.dropout_probability = 0.03;  // 1972 radar loses sweeps
  s.task1.box_half_nm = 0.75;          // 1.5 x 1.5 nm initial box
  return s;
}

Scenario dense_en_route() {
  Scenario s;
  s.name = "dense-en-route";
  s.description =
      "High-altitude en-route traffic: fast, stratified onto flight "
      "levels (FL290-FL410), longer conflict look-ahead.";
  s.default_aircraft = 3000;
  s.setup.min_speed_knots = 380.0;
  s.setup.max_speed_knots = 600.0;
  s.setup.min_altitude_feet = 29000.0;
  s.setup.max_altitude_feet = 41000.0;
  s.task23.horizon_periods = 30.0 * 60.0 / core::kPeriodSeconds;  // 30 min
  return s;
}

Scenario terminal_area() {
  Scenario s;
  s.name = "terminal-area";
  s.description =
      "A busy terminal box: slow descending traffic below 15000 ft in a "
      "64 nm area, tight separation band, short critical window.";
  s.default_aircraft = 300;
  s.setup.position_max_nm = 32.0;
  s.setup.min_speed_knots = 140.0;
  s.setup.max_speed_knots = 280.0;
  s.setup.min_altitude_feet = 2000.0;
  s.setup.max_altitude_feet = 15000.0;
  s.task23.band_nm = 1.5;
  s.task23.critical_periods = core::seconds_to_periods(90.0);
  s.terrain.clearance_feet = 1500.0;  // approach segments fly lower margins
  return s;
}

Scenario drone_swarm() {
  Scenario s;
  s.name = "drone-swarm";
  s.description =
      "Section 7.2 mobile ATM for a drone swarm: an 8 nm box of 20-80 "
      "knot drones under 1200 ft with GPS-grade position reports and "
      "aggressive turning authority.";
  s.default_aircraft = 96;
  s.setup.position_max_nm = 4.0;
  s.setup.min_speed_knots = 20.0;
  s.setup.max_speed_knots = 80.0;
  s.setup.min_altitude_feet = 100.0;
  s.setup.max_altitude_feet = 1200.0;
  s.radar.noise_nm = 0.02;
  s.task1.box_half_nm = 0.05;
  s.task23.band_nm = 0.5;
  s.task23.altitude_gate_feet = 200.0;
  s.task23.horizon_periods = core::seconds_to_periods(5.0 * 60.0);
  s.task23.critical_periods = core::seconds_to_periods(60.0);
  s.task23.turn_step_deg = 15.0;
  s.task23.turn_max_deg = 90.0;
  s.advisory.boundary_warn_nm = 1.0;
  return s;
}

std::vector<Scenario> all_scenarios() {
  std::vector<Scenario> scenarios = {paper_airfield(), dulles_1972(),
                                     dense_en_route(), terminal_area(),
                                     drone_swarm()};
  ScenarioRegistry& reg = registry();
  sync::MutexLock lock(reg.mu);
  for (const Scenario& s : reg.extra) scenarios.push_back(s);
  return scenarios;
}

void register_scenario(Scenario scenario) {
  ScenarioRegistry& reg = registry();
  sync::MutexLock lock(reg.mu);
  for (Scenario& s : reg.extra) {
    if (s.name == scenario.name) {
      s = std::move(scenario);
      return;
    }
  }
  reg.extra.push_back(std::move(scenario));
}

std::vector<std::string> scenario_names() {
  std::vector<std::string> names;
  for (const Scenario& s : all_scenarios()) names.push_back(s.name);
  return names;
}

bool scenario_by_name(std::string_view name, Scenario& out) {
  for (Scenario& s : all_scenarios()) {
    if (s.name == name) {
      out = std::move(s);
      return true;
    }
  }
  return false;
}

PipelineConfig make_pipeline_config(const Scenario& scenario,
                                    int major_cycles, std::uint64_t seed) {
  PipelineConfig cfg;
  cfg.aircraft = scenario.default_aircraft;
  cfg.major_cycles = major_cycles;
  cfg.seed = seed;
  cfg.setup = scenario.setup;
  cfg.radar = scenario.radar;
  cfg.task1 = scenario.task1;
  cfg.task23 = scenario.task23;
  cfg.task1.broadphase = scenario.policy.broadphase;
  cfg.task23.broadphase = scenario.policy.broadphase;
  cfg.task1.shard = scenario.policy.shard;
  cfg.task23.shard = scenario.policy.shard;
  cfg.task1.sectors_per_axis = scenario.policy.sectors_per_axis;
  cfg.task23.sectors_per_axis = scenario.policy.sectors_per_axis;
  cfg.task1.kernel = scenario.policy.kernel;
  cfg.task23.kernel = scenario.policy.kernel;
  cfg.governor = scenario.policy.governor;
  cfg.faults = scenario.policy.faults;
  return cfg;
}

extended::FullSystemConfig make_full_config(const Scenario& scenario,
                                            int major_cycles,
                                            std::uint64_t seed) {
  extended::FullSystemConfig cfg;
  static_cast<PipelineConfig&>(cfg) =
      make_pipeline_config(scenario, major_cycles, seed);
  cfg.terrain = scenario.terrain;
  cfg.advisory = scenario.advisory;
  cfg.sporadic = scenario.sporadic;
  return cfg;
}

}  // namespace atm::tasks
