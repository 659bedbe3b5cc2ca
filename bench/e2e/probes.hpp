// Layer probes of the traced run: time the public functions of the
// airfield, core.kern, core.spatial and mimd layers on the flight states
// and radar frames a traced run captured, so each layer's cost is read
// off a measurement. They run after the workload's backend is destroyed,
// so no pool of the workload competes with them.
#pragma once

#include <cstdint>
#include <vector>

#include "bench/e2e/report.hpp"
#include "bench/e2e/timed_backend.hpp"
#include "src/airfield/radar.hpp"
#include "src/airfield/setup.hpp"
#include "src/airfield/towers.hpp"
#include "src/atm/task_types.hpp"

namespace bench_atm {

/// What the probes need to know about the workload.
struct ProbeConfig {
  atm::tasks::Task1Params task1;
  atm::tasks::Task23Params task23;
  atm::airfield::SetupParams setup;
  atm::airfield::RadarParams radar;
  std::size_t aircraft = 0;
  /// Seed of the chunk the captures come from (airfield and towers).
  std::uint64_t seed = 0;
  /// Probe airfield::generate_multi_radar (the full system's radar,
  /// which the decorator cannot see).
  bool multi_radar = false;
  atm::airfield::TowerLayoutParams towers;
  unsigned pool_workers = 1;
};

struct ProbeResult {
  std::vector<Metric> metrics;
  /// Folded probe outputs, so no probed call can be optimized away.
  std::uint64_t checksum = 0;
};

/// Run every probe over `captures` (at least one), recording one span
/// per probe under `parent`.
[[nodiscard]] ProbeResult run_probes(const ProbeConfig& cfg,
                                     const std::vector<Capture>& captures,
                                     SpanLog& spans, std::uint64_t parent);

}  // namespace bench_atm
