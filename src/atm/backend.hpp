// The platform backend interface: one implementation per architecture the
// paper evaluates (three NVIDIA devices via the SIMT engine, the STARAN
// AP, the ClearSpeed emulation, and the 16-core Xeon), plus the host
// reference golden.
//
// A backend owns its copy of the flight database, executes the ATM tasks
// with its architecture's algorithm/primitives, and reports a *modeled*
// platform time per run. All backends implement the same order-independent
// task semantics (see src/atm/reference), so given identical inputs their
// flight states stay identical — the cross-backend equivalence the test
// suite enforces — while their modeled times differ the way the paper's
// platforms differ.
//
// The task entry points are non-virtual (NVI): the public `run_*` methods
// time the host execution, delegate to the protected `do_run_*` hooks the
// platform backends override, and emit one obs::TraceEvent per execution
// when a trace sink is attached — so every caller (executive, benches,
// tests) gets uniform telemetry without each backend repeating the
// instrumentation.
#pragma once

#include <memory>
#include <span>
#include <string>

#include "src/airfield/flight_db.hpp"
#include "src/airfield/radar.hpp"
#include "src/airfield/terrain.hpp"
#include "src/airfield/towers.hpp"
#include "src/atm/extended/ext_types.hpp"
#include "src/atm/task_types.hpp"
#include "src/core/rng.hpp"
#include "src/obs/trace.hpp"

namespace atm::tasks {

namespace sharded {
struct ShardTelemetry;
}  // namespace sharded

class Backend {
 public:
  virtual ~Backend() = default;

  /// Platform display name ("Titan X (Pascal)", "Intel Xeon (16 cores)"…).
  [[nodiscard]] virtual std::string name() const = 0;

  /// Whether repeated runs of identical work yield identical modeled
  /// times (the paper's SIMD/CUDA determinism property; false for MIMD).
  [[nodiscard]] virtual bool deterministic() const { return true; }

  /// Upload the initial flight database (models the paper's one-time
  /// host->device copy where the platform has one).
  virtual void load(const airfield::FlightDb& db) = 0;

  /// Task 1 for one period. Fills `frame.rmatch_with` and advances the
  /// backend's aircraft by one period.
  Task1Result run_task1(airfield::RadarFrame& frame,
                        const Task1Params& params);

  /// Tasks 2+3 for one major cycle.
  Task23Result run_task23(const Task23Params& params);

  /// Host-visible view of the backend's current flight state.
  [[nodiscard]] virtual const airfield::FlightDb& state() const = 0;

  /// Mutable access for host bookkeeping between tasks (grid re-entry).
  virtual airfield::FlightDb& mutable_state() = 0;

  /// Produce this period's radar frame from the backend's current state.
  /// Radar creation is simulation scaffolding, not an ATM task (paper
  /// Section 4.2), so its modeled cost is returned separately through
  /// `modeled_ms` (nullptr to ignore) and never counted against the
  /// period deadline. The default implementation runs the host generator;
  /// the CUDA backend overrides it to model the paper's device-generate /
  /// host-shuffle round trip.
  airfield::RadarFrame generate_radar(core::Rng& rng,
                                      const airfield::RadarParams& params,
                                      double* modeled_ms);

  /// Convenience: number of aircraft loaded.
  [[nodiscard]] std::size_t aircraft_count() const { return state().size(); }

  // --- Observability ------------------------------------------------------

  /// Attach (or detach, with nullptr) the sink receiving one task event
  /// per `run_*` execution. The sink is borrowed, never owned; tracing is
  /// disabled by default and costs one branch per task when off.
  void set_trace_sink(obs::TraceSink* sink) { trace_ = sink; }
  [[nodiscard]] obs::TraceSink* trace_sink() const { return trace_; }

  /// Stamp subsequent task events with an executive position (the
  /// pipeline calls this each period; -1 means "not in a pipeline").
  void set_trace_context(int cycle, int period) {
    trace_cycle_ = cycle;
    trace_period_ = period;
  }

  // --- Extended system: the paper's Section 7.2 "complete ATM system" ----
  //
  // The base-class `do_run_*` implementations run the reference
  // algorithms on the backend's state and report measured host wall time;
  // every platform backend overrides them with its own execution + cost
  // model, exactly like the core tasks. The terrain model is attached
  // once (it is static data; the CUDA backend models its one-time upload
  // in its on_terrain_attached hook).

  /// Attach the terrain model used by run_terrain.
  void set_terrain(std::shared_ptr<const airfield::TerrainMap> terrain);

  /// Terrain map currently attached (may be null).
  [[nodiscard]] const airfield::TerrainMap* terrain() const {
    return terrain_.get();
  }

  /// Terrain avoidance: flag and climb aircraft whose projected path
  /// violates ground clearance. Runs once per major cycle. Throws
  /// std::logic_error when no terrain is attached, so the hooks can
  /// rely on terrain_map().
  TerrainResult run_terrain(const TerrainTaskParams& params);

  /// Controller display update: sector binning, handoffs, occupancy.
  /// Runs every period. `params` must meet check_display_params.
  DisplayResult run_display(const DisplayParams& params);

  /// Automatic voice advisory scan. Runs every 4 seconds.
  AdvisoryResult run_advisory(const AdvisoryParams& params);

  /// Multi-tower Task 1: correlation over a frame with several returns
  /// per aircraft (the unsimplified radar environment).
  MultiRadarResult run_multi_task1(airfield::MultiRadarFrame& frame,
                                   const Task1Params& params);

  /// Sporadic requests: answer a batch of controller queries against the
  /// flight database.
  SporadicResult run_sporadic(std::span<const Query> queries,
                              const SporadicParams& params);

 protected:
  // Platform hooks behind the public entry points above.
  virtual Task1Result do_run_task1(airfield::RadarFrame& frame,
                                   const Task1Params& params) = 0;
  virtual Task23Result do_run_task23(const Task23Params& params) = 0;
  virtual airfield::RadarFrame do_generate_radar(
      core::Rng& rng, const airfield::RadarParams& params,
      double* modeled_ms);
  virtual TerrainResult do_run_terrain(const TerrainTaskParams& params);
  virtual DisplayResult do_run_display(const DisplayParams& params);
  virtual AdvisoryResult do_run_advisory(const AdvisoryParams& params);
  virtual MultiRadarResult do_run_multi_task1(
      airfield::MultiRadarFrame& frame, const Task1Params& params);
  virtual SporadicResult do_run_sporadic(std::span<const Query> queries,
                                         const SporadicParams& params);

  /// Called after set_terrain stores the new map (which may be null);
  /// platforms model their upload cost here.
  virtual void on_terrain_attached() {}

  /// The attached terrain map (nullptr when none) — subclasses read the
  /// state through this accessor; the owning pointer is private.
  [[nodiscard]] const airfield::TerrainMap* terrain_map() const {
    return terrain_.get();
  }

  /// Emit the per-sector kCounter events of one sharded run of `task`
  /// ("<task>.sector_owned" then "<task>.sector_candidates", sector by
  /// sector) when a sink is attached; no-op otherwise and for unsharded
  /// runs. The host backends call this after an executor run
  /// (sharded.hpp) so sinks can roll up load balance per sector.
  void emit_sector_counters(std::string_view task,
                            const sharded::ShardTelemetry& telemetry);

 private:
  /// Records the result's modeled time, the detail every task event has.
  struct ModeledOnly {
    void operator()(obs::TraceEvent& ev, const auto& result) const {
      ev.modeled_ms = result.modeled_ms;
    }
  };

  /// Run a task hook; with a sink attached, time it and record its kTask
  /// event, which `fill(event, result)` completes.
  template <typename Hook, typename Fill = ModeledOnly>
  auto traced(std::string_view task, Hook&& hook, Fill fill = {});

  std::shared_ptr<const airfield::TerrainMap> terrain_;
  obs::TraceSink* trace_ = nullptr;
  int trace_cycle_ = -1;
  int trace_period_ = -1;
};

}  // namespace atm::tasks
