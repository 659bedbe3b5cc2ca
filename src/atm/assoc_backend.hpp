// The associative backends: the paper's STARAN and ClearSpeed platforms.
//
// Both run one associative algorithm ([12, 13]; the task templates of
// src/atm/assoc_tasks.hpp) and differ only in the machine that prices it.
// `Machine` is an associative-machine adapter: ApAssocMachine
// (ap_backend.hpp) for the STARAN, ClearSpeedAssocMachine
// (clearspeed_backend.hpp) for the ClearSpeed emulation. It names its
// `Spec` type and `default_spec()`, and is built from the aircraft count
// and that spec. Each task resets the machine, and the machine's elapsed
// time is the task's modeled time.
#pragma once

#include <memory>

#include "src/atm/assoc_tasks.hpp"
#include "src/atm/backend.hpp"

namespace atm::tasks {

template <typename Machine>
class AssocBackend final : public Backend {
 public:
  using Spec = typename Machine::Spec;

  explicit AssocBackend(Spec spec = Machine::default_spec())
      : spec_(std::move(spec)) {}

  [[nodiscard]] std::string name() const override { return spec_.name; }

  void load(const airfield::FlightDb& db) override {
    db_ = db;
    machine_ = std::make_unique<Machine>(db_.size(), spec_);
  }

  [[nodiscard]] const airfield::FlightDb& state() const override {
    return db_;
  }
  airfield::FlightDb& mutable_state() override { return db_; }

 private:
  Task1Result do_run_task1(airfield::RadarFrame& frame,
                           const Task1Params& params) final {
    machine_->reset();
    Task1Result result;
    result.stats = assoc::assoc_task1(*machine_, db_, frame, params);
    result.modeled_ms = machine_->elapsed_ms();
    return result;
  }

  Task23Result do_run_task23(const Task23Params& params) final {
    machine_->reset();
    Task23Result result;
    result.stats = assoc::assoc_task23(*machine_, db_, params);
    result.modeled_ms = machine_->elapsed_ms();
    return result;
  }

  TerrainResult do_run_terrain(const TerrainTaskParams& params) final {
    machine_->reset();
    TerrainResult result;
    result.stats = assoc::assoc_terrain(*machine_, db_, *terrain_map(), params);
    result.modeled_ms = machine_->elapsed_ms();
    return result;
  }

  DisplayResult do_run_display(const DisplayParams& params) final {
    machine_->reset();
    DisplayResult result;
    std::vector<std::int32_t> occupancy;
    result.stats = assoc::assoc_display(*machine_, db_, occupancy, params);
    result.modeled_ms = machine_->elapsed_ms();
    return result;
  }

  AdvisoryResult do_run_advisory(const AdvisoryParams& params) final {
    machine_->reset();
    AdvisoryResult result;
    result.stats =
        assoc::assoc_advisory(*machine_, db_, params, result.queue);
    result.modeled_ms = machine_->elapsed_ms();
    return result;
  }

  MultiRadarResult do_run_multi_task1(airfield::MultiRadarFrame& frame,
                                      const Task1Params& params) final {
    machine_->reset();
    MultiRadarResult result;
    result.stats = assoc::assoc_multi_task1(*machine_, db_, frame, params);
    result.modeled_ms = machine_->elapsed_ms();
    return result;
  }

  SporadicResult do_run_sporadic(std::span<const Query> queries,
                                 const SporadicParams& params) final {
    (void)params;
    machine_->reset();
    SporadicResult result;
    result.stats =
        assoc::assoc_sporadic(*machine_, db_, queries, result.answers);
    result.modeled_ms = machine_->elapsed_ms();
    return result;
  }

  Spec spec_;
  airfield::FlightDb db_;
  std::unique_ptr<Machine> machine_;
};

}  // namespace atm::tasks
