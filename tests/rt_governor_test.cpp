// Property tests for the overload governor (src/rt/governor.hpp) and the
// ATM degradation ladder it walks (src/atm/degrade.hpp): monotone
// single-step transitions, hysteresis without oscillation, and the
// governed pipeline staying deterministic in virtual-clock mode.
#include <gtest/gtest.h>

#include <vector>

#include "src/atm/degrade.hpp"
#include "src/atm/extended/full_pipeline.hpp"
#include "src/atm/pipeline.hpp"
#include "src/atm/platforms.hpp"
#include "src/atm/reference_backend.hpp"
#include "src/obs/trace.hpp"
#include "src/rt/governor.hpp"

namespace atm::tasks {
namespace {

rt::GovernorConfig enabled_config() {
  rt::GovernorConfig cfg;
  cfg.enabled = true;
  return cfg;
}

rt::Governor make_governor(const rt::GovernorConfig& cfg) {
  return rt::Governor(cfg, degradation_ladder());
}

TEST(Governor, DisabledGovernorNeverMoves) {
  rt::Governor gov = make_governor(rt::GovernorConfig{});
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(gov.observe(1000.0, 500.0, true), rt::GovernorAction::kHold);
  }
  EXPECT_EQ(gov.level(), 0);
  EXPECT_EQ(gov.degrade_count(), 0u);
}

TEST(Governor, EmptyLadderPinsLevelZero) {
  rt::Governor gov(enabled_config(), {});
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(gov.observe(1000.0, 500.0, true), rt::GovernorAction::kHold);
  }
  EXPECT_EQ(gov.level(), 0);
}

TEST(Governor, DegradesOneStepPerHotPeriodAndSaturates) {
  rt::Governor gov = make_governor(enabled_config());
  // Sustained overload: exactly one step per period (monotone, bounded).
  for (int i = 0; i < gov.max_level(); ++i) {
    const int before = gov.level();
    EXPECT_EQ(gov.observe(600.0, 500.0, false), rt::GovernorAction::kDegrade);
    EXPECT_EQ(gov.level(), before + 1);
  }
  EXPECT_EQ(gov.level(), gov.max_level());
  // Saturated: more overload holds at the deepest rung.
  EXPECT_EQ(gov.observe(600.0, 500.0, false), rt::GovernorAction::kHold);
  EXPECT_EQ(gov.level(), gov.max_level());
  EXPECT_EQ(gov.degrade_count(), static_cast<std::uint64_t>(gov.max_level()));
}

TEST(Governor, DeadlineTroubleDegradesEvenUnderBudget) {
  rt::Governor gov = make_governor(enabled_config());
  EXPECT_EQ(gov.observe(100.0, 500.0, true), rt::GovernorAction::kDegrade);
  EXPECT_EQ(gov.level(), 1);
}

TEST(Governor, RecoversOnlyAfterHoldAndOneStepAtATime) {
  rt::GovernorConfig cfg = enabled_config();
  cfg.recover_hold_periods = 4;
  rt::Governor gov = make_governor(cfg);
  gov.observe(600.0, 500.0, false);
  gov.observe(600.0, 500.0, false);
  ASSERT_EQ(gov.level(), 2);
  // Three calm periods: not yet enough.
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(gov.observe(100.0, 500.0, false), rt::GovernorAction::kHold);
  }
  EXPECT_EQ(gov.level(), 2);
  // The fourth completes the hold; each recovery needs a fresh streak.
  EXPECT_EQ(gov.observe(100.0, 500.0, false), rt::GovernorAction::kRecover);
  EXPECT_EQ(gov.level(), 1);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(gov.observe(100.0, 500.0, false), rt::GovernorAction::kHold);
  }
  EXPECT_EQ(gov.observe(100.0, 500.0, false), rt::GovernorAction::kRecover);
  EXPECT_EQ(gov.level(), 0);
  EXPECT_EQ(gov.recover_count(), 2u);
}

TEST(Governor, DeadbandHoldsAndResetsTheRecoveryStreak) {
  rt::GovernorConfig cfg = enabled_config();
  cfg.recover_hold_periods = 2;
  rt::Governor gov = make_governor(cfg);
  gov.observe(600.0, 500.0, false);
  ASSERT_EQ(gov.level(), 1);
  // Utilization inside the hysteresis band (0.60..0.90): hold forever.
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(gov.observe(375.0, 500.0, false), rt::GovernorAction::kHold);
  }
  EXPECT_EQ(gov.level(), 1);
  // One calm period, then a deadband period: the streak must restart.
  gov.observe(100.0, 500.0, false);
  gov.observe(375.0, 500.0, false);
  EXPECT_EQ(gov.observe(100.0, 500.0, false), rt::GovernorAction::kHold);
  EXPECT_EQ(gov.observe(100.0, 500.0, false), rt::GovernorAction::kRecover);
  EXPECT_EQ(gov.level(), 0);
}

TEST(Governor, NoOscillationOnAlternatingLoad) {
  // Load alternating between hot and calm every period can never satisfy
  // a recover hold of 4, so the level ratchets to the bottom and stays:
  // the hysteresis prevents degrade/recover chatter.
  rt::Governor gov = make_governor(enabled_config());
  for (int i = 0; i < 40; ++i) {
    gov.observe(i % 2 == 0 ? 600.0 : 100.0, 500.0, false);
  }
  EXPECT_EQ(gov.level(), gov.max_level());
  EXPECT_EQ(gov.recover_count(), 0u);
}

TEST(Governor, StepNamesComeFromTheLadder) {
  const rt::Governor gov = make_governor(enabled_config());
  EXPECT_EQ(gov.step_name(0), "baseline");
  EXPECT_EQ(gov.step_name(1), "grid-broadphase");
  EXPECT_EQ(gov.step_name(gov.max_level()), "shed-sporadic");
}

TEST(Governor, TransitionsEmitGovernorTraceEvents) {
  obs::RecordingSink sink;
  rt::Governor gov = make_governor(enabled_config());
  gov.set_trace(&sink);
  gov.set_trace_context("test-backend", 2, 7);
  gov.observe(600.0, 500.0, false);                  // degrade -> 1
  for (int i = 0; i < 4; ++i) gov.observe(100.0, 500.0, false);  // recover
  ASSERT_EQ(sink.count(obs::EventKind::kGovernor), 2u);
  const obs::TraceEvent& degrade = sink.events()[0];
  EXPECT_EQ(degrade.name, "grid-broadphase");
  EXPECT_EQ(degrade.outcome, "degrade");
  EXPECT_EQ(degrade.governor_from_level, 0);
  EXPECT_EQ(degrade.governor_level, 1);
  EXPECT_EQ(degrade.backend, "test-backend");
  EXPECT_EQ(degrade.cycle, 2);
  EXPECT_EQ(degrade.period, 7);
  EXPECT_DOUBLE_EQ(degrade.utilization, 600.0 / 500.0);
  const obs::TraceEvent& recover = sink.events()[1];
  EXPECT_EQ(recover.name, "grid-broadphase");  // the step being left
  EXPECT_EQ(recover.outcome, "recover");
  EXPECT_EQ(recover.governor_from_level, 1);
  EXPECT_EQ(recover.governor_level, 0);
}

TEST(DegradationLadder, StepsAreCumulativeAndOrdered) {
  const Task1Params base1;
  const Task23Params base23;
  {
    Task1Params t1 = base1;
    Task23Params t23 = base23;
    apply_degradation(0, t1, t23);
    EXPECT_EQ(t1.broadphase, base1.broadphase);
    EXPECT_EQ(t1.retries, base1.retries);
    EXPECT_EQ(t23.turn_step_deg, base23.turn_step_deg);
  }
  {
    Task1Params t1 = base1;
    Task23Params t23 = base23;
    apply_degradation(1, t1, t23);
    EXPECT_EQ(t1.broadphase, core::spatial::BroadphaseMode::kGrid);
    EXPECT_EQ(t23.broadphase, core::spatial::BroadphaseMode::kGrid);
    EXPECT_EQ(t1.shard, base1.shard);  // level 2 not yet in force
    EXPECT_EQ(t1.retries, base1.retries);
  }
  {
    Task1Params t1 = base1;
    Task23Params t23 = base23;
    apply_degradation(3, t1, t23);
    EXPECT_EQ(t1.shard, core::spatial::ShardMode::kSectors);
    EXPECT_GE(t1.sectors_per_axis, 4);
    EXPECT_LE(t1.retries, 1);
    EXPECT_EQ(t23.turn_step_deg, base23.turn_step_deg);
  }
  {
    Task1Params t1 = base1;
    Task23Params t23 = base23;
    apply_degradation(4, t1, t23);
    EXPECT_GT(t23.turn_step_deg, base23.turn_step_deg);
    EXPECT_LE(t23.turn_step_deg, t23.turn_max_deg);
  }
  EXPECT_FALSE(degradation_sheds_sporadic(4));
  EXPECT_TRUE(degradation_sheds_sporadic(5));
}

TEST(DegradationLadder, RaiseSectorsEscalatesAnAlreadyShardedBundle) {
  Task1Params t1;
  Task23Params t23;
  t1.shard = core::spatial::ShardMode::kSectors;
  t1.sectors_per_axis = 4;
  apply_degradation(2, t1, t23);
  EXPECT_EQ(t1.sectors_per_axis, 8);
  EXPECT_EQ(t23.shard, core::spatial::ShardMode::kSectors);
  EXPECT_EQ(t23.sectors_per_axis, 4);
}

TEST(GovernedPipeline, VirtualModeOverloadIsDeterministic) {
  // Stolen time in virtual-clock mode makes overload itself determinis-
  // tic: every period loses 470 of 500 ms, the governor walks to the
  // bottom of the ladder, and two identically-seeded runs agree bit for
  // bit — including the governor's transition history.
  PipelineConfig cfg;
  cfg.aircraft = 200;
  cfg.major_cycles = 2;
  cfg.governor.enabled = true;
  cfg.faults.enabled = true;
  cfg.faults.stolen_time_probability = 1.0;
  cfg.faults.stolen_time_ms = 470.0;
  auto a = make_reference();
  auto b = make_reference();
  const PipelineResult ra = run_pipeline(*a, cfg);
  const PipelineResult rb = run_pipeline(*b, cfg);

  EXPECT_GT(ra.governor_degrades, 0u);
  EXPECT_GT(ra.final_governor_level, 0);
  EXPECT_EQ(ra.governor_degrades, rb.governor_degrades);
  EXPECT_EQ(ra.governor_recovers, rb.governor_recovers);
  EXPECT_EQ(ra.final_governor_level, rb.final_governor_level);
  EXPECT_EQ(ra.virtual_end_ms, rb.virtual_end_ms);
  ASSERT_EQ(ra.periods.size(), rb.periods.size());
  for (std::size_t i = 0; i < ra.periods.size(); ++i) {
    EXPECT_EQ(ra.periods[i].governor_level, rb.periods[i].governor_level);
    EXPECT_EQ(ra.periods[i].stolen_ms, rb.periods[i].stolen_ms);
    EXPECT_EQ(ra.periods[i].task1_outcome, rb.periods[i].task1_outcome);
  }
}

/// The host reference with a deterministic cost shape: brute-force Task 1
/// takes 300 ms, the grid broadphase (the ladder's first rung) 100 ms,
/// every other task 1 ms. With 250 ms stolen from a period, brute force
/// overruns it and the grid does not.
class ShapedBackend final : public ReferenceBackend {
 protected:
  Task1Result do_run_task1(airfield::RadarFrame& frame,
                           const Task1Params& params) override {
    Task1Result r = ReferenceBackend::do_run_task1(frame, params);
    r.modeled_ms =
        params.broadphase == core::spatial::BroadphaseMode::kGrid ? 100.0
                                                                   : 300.0;
    return r;
  }
  Task23Result do_run_task23(const Task23Params& params) override {
    return cheap(ReferenceBackend::do_run_task23(params));
  }
  TerrainResult do_run_terrain(const TerrainTaskParams& params) override {
    return cheap(ReferenceBackend::do_run_terrain(params));
  }
  DisplayResult do_run_display(const DisplayParams& params) override {
    return cheap(ReferenceBackend::do_run_display(params));
  }
  AdvisoryResult do_run_advisory(const AdvisoryParams& params) override {
    return cheap(ReferenceBackend::do_run_advisory(params));
  }
  SporadicResult do_run_sporadic(std::span<const Query> queries,
                                 const SporadicParams& params) override {
    return cheap(ReferenceBackend::do_run_sporadic(queries, params));
  }

 private:
  template <typename Result>
  static Result cheap(Result r) {
    r.modeled_ms = 1.0;
    return r;
  }
};

TEST(GovernedSchedules, StolenTimeMissesBecomeDegradedMetPeriods) {
  // On the virtual clock, with stolen time injected: the ungoverned
  // executive misses Task 1 in every period that loses 250 ms. The
  // governed one degrades to the grid after the first such period and
  // then meets its deadlines while degraded. Both schedules (the paper
  // pipeline and the full system) run on the same loop and must show it.
  extended::FullSystemConfig cfg;
  cfg.aircraft = 200;
  cfg.major_cycles = 2;
  cfg.sporadic.queries_per_batch = 2;
  cfg.faults.enabled = true;
  cfg.faults.stolen_time_probability = 0.3;
  cfg.faults.stolen_time_ms = 250.0;
  // Hold every degradation for the whole run: this is about the degrade
  // direction, not the recovery schedule.
  cfg.governor.recover_hold_periods = 1000;

  const auto run = [&](bool full_system, bool governed) {
    extended::FullSystemConfig c = cfg;
    c.governor.enabled = governed;
    ShapedBackend backend;
    if (full_system) return PipelineResult(extended::run_full_system(backend, c));
    return run_pipeline(backend, c);
  };
  for (const bool full_system : {false, true}) {
    SCOPED_TRACE(full_system ? "full system" : "pipeline");
    const PipelineResult ungoverned = run(full_system, false);
    const PipelineResult governed = run(full_system, true);
    std::size_t stolen_periods = 0;
    for (const PeriodLog& log : ungoverned.periods) {
      stolen_periods += log.stolen_ms > 0.0 ? 1u : 0u;
    }
    ASSERT_GE(stolen_periods, 2u);
    ASSERT_GT(ungoverned.missed_or_skipped(), 0u);

    EXPECT_GT(governed.governor_degrades, 0u);
    EXPECT_LT(governed.missed_or_skipped(), ungoverned.missed_or_skipped());
    // The converted periods: robbed of time, degraded, and still met.
    std::size_t degraded_met = 0;
    for (const PeriodLog& log : governed.periods) {
      if (log.stolen_ms > 0.0 && log.governor_level > 0 &&
          log.task1_outcome == rt::Outcome::kMet) {
        ++degraded_met;
      }
    }
    EXPECT_GT(degraded_met, 0u);
  }
}

TEST(GovernedPipeline, PeriodLogRecordsTheLevelEachPeriodRanAt) {
  PipelineConfig cfg;
  cfg.aircraft = 100;
  cfg.major_cycles = 1;
  cfg.governor.enabled = true;
  cfg.faults.enabled = true;
  cfg.faults.stolen_time_probability = 1.0;
  cfg.faults.stolen_time_ms = 600.0;  // every period overruns outright
  auto backend = make_reference();
  const PipelineResult result = run_pipeline(*backend, cfg);
  // Period 0 runs at the baseline; the level then ratchets one step per
  // overloaded period until the ladder bottoms out.
  EXPECT_EQ(result.periods.front().governor_level, 0);
  for (std::size_t i = 1; i < result.periods.size(); ++i) {
    const int prev = result.periods[i - 1].governor_level;
    const int cur = result.periods[i].governor_level;
    EXPECT_GE(cur, prev);
    EXPECT_LE(cur - prev, 1);
  }
  EXPECT_EQ(result.periods.back().governor_level, 5);
  EXPECT_EQ(result.final_governor_level, 5);
}

TEST(GovernedPipeline, DisabledGovernorLeavesResultsBitIdentical) {
  // The core bit-identicality guarantee of the redesign: constructing the
  // governor/fault machinery with everything disabled must not perturb a
  // single field of the result.
  PipelineConfig cfg;
  cfg.aircraft = 300;
  cfg.major_cycles = 1;
  auto a = make_titan_x_pascal();
  const PipelineResult plain = run_pipeline(*a, cfg);
  cfg.governor = rt::GovernorConfig{};  // explicit default: disabled
  cfg.faults = rt::FaultConfig{};
  auto b = make_titan_x_pascal();
  const PipelineResult defaulted = run_pipeline(*b, cfg);
  EXPECT_EQ(plain.virtual_end_ms, defaulted.virtual_end_ms);
  EXPECT_EQ(plain.deadlines().total_met(), defaulted.deadlines().total_met());
  EXPECT_EQ(plain.last_task1, defaulted.last_task1);
  EXPECT_EQ(plain.last_task23, defaulted.last_task23);
  EXPECT_EQ(plain.governor_degrades, 0u);
  EXPECT_EQ(defaulted.governor_degrades, 0u);
}

}  // namespace
}  // namespace atm::tasks
