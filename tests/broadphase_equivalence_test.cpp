// Brute-force vs grid broadphase equivalence: for every named scenario,
// the kGrid indexes must not change a single task outcome — identical
// outcome() counters (including the bounding-box retry pass count) and
// bit-identical post-run flight state — on both host execution paths
// (sequential reference and the MIMD thread pool). Only the *Work fields
// may differ; that is the broadphase's whole purpose.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>

#include "src/airfield/setup.hpp"
#include "src/atm/mimd_backend.hpp"
#include "src/atm/pipeline.hpp"
#include "src/atm/reference/collision.hpp"
#include "src/atm/reference_backend.hpp"
#include "src/atm/scenarios.hpp"
#include "src/core/kern/band_math.hpp"
#include "src/core/vec2.hpp"

namespace atm::tasks {
namespace {

using core::spatial::BroadphaseMode;

PipelineConfig config_with_mode(const Scenario& scenario,
                                BroadphaseMode mode, int cycles = 1) {
  Scenario s = scenario;
  s.policy.broadphase = mode;
  return make_pipeline_config(s, cycles);
}

class BroadphaseEquivalenceTest : public ::testing::TestWithParam<Scenario> {
};

/// The one-at-a-time grid scan, written against band_math.hpp directly:
/// visit for_each_candidate's ids in order, skip self, count the
/// candidate, apply the altitude gate, count the test, run the pair test,
/// stop at the first critical conflict when asked. The counters it
/// produces are what the MIMD model charges under kGrid.
reference::DetectOutcome one_at_a_time(const airfield::FlightDb& db,
                                       const core::spatial::SweptIndex& index,
                                       std::size_t i, double vx, double vy,
                                       const Task23Params& p, bool stop,
                                       reference::ScanWork& work) {
  reference::DetectOutcome out;
  double soonest = p.horizon_periods + 1.0;
  index.for_each_candidate(
      db.x[i], db.y[i], db.alt[i], std::sqrt(vx * vx + vy * vy),
      [&](std::size_t j) {
        if (j == i) return false;
        ++work.pair_candidates;
        if (!core::kern::altitude_gate_pass(db.alt[i], db.alt[j],
                                            p.altitude_gate_feet)) {
          return false;
        }
        ++work.pair_tests;
        const core::kern::PairWindow w = core::kern::pair_band_test(
            db.x[j] - db.x[i], db.y[j] - db.y[i], db.dx[j] - vx,
            db.dy[j] - vy, p.band_nm, p.horizon_periods);
        if (!w.conflict) return false;
        out.conflict = true;
        const auto id = static_cast<std::int32_t>(j);
        if (w.time_min < soonest ||
            (w.time_min == soonest && id < out.partner)) {
          soonest = w.time_min;
          out.partner = id;
          out.time_min = w.time_min;
        }
        if (w.time_min < p.critical_periods) {
          out.critical = true;
          return stop;
        }
        return false;
      });
  return out;
}

/// scan_candidates over the bucket-ordered snapshot against
/// one_at_a_time for every aircraft's detection pass and, for critical
/// ones, every Task-3 trial rotation. Returns how many scans stopped
/// early, so callers can tell the early exit was exercised.
std::size_t expect_scan_lane_order(const airfield::FlightDb& db,
                                   const Task23Params& params,
                                   const std::string& where) {
  core::spatial::SweptIndex index;
  reference::build_swept_index(db, params, index);
  core::kern::SoaSnapshot snap;
  snap.gather(db, index.order());
  const core::kern::Kernel kernel = core::kern::resolve(params.kernel);
  reference::ScanScratch scratch;
  std::size_t early_stops = 0;

  const auto check = [&](std::size_t i, double vx, double vy, bool stop) {
    reference::ScanWork got_work, want_work;
    const reference::DetectOutcome got = reference::scan_candidates(
        snap.view(), index.order().data(), static_cast<std::int32_t>(i),
        db.x[i], db.y[i], db.alt[i], vx, vy, params, kernel, got_work, stop,
        &index, scratch);
    const reference::DetectOutcome want =
        one_at_a_time(db, index, i, vx, vy, params, stop, want_work);
    EXPECT_EQ(got.conflict, want.conflict) << where << " aircraft " << i;
    EXPECT_EQ(got.critical, want.critical) << where << " aircraft " << i;
    EXPECT_EQ(got.time_min, want.time_min) << where << " aircraft " << i;
    EXPECT_EQ(got.partner, want.partner) << where << " aircraft " << i;
    EXPECT_EQ(got_work.pair_candidates, want_work.pair_candidates)
        << where << " aircraft " << i << (stop ? " (trial)" : "");
    EXPECT_EQ(got_work.pair_tests, want_work.pair_tests)
        << where << " aircraft " << i << (stop ? " (trial)" : "");
    if (stop && want.critical) ++early_stops;
    return want;
  };

  const int attempts = reference::max_trial_attempts(params);
  for (std::size_t i = 0; i < db.size(); ++i) {
    if (!check(i, db.dx[i], db.dy[i], /*stop=*/false).critical) continue;
    const core::Vec2 vel{db.dx[i], db.dy[i]};
    for (int attempt = 0; attempt < attempts; ++attempt) {
      const core::Vec2 trial = core::rotate_deg(
          vel, reference::trial_angle_deg(attempt, params.turn_step_deg));
      check(i, trial.x, trial.y, /*stop=*/true);
    }
  }
  return early_stops;
}

TEST_P(BroadphaseEquivalenceTest, ReferencePathMatchesBruteForce) {
  ReferenceBackend brute, grid;
  const PipelineResult rb = run_pipeline(
      brute, config_with_mode(GetParam(), BroadphaseMode::kBruteForce));
  const PipelineResult rg = run_pipeline(
      grid, config_with_mode(GetParam(), BroadphaseMode::kGrid));

  EXPECT_EQ(rb.last_task1.outcome(), rg.last_task1.outcome());
  EXPECT_EQ(rb.last_task1.passes, rg.last_task1.passes);
  EXPECT_EQ(rb.last_task23.outcome(), rg.last_task23.outcome());
  ASSERT_EQ(rb.periods.size(), rg.periods.size());
  for (std::size_t i = 0; i < rb.periods.size(); ++i) {
    EXPECT_EQ(rb.periods[i].wrapped, rg.periods[i].wrapped)
        << "re-entry wraps diverged in period " << i;
  }
  EXPECT_TRUE(brute.state().same_flight_state(grid.state()))
      << GetParam().name << ": grid broadphase changed the flight state";
}

TEST_P(BroadphaseEquivalenceTest, MimdPathMatchesBruteForce) {
  MimdBackend brute, grid;
  const PipelineResult rb = run_pipeline(
      brute, config_with_mode(GetParam(), BroadphaseMode::kBruteForce));
  const PipelineResult rg = run_pipeline(
      grid, config_with_mode(GetParam(), BroadphaseMode::kGrid));

  EXPECT_EQ(rb.last_task1.outcome(), rg.last_task1.outcome());
  EXPECT_EQ(rb.last_task23.outcome(), rg.last_task23.outcome());
  EXPECT_TRUE(brute.state().same_flight_state(grid.state()))
      << GetParam().name << ": grid broadphase diverged on the MIMD path";
}

TEST_P(BroadphaseEquivalenceTest, GridMimdMatchesGridReference) {
  // Both host paths in kGrid mode stay equivalent to each other too (the
  // MIMD workers query the shared immutable index concurrently).
  ReferenceBackend ref;
  MimdBackend xeon;
  const PipelineResult rr = run_pipeline(
      ref, config_with_mode(GetParam(), BroadphaseMode::kGrid));
  const PipelineResult rx = run_pipeline(
      xeon, config_with_mode(GetParam(), BroadphaseMode::kGrid));
  EXPECT_EQ(rr.last_task1.outcome(), rx.last_task1.outcome());
  EXPECT_EQ(rr.last_task23.outcome(), rx.last_task23.outcome());
  EXPECT_TRUE(ref.state().same_flight_state(xeon.state()));
}

TEST_P(BroadphaseEquivalenceTest, ScanConsumesLanesInCandidateOrder) {
  // The equivalence tests above normalise pair_candidates / pair_tests
  // away, but under kGrid the MIMD model charges them: the bucket-ordered
  // run scan must consume exactly the lanes the one-at-a-time candidate
  // loop did, early exit included. (dense-en-route is the 3000-aircraft
  // fleet of the bench workloads.)
  const Scenario& s = GetParam();
  const airfield::FlightDb db =
      airfield::make_airfield(s.default_aircraft, 42, s.setup);
  const std::size_t early_stops =
      expect_scan_lane_order(db, s.task23, s.name);
  if (s.name == "dense-en-route") {
    EXPECT_GT(early_stops, 0u) << "no trial scan stopped early";
  }
}

std::string scenario_test_name(
    const ::testing::TestParamInfo<Scenario>& info) {
  std::string name = info.param.name;
  std::replace(name.begin(), name.end(), '-', '_');
  return name;
}

INSTANTIATE_TEST_SUITE_P(AllScenarios, BroadphaseEquivalenceTest,
                         ::testing::ValuesIn(all_scenarios()),
                         scenario_test_name);

TEST(BroadphaseEquivalence, RetryPassesAreExercisedAndIdentical) {
  // dulles-1972 has noisy 1972-grade radar and dropouts, so some radars
  // stay unmatched after pass 1 and the doubling retries actually run —
  // the grid is rebuilt per pass with the doubled cell hint.
  Scenario s = dulles_1972();
  ReferenceBackend brute, grid;
  const PipelineResult rb =
      run_pipeline(brute, config_with_mode(s, BroadphaseMode::kBruteForce));
  const PipelineResult rg =
      run_pipeline(grid, config_with_mode(s, BroadphaseMode::kGrid));
  EXPECT_GT(rb.last_task1.passes, 1) << "scenario no longer retries; the "
                                        "multi-pass grid path is untested";
  EXPECT_EQ(rb.last_task1.passes, rg.last_task1.passes);
  EXPECT_EQ(rb.last_task1.outcome(), rg.last_task1.outcome());
  EXPECT_TRUE(brute.state().same_flight_state(grid.state()));
}

TEST(BroadphaseEquivalence, GridEdgeReentryAircraftStayIdentical) {
  // Aircraft leaving the 256 nm field re-enter at (-x, -y) between
  // periods — a worst case for position-keyed bins, since re-entrants
  // teleport across the whole grid. Seed a fleet with a cluster flying
  // hard at the corner so wraps are guaranteed within one major cycle.
  airfield::FlightDb db = airfield::make_airfield(200, 7);
  for (std::size_t k = 0; k < 8; ++k) {
    db.x[k] = 127.5;
    db.y[k] = 127.5;
    db.dx[k] = 0.09;
    db.dy[k] = 0.09;
    db.alt[k] = 10000.0 + 100.0 * static_cast<double>(k);
  }

  PipelineConfig cfg;
  cfg.aircraft = db.size();
  cfg.major_cycles = 1;
  cfg.preloaded = true;

  ReferenceBackend brute, grid;
  brute.load(db);
  grid.load(db);
  PipelineConfig brute_cfg = cfg;
  const PipelineResult rb = run_pipeline(brute, brute_cfg);
  PipelineConfig grid_cfg = cfg;
  grid_cfg.task1.broadphase = BroadphaseMode::kGrid;
  grid_cfg.task23.broadphase = BroadphaseMode::kGrid;
  const PipelineResult rg = run_pipeline(grid, grid_cfg);

  std::size_t wraps = 0;
  for (const PeriodLog& log : rb.periods) wraps += log.wrapped;
  EXPECT_GT(wraps, 0u) << "no aircraft wrapped; the re-entry case is dead";
  EXPECT_EQ(rb.last_task1.outcome(), rg.last_task1.outcome());
  EXPECT_EQ(rb.last_task23.outcome(), rg.last_task23.outcome());
  EXPECT_TRUE(brute.state().same_flight_state(grid.state()));
}

TEST(BroadphaseEquivalence, ScenarioModeReachesBothParamBundles) {
  Scenario s = paper_airfield();
  s.policy.broadphase = BroadphaseMode::kGrid;
  const PipelineConfig cfg = make_pipeline_config(s);
  EXPECT_EQ(cfg.task1.broadphase, BroadphaseMode::kGrid);
  EXPECT_EQ(cfg.task23.broadphase, BroadphaseMode::kGrid);
  const extended::FullSystemConfig full = make_full_config(s);
  EXPECT_EQ(full.task1.broadphase, BroadphaseMode::kGrid);
  EXPECT_EQ(full.task23.broadphase, BroadphaseMode::kGrid);
}

}  // namespace
}  // namespace atm::tasks
