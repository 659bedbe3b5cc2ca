// Brute-force vs grid broadphase equivalence: for every named scenario,
// the kGrid indexes must not change a single task outcome — identical
// outcome() counters (including the bounding-box retry pass count) and
// bit-identical post-run flight state — on both host execution paths
// (sequential reference and the MIMD thread pool). Only the *Work fields
// may differ; that is the broadphase's whole purpose.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <numbers>
#include <span>
#include <string>
#include <vector>

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

/// The one-at-a-time scan, written against band_math.hpp directly: visit
/// for_each_candidate's ids in order (ids 0..n-1 without an index), skip
/// self, count the candidate, apply the altitude gate, count the test,
/// run the pair test, stop at the first critical conflict when asked. The
/// counters it produces are what the MIMD model charges under kGrid.
reference::DetectOutcome one_at_a_time(const airfield::FlightDb& db,
                                       const core::spatial::SweptIndex* index,
                                       std::size_t i, double vx, double vy,
                                       const Task23Params& p, bool stop,
                                       reference::ScanWork& work) {
  reference::DetectOutcome out;
  double soonest = p.horizon_periods + 1.0;
  const auto visit = [&](std::size_t j) {
    if (j == i) return false;
    ++work.pair_candidates;
    if (!core::kern::altitude_gate_pass(db.alt[i], db.alt[j],
                                        p.altitude_gate_feet)) {
      return false;
    }
    ++work.pair_tests;
    const core::kern::PairWindow w = core::kern::pair_band_test(
        db.x[j] - db.x[i], db.y[j] - db.y[i], db.dx[j] - vx, db.dy[j] - vy,
        p.band_nm, p.horizon_periods);
    if (!w.conflict) return false;
    out.conflict = true;
    const auto id = static_cast<std::int32_t>(j);
    if (w.time_min < soonest || (w.time_min == soonest && id < out.partner)) {
      soonest = w.time_min;
      out.partner = id;
      out.time_min = w.time_min;
    }
    if (w.time_min < p.critical_periods) {
      out.critical = true;
      return stop;
    }
    return false;
  };
  if (index != nullptr) {
    index->for_each_candidate(db.x[i], db.y[i], db.alt[i],
                              std::sqrt(vx * vx + vy * vy), visit);
  } else {
    for (std::size_t j = 0; j < db.size(); ++j) {
      if (visit(j)) break;
    }
  }
  return out;
}

/// The whole table as the tasks scan it: one snapshot sorted by
/// (cell, altitude, id), the swept index's buckets under kGrid and one
/// cell under brute force.
struct WholeTable {
  reference::SortedSnapshot sorted;
  reference::ScanRegion region;
  const core::spatial::SweptIndex& index = sorted.index();

  WholeTable(const airfield::FlightDb& db, Task23Params params,
             BroadphaseMode mode) {
    params.broadphase = mode;
    region = sorted.build(db, params);
  }
  WholeTable(const WholeTable&) = delete;
  WholeTable& operator=(const WholeTable&) = delete;
};

/// One trial check through the production TrialScan against
/// one_at_a_time: the same `critical` and the same counters. Returns
/// whether the trial stopped at a critical conflict.
bool expect_trial_matches(reference::TrialScan& trials,
                          const airfield::FlightDb& db,
                          const core::spatial::SweptIndex* index,
                          std::size_t i, double vx, double vy,
                          const Task23Params& params,
                          const std::string& where) {
  reference::ScanWork got_work, want_work;
  const bool got = trials.critical(vx, vy, got_work);
  const reference::DetectOutcome want =
      one_at_a_time(db, index, i, vx, vy, params, /*stop=*/true, want_work);
  EXPECT_EQ(got, want.critical) << where << " aircraft " << i << " (trial)";
  EXPECT_EQ(got_work.pair_candidates, want_work.pair_candidates)
      << where << " aircraft " << i << " (trial)";
  EXPECT_EQ(got_work.pair_tests, want_work.pair_tests)
      << where << " aircraft " << i << " (trial)";
  return want.critical;
}

/// scan_candidates against one_at_a_time for every aircraft's detection
/// pass and, for critical ones, TrialScan against it for every Task-3
/// trial rotation. Returns how many trials stopped early, so callers can
/// tell the early exit was exercised.
std::size_t expect_scan_lane_order(const airfield::FlightDb& db,
                                   const Task23Params& params,
                                   BroadphaseMode mode,
                                   const std::string& where) {
  const WholeTable table(db, params, mode);
  const core::spatial::SweptIndex* index = table.region.index;
  const core::kern::Kernel kernel = core::kern::resolve(params.kernel);
  reference::ScanScratch scratch;
  std::size_t early_stops = 0;

  const int attempts = reference::max_trial_attempts(params);
  for (std::size_t i = 0; i < db.size(); ++i) {
    const auto self = static_cast<std::int32_t>(i);
    reference::ScanWork got_work, want_work;
    const reference::DetectOutcome got = reference::scan_candidates(
        table.region, self, db.x[i], db.y[i], db.alt[i], db.dx[i], db.dy[i],
        params, kernel, got_work, scratch);
    const reference::DetectOutcome want = one_at_a_time(
        db, index, i, db.dx[i], db.dy[i], params, /*stop=*/false, want_work);
    EXPECT_EQ(got.conflict, want.conflict) << where << " aircraft " << i;
    EXPECT_EQ(got.critical, want.critical) << where << " aircraft " << i;
    EXPECT_EQ(got.time_min, want.time_min) << where << " aircraft " << i;
    EXPECT_EQ(got.partner, want.partner) << where << " aircraft " << i;
    EXPECT_EQ(got_work.pair_candidates, want_work.pair_candidates)
        << where << " aircraft " << i;
    EXPECT_EQ(got_work.pair_tests, want_work.pair_tests)
        << where << " aircraft " << i;
    if (!want.critical) continue;

    reference::TrialScan trials(table.region, self, db.x[i], db.y[i],
                                db.alt[i], params, kernel, scratch);
    const core::Vec2 vel{db.dx[i], db.dy[i]};
    for (int attempt = 0; attempt < attempts; ++attempt) {
      const core::Vec2 trial = core::rotate_deg(
          vel, reference::trial_angle_deg(attempt, params.turn_step_deg));
      if (expect_trial_matches(trials, db, index, i, trial.x, trial.y,
                               params, where)) {
        ++early_stops;
      }
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
  // run scan and the gate-list trials must consume exactly the lanes the
  // one-at-a-time candidate loop did, early exit included.
  // (dense-en-route is the 3000-aircraft fleet of the bench workloads.)
  const Scenario& s = GetParam();
  const airfield::FlightDb db =
      airfield::make_airfield(s.default_aircraft, 42, s.setup);
  const std::size_t early_stops =
      expect_scan_lane_order(db, s.task23, BroadphaseMode::kGrid, s.name);
  if (s.name == "dense-en-route") {
    EXPECT_GT(early_stops, 0u) << "no trial scan stopped early";
  }
}

TEST_P(BroadphaseEquivalenceTest, BruteScanConsumesLanesInSlotOrder) {
  // The brute-force twin: the reference trace and the bench per-layer
  // metrics read the same counters, so the slot-order scan and the
  // gate-list trials must consume the lanes of the ascending id loop.
  const Scenario& s = GetParam();
  const airfield::FlightDb db =
      airfield::make_airfield(s.default_aircraft, 42, s.setup);
  const std::size_t early_stops = expect_scan_lane_order(
      db, s.task23, BroadphaseMode::kBruteForce, s.name);
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

TEST(BroadphaseEquivalence, TrialRebuildsItsGateListWhenTheQueryBoxChanges) {
  // At a 2.5-minute horizon the swept grid has several cells per axis, so
  // a faster trial velocity reaches other cells than the detection one:
  // the list built for the first box must be rebuilt for the second (and
  // back), and every check must still match one_at_a_time at its own
  // velocity.
  Scenario s = dense_en_route();
  s.task23.horizon_periods = s.task23.critical_periods;
  const airfield::FlightDb db = airfield::make_airfield(1500, 7, s.setup);
  const WholeTable table(db, s.task23, BroadphaseMode::kGrid);
  ASSERT_GT(table.index.cols(), 1);
  const core::kern::Kernel kernel = core::kern::resolve(s.task23.kernel);
  reference::ScanScratch scratch;
  std::size_t rebuilds = 0;
  for (std::size_t i = 0; i < db.size(); ++i) {
    const auto self = static_cast<std::int32_t>(i);
    reference::ScanWork work;
    if (!reference::scan_candidates(table.region, self, db.x[i], db.y[i],
                                    db.alt[i], db.dx[i], db.dy[i], s.task23,
                                    kernel, work, scratch)
             .critical) {
      continue;
    }
    const double speed = std::hypot(db.dx[i], db.dy[i]);
    if (table.index.query(db.x[i], db.y[i], db.alt[i], speed) !=
        table.index.query(db.x[i], db.y[i], db.alt[i], 3.0 * speed)) {
      ++rebuilds;
    }
    reference::TrialScan trials(table.region, self, db.x[i], db.y[i],
                                db.alt[i], s.task23, kernel, scratch);
    for (const double scale : {1.0, 3.0, 1.0}) {
      expect_trial_matches(trials, db, &table.index, i, scale * db.dx[i],
                           scale * db.dy[i], s.task23, s.name);
    }
  }
  EXPECT_GT(rebuilds, 0u) << "no faster trial reached another query box";
}

/// Aircraft on rings of radius 3 nm around `centres`, each flying at its
/// ring's centre at 0.04 nm/period: every pair of one ring that passes
/// the altitude gate meets well inside the critical time. Ring r holds one
/// aircraft per entry of `alts`, in order, so ids r * alts.size() + k.
airfield::FlightDb converging_rings(std::span<const double> alts,
                                    std::span<const core::Vec2> centres) {
  airfield::FlightDb db(alts.size() * centres.size());
  const double step = 2.0 * std::numbers::pi / static_cast<double>(alts.size());
  std::size_t i = 0;
  for (const core::Vec2& c : centres) {
    for (std::size_t k = 0; k < alts.size(); ++k, ++i) {
      const double a = step * static_cast<double>(k);
      db.x[i] = c.x + 3.0 * std::cos(a);
      db.y[i] = c.y + 3.0 * std::sin(a);
      db.dx[i] = -0.04 * std::cos(a);
      db.dy[i] = -0.04 * std::sin(a);
      db.alt[i] = alts[k];
    }
  }
  return db;
}

TEST(BroadphaseEquivalence, GateWindowEdgesMatchOneAtATime) {
  // Altitudes where the gate window's binary searches could go wrong by
  // one lane or read past the query's slabs: partners exactly one gate
  // away and one ulp inside and outside it, ties across ids, signed
  // zeros, opposite-sign altitudes whose difference rounds at the gate,
  // slab boundaries and slabs beyond the index's cap, and a multi-cell
  // swept grid. Detection and every trial must consume the lanes of the
  // one-at-a-time loop under both broadphases and both kernels.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double a = 12000.0;
  const double g = 1000.0;
  const std::vector<double> edges{
      a, a + g, a - g, std::nextafter(a + g, 0.0),
      std::nextafter(a + g, kInf), std::nextafter(a - g, kInf),
      std::nextafter(a - g, 0.0), a + g / 2, a, a - g / 2, a + 2 * g, a};
  const std::vector<double> ties{9000.0, 9500.0, 9000.0, 10000.0,
                                 9000.0, 9500.0, 8000.0, 9000.0,
                                 10000.0, 9500.0, 9000.0, 8500.0};
  const std::vector<double> zeros{0.0,
                                  -0.0,
                                  g,
                                  -g,
                                  0.0,
                                  std::nextafter(g, 0.0),
                                  std::nextafter(-g, 0.0),
                                  -0.0,
                                  g / 2,
                                  -g / 2,
                                  std::nextafter(0.0, 1.0),
                                  std::nextafter(-0.0, -1.0)};
  // alt_i - alt_j = g + 0.1 * (m_i - m_j) up to rounding, which decides
  // the m_i == m_j pairs; the 1e13 scale repeats that at a 1e13 ft gate.
  std::vector<double> rounding;
  for (int m = -3; m <= 3; ++m) {
    rounding.push_back(g / 2 + 0.1 * m);
    rounding.push_back(-(g / 2 - 0.1 * m));
  }
  std::vector<double> rounding_large;
  for (const double alt : rounding) rounding_large.push_back(alt * 1e13);
  // Slab boundaries on a 0 ft floor, and altitudes past 1024 slabs, which
  // the index clamps into its top slab.
  const std::vector<double> slabs{0.0,
                                  g,
                                  2 * g,
                                  3 * g,
                                  std::nextafter(2 * g, 0.0),
                                  std::nextafter(2 * g, kInf),
                                  1500 * g,
                                  1500 * g + g / 2,
                                  std::nextafter(1501 * g, 0.0),
                                  1501 * g,
                                  5e8,
                                  5e8 + 1.0};
  // Over a -36210.392348037625 ft floor with a 123.456 ft gate, the
  // last two pass the gate but their slabs round to 819 and 821: neither
  // is in the other's query, so a grid scan must not read the pair.
  const double straddle_g = 123.456;
  const std::vector<double> straddle{-36210.392348037625,
                                     65023.52765196236,
                                     65146.98365196236,
                                     65085.0,
                                     65023.52765196236 - straddle_g / 2,
                                     65146.98365196236 + straddle_g / 2};

  struct Fleet {
    const char* name;
    const std::vector<double>& alts;
    double gate;
    double horizon;
    std::vector<core::Vec2> centres;
  };
  const std::vector<core::Vec2> one{{10.0, -20.0}};
  const Task23Params defaults;
  const std::vector<Fleet> fleets{
      {"edges", edges, g, defaults.horizon_periods, one},
      {"ties", ties, g, defaults.horizon_periods, one},
      {"zeros", zeros, g, defaults.horizon_periods, one},
      {"rounding", rounding, g, defaults.horizon_periods, one},
      {"rounding_1e13", rounding_large, g * 1e13, defaults.horizon_periods,
       one},
      {"slabs", slabs, g, defaults.horizon_periods, one},
      {"slab_straddle", straddle, straddle_g, defaults.horizon_periods, one},
      // A 100-period horizon over rings 180 nm apart: a multi-cell grid.
      {"multi_cell", edges, g, 100.0,
       {{-90.0, -90.0}, {90.0, -90.0}, {-90.0, 90.0}, {90.0, 90.0}}},
  };
  std::size_t early_stops = 0;
  for (const Fleet& f : fleets) {
    const airfield::FlightDb db = converging_rings(f.alts, f.centres);
    Task23Params params;
    params.altitude_gate_feet = f.gate;
    params.horizon_periods = f.horizon;
    if (std::string(f.name) == "multi_cell") {
      const WholeTable table(db, params, BroadphaseMode::kGrid);
      ASSERT_GT(table.index.cols(), 1);
    }
    for (const auto kernel :
         {core::kern::KernelMode::kScalar, core::kern::KernelMode::kAvx2}) {
      params.kernel = kernel;
      for (const auto mode :
           {BroadphaseMode::kBruteForce, BroadphaseMode::kGrid}) {
        early_stops += expect_scan_lane_order(
            db, params, mode,
            std::string(f.name) + "/" +
                std::string(core::kern::to_string(kernel)) + "/" +
                std::string(core::spatial::to_string(mode)));
      }
    }
  }
  EXPECT_GT(early_stops, 0u) << "no trial scan stopped early";
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
