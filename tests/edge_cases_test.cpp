// Edge cases and failure injection across the stack: empty fields, single
// aircraft, radar dropout, extreme speeds, zero-size frames, and parameter
// boundaries.
#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/airfield/setup.hpp"
#include "src/airfield/towers.hpp"
#include "src/atm/cuda_backend.hpp"
#include "src/atm/extended/display.hpp"
#include "src/atm/extended/full_pipeline.hpp"
#include "src/atm/extended/multiradar.hpp"
#include "src/atm/mimd_backend.hpp"
#include "src/atm/pipeline.hpp"
#include "src/atm/platforms.hpp"
#include "src/atm/reference/collision.hpp"
#include "src/atm/reference_backend.hpp"
#include "src/atm/sharded.hpp"

namespace atm::tasks {
namespace {

TEST(EdgeCases, EmptyAirfieldRunsEverywhere) {
  for (auto& backend :
       make_platforms(PlatformSet::kAllPlatforms)) {
    backend->load(airfield::FlightDb{});
    core::Rng rng(1);
    airfield::RadarFrame frame = backend->generate_radar(rng, {}, nullptr);
    const Task1Result r1 = backend->run_task1(frame, {});
    EXPECT_EQ(r1.stats.matched, 0u) << backend->name();
    const Task23Result r23 = backend->run_task23({});
    EXPECT_EQ(r23.stats.conflicts, 0u) << backend->name();
  }
}

TEST(EdgeCases, SingleAircraftNeverConflicts) {
  for (auto& backend : make_platforms(PlatformSet::kAllPlatforms)) {
    backend->load(airfield::make_airfield(1, 3));
    const Task23Result r = backend->run_task23({});
    EXPECT_EQ(r.stats.conflicts, 0u) << backend->name();
    EXPECT_EQ(r.stats.pair_tests, 0u) << backend->name();
  }
}

TEST(EdgeCases, RadarDropoutLeavesAircraftOnExpectedPath) {
  // With 100% dropout every return is an off-field sentinel: nothing
  // correlates and every aircraft flies its expected path.
  ReferenceBackend ref;
  const airfield::FlightDb initial = airfield::make_airfield(200, 9);
  ref.load(initial);
  core::Rng rng(5);
  airfield::RadarParams params;
  params.dropout_probability = 1.0;
  airfield::RadarFrame frame = ref.generate_radar(rng, params, nullptr);
  const Task1Result r = ref.run_task1(frame, {});
  EXPECT_EQ(r.stats.matched, 0u);
  for (std::size_t i = 0; i < initial.size(); ++i) {
    const core::Vec2 expected = initial.expected(i);
    ASSERT_DOUBLE_EQ(ref.state().x[i], expected.x);
    ASSERT_DOUBLE_EQ(ref.state().y[i], expected.y);
  }
}

TEST(EdgeCases, CudaDropoutPathFallsBackToHostGenerator) {
  // The device radar kernel does not implement dropout; the backend must
  // delegate to the host generator and still produce an identical frame.
  const airfield::FlightDb initial = airfield::make_airfield(300, 4);
  CudaBackend cuda(simt::titan_x_pascal());
  ReferenceBackend ref;
  cuda.load(initial);
  ref.load(initial);
  airfield::RadarParams params;
  params.dropout_probability = 0.3;
  core::Rng ra(6), rb(6);
  const airfield::RadarFrame fa = cuda.generate_radar(ra, params, nullptr);
  const airfield::RadarFrame fb = ref.generate_radar(rb, params, nullptr);
  EXPECT_EQ(fa.rx, fb.rx);
  EXPECT_EQ(fa.truth, fb.truth);
}

TEST(EdgeCases, PartialDropoutStillTracksTheRest) {
  PipelineConfig cfg;
  cfg.aircraft = 400;
  cfg.major_cycles = 1;
  cfg.radar.dropout_probability = 0.2;
  auto backend = make_gtx_880m();
  const PipelineResult result = run_pipeline(*backend, cfg);
  EXPECT_EQ(result.deadlines().total_missed(), 0u);
  // Roughly 80% of radars still correlate.
  EXPECT_GT(result.last_task1.matched, 250u);
  EXPECT_GT(result.last_task1.unmatched_radars, 30u);
}

TEST(EdgeCases, FastAircraftWrapRepeatedly) {
  // 600-knot aircraft cross the field in ~25 minutes; over 20 cycles some
  // wrap. Population must be conserved and positions stay in the grid.
  airfield::SetupParams fast;
  fast.min_speed_knots = 590.0;
  fast.max_speed_knots = 600.0;
  PipelineConfig cfg;
  cfg.aircraft = 100;
  cfg.major_cycles = 20;
  cfg.setup = fast;
  auto backend = make_titan_x_pascal();
  const PipelineResult result = run_pipeline(*backend, cfg);
  std::size_t wrapped = 0;
  for (const PeriodLog& log : result.periods) wrapped += log.wrapped;
  EXPECT_GT(wrapped, 0u);
  EXPECT_EQ(backend->state().size(), 100u);
  for (std::size_t i = 0; i < 100; ++i) {
    ASSERT_LE(std::fabs(backend->state().x[i]),
              core::kGridHalfExtentNm + 1.0);
  }
}

TEST(EdgeCases, ZeroRetriesStillCommitsPassOneMatches) {
  ReferenceBackend ref;
  ref.load(airfield::make_airfield(300, 8));
  core::Rng rng(2);
  airfield::RadarFrame frame = ref.generate_radar(rng, {}, nullptr);
  Task1Params params;
  params.retries = 0;
  const Task1Result r = ref.run_task1(frame, params);
  EXPECT_EQ(r.stats.passes, 1);
  EXPECT_GT(r.stats.matched, 200u);
}

TEST(EdgeCases, TinyTurnBudgetLeavesConflictsUnresolved) {
  // With a 1-degree max turn, the head-on pair cannot escape.
  airfield::FlightDb db(2);
  db.x[0] = 0.0;
  db.dx[0] = 0.05;
  db.x[1] = 25.0;
  db.dx[1] = -0.05;
  db.alt[0] = db.alt[1] = 9000.0;
  ReferenceBackend ref;
  ref.load(db);
  Task23Params params;
  params.turn_step_deg = 1.0;
  params.turn_max_deg = 1.0;
  const Task23Result r = ref.run_task23(params);
  EXPECT_EQ(r.stats.critical, 2u);
  EXPECT_EQ(r.stats.unresolved, 2u);
}

TEST(EdgeCases, NonFiniteRadarReturnsMatchAcrossBroadphaseAndShards) {
  // Corrupt returns with NaN, +-inf or 1e300 coordinates. Brute force
  // leaves them unmatched (no box test accepts them); under kGrid and
  // kSectors they reach the grid and partition lookups, which must clamp
  // them instead of indexing out of bounds, and every configuration must
  // agree with brute force on every outcome.
  const airfield::FlightDb initial = airfield::make_airfield(400, 11);
  airfield::RadarFrame frame;
  {
    ReferenceBackend gen;
    gen.load(initial);
    core::Rng rng(3);
    frame = gen.generate_radar(rng, {}, nullptr);
  }
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<std::pair<double, double>> wild{
      {nan, 0.0},   {0.0, nan},     {nan, nan},    {inf, 0.0},
      {-inf, 5.0},  {0.0, -inf},    {1e300, 0.0},  {0.0, -1e300},
      {1e300, 1e300}, {-1e300, inf}};
  std::vector<std::size_t> corrupt;
  for (std::size_t k = 0; k < wild.size(); ++k) {
    const std::size_t r = 7 * k + 3;
    frame.rx[r] = wild[k].first;
    frame.ry[r] = wild[k].second;
    corrupt.push_back(r);
  }

  const auto run = [&](Backend& backend, core::spatial::BroadphaseMode phase,
                       core::spatial::ShardMode shard) {
    backend.load(initial);
    airfield::RadarFrame f = frame;
    Task1Params params;
    params.broadphase = phase;
    params.shard = shard;
    params.sectors_per_axis = 4;
    const Task1Stats stats = backend.run_task1(f, params).stats;
    return std::make_pair(stats, f.rmatch_with);
  };
  ReferenceBackend oracle;
  const auto [want, want_matches] =
      run(oracle, core::spatial::BroadphaseMode::kBruteForce,
          core::spatial::ShardMode::kNone);
  EXPECT_GT(want.passes, 1) << "no retry pass ran; the rebuilt indexes "
                               "never saw the corrupt returns twice";
  for (const std::size_t r : corrupt) {
    EXPECT_EQ(want_matches[r], airfield::kNone) << "return " << r;
  }

  ReferenceBackend ref;
  MimdBackend xeon;
  for (Backend* backend : {static_cast<Backend*>(&ref),
                           static_cast<Backend*>(&xeon)}) {
    for (const auto phase : {core::spatial::BroadphaseMode::kBruteForce,
                             core::spatial::BroadphaseMode::kGrid}) {
      for (const auto shard : {core::spatial::ShardMode::kNone,
                               core::spatial::ShardMode::kSectors}) {
        const auto [got, got_matches] = run(*backend, phase, shard);
        const std::string where =
            backend->name() + " " +
            std::string(core::spatial::to_string(phase)) + " " +
            std::string(core::spatial::to_string(shard));
        EXPECT_EQ(got.outcome(), want.outcome()) << where;
        EXPECT_EQ(got_matches, want_matches) << where;
        EXPECT_TRUE(backend->state().same_flight_state(oracle.state()))
            << where;
      }
    }
  }
}

TEST(EdgeCasesDeathTest, Task1ParamsOutsideTheContractAbort) {
  // Pass k's box is box_half_nm * (1 << k): retries >= 32 would shift out
  // of int (undefined behaviour) and 31 gives a negative box, and a zero
  // or NaN box never matches anything. The frame would keep every pass
  // running: one return on the only aircraft and one 100 nm away.
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";  // MimdBackend pool
  airfield::FlightDb fleet(1);
  fleet.alt[0] = 10000.0;
  airfield::MultiRadarFrame multi;
  multi.base.rx = {0.1, 100.0};
  multi.base.ry = {0.0, 0.0};
  multi.base.truth = {0, 0};
  multi.base.rmatch_with = {airfield::kNone, airfield::kNone};
  multi.tower = {0, 1};

  const double nan = std::numeric_limits<double>::quiet_NaN();
  const struct {
    double box_half_nm;
    int retries;
    const char* context;
  } bad[] = {{0.5, 31, "box_half_nm=0\\.5 retries=31"},
             {0.5, 40, "box_half_nm=0\\.5 retries=40"},
             {0.0, 2, "box_half_nm=0 retries=2"},
             {nan, 2, "box_half_nm=-?nan retries=2"}};
  for (const auto& b : bad) {
    Task1Params params;
    params.box_half_nm = b.box_half_nm;
    params.retries = b.retries;
    const std::string want =
        std::string("ATM_CHECK failed: .*\n  at .*task_types\\.hpp:[0-9]+\n"
                    "  context: Task1Params out of range: ") +
        b.context;
    SCOPED_TRACE(want);
    EXPECT_DEATH(
        {
          airfield::FlightDb db = fleet;
          airfield::MultiRadarFrame frame = multi;
          (void)extended::correlate_multi(db, frame, params);
        },
        want);
    EXPECT_DEATH(
        {
          MimdBackend mimd;
          mimd.load(fleet);
          airfield::MultiRadarFrame frame = multi;
          (void)mimd.run_multi_task1(frame, params);
        },
        want);
    EXPECT_DEATH(
        {
          ReferenceBackend ref;
          ref.load(fleet);
          airfield::RadarFrame frame = multi.base;
          (void)ref.run_task1(frame, params);
        },
        want);
  }
}

TEST(EdgeCasesDeathTest, Task23ParamsOutsideTheContractAbort) {
  // The trial count is 2 * floor(max / step) cast to int: a zero, NaN or
  // tiny step overflows the cast (undefined behaviour), and a turn past
  // 180 degrees is no longer a turn. A non-positive gate leaves an
  // aircraft outside its own gate, which the scans' counters assume it is
  // in, and a non-positive band or horizon makes every window empty. The
  // head-on pair makes both aircraft critical, so every run would reach
  // the trial rotations.
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";  // MimdBackend pool
  airfield::FlightDb fleet(2);
  fleet.x[0] = 0.0;
  fleet.dx[0] = 0.05;
  fleet.x[1] = 25.0;
  fleet.dx[1] = -0.05;
  fleet.alt[0] = fleet.alt[1] = 9000.0;

  const double nan = std::numeric_limits<double>::quiet_NaN();
  struct Bad {
    Task23Params params;
    std::string context;
  };
  std::vector<Bad> bad;
  const auto turns = [](double step, double max) {
    Task23Params params;
    params.turn_step_deg = step;
    params.turn_max_deg = max;
    return params;
  };
  bad.push_back({turns(0.0, 30.0), "turn_step_deg=0 turn_max_deg=30"});
  bad.push_back({turns(nan, 30.0), "turn_step_deg=-?nan turn_max_deg=30"});
  bad.push_back({turns(1e-12, 30.0), "turn_step_deg=1e-12 turn_max_deg=30"});
  bad.push_back({turns(5.0, 181.0), "turn_step_deg=5 turn_max_deg=181"});
  const struct {
    double Task23Params::*field;
    const char* name;
  } positive[] = {{&Task23Params::altitude_gate_feet, "altitude_gate_feet"},
                  {&Task23Params::band_nm, "band_nm"},
                  {&Task23Params::horizon_periods, "horizon_periods"}};
  for (const auto& f : positive) {
    for (const auto& [value, text] : {std::pair{0.0, "0"},
                                      std::pair{-1.0, "-1"},
                                      std::pair{nan, "-?nan"}}) {
      Task23Params params;
      params.*f.field = value;
      bad.push_back({params, std::string(".* ") + f.name + "=" + text});
    }
  }
  for (const Bad& b : bad) {
    const Task23Params& params = b.params;
    Task23Params sharded = params;
    sharded.shard = core::spatial::ShardMode::kSectors;
    sharded.sectors_per_axis = 4;
    const std::string want =
        std::string("ATM_CHECK failed: .*\n  at .*task_types\\.hpp:[0-9]+\n"
                    "  context: Task23Params out of range: ") +
        b.context;
    SCOPED_TRACE(want);
    EXPECT_DEATH(
        {
          airfield::FlightDb db = fleet;
          (void)reference::detect_and_resolve(db, params);
        },
        want);
    EXPECT_DEATH(
        {
          MimdBackend mimd;
          mimd.load(fleet);
          (void)mimd.run_task23(params);
        },
        want);
    EXPECT_DEATH(
        {
          MimdBackend mimd;
          mimd.load(fleet);
          (void)mimd.run_task23(sharded);
        },
        want);
    EXPECT_DEATH(
        {
          ReferenceBackend ref;
          ref.load(fleet);
          (void)ref.run_task23(params);
        },
        want);
    EXPECT_DEATH(
        {
          CudaBackend cuda(simt::titan_x_pascal());
          cuda.load(fleet);
          (void)cuda.run_task23_pairgrid(params);
        },
        want);
  }
}

TEST(EdgeCasesDeathTest, ShardSectorsOutsideTheContractAbort) {
  // The executor sizes its scratch with sectors_per_axis^2 entries and
  // sector ids are row * axis + col ints, so the axis is bounded whatever
  // the shard mode: the governor can switch sharding on mid-run.
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";  // MimdBackend pool
  const airfield::FlightDb fleet = airfield::make_airfield(10, 1);
  const struct {
    int per_axis;
    core::spatial::ShardMode shard;
  } bad[] = {{0, core::spatial::ShardMode::kSectors},
             {-1, core::spatial::ShardMode::kSectors},
             {kMaxShardSectorsPerAxis + 1, core::spatial::ShardMode::kSectors},
             {0, core::spatial::ShardMode::kNone}};
  for (const auto& b : bad) {
    Task1Params p1;
    p1.shard = b.shard;
    p1.sectors_per_axis = b.per_axis;
    Task23Params p23;
    p23.shard = b.shard;
    p23.sectors_per_axis = b.per_axis;
    const std::string want =
        std::string("ATM_CHECK failed: .*\n  at .*task_types\\.hpp:[0-9]+\n"
                    "  context: Task[0-9]+Params out of range: .*"
                    "sectors_per_axis=") +
        std::to_string(b.per_axis);
    SCOPED_TRACE(want);
    for (const auto make : {make_reference, make_xeon}) {
      EXPECT_DEATH(
          {
            const std::unique_ptr<Backend> backend = make();
            backend->load(fleet);
            core::Rng rng(1);
            airfield::RadarFrame frame =
                backend->generate_radar(rng, {}, nullptr);
            (void)backend->run_task1(frame, p1);
          },
          want);
      EXPECT_DEATH(
          {
            const std::unique_ptr<Backend> backend = make();
            backend->load(fleet);
            (void)backend->run_task23(p23);
          },
          want);
    }
  }
}

TEST(EdgeCasesDeathTest, NonFiniteMotionStateAborts) {
  // A NaN passes every pair test, but the sector partition clamps it into
  // one edge sector, so sharded and unsharded Tasks 2+3 would disagree.
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";  // MimdBackend pool
  airfield::FlightDb fleet(2);
  fleet.x[0] = 0.0;
  fleet.dx[0] = 0.05;
  fleet.x[1] = 25.0;
  fleet.dx[1] = -0.05;
  fleet.alt[0] = fleet.alt[1] = 9000.0;
  const std::string want =
      "ATM_CHECK failed: .*\n  at .*task_types\\.hpp:[0-9]+\n"
      "  context: non-finite motion state: aircraft 1";

  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const char* field : {"x", "dy", "alt"}) {
    airfield::FlightDb bad = fleet;
    if (std::string(field) == "x") bad.x[1] = nan;
    if (std::string(field) == "dy") bad.dy[1] = nan;
    if (std::string(field) == "alt") bad.alt[1] = inf;
    SCOPED_TRACE(field);
    Task23Params sharded_params;
    sharded_params.shard = core::spatial::ShardMode::kSectors;
    sharded_params.sectors_per_axis = 4;
    EXPECT_DEATH(
        {
          airfield::FlightDb db = bad;
          (void)reference::detect_and_resolve(db, {});
        },
        want);
    EXPECT_DEATH(
        {
          airfield::FlightDb db = bad;
          mimd::ThreadPool pool(2);
          sharded::ShardScratch scratch;
          (void)sharded::detect_and_resolve(db, pool, scratch,
                                            sharded_params);
        },
        want);
    EXPECT_DEATH(
        {
          ReferenceBackend ref;
          ref.load(bad);
          (void)ref.run_task23({});
        },
        want);
    EXPECT_DEATH(
        {
          MimdBackend mimd;
          mimd.load(bad);
          (void)mimd.run_task23(sharded_params);
        },
        want);
    EXPECT_DEATH(
        {
          const std::unique_ptr<Backend> staran = make_staran();
          staran->load(bad);
          (void)staran->run_task23({});
        },
        want);
  }
}

TEST(EdgeCasesDeathTest, NonFiniteTerrainInputsAbort) {
  // A non-finite sample position reaches TerrainMap::elevation_at's cast
  // of its cell coordinate to int: std::clamp passes NaN through, the
  // cast is undefined behaviour, and a Release build read out of bounds.
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";  // MimdBackend pool
  const airfield::FlightDb fleet = airfield::make_airfield(10, 1);
  const auto terrain = std::make_shared<const airfield::TerrainMap>(5);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const struct {
    const char* field;
    std::string want;
  } bad[] = {{"x", "non-finite motion state: aircraft 3"},
             {"dy", "non-finite motion state: aircraft 3"},
             {"horizon_periods",
              "TerrainTaskParams out of range: horizon_periods=-?nan"}};
  for (const auto& b : bad) {
    airfield::FlightDb db = fleet;
    TerrainTaskParams params;
    const std::string field = b.field;
    if (field == "x") db.x[3] = nan;
    if (field == "dy") db.dy[3] = inf;
    if (field == "horizon_periods") params.horizon_periods = nan;
    const std::string want =
        "ATM_CHECK failed: .*\n  at .*(task|ext)_types\\.hpp:[0-9]+\n"
        "  context: " +
        b.want;
    SCOPED_TRACE(field);
    for (const auto make :
         {make_reference, make_xeon, make_titan_x_pascal, make_staran}) {
      EXPECT_DEATH(
          {
            const std::unique_ptr<Backend> backend = make();
            backend->load(db);
            backend->set_terrain(terrain);
            (void)backend->run_terrain(params);
          },
          want);
    }
  }
}

TEST(EdgeCasesDeathTest, DisplayParamsOutsideTheContractAbort) {
  // Sector ids are cy * k + cx on a k x k grid: k < 1 clamps into an
  // empty range (std::clamp's hi < lo) and bins into sector -1, and k
  // past kMaxDisplaySectorsPerAxis overflows the int32 ids.
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";  // MimdBackend pool
  const airfield::FlightDb fleet = airfield::make_airfield(10, 1);
  for (const int k : {0, -1, kMaxDisplaySectorsPerAxis + 1}) {
    DisplayParams params;
    params.sectors_per_axis = k;
    const std::string want =
        std::string("ATM_CHECK failed: .*\n  at .*ext_types\\.hpp:[0-9]+\n"
                    "  context: DisplayParams out of range: "
                    "sectors_per_axis=") +
        std::to_string(k);
    SCOPED_TRACE(want);
    EXPECT_DEATH(
        {
          airfield::FlightDb db = fleet;
          std::vector<std::int32_t> occupancy;
          (void)extended::display_update(db, occupancy, params);
        },
        want);
    for (const auto make :
         {make_reference, make_xeon, make_staran, make_titan_x_pascal}) {
      EXPECT_DEATH(
          {
            const std::unique_ptr<Backend> backend = make();
            backend->load(fleet);
            (void)backend->run_display(params);
          },
          want);
    }
  }
}

TEST(EdgeCases, TerrainWithoutAttachThrows) {
  std::vector<std::unique_ptr<Backend>> backends =
      make_platforms(PlatformSet::kAllPlatforms);
  backends.push_back(make_reference());
  backends.push_back(make_xeon_phi());
  for (auto& backend : backends) {
    backend->load(airfield::make_airfield(10, 1));
    EXPECT_THROW((void)backend->run_terrain({}), std::logic_error)
        << backend->name();
  }
}

TEST(EdgeCases, MismatchedRadarFrameRejected) {
  CudaBackend cuda(simt::titan_x_pascal());
  cuda.load(airfield::make_airfield(10, 1));
  airfield::RadarFrame frame;
  frame.resize(5);
  EXPECT_THROW((void)cuda.run_task1(frame, {}), std::invalid_argument);
}

TEST(EdgeCases, FullSystemWithZeroAdvisoryCadenceCollapsesGracefully) {
  extended::FullSystemConfig cfg;
  cfg.aircraft = 50;
  cfg.major_cycles = 1;
  cfg.advisory_every_periods = 16;  // once per cycle only
  auto backend = make_titan_x_pascal();
  const auto result = extended::run_full_system(*backend, cfg);
  EXPECT_EQ(result.monitor.task("advisory").scheduled(), 1u);
}

}  // namespace
}  // namespace atm::tasks
