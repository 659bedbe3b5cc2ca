// Cross-backend equivalence: every platform backend (three CUDA device
// models, STARAN AP, ClearSpeed emulation, 16-core Xeon) must produce
// *bit-identical* flight states and identical outcome counters to the
// sequential reference, given identical inputs. This is the semantic
// backbone of the reproduction: the platforms may only differ in modeled
// time, never in what the ATM tasks compute.
#include <gtest/gtest.h>

#include <memory>

#include "src/airfield/setup.hpp"
#include "src/atm/cuda_backend.hpp"
#include "src/atm/pipeline.hpp"
#include "src/atm/platforms.hpp"
#include "src/atm/reference_backend.hpp"

namespace atm::tasks {
namespace {

struct NamedFactory {
  const char* label;
  std::unique_ptr<Backend> (*make)();
};

const NamedFactory kPlatforms[] = {
    {"9800gt", &make_geforce_9800_gt}, {"880m", &make_gtx_880m},
    {"titanx", &make_titan_x_pascal},  {"staran", &make_staran},
    {"clearspeed", &make_clearspeed},  {"xeon", &make_xeon},
};

class BackendEquivalenceTest
    : public ::testing::TestWithParam<NamedFactory> {};

TEST_P(BackendEquivalenceTest, SingleTask1MatchesReference) {
  const airfield::FlightDb initial = airfield::make_airfield(800, 42);

  ReferenceBackend ref;
  ref.load(initial);
  core::Rng ref_rng(7);
  airfield::RadarFrame ref_frame = ref.generate_radar(ref_rng, {}, nullptr);
  const Task1Result ref_r1 = ref.run_task1(ref_frame, {});

  auto backend = GetParam().make();
  backend->load(initial);
  core::Rng rng(7);
  airfield::RadarFrame frame = backend->generate_radar(rng, {}, nullptr);

  // Identical radar input is itself part of the contract.
  ASSERT_EQ(frame.rx, ref_frame.rx);
  ASSERT_EQ(frame.ry, ref_frame.ry);
  ASSERT_EQ(frame.truth, ref_frame.truth);

  const Task1Result r1 = backend->run_task1(frame, {});
  EXPECT_EQ(r1.stats.outcome(), ref_r1.stats.outcome());
  EXPECT_EQ(frame.rmatch_with, ref_frame.rmatch_with);
  EXPECT_TRUE(backend->state().same_flight_state(ref.state()))
      << GetParam().label << " diverged from the reference after Task 1";
}

TEST_P(BackendEquivalenceTest, SingleTask23MatchesReference) {
  const airfield::FlightDb initial = airfield::make_airfield(800, 43);

  ReferenceBackend ref;
  ref.load(initial);
  const Task23Result ref_r23 = ref.run_task23({});

  auto backend = GetParam().make();
  backend->load(initial);
  const Task23Result r23 = backend->run_task23({});

  EXPECT_EQ(r23.stats.outcome(), ref_r23.stats.outcome());
  EXPECT_TRUE(backend->state().same_flight_state(ref.state()))
      << GetParam().label << " diverged from the reference after Tasks 2+3";
  // Collision working state must agree too.
  for (std::size_t i = 0; i < initial.size(); ++i) {
    ASSERT_EQ(backend->state().col[i], ref.state().col[i]) << "col @" << i;
    ASSERT_EQ(backend->state().col_with[i], ref.state().col_with[i])
        << "colWith @" << i;
    ASSERT_DOUBLE_EQ(backend->state().time_till[i], ref.state().time_till[i])
        << "time_till @" << i;
  }
}

TEST_P(BackendEquivalenceTest, FullMajorCycleMatchesReference) {
  PipelineConfig cfg;
  cfg.aircraft = 400;
  cfg.major_cycles = 1;
  cfg.seed = 99;

  ReferenceBackend ref;
  const PipelineResult ref_result = run_pipeline(ref, cfg);

  auto backend = GetParam().make();
  const PipelineResult result = run_pipeline(*backend, cfg);

  EXPECT_TRUE(backend->state().same_flight_state(ref.state()))
      << GetParam().label << " diverged over a full major cycle";
  EXPECT_EQ(result.last_task1.outcome(), ref_result.last_task1.outcome());
  EXPECT_EQ(result.last_task23.outcome(), ref_result.last_task23.outcome());
}

INSTANTIATE_TEST_SUITE_P(
    AllPlatforms, BackendEquivalenceTest, ::testing::ValuesIn(kPlatforms),
    [](const ::testing::TestParamInfo<NamedFactory>& info) {
      return std::string(info.param.label);
    });

// The Task 1 and multi-radar outcome counters, pinned to the values every
// backend reads on one fleet. Cross-backend equivalence cannot see a tally
// that every backend shares, so these literals guard what each counter
// means.
struct PinCase {
  const char* label;
  std::unique_ptr<Backend> (*make)();
  core::spatial::BroadphaseMode broadphase;
  core::spatial::ShardMode shard;
};

constexpr auto kBrute = core::spatial::BroadphaseMode::kBruteForce;
constexpr auto kGrid = core::spatial::BroadphaseMode::kGrid;
constexpr auto kWhole = core::spatial::ShardMode::kNone;
constexpr auto kSectors = core::spatial::ShardMode::kSectors;

const PinCase kPinCases[] = {
    {"reference", &make_reference, kBrute, kWhole},
    {"xeon", &make_xeon, kBrute, kWhole},
    {"titanx", &make_titan_x_pascal, kBrute, kWhole},
    {"9800gt", &make_geforce_9800_gt, kBrute, kWhole},
    {"staran", &make_staran, kBrute, kWhole},
    {"clearspeed", &make_clearspeed, kBrute, kWhole},
    {"xeon_phi", &make_xeon_phi, kBrute, kWhole},
    {"reference_grid", &make_reference, kGrid, kWhole},
    {"xeon_grid", &make_xeon, kGrid, kWhole},
    {"reference_grid_4x4", &make_reference, kGrid, kSectors},
    {"xeon_grid_4x4", &make_xeon, kGrid, kSectors},
};

class OutcomePinTest : public ::testing::TestWithParam<PinCase> {};

TEST_P(OutcomePinTest, Task1AndMultiRadarCountersArePinned) {
  auto backend = GetParam().make();
  backend->load(airfield::make_airfield(1500, 7));
  Task1Params p;
  p.broadphase = GetParam().broadphase;
  p.shard = GetParam().shard;
  p.sectors_per_axis = 4;

  core::Rng radar_rng(11);
  airfield::RadarParams radar;
  radar.noise_nm = 0.9;
  radar.dropout_probability = 0.05;
  airfield::RadarFrame frame =
      backend->generate_radar(radar_rng, radar, nullptr);
  const Task1Stats t1 = backend->run_task1(frame, p).stats;
  EXPECT_EQ(t1.radars, 1500u);
  EXPECT_EQ(t1.matched, 1324u);
  EXPECT_EQ(t1.discarded_radars, 59u);
  EXPECT_EQ(t1.unmatched_radars, 73u);
  EXPECT_EQ(t1.ambiguous_aircraft, 56u);
  EXPECT_EQ(t1.updated_aircraft, 1324u);
  EXPECT_EQ(t1.passes, 3);

  core::Rng multi_rng(30);
  airfield::RadarParams multi;
  multi.noise_nm = 1.6;
  airfield::MultiRadarFrame multi_frame = airfield::generate_multi_radar(
      backend->state(), airfield::make_tower_layout(21), multi_rng, multi);
  const MultiRadarStats m = backend->run_multi_task1(multi_frame, p).stats;
  EXPECT_EQ(m.returns, 8138u);
  EXPECT_EQ(m.matched_aircraft, 1498u);
  EXPECT_EQ(m.redundant_returns, 1430u);
  EXPECT_EQ(m.discarded_returns, 71u);
  EXPECT_EQ(m.unmatched_returns, 5139u);
  EXPECT_EQ(m.passes, 3);
}

INSTANTIATE_TEST_SUITE_P(
    OutcomePins, OutcomePinTest, ::testing::ValuesIn(kPinCases),
    [](const ::testing::TestParamInfo<PinCase>& info) {
      return std::string(info.param.label);
    });

TEST(CudaBackendEquivalence, SplitKernelMatchesFusedResults) {
  // The A-1 ablation variants must agree on everything except time.
  const airfield::FlightDb initial = airfield::make_airfield(600, 17);
  CudaBackend fused(simt::titan_x_pascal());
  CudaBackend split(simt::titan_x_pascal());
  fused.load(initial);
  split.load(initial);
  const Task23Result rf = fused.run_task23({});
  const Task23Result rs = split.run_task23_split({});
  EXPECT_EQ(rf.stats, rs.stats);  // identical work AND outcomes here
  EXPECT_TRUE(fused.state().same_flight_state(split.state()));
  // The fused kernel is the paper's optimization: it must not be slower.
  EXPECT_LT(rf.modeled_ms, rs.modeled_ms);
}

TEST(CudaBackendEquivalence, PairGridMappingMatchesRowMapping) {
  // A-3 ablation: the 2-D one-thread-per-pair detection must land in
  // exactly the same flight state as the paper's one-thread-per-aircraft
  // mapping (outcome counters match; work counters differ by design).
  const airfield::FlightDb initial = airfield::make_airfield(700, 29);
  CudaBackend row(simt::titan_x_pascal());
  CudaBackend grid(simt::titan_x_pascal());
  row.load(initial);
  grid.load(initial);
  const Task23Result rr = row.run_task23({});
  const Task23Result rg = grid.run_task23_pairgrid({});
  EXPECT_EQ(rr.stats.conflicts, rg.stats.conflicts);
  EXPECT_EQ(rr.stats.critical, rg.stats.critical);
  EXPECT_EQ(rr.stats.resolved, rg.stats.resolved);
  EXPECT_EQ(rr.stats.unresolved, rg.stats.unresolved);
  EXPECT_TRUE(row.state().same_flight_state(grid.state()));
  for (std::size_t i = 0; i < initial.size(); ++i) {
    ASSERT_EQ(row.state().col[i], grid.state().col[i]);
    ASSERT_EQ(row.state().col_with[i], grid.state().col_with[i]);
    ASSERT_DOUBLE_EQ(row.state().time_till[i], grid.state().time_till[i]);
  }
}

TEST(CudaBackendEquivalence, ShuffledThreadOrderChangesNothing) {
  // Real GPUs give no thread-ordering guarantees; the kernels must not
  // depend on one.
  const airfield::FlightDb initial = airfield::make_airfield(500, 23);
  CudaBackend seq(simt::gtx_880m());
  CudaBackend shuf(simt::gtx_880m());
  shuf.device().set_thread_order(simt::ThreadOrder::kShuffled);
  seq.load(initial);
  shuf.load(initial);

  core::Rng rng_a(3), rng_b(3);
  airfield::RadarFrame fa = seq.generate_radar(rng_a, {}, nullptr);
  airfield::RadarFrame fb = shuf.generate_radar(rng_b, {}, nullptr);
  ASSERT_EQ(fa.rx, fb.rx);

  const Task1Result r1a = seq.run_task1(fa, {});
  const Task1Result r1b = shuf.run_task1(fb, {});
  EXPECT_EQ(r1a.stats, r1b.stats);
  const Task23Result r23a = seq.run_task23({});
  const Task23Result r23b = shuf.run_task23({});
  EXPECT_EQ(r23a.stats, r23b.stats);
  EXPECT_TRUE(seq.state().same_flight_state(shuf.state()));
}

TEST(CudaBackendEquivalence, ThreeCardsComputeIdenticalResults) {
  // Same program, three devices: Section 5 says "There is a difference in
  // execution time but the code is the same".
  const airfield::FlightDb initial = airfield::make_airfield(700, 55);
  CudaBackend a(simt::geforce_9800_gt());
  CudaBackend b(simt::gtx_880m());
  CudaBackend c(simt::titan_x_pascal());
  for (CudaBackend* dev : {&a, &b, &c}) dev->load(initial);
  const Task23Result ra = a.run_task23({});
  const Task23Result rb = b.run_task23({});
  const Task23Result rc = c.run_task23({});
  EXPECT_EQ(ra.stats, rb.stats);
  EXPECT_EQ(rb.stats, rc.stats);
  EXPECT_TRUE(a.state().same_flight_state(b.state()));
  EXPECT_TRUE(b.state().same_flight_state(c.state()));
  // ...but the modeled times order by device capability.
  EXPECT_GT(ra.modeled_ms, rb.modeled_ms);
  EXPECT_GT(rb.modeled_ms, rc.modeled_ms);
}

TEST(CudaBackendEquivalence, DeviceSetupFlightIsDistributionEquivalent) {
  // The SetupFlight kernel draws per-thread streams, so it is not
  // bit-identical to the host generator — but it must honour the same
  // ranges and populate a usable airfield.
  CudaBackend dev(simt::titan_x_pascal());
  const double ms = dev.setup_flights_on_device(1000, 77);
  EXPECT_GT(ms, 0.0);
  const airfield::FlightDb& db = dev.state();
  ASSERT_EQ(db.size(), 1000u);
  for (std::size_t i = 0; i < db.size(); ++i) {
    ASSERT_LE(std::fabs(db.x[i]), core::kSetupPositionMaxNm);
    const double knots =
        core::nm_per_period_to_knots(std::hypot(db.dx[i], db.dy[i]));
    ASSERT_GE(knots, core::kMinSpeedKnots - 1e-9);
    ASSERT_LE(knots, core::kMaxSpeedKnots + 1e-9);
  }
}

}  // namespace
}  // namespace atm::tasks
