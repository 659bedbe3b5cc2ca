// Scalar vs AVX2 kernel equivalence: the batch kernels in src/core/kern/
// are the one place the host hot paths do flight math, and the AVX2
// implementations must be *bit-identical* to the portable scalar ones —
// not merely close. Two layers of evidence:
//
//  * end to end — for every named scenario, both broadphase modes, and
//    both shard modes, a full pipeline run with the avx2 kernel must
//    produce identical outcome counters and bit-identical flight state
//    to the scalar run, on both host execution paths; and
//  * the kernels alone — direct scalar-vs-avx2 comparisons on synthetic
//    inputs that stress the lanes: tails (n not a multiple of 4), NaN
//    and denormal records, and deliberately misaligned views.
//
// On hosts without AVX2 (or ATM_HOST_SIMD=OFF builds) resolve(kAvx2)
// degrades to kScalar and the comparisons pass trivially — the suite
// stays green everywhere and bites wherever the AVX2 path actually runs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "src/airfield/setup.hpp"
#include "src/airfield/towers.hpp"
#include "src/atm/extended/multiradar.hpp"
#include "src/atm/mimd_backend.hpp"
#include "src/atm/pipeline.hpp"
#include "src/atm/reference_backend.hpp"
#include "src/atm/scenarios.hpp"
#include "src/core/kern/kernels.hpp"
#include "src/core/kern/soa_snapshot.hpp"
#include "src/core/vec2.hpp"

namespace atm::tasks {
namespace {

using core::kern::Kernel;
using core::kern::KernelMode;
using core::spatial::BroadphaseMode;
using core::spatial::ShardMode;

PipelineConfig make_config(const Scenario& scenario, KernelMode kernel,
                           BroadphaseMode phase, ShardMode shard) {
  Scenario s = scenario;
  s.policy.kernel = kernel;
  s.policy.broadphase = phase;
  s.policy.shard = shard;
  s.policy.sectors_per_axis = 2;
  return make_pipeline_config(s);
}

class KernelEquivalenceTest : public ::testing::TestWithParam<Scenario> {};

TEST_P(KernelEquivalenceTest, ReferencePathAvx2MatchesScalar) {
  for (const BroadphaseMode phase :
       {BroadphaseMode::kBruteForce, BroadphaseMode::kGrid}) {
    for (const ShardMode shard : {ShardMode::kNone, ShardMode::kSectors}) {
      ReferenceBackend scalar, avx2;
      const PipelineResult rs = run_pipeline(
          scalar, make_config(GetParam(), KernelMode::kScalar, phase, shard));
      const PipelineResult rv = run_pipeline(
          avx2, make_config(GetParam(), KernelMode::kAvx2, phase, shard));
      SCOPED_TRACE(GetParam().name +
                   (phase == BroadphaseMode::kGrid ? " grid" : " brute") +
                   (shard == ShardMode::kSectors ? " sectors" : " unsharded"));
      EXPECT_EQ(rs.last_task1.outcome(), rv.last_task1.outcome());
      EXPECT_EQ(rs.last_task1.passes, rv.last_task1.passes);
      EXPECT_EQ(rs.last_task23.outcome(), rv.last_task23.outcome());
      EXPECT_TRUE(scalar.state().same_flight_state(avx2.state()))
          << "avx2 kernel changed the flight state";
    }
  }
}

TEST_P(KernelEquivalenceTest, MimdPathAvx2MatchesScalar) {
  for (const BroadphaseMode phase :
       {BroadphaseMode::kBruteForce, BroadphaseMode::kGrid}) {
    for (const ShardMode shard : {ShardMode::kNone, ShardMode::kSectors}) {
      MimdBackend scalar, avx2;
      const PipelineResult rs = run_pipeline(
          scalar, make_config(GetParam(), KernelMode::kScalar, phase, shard));
      const PipelineResult rv = run_pipeline(
          avx2, make_config(GetParam(), KernelMode::kAvx2, phase, shard));
      SCOPED_TRACE(GetParam().name +
                   (phase == BroadphaseMode::kGrid ? " grid" : " brute") +
                   (shard == ShardMode::kSectors ? " sectors" : " unsharded"));
      EXPECT_EQ(rs.last_task1.outcome(), rv.last_task1.outcome());
      EXPECT_EQ(rs.last_task23.outcome(), rv.last_task23.outcome());
      EXPECT_TRUE(scalar.state().same_flight_state(avx2.state()))
          << "avx2 kernel diverged on the MIMD path";
    }
  }
}

std::string scenario_test_name(
    const ::testing::TestParamInfo<Scenario>& info) {
  std::string name = info.param.name;
  std::replace(name.begin(), name.end(), '-', '_');
  return name;
}

INSTANTIATE_TEST_SUITE_P(AllScenarios, KernelEquivalenceTest,
                         ::testing::ValuesIn(all_scenarios()),
                         scenario_test_name);

TEST(MultiRadarKernelEquivalence, MimdMatchesCorrelateMultiBitForBit) {
  // Multi-return Task 1 on the MIMD path runs its coverage scan through
  // the batch box kernel; with either kernel it must reproduce the scalar
  // reference correlate_multi exactly — dispositions, flight state and
  // every counter, box tests (eligible aircraft per active return)
  // included — over several chained periods.
  const airfield::FlightDb fleet = airfield::make_airfield(600, 21);
  const std::vector<airfield::RadarTower> towers =
      airfield::make_tower_layout(21);
  for (const KernelMode mode : {KernelMode::kScalar, KernelMode::kAvx2}) {
    SCOPED_TRACE(std::string(core::kern::to_string(core::kern::resolve(mode))));
    Task1Params params;
    params.kernel = mode;
    airfield::FlightDb ref = fleet;
    MimdBackend mimd;
    mimd.load(fleet);
    for (std::uint64_t period = 0; period < 4; ++period) {
      core::Rng rng_ref(30 + period);
      core::Rng rng_mimd(30 + period);
      airfield::MultiRadarFrame ref_frame =
          airfield::generate_multi_radar(ref, towers, rng_ref);
      airfield::MultiRadarFrame frame =
          airfield::generate_multi_radar(mimd.state(), towers, rng_mimd);
      const MultiRadarStats expected =
          extended::correlate_multi(ref, ref_frame, params);
      const MultiRadarResult got = mimd.run_multi_task1(frame, params);
      EXPECT_EQ(got.stats, expected) << "period " << period;
      EXPECT_GT(got.stats.box_tests, 0u);
      EXPECT_EQ(frame.base.rmatch_with, ref_frame.base.rmatch_with);
      EXPECT_TRUE(mimd.state().same_flight_state(ref)) << "period " << period;
    }
  }
}

TEST(MultiRadarKernelEquivalence, HandBuiltFramesMatchCorrelateMulti) {
  // Frames the generated fleets never produce, on a parked fleet (the
  // expected position is the position). Each case first pins the oracle's
  // dispositions, so it exercises what its name says; then the MIMD path,
  // under either kernel, must match the oracle bit for bit.
  using airfield::kDiscarded;
  using airfield::kNone;
  using airfield::kRedundant;
  struct Case {
    const char* name;
    std::vector<core::Vec2> aircraft;
    std::vector<core::Vec2> returns;
    std::vector<std::int32_t> want;  ///< The oracle's rMatchWith.
    int passes;
  };
  const std::vector<Case> cases = {
      {"equal distance: the lowest return index wins",
       {{0.0, 0.0}}, {{0.2, 0.0}, {-0.2, 0.0}}, {0, kRedundant}, 1},
      {"a later but closer return wins",
       {{0.0, 0.0}}, {{0.3, 0.0}, {0.1, 0.0}}, {kRedundant, 0}, 1},
      {"only the doubled box reaches the return",
       {{0.0, 0.0}, {10.0, 0.0}}, {{0.8, 0.0}, {10.1, 0.0}}, {0, 1}, 2},
      {"a return covering two aircraft is discarded",
       {{0.0, 0.0}, {0.4, 0.0}}, {{0.2, 0.0}}, {kDiscarded}, 1},
      {"every return of two aircraft also covers the other",
       {{0.0, 0.0}, {0.4, 0.0}, {5.0, 0.0}},
       {{0.2, 0.0}, {0.1, 0.3}, {5.1, 0.0}},
       {kDiscarded, kDiscarded, 2},
       1},
      {"an empty frame", {{0.0, 0.0}, {3.0, 3.0}}, {}, {}, 0},
      {"an empty fleet", {}, {{0.0, 0.0}, {1.0, 1.0}}, {kNone, kNone}, 3},
  };
  MimdBackend mimd;
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    airfield::FlightDb fleet(c.aircraft.size());
    for (std::size_t a = 0; a < c.aircraft.size(); ++a) {
      fleet.x[a] = c.aircraft[a].x;
      fleet.y[a] = c.aircraft[a].y;
      fleet.alt[a] = 10000.0;
    }
    airfield::MultiRadarFrame frame;
    for (std::size_t r = 0; r < c.returns.size(); ++r) {
      frame.base.rx.push_back(c.returns[r].x);
      frame.base.ry.push_back(c.returns[r].y);
      frame.base.truth.push_back(kNone);
      frame.tower.push_back(static_cast<std::int32_t>(r));
    }
    frame.base.rmatch_with.assign(c.returns.size(), kNone);

    airfield::FlightDb ref = fleet;
    airfield::MultiRadarFrame ref_frame = frame;
    const MultiRadarStats expected =
        extended::correlate_multi(ref, ref_frame, {});
    ASSERT_EQ(ref_frame.base.rmatch_with, c.want);
    ASSERT_EQ(expected.passes, c.passes);

    for (const KernelMode mode : {KernelMode::kScalar, KernelMode::kAvx2}) {
      SCOPED_TRACE(
          std::string(core::kern::to_string(core::kern::resolve(mode))));
      Task1Params params;
      params.kernel = mode;
      mimd.load(fleet);
      airfield::MultiRadarFrame got_frame = frame;
      const MultiRadarResult got = mimd.run_multi_task1(got_frame, params);
      EXPECT_EQ(got.stats, expected);
      EXPECT_EQ(got_frame.base.rmatch_with, ref_frame.base.rmatch_with);
      EXPECT_TRUE(mimd.state().same_flight_state(ref));
    }
  }
}

// ---------------------------------------------------------------------------
// Direct kernel comparisons on synthetic lane-stressing inputs.

/// Deterministic "awkward" doubles: mixes magnitudes, signs, exact halves.
double wiggle(std::size_t i) {
  const double base = static_cast<double>((i * 37) % 23) - 11.0;
  return base + 0.5 * static_cast<double>(i % 3) +
         1e-7 * static_cast<double>(i);
}

struct BandFixture {
  core::kern::AlignedVector<double> x, y, dx, dy, alt;

  explicit BandFixture(std::size_t n)
      : x(n), y(n), dx(n), dy(n), alt(n) {
    for (std::size_t i = 0; i < n; ++i) {
      x[i] = wiggle(i);
      y[i] = wiggle(i + 5);
      dx[i] = 0.01 * wiggle(i + 11);
      dy[i] = 0.01 * wiggle(i + 17);
      alt[i] = 10000.0 + 250.0 * static_cast<double>(i % 9);
    }
  }

  [[nodiscard]] core::kern::SoaView view(std::size_t offset = 0) const {
    return {x.data() + offset, y.data() + offset, dx.data() + offset,
            dy.data() + offset, alt.data() + offset, x.size() - offset};
  }
};

constexpr core::kern::BandParams kBand{3.0, 1200.0, 1000.0};

/// Run band_intersect_batch under both kernels and require bit-identical
/// flags and tmin payloads (memcmp, so NaN payloads count too).
void expect_band_bit_identical(const core::kern::SoaView& view,
                               const std::int32_t* idx, std::size_t m,
                               double xi, double yi, double alti, double vxi,
                               double vyi) {
  core::kern::AlignedVector<double> tmin_s(m), tmin_v(m);
  std::vector<std::uint8_t> flags_s(m), flags_v(m);
  std::uint64_t lanes_s = 0, lanes_v = 0;
  core::kern::band_intersect_batch(Kernel::kScalar, view, idx, m, xi, yi,
                                   alti, vxi, vyi, kBand, tmin_s.data(),
                                   flags_s.data(), &lanes_s);
  const Kernel avx2 = core::kern::resolve(KernelMode::kAvx2);
  core::kern::band_intersect_batch(avx2, view, idx, m, xi, yi, alti, vxi,
                                   vyi, kBand, tmin_v.data(), flags_v.data(),
                                   &lanes_v);
  EXPECT_EQ(flags_s, flags_v);
  EXPECT_EQ(0, std::memcmp(tmin_s.data(), tmin_v.data(),
                           m * sizeof(double)))
      << "band tmin payloads diverged bitwise";
  EXPECT_EQ(lanes_s, 0u) << "scalar kernel must not mask lanes";
  if (avx2 == Kernel::kAvx2) {
    const std::size_t rem = m % core::kern::kLanes;
    EXPECT_EQ(lanes_v, rem == 0 ? 0u : core::kern::kLanes - rem);
  }
}

TEST(KernelDirect, BoxTestTailLanesAndEligibility) {
  // 13 candidates: one full block plus a 1-lane tail under kLanes = 4.
  constexpr std::size_t kN = 13;
  core::kern::AlignedVector<double> ex(kN), ey(kN);
  std::vector<std::uint8_t> eligible(kN, 1);
  for (std::size_t i = 0; i < kN; ++i) {
    ex[i] = wiggle(i);
    ey[i] = wiggle(i + 3);
  }
  eligible[2] = 0;
  eligible[12] = 0;  // tail lane must honour eligibility too
  std::vector<std::int32_t> hits_s(kN), hits_v(kN);
  std::uint64_t lanes_s = 0, lanes_v = 0;
  const std::size_t ns = core::kern::box_test_batch(
      Kernel::kScalar, ex.data(), ey.data(), kN, eligible.data(), 0.5, 0.5,
      6.0, hits_s.data(), &lanes_s);
  const Kernel avx2 = core::kern::resolve(KernelMode::kAvx2);
  const std::size_t nv = core::kern::box_test_batch(
      avx2, ex.data(), ey.data(), kN, eligible.data(), 0.5, 0.5, 6.0,
      hits_v.data(), &lanes_v);
  ASSERT_EQ(ns, nv);
  ASSERT_GT(ns, 0u) << "fixture produced no hits; the comparison is vacuous";
  ASSERT_LT(ns, kN) << "fixture hit everything; the comparison is vacuous";
  for (std::size_t k = 0; k < ns; ++k) EXPECT_EQ(hits_s[k], hits_v[k]);
  EXPECT_EQ(lanes_s, 0u);
  if (avx2 == Kernel::kAvx2) {
    EXPECT_EQ(lanes_v, 3u);  // 13 -> 16 lanes
  }
}

TEST(KernelDirect, BoxTestIndexedMatchesScalarOnEveryTail) {
  constexpr std::size_t kN = 64;
  core::kern::AlignedVector<double> ex(kN), ey(kN);
  for (std::size_t i = 0; i < kN; ++i) {
    ex[i] = wiggle(i + 1);
    ey[i] = wiggle(i + 7);
  }
  const Kernel avx2 = core::kern::resolve(KernelMode::kAvx2);
  for (const std::size_t m : {1u, 2u, 3u, 4u, 5u, 7u, 8u, 15u}) {
    std::vector<std::int32_t> idx;
    for (std::size_t k = 0; k < m; ++k) {
      idx.push_back(static_cast<std::int32_t>((k * 13) % kN));
    }
    std::vector<std::int32_t> hits_s(m), hits_v(m);
    std::uint64_t lanes = 0;
    const std::size_t ns = core::kern::box_test_batch_indexed(
        Kernel::kScalar, ex.data(), ey.data(), idx.data(), m, 0.0, 0.0, 7.5,
        hits_s.data(), nullptr);
    const std::size_t nv = core::kern::box_test_batch_indexed(
        avx2, ex.data(), ey.data(), idx.data(), m, 0.0, 0.0, 7.5,
        hits_v.data(), &lanes);
    SCOPED_TRACE("m=" + std::to_string(m));
    ASSERT_EQ(ns, nv);
    for (std::size_t k = 0; k < ns; ++k) EXPECT_EQ(hits_s[k], hits_v[k]);
  }
}

TEST(KernelDirect, BandKernelContiguousTailLanes) {
  for (const std::size_t n : {1u, 3u, 4u, 5u, 11u, 64u, 130u}) {
    const BandFixture fx(n);
    SCOPED_TRACE("n=" + std::to_string(n));
    expect_band_bit_identical(fx.view(), nullptr, n, 0.25, -0.75, 10500.0,
                              0.02, -0.015);
  }
}

TEST(KernelDirect, BandKernelIndexedCandidates) {
  const BandFixture fx(40);
  std::vector<std::int32_t> idx{0, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31};
  expect_band_bit_identical(fx.view(), idx.data(), idx.size(), wiggle(2),
                            wiggle(9), 10250.0, 0.01, 0.01);
}

TEST(KernelDirect, BandKernelNanAndDenormalRecords) {
  BandFixture fx(19);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double denorm = std::numeric_limits<double>::denorm_min();
  fx.x[1] = nan;          // NaN position: every comparison must be false
  fx.dy[4] = nan;         // NaN velocity feeds the band window math
  fx.alt[6] = nan;        // NaN altitude: the gate must not pass
  fx.dx[9] = denorm;      // denormal relative velocity (parallel branch)
  fx.dy[9] = -denorm;
  fx.dx[12] = 0.0;        // exactly parallel lane
  fx.dy[12] = 0.0;
  fx.alt[15] = 1e308;     // huge gate delta
  expect_band_bit_identical(fx.view(), nullptr, 19, 0.0, 0.0, 10500.0, 0.0,
                            0.0);
  // A NaN focus aircraft is the other direction of the same contract.
  expect_band_bit_identical(fx.view(), nullptr, 19, nan, 0.0, 10500.0, 0.01,
                            0.01);
}

TEST(KernelDirect, BandKernelMisalignedViewsAgree) {
  // Offsetting an aligned array by one element leaves 8-byte-aligned,
  // 32-byte-misaligned pointers — the kernels must not assume alignment.
  const BandFixture fx(21);
  for (const std::size_t offset : {1u, 2u, 3u}) {
    SCOPED_TRACE("offset=" + std::to_string(offset));
    expect_band_bit_identical(fx.view(offset), nullptr, 21 - offset, 0.5,
                              0.5, 10500.0, 0.01, -0.01);
  }
}

TEST(KernelDirect, ResolveDegradesGracefully) {
  EXPECT_EQ(core::kern::resolve(KernelMode::kScalar), Kernel::kScalar);
  const Kernel from_auto = core::kern::resolve(KernelMode::kAuto);
  const Kernel from_avx2 = core::kern::resolve(KernelMode::kAvx2);
  if (core::kern::avx2_available()) {
    EXPECT_EQ(from_auto, Kernel::kAvx2);
    EXPECT_EQ(from_avx2, Kernel::kAvx2);
  } else {
    EXPECT_EQ(from_auto, Kernel::kScalar);
    EXPECT_EQ(from_avx2, Kernel::kScalar);
  }
  KernelMode mode = KernelMode::kAuto;
  EXPECT_TRUE(core::kern::kernel_mode_from_string("scalar", mode));
  EXPECT_EQ(mode, KernelMode::kScalar);
  EXPECT_TRUE(core::kern::kernel_mode_from_string("avx2", mode));
  EXPECT_EQ(mode, KernelMode::kAvx2);
  EXPECT_TRUE(core::kern::kernel_mode_from_string("auto", mode));
  EXPECT_EQ(mode, KernelMode::kAuto);
  EXPECT_FALSE(core::kern::kernel_mode_from_string("sse9", mode));
}

TEST(KernelDirect, SnapshotGatherIsAlignedAndExact) {
  const airfield::FlightDb db = airfield::make_airfield(37, 5);
  core::kern::SoaSnapshot snap;
  snap.gather(db);
  const core::kern::SoaView view = snap.view();
  ASSERT_EQ(view.n, db.size());
  for (const double* p : {view.x, view.y, view.dx, view.dy, view.alt}) {
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) %
                  core::kern::kKernelAlignment,
              0u);
  }
  for (std::size_t i = 0; i < view.n; ++i) {
    EXPECT_EQ(view.x[i], db.x[i]);
    EXPECT_EQ(view.y[i], db.y[i]);
    EXPECT_EQ(view.dx[i], db.dx[i]);
    EXPECT_EQ(view.dy[i], db.dy[i]);
    EXPECT_EQ(view.alt[i], db.alt[i]);
  }
}

}  // namespace
}  // namespace atm::tasks
