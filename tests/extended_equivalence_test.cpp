// Cross-backend equivalence for the extended system: terrain avoidance,
// display update, advisory, multi-tower correlation, and the full-system
// pipeline must produce identical results on every platform.
#include <gtest/gtest.h>

#include <memory>

#include "src/airfield/setup.hpp"
#include "src/atm/extended/full_pipeline.hpp"
#include "src/atm/platforms.hpp"
#include "src/atm/reference_backend.hpp"

namespace atm::tasks {
namespace {

// gtest prints a NamedFactory as its raw bytes, and gtest_discover_tests
// keeps that text in each case's ctest name, so the names carry the low
// byte of each label's address. A new string literal in this file (an
// EXPECT_EQ argument's text is one) can move the labels and rename them.
struct NamedFactory {
  const char* label;
  std::unique_ptr<Backend> (*make)();
};

const NamedFactory kPlatforms[] = {
    {"9800gt", &make_geforce_9800_gt}, {"880m", &make_gtx_880m},
    {"titanx", &make_titan_x_pascal},  {"staran", &make_staran},
    {"clearspeed", &make_clearspeed},  {"xeon", &make_xeon},
};

class ExtendedEquivalenceTest
    : public ::testing::TestWithParam<NamedFactory> {
 protected:
  void SetUp() override {
    initial_ = airfield::make_airfield(600, 77);
    terrain_ = std::make_shared<const airfield::TerrainMap>(5);
    ref_.load(initial_);
    ref_.set_terrain(terrain_);
    backend_ = GetParam().make();
    backend_->load(initial_);
    backend_->set_terrain(terrain_);
  }

  airfield::FlightDb initial_;
  std::shared_ptr<const airfield::TerrainMap> terrain_;
  ReferenceBackend ref_;
  std::unique_ptr<Backend> backend_;
};

TEST_P(ExtendedEquivalenceTest, TerrainMatchesReference) {
  // Lower everyone so warnings are plentiful.
  for (std::size_t i = 0; i < 600; ++i) {
    ref_.mutable_state().alt[i] = 2000.0;
    backend_->mutable_state().alt[i] = 2000.0;
  }
  const TerrainResult ref_r = ref_.run_terrain({});
  const TerrainResult r = backend_->run_terrain({});
  EXPECT_EQ(r.stats, ref_r.stats);
  EXPECT_GT(r.stats.warnings, 0u);
  EXPECT_TRUE(backend_->state().same_flight_state(ref_.state()))
      << GetParam().label;
  for (std::size_t i = 0; i < 600; ++i) {
    ASSERT_EQ(backend_->state().terrain_warn[i], ref_.state().terrain_warn[i]);
  }
}

TEST_P(ExtendedEquivalenceTest, DisplayMatchesReference) {
  const DisplayResult ref_r = ref_.run_display({});
  const DisplayResult r = backend_->run_display({});
  EXPECT_EQ(r.stats, ref_r.stats);
  for (std::size_t i = 0; i < 600; ++i) {
    ASSERT_EQ(backend_->state().sector[i], ref_.state().sector[i]);
  }
  // Second update after movement produces identical handoffs.
  for (auto* b : {static_cast<Backend*>(&ref_), backend_.get()}) {
    auto& db = b->mutable_state();
    for (std::size_t i = 0; i < db.size(); ++i) db.x[i] += 10.0;
  }
  EXPECT_EQ(backend_->run_display({}).stats, ref_.run_display({}).stats);
}

TEST_P(ExtendedEquivalenceTest, AdvisoryMatchesReference) {
  // Seed some flags so all three classes are exercised.
  for (auto* b : {static_cast<Backend*>(&ref_), backend_.get()}) {
    auto& db = b->mutable_state();
    db.col[3] = 1;
    db.terrain_warn[5] = 1;
    db.x[7] = 126.0;
  }
  AdvisoryResult ref_r = ref_.run_advisory({});
  AdvisoryResult r = backend_->run_advisory({});
  EXPECT_EQ(r.stats, ref_r.stats);
  EXPECT_EQ(r.queue, ref_r.queue) << GetParam().label;
  EXPECT_GE(r.stats.total(), 3u);
}

TEST_P(ExtendedEquivalenceTest, MultiRadarMatchesReference) {
  const auto towers = airfield::make_tower_layout(11);
  core::Rng rng_a(9), rng_b(9);
  auto frame_ref = airfield::generate_multi_radar(ref_.state(), towers,
                                                  rng_a, {});
  auto frame = airfield::generate_multi_radar(backend_->state(), towers,
                                              rng_b, {});
  ASSERT_EQ(frame.base.rx, frame_ref.base.rx);

  const MultiRadarResult ref_r = ref_.run_multi_task1(frame_ref, {});
  const MultiRadarResult r = backend_->run_multi_task1(frame, {});

  const MultiRadarOutcome& a = r.stats.outcome();
  const MultiRadarOutcome& b = ref_r.stats.outcome();
  EXPECT_EQ(a, b) << GetParam().label;
  EXPECT_EQ(frame.base.rmatch_with, frame_ref.base.rmatch_with);
  EXPECT_TRUE(backend_->state().same_flight_state(ref_.state()));
}

TEST_P(ExtendedEquivalenceTest, FullSystemMatchesReference) {
  extended::FullSystemConfig cfg;
  cfg.aircraft = 300;
  cfg.major_cycles = 1;
  cfg.seed = 11;

  ReferenceBackend ref;
  const auto ref_result = extended::run_full_system(ref, cfg);
  auto backend = GetParam().make();
  const auto result = extended::run_full_system(*backend, cfg);

  EXPECT_TRUE(backend->state().same_flight_state(ref.state()))
      << GetParam().label << " diverged over a full extended major cycle";
  EXPECT_EQ(result.last_display, ref_result.last_display);
  EXPECT_EQ(result.last_terrain, ref_result.last_terrain);
  EXPECT_EQ(result.last_advisory, ref_result.last_advisory);
  EXPECT_EQ(result.last_queue, ref_result.last_queue);
}

TEST_P(ExtendedEquivalenceTest, FullSystemMultiRadarMatchesReference) {
  extended::FullSystemConfig cfg;
  cfg.aircraft = 250;
  cfg.major_cycles = 1;
  cfg.seed = 13;
  cfg.multi_radar = true;

  ReferenceBackend ref;
  const auto ref_result = extended::run_full_system(ref, cfg);
  auto backend = GetParam().make();
  const auto result = extended::run_full_system(*backend, cfg);

  EXPECT_TRUE(backend->state().same_flight_state(ref.state()))
      << GetParam().label;
  const MultiRadarOutcome& a = result.last_multi.outcome();
  const MultiRadarOutcome& b = ref_result.last_multi.outcome();
  EXPECT_EQ(a, b);
  EXPECT_GT(result.mean_coverage, 1.5);
}

INSTANTIATE_TEST_SUITE_P(
    AllPlatforms, ExtendedEquivalenceTest, ::testing::ValuesIn(kPlatforms),
    [](const ::testing::TestParamInfo<NamedFactory>& info) {
      return std::string(info.param.label);
    });

TEST(FullSystem, ScheduleShape) {
  extended::FullSystemConfig cfg;
  cfg.aircraft = 200;
  cfg.major_cycles = 2;
  auto backend = make_titan_x_pascal();
  const auto result = extended::run_full_system(*backend, cfg);

  // 2 cycles: task1/display 32x, advisory 2x per cycle (periods 7 and 15),
  // task23/terrain once per cycle.
  EXPECT_EQ(result.monitor.task("task1").scheduled(), 32u);
  EXPECT_EQ(result.monitor.task("display").scheduled(), 32u);
  EXPECT_EQ(result.monitor.task("advisory").scheduled(), 4u);
  EXPECT_EQ(result.monitor.task("task23").scheduled(), 2u);
  EXPECT_EQ(result.monitor.task("terrain").scheduled(), 2u);
}

TEST(FullSystem, FastPlatformHoldsAllDeadlines) {
  extended::FullSystemConfig cfg;
  cfg.aircraft = 1500;
  cfg.major_cycles = 1;
  auto backend = make_titan_x_pascal();
  const auto result = extended::run_full_system(*backend, cfg);
  EXPECT_EQ(result.monitor.total_missed(), 0u);
  EXPECT_EQ(result.monitor.total_skipped(), 0u);
}

TEST(FullSystem, DeterministicPerSeed) {
  extended::FullSystemConfig cfg;
  cfg.aircraft = 300;
  cfg.major_cycles = 1;
  auto a = make_gtx_880m();
  auto b = make_gtx_880m();
  const auto ra = extended::run_full_system(*a, cfg);
  const auto rb = extended::run_full_system(*b, cfg);
  EXPECT_TRUE(a->state().same_flight_state(b->state()));
  EXPECT_EQ(ra.last_queue, rb.last_queue);
  EXPECT_DOUBLE_EQ(ra.virtual_end_ms, rb.virtual_end_ms);
}

}  // namespace
}  // namespace atm::tasks
