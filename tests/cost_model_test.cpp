// Tests for the paper-level timing relationships the cost models must
// produce: platform ordering, curve shapes, and the determinism claims of
// Section 6.2. These are the model-level assertions behind Figures 4-9.
#include <gtest/gtest.h>

#include <vector>

#include "src/airfield/setup.hpp"
#include "src/atm/cuda_backend.hpp"
#include "src/atm/mimd_backend.hpp"
#include "src/atm/pipeline.hpp"
#include "src/atm/platforms.hpp"
#include "src/core/curvefit.hpp"

namespace atm::tasks {
namespace {

struct TaskTimes {
  double task1_ms = 0.0;
  double task23_ms = 0.0;
};

TaskTimes run_once(Backend& backend, const airfield::FlightDb& field,
                   std::uint64_t radar_seed = 7) {
  backend.load(field);
  core::Rng rng(radar_seed);
  airfield::RadarFrame frame = backend.generate_radar(rng, {}, nullptr);
  TaskTimes t;
  t.task1_ms = backend.run_task1(frame, {}).modeled_ms;
  t.task23_ms = backend.run_task23({}).modeled_ms;
  return t;
}

TEST(CostModel, PaperPlatformOrderingHolds) {
  // Section 6.2: all three NVIDIA devices run the tasks faster than the
  // AP (STARAN), the ClearSpeed emulation, and the Xeon; and the Xeon is
  // the slowest of all at scale.
  const airfield::FlightDb field = airfield::make_airfield(2000, 11);
  auto staran = make_staran();
  auto clearspeed = make_clearspeed();
  auto xeon = make_xeon();
  auto titan = make_titan_x_pascal();
  auto gtx = make_gtx_880m();
  auto geforce = make_geforce_9800_gt();

  const TaskTimes t_st = run_once(*staran, field);
  const TaskTimes t_cs = run_once(*clearspeed, field);
  const TaskTimes t_xe = run_once(*xeon, field);
  const TaskTimes t_ti = run_once(*titan, field);
  const TaskTimes t_gx = run_once(*gtx, field);
  const TaskTimes t_gf = run_once(*geforce, field);

  for (const auto* nvidia : {&t_ti, &t_gx, &t_gf}) {
    EXPECT_LT(nvidia->task1_ms, t_st.task1_ms);
    EXPECT_LT(nvidia->task1_ms, t_cs.task1_ms);
    EXPECT_LT(nvidia->task1_ms, t_xe.task1_ms);
    EXPECT_LT(nvidia->task23_ms, t_st.task23_ms);
    EXPECT_LT(nvidia->task23_ms, t_cs.task23_ms);
    EXPECT_LT(nvidia->task23_ms, t_xe.task23_ms);
  }
  // NVIDIA cards order by capability: Titan X < 880M < 9800 GT.
  EXPECT_LT(t_ti.task1_ms, t_gx.task1_ms);
  EXPECT_LT(t_gx.task1_ms, t_gf.task1_ms);
  EXPECT_LT(t_ti.task23_ms, t_gx.task23_ms);
  EXPECT_LT(t_gx.task23_ms, t_gf.task23_ms);
  // The multi-core sits above the associative platforms at this scale.
  EXPECT_GT(t_xe.task23_ms, t_st.task23_ms);
  EXPECT_GT(t_xe.task23_ms, t_cs.task23_ms);
}

TEST(CostModel, CudaTimingIsExactlyReproducible) {
  // Section 6.2: "each time we ran the program ... we would get the exact
  // same timings again and again".
  const airfield::FlightDb field = airfield::make_airfield(1200, 3);
  std::vector<double> t1s, t23s;
  for (int run = 0; run < 3; ++run) {
    CudaBackend dev(simt::gtx_880m());
    const TaskTimes t = run_once(dev, field);
    t1s.push_back(t.task1_ms);
    t23s.push_back(t.task23_ms);
  }
  EXPECT_DOUBLE_EQ(t1s[0], t1s[1]);
  EXPECT_DOUBLE_EQ(t1s[1], t1s[2]);
  EXPECT_DOUBLE_EQ(t23s[0], t23s[1]);
  EXPECT_DOUBLE_EQ(t23s[1], t23s[2]);
}

TEST(CostModel, ApTimingIsExactlyReproducible) {
  const airfield::FlightDb field = airfield::make_airfield(900, 5);
  const auto a = make_staran();
  const auto b = make_staran();
  const TaskTimes ta = run_once(*a, field);
  const TaskTimes tb = run_once(*b, field);
  EXPECT_DOUBLE_EQ(ta.task1_ms, tb.task1_ms);
  EXPECT_DOUBLE_EQ(ta.task23_ms, tb.task23_ms);
}

TEST(CostModel, XeonTimingIsNotReproducibleAcrossSeeds) {
  const airfield::FlightDb field = airfield::make_airfield(900, 5);
  MimdBackend a(mimd::paper_xeon_spec(), 0, /*jitter_seed=*/111);
  MimdBackend b(mimd::paper_xeon_spec(), 0, /*jitter_seed=*/222);
  const TaskTimes ta = run_once(a, field);
  const TaskTimes tb = run_once(b, field);
  EXPECT_NE(ta.task1_ms, tb.task1_ms);
  EXPECT_NE(ta.task23_ms, tb.task23_ms);
  EXPECT_FALSE(a.deterministic());
}

TEST(CostModel, ApTask1ScalesLinearly) {
  // The [12, 13] result the paper leans on: the AP runs the tasks in
  // linear time. Fit the STARAN Task 1 series and require an excellent
  // linear fit.
  std::vector<double> ns, ts;
  for (const std::size_t n : {250u, 500u, 1000u, 2000u, 3000u}) {
    const auto ap = make_staran();
    const TaskTimes t = run_once(*ap, airfield::make_airfield(n, 70 + n));
    ns.push_back(static_cast<double>(n));
    ts.push_back(t.task1_ms);
  }
  const core::PolyFit fit = core::fit_linear(ns, ts);
  EXPECT_GT(fit.gof.r2, 0.995);
  EXPECT_GT(fit.coeffs[1], 0.0);
}

TEST(CostModel, CudaCurveIsNearLinear) {
  // Figure 8/9 shape: CUDA task curves fit linear-or-small-quadratic.
  std::vector<double> ns, ts;
  for (const std::size_t n : {250u, 500u, 1000u, 2000u, 3000u}) {
    CudaBackend dev(simt::gtx_880m());
    const TaskTimes t = run_once(dev, airfield::make_airfield(n, 70 + n));
    ns.push_back(static_cast<double>(n));
    ts.push_back(t.task1_ms);
  }
  const core::CurveShapeReport shape = core::analyze_curve_shape(ns, ts);
  // Either a clean linear fit, or a quadratic whose quadratic coefficient
  // is negligible next to the linear one (the paper's own finding).
  if (shape.quadratic_preferred) {
    EXPECT_LT(shape.quad_to_linear_coeff_ratio, 0.01);
  }
  EXPECT_GT(shape.linear.gof.r2, 0.95);
}

TEST(CostModel, XeonGrowsFasterThanEveryoneElse) {
  // Figure 4/6 shape: the multi-core curve pulls away super-linearly.
  std::vector<double> ns, xeon_ts, titan_ts;
  for (const std::size_t n : {500u, 1000u, 2000u, 4000u}) {
    const airfield::FlightDb field = airfield::make_airfield(n, 70 + n);
    MimdBackend xeon;
    CudaBackend titan(simt::titan_x_pascal());
    xeon_ts.push_back(run_once(xeon, field).task23_ms);
    titan_ts.push_back(run_once(titan, field).task23_ms);
    ns.push_back(static_cast<double>(n));
  }
  // Growth factor over the 8x n range: Xeon far steeper than the GPU.
  const double xeon_growth = xeon_ts.back() / xeon_ts.front();
  const double titan_growth = titan_ts.back() / titan_ts.front();
  EXPECT_GT(xeon_growth, 2.0 * titan_growth);
  // And the absolute gap widens monotonically.
  for (std::size_t i = 1; i < ns.size(); ++i) {
    EXPECT_GT(xeon_ts[i] - titan_ts[i], xeon_ts[i - 1] - titan_ts[i - 1]);
  }
}

TEST(CostModel, WorstCaseWithinPaperFiveTimesBound) {
  // Section 7: "the variation in time needed to handle various special
  // situations [is] no larger than 5 times the usual amount of time".
  // Over a multi-cycle run, the slowest Task 1 period (extra correlation
  // passes, conflict bursts) must stay within 5x the mean period.
  PipelineConfig cfg;
  cfg.aircraft = 1500;
  cfg.major_cycles = 2;
  CudaBackend titan(simt::titan_x_pascal());
  const PipelineResult result = run_pipeline(titan, cfg);
  const auto& t1 = result.deadlines().task("task1").duration_ms;
  EXPECT_LT(t1.max(), 5.0 * t1.mean());
  EXPECT_GT(t1.max(), 0.0);
}

TEST(CostModel, RadarRoundTripCostsMoreOnOlderBus) {
  // The paper's radar shuffle round-trips device<->host every period; the
  // PCIe-2 9800 GT pays more for it than the Titan X.
  const airfield::FlightDb field = airfield::make_airfield(4000, 9);
  CudaBackend old_card(simt::geforce_9800_gt());
  CudaBackend new_card(simt::titan_x_pascal());
  old_card.load(field);
  new_card.load(field);
  core::Rng ra(1), rb(1);
  double old_ms = 0.0, new_ms = 0.0;
  (void)old_card.generate_radar(ra, {}, &old_ms);
  (void)new_card.generate_radar(rb, {}, &new_ms);
  EXPECT_GT(old_ms, new_ms);
}

}  // namespace
}  // namespace atm::tasks
