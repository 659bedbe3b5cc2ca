// Accounting tests: the modeled-time bookkeeping that the figures are
// built from — device totals, transfer vs kernel attribution, radar-path
// separation, and period logs.
#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <string>

#include "src/airfield/setup.hpp"
#include "src/airfield/towers.hpp"
#include "src/atm/cuda_backend.hpp"
#include "src/atm/extended/sporadic.hpp"
#include "src/atm/mimd_backend.hpp"
#include "src/atm/pipeline.hpp"
#include "src/atm/platforms.hpp"
#include "src/atm/reference_backend.hpp"
#include "src/atm/scenarios.hpp"

namespace atm::tasks {
namespace {

TEST(Accounting, LoadModelsTheInitialUpload) {
  CudaBackend card(simt::titan_x_pascal());
  EXPECT_EQ(card.device().totals().transfers, 0u);
  card.load(airfield::make_airfield(1000, 3));
  EXPECT_EQ(card.device().totals().transfers, 1u);
  EXPECT_GT(card.device().totals().bytes_moved, 1000u * 8u * 8u);
}

TEST(Accounting, Task1LaunchCountMatchesItsPhases) {
  CudaBackend card(simt::titan_x_pascal());
  card.load(airfield::make_airfield(500, 3));
  card.device().reset_totals();
  core::Rng rng(1);
  airfield::RadarFrame frame = card.generate_radar(rng, {}, nullptr);
  const auto after_radar = card.device().totals().launches;
  EXPECT_EQ(after_radar, 1u);  // GenerateRadarData kernel

  const Task1Result r = card.run_task1(frame, {});
  // expected-position + passes x (reset, scan, ambiguity, resolve) +
  // commit.
  const auto expected_launches =
      1u + 4u * static_cast<unsigned>(r.stats.passes) + 1u;
  EXPECT_EQ(card.device().totals().launches - after_radar,
            expected_launches);
}

TEST(Accounting, FusedTask23IsExactlyTwoLaunches) {
  CudaBackend card(simt::gtx_880m());
  card.load(airfield::make_airfield(400, 5));
  card.device().reset_totals();
  (void)card.run_task23({});
  EXPECT_EQ(card.device().totals().launches, 2u);  // fused + commit
  EXPECT_EQ(card.device().totals().transfers, 0u);  // no round trips
}

TEST(Accounting, SplitTask23PaysTwoExtraTransfers) {
  CudaBackend card(simt::gtx_880m());
  card.load(airfield::make_airfield(400, 5));
  card.device().reset_totals();
  (void)card.run_task23_split({});
  EXPECT_EQ(card.device().totals().launches, 3u);  // detect+resolve+commit
  EXPECT_EQ(card.device().totals().transfers, 2u);  // flags out and back
}

TEST(Accounting, ModeledMsSumsKernelsAndTransfers) {
  CudaBackend card(simt::geforce_9800_gt());
  card.load(airfield::make_airfield(600, 7));
  card.device().reset_totals();
  core::Rng rng(2);
  airfield::RadarFrame frame = card.generate_radar(rng, {}, nullptr);
  const Task1Result r1 = card.run_task1(frame, {});
  const Task23Result r23 = card.run_task23({});
  const auto& totals = card.device().totals();
  double radar_ms = 0.0;
  {
    // Re-derive the radar path's share by running it again on a twin.
    CudaBackend twin(simt::geforce_9800_gt());
    twin.load(airfield::make_airfield(600, 7));
    core::Rng rng2(2);
    (void)twin.generate_radar(rng2, {}, &radar_ms);
  }
  EXPECT_NEAR(totals.kernel_ms + totals.transfer_ms,
              r1.modeled_ms + r23.modeled_ms + radar_ms, 1e-9);
}

TEST(Accounting, RadarPathChargedToRadarNotTask1) {
  // The modeled radar cost must not appear in run_task1's time beyond the
  // one frame upload Task 1 legitimately pays.
  CudaBackend card(simt::titan_x_pascal());
  card.load(airfield::make_airfield(2000, 9));
  core::Rng rng(3);
  double radar_ms = 0.0;
  airfield::RadarFrame frame = card.generate_radar(rng, {}, &radar_ms);
  EXPECT_GT(radar_ms, 0.0);
  const Task1Result r1 = card.run_task1(frame, {});
  // Task 1 includes the frame upload but not the device radar generation
  // or the shuffle download; radar_ms covers those two.
  EXPECT_GT(r1.modeled_ms, 0.0);
}

TEST(Accounting, PeriodLogsCarryPerPeriodDetail) {
  PipelineConfig cfg;
  cfg.aircraft = 300;
  cfg.major_cycles = 1;
  auto backend = make_geforce_9800_gt();
  const PipelineResult result = run_pipeline(*backend, cfg);
  ASSERT_EQ(result.periods.size(), 16u);
  for (int p = 0; p < 16; ++p) {
    const PeriodLog& log = result.periods[static_cast<std::size_t>(p)];
    EXPECT_EQ(log.cycle, 0);
    EXPECT_EQ(log.period, p);
    EXPECT_GT(log.task1_ms, 0.0);
    EXPECT_GT(log.radar_ms, 0.0);  // CUDA radar path is modeled
    EXPECT_EQ(log.task23_ran, p == 15);
  }
  // The monitor's mean equals the logs' mean.
  double sum = 0.0;
  for (const PeriodLog& log : result.periods) sum += log.task1_ms;
  EXPECT_NEAR(result.deadlines().task("task1").duration_ms.mean(), sum / 16.0,
              1e-12);
}

TEST(Accounting, XeonWorkCountersMatchTheoreticalShape) {
  MimdBackend xeon;
  xeon.load(airfield::make_airfield(800, 11));
  (void)xeon.run_task23({});
  const mimd::WorkCounters& work = xeon.last_work();
  EXPECT_EQ(work.items, 800u);
  // Detection sweeps the full shared table once per aircraft, plus rescan
  // sweeps: inner_ops >= n^2.
  EXPECT_GE(work.inner_ops, 800u * 800u);
  EXPECT_GE(work.locked_ops, work.inner_ops);
  EXPECT_EQ(work.parallel_regions, 2u);
}

TEST(Accounting, XeonTaskInputsArePinnedOverEveryHostStrategy) {
  // The Xeon model's Task 1 and Tasks 2+3 inputs over {brute, grid} x
  // {unsharded, 4x4}: three radar frames whose 0.9 nm of noise makes all
  // three passes run, then one Tasks 2+3 run, at 1500 aircraft. The
  // figures are pinned: the model's inputs must not move when the host
  // execution changes.
  using core::spatial::BroadphaseMode;
  using core::spatial::ShardMode;
  struct Pinned {
    std::uint64_t inner_ops, locked_ops, parallel_regions;
  };
  struct Case {
    BroadphaseMode broadphase;
    ShardMode shard;
    std::array<Pinned, 3> task1;
    Pinned task23;
  };
  const std::array<Case, 4> cases{{
      {BroadphaseMode::kBruteForce, ShardMode::kNone,
       {{{3807000, 3809958, 11},
         {3754500, 3757452, 11},
         {3772500, 3775460, 11}}},
       {5446500, 5447419, 2}},
      {BroadphaseMode::kGrid, ShardMode::kNone,
       {{{2969, 5927, 11}, {2903, 5855, 11}, {2906, 5866, 11}}},
       {297676, 298595, 2}},
      {BroadphaseMode::kBruteForce, ShardMode::kSectors,
       {{{217099, 2676, 11}, {210964, 2619, 11}, {213990, 2640, 11}}},
       {5446500, 24000, 2}},
      {BroadphaseMode::kGrid, ShardMode::kSectors,
       {{{2684, 2676, 11}, {2627, 2619, 11}, {2645, 2640, 11}}},
       {297676, 24000, 2}},
  }};
  constexpr std::uint64_t n = 1500;
  airfield::RadarParams radar;
  radar.noise_nm = 0.9;
  // Per frame: the unsharded runs' hit count (write locks minus reads and
  // correlations), which the broadphase must not change.
  std::array<std::uint64_t, 3> hits{};
  for (const Case& c : cases) {
    SCOPED_TRACE(std::string(core::spatial::to_string(c.broadphase)) + "/" +
                 std::string(core::spatial::to_string(c.shard)));
    const bool unsharded = c.shard == ShardMode::kNone;
    MimdBackend xeon;
    xeon.load(airfield::make_airfield(n, 7));
    core::Rng rng(11);
    Task1Params p1;
    p1.broadphase = c.broadphase;
    p1.shard = c.shard;
    p1.sectors_per_axis = 4;
    for (std::size_t f = 0; f < c.task1.size(); ++f) {
      airfield::RadarFrame frame = xeon.generate_radar(rng, radar, nullptr);
      const Task1Result r = xeon.run_task1(frame, p1);
      ASSERT_EQ(r.stats.passes, 3);
      const mimd::WorkCounters& work = xeon.last_work();
      EXPECT_EQ(work.items, n);
      EXPECT_EQ(work.inner_ops, c.task1[f].inner_ops) << "frame " << f;
      EXPECT_EQ(work.locked_ops, c.task1[f].locked_ops) << "frame " << f;
      EXPECT_EQ(work.parallel_regions, c.task1[f].parallel_regions)
          << "frame " << f;
      if (unsharded) {
        EXPECT_EQ(work.parallel_regions, 2u + 3u * 3u);
        const std::uint64_t frame_hits =
            work.locked_ops - work.inner_ops - r.stats.matched;
        if (c.broadphase == BroadphaseMode::kBruteForce) {
          hits[f] = frame_hits;
        } else {
          EXPECT_EQ(frame_hits, hits[f]) << "frame " << f;
        }
      }
    }
    Task23Params p23;
    p23.broadphase = c.broadphase;
    p23.shard = c.shard;
    p23.sectors_per_axis = 4;
    const Task23Result r = xeon.run_task23(p23);
    const mimd::WorkCounters& work = xeon.last_work();
    EXPECT_EQ(work.items, n);
    EXPECT_EQ(work.inner_ops, c.task23.inner_ops);
    EXPECT_EQ(work.locked_ops, c.task23.locked_ops);
    EXPECT_EQ(work.parallel_regions, c.task23.parallel_regions);
    // At the paper's horizon every sector's halo carries the whole table,
    // so brute force reads n records per scan in both modes.
    if (c.broadphase == BroadphaseMode::kGrid) {
      EXPECT_EQ(work.inner_ops, r.stats.pair_candidates);
    } else {
      EXPECT_EQ(work.inner_ops, n * (n + r.stats.rescans));
    }
    if (unsharded) {
      EXPECT_EQ(work.parallel_regions, 2u);
      EXPECT_EQ(work.locked_ops,
                work.inner_ops + r.stats.conflicts + r.stats.resolved);
    }
  }
}

TEST(Accounting, Task23WorkIsPinnedOverEveryHostPath) {
  // One Tasks 2+3 run on a 1500-aircraft dense-en-route fleet over every
  // host path: the sequential reference (brute, grid), the reference's
  // sharded run on the pool executor (grid 4x4) and the MIMD backend
  // (brute, grid, grid 4x4). The bench per-layer metrics and the trace
  // read these counters, so they are pinned: they must not move when the
  // host execution changes.
  using core::spatial::BroadphaseMode;
  using core::spatial::ShardMode;
  struct Pinned {
    std::uint64_t pair_candidates, pair_tests, rescans;
  };
  struct Case {
    const char* name;
    bool mimd;
    BroadphaseMode broadphase;
    ShardMode shard;
    Pinned work;
  };
  const std::array<Case, 6> cases{{
      {"reference brute", false, BroadphaseMode::kBruteForce,
       ShardMode::kNone, {5932381, 954966, 5517}},
      {"reference grid", false, BroadphaseMode::kGrid, ShardMode::kNone,
       {1446134, 961866, 5517}},
      {"reference grid 4x4", false, BroadphaseMode::kGrid,
       ShardMode::kSectors, {1446134, 961866, 5517}},
      {"mimd brute", true, BroadphaseMode::kBruteForce, ShardMode::kNone,
       {5932381, 954966, 5517}},
      {"mimd grid", true, BroadphaseMode::kGrid, ShardMode::kNone,
       {1446134, 961866, 5517}},
      {"mimd grid 4x4", true, BroadphaseMode::kGrid, ShardMode::kSectors,
       {1446134, 961866, 5517}},
  }};
  const Task23Outcome outcome{.aircraft = 1500,
                              .conflicts = 1277,
                              .critical = 669,
                              .resolved = 352,
                              .unresolved = 317};
  const Scenario scenario = dense_en_route();
  const airfield::FlightDb fleet =
      airfield::make_airfield(1500, 7, scenario.setup);
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    std::unique_ptr<Backend> backend;
    if (c.mimd) {
      backend = std::make_unique<MimdBackend>();
    } else {
      backend = std::make_unique<ReferenceBackend>();
    }
    backend->load(fleet);
    Task23Params params = scenario.task23;
    params.broadphase = c.broadphase;
    params.shard = c.shard;
    params.sectors_per_axis = 4;
    const Task23Stats stats = backend->run_task23(params).stats;
    EXPECT_EQ(stats.outcome(), outcome);
    EXPECT_EQ(stats.pair_candidates, c.work.pair_candidates);
    EXPECT_EQ(stats.pair_tests, c.work.pair_tests);
    EXPECT_EQ(stats.rescans, c.work.rescans);
  }
}

TEST(Accounting, ShardedTask23ChargesComeFromThePartition) {
  // Sharded Tasks 2+3 on MIMD at a 300-period horizon, where every
  // sector's halo is smaller than the fleet: [13]'s sector tasks would
  // gather and scan only their owned + halo records, and the model is
  // charged for exactly that. Under brute force each scan reads its
  // owner sector's candidates and the gathers are the lock charge; under
  // kGrid the model charges pair_candidates, the shared index's count.
  using core::spatial::BroadphaseMode;
  struct Case {
    BroadphaseMode broadphase;
    std::uint64_t inner_ops;
  };
  const std::array<Case, 2> cases{{
      {BroadphaseMode::kBruteForce, 3315437},
      // 331666 while each sector task built its own swept index over its
      // owned + halo records; the shared index enumerates more.
      {BroadphaseMode::kGrid, 361345},
  }};
  constexpr std::uint64_t kLocked = 7550;
  constexpr std::uint64_t kHalo = 6050;
  const std::array<std::uint64_t, 16> owned{
      90, 85, 94, 95, 105, 99, 93, 104, 100, 104, 76, 97, 94, 85, 92, 87};
  const std::array<std::uint64_t, 16> candidates{
      307, 454, 455, 322, 477, 669, 668, 468,
      473, 653, 652, 447, 323, 447, 439, 296};
  Scenario scenario = dense_en_route();
  scenario.task23.horizon_periods = scenario.task23.critical_periods;
  const airfield::FlightDb fleet =
      airfield::make_airfield(1500, 7, scenario.setup);
  for (const Case& c : cases) {
    SCOPED_TRACE(std::string(core::spatial::to_string(c.broadphase)));
    MimdBackend xeon;
    obs::RecordingSink sink;
    xeon.set_trace_sink(&sink);
    xeon.load(fleet);
    Task23Params params = scenario.task23;
    params.broadphase = c.broadphase;
    params.shard = core::spatial::ShardMode::kSectors;
    params.sectors_per_axis = 4;
    const Task23Result r = xeon.run_task23(params);
    const mimd::WorkCounters& work = xeon.last_work();
    EXPECT_EQ(work.inner_ops, c.inner_ops);
    EXPECT_EQ(work.locked_ops, kLocked);
    EXPECT_EQ(work.parallel_regions, 2u);
    EXPECT_EQ(r.stats.halo_candidates, kHalo);
    if (c.broadphase == BroadphaseMode::kGrid) {
      EXPECT_EQ(work.inner_ops, r.stats.pair_candidates);
    }
    std::array<std::uint64_t, 16> got_owned{}, got_candidates{};
    for (const obs::TraceEvent& ev : sink.events()) {
      if (ev.kind != obs::EventKind::kCounter) continue;
      ASSERT_GE(ev.sector, 0);
      ASSERT_LT(ev.sector, 16);
      const auto s = static_cast<std::size_t>(ev.sector);
      if (ev.name == "task23.sector_owned") got_owned[s] = ev.value;
      if (ev.name == "task23.sector_candidates") got_candidates[s] = ev.value;
    }
    EXPECT_EQ(got_owned, owned);
    EXPECT_EQ(got_candidates, candidates);
    std::uint64_t gathered = 0;
    for (std::size_t s = 0; s < 16; ++s) {
      EXPECT_LT(got_candidates[s], fleet.size()) << "sector " << s;
      gathered += got_candidates[s];
    }
    EXPECT_EQ(work.locked_ops, gathered);
  }
}

TEST(Accounting, XeonMultiRadarTask1InputsHaveAClosedForm) {
  // A one-pass frame: phase 1 reads the whole table per return, phase 2
  // is charged as the [13] aircraft-major scan (every return per eligible
  // aircraft), each matched aircraft takes one write lock, and the run is
  // three regions per pass between the expected-position and commit ones.
  const std::vector<airfield::RadarTower> towers =
      airfield::make_tower_layout(21);
  for (const std::uint64_t n : {600u, 1200u}) {
    MimdBackend xeon;
    xeon.load(airfield::make_airfield(n, 21));
    for (std::uint64_t period = 0; period < 2; ++period) {
      core::Rng rng(30 + period);
      airfield::MultiRadarFrame frame =
          airfield::generate_multi_radar(xeon.state(), towers, rng);
      const MultiRadarResult r = xeon.run_multi_task1(frame, {});
      ASSERT_EQ(r.stats.passes, 1);
      const mimd::WorkCounters& work = xeon.last_work();
      EXPECT_EQ(work.items, n);
      EXPECT_EQ(work.inner_ops, 2 * n * frame.size());
      EXPECT_EQ(work.locked_ops, work.inner_ops + r.stats.matched_aircraft);
      EXPECT_EQ(work.parallel_regions, 5u);
    }
  }
}

TEST(Accounting, XeonMultiRadarTask1RetryFrameIsPinned) {
  // 1.6 nm of noise leaves returns outside the first box, so all three
  // passes run over a shrinking set of eligible aircraft and active
  // returns. The figures are pinned: the Xeon model's multi-radar inputs
  // must not move when the host execution changes.
  MimdBackend xeon;
  xeon.load(airfield::make_airfield(600, 21));
  core::Rng rng(30);
  airfield::RadarParams radar;
  radar.noise_nm = 1.6;
  airfield::MultiRadarFrame frame = airfield::generate_multi_radar(
      xeon.state(), airfield::make_tower_layout(21), rng, radar);
  const MultiRadarResult r = xeon.run_multi_task1(frame, {});
  EXPECT_EQ(r.stats.passes, 3);
  EXPECT_EQ(r.stats.matched_aircraft, 600u);
  const mimd::WorkCounters& work = xeon.last_work();
  EXPECT_EQ(work.items, 600u);
  EXPECT_EQ(work.inner_ops, 8310327u);
  EXPECT_EQ(work.locked_ops, 8310927u);
  EXPECT_EQ(work.parallel_regions, 11u);
}

TEST(Accounting, XeonExtendedTaskInputsHaveClosedForms) {
  // The Xeon model's inputs for the extended tasks at 1500 aircraft. Each
  // task is one parallel region over the shared table and charges [13]'s
  // locks from its counts (docs/COST_MODELS.md §4). The figures are
  // pinned: the model's inputs must not move when the host execution
  // changes.
  constexpr std::uint64_t n = 1500;
  MimdBackend xeon(mimd::paper_xeon_spec(), /*pool_workers=*/3,
                   /*jitter_seed=*/7);
  xeon.load(airfield::make_airfield(n, 7));
  const auto expect_work = [&](std::uint64_t inner_ops,
                               std::uint64_t locked_ops) {
    const mimd::WorkCounters& work = xeon.last_work();
    EXPECT_EQ(work.items, n);
    EXPECT_EQ(work.inner_ops, inner_ops);
    EXPECT_EQ(work.locked_ops, locked_ops);
    EXPECT_EQ(work.parallel_regions, 1u);
  };

  // Display: 4 record operations per aircraft, plus one write lock on its
  // sector's bin. Fresh sectors hand nothing off.
  EXPECT_EQ(xeon.run_display({}).stats, (DisplayStats{n, 0, 255, 12}));
  expect_work(4 * n, 5 * n);

  // Sporadic: every query reads every record, plus one lock per hit.
  core::Rng query_rng(11);
  const std::vector<Query> queries =
      extended::make_query_batch(xeon.state(), query_rng,
                                 {.queries_per_batch = 8});
  const SporadicResult sporadic = xeon.run_sporadic(queries, {});
  EXPECT_EQ(sporadic.stats.hits, 56u);
  expect_work(n * queries.size(), n * queries.size() + 56);

  // Advisory: 4 record operations per aircraft, plus one lock per
  // enqueued advisory.
  const AdvisoryResult advisory = xeon.run_advisory({});
  EXPECT_EQ(advisory.queue.size(), 177u);
  expect_work(4 * n, 4 * n + 177);

  // Terrain: each sample reads 4 heightmap cells plus the record, all
  // under reader locks.
  xeon.set_terrain(std::make_shared<const airfield::TerrainMap>(5));
  const TerrainTaskParams terrain;
  EXPECT_EQ(xeon.run_terrain(terrain).stats.samples,
            n * static_cast<std::uint64_t>(terrain.samples));
  expect_work(5 * n * terrain.samples, 5 * n * terrain.samples);

  // One Task 1 period moves aircraft across sector lines; the second
  // display counts those handoffs and charges the same work.
  core::Rng radar_rng(11);
  airfield::RadarFrame frame = xeon.generate_radar(radar_rng, {}, nullptr);
  (void)xeon.run_task1(frame, {});
  EXPECT_EQ(xeon.run_display({}).stats, (DisplayStats{n, 34, 255, 12}));
  expect_work(4 * n, 5 * n);
}

}  // namespace
}  // namespace atm::tasks
