#include "bench/e2e/probes.hpp"

#include <cmath>
#include <functional>
#include <string>

#include "src/airfield/flight_db.hpp"
#include "src/atm/reference/collision.hpp"
#include "src/core/kern/kernels.hpp"
#include "src/core/kern/soa_snapshot.hpp"
#include "src/core/rng.hpp"
#include "src/core/stats.hpp"
#include "src/core/spatial/sectors.hpp"
#include "src/core/spatial/swept_index.hpp"
#include "src/core/spatial/uniform_grid.hpp"
#include "src/mimd/thread_pool.hpp"

namespace bench_atm {

namespace airfield = atm::airfield;
namespace kern = atm::core::kern;
namespace spatial = atm::core::spatial;

namespace {

double median(std::vector<double> values) {
  return atm::core::percentile_of(std::move(values), 50.0);
}

/// Median wall time in ns of `reps` calls of fn().
template <typename Fn>
double median_ns(int reps, Fn&& fn) {
  std::vector<double> samples;
  samples.reserve(static_cast<std::size_t>(reps));
  for (int r = 0; r < reps; ++r) {
    const std::int64_t t0 = now_ns();
    fn();
    samples.push_back(static_cast<double>(now_ns() - t0));
  }
  return median(std::move(samples));
}

/// Expected next-period positions (Task 1's prediction), kernel-aligned.
struct ExpectedPositions {
  kern::AlignedVector<double> x, y;
  explicit ExpectedPositions(const airfield::FlightDb& db)
      : x(db.size()), y(db.size()) {
    for (std::size_t i = 0; i < db.size(); ++i) {
      x[i] = db.x[i] + db.dx[i];
      y[i] = db.y[i] + db.dy[i];
    }
  }
};

/// Records one span per probe and collects its metrics.
class ProbeRun {
 public:
  ProbeRun(SpanLog& spans, std::uint64_t parent)
      : spans_(spans), parent_(parent) {}

  /// Run `body` as probe `name`; it appends metrics to result().
  template <typename Body>
  void probe(const char* name, Body&& body) {
    const std::int64_t t0 = now_ns();
    body();
    spans_.add(std::string("probe.") + name, parent_, t0, now_ns());
  }

  void metric(const char* name, double value, const char* unit) {
    result_.metrics.push_back(Metric{name, value, unit});
  }
  void fold(std::uint64_t v) { result_.checksum = result_.checksum * 31 + v; }

  ProbeResult take() { return std::move(result_); }

 private:
  SpanLog& spans_;
  std::uint64_t parent_;
  ProbeResult result_;
};

}  // namespace

ProbeResult run_probes(const ProbeConfig& cfg,
                       const std::vector<Capture>& captures, SpanLog& spans,
                       std::uint64_t parent) {
  ProbeRun run(spans, parent);
  const double half_nm = cfg.task1.box_half_nm;

  run.probe("airfield", [&] {
    std::vector<double> make_ns;
    for (int r = 0; r < 5; ++r) {
      const std::int64_t t0 = now_ns();
      const airfield::FlightDb db = airfield::make_airfield(
          cfg.aircraft, cfg.seed + static_cast<std::uint64_t>(r), cfg.setup);
      make_ns.push_back(static_cast<double>(now_ns() - t0));
      run.fold(db.size());
    }
    run.metric("airfield.make_airfield_ms", median(make_ns) * 1e-6, "ms");

    std::vector<double> reentry_ns;
    for (const Capture& c : captures) {
      for (int r = 0; r < 9; ++r) {
        airfield::FlightDb copy = c.db;
        const std::int64_t t0 = now_ns();
        run.fold(airfield::apply_reentry_all(copy));
        reentry_ns.push_back(static_cast<double>(now_ns() - t0));
      }
    }
    run.metric("airfield.reentry_us", median(reentry_ns) * 1e-3, "us");

    if (cfg.multi_radar) {
      const std::vector<airfield::RadarTower> towers =
          airfield::make_tower_layout(cfg.seed ^ 0x70BE25ULL, cfg.towers);
      std::vector<double> radar_ns;
      for (const Capture& c : captures) {
        atm::core::Rng rng(cfg.seed);
        radar_ns.push_back(median_ns(3, [&] {
          run.fold(airfield::generate_multi_radar(c.db, towers, rng,
                                                  cfg.radar)
                       .size());
        }));
      }
      run.metric("airfield.radar_us_p50", median(radar_ns) * 1e-3, "us");
    }
  });

  run.probe("core.kern", [&] {
    std::vector<double> gather_ns;
    std::vector<double> band_ns_lane;
    std::vector<double> box_ns_lane;
    const kern::Kernel band_kernel = kern::resolve(cfg.task23.kernel);
    const kern::Kernel box_kernel = kern::resolve(cfg.task1.kernel);
    const kern::BandParams band{cfg.task23.band_nm,
                                cfg.task23.horizon_periods,
                                cfg.task23.altitude_gate_feet};
    for (const Capture& c : captures) {
      kern::SoaSnapshot snap;
      gather_ns.push_back(median_ns(9, [&] { snap.gather(c.db); }));

      // Every aircraft against the full view: the brute Task 2 scan.
      const std::size_t n = snap.size();
      const kern::SoaView view = snap.view();
      kern::AlignedVector<double> tmin(n);
      std::vector<std::uint8_t> flags(n);
      std::int64_t t0 = now_ns();
      for (std::size_t i = 0; i < n; ++i) {
        kern::band_intersect_batch(band_kernel, view, nullptr, n, view.x[i],
                                   view.y[i], view.alt[i], view.dx[i],
                                   view.dy[i], band, tmin.data(),
                                   flags.data(), nullptr);
        run.fold(flags[i]);
      }
      band_ns_lane.push_back(static_cast<double>(now_ns() - t0) /
                             static_cast<double>(n * n));

      // Every radar return against every expected position: the brute
      // first Task 1 pass.
      const ExpectedPositions ex(c.db);
      std::vector<std::int32_t> hits(n);
      const std::size_t returns = c.frame.size();
      t0 = now_ns();
      for (std::size_t r = 0; r < returns; ++r) {
        run.fold(kern::box_test_batch(box_kernel, ex.x.data(), ex.y.data(), n,
                                      nullptr, c.frame.rx[r], c.frame.ry[r],
                                      half_nm, hits.data(), nullptr));
      }
      box_ns_lane.push_back(static_cast<double>(now_ns() - t0) /
                            static_cast<double>(returns * n));
    }
    run.metric("core.kern.gather_us", median(gather_ns) * 1e-3, "us");
    run.metric("core.kern.band_ns_per_lane", median(band_ns_lane), "ns");
    run.metric("core.kern.box_ns_per_lane", median(box_ns_lane), "ns");
  });

  run.probe("core.spatial", [&] {
    std::vector<double> grid_ns;
    std::vector<double> grid_cands;
    std::vector<double> swept_ns;
    std::vector<double> swept_cands;
    std::vector<double> part_ns;
    std::vector<double> halo;
    for (const Capture& c : captures) {
      const ExpectedPositions ex(c.db);
      // Task 1's grid over expected positions, queried with each return's
      // first-pass box.
      spatial::UniformGrid2D grid;
      grid_ns.push_back(median_ns(5, [&] {
        grid.build(ex.x, ex.y, {}, /*cell_hint_nm=*/2.0 * half_nm);
      }));
      std::uint64_t cands = 0;
      for (std::size_t r = 0; r < c.frame.size(); ++r) {
        grid.for_each_in_box(c.frame.rx[r] - half_nm, c.frame.rx[r] + half_nm,
                             c.frame.ry[r] - half_nm, c.frame.ry[r] + half_nm,
                             [&](std::size_t) { ++cands; });
      }
      grid_cands.push_back(static_cast<double>(cands) /
                           static_cast<double>(c.frame.size()));

      // Tasks 2+3's swept index, queried for every aircraft.
      spatial::SweptIndex swept;
      swept_ns.push_back(median_ns(5, [&] {
        atm::tasks::reference::build_swept_index(c.db, cfg.task23, swept);
      }));
      std::uint64_t swept_total = 0;
      for (std::size_t i = 0; i < c.db.size(); ++i) {
        swept.for_each_candidate(c.db.x[i], c.db.y[i], c.db.alt[i],
                                 std::hypot(c.db.dx[i], c.db.dy[i]),
                                 [&](std::size_t) {
                                   ++swept_total;
                                   return false;
                                 });
      }
      swept_cands.push_back(static_cast<double>(swept_total) /
                            static_cast<double>(c.db.size()));

      // Task 1's sector partition (first-pass halo reach).
      spatial::SectorPartition part;
      part_ns.push_back(median_ns(5, [&] {
        part.build(ex.x, ex.y, {}, /*halo_reach_nm=*/half_nm,
                   cfg.task1.sectors_per_axis);
      }));
      halo.push_back(static_cast<double>(part.halo_total()) /
                     static_cast<double>(part.size()));
      run.fold(cands + swept_total + part.halo_total());
    }
    run.metric("core.spatial.grid_build_us", median(grid_ns) * 1e-3, "us");
    run.metric("core.spatial.grid_candidates_per_query", median(grid_cands),
               "count");
    run.metric("core.spatial.swept_build_us", median(swept_ns) * 1e-3, "us");
    run.metric("core.spatial.swept_candidates_per_aircraft",
               median(swept_cands), "count");
    run.metric("core.spatial.partition_build_us", median(part_ns) * 1e-3,
               "us");
    run.metric("core.spatial.halo_ratio", median(halo), "ratio");
  });

  run.probe("mimd", [&] {
    atm::mimd::ThreadPool pool(cfg.pool_workers);
    const std::function<void(std::size_t)> empty = [](std::size_t) {};
    pool.parallel_for(0, 1, 1, empty);  // wake every worker once
    const double fork_join_ns =
        median_ns(201, [&] { pool.parallel_for(0, 1, 1, empty); });
    const std::size_t n = cfg.aircraft;
    const double dispatch_ns =
        median_ns(21, [&] { pool.parallel_for(0, n, 64, empty); });
    run.metric("mimd.fork_join_us", fork_join_ns * 1e-3, "us");
    run.metric("mimd.dispatch_ns_per_index",
               dispatch_ns / static_cast<double>(n), "ns");
  });

  return run.take();
}

}  // namespace bench_atm
