// Unit and property tests for the spatial broadphase subsystem
// (src/core/spatial/): the uniform grid behind Task 1 correlation and the
// swept index behind Tasks 2+3 pruning. The load-bearing property in both
// cases is the exactness contract — every point the exact test would
// accept is enumerated, each inserted id at most once — because the task
// layers rely on it for outcome equivalence with brute force.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <set>
#include <vector>

#include "src/core/rng.hpp"
#include "src/core/spatial/broadphase.hpp"
#include "src/core/spatial/swept_index.hpp"
#include "src/core/spatial/uniform_grid.hpp"

namespace atm::core::spatial {
namespace {

/// Coordinates a corrupt radar return or table row can carry: the int
/// casts behind every cell lookup used to be undefined on all of them.
std::vector<double> wild_values() {
  const double inf = std::numeric_limits<double>::infinity();
  return {std::numeric_limits<double>::quiet_NaN(), inf, -inf, 1e300,
          -1e300};
}

TEST(BroadphaseMode, RoundTripsThroughStrings) {
  EXPECT_EQ(to_string(BroadphaseMode::kBruteForce), "brute");
  EXPECT_EQ(to_string(BroadphaseMode::kGrid), "grid");
  EXPECT_EQ(parse_broadphase("brute"), BroadphaseMode::kBruteForce);
  EXPECT_EQ(parse_broadphase("brute-force"), BroadphaseMode::kBruteForce);
  EXPECT_EQ(parse_broadphase("bruteforce"), BroadphaseMode::kBruteForce);
  EXPECT_EQ(parse_broadphase("grid"), BroadphaseMode::kGrid);
  EXPECT_FALSE(parse_broadphase("octree").has_value());
  EXPECT_FALSE(parse_broadphase("").has_value());
}

// --- UniformGrid2D ---------------------------------------------------------

TEST(UniformGrid2D, EmptyBuildEnumeratesNothing) {
  UniformGrid2D grid;
  grid.build({}, {}, {}, 1.0);
  EXPECT_TRUE(grid.empty());
  int visits = 0;
  grid.for_each_in_box(-10.0, 10.0, -10.0, 10.0, [&](std::size_t) {
    ++visits;
  });
  EXPECT_EQ(visits, 0);
}

TEST(UniformGrid2D, AllMaskedOutBehavesLikeEmpty) {
  const std::vector<double> xs{0.0, 1.0}, ys{0.0, 1.0};
  const std::vector<std::uint8_t> mask{0, 0};
  UniformGrid2D grid;
  grid.build(xs, ys, mask, 1.0);
  EXPECT_TRUE(grid.empty());
}

TEST(UniformGrid2D, BoxQueryIsSupersetOfExactMatchesEachIdOnce) {
  Rng rng(2024);
  for (int round = 0; round < 20; ++round) {
    const std::size_t n = 1 + static_cast<std::size_t>(rng.uniform_int(0, 299));
    std::vector<double> xs(n), ys(n);
    std::vector<std::uint8_t> mask(n);
    for (std::size_t i = 0; i < n; ++i) {
      xs[i] = rng.uniform(-128.0, 128.0);
      ys[i] = rng.uniform(-128.0, 128.0);
      mask[i] = rng.uniform() < 0.7 ? 1 : 0;
    }
    UniformGrid2D grid;
    grid.build(xs, ys, mask, rng.uniform(0.1, 8.0));

    for (int q = 0; q < 25; ++q) {
      const double cx = rng.uniform(-140.0, 140.0);
      const double cy = rng.uniform(-140.0, 140.0);
      const double half = rng.uniform(0.05, 20.0);
      std::multiset<std::size_t> seen;
      grid.for_each_in_box(cx - half, cx + half, cy - half, cy + half,
                           [&](std::size_t id) { seen.insert(id); });
      for (std::size_t i = 0; i < n; ++i) {
        const bool inside = mask[i] != 0 && std::fabs(xs[i] - cx) < half &&
                            std::fabs(ys[i] - cy) < half;
        const std::size_t count = seen.count(i);
        EXPECT_LE(count, 1u) << "id " << i << " enumerated twice";
        if (inside) {
          EXPECT_EQ(count, 1u)
              << "id " << i << " inside the box but not enumerated";
        }
        if (mask[i] == 0) {
          EXPECT_EQ(count, 0u) << "masked id enumerated";
        }
      }
    }
  }
}

TEST(UniformGrid2D, SinglePointAndDegenerateBoundsWork) {
  const std::vector<double> xs{3.5}, ys{-7.25};
  UniformGrid2D grid;
  grid.build(xs, ys, {}, 1.0);
  EXPECT_EQ(grid.size(), 1u);
  int visits = 0;
  grid.for_each_in_box(3.0, 4.0, -8.0, -7.0, [&](std::size_t id) {
    EXPECT_EQ(id, 0u);
    ++visits;
  });
  EXPECT_EQ(visits, 1);
}

TEST(UniformGrid2D, FarOutOfBoundsQueryClampsIntoEdgeCells) {
  // The Task-1 dropout sentinel puts a radar at 1e6 nm; the query must
  // clamp, enumerate only edge-cell points, and never crash.
  std::vector<double> xs, ys;
  for (int i = 0; i < 32; ++i) {
    xs.push_back(static_cast<double>(i));
    ys.push_back(0.0);
  }
  UniformGrid2D grid;
  grid.build(xs, ys, {}, 2.0);
  std::size_t visits = 0;
  grid.for_each_in_box(1e6 - 0.5, 1e6 + 0.5, -0.5, 0.5,
                       [&](std::size_t) { ++visits; });
  // Candidates (if any) come from the right edge cells only; the exact
  // test would reject all of them.
  EXPECT_LE(visits, grid.size());
}

TEST(UniformGrid2D, NonFiniteAndHugeCoordinatesClampIntoEdgeCells) {
  std::vector<double> xs, ys;
  for (int i = 0; i < 24; ++i) {
    xs.push_back(static_cast<double>(i));
    ys.push_back(0.5 * static_cast<double>(i));
  }
  for (const double w : wild_values()) {
    xs.insert(xs.end(), {w, 4.0, w});
    ys.insert(ys.end(), {3.0, w, w});
  }
  UniformGrid2D grid;
  grid.build(xs, ys, {}, 2.0);
  ASSERT_EQ(grid.size(), xs.size());

  std::vector<double> queries = wild_values();
  queries.insert(queries.end(), {0.0, 7.5, 23.0});
  for (const double qx : queries) {
    for (const double qy : queries) {
      std::vector<int> seen(xs.size(), 0);
      grid.for_each_in_box(qx - 1.0, qx + 1.0, qy - 1.0, qy + 1.0,
                           [&](std::size_t id) {
                             ASSERT_LT(id, xs.size());
                             ++seen[id];
                           });
      for (std::size_t i = 0; i < xs.size(); ++i) {
        EXPECT_LE(seen[i], 1) << "id " << i << " enumerated twice";
        // The exactness contract: every point inside the box (a
        // comparison NaN or inf - inf never passes) is enumerated.
        if (std::fabs(xs[i] - qx) <= 1.0 && std::fabs(ys[i] - qy) <= 1.0) {
          EXPECT_EQ(seen[i], 1) << "point " << i << " pruned from query ("
                                << qx << ", " << qy << ")";
        }
      }
    }
  }
}

TEST(UniformGrid2D, RebuildReusesCleanState) {
  UniformGrid2D grid;
  const std::vector<double> xs1{0.0, 1.0, 2.0}, ys1{0.0, 0.0, 0.0};
  grid.build(xs1, ys1, {}, 0.5);
  EXPECT_EQ(grid.size(), 3u);
  const std::vector<double> xs2{5.0}, ys2{5.0};
  grid.build(xs2, ys2, {}, 0.5);
  EXPECT_EQ(grid.size(), 1u);
  int visits = 0;
  grid.for_each_in_box(4.0, 6.0, 4.0, 6.0, [&](std::size_t id) {
    EXPECT_EQ(id, 0u);
    ++visits;
  });
  EXPECT_EQ(visits, 1);
}

// --- SweptIndex ------------------------------------------------------------

struct Fleet {
  std::vector<double> x, y, dx, dy, alt;
  [[nodiscard]] std::size_t size() const { return x.size(); }
};

Fleet random_fleet(Rng& rng, std::size_t n, double alt_lo, double alt_hi) {
  Fleet f;
  f.x.resize(n);
  f.y.resize(n);
  f.dx.resize(n);
  f.dy.resize(n);
  f.alt.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    f.x[i] = rng.uniform(-128.0, 128.0);
    f.y[i] = rng.uniform(-128.0, 128.0);
    f.dx[i] = rng.uniform(-0.09, 0.09);  // <= ~600 knots in nm/period
    f.dy[i] = rng.uniform(-0.09, 0.09);
    f.alt[i] = rng.uniform(alt_lo, alt_hi);
  }
  return f;
}

/// The index's documented guarantee, checked directly: any j whose
/// altitude is inside the gate of i and whose current position lies
/// within band + (|v_i| + |v_j|) * horizon of i on both axes must be
/// enumerated. (Any pair the altitude gate + Batcher test can accept
/// satisfies this, for every trial rotation of i's velocity.)
void expect_superset(const SweptIndex& index, const Fleet& f,
                     const SweptIndexParams& p) {
  for (std::size_t i = 0; i < f.size(); ++i) {
    const double speed_i = std::hypot(f.dx[i], f.dy[i]);
    std::multiset<std::size_t> seen;
    index.for_each_candidate(f.x[i], f.y[i], f.alt[i], speed_i,
                             [&](std::size_t id) {
                               seen.insert(id);
                               return false;
                             });
    for (std::size_t j = 0; j < f.size(); ++j) {
      EXPECT_LE(seen.count(j), 1u) << "id " << j << " enumerated twice";
      if (j == i) continue;
      if (std::fabs(f.alt[i] - f.alt[j]) >= p.altitude_gate_feet) continue;
      const double speed_j = std::hypot(f.dx[j], f.dy[j]);
      const double reach =
          p.band_nm + (speed_i + speed_j) * p.horizon_periods;
      if (std::fabs(f.x[i] - f.x[j]) < reach &&
          std::fabs(f.y[i] - f.y[j]) < reach) {
        EXPECT_EQ(seen.count(j), 1u)
            << "reachable pair (" << i << ", " << j << ") pruned";
      }
    }
  }
}

TEST(SweptIndex, EnumeratesSupersetOfReachablePairs) {
  Rng rng(77);
  SweptIndexParams p;
  p.horizon_periods = 2400.0;  // the paper's 20 minutes
  p.band_nm = 4.0;
  p.altitude_gate_feet = 1000.0;
  for (int round = 0; round < 6; ++round) {
    const Fleet f = random_fleet(rng, 120, 0.0, 40000.0);
    SweptIndex index;
    index.build(f.x, f.y, f.dx, f.dy, f.alt, p);
    expect_superset(index, f, p);
  }
}

TEST(SweptIndex, StratifiedAltitudesStillCoverAdjacentSlabs) {
  // Flight-level stratified traffic (the dense-en-route shape): aircraft
  // within one gate of each other can sit in adjacent slabs.
  Rng rng(91);
  SweptIndexParams p;
  p.horizon_periods = 3600.0;
  p.band_nm = 4.0;
  p.altitude_gate_feet = 1000.0;
  Fleet f = random_fleet(rng, 150, 29000.0, 41000.0);
  for (std::size_t i = 0; i < f.size(); ++i) {
    // Snap to 1000 ft flight levels with +-200 ft jitter.
    f.alt[i] = std::round(f.alt[i] / 1000.0) * 1000.0 +
               rng.uniform(-200.0, 200.0);
  }
  SweptIndex index;
  index.build(f.x, f.y, f.dx, f.dy, f.alt, p);
  expect_superset(index, f, p);
}

TEST(SweptIndex, NonPositiveGateDegeneratesToOneSlab) {
  Rng rng(5);
  SweptIndexParams p;
  p.horizon_periods = 100.0;
  p.band_nm = 2.0;
  p.altitude_gate_feet = 0.0;
  const Fleet f = random_fleet(rng, 40, 0.0, 40000.0);
  SweptIndex index;
  index.build(f.x, f.y, f.dx, f.dy, f.alt, p);
  EXPECT_EQ(index.slabs(), 1);
}

TEST(SweptIndex, EmptyBuildEnumeratesNothing) {
  SweptIndex index;
  index.build({}, {}, {}, {}, {}, SweptIndexParams{});
  EXPECT_TRUE(index.empty());
  int visits = 0;
  index.for_each_candidate(0.0, 0.0, 0.0, 0.1, [&](std::size_t) {
    ++visits;
    return false;
  });
  EXPECT_EQ(visits, 0);
}

TEST(SweptIndex, VisitorCanStopEarly) {
  Rng rng(13);
  SweptIndexParams p;
  p.horizon_periods = 2400.0;
  p.band_nm = 4.0;
  p.altitude_gate_feet = 1000.0;
  const Fleet f = random_fleet(rng, 60, 9000.0, 10000.0);
  SweptIndex index;
  index.build(f.x, f.y, f.dx, f.dy, f.alt, p);
  int visits = 0;
  index.for_each_candidate(f.x[0], f.y[0], f.alt[0], 0.05,
                           [&](std::size_t) { return ++visits >= 3; });
  EXPECT_LE(visits, 3);
}

TEST(SweptIndex, RunsConcatenateToCandidateOrder) {
  Rng rng(31);
  SweptIndexParams p;
  p.horizon_periods = 120.0;  // short: a real xy grid, several runs
  p.band_nm = 3.0;
  p.altitude_gate_feet = 1000.0;
  const Fleet f = random_fleet(rng, 400, 1000.0, 12000.0);
  SweptIndex index;
  index.build(f.x, f.y, f.dx, f.dy, f.alt, p);
  ASSERT_GT(index.cols(), 1) << "grid collapsed; runs are trivial";

  // order() is a permutation of the input slots.
  std::vector<std::int32_t> sorted(index.order().begin(),
                                   index.order().end());
  std::sort(sorted.begin(), sorted.end());
  std::vector<std::int32_t> iota(f.size());
  std::iota(iota.begin(), iota.end(), 0);
  ASSERT_EQ(sorted, iota);

  std::size_t multi_run_queries = 0;
  for (std::size_t i = 0; i < f.size(); ++i) {
    const double speed = std::hypot(f.dx[i], f.dy[i]);
    std::vector<std::size_t> by_id;
    index.for_each_candidate(f.x[i], f.y[i], f.alt[i], speed,
                             [&](std::size_t id) {
                               by_id.push_back(id);
                               return false;
                             });
    std::vector<std::size_t> by_run;
    std::size_t runs = 0;
    std::size_t prev_end = 0;
    index.for_each_run(f.x[i], f.y[i], f.alt[i], speed,
                       [&](std::size_t begin, std::size_t end) {
                         EXPECT_LT(begin, end) << "empty run reported";
                         EXPECT_GE(begin, prev_end) << "runs overlap";
                         EXPECT_LE(end, index.size());
                         prev_end = end;
                         ++runs;
                         for (std::size_t k = begin; k < end; ++k) {
                           by_run.push_back(static_cast<std::size_t>(
                               index.order()[k]));
                         }
                         return false;
                       });
    ASSERT_EQ(by_run, by_id) << "aircraft " << i;
    multi_run_queries += runs > 1 ? 1u : 0u;
  }
  EXPECT_GT(multi_run_queries, 0u) << "every query was a single run";
}

TEST(SweptIndex, RunVisitorCanStopEarly) {
  Rng rng(37);
  SweptIndexParams p;
  p.horizon_periods = 120.0;
  p.band_nm = 3.0;
  p.altitude_gate_feet = 1000.0;
  const Fleet f = random_fleet(rng, 200, 1000.0, 12000.0);
  SweptIndex index;
  index.build(f.x, f.y, f.dx, f.dy, f.alt, p);
  int runs = 0;
  index.for_each_run(f.x[0], f.y[0], f.alt[0], 0.05,
                     [&](std::size_t, std::size_t) { return ++runs >= 1; });
  EXPECT_EQ(runs, 1);
}

TEST(SweptIndex, NonFiniteAndHugeCoordinatesStayInBounds) {
  Rng rng(41);
  SweptIndexParams p;
  p.horizon_periods = 120.0;
  p.band_nm = 3.0;
  p.altitude_gate_feet = 1000.0;
  Fleet f = random_fleet(rng, 60, 1000.0, 12000.0);
  const std::size_t tame = f.size();
  for (const double w : wild_values()) {
    // One wild field per row: x, y, alt, then both velocity components.
    for (int field = 0; field < 4; ++field) {
      f.x.push_back(field == 0 ? w : 10.0);
      f.y.push_back(field == 1 ? w : -10.0);
      f.alt.push_back(field == 2 ? w : 5000.0);
      f.dx.push_back(field == 3 ? w : 0.01);
      f.dy.push_back(field == 3 ? w : 0.0);
    }
  }
  SweptIndex index;
  index.build(f.x, f.y, f.dx, f.dy, f.alt, p);
  ASSERT_EQ(index.size(), f.size());

  std::vector<double> queries = wild_values();
  queries.push_back(0.0);
  for (std::size_t i = 0; i < f.size() + queries.size(); ++i) {
    const bool row = i < f.size();
    const double q = row ? 0.0 : queries[i - f.size()];
    const double xi = row ? f.x[i] : q;
    const double yi = row ? f.y[i] : q;
    const double alti = row ? f.alt[i] : q;
    const double speed = row ? std::hypot(f.dx[i], f.dy[i]) : 0.05;
    std::vector<int> seen(f.size(), 0);
    index.for_each_candidate(xi, yi, alti, speed, [&](std::size_t id) {
      EXPECT_LT(id, f.size());
      if (id < f.size()) ++seen[id];
      return false;
    });
    for (std::size_t j = 0; j < f.size(); ++j) {
      EXPECT_LE(seen[j], 1) << "id " << j << " enumerated twice";
    }
    // Exactness for the tame rows, whatever else the index holds.
    if (!row || i >= tame) continue;
    for (std::size_t j = 0; j < tame; ++j) {
      const double speed_j = std::hypot(f.dx[j], f.dy[j]);
      const double reach = p.band_nm + (speed + speed_j) * p.horizon_periods;
      if (j != i && std::fabs(alti - f.alt[j]) < p.altitude_gate_feet &&
          std::fabs(xi - f.x[j]) < reach && std::fabs(yi - f.y[j]) < reach) {
        EXPECT_EQ(seen[j], 1) << "reachable pair (" << i << ", " << j
                              << ") pruned";
      }
    }
  }
}

}  // namespace
}  // namespace atm::core::spatial
