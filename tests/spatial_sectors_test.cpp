// SectorPartition unit tests: the ownership invariants (every inserted
// point has exactly one owner; the owned lists are a disjoint cover) and
// the exactness contract (every point within halo reach of a query is a
// candidate of the query's sector — including queries that were never
// inserted or lie far outside the field, which is how Task 1 maps
// dropout radar returns). The sharded executives' correctness proof
// rests entirely on these properties; the end-to-end half lives in
// sector_equivalence_test.cpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "src/core/rng.hpp"
#include "src/core/spatial/sectors.hpp"

namespace atm::core::spatial {
namespace {

struct Cloud {
  std::vector<double> xs, ys;
};

Cloud random_cloud(std::size_t n, std::uint64_t seed, double half_nm) {
  Cloud c;
  c.xs.reserve(n);
  c.ys.reserve(n);
  core::Rng rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    c.xs.push_back(rng.uniform(-half_nm, half_nm));
    c.ys.push_back(rng.uniform(-half_nm, half_nm));
  }
  return c;
}

TEST(SectorPartition, OwnedListsAreADisjointCoverOfTheInput) {
  const Cloud c = random_cloud(500, 0x5EC7, 128.0);
  SectorPartition part;
  part.build(c.xs, c.ys, {}, /*halo_reach_nm=*/2.0, /*sectors_per_axis=*/4);

  ASSERT_EQ(part.sectors_per_axis(), 4);
  ASSERT_EQ(part.sector_count(), 16u);
  EXPECT_EQ(part.size(), c.xs.size());

  std::vector<int> seen(c.xs.size(), 0);
  for (std::size_t s = 0; s < part.sector_count(); ++s) {
    for (const std::int32_t id : part.owned(s)) {
      ASSERT_GE(id, 0);
      ASSERT_LT(static_cast<std::size_t>(id), c.xs.size());
      ++seen[static_cast<std::size_t>(id)];
      EXPECT_EQ(part.owner_of(static_cast<std::size_t>(id)),
                static_cast<int>(s));
      EXPECT_EQ(part.sector_of(c.xs[static_cast<std::size_t>(id)],
                               c.ys[static_cast<std::size_t>(id)]),
                static_cast<int>(s));
    }
  }
  EXPECT_TRUE(std::all_of(seen.begin(), seen.end(),
                          [](int k) { return k == 1; }))
      << "some point is owned by zero or by multiple sectors";
}

TEST(SectorPartition, MaskedOutPointsAreInvisible) {
  const Cloud c = random_cloud(200, 0xFACE, 100.0);
  std::vector<std::uint8_t> mask(c.xs.size(), 1);
  for (std::size_t i = 0; i < mask.size(); i += 3) mask[i] = 0;
  const std::size_t kept =
      static_cast<std::size_t>(std::count(mask.begin(), mask.end(), 1));

  SectorPartition part;
  part.build(c.xs, c.ys, mask, 1.0, 3);
  EXPECT_EQ(part.size(), kept);
  for (std::size_t i = 0; i < mask.size(); ++i) {
    if (mask[i] == 0) {
      EXPECT_EQ(part.owner_of(i), -1);
    } else {
      EXPECT_GE(part.owner_of(i), 0);
    }
  }
  for (std::size_t s = 0; s < part.sector_count(); ++s) {
    for (const std::int32_t id : part.candidates(s)) {
      EXPECT_NE(mask[static_cast<std::size_t>(id)], 0)
          << "masked-out point leaked into a candidate list";
    }
  }
}

TEST(SectorPartition, CoversOracleHoldsForRandomQueries) {
  // The exactness contract, checked by the partition's own debug oracle
  // at several reaches and sector counts: queries both inside and well
  // outside the point cloud's bounding box.
  const Cloud c = random_cloud(400, 0xC0FFEE, 128.0);
  for (const int axis : {1, 2, 4, 7}) {
    for (const double reach : {0.5, 2.0, 17.0}) {
      SectorPartition part;
      part.build(c.xs, c.ys, {}, reach, axis);
      core::Rng rng(0xD1CE + static_cast<std::uint64_t>(axis));
      for (int q = 0; q < 200; ++q) {
        const double px = rng.uniform(-200.0, 200.0);
        const double py = rng.uniform(-200.0, 200.0);
        EXPECT_TRUE(part.covers(px, py, c.xs, c.ys))
            << "axis=" << axis << " reach=" << reach << " query=(" << px
            << ", " << py << ")";
      }
    }
  }
}

TEST(SectorPartition, BoundaryStraddlingPairsSeeEachOther) {
  // Two points hugging a sector boundary from opposite sides, closer
  // than the halo reach: each must appear in the other owner's candidate
  // list, or a sharded pair scan would silently drop the pair.
  std::vector<double> xs, ys;
  // Spread anchor points so the 2x2 partition's midline is near 0.
  xs = {-100.0, 100.0, -0.05, 0.05};
  ys = {-100.0, 100.0, 0.2, 0.2};
  SectorPartition part;
  part.build(xs, ys, {}, /*halo_reach_nm=*/1.0, /*sectors_per_axis=*/2);

  const int left = part.sector_of(xs[2], ys[2]);
  const int right = part.sector_of(xs[3], ys[3]);
  ASSERT_NE(left, right) << "fixture no longer straddles a boundary";

  const auto contains = [&](std::size_t s, std::int32_t id) {
    const auto span = part.candidates(s);
    return std::find(span.begin(), span.end(), id) != span.end();
  };
  EXPECT_TRUE(contains(static_cast<std::size_t>(left), 3))
      << "right-hand point missing from left sector's halo";
  EXPECT_TRUE(contains(static_cast<std::size_t>(right), 2))
      << "left-hand point missing from right sector's halo";
  EXPECT_GE(part.halo_total(), 2u);
}

TEST(SectorPartition, FarOutOfBoundsQueriesClampIntoEdgeSectors) {
  // Task 1 maps dropout radar returns (coordinate 1e6) through
  // sector_of; they must clamp into a valid sector and keep the covers
  // contract (vacuously — nothing is within reach of 1e6).
  const Cloud c = random_cloud(100, 0xABBA, 128.0);
  SectorPartition part;
  part.build(c.xs, c.ys, {}, 2.0, 4);
  const int s = part.sector_of(1.0e6, 1.0e6);
  EXPECT_GE(s, 0);
  EXPECT_LT(s, static_cast<int>(part.sector_count()));
  EXPECT_TRUE(part.covers(1.0e6, 1.0e6, c.xs, c.ys));
}

TEST(SectorPartition, NonFiniteAndHugeCoordinatesClampIntoEdgeSectors) {
  // NaN, +-inf and 1e300 points and queries (a corrupt radar return
  // reaches sector_of through Task 1) used to hit an undefined int cast.
  // Every point still gets exactly one in-range owner, every query a
  // valid sector, and the covers contract holds.
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<double> wild{std::numeric_limits<double>::quiet_NaN(),
                                 inf, -inf, 1e300, -1e300};
  Cloud c = random_cloud(80, 0xF00D, 128.0);
  for (const double w : wild) {
    c.xs.insert(c.xs.end(), {w, 5.0, w});
    c.ys.insert(c.ys.end(), {-5.0, w, w});
  }
  std::vector<double> queries = wild;
  queries.insert(queries.end(), {0.0, 100.0});
  for (const int axis : {1, 4}) {
    SectorPartition part;
    part.build(c.xs, c.ys, {}, /*halo_reach_nm=*/3.0, axis);
    std::size_t owned = 0;
    for (std::size_t s = 0; s < part.sector_count(); ++s) {
      owned += part.owned(s).size();
    }
    EXPECT_EQ(owned, c.xs.size());
    for (std::size_t i = 0; i < c.xs.size(); ++i) {
      EXPECT_GE(part.owner_of(i), 0);
      EXPECT_LT(part.owner_of(i), static_cast<int>(part.sector_count()));
    }
    for (const double qx : queries) {
      for (const double qy : queries) {
        const int s = part.sector_of(qx, qy);
        EXPECT_GE(s, 0);
        EXPECT_LT(s, static_cast<int>(part.sector_count()));
        EXPECT_TRUE(part.covers(qx, qy, c.xs, c.ys))
            << "axis=" << axis << " query=(" << qx << ", " << qy << ")";
      }
    }
  }
}

TEST(SectorPartition, SingleSectorOwnsAndListsEverything) {
  const Cloud c = random_cloud(64, 0x1, 50.0);
  SectorPartition part;
  part.build(c.xs, c.ys, {}, 2.0, 1);
  EXPECT_EQ(part.sector_count(), 1u);
  EXPECT_EQ(part.owned(0).size(), c.xs.size());
  EXPECT_EQ(part.candidates(0).size(), c.xs.size());
  EXPECT_EQ(part.halo_total(), 0u);
}

TEST(SectorPartition, RebuildReusesBuffersAndStaysConsistent) {
  // The executives rebuild the partition every pass/period with changing
  // reaches and sector counts; stale state from a previous build must
  // never leak.
  SectorPartition part;
  const Cloud big = random_cloud(300, 0x77, 128.0);
  part.build(big.xs, big.ys, {}, 4.0, 6);
  const Cloud small = random_cloud(40, 0x78, 16.0);
  part.build(small.xs, small.ys, {}, 1.0, 2);
  EXPECT_EQ(part.size(), small.xs.size());
  EXPECT_EQ(part.sector_count(), 4u);
  std::size_t owned = 0;
  for (std::size_t s = 0; s < part.sector_count(); ++s) {
    owned += part.owned(s).size();
  }
  EXPECT_EQ(owned, small.xs.size());
  core::Rng rng(0x79);
  for (int q = 0; q < 100; ++q) {
    EXPECT_TRUE(part.covers(rng.uniform(-20.0, 20.0),
                            rng.uniform(-20.0, 20.0), small.xs, small.ys));
  }
}

TEST(ShardMode, NamesRoundTrip) {
  EXPECT_EQ(to_string(ShardMode::kNone), "none");
  EXPECT_EQ(to_string(ShardMode::kSectors), "sectors");
  ASSERT_TRUE(parse_shard_mode("none").has_value());
  EXPECT_EQ(*parse_shard_mode("none"), ShardMode::kNone);
  ASSERT_TRUE(parse_shard_mode("sectors").has_value());
  EXPECT_EQ(*parse_shard_mode("sectors"), ShardMode::kSectors);
  EXPECT_FALSE(parse_shard_mode("grid").has_value());
  EXPECT_FALSE(parse_shard_mode("").has_value());
  EXPECT_FALSE(parse_shard_mode("Sectors").has_value());
}

}  // namespace
}  // namespace atm::core::spatial
