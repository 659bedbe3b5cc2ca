// Tests for the thread pool and the Xeon cost model (src/mimd).
#include "src/mimd/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <vector>

#include "src/mimd/xeon_model.hpp"

namespace atm::mimd {
namespace {

TEST(ThreadPool, RunsEveryIterationExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(10000);
  pool.parallel_for(0, hits.size(), 16, [&](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, EmptyRangeIsNoop) {
  ThreadPool pool(2);
  int calls = 0;
  pool.parallel_for(5, 5, 8, [&](std::size_t) { ++calls; });
  pool.parallel_for(7, 3, 8, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ThreadPool, SupportsNonZeroBegin) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(100);
  pool.parallel_for(40, 100, 7, [&](std::size_t i) {
    hits[i].fetch_add(1);
  });
  for (std::size_t i = 0; i < 40; ++i) EXPECT_EQ(hits[i].load(), 0);
  for (std::size_t i = 40; i < 100; ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(ThreadPool, SequentialJobsReuseWorkers) {
  ThreadPool pool(4);
  std::atomic<long long> sum{0};
  for (int round = 0; round < 20; ++round) {
    pool.parallel_for(0, 1000, 32, [&](std::size_t i) {
      sum.fetch_add(static_cast<long long>(i), std::memory_order_relaxed);
    });
  }
  EXPECT_EQ(sum.load(), 20LL * 999 * 1000 / 2);
}

TEST(ThreadPool, SingleWorkerStillCompletes) {
  ThreadPool pool(1);
  std::atomic<int> count{0};
  pool.parallel_for(0, 100, 1, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, ChunkZeroIsClampedToOne) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  pool.parallel_for(0, 50, 0, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 50);
}

TEST(XeonModel, DeterministicPartScalesWithWork) {
  const XeonModel model(paper_xeon_spec());
  WorkCounters small{.items = 1000, .inner_ops = 1'000'000,
                     .locked_ops = 1'000'000, .parallel_regions = 2};
  WorkCounters big = small;
  big.inner_ops *= 16;
  big.locked_ops *= 16;
  EXPECT_GT(model.deterministic_ms(big),
            10.0 * model.deterministic_ms(small));
}

TEST(XeonModel, ContentionGrowsWithItems) {
  const XeonModel model(paper_xeon_spec());
  WorkCounters few{.items = 1000, .inner_ops = 0, .locked_ops = 1'000'000,
                   .parallel_regions = 0};
  WorkCounters many = few;
  many.items = 16000;
  EXPECT_GT(model.deterministic_ms(many), model.deterministic_ms(few));
}

TEST(XeonModel, JitterInflatesButNeverDeflates) {
  const XeonModel model(paper_xeon_spec());
  const WorkCounters work{.items = 4000, .inner_ops = 16'000'000,
                          .locked_ops = 16'000'000, .parallel_regions = 4};
  const double base = model.deterministic_ms(work);
  core::Rng rng(1234);
  for (int i = 0; i < 200; ++i) {
    const double t = model.model_ms(work, rng);
    EXPECT_GE(t, base);
    EXPECT_LE(t, base * (1.0 + model.spec().jitter_frac +
                         model.spec().spike_frac) + 1e-9);
  }
}

TEST(XeonModel, JitterIsNondeterministicAcrossSeeds) {
  const XeonModel model(paper_xeon_spec());
  const WorkCounters work{.items = 4000, .inner_ops = 16'000'000,
                          .locked_ops = 16'000'000, .parallel_regions = 4};
  core::Rng a(1), b(2);
  EXPECT_NE(model.model_ms(work, a), model.model_ms(work, b));
}

TEST(XeonModel, BarrierCostCountsParallelRegions) {
  const XeonModel model(paper_xeon_spec());
  WorkCounters none{.items = 0, .inner_ops = 0, .locked_ops = 0,
                    .parallel_regions = 0};
  WorkCounters many = none;
  many.parallel_regions = 100;
  EXPECT_DOUBLE_EQ(model.deterministic_ms(none), 0.0);
  EXPECT_NEAR(model.deterministic_ms(many),
              100 * model.spec().barrier_us * 1e-3, 1e-9);
}

}  // namespace
}  // namespace atm::mimd
