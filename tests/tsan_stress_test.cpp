// Concurrency stress surface for ThreadSanitizer.
//
// These tests exist to give TSan (and the other sanitizers) dense,
// adversarial interleavings over every shared-memory structure in the
// MIMD execution path: the dynamically scheduled thread pool, the MIMD
// backend's full task set on the shared flight database (which takes no
// lock on task data), and concurrent trace-sink emission. They also
// assert functional results, so under a plain build they still verify
// that contended execution loses no updates.
//
// Keep iteration counts modest: TSan multiplies runtime ~5-15x and the
// TSan CI job runs this file on every push.
#include <gtest/gtest.h>

#include <atomic>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/airfield/radar.hpp"
#include "src/airfield/setup.hpp"
#include "src/airfield/towers.hpp"
#include "src/atm/extended/sporadic.hpp"
#include "src/atm/mimd_backend.hpp"
#include "src/atm/reference_backend.hpp"
#include "src/atm/scenarios.hpp"
#include "src/core/rng.hpp"
#include "src/core/spatial/broadphase.hpp"
#include "src/core/sync/mutex.hpp"
#include "src/mimd/thread_pool.hpp"
#include "src/obs/jsonl_sink.hpp"
#include "src/obs/trace.hpp"

namespace atm {
namespace {

// --- sync::Mutex / sync::MutexLock ------------------------------------------

TEST(TsanStress, AnnotatedMutexGuardsPlainCounter) {
  // The same primitive the static layer proves (ATM_GUARDED_BY +
  // sync::MutexLock, see tests/static/) hammered dynamically, so the
  // compile-time and run-time race detectors cover one contract. Mixes
  // scoped locks with a manual try_lock-then-lock fallback.
  struct Guarded {
    sync::Mutex mu;
    long long value ATM_GUARDED_BY(mu) = 0;
  } counter;
  constexpr int kThreads = 8;
  constexpr int kAddsPerThread = 20000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter, t] {
      for (int i = 0; i < kAddsPerThread; ++i) {
        if ((i + t) % 3 == 0) {
          // Contend with try_lock, then fall back to a blocking lock.
          if (!counter.mu.try_lock()) counter.mu.lock();
          ++counter.value;
          counter.mu.unlock();
        } else {
          const sync::MutexLock lock(counter.mu);
          ++counter.value;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const sync::MutexLock lock(counter.mu);
  EXPECT_EQ(counter.value,
            static_cast<long long>(kThreads) * kAddsPerThread);
}

// --- mimd::ThreadPool -------------------------------------------------------

TEST(TsanStress, PoolRepeatedJobsWithSharedAccumulator) {
  mimd::ThreadPool pool(4);
  std::atomic<long long> sum{0};
  constexpr int kRounds = 50;
  constexpr std::size_t kItems = 4096;
  for (int round = 0; round < kRounds; ++round) {
    // chunk=1 maximizes claim traffic on the shared job cursor.
    pool.parallel_for(0, kItems, 1, [&](std::size_t i) {
      sum.fetch_add(static_cast<long long>(i), std::memory_order_relaxed);
    });
  }
  EXPECT_EQ(sum.load(),
            static_cast<long long>(kRounds) * kItems * (kItems - 1) / 2);
}

TEST(TsanStress, PoolConcurrentCallersAreSerializedSafely) {
  // Two caller threads race to submit jobs to one pool. The pool runs one
  // job at a time (the second submission may execute entirely on its own
  // caller thread) — what this hammers is the job registration handshake
  // and the stack-job lifetime: a worker must never touch a job object
  // after its parallel_for returned.
  mimd::ThreadPool pool(4);
  std::atomic<long long> total{0};
  constexpr std::size_t kItems = 2000;
  constexpr int kRoundsPerCaller = 25;
  auto caller = [&] {
    for (int round = 0; round < kRoundsPerCaller; ++round) {
      pool.parallel_for(0, kItems, 3, [&](std::size_t) {
        total.fetch_add(1, std::memory_order_relaxed);
      });
    }
  };
  std::thread a(caller);
  std::thread b(caller);
  a.join();
  b.join();
  EXPECT_EQ(total.load(), 2LL * kRoundsPerCaller * kItems);
}

// --- The shared flight database (MIMD backend) ------------------------------

class TsanStressMimdTasks
    : public ::testing::TestWithParam<core::spatial::BroadphaseMode> {};

TEST_P(TsanStressMimdTasks, FullTaskSetOnSharedDb) {
  // The shared-database execution of [13]: every task's workers read and
  // write one airfield::FlightDb, and no task takes a lock — each write
  // has one owner, and Task 1's coverage counts and the display's handoff
  // count are relaxed atomic adds. Drive the whole task set for a few
  // periods under both broadphase modes and cross-check every result
  // against the sequential reference on the same inputs, so TSan noise
  // can never hide a lost update. Display runs before and after the Task
  // 1 periods, so its second run counts handoffs.
  tasks::MimdBackend backend(mimd::paper_xeon_spec(), /*pool_workers=*/4);
  tasks::ReferenceBackend oracle;
  const airfield::FlightDb initial = airfield::make_airfield(600, 0xA1);
  backend.load(initial);
  oracle.load(initial);
  const auto terrain = std::make_shared<const airfield::TerrainMap>(5);
  backend.set_terrain(terrain);
  oracle.set_terrain(terrain);

  tasks::Task1Params t1;
  t1.broadphase = GetParam();
  tasks::Task23Params t23;
  t23.broadphase = GetParam();

  EXPECT_EQ(backend.run_display({}).stats, oracle.run_display({}).stats);
  core::Rng rng(0xBEEF);
  for (int period = 0; period < 4; ++period) {
    airfield::RadarFrame frame =
        backend.generate_radar(rng, {}, /*modeled_ms=*/nullptr);
    airfield::RadarFrame oracle_frame = frame;
    EXPECT_EQ(backend.run_task1(frame, t1).stats,
              oracle.run_task1(oracle_frame, t1).stats);
    EXPECT_EQ(frame.rmatch_with, oracle_frame.rmatch_with);
  }
  airfield::MultiRadarFrame multi = airfield::generate_multi_radar(
      backend.state(), airfield::make_tower_layout(0xA1), rng);
  airfield::MultiRadarFrame oracle_multi = multi;
  const tasks::MultiRadarResult rm = backend.run_multi_task1(multi, t1);
  EXPECT_GT(rm.stats.matched_aircraft, 0u);
  EXPECT_EQ(rm.stats, oracle.run_multi_task1(oracle_multi, t1).stats);
  EXPECT_EQ(multi.base.rmatch_with, oracle_multi.base.rmatch_with);
  const tasks::Task23Result r23 = backend.run_task23(t23);
  EXPECT_EQ(r23.stats.aircraft, initial.size());
  EXPECT_EQ(r23.stats, oracle.run_task23(t23).stats);
  const tasks::DisplayResult display = backend.run_display({});
  EXPECT_GT(display.stats.handoffs, 0u);
  EXPECT_EQ(display.stats, oracle.run_display({}).stats);
  core::Rng query_rng(0xD15);
  const std::vector<tasks::Query> queries = tasks::extended::make_query_batch(
      backend.state(), query_rng, {.queries_per_batch = 8});
  const tasks::SporadicResult sporadic = backend.run_sporadic(queries, {});
  const tasks::SporadicResult oracle_sporadic =
      oracle.run_sporadic(queries, {});
  EXPECT_GT(sporadic.stats.hits, 0u);
  EXPECT_EQ(sporadic.stats, oracle_sporadic.stats);
  EXPECT_EQ(sporadic.answers, oracle_sporadic.answers);
  EXPECT_EQ(backend.run_terrain({}).stats, oracle.run_terrain({}).stats);
  EXPECT_EQ(backend.run_advisory({}).stats, oracle.run_advisory({}).stats);

  const airfield::FlightDb& got = backend.state();
  const airfield::FlightDb& want = oracle.state();
  EXPECT_TRUE(got.same_flight_state(want));
  EXPECT_EQ(got.rmatch, want.rmatch);
  EXPECT_EQ(got.col, want.col);
  EXPECT_EQ(got.col_with, want.col_with);
  EXPECT_EQ(got.time_till, want.time_till);
  EXPECT_EQ(got.sector, want.sector);
  EXPECT_EQ(got.terrain_warn, want.terrain_warn);
}

TEST_P(TsanStressMimdTasks, ShardedTaskSetGathersSnapshotsConcurrently) {
  // The sector-sharded executive runs Task 1's per-sector snapshot
  // gathers racing against nothing but each other, and Tasks 2+3's pool
  // tasks over the one shared region, then commits through the pool. Drive
  // it under both broadphase modes with a live trace sink so the
  // per-sector counter emission path runs too, and cross-check outcomes
  // against the monolithic scan so TSan noise can never hide a lost
  // update.
  tasks::MimdBackend sharded(mimd::paper_xeon_spec(), /*pool_workers=*/4);
  tasks::MimdBackend mono(mimd::paper_xeon_spec(), /*pool_workers=*/4);
  const airfield::FlightDb initial = airfield::make_airfield(600, 0xA1);
  sharded.load(initial);
  mono.load(initial);
  obs::RecordingSink sink;
  sharded.set_trace_sink(&sink);

  tasks::Task1Params t1;
  t1.broadphase = GetParam();
  tasks::Task1Params t1_sharded = t1;
  t1_sharded.shard = core::spatial::ShardMode::kSectors;
  t1_sharded.sectors_per_axis = 4;
  tasks::Task23Params t23;
  t23.broadphase = GetParam();
  tasks::Task23Params t23_sharded = t23;
  t23_sharded.shard = core::spatial::ShardMode::kSectors;
  t23_sharded.sectors_per_axis = 4;

  core::Rng rng_a(0xBEEF), rng_b(0xBEEF);
  for (int period = 0; period < 4; ++period) {
    airfield::RadarFrame frame_a =
        sharded.generate_radar(rng_a, {}, /*modeled_ms=*/nullptr);
    airfield::RadarFrame frame_b =
        mono.generate_radar(rng_b, {}, /*modeled_ms=*/nullptr);
    const tasks::Task1Result ra = sharded.run_task1(frame_a, t1_sharded);
    const tasks::Task1Result rb = mono.run_task1(frame_b, t1);
    EXPECT_EQ(ra.stats.sectors, 16);
    EXPECT_EQ(ra.stats.matched, rb.stats.matched);
    EXPECT_EQ(ra.stats.updated_aircraft, rb.stats.updated_aircraft);
  }
  const tasks::Task23Result ra = sharded.run_task23(t23_sharded);
  const tasks::Task23Result rb = mono.run_task23(t23);
  EXPECT_EQ(ra.stats.sectors, 16);
  EXPECT_EQ(ra.stats.conflicts, rb.stats.conflicts);
  EXPECT_EQ(ra.stats.resolved, rb.stats.resolved);
  EXPECT_GT(sink.count(obs::EventKind::kCounter), 0u)
      << "per-sector counters were never emitted";
}

INSTANTIATE_TEST_SUITE_P(
    BothBroadphases, TsanStressMimdTasks,
    ::testing::Values(core::spatial::BroadphaseMode::kBruteForce,
                      core::spatial::BroadphaseMode::kGrid),
    [](const auto& info) {
      return info.param == core::spatial::BroadphaseMode::kGrid ? "grid"
                                                                : "brute";
    });

// --- Governed + faulted pipelines sharing one sink --------------------------

TEST(TsanStress, GovernedFaultedPipelinesShareOneSink) {
  // Two threads each drive their own governed, fault-injected MIMD
  // pipeline (thread pool inside each backend) into ONE shared recording
  // sink: governor transitions, deadline events, and per-task events all
  // interleave through the sink's mutex while the injector perturbs
  // every frame. Each run stays independently deterministic — the shared
  // sink is observability, never state.
  obs::RecordingSink sink;
  tasks::PipelineConfig cfg;
  cfg.aircraft = 300;
  cfg.major_cycles = 1;
  cfg.trace = &sink;
  cfg.governor.enabled = true;
  cfg.faults.enabled = true;
  cfg.faults.dropout_burst_probability = 0.5;
  cfg.faults.dropout_fraction = 0.25;
  cfg.faults.ghost_probability = 0.02;
  cfg.faults.stolen_time_probability = 1.0;
  cfg.faults.stolen_time_ms = 480.0;  // keep every period hot

  double end_a = 0.0;
  double end_b = 0.0;
  std::thread ta([&] {
    tasks::MimdBackend backend(mimd::paper_xeon_spec(), /*pool_workers=*/4);
    end_a = tasks::run_pipeline(backend, cfg).virtual_end_ms;
  });
  std::thread tb([&] {
    tasks::MimdBackend backend(mimd::paper_xeon_spec(), /*pool_workers=*/4);
    end_b = tasks::run_pipeline(backend, cfg).virtual_end_ms;
  });
  ta.join();
  tb.join();
  EXPECT_EQ(end_a, end_b);
  // Both governors walked the ladder and traced it into the shared sink.
  EXPECT_GE(sink.count(obs::EventKind::kGovernor), 2u);
  EXPECT_GT(sink.count(obs::EventKind::kDeadline), 0u);
}

// --- Concurrent trace-sink emission -----------------------------------------

TEST(TsanStress, RecordingSinkConcurrentEmission) {
  obs::RecordingSink sink;
  constexpr int kThreads = 4;
  constexpr int kEventsPerThread = 2000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&sink, t] {
      for (int i = 0; i < kEventsPerThread; ++i) {
        obs::TraceEvent ev;
        ev.kind = obs::EventKind::kCounter;
        ev.name = "stress";
        ev.value = static_cast<std::uint64_t>(t);
        sink.record(ev);
        if (i % 64 == 0) {
          // Concurrent reads through the counting API as well.
          (void)sink.count(obs::EventKind::kCounter);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(sink.count(obs::EventKind::kCounter, "stress"),
            static_cast<std::size_t>(kThreads) * kEventsPerThread);
}

TEST(TsanStress, JsonlSinkOkProbesRaceAgainstRecording) {
  // Regression for a latent lock-contract bug the annotation pass
  // surfaced: ok() used to read the stream's state (out_->good())
  // without the sink mutex — racy against record()'s writes whenever
  // the stream reports an error (healthy writes never touch the iostate
  // word, which is why TSan alone never caught it). ok() now takes the
  // lock (ATM_PT_GUARDED_BY(mutex_) on out_ makes the unlocked peek a
  // compile error under clang); this test pins the concurrent
  // ok()/record() interleaving and the lock-taking contract.
  std::ostringstream out;
  obs::JsonlTraceSink sink(out);
  constexpr int kMinEvents = 2000;
  constexpr int kProbes = 2000;
  std::atomic<bool> prober_done{false};
  std::thread prober([&] {
    for (int i = 0; i < kProbes; ++i) EXPECT_TRUE(sink.ok());
    prober_done.store(true, std::memory_order_release);
  });
  // Record until the prober finished (and at least kMinEvents), so the
  // two threads are guaranteed to overlap regardless of scheduling.
  int events = 0;
  while (!prober_done.load(std::memory_order_acquire) ||
         events < kMinEvents) {
    obs::TraceEvent ev;
    ev.kind = obs::EventKind::kCounter;
    ev.name = "probe";
    ev.value = static_cast<std::uint64_t>(events);
    sink.record(ev);
    ++events;
  }
  prober.join();
  sink.flush();
  EXPECT_TRUE(sink.ok());
  std::size_t lines = 0;
  std::istringstream reader(out.str());
  for (std::string line; std::getline(reader, line);) ++lines;
  EXPECT_EQ(lines, static_cast<std::size_t>(events));
}

TEST(TsanStress, JsonlSinkConcurrentEmissionKeepsLinesWhole) {
  std::ostringstream out;
  obs::JsonlTraceSink sink(out);
  constexpr int kThreads = 4;
  constexpr int kEventsPerThread = 1000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&sink, t] {
      for (int i = 0; i < kEventsPerThread; ++i) {
        obs::TraceEvent ev;
        ev.kind = obs::EventKind::kTask;
        ev.name = "task" + std::to_string(t);
        ev.modeled_ms = 0.25;
        sink.record(ev);
      }
      sink.flush();
    });
  }
  for (std::thread& t : threads) t.join();

  // Whole-line serialization: every line is exactly one {...} object.
  std::istringstream lines(out.str());
  std::string line;
  std::size_t n = 0;
  while (std::getline(lines, line)) {
    ASSERT_FALSE(line.empty());
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    EXPECT_EQ(line.find('\n'), std::string::npos);
    ++n;
  }
  EXPECT_EQ(n, static_cast<std::size_t>(kThreads) * kEventsPerThread);
}

}  // namespace
}  // namespace atm
