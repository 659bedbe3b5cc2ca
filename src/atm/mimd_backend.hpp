// The 16-core Intel Xeon (MIMD, shared-memory) backend.
//
// Executes the tasks for real on a host thread pool with dynamically
// scheduled chunks, following the shared-database design of [13]: all
// aircraft and radar records live in memory shared by every worker, and
// [13] takes a lock on every shared record it reads or writes. The
// modeled 16-core Xeon time comes from mimd::XeonModel fed with the work
// the execution actually performed:
//
//  * inner_ops  — inner-loop record accesses (each of which the [13]
//                 implementation performs under a reader lock on the
//                 shared record),
//  * locked_ops — [13]'s lock acquisitions: the reader locks above plus
//                 its write locks. No task takes a host lock on task
//                 data: every write has one owner, and each task charges
//                 [13]'s locks from its counts (sharded::ShardTelemetry
//                 for Task 1 and Tasks 2+3, docs/COST_MODELS.md §4),
//  * parallel_regions — fork/join barriers.
//
// Task 1 and Tasks 2+3 run on the host pool executor (sharded.hpp) in
// both shard modes.
//
// Scheduling jitter makes run_task* nondeterministic across differently
// seeded backends — the paper's MIMD "not predictable" property — while a
// fixed seed keeps any single configuration reproducible for tests.
#pragma once

#include "src/atm/backend.hpp"
#include "src/atm/sharded.hpp"
#include "src/mimd/thread_pool.hpp"
#include "src/mimd/xeon_model.hpp"

namespace atm::tasks {

class MimdBackend final : public Backend {
 public:
  explicit MimdBackend(mimd::XeonSpec spec = mimd::paper_xeon_spec(),
                       unsigned pool_workers = 0,
                       std::uint64_t jitter_seed = 0xC0FFEE);

  [[nodiscard]] std::string name() const override { return model_.spec().name; }
  [[nodiscard]] bool deterministic() const override { return false; }

  void load(const airfield::FlightDb& db) override;

  [[nodiscard]] const airfield::FlightDb& state() const override {
    return db_;
  }
  airfield::FlightDb& mutable_state() override { return db_; }

 private:
  Task1Result do_run_task1(airfield::RadarFrame& frame,
                           const Task1Params& params) final;
  Task23Result do_run_task23(const Task23Params& params) final;

  // Extended system (see backend.hpp): thread-pool execution over the
  // shared database, modeled through the Xeon model.
  TerrainResult do_run_terrain(const TerrainTaskParams& params) final;
  DisplayResult do_run_display(const DisplayParams& params) final;
  AdvisoryResult do_run_advisory(const AdvisoryParams& params) final;
  MultiRadarResult do_run_multi_task1(airfield::MultiRadarFrame& frame,
                                      const Task1Params& params) final;
  SporadicResult do_run_sporadic(std::span<const Query> queries,
                                 const SporadicParams& params) final;

 public:
  /// Work performed by the most recent task run (model inputs; exposed for
  /// tests and the determinism bench).
  [[nodiscard]] const mimd::WorkCounters& last_work() const {
    return last_work_;
  }

  void set_jitter_seed(std::uint64_t seed) { jitter_rng_ = core::Rng(seed); }

 private:
  /// The tail every task's work accounting shares: charge `locked_ops`
  /// of [13]'s lock acquisitions (see the file comment), keep the
  /// counters as last_work(), and return their modeled time.
  double model_work(mimd::WorkCounters work, std::uint64_t locked_ops);
  /// The same for one executor run, from its telemetry.
  double model_work(const sharded::ShardTelemetry& telemetry);

  mimd::XeonModel model_;
  mimd::ThreadPool pool_;
  core::Rng jitter_rng_;
  airfield::FlightDb db_;
  mimd::WorkCounters last_work_;

  // Multi-radar Task 1: each aircraft's closest single-hit return so far
  // in a pass, and its squared distance.
  std::vector<std::int32_t> best_return_;
  std::vector<double> best_d2_;

  // The executor's buffers (snapshots, indexes and the flat Task 1
  // arrays multi-radar Task 1 shares), reused across periods.
  sharded::ShardScratch shard_scratch_;
};

}  // namespace atm::tasks
