// The 16-core Intel Xeon (MIMD, shared-memory) backend.
//
// Executes the tasks for real on a host thread pool with dynamically
// scheduled chunks, following the shared-database design of [13]: all
// aircraft and radar records live in memory shared by every worker, and
// cross-record updates go through striped mutexes. The modeled 16-core
// Xeon time comes from mimd::XeonModel fed with the work the execution
// actually performed:
//
//  * inner_ops  — inner-loop record accesses (each of which the [13]
//                 implementation performs under a reader lock on the
//                 shared record; we count those reader locks rather than
//                 execute 10^8 host mutex operations per task),
//  * locked_ops — the reader-lock count above plus the *real* write-lock
//                 acquisitions the execution performed,
//  * parallel_regions — fork/join barriers.
//
// Scheduling jitter makes run_task* nondeterministic across differently
// seeded backends — the paper's MIMD "not predictable" property — while a
// fixed seed keeps any single configuration reproducible for tests.
#pragma once

#include "src/atm/backend.hpp"
#include "src/atm/sharded.hpp"
#include "src/core/kern/soa_snapshot.hpp"
#include "src/core/spatial/swept_index.hpp"
#include "src/core/spatial/uniform_grid.hpp"
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

  // Extended system (see backend.hpp): thread-pool execution with the
  // shared-database locking discipline, modeled through the Xeon model.
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
  // Task 1 steps both radar modes share, each one parallel region: clear
  // the correlation state and compute the expected positions ex_/ey_;
  // commit, where an aircraft that took a return jumps to it and the rest
  // fly to their expected position (returns the first count).
  void begin_correlation(airfield::RadarFrame& frame,
                         mimd::WorkCounters& work);
  std::uint64_t commit_tracks(const airfield::RadarFrame& frame,
                              mimd::WorkCounters& work);

  /// Mark the still-unmatched aircraft in eligible_ (a pass's Task 1
  /// eligibility; rmatch does not change during a coverage scan) and
  /// return how many there are.
  std::size_t mark_eligible();

  /// The tail every task's work accounting shares: charge `reader_ops`
  /// [13]-style reader locks (see the file comment) plus the write locks
  /// the run really took, reset the stripe counters, keep the counters as
  /// last_work(), and return their modeled time.
  double model_work(mimd::WorkCounters work, std::uint64_t reader_ops);

  mimd::XeonModel model_;
  mimd::ThreadPool pool_;
  mimd::StripedLocks locks_;
  core::Rng jitter_rng_;
  airfield::FlightDb db_;
  mimd::WorkCounters last_work_;

  // Shared working arrays (the "dynamic database" of [13]); the batch
  // kernels read ex_/ey_ and the Tasks 2+3 snapshot, so those are aligned.
  core::kern::AlignedVector<double> ex_, ey_;
  std::vector<std::int32_t> nhits_, hit_id_, nradars_, amatch_;
  std::vector<std::uint8_t> resolved_;
  // Multi-radar Task 1: each aircraft's closest single-hit return so far
  // in a pass, and its squared distance.
  std::vector<std::int32_t> best_return_;
  std::vector<double> best_d2_;

  // Broadphase structures (kGrid mode): built serially at the start of a
  // pass/run, then queried read-only by every worker concurrently.
  std::vector<std::uint8_t> eligible_;
  core::spatial::UniformGrid2D grid_;
  core::spatial::SweptIndex swept_;

  // Tasks 2+3 snapshot: gathered serially once per run, then scanned
  // read-only by every worker through the batch kernels.
  core::kern::SoaSnapshot snap_;

  // Sector-sharded executive (ShardMode::kSectors): per-sector snapshot
  // buffers, reused across periods. The gather copies replace the [13]
  // reader locks in the cost model — see do_run_task1/do_run_task23.
  sharded::ShardScratch shard_scratch_;
};

}  // namespace atm::tasks
