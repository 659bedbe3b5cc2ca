// Sector-sharded execution of the host hot paths (Task 1 correlation and
// Tasks 2+3 collision detection/resolution), shared by the reference and
// MIMD backends.
//
// Execution model (the per-shard self-scheduling design the ROADMAP's
// sharding item asks for): each period the airfield is partitioned into
// an S x S SectorPartition; every sector becomes one thread-pool task
// that *gathers* its candidate records (owned + halo) into a sector-local
// snapshot and then scans lock-free against that snapshot. Cross-sector
// pairs are never lost because the halo reach bounds how far any exact
// match can sit from the sector:
//
//  * Task 1, pass with box half-extent h: a radar in sector s can only
//    match aircraft whose expected position is within h per axis of the
//    radar, so reach = h.
//  * Tasks 2+3: a pair can only conflict inside the horizon if the
//    current per-axis separation is at most band + (|v_i| + |v_j|) *
//    horizon <= band + 2 * max_speed * horizon = reach (trial rotations
//    preserve |v_i|, so one reach covers Task 3's rescans too). At the
//    paper's 20-minute horizon this saturates the field — the halos then
//    carry everyone, and sharding buys parallel per-sector execution and
//    lock-free commits rather than pruning (pruning is the broadphase's
//    job, and it composes: `broadphase = kGrid` builds the grid / swept
//    index per sector over the gathered snapshot).
//
// Outcome equivalence (the bar the sector equivalence tests enforce):
// per-aircraft and per-radar outcomes are computed with the exact same
// tests and (value, id) tie-breaks as the monolithic scans, over a
// candidate superset, while all mutated state is single-writer — each
// aircraft/radar is owned by exactly one sector task (Task 1's shared
// per-aircraft coverage counts use relaxed atomic adds, which commute).
// Only the work counters (box_tests, pair_candidates, pair_tests,
// sectors, halo_candidates) may differ from the unsharded run.
#pragma once

#include <cstdint>
#include <vector>

#include "src/airfield/flight_db.hpp"
#include "src/airfield/radar.hpp"
#include "src/atm/reference/collision.hpp"
#include "src/atm/reference/correlate.hpp"
#include "src/atm/task_types.hpp"
#include "src/core/kern/soa_snapshot.hpp"
#include "src/core/spatial/sectors.hpp"
#include "src/core/spatial/swept_index.hpp"
#include "src/core/spatial/uniform_grid.hpp"
#include "src/mimd/thread_pool.hpp"

namespace atm::tasks::sharded {

/// Work the sharded executive performed, in the shape the MIMD cost model
/// and the per-sector trace counters consume. The gather counts are the
/// shard handoff: one locked read per record copied into a sector
/// snapshot; the local scans afterwards touch no shared record.
struct ShardTelemetry {
  int sectors = 0;
  std::uint64_t gather_ops = 0;   ///< Records copied into sector snapshots.
  std::uint64_t inner_ops = 0;    ///< Snapshot records the local scans read.
  std::uint64_t parallel_regions = 0;  ///< fork/join barriers.
  std::vector<std::uint64_t> sector_owned;       ///< Per-sector owned items.
  std::vector<std::uint64_t> sector_candidates;  ///< Owned + halo items.
};

/// Reusable buffers for the sharded paths (partition, per-sector
/// snapshots and indexes, and the flat per-aircraft/per-radar arrays the
/// passes share). One per backend; allocate once, reuse every period.
struct ShardScratch {
  core::spatial::SectorPartition partition;

  /// One sector task's gathered snapshot plus its optional broadphase.
  /// `id[slot]` is the global aircraft id of a snapshot slot. Under kGrid
  /// the Tasks 2+3 snapshot is gathered twice into the same buffers:
  /// in candidate order to build the swept index, then in the index's
  /// bucket order, which is the order the scan reads.
  struct SectorBuffers {
    core::kern::SoaSnapshot snap;              ///< Tasks 2+3 snapshot.
    core::kern::AlignedVector<double> ex, ey;  ///< Task 1 snapshot.
    std::vector<std::int32_t> id;           ///< Global ids of the snapshot.
    std::vector<std::int32_t> cand;         ///< Task 1 grid candidates.
    std::vector<std::int32_t> hits;         ///< Task 1 kernel hit output.
    reference::ScanScratch scan;            ///< Tasks 2+3 scan buffers.
    core::spatial::SweptIndex swept;
    core::spatial::UniformGrid2D grid;
  };
  std::vector<SectorBuffers> sectors;

  reference::Task1Scratch task1;          ///< Flat per-aircraft/radar state.
  std::vector<std::uint8_t> resolved;     ///< Tasks 2+3 commit flags.
  std::vector<std::int32_t> radar_start;  ///< Active-radar CSR, per pass.
  std::vector<std::int32_t> radar_ids;
};

/// Sharded Task 1. Outcome-identical to reference::correlate_and_track /
/// the MIMD backend's monolithic pass structure for any scenario and
/// seed. `telemetry`, when non-null, is overwritten with this run's work.
Task1Stats correlate_and_track(airfield::FlightDb& db,
                               airfield::RadarFrame& frame,
                               mimd::ThreadPool& pool, ShardScratch& scratch,
                               const Task1Params& params,
                               ShardTelemetry* telemetry = nullptr);

/// Sharded Tasks 2+3. Outcome-identical to
/// reference::detect_and_resolve for any scenario and seed.
Task23Stats detect_and_resolve(airfield::FlightDb& db,
                               mimd::ThreadPool& pool, ShardScratch& scratch,
                               const Task23Params& params,
                               ShardTelemetry* telemetry = nullptr);

}  // namespace atm::tasks::sharded
