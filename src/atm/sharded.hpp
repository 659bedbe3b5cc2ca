// The host pool executor for Task 1 correlation and Tasks 2+3 collision
// detection/resolution. The MIMD backend runs both shard modes on it; the
// reference backend runs its sharded mode here (its unsharded mode is the
// sequential oracle in src/atm/reference).
//
// The two modes differ only in the scan region each pool task covers:
//
//  * Unsharded (ShardMode::kNone): the region is the whole table. Task 1
//    runs one pool item per active radar over the shared expected
//    positions — eligibility-masked under brute force, the grid cells
//    under kGrid. Tasks 2+3 run one item per aircraft over one snapshot
//    of every aircraft, gathered in the swept index's bucket order under
//    kGrid.
//  * Sharded (ShardMode::kSectors): each period the airfield is
//    partitioned into an S x S SectorPartition; every sector becomes one
//    pool task that *gathers* its candidate records (owned + halo) into a
//    sector-local snapshot and scans it. Cross-sector pairs are never
//    lost because the halo reach bounds how far any exact match can sit
//    from the sector:
//     - Task 1, pass with box half-extent h: a radar in sector s can only
//       match aircraft whose expected position is within h per axis of
//       the radar, so reach = h.
//     - Tasks 2+3: a pair can only conflict inside the horizon if the
//       current per-axis separation is at most band + (|v_i| + |v_j|) *
//       horizon <= band + 2 * max_speed * horizon = reach (trial
//       rotations preserve |v_i|, so one reach covers Task 3's rescans
//       too). At the paper's 20-minute horizon this saturates the field —
//       the halos then carry everyone, and sharding buys parallel
//       per-sector execution rather than pruning (pruning is the
//       broadphase's job, and it composes: `broadphase = kGrid` builds
//       the grid / swept index per sector over the gathered snapshot).
//
// Everything else is shared by the two modes: Task 1's pass loop,
// expected positions, eligibility mask, per-radar coverage scan,
// ambiguity, disposition, commit and stats; Tasks 2+3's per-aircraft
// routine (detection, then the trial rotations), commit and tally sum.
//
// Outcome equivalence (the bar the equivalence tests enforce): per-
// aircraft and per-radar outcomes are computed with the exact same tests
// and (value, id) tie-breaks as the sequential reference, over the whole
// table or a candidate superset, and every write has one owner — each
// aircraft/radar belongs to exactly one pool task, and Task 1's shared
// per-aircraft coverage counts use relaxed atomic adds, which commute.
// No lock is taken. Only the *Work fields of the stats may differ between
// the modes.
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

/// Work the executor performed, in the shape the MIMD cost model and the
/// per-sector trace counters consume. `locked_ops` is the lock charge of
/// [13]'s shared-database design, which takes a lock on every shared
/// record; the executor charges those locks from its counts instead of
/// taking them (docs/COST_MODELS.md §4):
///
///  * sharded: one locked read per record gathered into a sector
///    snapshot (the shard handoff; the local scans touch no shared
///    record);
///  * unsharded Task 1: inner_ops + coverage hits + correlations;
///  * unsharded Tasks 2+3: inner_ops + conflicts + resolutions.
///
/// In both unsharded cases inner_ops is [13]'s reader lock per record
/// read and the rest are its write locks.
struct ShardTelemetry {
  std::uint64_t locked_ops = 0;        ///< [13]'s lock charge, see above.
  std::uint64_t inner_ops = 0;         ///< Region records the scans read.
  std::uint64_t parallel_regions = 0;  ///< fork/join barriers.
  std::vector<std::uint64_t> sector_owned;       ///< Per-sector owned items.
  std::vector<std::uint64_t> sector_candidates;  ///< Owned + halo items.
};

/// Reusable buffers for the executor (partition, per-sector snapshots and
/// indexes, the unsharded Tasks 2+3 snapshot, and the flat per-aircraft/
/// per-radar arrays the passes share). One per backend; allocate once,
/// reuse every period.
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
    core::spatial::SweptIndex swept;
    core::spatial::UniformGrid2D grid;
  };
  std::vector<SectorBuffers> sectors;

  /// The unsharded Tasks 2+3 region: every aircraft, in the swept index's
  /// bucket order under kGrid.
  core::kern::SoaSnapshot snap;
  core::spatial::SweptIndex swept;

  reference::Task1Scratch task1;          ///< Flat per-aircraft/radar state.
  std::vector<std::uint8_t> resolved;     ///< Tasks 2+3 commit flags.
  std::vector<std::int32_t> radar_start;  ///< Active-radar CSR, per pass.
  std::vector<std::int32_t> radar_ids;
};

/// Task 1 in either shard mode. Outcome-identical to
/// reference::correlate_and_track for any scenario and seed. `telemetry`,
/// when non-null, is overwritten with this run's work.
Task1Stats correlate_and_track(airfield::FlightDb& db,
                               airfield::RadarFrame& frame,
                               mimd::ThreadPool& pool, ShardScratch& scratch,
                               const Task1Params& params,
                               ShardTelemetry* telemetry = nullptr);

/// Tasks 2+3 in either shard mode. Outcome-identical to
/// reference::detect_and_resolve for any scenario and seed.
Task23Stats detect_and_resolve(airfield::FlightDb& db,
                               mimd::ThreadPool& pool, ShardScratch& scratch,
                               const Task23Params& params,
                               ShardTelemetry* telemetry = nullptr);

// Task 1 steps the MIMD multi-radar correlation shares with the executor.

/// Clear the correlation state of `db` and `frame`, size `t1` for them and
/// compute the expected positions t1.ex/t1.ey (one parallel region).
void begin_correlation(airfield::FlightDb& db, airfield::RadarFrame& frame,
                       mimd::ThreadPool& pool, reference::Task1Scratch& t1);

/// Mark the still-unmatched aircraft in t1.eligible (a pass's Task 1
/// eligibility; rmatch does not change during a coverage scan) and return
/// how many there are.
std::size_t mark_eligible(const airfield::FlightDb& db,
                          reference::Task1Scratch& t1);

/// Commit (one parallel region): an aircraft that took a return jumps to
/// it, the rest fly to their expected position.
void commit_tracks(airfield::FlightDb& db, const airfield::RadarFrame& frame,
                   mimd::ThreadPool& pool, const reference::Task1Scratch& t1);

}  // namespace atm::tasks::sharded
