// The host pool executor for Task 1 correlation and Tasks 2+3 collision
// detection/resolution. The MIMD backend runs both shard modes on it; the
// reference backend runs its sharded mode here (its unsharded mode is the
// sequential oracle in src/atm/reference).
//
// Task 1's two modes differ in the scan region each pool task covers:
//
//  * Unsharded (ShardMode::kNone): one pool item per active radar over
//    the shared expected positions — eligibility-masked under brute
//    force, the grid cells under kGrid.
//  * Sharded (ShardMode::kSectors): each pass the airfield is
//    partitioned into an S x S SectorPartition; every sector becomes one
//    pool task that *gathers* its candidate records (owned + halo) into a
//    sector-local snapshot and scans its radars against it. Cross-sector
//    pairs are never lost: a radar in sector s with box half-extent h can
//    only match aircraft whose expected position is within h per axis of
//    it, so the halo reach is h.
//
// Tasks 2+3 run one path in both modes: one SortedSnapshot of every
// aircraft (reference/collision.hpp), tasks of a few aircraft each, and
// per aircraft the detection scan and the trial rotations over its gate
// windows. Sharded, the executor still builds the partition, but only
// for what the MIMD model charges and the per-sector telemetry reports:
// [13]'s sector task would gather its owned + halo records, and a pair
// can only conflict inside the horizon if the current per-axis
// separation is at most band + (|v_i| + |v_j|) * horizon <= band + 2 *
// max_speed * horizon = reach (trial rotations preserve |v_i|). At the
// paper's 20-minute horizon that reach saturates the field, so sector
// snapshots would carry everyone; the shared region reads what they
// would, once.
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
#include "src/core/spatial/uniform_grid.hpp"
#include "src/mimd/thread_pool.hpp"

namespace atm::tasks::sharded {

/// Work the executor performed, in the shape the MIMD cost model and the
/// per-sector trace counters consume. `locked_ops` is the lock charge of
/// [13]'s shared-database design, which takes a lock on every shared
/// record; the executor charges those locks from its counts instead of
/// taking them (docs/COST_MODELS.md §4):
///
///  * sharded: one locked read per record a sector task gathers into its
///    snapshot (the shard handoff; the local scans touch no shared
///    record) — Task 1's real gathers, Tasks 2+3's counted from the
///    partition;
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

/// Reusable buffers for the executor (partition, Task 1's per-sector
/// snapshots and indexes, the Tasks 2+3 region, and the flat per-aircraft/
/// per-radar arrays the passes share). One per backend; allocate once,
/// reuse every period.
struct ShardScratch {
  core::spatial::SectorPartition partition;

  /// One Task 1 sector task's gathered expected positions plus its
  /// optional grid. `id[slot]` is the global aircraft id of a slot.
  struct SectorBuffers {
    core::kern::AlignedVector<double> ex, ey;
    std::vector<std::int32_t> id;           ///< Global ids of the snapshot.
    std::vector<std::int32_t> cand;         ///< Grid candidates.
    std::vector<std::int32_t> hits;         ///< Kernel hit output.
    core::spatial::UniformGrid2D grid;
  };
  std::vector<SectorBuffers> sectors;

  /// The Tasks 2+3 region: every aircraft, in both shard modes.
  reference::SortedSnapshot region;

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
