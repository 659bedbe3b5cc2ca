// Reference (sequential) implementation of Tasks 2+3: collision detection
// and resolution (paper Sections 5.2-5.3, Algorithm 2).
//
// Order-independent semantics shared by all backends:
//
//  * Detection (Task 2): for each aircraft i, run Batcher's pair test
//    against every other aircraft j within the 1000 ft altitude gate,
//    using everyone's *current* path (snapshot semantics — in the CUDA
//    program all threads read the same global state concurrently). The
//    soonest conflicting partner (ties to the lowest id) sets col,
//    time_till, and colWith.
//
//  * Resolution (Task 3): aircraft whose soonest conflict is critical
//    (time_min < 300 periods) trial new paths by rotating their velocity
//    +-5, +-10, ... +-30 degrees (positive first, the paper's
//    alternation), re-running detection for the trial path against all
//    other aircraft's *original* paths. The first conflict-free trial
//    (no critical conflict) is stored in batx/baty. If no angle works the
//    aircraft keeps its path and is counted unresolved.
//
//  * Commit: resolved aircraft replace (dx, dy) with (batx, baty) and
//    clear their collision flags (Algorithm 2 line 12); everyone else
//    keeps their detection flags for the cycle report.
//
// The host paths (this sequential oracle and the pool executor in
// src/atm/sharded.hpp, in both shard modes) share the scans below: one
// SortedSnapshot of every aircraft per call, from which detection and
// the trials read only each aircraft's altitude-gate window.
#pragma once

#include "src/airfield/flight_db.hpp"
#include "src/atm/task_types.hpp"
#include "src/core/kern/kernels.hpp"
#include "src/core/kern/soa_snapshot.hpp"
#include "src/core/spatial/swept_index.hpp"

namespace atm::tasks::reference {

/// Result of the detection scan for a single aircraft: the soonest
/// conflicting partner on its *current* or *trial* path.
struct DetectOutcome {
  bool conflict = false;      ///< Any conflict inside the horizon.
  bool critical = false;      ///< Soonest conflict below critical time.
  double time_min = 0.0;      ///< Entry time of the soonest conflict.
  std::int32_t partner = -1;  ///< Aircraft id of the soonest conflict.
};

/// Work counters accumulated by the detection scan and the trial checks.
/// These describe how much work an execution did, not what it concluded;
/// the two broadphase modes legitimately differ here while agreeing on
/// every DetectOutcome.
struct ScanWork {
  std::uint64_t pair_candidates = 0;  ///< Pairs enumerated (pre-gate).
  std::uint64_t pair_tests = 0;       ///< Batcher tests (post-gate).
  std::uint64_t lanes_masked = 0;     ///< SIMD tail lanes masked off.
};

/// The partners of one aircraft that pass the altitude gate, copied out
/// of a scan region in the order its scan enumerates them: the lanes
/// Task 3's trials read (TrialScan). `slot` and `rank` keep their length
/// from build to build; their first lanes.size() entries are the list.
struct GateList {
  core::spatial::SweptQuery box;   ///< The index query it was built for.
  std::uint64_t candidates = 0;    ///< Non-self lanes that query enumerates.
  core::kern::SoaSnapshot lanes;   ///< The passers' motion state.
  std::vector<std::int32_t> slot;  ///< Their region slots.
  std::vector<std::uint32_t> rank; ///< Non-self lanes enumerated up to and
                                   ///< including each passer (< 2^31:
                                   ///< slots are int32).
};

/// Reusable scan buffers: one block of kernel output, the gate list and
/// the bitset that puts it in enumeration order. Thread-confined — every
/// concurrent scanner (each pool worker) owns its own.
struct ScanScratch {
  core::kern::AlignedVector<double> tmin;  ///< Kernel block output.
  std::vector<std::uint8_t> flags;         ///< Kernel block output.
  GateList gates;                          ///< TrialScan's lanes.
  std::vector<std::uint64_t> marks;        ///< One bit per enumeration
                                           ///< position; zero between
                                           ///< gate-list builds.
};

/// The Tasks 2+3 scan region of one call: every aircraft, gathered once
/// into a snapshot sorted by (cell, altitude, id), plus the maps between
/// its slots, the aircraft ids and the scan's enumeration order.
///
///  * Cells: under kGrid the swept index's buckets, which keep their
///    bucket-position ranges (cell_starts()); brute force is one cell
///    holding every aircraft.
///  * Enumeration order: the order the one-at-a-time scan visits ids in —
///    bucket order (for_each_candidate's) under kGrid, ascending id under
///    brute force. A query's cells are visited in ascending position, so
///    their positions ascend too. The counters and the trials' early exit
///    are defined over this order.
///  * Gate window: inside one cell the passers of altitude_gate_pass are
///    one contiguous slot run (the gate's rounded difference is monotone
///    in the partner's altitude), found by two binary searches. A scan
///    reads only the windows of its query's cells.
struct ScanRegion {
  core::kern::SoaView view;              ///< Motion state by slot.
  const std::int32_t* ids = nullptr;     ///< Slot -> aircraft id.
  const std::int32_t* position = nullptr;///< Slot -> enumeration position.
  const std::int32_t* slot_at = nullptr; ///< Enumeration position -> slot.
  const core::spatial::SweptIndex* index = nullptr;  ///< kGrid only.
};

/// The buffers behind a ScanRegion, reused from call to call: the
/// sequential reference builds one per call, and the pool executor keeps
/// one whose region its workers read concurrently once build() returns.
class SortedSnapshot {
 public:
  /// Sort every aircraft of `db` into (cell, altitude, id) order for
  /// `params` (building the swept index under kGrid), gather the
  /// snapshot, and return the region over it, valid until the next
  /// build. The snapshot is a copy: commits to db after the build do not
  /// reach the scans.
  const ScanRegion& build(const airfield::FlightDb& db,
                          const Task23Params& params);

  /// The swept index of the last kGrid build.
  [[nodiscard]] const core::spatial::SweptIndex& index() const {
    return index_;
  }

 private:
  /// One slot's sort key.
  struct Key {
    double alt;
    std::int32_t position;
  };

  core::kern::SoaSnapshot snap_;
  core::spatial::SweptIndex index_;
  std::vector<Key> keys_;
  std::vector<std::int32_t> ids_, position_, slot_at_;
  ScanRegion region_;
};

/// Task 2's scan of one track (position (xi, yi, alti), velocity (vx, vy))
/// against `region` through the band-intersection batch kernel: the
/// single detection scan every host path runs. `self` is excluded by id,
/// and DetectOutcome.partner is reported as an id.
///
/// The kernel reads only the gate windows of the track's query cells
/// (every cell under brute force): a lane outside them fails the altitude
/// gate, and the kernel flags a conflict only on a passer. The counters
/// are those of the one-at-a-time scan: pair_candidates adds the cells'
/// lengths and pair_tests the windows' lengths, each less self — self is
/// in its own query, and it passes its own gate because
/// check_task23_params requires a positive gate.
///
/// The soonest conflict is selected with an explicit (time_min, partner
/// id) tie-break, so the outcome is independent of the order lanes are
/// read in and identical with and without an index — and bit-identical
/// across kernels (docs/PERF.md).
DetectOutcome scan_candidates(const ScanRegion& region, std::int32_t self,
                              double xi, double yi, double alti, double vx,
                              double vy, const Task23Params& params,
                              core::kern::Kernel kernel, ScanWork& work,
                              ScanScratch& scratch);

/// Task 3's trial checks for aircraft `self` at (xi, yi, alti), whose
/// detection found a critical conflict (Algorithm 2 lines 5-11): does a
/// trial path meet a critical conflict against everyone's original path
/// in `region`? One TrialScan serves every trial rotation of one
/// aircraft; it keeps its gate list in `scratch`.
///
/// A check reads the gate passers a one-at-a-time scan would, in its
/// enumeration order, up to the first critical conflict, and adds the
/// same pair_candidates and pair_tests:
///
///  * the list holds the lanes of the query's gate windows, self
///    excluded, put back into enumeration order (a bitset over the
///    positions), each with its rank: the enumerated positions up to and
///    including it, less one when self precedes it. The gate depends on
///    altitude only, so no lane outside the list can conflict under any
///    heading;
///  * the first check builds it. Under kGrid it is tagged with the index
///    query it was built for, and a check whose query differs (a speed
///    that rounds to other cells) rebuilds it first;
///  * a check that stops at list entry k adds rank[k] candidates and
///    k + 1 tests; one that clears adds the list's candidate count and
///    its length.
class TrialScan {
 public:
  TrialScan(const ScanRegion& region, std::int32_t self, double xi,
            double yi, double alti, const Task23Params& params,
            core::kern::Kernel kernel, ScanScratch& scratch);

  /// True when the trial path (vx, vy) meets a critical conflict.
  [[nodiscard]] bool critical(double vx, double vy, ScanWork& work);

 private:
  void build(const core::spatial::SweptQuery& box);

  ScanRegion region_;
  std::int32_t self_;
  double xi_, yi_, alti_;
  core::kern::BandParams band_;
  double critical_periods_;
  core::kern::Kernel kernel_;
  ScanScratch& scratch_;
  bool built_ = false;
};

/// Convenience oracle form over a FlightDb: sorts a throwaway brute-force
/// region (whatever params.broadphase says) and runs scan_candidates for
/// aircraft i with path (vx, vy). Tests use this as the single-scan
/// semantic oracle; the tasks build one region per call and call
/// scan_candidates directly.
DetectOutcome scan_against_all(const airfield::FlightDb& db, std::size_t i,
                               double vx, double vy,
                               const Task23Params& params, ScanWork& work);

/// The swept-index geometry of a Tasks 2+3 run: the params' horizon,
/// band, and altitude gate.
[[nodiscard]] core::spatial::SweptIndexParams swept_index_params(
    const Task23Params& params);

/// Fill `index` from db's current positions, velocities, and altitudes
/// using swept_index_params(params). The index stays valid for every scan
/// of the run (detection and trial rotations): detect_and_resolve never
/// moves an aircraft before the commit phase, and a trial rotation
/// preserves the speed the query expands by (up to rounding, which
/// TrialScan's query tag covers).
void build_swept_index(const airfield::FlightDb& db,
                       const Task23Params& params,
                       core::spatial::SweptIndex& index);

/// The trial-angle sequence of Task 3: +step, -step, +2*step, -2*step, ...
/// up to +-max. Returns the rotation for attempt k (0-based), in degrees.
[[nodiscard]] double trial_angle_deg(int attempt, double step_deg);

/// Number of trial attempts implied by (step, max): 2 * max / step.
[[nodiscard]] int max_trial_attempts(const Task23Params& params);

/// Run Tasks 2+3 on `db` in place. Returns outcome counters.
Task23Stats detect_and_resolve(airfield::FlightDb& db,
                               const Task23Params& params = {});

}  // namespace atm::tasks::reference
