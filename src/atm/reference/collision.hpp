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

/// Reusable scan buffers: one block of kernel output and the gate list.
/// Thread-confined — every concurrent scanner (each pool worker) owns its
/// own.
struct ScanScratch {
  core::kern::AlignedVector<double> tmin;  ///< Kernel block output.
  std::vector<std::uint8_t> flags;         ///< Kernel block output.
  GateList gates;                          ///< TrialScan's lanes.
};

/// A Tasks 2+3 scan region: a gathered snapshot (the whole FlightDb, or
/// one sector's owned + halo records), its slot -> aircraft id map and,
/// under kGrid, the swept index it was gathered for.
///
///  * `ids` null: the slots are the ids;
///  * with an `index`, `view` must be gathered in `index->order()` (slot
///    k = bucket position k, so `ids` composes the order with the
///    snapshot's own slot -> id map). Scans then read only the index's
///    runs, each a contiguous slot range, in for_each_run order — the
///    order for_each_candidate visits ids in. Without one they read every
///    slot, in slot order.
struct ScanRegion {
  core::kern::SoaView view;
  const std::int32_t* ids = nullptr;
  const core::spatial::SweptIndex* index = nullptr;
};

/// Task 2's scan of one track (position (xi, yi, alti), velocity (vx, vy))
/// against `region` through the band-intersection batch kernel: the
/// single detection scan every host path runs. `self` is excluded by id,
/// and DetectOutcome.partner is reported as an id. The work counters
/// tally every lane the scan reads.
///
/// The soonest conflict is selected with an explicit (time_min, partner
/// id) tie-break, so the outcome is independent of enumeration order and
/// identical with and without an index — and bit-identical across
/// kernels (docs/PERF.md).
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
/// A check reads the lanes scan_candidates would, in the same order, up
/// to the first critical conflict, and adds the same pair_candidates and
/// pair_tests — but its kernel reads only the gate list:
///
///  * the list holds the lanes that pass the altitude gate, self
///    excluded, each with its rank. The gate depends on altitude only,
///    and the kernel flags a conflict only on a gate-passing lane, so no
///    lane outside the list can conflict under any heading;
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

/// Convenience oracle form over a FlightDb: gathers a throwaway snapshot
/// (in `index`'s bucket order when one is given; the index must be built
/// over `db`) and runs scan_candidates for aircraft i with path (vx, vy).
/// Tests use this as the single-scan semantic oracle; the task drivers
/// gather once and call scan_candidates directly.
DetectOutcome scan_against_all(const airfield::FlightDb& db, std::size_t i,
                               double vx, double vy,
                               const Task23Params& params, ScanWork& work,
                               const core::spatial::SweptIndex* index =
                                   nullptr);

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
