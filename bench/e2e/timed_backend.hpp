// TimedBackend: a decorator Backend that times every call an executive
// makes into the atm layer, from outside.
//
// Each private do_run_* hook forwards to the wrapped backend's *public*
// run_* / generate_radar entry point, so the wrapped backend keeps its
// own NVI path and the executive (run_pipeline or run_full_system) runs
// unmodified on top of the decorator. Around every forwarded call the
// decorator records host wall time, folds the call's outcome counters
// and modeled time into two digests, and groups calls into periods: a
// period starts at its boundary call (generate_radar under
// run_pipeline, run_multi_task1 under the full system, whose executive
// generates multi-tower radar itself).
//
// Tracing: the wrapped backend gets the trace sink and, under
// run_pipeline, the (cycle, period) context the executive stamps on the
// decorator each period, so its task events and sector counters are the
// ones an undecorated run emits. The decorator's own task events are
// duplicates; the caller drops them (bench_atm.cpp, DropTaskEvents).
//
// Oracle mode replays the modeled times of an earlier run in call order
// and forces the host-path knobs (broadphase, sharding, kernel) to the
// sequential brute-force scalar path. Replayed times keep the virtual
// clock, the deadline monitor and the governor on the recorded run's
// path, so the outcome digests of the two runs are comparable.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "bench/e2e/report.hpp"
#include "src/atm/backend.hpp"
#include "src/rt/schedule.hpp"

namespace bench_atm {

/// The backend entry points the executives call.
enum class Call : std::uint8_t {
  kRadar,
  kTask1,
  kTask23,
  kMultiTask1,
  kDisplay,
  kSporadic,
  kAdvisory,
  kTerrain,
};
inline constexpr std::size_t kCallKinds = 8;

[[nodiscard]] std::string_view to_string(Call call);

/// Periods per major cycle of the paper's schedule.
inline const int kPeriodsPerCycle =
    atm::rt::MajorCycleSchedule::paper_schedule().periods_per_cycle();

/// Fold a flight state's motion columns (x, y, dx, dy, alt) into `d`.
void fold_state(Digest& d, const atm::airfield::FlightDb& db);

/// One forwarded call as the decorator timed it, with the work counters
/// the per-layer metrics read (zero where a call has none).
struct CallRecord {
  Call call = Call::kTask1;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  // Task 1 (task1 or multi_task1).
  std::uint64_t returns = 0;
  std::uint64_t matched = 0;
  std::uint64_t box_tests = 0;
  int passes = 0;
  // Tasks 2+3.
  std::uint64_t pair_candidates = 0;
  std::uint64_t pair_tests = 0;
  std::uint64_t rescans = 0;
  std::uint64_t critical = 0;
  std::uint64_t resolved = 0;
  // Both.
  std::uint64_t halo_candidates = 0;
};

/// One period, from its boundary call to the next one (or to the
/// executive's return).
struct PeriodRecord {
  std::int64_t start_ns = 0;
  std::size_t first_call = 0;  ///< Index of its boundary call in calls.
  /// Decorator bookkeeping (digests, captures) that ran inside the
  /// period; subtracted when reading executive self time.
  std::int64_t bench_ns = 0;
};

/// A flight state and the radar returns of the period it starts.
struct Capture {
  atm::airfield::FlightDb db;
  atm::airfield::RadarFrame frame;
};

/// Everything one executive run left in the decorator.
struct RunLog {
  std::int64_t entry_ns = 0;      ///< Before the backend was constructed.
  std::int64_t setup_end_ns = 0;  ///< load() / on_terrain_attached() done.
  std::int64_t return_ns = 0;     ///< The executive returned.
  std::vector<CallRecord> calls;
  std::vector<PeriodRecord> periods;
  std::array<std::uint64_t, kCallKinds> call_counts{};
  /// Outcome counters of every call plus the flight state at each cycle
  /// end (work counters excluded).
  Digest outcome;
  /// Every returned modeled_ms.
  Digest modeled;
  /// Every modeled_ms in call order (what oracle mode replays).
  std::vector<double> modeled_sequence;
  /// Global period indices whose state and frame are captured (sorted).
  std::vector<std::size_t> capture_periods;
  std::vector<Capture> captures;
  /// Oracle mode: a replayed call had no recorded counterpart.
  bool replay_overrun = false;
};

class TimedBackend final : public atm::tasks::Backend {
 public:
  /// `trace` (may be null) is the wrapped backend's sink. `replay`, when
  /// non-null, selects oracle mode (see the file comment). Both must
  /// outlive the decorator.
  TimedBackend(std::unique_ptr<atm::tasks::Backend> inner, Call boundary,
               RunLog& log, atm::obs::TraceSink* trace,
               const std::vector<double>* replay = nullptr);

  [[nodiscard]] std::string name() const override { return inner_->name(); }
  [[nodiscard]] bool deterministic() const override {
    return inner_->deterministic();
  }
  void load(const atm::airfield::FlightDb& db) override;
  [[nodiscard]] const atm::airfield::FlightDb& state() const override {
    return inner_->state();
  }
  atm::airfield::FlightDb& mutable_state() override {
    return inner_->mutable_state();
  }

  /// Stamp the executive's return and fold the final cycle-end state.
  void finish_run();

 private:
  atm::tasks::Task1Result do_run_task1(
      atm::airfield::RadarFrame& frame,
      const atm::tasks::Task1Params& params) final;
  atm::tasks::Task23Result do_run_task23(
      const atm::tasks::Task23Params& params) final;
  atm::airfield::RadarFrame do_generate_radar(
      atm::core::Rng& rng, const atm::airfield::RadarParams& params,
      double* modeled_ms) final;
  atm::tasks::TerrainResult do_run_terrain(
      const atm::tasks::TerrainTaskParams& params) final;
  atm::tasks::DisplayResult do_run_display(
      const atm::tasks::DisplayParams& params) final;
  atm::tasks::AdvisoryResult do_run_advisory(
      const atm::tasks::AdvisoryParams& params) final;
  atm::tasks::MultiRadarResult do_run_multi_task1(
      atm::airfield::MultiRadarFrame& frame,
      const atm::tasks::Task1Params& params) final;
  atm::tasks::SporadicResult do_run_sporadic(
      std::span<const atm::tasks::Query> queries,
      const atm::tasks::SporadicParams& params) final;
  void on_terrain_attached() final;

  /// Time `run`, then fold its result through `fold(result, record)`.
  /// `input_frame` is the radar frame the call consumes, if any.
  template <typename Run, typename Fold>
  auto timed(Call call, Run&& run, Fold&& fold,
             const atm::airfield::RadarFrame* input_frame = nullptr);

  /// Period bookkeeping before a call; a boundary call opens a period
  /// (and captures the state plus `input_frame` when that period is due).
  void begin_call(Call call, const atm::airfield::RadarFrame* input_frame);
  /// Modeled time to report: the inner one, or the replayed one.
  double take_modeled(double inner_ms);
  void charge_bench_ns(std::int64_t since_ns);

  std::unique_ptr<atm::tasks::Backend> inner_;
  Call boundary_;
  RunLog& log_;
  const std::vector<double>* replay_;
  bool capture_frame_pending_ = false;
};

}  // namespace bench_atm
