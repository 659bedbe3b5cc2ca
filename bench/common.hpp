// Shared harness for the figure-reproduction benches.
//
// Every bench prints the same artifacts the paper's evaluation shows: a
// per-platform timing series over aircraft counts (the figure's data), and
// a MATLAB-style curve-fit summary (SSE / R-square / adjusted R-square /
// RMSE) that classifies each curve as linear or (near-linear) quadratic.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/atm/backend.hpp"
#include "src/atm/scenarios.hpp"
#include "src/core/curvefit.hpp"
#include "src/obs/trace.hpp"

namespace atm::bench {

/// Parse an optional `--scenario <name>` (or `--scenario=<name>`) flag
/// from a bench's argv, resolving it through the scenario registry.
/// Returns `fallback` when the flag is absent; prints the registry names
/// and calls std::exit(2) on an unknown name. Other arguments are left
/// for the bench to interpret.
[[nodiscard]] tasks::Scenario scenario_from_args(
    int argc, char** argv, const tasks::Scenario& fallback);

/// Process-wide trace sink for the figure benches. When the
/// ATM_BENCH_TRACE environment variable names a file, every
/// measure_series() sweep (and any pipeline bench that passes this sink
/// through PipelineConfig::trace) writes JSONL task events there for
/// tools/trace_summary.py and tools/plot_figures.py to consume; returns
/// nullptr when the variable is unset.
[[nodiscard]] obs::TraceSink* bench_trace_sink();

/// True when the ATM_BENCH_SMOKE environment variable is set non-empty
/// (and not "0"). CI sets it so the figure-reproduction step only checks
/// that every bench still runs end to end; the numbers it prints are not
/// meaningful measurements.
[[nodiscard]] bool smoke_mode();

/// Under smoke_mode(), truncate a sweep to its three smallest points
/// (the minimum the quadratic curve fits accept);
/// otherwise return it unchanged. Every bench routes its sweep (custom or
/// default_sweep()) through this so ATM_BENCH_SMOKE=1 bounds CI time.
[[nodiscard]] std::vector<std::size_t> maybe_smoke(
    std::vector<std::size_t> sweep);

/// Aircraft counts swept by the figure benches. The paper's exact sweep is
/// not published; this range shows every relationship the figures assert
/// (platform ordering, near-linear CUDA curves, the multi-core blow-up)
/// while every platform except the Xeon still meets its deadlines.
/// Already smoke-truncated via maybe_smoke().
[[nodiscard]] std::vector<std::size_t> default_sweep();

/// Parse an optional `--json <path>` (or `--json=<path>`) flag from a
/// bench's argv. Returns an empty string when the flag is absent. Other
/// arguments are left for the bench to interpret.
[[nodiscard]] std::string json_path_from_args(int argc, char** argv);

/// Hex FNV-1a digest over a task run's outcome() counters, folded in
/// for_each order (the *Work fields are not part of it, just as the
/// equivalence tests compare outcome()). Two runs that agree on every
/// outcome produce the same digest regardless of broadphase, sharding, or
/// kernel choice, so a JSON report consumer can cross-check equivalence
/// without rerunning.
[[nodiscard]] std::string outcome_digest(const tasks::Task1Stats& stats);
[[nodiscard]] std::string outcome_digest(const tasks::Task23Stats& stats);
[[nodiscard]] std::string outcome_digest(const tasks::MultiRadarStats& stats);

/// Machine-readable bench report, written as one JSON document when the
/// bench passes `--json <path>`. Constructed with an empty path the
/// report is inert: every call is a no-op and write() succeeds. Schema:
///
///   {"bench": "<name>", "scenario": "<name>",
///    "params": {"<key>": <value>, ...},
///    "results": [{"<key>": <value>, ...}, ...]}
///
/// Params describe the run configuration (smoke mode, sweep, reps);
/// each result row carries one measurement (task, aircraft count,
/// wall/modeled ms, outcome digest, ...). CI's bench-smoke step writes
/// BENCH_<name>.json files and uploads them as artifacts.
class JsonReport {
 public:
  JsonReport(std::string bench, std::string path)
      : bench_(std::move(bench)), path_(std::move(path)) {}

  [[nodiscard]] bool enabled() const { return !path_.empty(); }

  void set_scenario(const std::string& name) { scenario_ = name; }

  void add_param(const std::string& key, const std::string& value);
  void add_param(const std::string& key, long long value);
  void add_param(const std::string& key, double value);

  /// Start a new result row; add_field calls attach to the latest row.
  void begin_result();
  void add_field(const std::string& key, const std::string& value);
  void add_field(const std::string& key, long long value);
  void add_field(const std::string& key, double value);

  /// Write the accumulated document. Returns true on success and always
  /// when the report is disabled; prints a warning to stderr on failure.
  [[nodiscard]] bool write() const;

 private:
  void param_raw(const std::string& key, std::string encoded);
  void field_raw(const std::string& key, std::string encoded);

  std::string bench_;
  std::string path_;
  std::string scenario_;
  /// (key, pre-encoded JSON value) pairs, in insertion order.
  std::vector<std::pair<std::string, std::string>> params_;
  /// One pre-encoded `"k":v,...` body per result row.
  std::vector<std::string> results_;
};

/// A measured (aircraft count, modeled ms) series for one platform.
struct Series {
  std::string platform;
  std::vector<double> n;   ///< Aircraft counts.
  std::vector<double> ms;  ///< Modeled task time at each count.
};

/// Which task a sweep measures.
enum class Task { kTask1, kTask23 };

/// Measure one platform across the sweep. Task 1 timings are averaged over
/// `task1_periods` consecutive periods (the paper reports per-iteration
/// averages); Tasks 2+3 run once per point (they run once per major cycle).
[[nodiscard]] Series measure_series(tasks::Backend& backend, Task task,
                                    const std::vector<std::size_t>& sweep,
                                    int task1_periods = 4,
                                    std::uint64_t seed = 42);

/// Print the figure table: one row per aircraft count, one timing column
/// per platform.
void print_figure_table(const std::string& title,
                        const std::vector<Series>& series);

/// Print the MATLAB-style fit report for each platform's series: linear
/// and quadratic goodness of fit plus the shape classification.
void print_curve_fits(const std::vector<Series>& series);

/// Print one platform's full fit detail (Figures 8 and 9).
void print_fit_detail(const Series& series);

}  // namespace atm::bench
