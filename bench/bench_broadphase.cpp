// Broadphase ablation: brute-force vs grid candidate enumeration on the
// host hot paths.
//
// The paper's platforms all brute-force the O(n) box test per radar
// (Task 1) and the O(n^2) pair scan (Tasks 2+3) because their hardware
// makes the full sweep nearly free. The host backends don't get that
// luxury, so src/core/spatial/ gives them a uniform grid (Task 1) and a
// velocity-swept index (Tasks 2+3) that enumerate a provable superset of
// the exact matches. This bench measures what the pruning buys in host
// wall time on the dense-en-route scenario — the workload the grid is
// for — and double-checks that both modes still produce identical task
// outcomes while doing it.
#include <cstdio>
#include <iostream>
#include <string>

#include "bench/common.hpp"
#include "src/airfield/setup.hpp"
#include "src/atm/mimd_backend.hpp"
#include "src/atm/reference_backend.hpp"
#include "src/atm/scenarios.hpp"
#include "src/core/table.hpp"
#include "src/rt/clock.hpp"

namespace {

using atm::core::spatial::BroadphaseMode;

constexpr int kTask1Periods = 8;
constexpr int kTask23Reps = 3;

struct TaskRun {
  double wall_ms = 0.0;  ///< Best-of-reps host wall time for the task.
  atm::tasks::Task1Stats task1;
  atm::tasks::Task23Stats task23;
};

/// Run kTask1Periods consecutive Task 1 periods from a fresh airfield and
/// return the summed host wall time. Radar noise is seeded identically
/// for every call, so brute and grid see bit-identical frames.
template <typename BackendT>
TaskRun run_task1(const atm::tasks::Scenario& scenario, std::size_t n,
                  BroadphaseMode mode) {
  using namespace atm;
  tasks::Scenario s = scenario;
  s.policy.broadphase = mode;
  const tasks::PipelineConfig cfg = make_pipeline_config(s);
  BackendT backend;
  backend.load(airfield::make_airfield(n, cfg.seed, cfg.setup));
  core::Rng rng(cfg.seed + 1);
  TaskRun run;
  for (int p = 0; p < kTask1Periods; ++p) {
    airfield::RadarFrame frame =
        backend.generate_radar(rng, cfg.radar, nullptr);
    const rt::Stopwatch sw;
    const tasks::Task1Result result = backend.run_task1(frame, cfg.task1);
    run.wall_ms += sw.elapsed_ms();
    run.task1 = result.stats;
  }
  return run;
}

/// Run Tasks 2+3 once per rep from a fresh airfield; keep the best rep.
template <typename BackendT>
TaskRun run_task23(const atm::tasks::Scenario& scenario, std::size_t n,
                   BroadphaseMode mode) {
  using namespace atm;
  tasks::Scenario s = scenario;
  s.policy.broadphase = mode;
  const tasks::PipelineConfig cfg = make_pipeline_config(s);
  TaskRun run;
  for (int rep = 0; rep < kTask23Reps; ++rep) {
    BackendT backend;
    backend.load(airfield::make_airfield(n, cfg.seed, cfg.setup));
    const rt::Stopwatch sw;
    const tasks::Task23Result result = backend.run_task23(cfg.task23);
    const double ms = sw.elapsed_ms();
    if (rep == 0 || ms < run.wall_ms) run.wall_ms = ms;
    run.task23 = result.stats;
  }
  return run;
}

void add_speedup_row(atm::core::TextTable& table, const std::string& task,
                     const std::string& backend, std::size_t n,
                     const TaskRun& brute, const TaskRun& grid,
                     double candidates, double exact_tests) {
  table.begin_row();
  table.add_cell(task);
  table.add_cell(backend);
  table.add_cell(n);
  table.add_cell(brute.wall_ms, 3);
  table.add_cell(grid.wall_ms, 3);
  table.add_cell(grid.wall_ms > 0.0 ? brute.wall_ms / grid.wall_ms : 0.0, 2);
  table.add_cell(candidates, 0);
  table.add_cell(exact_tests, 0);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace atm;
  const tasks::Scenario scenario =
      bench::scenario_from_args(argc, argv, tasks::dense_en_route());
  const std::vector<std::size_t> sweep{1000, 3000, 6000};

  bench::JsonReport report("broadphase",
                           bench::json_path_from_args(argc, argv));
  report.set_scenario(scenario.name);
  report.add_param("task1_periods", static_cast<long long>(kTask1Periods));
  report.add_param("task23_reps", static_cast<long long>(kTask23Reps));
  const auto add_json = [&](const char* task, const char* backend,
                            std::size_t n, const char* mode,
                            const TaskRun& run, const std::string& digest) {
    report.begin_result();
    report.add_field("task", std::string(task));
    report.add_field("backend", std::string(backend));
    report.add_field("aircraft", static_cast<long long>(n));
    report.add_field("broadphase", std::string(mode));
    report.add_field("wall_ms", run.wall_ms);
    report.add_field("digest", digest);
  };

  core::TextTable table({"task", "backend", "aircraft", "brute [ms]",
                         "grid [ms]", "speedup", "grid candidates",
                         "grid exact tests"});
  bool outcomes_match = true;
  double speedup_t1_3000 = 0.0;
  double speedup_t23_3000 = 0.0;

  for (const std::size_t n : sweep) {
    // Task 1: correlation boxes through the per-pass uniform grid.
    const TaskRun t1_brute =
        run_task1<tasks::ReferenceBackend>(scenario, n,
                                           BroadphaseMode::kBruteForce);
    const TaskRun t1_grid =
        run_task1<tasks::ReferenceBackend>(scenario, n,
                                           BroadphaseMode::kGrid);
    outcomes_match &= t1_brute.task1.outcome() == t1_grid.task1.outcome();
    add_json("task1", "reference", n, "brute", t1_brute,
             bench::outcome_digest(t1_brute.task1));
    add_json("task1", "reference", n, "grid", t1_grid,
             bench::outcome_digest(t1_grid.task1));
    add_speedup_row(table, "task1", "reference", n, t1_brute, t1_grid,
                    static_cast<double>(t1_grid.task1.box_tests),
                    static_cast<double>(t1_grid.task1.box_tests));

    // Tasks 2+3: pair scans through the velocity-swept index.
    const TaskRun t23_brute =
        run_task23<tasks::ReferenceBackend>(scenario, n,
                                            BroadphaseMode::kBruteForce);
    const TaskRun t23_grid =
        run_task23<tasks::ReferenceBackend>(scenario, n,
                                            BroadphaseMode::kGrid);
    outcomes_match &= t23_brute.task23.outcome() == t23_grid.task23.outcome();
    add_json("task23", "reference", n, "brute", t23_brute,
             bench::outcome_digest(t23_brute.task23));
    add_json("task23", "reference", n, "grid", t23_grid,
             bench::outcome_digest(t23_grid.task23));
    add_speedup_row(table, "task23", "reference", n, t23_brute, t23_grid,
                    static_cast<double>(t23_grid.task23.pair_candidates),
                    static_cast<double>(t23_grid.task23.pair_tests));

    if (n == 3000) {
      speedup_t1_3000 = t1_grid.wall_ms > 0.0
                            ? t1_brute.wall_ms / t1_grid.wall_ms
                            : 0.0;
      speedup_t23_3000 = t23_grid.wall_ms > 0.0
                             ? t23_brute.wall_ms / t23_grid.wall_ms
                             : 0.0;
    }

    // The MIMD pool shares the same broadphase behind its workers.
    const TaskRun m23_brute =
        run_task23<tasks::MimdBackend>(scenario, n,
                                       BroadphaseMode::kBruteForce);
    const TaskRun m23_grid =
        run_task23<tasks::MimdBackend>(scenario, n, BroadphaseMode::kGrid);
    outcomes_match &= m23_brute.task23.outcome() == m23_grid.task23.outcome();
    add_json("task23", "mimd-xeon", n, "brute", m23_brute,
             bench::outcome_digest(m23_brute.task23));
    add_json("task23", "mimd-xeon", n, "grid", m23_grid,
             bench::outcome_digest(m23_grid.task23));
    add_speedup_row(table, "task23", "mimd-xeon", n, m23_brute, m23_grid,
                    static_cast<double>(m23_grid.task23.pair_candidates),
                    static_cast<double>(m23_grid.task23.pair_tests));
  }

  std::printf("== Broadphase ablation: %s ==\n", scenario.name.c_str());
  std::printf("%s\n", scenario.description.c_str());
  std::printf("Task 1 wall time sums %d consecutive periods; Tasks 2+3 "
              "take the best of %d runs.\n\n",
              kTask1Periods, kTask23Reps);
  std::cout << table;

  std::printf("\ntask outcomes identical across modes: %s\n",
              outcomes_match ? "yes" : "NO — BROADPHASE BUG");
  std::printf("dense-en-route @ 3000 aircraft: task1 grid speedup %.2fx, "
              "task23 grid speedup %.2fx\n",
              speedup_t1_3000, speedup_t23_3000);
  const bool json_ok = report.write();
  if (!outcomes_match || !json_ok) return 1;
  std::cout << "\nObservation: the grid prunes candidate work roughly "
               "linearly in density for Task 1\nand the swept index turns "
               "the all-pairs scan into a near-linear pass over "
               "altitude\nslabs for Tasks 2+3 — host-side wins the paper's "
               "SIMD/associative platforms get\nfor free in hardware.\n";
  return (speedup_t1_3000 > 1.0 && speedup_t23_3000 > 1.0) ? 0 : 1;
}
