// Sector-sharding ablation: the monolithic host scans vs the per-sector
// executive (src/core/spatial/sectors.hpp, docs/SHARDING.md).
//
// The paper's multi-core Xeon loses to every accelerator because its
// shared-memory scan pays lock traffic on one flight database — the
// contention term in the cost model grows with aircraft count and makes
// the curve super-linear. Sharding replaces the locked scan with
// per-sector snapshot gathers plus halo sets, so the modeled 16-core
// Xeon time drops back toward the linear work term. This bench sweeps
// sector counts on the dense-en-route scenario and reports:
//
//   * modeled 16-core Xeon ms (the paper's platform; the headline), and
//   * host wall ms on the sequential reference path (informational —
//     this container is single-core, so wall time mostly shows the
//     gather overhead, not the parallel win),
//
// while double-checking that every sharded run produces the exact task
// outcomes of the unsharded scan.
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "src/airfield/setup.hpp"
#include "src/atm/mimd_backend.hpp"
#include "src/atm/reference_backend.hpp"
#include "src/atm/scenarios.hpp"
#include "src/core/table.hpp"
#include "src/rt/clock.hpp"

namespace {

using atm::core::spatial::ShardMode;

struct TaskRun {
  double wall_ms = 0.0;     ///< Host wall time (reference backend).
  double modeled_ms = 0.0;  ///< Modeled platform time (MIMD backend).
  atm::tasks::Task1Stats task1;
  atm::tasks::Task23Stats task23;
};

atm::tasks::PipelineConfig sharded_config(
    const atm::tasks::Scenario& scenario, int sectors_per_axis) {
  atm::tasks::Scenario s = scenario;
  s.policy.shard = sectors_per_axis > 0 ? ShardMode::kSectors : ShardMode::kNone;
  s.policy.sectors_per_axis = sectors_per_axis > 0 ? sectors_per_axis : 4;
  return make_pipeline_config(s);
}

/// Sum `periods` consecutive Task 1 runs from a fresh airfield. Radar
/// noise is seeded identically for every call, so every sector count
/// sees bit-identical frames.
template <typename BackendT>
TaskRun run_task1(const atm::tasks::Scenario& scenario, std::size_t n,
                  int sectors_per_axis, int periods) {
  using namespace atm;
  const tasks::PipelineConfig cfg = sharded_config(scenario, sectors_per_axis);
  BackendT backend;
  backend.load(airfield::make_airfield(n, cfg.seed, cfg.setup));
  core::Rng rng(cfg.seed + 1);
  TaskRun run;
  for (int p = 0; p < periods; ++p) {
    airfield::RadarFrame frame =
        backend.generate_radar(rng, cfg.radar, nullptr);
    const rt::Stopwatch sw;
    const tasks::Task1Result result = backend.run_task1(frame, cfg.task1);
    run.wall_ms += sw.elapsed_ms();
    run.modeled_ms += result.modeled_ms;
    run.task1 = result.stats;
  }
  return run;
}

/// Run Tasks 2+3 once per rep from a fresh airfield; keep the best rep.
template <typename BackendT>
TaskRun run_task23(const atm::tasks::Scenario& scenario, std::size_t n,
                   int sectors_per_axis, int reps) {
  using namespace atm;
  const tasks::PipelineConfig cfg = sharded_config(scenario, sectors_per_axis);
  TaskRun run;
  for (int rep = 0; rep < reps; ++rep) {
    BackendT backend;
    backend.load(airfield::make_airfield(n, cfg.seed, cfg.setup));
    const rt::Stopwatch sw;
    const tasks::Task23Result result = backend.run_task23(cfg.task23);
    const double wall = sw.elapsed_ms();
    if (rep == 0 || wall < run.wall_ms) run.wall_ms = wall;
    if (rep == 0 || result.modeled_ms < run.modeled_ms) {
      run.modeled_ms = result.modeled_ms;
    }
    run.task23 = result.stats;
  }
  return run;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace atm;
  const tasks::Scenario scenario =
      bench::scenario_from_args(argc, argv, tasks::dense_en_route());
  const bool smoke = bench::smoke_mode();
  const std::vector<std::size_t> sweep =
      smoke ? std::vector<std::size_t>{600}
            : std::vector<std::size_t>{1000, 3000, 6000};
  const std::vector<int> axes{0, 2, 4};  // 0 = unsharded baseline
  const int task1_periods = smoke ? 2 : 8;
  const int task23_reps = smoke ? 1 : 3;

  bench::JsonReport report("sharding",
                           bench::json_path_from_args(argc, argv));
  report.set_scenario(scenario.name);
  report.add_param("smoke", static_cast<long long>(smoke));
  report.add_param("task1_periods", static_cast<long long>(task1_periods));
  report.add_param("task23_reps", static_cast<long long>(task23_reps));

  core::TextTable table({"task", "metric", "aircraft", "unsharded [ms]",
                         "2x2 [ms]", "4x4 [ms]", "speedup 4x4",
                         "halo cands 4x4"});
  bool outcomes_match = true;
  double headline_speedup = 0.0;  // modeled MIMD task23, 4x4 @ 3000

  for (const std::size_t n : sweep) {
    std::vector<TaskRun> t1_ref, t23_ref, t23_mimd;
    for (const int axis : axes) {
      t1_ref.push_back(run_task1<tasks::ReferenceBackend>(
          scenario, n, axis, task1_periods));
      t23_ref.push_back(run_task23<tasks::ReferenceBackend>(
          scenario, n, axis, task23_reps));
      t23_mimd.push_back(run_task23<tasks::MimdBackend>(
          scenario, n, axis, task23_reps));
      const auto add_json = [&](const char* task, const char* backend,
                                const TaskRun& run,
                                const std::string& digest) {
        report.begin_result();
        report.add_field("task", std::string(task));
        report.add_field("backend", std::string(backend));
        report.add_field("aircraft", static_cast<long long>(n));
        report.add_field("sectors_per_axis", static_cast<long long>(axis));
        report.add_field("wall_ms", run.wall_ms);
        report.add_field("modeled_ms", run.modeled_ms);
        report.add_field("digest", digest);
      };
      add_json("task1", "reference", t1_ref.back(),
               bench::outcome_digest(t1_ref.back().task1));
      add_json("task23", "reference", t23_ref.back(),
               bench::outcome_digest(t23_ref.back().task23));
      add_json("task23", "mimd-xeon", t23_mimd.back(),
               bench::outcome_digest(t23_mimd.back().task23));
      if (axis > 0) {
        outcomes_match &= t1_ref.front().task1.outcome() ==
                          t1_ref.back().task1.outcome();
        outcomes_match &= t23_ref.front().task23.outcome() ==
                          t23_ref.back().task23.outcome();
        outcomes_match &= t23_mimd.front().task23.outcome() ==
                          t23_mimd.back().task23.outcome();
      }
    }

    const auto row = [&](const std::string& task, const std::string& metric,
                         const std::vector<TaskRun>& runs, bool modeled,
                         std::uint64_t halo) {
      const auto ms = [&](const TaskRun& r) {
        return modeled ? r.modeled_ms : r.wall_ms;
      };
      table.begin_row();
      table.add_cell(task);
      table.add_cell(metric);
      table.add_cell(n);
      table.add_cell(ms(runs[0]), 3);
      table.add_cell(ms(runs[1]), 3);
      table.add_cell(ms(runs[2]), 3);
      table.add_cell(ms(runs[2]) > 0.0 ? ms(runs[0]) / ms(runs[2]) : 0.0, 2);
      table.add_cell(halo);
    };
    row("task1", "reference wall", t1_ref, false,
        t1_ref.back().task1.halo_candidates);
    row("task23", "reference wall", t23_ref, false,
        t23_ref.back().task23.halo_candidates);
    row("task23", "xeon16 modeled", t23_mimd, true,
        t23_mimd.back().task23.halo_candidates);

    if (n == 3000) {
      const double base = t23_mimd[0].modeled_ms;
      const double shard = t23_mimd[2].modeled_ms;
      headline_speedup = shard > 0.0 ? base / shard : 0.0;
    }
  }

  std::printf("== Sector-sharding ablation: %s ==\n", scenario.name.c_str());
  std::printf("%s\n", scenario.description.c_str());
  std::printf("Task 1 sums %d consecutive periods; Tasks 2+3 take the best "
              "of %d runs.\n\n",
              task1_periods, task23_reps);
  std::cout << table;

  std::printf("\ntask outcomes identical across sector counts: %s\n",
              outcomes_match ? "yes" : "NO — SHARDING BUG");
  const bool json_ok = report.write();
  if (!outcomes_match || !json_ok) return 1;
  if (smoke) {
    std::printf("smoke mode: end-to-end check only, no speedup gate.\n");
    return 0;
  }
  std::printf("%s @ 3000 aircraft: modeled 16-core Xeon Tasks 2+3 speedup "
              "at 4x4 sectors: %.2fx\n",
              scenario.name.c_str(), headline_speedup);
  std::cout << "\nObservation: sharding removes the per-record lock traffic "
               "on the shared flight\ndatabase — each sector gathers a "
               "snapshot, scans lock-free, and the contention\nterm that "
               "makes the paper's multi-core curve super-linear falls out "
               "of the\nmodeled time. The halos buy that locality at a "
               "small ghost-copy cost.\n";
  return headline_speedup >= 1.5 ? 0 : 1;
}
