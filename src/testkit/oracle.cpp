#include "src/testkit/oracle.hpp"

#include <cmath>
#include <memory>
#include <numeric>
#include <sstream>
#include <utility>

#include "src/atm/extended/full_pipeline.hpp"
#include "src/atm/platforms.hpp"
#include "src/atm/reference/collision.hpp"
#include "src/atm/reference_backend.hpp"
#include "src/core/spatial/swept_index.hpp"

namespace atm::testkit {

namespace {

/// Salt for the permutation stream (independent of the forge stream).
constexpr std::uint64_t kPermuteSalt = 0x9E3779B97F4A7C15ULL;

void diverge(OracleReport& report, const std::string& where,
             std::string detail) {
  report.divergences.push_back(Divergence{where, std::move(detail)});
}

/// One leg of the host matrix.
struct HostLeg {
  bool mimd = false;
  core::kern::KernelMode kernel = core::kern::KernelMode::kScalar;
  core::spatial::BroadphaseMode broadphase =
      core::spatial::BroadphaseMode::kBruteForce;
  core::spatial::ShardMode shard = core::spatial::ShardMode::kNone;
  int sectors_per_axis = 0;

  [[nodiscard]] std::string label() const {
    std::ostringstream out;
    out << (mimd ? "mimd" : "reference") << '/'
        << (kernel == core::kern::KernelMode::kAvx2 ? "avx2" : "scalar")
        << '/'
        << (broadphase == core::spatial::BroadphaseMode::kGrid ? "grid"
                                                               : "brute")
        << '/';
    if (shard == core::spatial::ShardMode::kNone) {
      out << "unsharded";
    } else {
      out << sectors_per_axis << 'x' << sectors_per_axis;
    }
    return out.str();
  }
};

/// The matrix config: the forged scenario with the governor disabled and
/// the leg's execution axes substituted. Sensor faults stay as forged
/// (deterministic and identical for every leg); governor and stolen time
/// are forced off because the host backends' modeled times are measured
/// wall times — any timing feedback would make legs diverge for
/// scheduling reasons, not semantic ones.
tasks::PipelineConfig leg_config(const ForgedCase& c, const HostLeg& leg) {
  tasks::PipelineConfig cfg = pipeline_config(c);
  cfg.governor = rt::GovernorConfig{};
  cfg.faults.stolen_time_probability = 0.0;
  cfg.faults.stolen_time_ms = 0.0;
  cfg.task1.kernel = leg.kernel;
  cfg.task23.kernel = leg.kernel;
  cfg.task1.broadphase = leg.broadphase;
  cfg.task23.broadphase = leg.broadphase;
  cfg.task1.shard = leg.shard;
  cfg.task23.shard = leg.shard;
  if (leg.shard == core::spatial::ShardMode::kSectors) {
    cfg.task1.sectors_per_axis = leg.sectors_per_axis;
    cfg.task23.sectors_per_axis = leg.sectors_per_axis;
  }
  return cfg;
}

template <typename T>
bool compare_series(const std::string& where, const char* what,
                    const std::vector<T>& got, const std::vector<T>& want,
                    OracleReport& report) {
  if (got == want) return true;
  std::ostringstream out;
  out << what << " differs";
  if (got.size() != want.size()) {
    out << " (size " << got.size() << " vs " << want.size() << ")";
  } else {
    for (std::size_t i = 0; i < got.size(); ++i) {
      if (!(got[i] == want[i])) {
        out << " (first at index " << i << ")";
        break;
      }
    }
  }
  diverge(report, where, out.str());
  return false;
}

}  // namespace

std::string OracleReport::to_string() const {
  std::ostringstream out;
  for (const Divergence& d : divergences) {
    out << d.where << ": " << d.detail << '\n';
  }
  return out.str();
}

bool compare_runs(const std::string& where,
                  const tasks::PipelineResult& got,
                  const airfield::FlightDb& got_state,
                  const tasks::PipelineResult& want,
                  const airfield::FlightDb& want_state,
                  OracleReport& report) {
  const std::size_t before = report.divergences.size();

  if (got.periods.size() != want.periods.size()) {
    std::ostringstream out;
    out << "period count " << got.periods.size() << " vs "
        << want.periods.size();
    diverge(report, where, out.str());
  } else {
    for (std::size_t i = 0; i < got.periods.size(); ++i) {
      if (got.periods[i].wrapped != want.periods[i].wrapped ||
          got.periods[i].task23_ran != want.periods[i].task23_ran) {
        std::ostringstream out;
        out << "period " << i << " wrapped/task23_ran "
            << got.periods[i].wrapped << '/' << got.periods[i].task23_ran
            << " vs " << want.periods[i].wrapped << '/'
            << want.periods[i].task23_ran;
        diverge(report, where, out.str());
        break;
      }
    }
  }

  if (got.last_task1.outcome() != want.last_task1.outcome()) {
    std::ostringstream out;
    out << "task1 outcome: " << got.last_task1.outcome() << " vs "
        << want.last_task1.outcome();
    diverge(report, where, out.str());
  }
  if (got.last_task23.outcome() != want.last_task23.outcome()) {
    std::ostringstream out;
    out << "task23 outcome: " << got.last_task23.outcome() << " vs "
        << want.last_task23.outcome();
    diverge(report, where, out.str());
  }

  if (!got_state.same_flight_state(want_state)) {
    diverge(report, where,
            "flight state (x/y/dx/dy/alt) is not bit-identical");
  }
  compare_series(where, "col", got_state.col, want_state.col, report);
  compare_series(where, "col_with", got_state.col_with, want_state.col_with,
                 report);
  compare_series(where, "time_till", got_state.time_till,
                 want_state.time_till, report);
  compare_series(where, "rmatch", got_state.rmatch, want_state.rmatch,
                 report);

  return report.divergences.size() == before;
}

namespace {

void check_host_matrix(const ForgedCase& c,
                       const tasks::PipelineResult& base,
                       const airfield::FlightDb& base_state,
                       tasks::ReferenceBackend& ref, tasks::Backend& mimd,
                       OracleReport& report) {
  constexpr core::kern::KernelMode kKernels[] = {
      core::kern::KernelMode::kScalar, core::kern::KernelMode::kAvx2};
  constexpr core::spatial::BroadphaseMode kBroadphases[] = {
      core::spatial::BroadphaseMode::kBruteForce,
      core::spatial::BroadphaseMode::kGrid};
  constexpr int kShardAxes[] = {0, 2, 4};  // 0 = unsharded

  for (const bool mimd_leg : {false, true}) {
    for (const core::kern::KernelMode kernel : kKernels) {
      for (const core::spatial::BroadphaseMode broadphase : kBroadphases) {
        for (const int per_axis : kShardAxes) {
          HostLeg leg;
          leg.mimd = mimd_leg;
          leg.kernel = kernel;
          leg.broadphase = broadphase;
          leg.shard = per_axis == 0 ? core::spatial::ShardMode::kNone
                                    : core::spatial::ShardMode::kSectors;
          leg.sectors_per_axis = per_axis;
          if (!mimd_leg && kernel == core::kern::KernelMode::kScalar &&
              broadphase == core::spatial::BroadphaseMode::kBruteForce &&
              per_axis == 0) {
            continue;  // that leg IS the baseline
          }
          tasks::Backend& backend = mimd_leg
                                        ? mimd
                                        : static_cast<tasks::Backend&>(ref);
          backend.load(c.db);
          const tasks::PipelineResult result =
              tasks::run_pipeline(backend, leg_config(c, leg));
          ++report.runs;
          compare_runs(leg.label(), result, backend.state(), base,
                       base_state, report);
        }
      }
    }
  }
}

void check_platform_backends(const ForgedCase& c,
                             const tasks::PipelineResult& base,
                             const airfield::FlightDb& base_state,
                             OracleReport& report) {
  struct NamedFactory {
    const char* label;
    std::unique_ptr<tasks::Backend> (*make)();
  };
  const NamedFactory kPlatforms[] = {
      {"staran", &tasks::make_staran},
      {"clearspeed", &tasks::make_clearspeed},
      {"vector", &tasks::make_xeon_phi},
  };
  // Platform backends model all-pairs hardware and ignore the host-path
  // axes, so they run the baseline configuration.
  HostLeg baseline_leg;
  const tasks::PipelineConfig cfg = leg_config(c, baseline_leg);
  for (const NamedFactory& platform : kPlatforms) {
    std::unique_ptr<tasks::Backend> backend = platform.make();
    backend->load(c.db);
    const tasks::PipelineResult result = tasks::run_pipeline(*backend, cfg);
    ++report.runs;
    compare_runs(platform.label, result, backend->state(), base, base_state,
                 report);
  }
}

/// Aircraft-permutation invariance: detection/resolution outcomes must
/// not depend on record order. Conflict flags, soonest-conflict times,
/// and post-commit paths are compared through the permutation; col_with
/// is excluded by design — its (time, lowest id) tie-break legitimately
/// picks a different partner under relabeling when two partners tie.
void check_permutation(const ForgedCase& c, OracleReport& report) {
  const std::size_t n = c.db.size();
  if (n < 2) return;

  core::Rng rng(c.seed ^ kPermuteSalt);
  std::vector<std::size_t> perm(n);
  std::iota(perm.begin(), perm.end(), std::size_t{0});
  for (std::size_t i = n - 1; i > 0; --i) {
    const std::size_t j = rng.uniform_u64(0, i);
    std::swap(perm[i], perm[j]);
  }

  airfield::FlightDb original = c.db;
  airfield::FlightDb permuted(n);
  for (std::size_t slot = 0; slot < n; ++slot) {
    const std::size_t i = perm[slot];  // permuted[slot] = original[i]
    permuted.x[slot] = c.db.x[i];
    permuted.y[slot] = c.db.y[i];
    permuted.dx[slot] = c.db.dx[i];
    permuted.dy[slot] = c.db.dy[i];
    permuted.alt[slot] = c.db.alt[i];
  }

  const tasks::Task23Stats stats_a =
      tasks::reference::detect_and_resolve(original, c.scenario.task23);
  const tasks::Task23Stats stats_b =
      tasks::reference::detect_and_resolve(permuted, c.scenario.task23);
  report.runs += 2;

  if (stats_a.outcome() != stats_b.outcome()) {
    std::ostringstream out;
    out << "outcome counters change under permutation: "
        << stats_a.outcome() << " vs " << stats_b.outcome();
    diverge(report, "permutation", out.str());
  }
  for (std::size_t slot = 0; slot < n; ++slot) {
    const std::size_t i = perm[slot];
    if (permuted.col[slot] != original.col[i] ||
        permuted.time_till[slot] != original.time_till[i] ||
        permuted.dx[slot] != original.dx[i] ||
        permuted.dy[slot] != original.dy[i]) {
      std::ostringstream out;
      out << "aircraft " << i << " (slot " << slot
          << ") changes outcome under permutation";
      diverge(report, "permutation", out.str());
      break;
    }
  }
}

/// Broadphase-pruning soundness: any partner the brute-force scan finds
/// must be enumerated by the swept index for the same track — the
/// index's exactness contract, checked against forged geometry instead
/// of only the curated scenarios.
void check_broadphase_soundness(const ForgedCase& c, OracleReport& report) {
  const airfield::FlightDb& db = c.db;
  if (db.size() < 2) return;
  core::spatial::SweptIndex index;
  tasks::reference::build_swept_index(db, c.scenario.task23, index);

  for (std::size_t i = 0; i < db.size(); ++i) {
    tasks::reference::ScanWork work;
    const tasks::reference::DetectOutcome brute =
        tasks::reference::scan_against_all(db, i, db.dx[i], db.dy[i],
                                           c.scenario.task23, work);
    if (!brute.conflict) continue;
    const double speed = std::hypot(db.dx[i], db.dy[i]);
    bool found = false;
    index.for_each_candidate(
        db.x[i], db.y[i], db.alt[i], speed, [&](std::size_t j) {
          if (j == static_cast<std::size_t>(brute.partner)) {
            found = true;
            return true;
          }
          return false;
        });
    if (!found) {
      std::ostringstream out;
      out << "swept index prunes aircraft " << brute.partner
          << ", the brute-force soonest conflict of aircraft " << i;
      diverge(report, "broadphase-soundness", out.str());
      return;
    }
  }
  ++report.runs;
}

/// The extended executive (display, terrain, advisory, sporadic mix):
/// reference vs MIMD on outcome level. run_full_system generates its own
/// airfield from the scenario setup, so this leg exercises the forged
/// *parameters* (including the sporadic-query mix) rather than the
/// forged fleet.
void check_full_system(const ForgedCase& c, tasks::ReferenceBackend& ref,
                       tasks::Backend& mimd, OracleReport& report) {
  tasks::extended::FullSystemConfig cfg =
      tasks::make_full_config(c.scenario, c.major_cycles, c.seed);
  cfg.governor = rt::GovernorConfig{};
  cfg.faults.stolen_time_probability = 0.0;
  cfg.faults.stolen_time_ms = 0.0;

  const tasks::extended::FullSystemResult a =
      tasks::extended::run_full_system(ref, cfg);
  const tasks::extended::FullSystemResult b =
      tasks::extended::run_full_system(mimd, cfg);
  report.runs += 2;

  const std::string where = "full-system";
  if (a.last_task1.outcome() != b.last_task1.outcome()) {
    diverge(report, where, "task1 outcome counters differ");
  }
  if (a.last_task23.outcome() != b.last_task23.outcome()) {
    diverge(report, where, "task23 outcome counters differ");
  }
  if (!(a.last_terrain == b.last_terrain)) {
    diverge(report, where, "terrain stats differ");
  }
  if (!(a.last_display == b.last_display)) {
    diverge(report, where, "display stats differ");
  }
  if (!(a.last_advisory == b.last_advisory)) {
    diverge(report, where, "advisory stats differ");
  }
  if (!(a.last_sporadic == b.last_sporadic)) {
    std::ostringstream out;
    out << "sporadic stats differ: queries " << a.last_sporadic.queries
        << " vs " << b.last_sporadic.queries << ", hits "
        << a.last_sporadic.hits << " vs " << b.last_sporadic.hits;
    diverge(report, where, out.str());
  }
  if (a.sporadic_shed != b.sporadic_shed) {
    diverge(report, where, "sporadic shed counts differ");
  }
  if (!ref.state().same_flight_state(mimd.state())) {
    diverge(report, where, "flight state diverged after the full system");
  }
}

}  // namespace

OracleReport check_case(const ForgedCase& c, const OracleOptions& options) {
  OracleReport report;

  // Baseline: sequential reference, scalar kernel, brute force, unsharded.
  tasks::ReferenceBackend ref;
  std::unique_ptr<tasks::Backend> mimd = tasks::make_xeon();
  HostLeg baseline_leg;
  ref.load(c.db);
  const tasks::PipelineResult base =
      tasks::run_pipeline(ref, leg_config(c, baseline_leg));
  const airfield::FlightDb base_state = ref.state();
  ++report.runs;

  if (options.host_matrix) {
    check_host_matrix(c, base, base_state, ref, *mimd, report);
  }
  if (options.platform_backends) {
    check_platform_backends(c, base, base_state, report);
  }
  if (options.metamorphic) {
    check_permutation(c, report);
    check_broadphase_soundness(c, report);
  }
  if (options.full_system) {
    check_full_system(c, ref, *mimd, report);
  }
  return report;
}

}  // namespace atm::testkit
