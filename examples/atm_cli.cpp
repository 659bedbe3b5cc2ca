// atm_cli — drive the whole library from the command line.
//
//   $ ./atm_cli --platform titanx --scenario dense-en-route --cycles 2
//   $ ./atm_cli --platform staran --aircraft 4000 --multi-radar
//   $ ./atm_cli --list
//
// Options:
//   --list                 print platforms and scenarios, then exit
//   --list-scenarios       print the scenario registry (one line each)
//   --platform NAME        9800gt | 880m | titanx | staran | clearspeed |
//                          xeon | phi | reference        (default titanx)
//   --scenario NAME        one of the preset scenarios    (default paper-airfield)
//   --aircraft N           override the scenario's fleet size
//   --cycles N             major cycles to run            (default 1)
//   --seed N               simulation seed                (default 42)
//   --broadphase MODE      brute | grid: host-path candidate enumeration
//                          for Task 1 and Tasks 2+3 (default: scenario's;
//                          outcomes identical either way)
//   --shard MODE           none | sectors: host-path sector sharding —
//                          sectors runs Task 1 and Tasks 2+3 per airfield
//                          sector on the thread pool (default: scenario's;
//                          outcomes identical either way)
//   --sectors N            sectors per axis in sectors mode (default 4)
//   --kernel MODE          auto | scalar | avx2: host-path batch kernel
//                          for Task 1 and Tasks 2+3 (default auto = AVX2
//                          when the build and CPU provide it; outcomes
//                          bit-identical either way)
//   --governor             enable the deadline-aware overload governor
//                          (degrades along tasks::degradation_ladder()
//                          under sustained overload, recovers with
//                          hysteresis; transitions appear in --trace)
//   --faults               enable a representative seeded fault mix:
//                          radar dropout bursts, ghost returns, noise
//                          bursts, and stolen host time
//   --multi-radar          use the multi-tower radar environment
//   --full                 run the complete ATM system (terrain, display,
//                          advisory, sporadic) instead of the core tasks
//   --retrace ID           after the run, print aircraft ID's last 16
//                          recorded positions
//   --trace FILE.jsonl     write one JSONL trace event per line (spans,
//                          tasks, deadline outcomes); summarize with
//                          tools/trace_summary.py
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <memory>

#include "src/airfield/history.hpp"
#include "src/atm/extended/full_pipeline.hpp"
#include "src/atm/pipeline.hpp"
#include "src/atm/platforms.hpp"
#include "src/atm/scenarios.hpp"
#include "src/core/kern/kernels.hpp"
#include "src/core/spatial/broadphase.hpp"
#include "src/core/table.hpp"
#include "src/obs/jsonl_sink.hpp"

namespace {

using namespace atm;

std::unique_ptr<tasks::Backend> make_platform(const std::string& key) {
  if (key == "9800gt") return tasks::make_geforce_9800_gt();
  if (key == "880m") return tasks::make_gtx_880m();
  if (key == "titanx") return tasks::make_titan_x_pascal();
  if (key == "staran") return tasks::make_staran();
  if (key == "clearspeed") return tasks::make_clearspeed();
  if (key == "xeon") return tasks::make_xeon();
  if (key == "phi") return tasks::make_xeon_phi();
  if (key == "reference") return tasks::make_reference();
  return nullptr;
}

void list_options() {
  std::cout << "platforms:\n  9800gt 880m titanx staran clearspeed xeon "
               "phi reference\n\nscenarios:\n";
  for (const tasks::Scenario& s : tasks::all_scenarios()) {
    std::cout << "  " << s.name << " (default " << s.default_aircraft
              << " aircraft)\n      " << s.description << "\n";
  }
}

// One line per registry entry: the name column is driven by
// scenario_names() so the listing and the lookup can never drift apart.
void list_scenarios() {
  for (const std::string& name : tasks::scenario_names()) {
    tasks::Scenario s;
    if (!tasks::scenario_by_name(name, s)) continue;
    std::cout << name << " — " << s.description << "\n";
  }
}

// The --faults preset: every injector feature at a rate high enough to
// be visible in a short run but low enough that tracking survives.
atm::rt::FaultConfig representative_faults() {
  atm::rt::FaultConfig f;
  f.enabled = true;
  f.dropout_burst_probability = 0.05;
  f.dropout_fraction = 0.25;
  f.ghost_probability = 0.01;
  f.noise_burst_probability = 0.05;
  f.noise_burst_nm = 1.0;
  f.stolen_time_probability = 0.10;
  f.stolen_time_ms = 50.0;
  return f;
}

}  // namespace

int main(int argc, char** argv) {
  std::string platform_key = "titanx";
  std::string scenario_key = "paper-airfield";
  std::size_t aircraft_override = 0;
  int cycles = 1;
  std::uint64_t seed = 42;
  bool multi_radar = false;
  bool full_system = false;
  int retrace_id = -1;
  std::string trace_path;
  std::string broadphase_key;
  std::string shard_key;
  std::string kernel_key;
  int sectors_per_axis = 0;
  bool governor = false;
  bool faults = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : "";
    };
    if (arg == "--list") {
      list_options();
      return 0;
    } else if (arg == "--list-scenarios") {
      list_scenarios();
      return 0;
    } else if (arg == "--governor") {
      governor = true;
    } else if (arg == "--faults") {
      faults = true;
    } else if (arg == "--platform") {
      platform_key = next();
    } else if (arg == "--scenario") {
      scenario_key = next();
    } else if (arg == "--aircraft") {
      aircraft_override = static_cast<std::size_t>(std::atoll(next()));
    } else if (arg == "--cycles") {
      cycles = std::atoi(next());
    } else if (arg == "--seed") {
      seed = static_cast<std::uint64_t>(std::atoll(next()));
    } else if (arg == "--broadphase") {
      broadphase_key = next();
    } else if (arg.rfind("--broadphase=", 0) == 0) {
      broadphase_key = arg.substr(std::strlen("--broadphase="));
    } else if (arg == "--shard") {
      shard_key = next();
    } else if (arg.rfind("--shard=", 0) == 0) {
      shard_key = arg.substr(std::strlen("--shard="));
    } else if (arg == "--kernel") {
      kernel_key = next();
    } else if (arg.rfind("--kernel=", 0) == 0) {
      kernel_key = arg.substr(std::strlen("--kernel="));
    } else if (arg == "--sectors") {
      sectors_per_axis = std::atoi(next());
    } else if (arg == "--multi-radar") {
      multi_radar = true;
    } else if (arg == "--full") {
      full_system = true;
    } else if (arg == "--retrace") {
      retrace_id = std::atoi(next());
    } else if (arg == "--trace") {
      trace_path = next();
      if (trace_path.empty()) {
        std::cerr << "--trace needs a file path\n";
        return 2;
      }
    } else {
      std::cerr << "unknown option " << arg << " (try --list)\n";
      return 2;
    }
  }

  auto backend = make_platform(platform_key);
  if (backend == nullptr) {
    std::cerr << "unknown platform '" << platform_key << "' (try --list)\n";
    return 2;
  }
  tasks::Scenario chosen;
  if (!tasks::scenario_by_name(scenario_key, chosen)) {
    std::cerr << "unknown scenario '" << scenario_key << "' (try --list)\n";
    return 2;
  }
  if (!broadphase_key.empty()) {
    const auto mode = core::spatial::parse_broadphase(broadphase_key);
    if (!mode.has_value()) {
      std::cerr << "unknown broadphase '" << broadphase_key
                << "' (use brute or grid)\n";
      return 2;
    }
    chosen.policy.broadphase = *mode;
  }
  if (!shard_key.empty()) {
    const auto mode = core::spatial::parse_shard_mode(shard_key);
    if (!mode.has_value()) {
      std::cerr << "unknown shard mode '" << shard_key
                << "' (use none or sectors)\n";
      return 2;
    }
    chosen.policy.shard = *mode;
  }
  if (!kernel_key.empty()) {
    core::kern::KernelMode mode;
    if (!core::kern::kernel_mode_from_string(kernel_key, mode)) {
      std::cerr << "unknown kernel '" << kernel_key
                << "' (use auto, scalar, or avx2)\n";
      return 2;
    }
    chosen.policy.kernel = mode;
  }
  if (sectors_per_axis > 0) chosen.policy.sectors_per_axis = sectors_per_axis;
  if (governor) chosen.policy.governor.enabled = true;
  if (faults) chosen.policy.faults = representative_faults();

  std::cout << "platform : " << backend->name() << "\n"
            << "scenario : " << chosen.name << "\n"
            << "broadphase : "
            << core::spatial::to_string(chosen.policy.broadphase) << "\n"
            << "shard    : " << core::spatial::to_string(chosen.policy.shard);
  if (chosen.policy.shard == core::spatial::ShardMode::kSectors) {
    std::cout << " (" << chosen.policy.sectors_per_axis << "x"
              << chosen.policy.sectors_per_axis << ")";
  }
  std::cout << "\n"
            << "kernel   : "
            << core::kern::to_string(
                   core::kern::resolve(chosen.policy.kernel))
            << "\n";
  if (governor) std::cout << "governor : enabled\n";
  if (faults) std::cout << "faults   : enabled (seeded)\n";

  std::unique_ptr<obs::JsonlTraceSink> trace;
  if (!trace_path.empty()) {
    trace = std::make_unique<obs::JsonlTraceSink>(trace_path);
    if (!trace->ok()) {
      std::cerr << "cannot open trace file " << trace_path << "\n";
      return 2;
    }
  }

  // Both executives run on one period loop and read the same config
  // fields; the full system's config and result extend the pipeline's.
  tasks::extended::FullSystemConfig cfg =
      tasks::make_full_config(chosen, cycles, seed);
  if (aircraft_override > 0) cfg.aircraft = aircraft_override;
  cfg.multi_radar = multi_radar;
  std::cout << "aircraft : " << cfg.aircraft << "\nmode     : "
            << (!full_system  ? "core tasks"
                : multi_radar ? "complete ATM system + multi-tower radar"
                              : "complete ATM system")
            << "\n\n";
  airfield::FlightRecorder recorder(cfg.aircraft, 16 * std::max(1, cycles));
  cfg.recorder = &recorder;
  cfg.trace = trace.get();
  tasks::extended::FullSystemResult result;
  if (full_system) {
    result = tasks::extended::run_full_system(*backend, cfg);
  } else {
    static_cast<tasks::PipelineResult&>(result) =
        tasks::run_pipeline(*backend, cfg);
  }
  std::cout << result.deadlines().summary() << "\n";
  if (governor) {
    std::cout << "governor : " << result.governor_degrades << " degrades, "
              << result.governor_recovers << " recovers, final level "
              << result.final_governor_level
              << (full_system ? ", " + std::to_string(result.sporadic_shed) +
                                    " query batches shed\n"
                              : "\n");
  }

  if (retrace_id >= 0) {
    std::cout << "retrace of aircraft " << retrace_id
              << " (last 16 periods):\n";
    core::TextTable track({"period", "x [nm]", "y [nm]", "alt [ft]"});
    for (const airfield::TrackPoint& p :
         recorder.retrace(retrace_id, 16)) {
      track.begin_row();
      track.add_cell(static_cast<long long>(p.period));
      track.add_cell(p.x, 3);
      track.add_cell(p.y, 3);
      track.add_cell(p.alt, 0);
    }
    std::cout << track;
  }
  const auto bad = result.missed_or_skipped();
  std::cout << (bad == 0 ? "all deadlines met\n"
                         : std::to_string(bad) + " missed/skipped\n");
  return bad == 0 ? 0 : 1;
}
