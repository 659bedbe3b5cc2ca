// bench_atm: period-latency benchmark of the host executive (README.md).
//
//   bench_atm --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//             [--trace-dir DIR] [--smoke] [--expected FILE] [--list]
//
// Each workload runs the real executive (tasks::run_pipeline or
// extended::run_full_system) on the virtual clock over a TimedBackend.
// A run is a sequence of chunks; a chunk is one whole executive run
// (backend construction, airfield, load, kChunkCycles major cycles) on
// its own seed derived from --seed, preceded by set-up-only runs that add
// set-up samples; the run stops at the last chunk that fits in --seconds.
// A first one-cycle chunk is the warm-up: it is left out of the metrics
// and is re-run on the sequential reference oracle.
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones:
// untraced and traced chunks alternate over the same seeds, the traced
// ones write a JSONL executive trace and bench spans to --trace-dir, and
// the layer probes run on states the first traced chunk captured.
//
// The last stdout line is {"correct", "attempted", "failed", "metrics"};
// the line before it carries digests and check results.
#include <sched.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/e2e/probes.hpp"
#include "bench/e2e/report.hpp"
#include "bench/e2e/timed_backend.hpp"
#include "src/atm/extended/full_pipeline.hpp"
#include "src/atm/mimd_backend.hpp"
#include "src/atm/pipeline.hpp"
#include "src/atm/reference_backend.hpp"
#include "src/atm/scenarios.hpp"
#include "src/core/stats.hpp"
#include "src/obs/jsonl_sink.hpp"

// Defined by the runtime of every sanitizer (ASan, TSan, UBSan), however
// its -fsanitize flag reached the build; null in an unsanitized binary.
extern "C" void __sanitizer_set_report_path(const char* path)
    __attribute__((weak));

namespace {

using namespace bench_atm;
namespace tasks = atm::tasks;
namespace spatial = atm::core::spatial;

/// Full runs time only optimized builds without sanitizers.
bool release_build() {
#if defined(NDEBUG)
  return &__sanitizer_set_report_path == nullptr;
#else
  return false;
#endif
}

constexpr int kChunkCycles = 8;
/// Set-up samples per chunk: its own plus set-up-only executive runs.
constexpr int kSetupsPerChunk = 5;
constexpr int kSmokeCycles = 3;
constexpr std::size_t kSmokeAircraftDivisor = 10;
/// Checked-in digests are for this seed.
constexpr std::uint64_t kDigestSeed = 42;

enum class Host { kReference, kMimd };
enum class Executive { kPipeline, kFullSystem };

struct Workload {
  std::string name;
  std::string why;
  tasks::Scenario scenario;  ///< Fleet size in scenario.default_aircraft.
  Host host;
  Executive executive;
};

/// The four workloads. Execution knobs go through Scenario::policy only.
std::vector<Workload> workloads() {
  std::vector<Workload> out;

  tasks::Scenario ref = tasks::dense_en_route();
  ref.default_aircraft = 3000;
  out.push_back({"enroute-3k-ref",
                 "the paper's algorithm on the sequential host reference; "
                 "the brute n^2 band scan of Tasks 2+3 dominates",
                 ref, Host::kReference, Executive::kPipeline});

  tasks::Scenario sharded = tasks::dense_en_route();
  sharded.default_aircraft = 6000;
  sharded.policy.broadphase = spatial::BroadphaseMode::kGrid;
  sharded.policy.shard = spatial::ShardMode::kSectors;
  sharded.policy.sectors_per_axis = 4;
  out.push_back({"enroute-6k-sharded",
                 "fastest host configuration at 6000 aircraft: index "
                 "builds, sector gathers and pool fork/join dominate",
                 sharded, Host::kMimd, Executive::kPipeline});

  tasks::Scenario full = tasks::paper_airfield();
  full.default_aircraft = 1200;
  out.push_back({"fullsys-1200-multiradar",
                 "the Section 7.2 full-system executive with multi-tower "
                 "radar; multi-return Task 1 dominates",
                 full, Host::kMimd, Executive::kFullSystem});

  tasks::Scenario governed = tasks::dense_en_route();
  governed.default_aircraft = 3000;
  governed.policy.governor.enabled = true;
  atm::rt::FaultConfig& faults = governed.policy.faults;
  faults.enabled = true;
  faults.dropout_burst_probability = 0.2;
  faults.ghost_probability = 0.01;
  faults.noise_burst_probability = 0.2;
  faults.stolen_time_probability = 0.3;
  faults.stolen_time_ms = 250.0;
  out.push_back({"enroute-3k-governed-faults",
                 "overload and degraded sensing: retries, governor "
                 "transitions and real deadline misses",
                 governed, Host::kMimd, Executive::kPipeline});
  return out;
}

struct Options {
  std::string workload;
  std::uint64_t seed = kDigestSeed;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_dir = ".bench_build/trace";
  bool smoke = false;
  std::string expected = BENCH_ATM_DIR "/expected_digests.txt";
  bool list = false;
};

[[noreturn]] void usage_error(const std::string& message) {
  std::cerr << "bench_atm: " << message
            << "\nusage: bench_atm --workload <name> [--seed N] "
               "[--seconds S] [--trace 0|1] [--trace-dir DIR] [--smoke] "
               "[--expected FILE] [--list]\n";
  std::exit(2);
}

Options parse_options(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage_error(arg + " needs a value");
      return argv[++i];
    };
    try {
      if (arg == "--workload") {
        opt.workload = value();
      } else if (arg == "--seed") {
        opt.seed = std::stoull(value());
      } else if (arg == "--seconds") {
        opt.seconds = std::stod(value());
      } else if (arg == "--trace") {
        const std::string v = value();
        if (v != "0" && v != "1") usage_error("--trace takes 0 or 1");
        opt.trace = v == "1";
      } else if (arg == "--trace-dir") {
        opt.trace_dir = value();
      } else if (arg == "--expected") {
        opt.expected = value();
      } else if (arg == "--smoke") {
        opt.smoke = true;
      } else if (arg == "--list") {
        opt.list = true;
      } else {
        usage_error("unknown argument " + arg);
      }
    } catch (const std::logic_error&) {
      usage_error("bad value for " + arg);
    }
  }
  if (!opt.list && opt.workload.empty()) usage_error("--workload is required");
  if (!(opt.seconds > 0.0)) usage_error("--seconds must be positive");
  return opt;
}

/// CPUs this process may run on (what nproc prints).
unsigned host_threads() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    return static_cast<unsigned>(std::max(1, CPU_COUNT(&set)));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

std::uint64_t chunk_seed(std::uint64_t seed, int chunk) {
  return atm::core::SplitMix64(seed + 0x9E3779B97F4A7C15ULL *
                                          static_cast<std::uint64_t>(chunk))
      .next();
}

double median(std::vector<double> values) {
  return atm::core::percentile_of(std::move(values), 50.0);
}

// ---------------------------------------------------------------------------
// One chunk: one whole executive run.

enum class Wrap {
  kTimed,   ///< The workload's backend under the decorator.
  kBare,    ///< The workload's backend alone (decorator transparency).
  kOracle,  ///< The sequential reference, replaying modeled times.
};

struct ChunkSpec {
  std::uint64_t seed = 0;
  int cycles = 0;
  atm::obs::TraceSink* trace = nullptr;
  std::vector<std::size_t> capture_periods;
  const std::vector<double>* replay = nullptr;
};

struct Chunk {
  RunLog log;
  /// Digests of what the executive itself returned: outcomes (deadline
  /// ledger, governor, final state) and modeled durations.
  Digest result_outcome;
  Digest result_modeled;
  std::uint64_t scheduled = 0;
  std::uint64_t met = 0;
  std::uint64_t skipped_task1 = 0;
  std::uint64_t skipped_task23 = 0;
  std::uint64_t skipped_total = 0;
  double governor_level_sum = 0.0;
  std::uint64_t governor_transitions = 0;
  std::uint64_t steals = 0;
};

/// Forwards every event but backend task events (see TimedBackend).
class DropTaskEvents final : public atm::obs::TraceSink {
 public:
  explicit DropTaskEvents(atm::obs::TraceSink& out) : out_(out) {}
  void record(const atm::obs::TraceEvent& event) override {
    if (event.kind != atm::obs::EventKind::kTask) out_.record(event);
  }
  void flush() override { out_.flush(); }

 private:
  atm::obs::TraceSink& out_;
};

void fold_ledger(Chunk& c, const atm::rt::DeadlineMonitor& monitor) {
  c.met = monitor.total_met();
  c.skipped_total = monitor.total_skipped();
  c.scheduled = c.met + monitor.total_missed() + c.skipped_total;
  for (const std::uint64_t v :
       {c.met, monitor.total_missed(), monitor.total_skipped()}) {
    c.result_outcome.add(v);
  }
}

Chunk run_chunk(const Workload& w, const ChunkSpec& spec, Wrap wrap,
                unsigned pool_workers) {
  Chunk c;
  c.log.capture_periods = spec.capture_periods;
  c.log.entry_ns = now_ns();
  std::unique_ptr<tasks::Backend> inner;
  if (wrap == Wrap::kOracle || w.host == Host::kReference) {
    inner = std::make_unique<tasks::ReferenceBackend>();
  } else {
    inner = std::make_unique<tasks::MimdBackend>(atm::mimd::paper_xeon_spec(),
                                                 pool_workers);
  }
  std::unique_ptr<TimedBackend> timed;
  tasks::Backend* backend = inner.get();
  if (wrap != Wrap::kBare) {
    const Call boundary = w.executive == Executive::kPipeline
                              ? Call::kRadar
                              : Call::kMultiTask1;
    timed = std::make_unique<TimedBackend>(std::move(inner), boundary, c.log,
                                           spec.trace, spec.replay);
    backend = timed.get();
  }
  const auto finish = [&] {
    if (timed) {
      timed->finish_run();
    } else {
      c.log.return_ns = now_ns();
    }
  };

  if (w.executive == Executive::kPipeline) {
    tasks::PipelineConfig cfg =
        tasks::make_pipeline_config(w.scenario, spec.cycles, spec.seed);
    // run_pipeline hands its sink to the backend it calls; a decorator's
    // task events would duplicate those of the backend it wraps.
    std::optional<DropTaskEvents> filtered;
    cfg.trace = spec.trace;
    if (timed && spec.trace != nullptr) {
      cfg.trace = &filtered.emplace(*spec.trace);
    }
    const tasks::PipelineResult r = tasks::run_pipeline(*backend, cfg);
    finish();
    for (const tasks::PeriodLog& p : r.periods) {
      for (const std::uint64_t v :
           {static_cast<std::uint64_t>(p.task1_outcome),
            static_cast<std::uint64_t>(p.task23_outcome),
            static_cast<std::uint64_t>(p.task23_ran),
            static_cast<std::uint64_t>(p.wrapped),
            static_cast<std::uint64_t>(p.governor_level)}) {
        c.result_outcome.add(v);
      }
      c.result_outcome.add(p.stolen_ms);
      for (const double ms : {p.radar_ms, p.task1_ms, p.task23_ms}) {
        c.result_modeled.add(ms);
      }
      c.governor_level_sum += p.governor_level;
      if (p.stolen_ms > 0.0) ++c.steals;
    }
    c.governor_transitions = r.governor_degrades + r.governor_recovers;
    c.result_outcome.add(r.governor_degrades);
    c.result_outcome.add(r.governor_recovers);
    fold_ledger(c, r.deadlines());
    if (r.deadlines().has_task("task1")) {
      c.skipped_task1 = r.deadlines().task("task1").skipped;
    }
    if (r.deadlines().has_task("task23")) {
      c.skipped_task23 = r.deadlines().task("task23").skipped;
    }
    c.result_modeled.add(r.virtual_end_ms);
  } else {
    tasks::extended::FullSystemConfig cfg =
        tasks::make_full_config(w.scenario, spec.cycles, spec.seed);
    cfg.multi_radar = true;
    // The full-system executive has no trace wiring of its own: the
    // backend's run_* entry points emit the task events. A decorator
    // already handed the sink to the backend it wraps.
    if (!timed) backend->set_trace_sink(spec.trace);
    const tasks::extended::FullSystemResult r =
        tasks::extended::run_full_system(*backend, cfg);
    finish();
    // Governor and faults are off in the full-system workload, so every
    // period runs at level 0 and nothing is stolen.
    fold_ledger(c, r.monitor);
    for (const char* task :
         {"task1", "display", "sporadic", "advisory", "task23", "terrain"}) {
      if (!r.monitor.has_task(task)) continue;
      c.result_modeled.add(r.monitor.task(task).duration_ms.sum());
    }
    c.result_outcome.add(r.last_multi.matched_aircraft);
    c.result_outcome.add(r.last_display.handoffs);
    c.result_outcome.add(r.last_advisory.total());
    c.result_outcome.add(r.sporadic_shed);
    c.result_outcome.add(r.mean_coverage);
    c.result_modeled.add(r.virtual_end_ms);
  }
  fold_state(c.result_outcome, backend->state());
  return c;
}

/// Whether a chunk saw every period boundary and task call it should.
bool call_counts_ok(const Workload& w, const Chunk& c, int cycles) {
  const auto count = [&](Call call) {
    return c.log.call_counts[static_cast<std::size_t>(call)];
  };
  const auto periods = static_cast<std::uint64_t>(cycles * kPeriodsPerCycle);
  if (c.log.periods.size() != periods) return false;
  if (w.executive == Executive::kPipeline) {
    return count(Call::kRadar) == periods &&
           count(Call::kTask1) + c.skipped_task1 == periods &&
           count(Call::kTask23) + c.skipped_task23 ==
               static_cast<std::uint64_t>(cycles);
  }
  // Under the full system a period starts at run_multi_task1, so a skipped
  // Task 1 would merge two periods: the workload must never skip.
  return count(Call::kMultiTask1) == periods && c.skipped_total == 0;
}

// ---------------------------------------------------------------------------
// Accumulated measurements.

/// Period p of a run log, delimited by its boundary call and the next one.
struct PeriodSpan {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::size_t first_call = 0;
  std::size_t end_call = 0;
  std::int64_t call_ns = 0;  ///< Every call, radar included.
  std::int64_t task_ns = 0;  ///< ATM task calls: the period latency.
  /// Executive self time: the span minus its calls and the decorator's
  /// bookkeeping.
  std::int64_t self_ns = 0;
};

PeriodSpan period_span(const RunLog& log, std::size_t p) {
  const bool last = p + 1 == log.periods.size();
  PeriodSpan s;
  s.start_ns = log.periods[p].start_ns;
  s.end_ns = last ? log.return_ns : log.periods[p + 1].start_ns;
  s.first_call = log.periods[p].first_call;
  s.end_call = last ? log.calls.size() : log.periods[p + 1].first_call;
  for (std::size_t i = s.first_call; i < s.end_call; ++i) {
    const std::int64_t ns = log.calls[i].end_ns - log.calls[i].start_ns;
    s.call_ns += ns;
    if (log.calls[i].call != Call::kRadar) s.task_ns += ns;
  }
  s.self_ns = s.end_ns - s.start_ns - s.call_ns - log.periods[p].bench_ns;
  return s;
}

struct Samples {
  std::vector<double> setup_s;
  std::vector<double> period_ms;     ///< Periods 0-14 of each cycle.
  std::vector<double> cycle_end_ms;  ///< Period 15.
  std::vector<double> task1_ms;
  std::vector<double> task23_ms;
  std::vector<double> radar_us;
  std::vector<double> self_us;  ///< Executive self time per period.
  double wall_s = 0.0;          ///< First period start to return.
  std::uint64_t aircraft_periods = 0;
  std::uint64_t cycles = 0;
  std::uint64_t periods = 0;
  std::uint64_t scheduled = 0;
  std::uint64_t met = 0;
  std::uint64_t task1_calls = 0;
  std::uint64_t passes = 0;
  std::uint64_t box_tests = 0;
  std::uint64_t returns = 0;
  std::uint64_t matched = 0;
  std::uint64_t pair_candidates = 0;
  std::uint64_t pair_tests = 0;
  std::uint64_t rescans = 0;
  std::uint64_t critical = 0;
  std::uint64_t resolved = 0;
  std::uint64_t halo_candidates = 0;
  double governor_level_sum = 0.0;
  std::uint64_t governor_transitions = 0;
  std::uint64_t steals = 0;
  std::uint64_t task_calls = 0;  ///< ATM task calls (radar excluded).

  /// A set-up-only chunk (zero cycles) adds only its set-up time.
  void add(const Chunk& c, std::size_t aircraft) {
    const RunLog& log = c.log;
    setup_s.push_back(static_cast<double>(log.setup_end_ns - log.entry_ns) *
                      1e-9);
    const auto per_cycle = static_cast<std::size_t>(kPeriodsPerCycle);
    for (std::size_t p = 0; p < log.periods.size(); ++p) {
      const PeriodSpan span = period_span(log, p);
      const double task_ms = static_cast<double>(span.task_ns) * 1e-6;
      if (p % per_cycle == per_cycle - 1) {
        cycle_end_ms.push_back(task_ms);
      } else {
        period_ms.push_back(task_ms);
      }
      self_us.push_back(static_cast<double>(span.self_ns) * 1e-3);
    }
    for (const CallRecord& r : log.calls) {
      const double ms = static_cast<double>(r.end_ns - r.start_ns) * 1e-6;
      switch (r.call) {
        case Call::kRadar:
          radar_us.push_back(ms * 1e3);
          continue;
        case Call::kTask1:
        case Call::kMultiTask1:
          task1_ms.push_back(ms);
          ++task1_calls;
          passes += static_cast<std::uint64_t>(r.passes);
          box_tests += r.box_tests;
          returns += r.returns;
          matched += r.matched;
          break;
        case Call::kTask23:
          task23_ms.push_back(ms);
          pair_candidates += r.pair_candidates;
          pair_tests += r.pair_tests;
          rescans += r.rescans;
          critical += r.critical;
          resolved += r.resolved;
          break;
        default:
          break;
      }
      halo_candidates += r.halo_candidates;
      ++task_calls;
    }
    if (!log.periods.empty()) {
      wall_s += static_cast<double>(log.return_ns - log.periods[0].start_ns) *
                1e-9;
    }
    periods += log.periods.size();
    cycles += log.periods.size() / per_cycle;
    aircraft_periods += aircraft * log.periods.size();
    scheduled += c.scheduled;
    met += c.met;
    governor_level_sum += c.governor_level_sum;
    governor_transitions += c.governor_transitions;
    steals += c.steals;
  }
};

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Bench spans of one traced chunk: chunk -> setup, cycle -> period ->
/// call. Period spans carry self_ns (span minus calls minus bench_ns).
void record_spans(SpanLog& spans, std::uint64_t parent, const RunLog& log,
                  std::uint64_t seed) {
  const std::uint64_t chunk = spans.reserve();
  spans.add("setup", chunk, log.entry_ns, log.setup_end_ns);
  const auto per_cycle = static_cast<std::size_t>(kPeriodsPerCycle);
  std::uint64_t cycle = 0;
  for (std::size_t p = 0; p < log.periods.size(); ++p) {
    const PeriodSpan span = period_span(log, p);
    if (p % per_cycle == 0) {
      const std::size_t next = p + per_cycle;
      const std::int64_t cycle_end = next < log.periods.size()
                                         ? log.periods[next].start_ns
                                         : log.return_ns;
      cycle = spans.add("cycle", chunk, span.start_ns, cycle_end,
                        "\"cycle\":" + std::to_string(p / per_cycle));
    }
    const std::uint64_t period = spans.reserve();
    for (std::size_t i = span.first_call; i < span.end_call; ++i) {
      spans.add(to_string(log.calls[i].call), period, log.calls[i].start_ns,
                log.calls[i].end_ns);
    }
    spans.add_reserved(
        period, "period", cycle, span.start_ns, span.end_ns,
        "\"period\":" + std::to_string(p % per_cycle) +
            ",\"bench_ns\":" + std::to_string(log.periods[p].bench_ns) +
            ",\"self_ns\":" + std::to_string(span.self_ns));
  }
  spans.add_reserved(chunk, "chunk", parent, log.entry_ns, log.return_ns,
                     "\"seed\":" + std::to_string(seed));
}

/// Expected seed-42 digests: lines of `<workload> <full|smoke>
/// <outcome_digest> <modeled_digest or ->`, '#' comments.
struct Expected {
  std::string outcome;
  std::string modeled;
};

std::optional<Expected> expected_digests(const std::string& path,
                                         const std::string& workload,
                                         bool smoke) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string name;
    std::string variant;
    Expected e;
    if (!(fields >> name >> variant >> e.outcome >> e.modeled)) continue;
    if (name == workload && variant == (smoke ? "smoke" : "full")) return e;
  }
  return std::nullopt;
}

/// Peak resident set of this process image: VmHWM, which execve resets
/// (getrusage's ru_maxrss would also count the launcher that forked us).
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "VmHWM:") {
      double kib = 0.0;
      status >> kib;
      return kib / 1024.0;
    }
    status.ignore(1 << 16, '\n');
  }
  return 0.0;
}

std::string json_bool(bool v) { return v ? "true" : "false"; }

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse_options(argc, argv);
  std::vector<Workload> all = workloads();
  if (opt.list) {
    for (const Workload& w : all) {
      std::cout << w.name << ": " << w.why << '\n';
    }
    return 0;
  }
  if (!opt.smoke && !release_build()) {
    std::cerr << "bench_atm: full runs need a Release build without "
                 "sanitizers (NDEBUG set, no -fsanitize); use --smoke\n";
    return 2;
  }
  const Workload* found = nullptr;
  for (const Workload& w : all) {
    if (w.name == opt.workload) found = &w;
  }
  if (found == nullptr) usage_error("unknown workload " + opt.workload);
  Workload w = *found;
  if (opt.smoke) w.scenario.default_aircraft /= kSmokeAircraftDivisor;
  const std::size_t aircraft = w.scenario.default_aircraft;
  const int cycles = opt.smoke ? kSmokeCycles : kChunkCycles;
  // The pool's calling thread works too: workers + 1 threads in all.
  const unsigned threads = host_threads();
  const unsigned pool_workers = threads > 1 ? threads - 1 : 1;
  // The reference reports its measured host time as modeled time, so its
  // modeled digests differ between runs and are never compared.
  const bool modeled_is_host_time = w.host == Host::kReference;

  SpanLog spans(w.name + "/seed" + std::to_string(opt.seed));
  const std::uint64_t run_span = spans.reserve();
  const std::int64_t run_start = now_ns();
  std::unique_ptr<atm::obs::JsonlTraceSink> sink;
  std::string trace_path;
  if (opt.trace) {
    std::error_code ec;
    std::filesystem::create_directories(opt.trace_dir, ec);
    trace_path = opt.trace_dir + "/" + w.name + ".trace.jsonl";
    sink = std::make_unique<atm::obs::JsonlTraceSink>(trace_path);
    if (!sink->ok()) {
      std::cerr << "bench_atm: cannot open " << trace_path << '\n';
      return 2;
    }
  }

  bool counts_ok = true;
  // Warm-up: one cycle, left out of the metrics, checked by the oracle.
  const ChunkSpec warm_spec{chunk_seed(opt.seed, 0), 1, nullptr, {}, nullptr};
  const Chunk warm = run_chunk(w, warm_spec, Wrap::kTimed, pool_workers);
  counts_ok = counts_ok && call_counts_ok(w, warm, 1);

  // Measured chunks until the next one would overrun --seconds.
  Samples untraced;
  Samples traced;  // Same seeds as untraced, in --trace 1 runs.
  bool traced_match = true;
  std::vector<Capture> captures;
  std::uint64_t capture_seed = 0;
  std::string first_outcome;
  std::string first_modeled;
  Digest first_result_outcome;
  Digest first_result_modeled;
  int chunks = 0;
  const std::int64_t budget_ns =
      static_cast<std::int64_t>(opt.seconds * 1e9);
  const std::int64_t measure_start = now_ns();
  for (int k = 1;; ++k) {
    const ChunkSpec spec{chunk_seed(opt.seed, k), cycles, nullptr, {},
                         nullptr};
    // Set-up is short and its samples scatter: take more of them with
    // set-up-only executive runs (zero cycles) on the chunk's seed.
    for (int i = 1; i < kSetupsPerChunk; ++i) {
      const ChunkSpec setup_only{spec.seed, 0, nullptr, {}, nullptr};
      untraced.add(run_chunk(w, setup_only, Wrap::kTimed, pool_workers),
                   aircraft);
    }
    Chunk plain;
    if (opt.trace) {
      ChunkSpec traced_spec = spec;
      traced_spec.trace = sink.get();
      if (captures.empty()) {
        for (int cycle = 1; cycle < cycles; cycle += 2) {
          traced_spec.capture_periods.push_back(
              static_cast<std::size_t>(cycle * kPeriodsPerCycle));
        }
      }
      // Alternate which run goes first, so warm caches favour neither.
      Chunk with_trace;
      if (k % 2 == 1) {
        plain = run_chunk(w, spec, Wrap::kTimed, pool_workers);
        with_trace = run_chunk(w, traced_spec, Wrap::kTimed, pool_workers);
      } else {
        with_trace = run_chunk(w, traced_spec, Wrap::kTimed, pool_workers);
        plain = run_chunk(w, spec, Wrap::kTimed, pool_workers);
      }
      traced_match = traced_match &&
                     with_trace.log.outcome.value() ==
                         plain.log.outcome.value() &&
                     (modeled_is_host_time ||
                      with_trace.log.modeled.value() ==
                          plain.log.modeled.value());
      counts_ok = counts_ok && call_counts_ok(w, with_trace, cycles);
      traced.add(with_trace, aircraft);
      record_spans(spans, run_span, with_trace.log, spec.seed);
      if (captures.empty()) {
        captures = std::move(with_trace.log.captures);
        capture_seed = spec.seed;
      }
    } else {
      plain = run_chunk(w, spec, Wrap::kTimed, pool_workers);
    }
    counts_ok = counts_ok && call_counts_ok(w, plain, cycles);
    untraced.add(plain, aircraft);
    if (k == 1) {
      first_outcome = plain.log.outcome.hex();
      first_modeled = plain.log.modeled.hex();
      first_result_outcome = plain.result_outcome;
      first_result_modeled = plain.result_modeled;
    }
    chunks = k;
    const std::int64_t elapsed = now_ns() - measure_start;
    if (opt.smoke) break;
    if (k >= 2 && elapsed + elapsed / k > budget_ns) break;
  }
  const double rss_mb = peak_rss_mb();

  // --- Correctness -----------------------------------------------------
  // The warm-up cycle again on the sequential brute-force reference,
  // replaying the recorded modeled times.
  ChunkSpec oracle_spec = warm_spec;
  oracle_spec.replay = &warm.log.modeled_sequence;
  const Chunk oracle = run_chunk(w, oracle_spec, Wrap::kOracle, pool_workers);
  const bool oracle_match =
      !oracle.log.replay_overrun &&
      oracle.log.modeled_sequence.size() ==
          warm.log.modeled_sequence.size() &&
      oracle.log.outcome.value() == warm.log.outcome.value();

  // Decorator transparency: the first chunk on the bare backend, traced
  // to <workload>.bare.trace.jsonl when the decorated one was.
  std::optional<bool> bare_match;
  if (opt.smoke) {
    ChunkSpec first{chunk_seed(opt.seed, 1), cycles, nullptr, {}, nullptr};
    std::optional<atm::obs::JsonlTraceSink> bare_sink;
    if (opt.trace) {
      first.trace = &bare_sink.emplace(opt.trace_dir + "/" + w.name +
                                       ".bare.trace.jsonl");
    }
    const Chunk bare = run_chunk(w, first, Wrap::kBare, pool_workers);
    bare_match = bare.result_outcome.value() ==
                     first_result_outcome.value() &&
                 (modeled_is_host_time ||
                  bare.result_modeled.value() == first_result_modeled.value());
  }

  std::optional<bool> expected_match;
  bool modeled_changed = false;
  std::string expected_outcome = "-";
  if (opt.seed == kDigestSeed) {
    const std::optional<Expected> e =
        expected_digests(opt.expected, w.name, opt.smoke);
    expected_match = e.has_value() && e->outcome == first_outcome;
    if (e) {
      expected_outcome = e->outcome;
      modeled_changed = e->modeled != "-" && e->modeled != first_modeled;
    }
  }

  // --- Probes and trace output -------------------------------------------
  ProbeResult probes;
  bool spans_written = true;
  double trace_bytes = 0.0;
  if (opt.trace) {
    const std::uint64_t probe_span = spans.reserve();
    const std::int64_t probe_start = now_ns();
    ProbeConfig pc;
    const tasks::PipelineConfig fanned =
        tasks::make_pipeline_config(w.scenario, 1, capture_seed);
    pc.task1 = fanned.task1;
    pc.task23 = fanned.task23;
    pc.setup = w.scenario.setup;
    pc.radar = w.scenario.radar;
    pc.aircraft = aircraft;
    pc.seed = capture_seed;
    pc.multi_radar = w.executive == Executive::kFullSystem;
    pc.towers = tasks::make_full_config(w.scenario).towers;
    pc.pool_workers = pool_workers;
    probes = run_probes(pc, captures, spans, probe_span);
    spans.add_reserved(probe_span, "probes", run_span, probe_start, now_ns());
    sink->flush();
    std::error_code ec;
    trace_bytes =
        static_cast<double>(std::filesystem::file_size(trace_path, ec));
    spans.add_reserved(run_span, "run", 0, run_start, now_ns(),
                       "\"workload\":" + json_string(w.name));
    spans_written =
        spans.write(opt.trace_dir + "/" + w.name + ".spans.jsonl");
  }

  const bool correct = oracle_match && counts_ok && traced_match &&
                       bare_match.value_or(true) &&
                       expected_match.value_or(true) && spans_written;

  // --- Metrics ---------------------------------------------------------
  const Samples& s = untraced;
  std::vector<Metric> metrics;
  if (!opt.trace) {
    metrics = {
        {"setup_s", median(s.setup_s), "s"},
        {"period_ms_p50", atm::core::percentile_of(s.period_ms, 50), "ms"},
        {"cycle_end_ms_p50", atm::core::percentile_of(s.cycle_end_ms, 50),
         "ms"},
        {"cycle_end_ms_p90", atm::core::percentile_of(s.cycle_end_ms, 90),
         "ms"},
        {"aircraft_periods_per_s",
         ratio(static_cast<double>(s.aircraft_periods), s.wall_s), "1/s"},
        {"deadline_met_ratio",
         ratio(static_cast<double>(s.met), static_cast<double>(s.scheduled)),
         "ratio"},
        {"peak_rss_mb", rss_mb, "MB"},
    };
  } else {
    const auto cycles_run = static_cast<double>(s.cycles);
    double self_us = 0.0;
    for (const double us : s.self_us) self_us += us;
    metrics = {
        {"atm.task1_ms_p50", median(s.task1_ms), "ms"},
        {"atm.task23_ms_p50", median(s.task23_ms), "ms"},
        {"atm.executive_us_per_period",
         ratio(self_us, static_cast<double>(s.self_us.size())), "us"},
        {"atm.task1.passes_mean",
         ratio(static_cast<double>(s.passes),
               static_cast<double>(s.task1_calls)),
         "count"},
        {"atm.task1.box_tests_per_period",
         ratio(static_cast<double>(s.box_tests),
               static_cast<double>(s.periods)),
         "count"},
        {"atm.task1.match_ratio",
         ratio(static_cast<double>(s.matched),
               static_cast<double>(s.returns)),
         "ratio"},
        {"atm.task23.pair_candidates_per_cycle",
         ratio(static_cast<double>(s.pair_candidates), cycles_run), "count"},
        {"atm.task23.pair_tests_per_cycle",
         ratio(static_cast<double>(s.pair_tests), cycles_run), "count"},
        {"atm.task23.gate_pass_ratio",
         ratio(static_cast<double>(s.pair_tests),
               static_cast<double>(s.pair_candidates)),
         "ratio"},
        {"atm.task23.rescans_per_cycle",
         ratio(static_cast<double>(s.rescans), cycles_run), "count"},
        {"atm.task23.resolved_ratio",
         ratio(static_cast<double>(s.resolved),
               static_cast<double>(s.critical)),
         "ratio"},
        {"atm.halo_candidates_per_cycle",
         ratio(static_cast<double>(s.halo_candidates), cycles_run), "count"},
        {"rt.governor_level_mean",
         ratio(s.governor_level_sum, static_cast<double>(s.periods)),
         "level"},
        {"rt.governor_transitions_per_cycle",
         ratio(static_cast<double>(s.governor_transitions), cycles_run),
         "count"},
        {"rt.steals_per_cycle",
         ratio(static_cast<double>(s.steals), cycles_run), "count"},
        {"obs.trace_overhead_pct",
         100.0 * (ratio(traced.wall_s, s.wall_s) - 1.0), "%"},
        {"obs.trace_bytes_per_cycle",
         ratio(trace_bytes, static_cast<double>(traced.cycles)), "bytes"},
    };
    // The full system generates its radar inside the executive, so there
    // the radar time comes from a probe instead of the decorator.
    if (w.executive == Executive::kPipeline) {
      metrics.push_back({"airfield.radar_us_p50", median(s.radar_us), "us"});
    }
    metrics.insert(metrics.end(), probes.metrics.begin(),
                   probes.metrics.end());
  }

  // --- Output ----------------------------------------------------------
  std::cout << "{\"bench_atm\": {\"workload\": " << json_string(w.name)
            << ", \"seed\": " << opt.seed
            << ", \"smoke\": " << json_bool(opt.smoke)
            << ", \"trace\": " << json_bool(opt.trace)
            << ", \"threads\": " << threads
            << ", \"aircraft\": " << aircraft << ", \"chunks\": " << chunks
            << ", \"chunk_cycles\": " << cycles
            << ", \"timed_cycles\": " << s.cycles
            << ", \"samples\": {\"setup\": " << s.setup_s.size()
            << ", \"period\": " << s.period_ms.size()
            << ", \"cycle_end\": " << s.cycle_end_ms.size() << "}"
            << ", \"outcome_digest\": " << json_string(first_outcome)
            << ", \"modeled_digest\": " << json_string(first_modeled)
            << ", \"expected_outcome_digest\": "
            << json_string(expected_outcome)
            << ", \"modeled_digest_changed\": " << json_bool(modeled_changed)
            << ", \"checks\": {\"oracle\": " << json_bool(oracle_match)
            << ", \"call_counts\": " << json_bool(counts_ok)
            << ", \"traced_untraced\": "
            << (opt.trace ? json_bool(traced_match) : "null")
            << ", \"bare\": "
            << (bare_match ? json_bool(*bare_match) : "null")
            << ", \"expected\": "
            << (expected_match ? json_bool(*expected_match) : "null")
            << "}, \"probe_checksum\": " << probes.checksum << "}}\n";
  const std::uint64_t attempted = std::max<std::uint64_t>(
      1, s.task_calls + traced.task_calls);
  std::cout << "{\"correct\": " << json_bool(correct)
            << ", \"attempted\": " << attempted
            << ", \"failed\": " << (correct ? 0 : attempted)
            << ", \"metrics\": " << metrics_json(metrics) << "}" << std::endl;
  return correct ? 0 : 1;
}
