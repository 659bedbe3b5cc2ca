// Tests for the observability layer (src/obs) and its wiring through the
// executive: event counts and ordering, agreement with the DeadlineMonitor
// aggregates, the null-sink bit-identical guarantee, and the deprecated
// pipeline wrappers' back-compat behavior. The full system runs on the
// same loop, so its traces are checked the same way.
#include <gtest/gtest.h>

#include <set>
#include <sstream>

#include "src/atm/extended/full_pipeline.hpp"
#include "src/atm/pipeline.hpp"
#include "src/atm/platforms.hpp"
#include "src/atm/reference_backend.hpp"
#include "src/obs/jsonl_sink.hpp"
#include "src/obs/trace.hpp"

namespace atm::tasks {
namespace {

using obs::EventKind;
using obs::RecordingSink;
using obs::TraceEvent;

PipelineConfig two_cycle_config(obs::TraceSink* sink) {
  PipelineConfig cfg;
  cfg.aircraft = 300;
  cfg.major_cycles = 2;
  cfg.trace = sink;
  return cfg;
}

TEST(ObsTrace, TaskEventCountsMatchSchedule) {
  RecordingSink sink;
  ReferenceBackend ref;
  const PipelineResult result = run_pipeline(ref, two_cycle_config(&sink));

  // 16 Task-1 events per cycle, exactly one Task-2+3 event per cycle.
  EXPECT_EQ(sink.count(EventKind::kTask, "task1"), 32u);
  EXPECT_EQ(sink.count(EventKind::kTask, "task23"), 2u);
  // Radar generation precedes every period.
  EXPECT_EQ(sink.count(EventKind::kTask, "radar"), 32u);
  // Spans: one per cycle, one per period.
  EXPECT_EQ(sink.count(EventKind::kSpanBegin, "cycle"), 2u);
  EXPECT_EQ(sink.count(EventKind::kSpanEnd, "cycle"), 2u);
  EXPECT_EQ(sink.count(EventKind::kSpanBegin, "period"), 32u);
  EXPECT_EQ(sink.count(EventKind::kSpanEnd, "period"), 32u);
  // Deadline events agree with the monitor's aggregates.
  EXPECT_EQ(sink.count_outcome("task1", "met"),
            result.deadlines().task("task1").met);
  EXPECT_EQ(sink.count_outcome("task23", "met"),
            result.deadlines().task("task23").met);
  EXPECT_EQ(sink.count(EventKind::kDeadline),
            result.deadlines().total_met() + result.deadlines().total_missed() +
                result.deadlines().total_skipped());
}

TEST(ObsTrace, EventsCarryContextAndPayload) {
  RecordingSink sink;
  auto titan = make_titan_x_pascal();
  run_pipeline(*titan, two_cycle_config(&sink));

  int task1_seen = 0;
  for (const TraceEvent& ev : sink.events()) {
    if (ev.kind != EventKind::kTask || ev.name != "task1") continue;
    ++task1_seen;
    EXPECT_EQ(ev.backend, titan->name());
    EXPECT_GE(ev.cycle, 0);
    EXPECT_LT(ev.cycle, 2);
    EXPECT_GE(ev.period, 0);
    EXPECT_LT(ev.period, 16);
    EXPECT_GT(ev.modeled_ms, 0.0);
    EXPECT_GE(ev.measured_ms, 0.0);
    EXPECT_EQ(ev.aircraft, 300u);
    EXPECT_GE(ev.passes, 1);
  }
  EXPECT_EQ(task1_seen, 32);
  // Task-2+3 events carry the conflict/resolution counters.
  for (const TraceEvent& ev : sink.events()) {
    if (ev.kind != EventKind::kTask || ev.name != "task23") continue;
    EXPECT_GE(ev.conflicts, 0);
    EXPECT_GE(ev.resolved, 0);
  }
}

TEST(ObsTrace, OrderingTaskEventsInsideTheirPeriodSpan) {
  RecordingSink sink;
  ReferenceBackend ref;
  PipelineConfig cfg = two_cycle_config(&sink);
  cfg.major_cycles = 1;
  run_pipeline(ref, cfg);

  int open_periods = 0;
  for (const TraceEvent& ev : sink.events()) {
    if (ev.kind == EventKind::kSpanBegin && ev.name == "period") {
      ++open_periods;
    } else if (ev.kind == EventKind::kSpanEnd && ev.name == "period") {
      --open_periods;
      EXPECT_GE(open_periods, 0);
    } else if (ev.kind == EventKind::kTask) {
      // Every task executes inside exactly one period span.
      EXPECT_EQ(open_periods, 1) << "task " << ev.name << " outside period";
    }
  }
  EXPECT_EQ(open_periods, 0);
}

TEST(ObsTrace, MissAndSkipEventsAgreeWithMonitor) {
  // A pathologically slow platform: every task blows the period, so the
  // trace must show the same misses and skips the monitor counts.
  class SlowBackend final : public ReferenceBackend {
   protected:
    Task1Result do_run_task1(airfield::RadarFrame& frame,
                             const Task1Params& params) override {
      Task1Result r = ReferenceBackend::do_run_task1(frame, params);
      r.modeled_ms = 1200.0;
      return r;
    }
  };
  RecordingSink sink;
  SlowBackend slow;
  PipelineConfig cfg;
  cfg.aircraft = 50;
  cfg.major_cycles = 1;
  cfg.trace = &sink;
  const PipelineResult result = run_pipeline(slow, cfg);

  ASSERT_GT(result.deadlines().total_missed(), 0u);
  ASSERT_GT(result.deadlines().total_skipped(), 0u);
  std::uint64_t missed = 0;
  std::uint64_t skipped = 0;
  for (const TraceEvent& ev : sink.events()) {
    if (ev.kind != EventKind::kDeadline) continue;
    if (ev.outcome == "missed") {
      ++missed;
      EXPECT_LT(ev.slack_ms, 0.0);  // negative slack on a miss
    } else if (ev.outcome == "skipped") {
      ++skipped;
    }
  }
  EXPECT_EQ(missed, result.deadlines().total_missed());
  EXPECT_EQ(skipped, result.deadlines().total_skipped());
}

TEST(ObsTrace, NullSinkProducesBitIdenticalResults) {
  auto traced = make_titan_x_pascal();
  auto bare = make_titan_x_pascal();
  RecordingSink sink;
  PipelineConfig cfg;
  cfg.aircraft = 400;
  cfg.major_cycles = 2;
  cfg.seed = 7;
  PipelineConfig traced_cfg = cfg;
  traced_cfg.trace = &sink;
  const PipelineResult with = run_pipeline(*traced, traced_cfg);
  const PipelineResult without = run_pipeline(*bare, cfg);

  ASSERT_EQ(with.periods.size(), without.periods.size());
  for (std::size_t i = 0; i < with.periods.size(); ++i) {
    EXPECT_EQ(with.periods[i].task1_ms, without.periods[i].task1_ms);
    EXPECT_EQ(with.periods[i].task23_ms, without.periods[i].task23_ms);
    EXPECT_EQ(with.periods[i].wrapped, without.periods[i].wrapped);
    EXPECT_EQ(with.periods[i].task1_outcome, without.periods[i].task1_outcome);
  }
  EXPECT_EQ(with.virtual_end_ms, without.virtual_end_ms);
  EXPECT_EQ(with.deadlines().total_met(), without.deadlines().total_met());
  EXPECT_EQ(with.deadlines().total_missed(), without.deadlines().total_missed());
  EXPECT_EQ(with.last_task1, without.last_task1);
  EXPECT_EQ(with.last_task23, without.last_task23);
  EXPECT_TRUE(traced->state().same_flight_state(bare->state()));
  EXPECT_FALSE(sink.events().empty());
}

TEST(ObsTrace, PipelineDetachesTheBorrowedSink) {
  RecordingSink sink;
  ReferenceBackend ref;
  run_pipeline(ref, two_cycle_config(&sink));
  EXPECT_EQ(ref.trace_sink(), nullptr);

  // Direct task calls after the run must not emit.
  const std::size_t before = sink.events().size();
  core::Rng rng(1);
  airfield::RadarFrame frame = ref.generate_radar(rng, {}, nullptr);
  ref.run_task1(frame, {});
  EXPECT_EQ(sink.events().size(), before);
}

TEST(ObsTrace, BackendEmitsOutsideThePipelineToo) {
  // Benches drive backends directly; an attached sink still sees tasks.
  RecordingSink sink;
  ReferenceBackend ref;
  ref.load(airfield::make_airfield(100, 3));
  ref.set_trace_sink(&sink);
  core::Rng rng(3);
  airfield::RadarFrame frame = ref.generate_radar(rng, {}, nullptr);
  ref.run_task1(frame, {});
  ref.run_task23({});
  ref.set_trace_sink(nullptr);
  EXPECT_EQ(sink.count(EventKind::kTask, "task1"), 1u);
  EXPECT_EQ(sink.count(EventKind::kTask, "task23"), 1u);
  // Outside a pipeline there is no executive position.
  for (const TraceEvent& ev : sink.events()) {
    EXPECT_EQ(ev.cycle, -1);
    EXPECT_EQ(ev.period, -1);
  }
}

TEST(ObsTrace, JsonlSinkWritesOneValidObjectPerLine) {
  std::ostringstream out;
  obs::JsonlTraceSink sink(out);
  ReferenceBackend ref;
  PipelineConfig cfg = two_cycle_config(&sink);
  cfg.major_cycles = 1;
  run_pipeline(ref, cfg);

  std::istringstream lines(out.str());
  std::string line;
  std::size_t n = 0;
  while (std::getline(lines, line)) {
    ++n;
    ASSERT_FALSE(line.empty());
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    EXPECT_NE(line.find("\"kind\":\""), std::string::npos);
    // Keys and string values are quoted; no raw control characters.
    for (const char c : line) {
      EXPECT_GE(static_cast<unsigned char>(c), 0x20u);
    }
  }
  // cycle span (2) + per period: span (2) + radar + task1 deadline... at
  // least 5 events per period.
  EXPECT_GE(n, 16u * 5u + 2u);
}

TEST(ObsTrace, CounterPublishesItsValue) {
  RecordingSink sink;
  obs::Counter counter("widgets");
  counter.add();
  counter.add(41);
  counter.publish(&sink);
  counter.publish(nullptr);  // no-op, no crash
  ASSERT_EQ(sink.count(EventKind::kCounter, "widgets"), 1u);
  EXPECT_EQ(sink.events().front().value, 42u);
}

// --- PipelineConfig drives every mode of the unified entry point ----------

TEST(ObsTrace, PreloadedFlagChainsRunsOnOneFlightState) {
  PipelineConfig cfg;
  cfg.aircraft = 200;
  cfg.major_cycles = 1;

  auto a = make_titan_x_pascal();
  run_pipeline(*a, cfg);
  PipelineConfig preloaded_cfg = cfg;
  preloaded_cfg.preloaded = true;
  const PipelineResult chained = run_pipeline(*a, preloaded_cfg);

  // A preloaded run continues from the first run's state instead of
  // reloading the seed airfield, so its periods exist and the state moved.
  ASSERT_EQ(chained.periods.size(), 16u);
  auto b = make_titan_x_pascal();
  run_pipeline(*b, cfg);
  const PipelineResult chained_b = run_pipeline(*b, preloaded_cfg);
  ASSERT_EQ(chained.periods.size(), chained_b.periods.size());
  for (std::size_t i = 0; i < chained.periods.size(); ++i) {
    EXPECT_EQ(chained.periods[i].task1_ms, chained_b.periods[i].task1_ms);
  }
  EXPECT_TRUE(a->state().same_flight_state(b->state()));
}

TEST(ObsTrace, BackendAttachedSinkSurvivesAnUntracedRun) {
  // Without cfg.trace the executive leaves the backend's own sink alone:
  // it still sees every task, but no executive spans, deadline events or
  // (cycle, period) stamps.
  RecordingSink sink;
  ReferenceBackend ref;
  ref.set_trace_sink(&sink);
  run_pipeline(ref, two_cycle_config(nullptr));
  EXPECT_EQ(ref.trace_sink(), &sink);
  EXPECT_EQ(sink.count(EventKind::kTask, "task1"), 32u);
  EXPECT_EQ(sink.count(EventKind::kSpanBegin), 0u);
  EXPECT_EQ(sink.count(EventKind::kDeadline), 0u);
  for (const TraceEvent& ev : sink.events()) {
    EXPECT_EQ(ev.cycle, -1);
    EXPECT_EQ(ev.period, -1);
  }
  ref.set_trace_sink(nullptr);
}

// --- The full system runs on the same executive loop -----------------------

extended::FullSystemConfig two_cycle_full_config(obs::TraceSink* sink) {
  extended::FullSystemConfig cfg;
  cfg.aircraft = 200;
  cfg.major_cycles = 2;
  cfg.sporadic.queries_per_batch = 2;
  cfg.trace = sink;
  return cfg;
}

TEST(ObsTrace, TracedFullSystemMatchesUntraced) {
  auto traced = make_titan_x_pascal();
  auto bare = make_titan_x_pascal();
  RecordingSink sink;
  const extended::FullSystemResult with =
      extended::run_full_system(*traced, two_cycle_full_config(&sink));
  const extended::FullSystemResult without =
      extended::run_full_system(*bare, two_cycle_full_config(nullptr));

  ASSERT_EQ(with.periods.size(), without.periods.size());
  for (std::size_t i = 0; i < with.periods.size(); ++i) {
    EXPECT_EQ(with.periods[i].task1_ms, without.periods[i].task1_ms);
    EXPECT_EQ(with.periods[i].task1_outcome, without.periods[i].task1_outcome);
    EXPECT_EQ(with.periods[i].task23_ms, without.periods[i].task23_ms);
    EXPECT_EQ(with.periods[i].wrapped, without.periods[i].wrapped);
  }
  EXPECT_EQ(with.virtual_end_ms, without.virtual_end_ms);
  EXPECT_EQ(with.monitor.summary(), without.monitor.summary());
  EXPECT_EQ(with.last_task1, without.last_task1);
  EXPECT_EQ(with.last_task23, without.last_task23);
  EXPECT_TRUE(with.last_display == without.last_display);
  EXPECT_TRUE(with.last_sporadic == without.last_sporadic);
  EXPECT_TRUE(with.last_terrain == without.last_terrain);
  EXPECT_TRUE(with.last_advisory == without.last_advisory);
  EXPECT_EQ(with.last_queue, without.last_queue);
  EXPECT_TRUE(traced->state().same_flight_state(bare->state()));
  EXPECT_EQ(traced->trace_sink(), nullptr);
  EXPECT_FALSE(sink.events().empty());
}

TEST(ObsTrace, FullSystemTraceHasSpansDeadlinesAndStampedTasks) {
  RecordingSink sink;
  ReferenceBackend ref;
  const extended::FullSystemResult result =
      extended::run_full_system(ref, two_cycle_full_config(&sink));

  EXPECT_EQ(sink.count(EventKind::kSpanBegin, "cycle"), 2u);
  EXPECT_EQ(sink.count(EventKind::kSpanEnd, "cycle"), 2u);
  EXPECT_EQ(sink.count(EventKind::kSpanBegin, "period"), 32u);
  EXPECT_EQ(sink.count(EventKind::kSpanEnd, "period"), 32u);
  // One deadline event per scheduled task instance, on the extended
  // schedule: every period, once per cycle, and every 4 s.
  for (const char* task : {"task1", "display", "sporadic"}) {
    EXPECT_EQ(result.monitor.task(task).scheduled(), 32u) << task;
    EXPECT_EQ(sink.count(EventKind::kDeadline, task), 32u) << task;
  }
  for (const char* task : {"task23", "terrain"}) {
    EXPECT_EQ(result.monitor.task(task).scheduled(), 2u) << task;
    EXPECT_EQ(sink.count(EventKind::kDeadline, task), 2u) << task;
  }
  EXPECT_EQ(result.monitor.task("advisory").scheduled(), 4u);
  EXPECT_EQ(sink.count(EventKind::kDeadline, "advisory"), 4u);
  EXPECT_EQ(sink.count(EventKind::kDeadline),
            result.monitor.total_met() + result.monitor.total_missed() +
                result.monitor.total_skipped());

  // Every task event carries the (cycle, period) of the span it ran in.
  int open_periods = 0;
  int cycle = -1;
  int period = -1;
  for (const TraceEvent& ev : sink.events()) {
    if (ev.kind == EventKind::kSpanBegin && ev.name == "period") {
      ++open_periods;
      cycle = ev.cycle;
      period = ev.period;
    } else if (ev.kind == EventKind::kSpanEnd && ev.name == "period") {
      --open_periods;
    } else if (ev.kind == EventKind::kTask) {
      EXPECT_EQ(open_periods, 1) << "task " << ev.name << " outside period";
      EXPECT_EQ(ev.cycle, cycle) << ev.name;
      EXPECT_EQ(ev.period, period) << ev.name;
    }
  }
  EXPECT_EQ(sink.count(EventKind::kTask, "display"), 32u);
  EXPECT_EQ(sink.count(EventKind::kTask, "terrain"), 2u);
}

TEST(ObsTrace, FullSystemEmitsTheEventKindsOfThePipeline) {
  // Every period loses 470 of its 500 ms to stolen time, so the governor
  // moves under both executives and both traces carry governor events.
  PipelineConfig cfg = two_cycle_config(nullptr);
  cfg.governor.enabled = true;
  cfg.faults.enabled = true;
  cfg.faults.stolen_time_probability = 1.0;
  cfg.faults.stolen_time_ms = 470.0;
  extended::FullSystemConfig full;
  static_cast<PipelineConfig&>(full) = cfg;

  RecordingSink pipeline_sink;
  RecordingSink full_sink;
  cfg.trace = &pipeline_sink;
  full.trace = &full_sink;
  auto a = make_titan_x_pascal();
  auto b = make_titan_x_pascal();
  run_pipeline(*a, cfg);
  extended::run_full_system(*b, full);

  const auto kinds = [](const RecordingSink& sink) {
    std::set<EventKind> out;
    for (const TraceEvent& ev : sink.events()) out.insert(ev.kind);
    return out;
  };
  EXPECT_TRUE(kinds(pipeline_sink).contains(EventKind::kGovernor));
  EXPECT_EQ(kinds(pipeline_sink), kinds(full_sink));
}

TEST(ObsTrace, WallclockModeRunsViaConfigFields) {
  PipelineConfig cfg;
  cfg.aircraft = 32;
  cfg.major_cycles = 1;
  cfg.clock_mode = ClockMode::kWallclock;
  cfg.real_period_ms = 5.0;
  ReferenceBackend ref;
  const PipelineResult result = run_pipeline(ref, cfg);
  EXPECT_EQ(result.periods.size(), 16u);
}

}  // namespace
}  // namespace atm::tasks
