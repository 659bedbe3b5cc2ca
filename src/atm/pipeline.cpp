#include "src/atm/pipeline.hpp"

#include <array>
#include <chrono>
#include <optional>
#include <string_view>
#include <thread>
#include <utility>

#include "src/airfield/setup.hpp"
#include "src/atm/degrade.hpp"
#include "src/atm/executive.hpp"
#include "src/core/check.hpp"
#include "src/core/units.hpp"
#include "src/rt/clock.hpp"

namespace atm::tasks {

namespace {

/// Detaches the borrowed sink when the run leaves scope, so the caller's
/// backend (and the monitor inside the returned result) never retain a
/// pointer into state the caller may destroy first.
struct TraceDetach {
  Backend& backend;
  rt::DeadlineMonitor& monitor;
  ~TraceDetach() {
    backend.set_trace_sink(nullptr);
    backend.set_trace_context(-1, -1);
    monitor.set_trace(nullptr);
    monitor.set_trace_context({}, -1, -1);
  }
};

/// Cross-check the "PeriodLog derives from the monitor" contract: the
/// per-period outcome fields are filled from the same record() calls
/// that feed the DeadlineMonitor, so the task1 and task23 rows must agree
/// with them (the full system's monitor holds more rows than these two).
void check_outcome_accounting(const PipelineResult& result) {
  // Met / missed / skipped counts, indexed by rt::Outcome.
  using Tally = std::array<std::uint64_t, 3>;
  Tally task1{};
  Tally task23{};
  for (const PeriodLog& log : result.periods) {
    ++task1[static_cast<std::size_t>(log.task1_outcome)];
    if (log.task23_ran || log.task23_outcome == rt::Outcome::kSkipped) {
      ++task23[static_cast<std::size_t>(log.task23_outcome)];
    }
  }
  for (const auto& [name, logs] : {std::pair{"task1", task1},
                                   std::pair{"task23", task23}}) {
    const rt::TaskRecord row = result.deadlines().has_task(name)
                                   ? result.deadlines().task(name)
                                   : rt::TaskRecord{};
    ATM_CHECK_MSG((logs == Tally{row.met, row.missed, row.skipped}),
                  "PeriodLog " << name << " outcomes diverge from the "
                               << "DeadlineMonitor: logs " << logs[0] << "/"
                               << logs[1] << "/" << logs[2] << " vs monitor "
                               << row.met << "/" << row.missed << "/"
                               << row.skipped);
  }
}

/// Fill the PeriodLog columns of the two paper tasks.
void log_paper_task(std::string_view task, rt::Outcome outcome,
                    double duration, PeriodLog& log, PipelineResult& result) {
  const bool ran = outcome != rt::Outcome::kSkipped;
  if (task == "task1") {
    log.task1_outcome = outcome;
    log.task1_ms = duration;
    if (ran) result.task1_ms.add(duration);
  } else if (task == "task23") {
    log.task23_outcome = outcome;
    log.task23_ran = ran;
    log.task23_ms = duration;
    if (ran) result.task23_ms.add(duration);
  }
}

void publish_counter(obs::TraceSink* trace, std::string_view name,
                     std::uint64_t value) {
  obs::Counter counter(name);
  counter.add(value);
  counter.publish(trace);
}

}  // namespace

namespace detail {

PaperSteps paper_steps(Backend& backend, const PipelineConfig& cfg,
                       PipelineResult& result) {
  PaperSteps steps;
  // Radar creation precedes the period and is not an ATM task (Section
  // 4.2), so it does not consume period budget. Sensor faults corrupt the
  // frame after generation, the way a degraded sensor corrupts a sweep.
  steps.radar.run = [&backend, &cfg](Period& p) {
    p.frame = backend.generate_radar(p.radar_rng, cfg.radar, &p.log.radar_ms);
    p.faults.apply(p.frame);
    return 0.0;
  };
  steps.task1 = {.task = "task1", .run = [&backend, &result](Period& p) {
                   const Task1Result r = backend.run_task1(p.frame, p.task1);
                   result.last_task1 = r.stats;
                   return r.modeled_ms;
                 }};
  // Host bookkeeping between tasks (untimed: part of the airfield
  // simulation, not of ATM): grid re-entry, then save this period's
  // tracked positions ("all radar is saved").
  steps.reentry.run = [&backend, &cfg](Period& p) {
    if (cfg.apply_reentry) {
      p.log.wrapped = airfield::apply_reentry_all(backend.mutable_state());
    }
    if (cfg.recorder != nullptr) cfg.recorder->record(backend.state());
    return 0.0;
  };
  steps.task23 = {.task = "task23",
                  .every = core::kPeriodsPerMajorCycle,
                  .at = core::kPeriodsPerMajorCycle - 1,
                  .run = [&backend, &result](Period& p) {
                    const Task23Result r = backend.run_task23(p.task23);
                    result.last_task23 = r.stats;
                    return r.modeled_ms;
                  }};
  return steps;
}

void run_schedule(Backend& backend, const PipelineConfig& cfg,
                  std::span<const Step> schedule, PipelineResult& result) {
  for (const Step& step : schedule) {
    ATM_CHECK_MSG(step.every > 0 && step.at >= 0 && step.at < step.every,
                  "step cadence " << step.at << " mod " << step.every);
  }
  const rt::MajorCycleSchedule cycle =
      rt::MajorCycleSchedule::paper_schedule();
  const bool wallclock = cfg.clock_mode == ClockMode::kWallclock;
  const double period_ms = wallclock ? cfg.real_period_ms : cycle.period_ms();

  // Radar noise stream: independent of everything else so the frames a
  // backend sees depend only on (seed, its own flight state).
  core::Rng radar_rng(cfg.seed ^ 0x4ADA1257A3ABCDEFULL);

  // Fault injection draws from its own salted stream, so enabling it
  // never perturbs airfield generation or radar noise.
  rt::FaultInjector faults(cfg.faults, cfg.seed);

  // The overload governor: observes every period, walks the degradation
  // ladder on sustained overload, recovers with hysteresis.
  rt::Governor governor(cfg.governor, degradation_ladder());

  // Executive clock: virtual mode advances by modeled task times;
  // wall-clock mode reads the host's steady clock.
  rt::VirtualClock vclock;
  using HostClock = std::chrono::steady_clock;
  const auto t0 = HostClock::now();
  const auto now_ms = [&] {
    if (!wallclock) return vclock.now_ms();
    return std::chrono::duration<double, std::milli>(HostClock::now() - t0)
        .count();
  };

  // The sink is borrowed for the run. Without one the executive touches
  // no wiring: a sink the caller attached to the backend stays attached.
  obs::TraceSink* trace = cfg.trace;
  std::optional<TraceDetach> detach;
  if (trace != nullptr) {
    backend.set_trace_sink(trace);
    result.monitor.set_trace(trace);
    governor.set_trace(trace);  // the governor dies with the run
    detach.emplace(backend, result.monitor);
  }
  const std::string backend_name =
      trace != nullptr ? backend.name() : std::string();

  int global_period = 0;
  for (int c = 0; c < cfg.major_cycles; ++c) {
    const obs::Span cycle_span(trace, "cycle", backend_name, c);
    for (int period = 0; period < cycle.periods_per_cycle(); ++period) {
      PeriodLog log{
          .cycle = c, .period = period, .governor_level = governor.level()};
      if (trace != nullptr) {
        backend.set_trace_context(c, period);
        result.monitor.set_trace_context(backend_name, c, period);
        governor.set_trace_context(backend_name, c, period);
      }
      const obs::Span period_span(trace, "period", backend_name, c, period);

      // Task parameters this period runs with: the configured baseline,
      // degraded to the governor's current ladder level (level 0 copies
      // the baseline untouched).
      Period p{cfg.task1, cfg.task23, {}, log, radar_rng, faults};
      apply_degradation(log.governor_level, p.task1, p.task23);

      // Stolen time (fault injection): other host load preempts the
      // executive before the period's first step. Wall-clock mode waits
      // it out for real; virtual mode advances the modeled clock, which
      // makes overload deterministic.
      log.stolen_ms = faults.steal_ms();
      if (log.stolen_ms > 0.0) {
        if (wallclock) {
          std::this_thread::sleep_for(
              std::chrono::duration<double, std::milli>(log.stolen_ms));
        } else {
          vclock.advance_ms(log.stolen_ms);
        }
      }

      // Periods live on a fixed time grid; an overrunning task delays the
      // start of everything after it, and a task whose period has already
      // ended is skipped (Section 3: "Remaining tasks that may not have
      // time to complete their execution before the end of the period must
      // be skipped").
      const double period_start =
          static_cast<double>(global_period) * period_ms;
      const double period_deadline = period_start + period_ms;
      bool trouble = false;
      for (const Step& step : schedule) {
        if (period % step.every != step.at) continue;
        if (step.runs_at_level != nullptr &&
            !step.runs_at_level(log.governor_level)) {
          continue;
        }
        if (step.task == nullptr) {
          step.run(p);
          continue;
        }
        rt::Outcome outcome = rt::Outcome::kSkipped;
        double duration = 0.0;
        if (now_ms() >= period_deadline) {
          result.monitor.record_skip(step.task);
        } else {
          const double start = now_ms();
          const double modeled_ms = step.run(p);
          duration = wallclock ? now_ms() - start : modeled_ms;
          outcome = result.monitor.record(step.task, start, duration,
                                           period_deadline);
          if (!wallclock) vclock.advance_ms(duration);
        }
        trouble = trouble || outcome != rt::Outcome::kMet;
        log_paper_task(step.task, outcome, duration, log, result);
      }

      // Feed the governor: utilization is everything consumed since the
      // period's *scheduled* start (an overrun inherited from earlier
      // periods is load too), and any miss or skip degrades immediately.
      governor.observe(now_ms() - period_start, period_ms, trouble);

      // Wait out the remainder of the period so the next one does not
      // start ahead of schedule (Section 4.2). Overruns are *not* given
      // back: a late finish delays subsequent periods.
      if (wallclock) {
        const auto target =
            t0 + std::chrono::duration_cast<HostClock::duration>(
                     std::chrono::duration<double, std::milli>(
                         period_ms * (global_period + 1)));
        if (HostClock::now() < target) std::this_thread::sleep_until(target);
      } else {
        vclock.advance_to_ms(period_deadline);
      }
      ++global_period;
      result.periods.push_back(log);
    }
  }
  result.virtual_end_ms = now_ms();
  result.final_governor_level = governor.level();
  result.governor_degrades = governor.degrade_count();
  result.governor_recovers = governor.recover_count();
  if (trace != nullptr) {
    std::uint64_t wrapped = 0;
    for (const PeriodLog& log : result.periods) wrapped += log.wrapped;
    publish_counter(trace, "wrapped_aircraft", wrapped);
    if (faults.enabled()) {
      publish_counter(trace, "fault.dropouts", faults.total_dropouts());
      publish_counter(trace, "fault.ghosts", faults.total_ghosts());
      publish_counter(trace, "fault.noise_bursts",
                      faults.total_noise_bursts());
      publish_counter(trace, "fault.steal_events",
                      faults.total_steal_events());
    }
    trace->flush();
  }
  check_outcome_accounting(result);
}

}  // namespace detail

PipelineResult run_pipeline(Backend& backend, const PipelineConfig& cfg) {
  if (!cfg.preloaded) {
    backend.load(airfield::make_airfield(cfg.aircraft, cfg.seed, cfg.setup));
  }
  PipelineResult result;
  const detail::PaperSteps paper = detail::paper_steps(backend, cfg, result);
  const detail::Step schedule[] = {paper.radar, paper.task1, paper.reentry,
                                   paper.task23};
  detail::run_schedule(backend, cfg, schedule, result);
  return result;
}

}  // namespace atm::tasks
