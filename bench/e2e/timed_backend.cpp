#include "bench/e2e/timed_backend.hpp"

#include <algorithm>
#include <utility>

namespace bench_atm {

namespace tasks = atm::tasks;
namespace airfield = atm::airfield;
namespace spatial = atm::core::spatial;
namespace kern = atm::core::kern;

std::string_view to_string(Call call) {
  switch (call) {
    case Call::kRadar:
      return "radar";
    case Call::kTask1:
      return "task1";
    case Call::kTask23:
      return "task23";
    case Call::kMultiTask1:
      return "multi_task1";
    case Call::kDisplay:
      return "display";
    case Call::kSporadic:
      return "sporadic";
    case Call::kAdvisory:
      return "advisory";
    case Call::kTerrain:
      return "terrain";
  }
  return "?";
}

namespace {

/// The sequential brute-force scalar path: the oracle's host knobs.
template <typename Params>
Params oracle_params(Params params) {
  params.broadphase = spatial::BroadphaseMode::kBruteForce;
  params.shard = spatial::ShardMode::kNone;
  params.kernel = kern::KernelMode::kScalar;
  return params;
}

}  // namespace

TimedBackend::TimedBackend(std::unique_ptr<tasks::Backend> inner,
                           Call boundary, RunLog& log,
                           atm::obs::TraceSink* trace,
                           const std::vector<double>* replay)
    : inner_(std::move(inner)), boundary_(boundary), log_(log),
      replay_(replay) {
  inner_->set_trace_sink(trace);
}

void TimedBackend::load(const airfield::FlightDb& db) {
  inner_->load(db);
  log_.setup_end_ns = now_ns();
}

void TimedBackend::on_terrain_attached() {
  // The base class owns the attached map; hand the wrapped backend a
  // non-owning pointer to it (aliasing constructor, empty owner). The
  // wrapped backend is a member, so it dies before the base's map.
  inner_->set_terrain(std::shared_ptr<const airfield::TerrainMap>(
      std::shared_ptr<const airfield::TerrainMap>(), terrain_map()));
  log_.setup_end_ns = now_ns();
}

void TimedBackend::finish_run() {
  log_.return_ns = now_ns();
  fold_state(log_.outcome, inner_->state());
}

void fold_state(Digest& d, const airfield::FlightDb& db) {
  for (const auto* column : {&db.x, &db.y, &db.dx, &db.dy, &db.alt}) {
    d.add(*column);
  }
}

void TimedBackend::charge_bench_ns(std::int64_t since_ns) {
  if (!log_.periods.empty()) {
    log_.periods.back().bench_ns += now_ns() - since_ns;
  }
}

void TimedBackend::begin_call(Call call,
                              const airfield::RadarFrame* input_frame) {
  if (call != boundary_) return;
  const std::int64_t t0 = now_ns();
  const std::size_t period = log_.periods.size();
  const auto per_cycle = static_cast<std::size_t>(kPeriodsPerCycle);
  if (period > 0 && period % per_cycle == 0) {
    fold_state(log_.outcome, inner_->state());  // the cycle's end state
  }
  // run_pipeline stamps (cycle, period) on the decorator before each
  // period's radar call; the full-system executive stamps nothing.
  if (call == Call::kRadar) {
    inner_->set_trace_context(static_cast<int>(period / per_cycle),
                              static_cast<int>(period % per_cycle));
  }
  if (std::binary_search(log_.capture_periods.begin(),
                         log_.capture_periods.end(), period)) {
    log_.captures.push_back(Capture{inner_->state(), {}});
    if (input_frame != nullptr) {
      log_.captures.back().frame = *input_frame;
    } else {
      capture_frame_pending_ = true;  // the call's output frame
    }
  }
  // Bookkeeping before the boundary call belongs to the period it closes.
  charge_bench_ns(t0);
  log_.periods.push_back(PeriodRecord{now_ns(), log_.calls.size(), 0});
}

double TimedBackend::take_modeled(double inner_ms) {
  if (replay_ == nullptr) return inner_ms;
  const std::size_t i = log_.modeled_sequence.size();
  if (i >= replay_->size()) {
    log_.replay_overrun = true;
    return 0.0;
  }
  return (*replay_)[i];
}

template <typename Run, typename Fold>
auto TimedBackend::timed(Call call, Run&& run, Fold&& fold,
                         const airfield::RadarFrame* input_frame) {
  begin_call(call, input_frame);
  CallRecord rec;
  rec.call = call;
  rec.start_ns = now_ns();
  auto result = run();
  rec.end_ns = now_ns();
  result.modeled_ms = take_modeled(result.modeled_ms);
  log_.outcome.add(static_cast<std::uint64_t>(call));
  fold(result, rec);
  log_.modeled.add(result.modeled_ms);
  log_.modeled_sequence.push_back(result.modeled_ms);
  ++log_.call_counts[static_cast<std::size_t>(call)];
  log_.calls.push_back(rec);
  charge_bench_ns(rec.end_ns);
  return result;
}

tasks::Task1Result TimedBackend::do_run_task1(
    airfield::RadarFrame& frame, const tasks::Task1Params& params) {
  const tasks::Task1Params p = replay_ ? oracle_params(params) : params;
  return timed(
      Call::kTask1, [&] { return inner_->run_task1(frame, p); },
      [&](const tasks::Task1Result& r, CallRecord& rec) {
        const tasks::Task1Stats& s = r.stats;
        for (const std::uint64_t v :
             {s.radars, s.matched, s.discarded_radars, s.unmatched_radars,
              s.ambiguous_aircraft, s.updated_aircraft,
              static_cast<std::uint64_t>(s.passes)}) {
          log_.outcome.add(v);
        }
        rec.returns = s.radars;
        rec.matched = s.matched;
        rec.box_tests = s.box_tests;
        rec.passes = s.passes;
        rec.halo_candidates = s.halo_candidates;
      });
}

tasks::Task23Result TimedBackend::do_run_task23(
    const tasks::Task23Params& params) {
  const tasks::Task23Params p = replay_ ? oracle_params(params) : params;
  return timed(
      Call::kTask23, [&] { return inner_->run_task23(p); },
      [&](const tasks::Task23Result& r, CallRecord& rec) {
        const tasks::Task23Stats& s = r.stats;
        for (const std::uint64_t v :
             {s.aircraft, s.conflicts, s.critical, s.resolved,
              s.unresolved}) {
          log_.outcome.add(v);
        }
        rec.pair_candidates = s.pair_candidates;
        rec.pair_tests = s.pair_tests;
        rec.rescans = s.rescans;
        rec.critical = s.critical;
        rec.resolved = s.resolved;
        rec.halo_candidates = s.halo_candidates;
      });
}

airfield::RadarFrame TimedBackend::do_generate_radar(
    atm::core::Rng& rng, const airfield::RadarParams& params,
    double* modeled_ms) {
  struct Generated {
    airfield::RadarFrame frame;
    double modeled_ms = 0.0;
  };
  Generated g = timed(
      Call::kRadar,
      [&] {
        Generated out;
        out.frame = inner_->generate_radar(rng, params, &out.modeled_ms);
        return out;
      },
      [](const Generated&, CallRecord&) {});
  if (capture_frame_pending_) {
    const std::int64_t t0 = now_ns();
    log_.captures.back().frame = g.frame;
    capture_frame_pending_ = false;
    charge_bench_ns(t0);
  }
  if (modeled_ms != nullptr) *modeled_ms = g.modeled_ms;
  return std::move(g.frame);
}

tasks::TerrainResult TimedBackend::do_run_terrain(
    const tasks::TerrainTaskParams& params) {
  return timed(
      Call::kTerrain, [&] { return inner_->run_terrain(params); },
      [&](const tasks::TerrainResult& r, CallRecord&) {
        for (const std::uint64_t v :
             {r.stats.aircraft, r.stats.warnings, r.stats.climbs}) {
          log_.outcome.add(v);
        }
      });
}

tasks::DisplayResult TimedBackend::do_run_display(
    const tasks::DisplayParams& params) {
  return timed(
      Call::kDisplay, [&] { return inner_->run_display(params); },
      [&](const tasks::DisplayResult& r, CallRecord&) {
        for (const std::uint64_t v :
             {r.stats.aircraft, r.stats.handoffs, r.stats.occupied_sectors,
              r.stats.max_occupancy}) {
          log_.outcome.add(v);
        }
      });
}

tasks::AdvisoryResult TimedBackend::do_run_advisory(
    const tasks::AdvisoryParams& params) {
  return timed(
      Call::kAdvisory, [&] { return inner_->run_advisory(params); },
      [&](const tasks::AdvisoryResult& r, CallRecord&) {
        for (const std::uint64_t v :
             {r.stats.aircraft, r.stats.conflict, r.stats.terrain,
              r.stats.boundary}) {
          log_.outcome.add(v);
        }
        for (const tasks::Advisory& a : r.queue) {
          log_.outcome.add(static_cast<std::uint64_t>(a.aircraft));
          log_.outcome.add(static_cast<std::uint64_t>(a.type));
        }
      });
}

tasks::MultiRadarResult TimedBackend::do_run_multi_task1(
    airfield::MultiRadarFrame& frame, const tasks::Task1Params& params) {
  const tasks::Task1Params p = replay_ ? oracle_params(params) : params;
  return timed(
      Call::kMultiTask1, [&] { return inner_->run_multi_task1(frame, p); },
      [&](const tasks::MultiRadarResult& r, CallRecord& rec) {
        const tasks::MultiRadarStats& s = r.stats;
        for (const std::uint64_t v :
             {s.returns, s.matched_aircraft, s.redundant_returns,
              s.discarded_returns, s.unmatched_returns,
              static_cast<std::uint64_t>(s.passes)}) {
          log_.outcome.add(v);
        }
        rec.returns = s.returns;
        rec.matched = s.matched_aircraft;
        rec.box_tests = s.box_tests;
        rec.passes = s.passes;
      },
      &frame.base);
}

tasks::SporadicResult TimedBackend::do_run_sporadic(
    std::span<const tasks::Query> queries,
    const tasks::SporadicParams& params) {
  return timed(
      Call::kSporadic, [&] { return inner_->run_sporadic(queries, params); },
      [&](const tasks::SporadicResult& r, CallRecord&) {
        log_.outcome.add(r.stats.queries);
        log_.outcome.add(r.stats.hits);
        for (const std::vector<std::int32_t>& answer : r.answers) {
          log_.outcome.add(static_cast<std::uint64_t>(answer.size()));
          for (const std::int32_t id : answer) {
            log_.outcome.add(static_cast<std::uint64_t>(id));
          }
        }
      });
}

}  // namespace bench_atm
