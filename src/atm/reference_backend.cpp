#include "src/atm/reference_backend.hpp"

#include "src/atm/reference/collision.hpp"
#include "src/rt/clock.hpp"

namespace atm::tasks {

mimd::ThreadPool& ReferenceBackend::shard_pool() {
  if (pool_ == nullptr) pool_ = std::make_unique<mimd::ThreadPool>();
  return *pool_;
}

Task1Result ReferenceBackend::do_run_task1(airfield::RadarFrame& frame,
                                           const Task1Params& params) {
  const rt::Stopwatch sw;
  Task1Result result;
  if (params.shard == core::spatial::ShardMode::kSectors) {
    sharded::ShardTelemetry telemetry;
    result.stats = sharded::correlate_and_track(
        db_, frame, shard_pool(), shard_scratch_, params, &telemetry);
    emit_sector_counters("task1", telemetry);
  } else {
    result.stats =
        reference::correlate_and_track(db_, frame, scratch_, params);
  }
  result.modeled_ms = sw.elapsed_ms();
  return result;
}

Task23Result ReferenceBackend::do_run_task23(const Task23Params& params) {
  const rt::Stopwatch sw;
  Task23Result result;
  if (params.shard == core::spatial::ShardMode::kSectors) {
    sharded::ShardTelemetry telemetry;
    result.stats = sharded::detect_and_resolve(db_, shard_pool(),
                                               shard_scratch_, params,
                                               &telemetry);
    emit_sector_counters("task23", telemetry);
  } else {
    result.stats = reference::detect_and_resolve(db_, params);
  }
  result.modeled_ms = sw.elapsed_ms();
  return result;
}

}  // namespace atm::tasks
