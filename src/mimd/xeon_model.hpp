// Cost model for the paper's 16-core Intel Xeon baseline.
//
// The multi-core ATM implementation in [13] keeps the aircraft database in
// shared memory that every core reads and writes, with the synchronization
// that requires. Its reported behaviour — rapidly (the paper says possibly
// exponentially) growing runtimes and large numbers of missed deadlines —
// comes from three asynchronous-execution effects the authors call out:
// lock contention on the shared records, fork/join barriers every parallel
// region, and OS scheduling jitter that makes constant-time work take a
// variable amount of time (Section 2.3: MIMD machines are not
// "predictable").
//
// Our MIMD backend really executes the tasks on a host thread pool
// (src/mimd/thread_pool.hpp) and counts the work it did: inner-loop
// operations, the lock acquisitions [13] would take for that work
// (charged from counts; the host takes no lock on task data), and
// parallel regions. This model converts those counters into the modeled
// 16-core Xeon time:
//
//   t = barriers + compute/cores + locks * lock_cost * contention / cores
//   contention(n) = 1 + alpha * sqrt(n / 1000)        (hot-lock crowding)
//   t *= (1 + jitter)                                 (scheduling noise)
//
// The contention exponent and constants are calibrated so the modeled
// curve reproduces the relationship in the paper's Figures 4 and 6: the
// Xeon sits far above every other platform and crosses the half-second
// deadline inside the swept aircraft range. The jitter term is driven by a
// caller-provided RNG, so repeated runs give *different* times — the
// paper's nondeterminism claim — while any fixed seed stays reproducible.
#pragma once

#include <cstdint>
#include <string>

#include "src/core/rng.hpp"

namespace atm::mimd {

/// Work counters measured from an actual thread-pool execution.
struct WorkCounters {
  std::uint64_t items = 0;        ///< Outer work items (aircraft/radars).
  std::uint64_t inner_ops = 0;    ///< Inner-loop operations executed.
  std::uint64_t locked_ops = 0;   ///< [13]'s lock acquisitions, charged.
  std::uint64_t parallel_regions = 0;  ///< fork/join barriers.
};

/// Calibration constants for the modeled Xeon.
struct XeonSpec {
  std::string name = "Intel Xeon (16 cores)";
  int cores = 16;
  double clock_ghz = 2.4;
  double cycles_per_inner_op = 10.0;  ///< Pair/box test incl. loads.
  double lock_ns = 25.0;              ///< Uncontended lock+unlock.
  double contention_alpha = 1.0;      ///< Hot-lock crowding coefficient.
  double barrier_us = 12.0;           ///< Per parallel-region fork/join.
  double jitter_frac = 0.15;          ///< Max uniform scheduling noise.
  double spike_probability = 0.05;    ///< Chance of an OS straggler spike.
  double spike_frac = 0.5;            ///< Extra inflation during a spike.
};

/// The paper's baseline machine.
[[nodiscard]] XeonSpec paper_xeon_spec();

/// Converts measured work into modeled multi-core milliseconds.
class XeonModel {
 public:
  explicit XeonModel(XeonSpec spec) : spec_(std::move(spec)) {}

  [[nodiscard]] const XeonSpec& spec() const { return spec_; }

  /// Modeled time for the measured work. `jitter_rng` drives the
  /// scheduling-noise terms; pass a fixed-seed RNG for reproducible runs
  /// or a per-run seed to expose the MIMD nondeterminism.
  [[nodiscard]] double model_ms(const WorkCounters& work,
                                core::Rng& jitter_rng) const;

  /// The deterministic part only (no jitter): useful for tests.
  [[nodiscard]] double deterministic_ms(const WorkCounters& work) const;

 private:
  XeonSpec spec_;
};

}  // namespace atm::mimd
