// Differential conformance oracle: run one forged case across the whole
// host configuration matrix and assert bit-identical outcomes, plus the
// metamorphic invariants no single configuration can check on its own.
//
// Four independent probes, each switchable:
//
//  * host matrix — {reference, MIMD} x {scalar, avx2} x {brute, grid} x
//    {unsharded, 2x2, 4x4} through the full pipeline; every leg must
//    produce the baseline's outcome counters, per-period wrap counts,
//    bit-identical flight state, and identical correlation/collision
//    working state. (kAvx2 resolves to scalar on hosts without AVX2 —
//    kern::resolve() — so the matrix is portable.)
//  * platform backends — STARAN AP, ClearSpeed, and the vector backend
//    on outcome-level equivalence against the same baseline (they model
//    all-pairs hardware and ignore the host-path axes).
//  * metamorphic invariants — aircraft-permutation invariance of the
//    detection/resolution outcome, and broadphase-pruning soundness
//    (every brute-force conflict partner must be enumerated by the swept
//    index).
//  * full system — the Section 7.2 extended executive (display, terrain,
//    advisory, sporadic queries) reference vs. MIMD on outcome level.
//
// The sector-count invariance the ISSUE names is the shard axis of the
// host matrix: 1 (unsharded) vs 2x2 vs 4x4 over identical inputs.
#pragma once

#include <string>
#include <vector>

#include "src/testkit/forge.hpp"

namespace atm::testkit {

struct OracleOptions {
  bool host_matrix = true;
  bool platform_backends = true;
  bool metamorphic = true;
  bool full_system = true;
};

/// One observed divergence: which run disagreed and how.
struct Divergence {
  std::string where;   ///< e.g. "mimd/avx2/grid/4x4" or "permutation".
  std::string detail;  ///< Human-readable mismatch description.
};

struct OracleReport {
  int runs = 0;  ///< Pipeline/system executions performed.
  std::vector<Divergence> divergences;

  [[nodiscard]] bool ok() const { return divergences.empty(); }
  /// All divergences joined into one printable block.
  [[nodiscard]] std::string to_string() const;
};

/// Run every enabled probe for one case. A clean report means every
/// configuration agreed bit-for-bit and every invariant held.
[[nodiscard]] OracleReport check_case(const ForgedCase& c,
                                      const OracleOptions& options = {});

/// Compare two pipeline executions of the same case (states + outcome
/// stats + per-period wraps), appending any mismatch to `report` under
/// the label `where`. Returns true when the runs agree. `got`/`want` are
/// the backends' post-run states. Exposed so the shrinker and the
/// planted-bug self-test can reuse the exact comparison the matrix uses.
bool compare_runs(const std::string& where,
                  const tasks::PipelineResult& got,
                  const airfield::FlightDb& got_state,
                  const tasks::PipelineResult& want,
                  const airfield::FlightDb& want_state,
                  OracleReport& report);

}  // namespace atm::testkit
