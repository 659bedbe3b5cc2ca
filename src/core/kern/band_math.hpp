// Canonical scalar form of the Batcher band-intersection math (paper
// Section 5.2, Equations 1-6) and the altitude proximity gate.
//
// This header is the single source of truth for the inner predicates:
// src/atm/batcher.{hpp,cpp} delegates here, the scalar batch kernel
// (kernels_scalar.cpp) calls these functions per element, and the AVX2
// kernel (kernels_avx2.cpp) replicates exactly these operations in
// 4-wide double lanes — same operation order, same IEEE rounding, and
// min/max operand ordering chosen to match std::min/std::max NaN and
// signed-zero behaviour — so every implementation is bit-identical on
// every input, including NaN/denormal radar noise.
//
// On the time-x graph (paper Fig. 3) each aircraft is a line x(t) with an
// error band of +-1.5 nm; two aircraft can collide in x while the bands
// overlap, i.e. while |dx(t)| <= 3 nm where dx(t) is their relative x
// separation. The same holds in y. The pair is on a collision course when
// the x-overlap window and the y-overlap window intersect in the future:
// time_min = max of the entry times, time_max = min of the exit times,
// and a conflict exists iff time_min < time_max (Equations 5-6), both
// clipped to [0, horizon].
#pragma once

#include <algorithm>
#include <cmath>

#include "src/core/check.hpp"

namespace atm::core::kern {

/// Relative velocities below this (nm/period) are treated as parallel
/// tracks. 1e-9 nm/period = 7.2e-6 knots: far below any physical closure.
inline constexpr double kParallelEps = 1e-9;

/// Time interval (in periods) during which two bands overlap on one axis.
struct AxisWindow {
  double entry = 0.0;   ///< First time the bands overlap.
  double exit = 0.0;    ///< Last time the bands overlap.
  bool always = false;  ///< Bands overlap at all times (parallel & close).
  bool never = false;   ///< Bands never overlap (parallel & apart).
};

/// Overlap window of |p + v t| <= band (one axis). `p` is the current
/// relative separation (nm), `v` the relative velocity (nm/period).
[[nodiscard]] inline AxisWindow axis_band_window(double p, double v,
                                                 double band_nm) {
  AxisWindow w;
  if (std::fabs(v) < kParallelEps) {
    if (std::fabs(p) <= band_nm) {
      w.always = true;
    } else {
      w.never = true;
    }
    return w;
  }
  const double t1 = (-band_nm - p) / v;
  const double t2 = (band_nm - p) / v;
  w.entry = std::min(t1, t2);
  w.exit = std::max(t1, t2);
  return w;
}

/// Result of the pair test: conflict flag and the window [time_min,
/// time_max] clipped to [0, horizon].
struct PairWindow {
  bool conflict = false;
  double time_min = 0.0;
  double time_max = 0.0;
};

/// Full Batcher pair test on relative position (px, py) and relative
/// velocity (vx, vy), with total band width `band_nm` and look-ahead
/// `horizon_periods`.
[[nodiscard]] inline PairWindow pair_band_test(double px, double py,
                                               double vx, double vy,
                                               double band_nm,
                                               double horizon_periods) {
  PairWindow out;

  // Equations 1-6 precondition: a non-positive band_nm or
  // horizon_periods makes every window empty and Tasks 2+3 report zero
  // conflicts — a silently useless sweep, not an error any caller wants.
  ATM_CHECK_MSG(band_nm > 0.0 && horizon_periods > 0.0,
                "degenerate Batcher params: band_nm="
                    << band_nm << " horizon_periods=" << horizon_periods);

  const AxisWindow wx = axis_band_window(px, vx, band_nm);
  const AxisWindow wy = axis_band_window(py, vy, band_nm);
  if (wx.never || wy.never) return out;

  // Equations 5-6: largest entry, smallest exit; an "always" axis
  // contributes (-inf, +inf) and drops out of the max/min.
  double entry = 0.0;
  double exit = horizon_periods;
  if (!wx.always) {
    entry = std::max(entry, wx.entry);
    exit = std::min(exit, wx.exit);
  }
  if (!wy.always) {
    entry = std::max(entry, wy.entry);
    exit = std::min(exit, wy.exit);
  }

  if (entry < exit) {
    out.conflict = true;
    out.time_min = entry;
    out.time_max = exit;
  }
  return out;
}

/// Altitude proximity gate of Algorithm 2 line 3: pairs further apart
/// than `gate_feet` vertically are not in conflict. std::fabs clears the
/// sign bit, as the AVX2 kernel's abs does, and compiles without a branch
/// (the gate splits pairs unpredictably, so a branch mispredicts often).
[[nodiscard]] inline bool altitude_gate_pass(double alt_a, double alt_b,
                                             double gate_feet) {
  return std::fabs(alt_a - alt_b) < gate_feet;
}

}  // namespace atm::core::kern
