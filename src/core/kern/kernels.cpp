// Kernel dispatch: runtime cpuid gating plus name round-trips for the
// config surface (--kernel flags, trace events, bench tables).
#include "src/core/kern/kernels.hpp"

#include "src/core/check.hpp"
#include "src/core/kern/kernels_detail.hpp"

namespace atm::core::kern {

bool avx2_available() {
#if defined(ATM_HOST_SIMD_AVX2)
  // __builtin_cpu_supports probes cpuid once and caches inside libgcc /
  // compiler-rt; the static localizes the probe anyway.
  static const bool ok = __builtin_cpu_supports("avx2") != 0;
  return ok;
#else
  return false;
#endif
}

Kernel resolve(KernelMode mode) {
  switch (mode) {
    case KernelMode::kScalar:
      return Kernel::kScalar;
    case KernelMode::kAvx2:
    case KernelMode::kAuto:
      break;
  }
  return avx2_available() ? Kernel::kAvx2 : Kernel::kScalar;
}

std::string_view to_string(Kernel kernel) {
  switch (kernel) {
    case Kernel::kScalar:
      return "scalar";
    case Kernel::kAvx2:
      return "avx2";
  }
  return "?";
}

std::string_view to_string(KernelMode mode) {
  switch (mode) {
    case KernelMode::kAuto:
      return "auto";
    case KernelMode::kScalar:
      return "scalar";
    case KernelMode::kAvx2:
      return "avx2";
  }
  return "?";
}

bool kernel_mode_from_string(std::string_view name, KernelMode& out) {
  if (name == "auto") {
    out = KernelMode::kAuto;
  } else if (name == "scalar") {
    out = KernelMode::kScalar;
  } else if (name == "avx2") {
    out = KernelMode::kAvx2;
  } else {
    return false;
  }
  return true;
}

namespace {

/// A Kernel value must already be resolved against availability; kAvx2
/// reaching a scalar-only binary is a dispatch bug, not a fallback.
void check_resolved(Kernel kernel) {
  ATM_CHECK_MSG(kernel == Kernel::kScalar || avx2_available(),
                "unresolved kernel request: avx2 selected but unavailable "
                "(route requests through kern::resolve)");
}

}  // namespace

// `lanes_masked` is unused when the build compiles the AVX2 kernels out
// (ATM_HOST_SIMD=OFF): the scalar kernels mask no lanes.

std::size_t box_test_batch(Kernel kernel, const double* ex,
                           const double* ey, std::size_t n,
                           const std::uint8_t* eligible, double cx,
                           double cy, double half_nm,
                           std::int32_t* out_hits,
                           [[maybe_unused]] std::uint64_t* lanes_masked) {
  check_resolved(kernel);
#if defined(ATM_HOST_SIMD_AVX2)
  if (kernel == Kernel::kAvx2) {
    return detail::box_test_batch_avx2(ex, ey, n, eligible, cx, cy,
                                       half_nm, out_hits, lanes_masked);
  }
#endif
  return detail::box_test_batch_scalar(ex, ey, n, eligible, cx, cy,
                                       half_nm, out_hits);
}

std::size_t box_test_batch_indexed(Kernel kernel, const double* ex,
                                   const double* ey,
                                   const std::int32_t* idx, std::size_t m,
                                   double cx, double cy, double half_nm,
                                   std::int32_t* out_hits,
                                   [[maybe_unused]] std::uint64_t*
                                       lanes_masked) {
  check_resolved(kernel);
#if defined(ATM_HOST_SIMD_AVX2)
  if (kernel == Kernel::kAvx2) {
    return detail::box_test_batch_indexed_avx2(
        ex, ey, idx, m, cx, cy, half_nm, out_hits, lanes_masked);
  }
#endif
  return detail::box_test_batch_indexed_scalar(ex, ey, idx, m, cx, cy,
                                               half_nm, out_hits);
}

void band_intersect_batch(Kernel kernel, const SoaView& view,
                          const std::int32_t* idx, std::size_t m,
                          double xi, double yi, double alti, double vxi,
                          double vyi, const BandParams& params,
                          double* out_tmin, std::uint8_t* out_flags,
                          [[maybe_unused]] std::uint64_t* lanes_masked) {
  check_resolved(kernel);
#if defined(ATM_HOST_SIMD_AVX2)
  if (kernel == Kernel::kAvx2) {
    detail::band_intersect_batch_avx2(view, idx, m, xi, yi, alti, vxi,
                                      vyi, params, out_tmin, out_flags,
                                      lanes_masked);
    return;
  }
#endif
  detail::band_intersect_batch_scalar(view, idx, m, xi, yi, alti, vxi,
                                      vyi, params, out_tmin, out_flags);
}

}  // namespace atm::core::kern
