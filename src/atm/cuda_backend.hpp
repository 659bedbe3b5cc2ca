// The NVIDIA-CUDA platform backend: the paper's program structure on the
// SIMT engine, parameterized by which card's DeviceSpec it models.
#pragma once

#include <cstdint>
#include <vector>

#include "src/atm/backend.hpp"
#include "src/atm/cuda_kernels.hpp"
#include "src/simt/device.hpp"

namespace atm::tasks {

class CudaBackend final : public Backend {
 public:
  /// `threads_per_block` defaults to the paper's 96 (Section 6.1).
  explicit CudaBackend(simt::DeviceSpec spec,
                       int threads_per_block = core::kPaperThreadsPerBlock);

  [[nodiscard]] std::string name() const override;

  void load(const airfield::FlightDb& db) override;

  /// A-3 ablation: detection mapped one-thread-per-*pair* on a 2-D grid
  /// (atomic-min folding) instead of the paper's one-thread-per-aircraft
  /// row scan, followed by the same resolution kernel. Results identical;
  /// cost differs by the atomic traffic and the n^2 thread launch.
  Task23Result run_task23_pairgrid(const Task23Params& params);

  /// A-1 ablation: Tasks 2+3 as *separate* detect / resolve kernels with
  /// the host round trip of the critical flags in between — the structure
  /// the paper rejected in Section 4 ("it cuts overhead for memory and
  /// data transfer ... better to have in one function").
  Task23Result run_task23_split(const Task23Params& params);

  [[nodiscard]] const airfield::FlightDb& state() const override {
    return db_;
  }
  airfield::FlightDb& mutable_state() override { return db_; }

  /// SetupFlight as a device kernel: initialize n aircraft from a seed
  /// (distribution-equivalent to airfield::make_airfield; per-thread RNG
  /// streams). Returns the modeled kernel time.
  double setup_flights_on_device(std::size_t n, std::uint64_t seed,
                                 const airfield::SetupParams& params = {});

  /// The simulated device (for occupancy experiments and totals).
  [[nodiscard]] simt::Device& device() { return device_; }
  [[nodiscard]] int threads_per_block() const { return threads_per_block_; }
  void set_threads_per_block(int tpb) { threads_per_block_ = tpb; }

 private:
  Task1Result do_run_task1(airfield::RadarFrame& frame,
                           const Task1Params& params) final;
  Task23Result do_run_task23(const Task23Params& params) final;

  /// GenerateRadarData on the device + the paper's device->host shuffle
  /// round trip (Section 4.1), with the shuffle itself on the host.
  airfield::RadarFrame do_generate_radar(
      core::Rng& rng, const airfield::RadarParams& params,
      double* modeled_ms) final;

  // --- Extended system ----------------------------------------------------

  /// Attaching terrain models the one-time host->device upload of the
  /// heightmap.
  void on_terrain_attached() final;
  TerrainResult do_run_terrain(const TerrainTaskParams& params) final;
  DisplayResult do_run_display(const DisplayParams& params) final;
  AdvisoryResult do_run_advisory(const AdvisoryParams& params) final;
  MultiRadarResult do_run_multi_task1(airfield::MultiRadarFrame& frame,
                                      const Task1Params& params) final;
  SporadicResult do_run_sporadic(std::span<const Query> queries,
                                 const SporadicParams& params) final;

 private:
  cuda::DroneView drone_view();
  cuda::RadarView radar_view();
  void resize_scratch(std::size_t n);
  /// The counters of the Tasks 2+3 run that just filled counters_.
  [[nodiscard]] Task23Stats task23_stats() const;
  /// Copy the working radar arrays out to `frame.rmatch_with`.
  void export_radar_matches(airfield::RadarFrame& frame) const;
  /// Bytes of one radar frame on the wire (rx, ry, rMatchWith).
  [[nodiscard]] std::uint64_t radar_frame_bytes() const;

  simt::Device device_;
  int threads_per_block_;
  airfield::FlightDb db_;  ///< Device-resident flight SoA (see simt::Device::transfer).

  // Device-resident working buffers.
  std::vector<double> ex_, ey_;
  std::vector<std::int32_t> amatch_, nradars_;
  std::vector<double> radar_rx_, radar_ry_;
  std::vector<std::int32_t> radar_match_, radar_nhits_, radar_hit_;
  std::vector<std::uint8_t> flags_a_, flags_b_;
  std::vector<std::uint64_t> counters_;

  // Extended-system device buffers.
  std::vector<std::int32_t> occupancy_;
  std::vector<double> multi_rx_, multi_ry_;
  std::vector<std::int32_t> multi_match_, multi_nhits_, multi_hit_;
};

}  // namespace atm::tasks
