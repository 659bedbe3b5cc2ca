#include "src/atm/platforms.hpp"

#include "src/atm/ap_backend.hpp"
#include "src/atm/assoc_backend.hpp"
#include "src/atm/clearspeed_backend.hpp"
#include "src/atm/cuda_backend.hpp"
#include "src/atm/mimd_backend.hpp"
#include "src/atm/reference_backend.hpp"
#include "src/atm/vector_backend.hpp"

namespace atm::tasks {

std::unique_ptr<Backend> make_geforce_9800_gt() {
  return std::make_unique<CudaBackend>(simt::geforce_9800_gt());
}

std::unique_ptr<Backend> make_gtx_880m() {
  return std::make_unique<CudaBackend>(simt::gtx_880m());
}

std::unique_ptr<Backend> make_titan_x_pascal() {
  return std::make_unique<CudaBackend>(simt::titan_x_pascal());
}

std::unique_ptr<Backend> make_staran() {
  return std::make_unique<AssocBackend<ApAssocMachine>>();
}

std::unique_ptr<Backend> make_clearspeed() {
  return std::make_unique<AssocBackend<ClearSpeedAssocMachine>>();
}

std::unique_ptr<Backend> make_xeon() {
  return std::make_unique<MimdBackend>();
}

std::unique_ptr<Backend> make_reference() {
  return std::make_unique<ReferenceBackend>();
}

std::unique_ptr<Backend> make_xeon_phi() {
  return std::make_unique<VectorBackend>();
}

std::vector<std::unique_ptr<Backend>> make_platforms(PlatformSet set) {
  std::vector<std::unique_ptr<Backend>> platforms;
  if (set == PlatformSet::kAllPlatforms) {
    platforms.push_back(make_staran());
    platforms.push_back(make_clearspeed());
    platforms.push_back(make_xeon());
  }
  platforms.push_back(make_geforce_9800_gt());
  platforms.push_back(make_gtx_880m());
  platforms.push_back(make_titan_x_pascal());
  return platforms;
}

}  // namespace atm::tasks
