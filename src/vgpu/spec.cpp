#include "vgpu/spec.hpp"

#include "base/error.hpp"

namespace mgpusw::vgpu {

DeviceSpec gtx_560_ti() {
  return DeviceSpec{
      .name = "GTX 560 Ti",
      .sm_count = 8,
      .clock_mhz = 822,
      .memory_bytes = 1LL << 30,  // 1 GiB
      .sw_gcups = 33.0,
      .pcie_gbytes_per_s = 3.0,
      .pcie_latency_us = 8.0,
  };
}

DeviceSpec gtx_580() {
  return DeviceSpec{
      .name = "GTX 580",
      .sm_count = 16,
      .clock_mhz = 772,
      .memory_bytes = 1536LL << 20,  // 1.5 GiB
      .sw_gcups = 50.0,
      .pcie_gbytes_per_s = 3.2,
      .pcie_latency_us = 8.0,
  };
}

DeviceSpec gtx_680() {
  return DeviceSpec{
      .name = "GTX 680",
      .sm_count = 8,
      .clock_mhz = 1006,
      .memory_bytes = 2LL << 30,  // 2 GiB
      .sw_gcups = 57.5,
      .pcie_gbytes_per_s = 5.5,
      .pcie_latency_us = 6.0,
  };
}

DeviceSpec tesla_m2090() {
  return DeviceSpec{
      .name = "Tesla M2090",
      .sm_count = 16,
      .clock_mhz = 650,
      .memory_bytes = 6LL << 30,  // 6 GiB
      .sw_gcups = 46.0,
      .pcie_gbytes_per_s = 3.0,
      .pcie_latency_us = 10.0,
  };
}

DeviceSpec toy_device(double gcups) {
  return DeviceSpec{
      .name = "toy-" + std::to_string(gcups),
      .sm_count = 2,
      .clock_mhz = 100,
      .memory_bytes = 256LL << 20,
      .sw_gcups = gcups,
      .pcie_gbytes_per_s = 1.0,
      .pcie_latency_us = 5.0,
  };
}

std::vector<DeviceSpec> environment1() {
  return {gtx_560_ti(), gtx_580(), gtx_680()};
}

std::vector<DeviceSpec> environment2() {
  return {tesla_m2090(), tesla_m2090(), tesla_m2090()};
}

DeviceSpec spec_by_name(const std::string& name) {
  if (name == "gtx560ti") return gtx_560_ti();
  if (name == "gtx580") return gtx_580();
  if (name == "gtx680") return gtx_680();
  if (name == "m2090") return tesla_m2090();
  throw InvalidArgument("unknown device name: " + name +
                        " (expected gtx560ti, gtx580, gtx680 or m2090)");
}

}  // namespace mgpusw::vgpu
