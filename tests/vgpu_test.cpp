#include <gtest/gtest.h>

#include <utility>

#include "base/error.hpp"
#include "base/time.hpp"
#include "vgpu/device.hpp"
#include "vgpu/spec.hpp"

namespace mgpusw {
namespace {

// ---------------------------------------------------------------------------
// specs

TEST(SpecTest, PaperProfilesExist) {
  EXPECT_EQ(vgpu::gtx_560_ti().name, "GTX 560 Ti");
  EXPECT_EQ(vgpu::gtx_580().sm_count, 16);
  EXPECT_GT(vgpu::gtx_680().sw_gcups, vgpu::gtx_580().sw_gcups);
  EXPECT_GT(vgpu::tesla_m2090().memory_bytes, 4LL << 30);
}

TEST(SpecTest, Environment1IsHeterogeneousAndMatchesHeadline) {
  const auto env = vgpu::environment1();
  ASSERT_EQ(env.size(), 3u);
  double total = 0.0;
  for (const auto& spec : env) total += spec.sw_gcups;
  // The paper's headline: up to 140.36 GCUPS with 3 heterogeneous GPUs.
  EXPECT_NEAR(total, 140.4, 1.0);
  EXPECT_NE(env[0].sw_gcups, env[1].sw_gcups);
}

TEST(SpecTest, Environment2IsHomogeneous) {
  const auto env = vgpu::environment2();
  ASSERT_EQ(env.size(), 3u);
  EXPECT_EQ(env[0], env[1]);
  EXPECT_EQ(env[1], env[2]);
}

TEST(SpecTest, SpecByName) {
  EXPECT_EQ(vgpu::spec_by_name("gtx580").name, "GTX 580");
  EXPECT_EQ(vgpu::spec_by_name("m2090").name, "Tesla M2090");
  EXPECT_THROW(vgpu::spec_by_name("rtx4090"), InvalidArgument);
}

// ---------------------------------------------------------------------------
// device runtime

TEST(DeviceTest, KernelAccounting) {
  vgpu::Device device(vgpu::toy_device(1.0));
  device.account_kernel(1000, 12345);
  device.account_kernel(2000, 55);
  EXPECT_EQ(device.kernels_launched(), 2);
  EXPECT_EQ(device.cells_computed(), 12400);
  EXPECT_GE(device.busy_ns(), 3000);
}

TEST(DeviceTest, ThrottleAddsPenalty) {
  vgpu::Device slow(vgpu::toy_device(1.0), {.slowdown = 3.0});
  base::WallTimer timer;
  slow.account_kernel(2'000'000, 100);  // 2 ms kernel -> 4 ms penalty
  const auto elapsed = timer.elapsed_ns();
  EXPECT_GE(elapsed, 3'500'000);
  EXPECT_GE(slow.busy_ns(), 5'500'000);
}

TEST(DeviceTest, InvalidSlowdownThrows) {
  EXPECT_THROW(vgpu::Device(vgpu::toy_device(1.0), {.slowdown = 0.5}),
               InvalidArgument);
}

TEST(DeviceTest, MemoryTracking) {
  vgpu::Device device(vgpu::toy_device(1.0));
  {
    auto buffer = device.allocate(1000);
    EXPECT_EQ(device.memory_used(), 1000);
    auto second = device.allocate(24);
    EXPECT_EQ(device.memory_used(), 1024);
  }
  EXPECT_EQ(device.memory_used(), 0);  // RAII released
}

TEST(DeviceTest, OutOfMemoryThrows) {
  vgpu::DeviceSpec spec = vgpu::toy_device(1.0);
  spec.memory_bytes = 100;
  vgpu::Device device(spec);
  auto buffer = device.allocate(80);
  EXPECT_THROW(device.allocate(21), Error);
  EXPECT_EQ(device.memory_used(), 80);  // failed alloc rolled back
}

TEST(DeviceTest, MoveBufferTransfersOwnership) {
  vgpu::Device device(vgpu::toy_device(1.0));
  auto buffer = device.allocate(64);
  vgpu::DeviceBuffer moved = std::move(buffer);
  EXPECT_EQ(device.memory_used(), 64);
  moved.reset();
  EXPECT_EQ(device.memory_used(), 0);
}

}  // namespace
}  // namespace mgpusw
