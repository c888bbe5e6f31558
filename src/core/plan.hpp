// Plan layer: everything decided *before* an alignment executes.
//
// An AlignmentPlan is a pure value describing one multi-device
// comparison: matrix geometry, the block grid, the speed-proportional
// column partition, the channel topology between neighbouring devices,
// and (for resumed runs) the seed position. The block kernel is not part
// of the plan: every device runs the engine's one resolved kernel. Both
// the real engine (core::MultiDeviceEngine) and the performance model
// (sim::simulate_pipeline) build their execution from the same plan, so
// the slice arithmetic exists in exactly one place — the engine
// validates the schedule computes correct scores, the simulator projects
// the same schedule to paper-scale hardware.
#pragma once

#include <cstdint>
#include <vector>

#include "core/partition.hpp"
#include "vgpu/spec.hpp"

namespace mgpusw::core {

/// Default block geometry of the engine and the planner. Short blocks
/// keep the pipeline fill (one block row per device hop) small; wide
/// ones amortise the per-block border and dispatch cost of the SIMD
/// kernels. Plain constants, not functions of the device count: a
/// resumed run (recovery on a shrunken pool, a journal replay in a later
/// daemon) restarts from a checkpoint row on a block-row boundary, so
/// block_rows must not move when the pool does.
inline constexpr std::int64_t kDefaultBlockRows = 256;
inline constexpr std::int64_t kDefaultBlockCols = 2048;

/// The column split's granule: make_plan apportions columns in units of
/// min(block_cols, kPartitionGranule), so wide blocks do not coarsen the
/// split. A slice is tiled from its first column, so its last block
/// column may be narrower than block_cols.
inline constexpr std::int64_t kPartitionGranule = 256;

enum class Transport {
  kInProcess,  // circular buffer in shared memory
  kTcp,        // loopback TCP sockets with the same framing
};

/// One device's share of the plan.
struct SlicePlan {
  ColumnRange slice;               // contiguous subject columns
  std::int64_t block_columns = 0;  // nbc: block columns in the slice
  bool has_upstream = false;       // receives border chunks from d-1
  bool has_downstream = false;     // sends border chunks to d+1

  bool operator==(const SlicePlan&) const = default;
};

/// Inputs to plan construction. Weights are already resolved to one
/// positive number per device (see spec_weights / profile_weights).
struct PlanRequest {
  std::int64_t rows = 0;  // query length (cells)
  std::int64_t cols = 0;  // subject length (cells)
  std::int64_t block_rows = kDefaultBlockRows;
  std::int64_t block_cols = kDefaultBlockCols;
  std::int64_t buffer_capacity = 16;
  Transport transport = Transport::kInProcess;
  std::vector<double> weights;
  std::int64_t start_block_row = 0;  // > 0 when resuming from a checkpoint
};

/// The full pre-execution decision record for one comparison.
struct AlignmentPlan {
  std::int64_t rows = 0;
  std::int64_t cols = 0;
  std::int64_t block_rows = 0;
  std::int64_t block_cols = 0;
  std::int64_t block_row_count = 0;  // nbr, shared by every slice
  std::int64_t buffer_capacity = 0;
  Transport transport = Transport::kInProcess;
  std::int64_t start_block_row = 0;
  std::vector<SlicePlan> devices;

  [[nodiscard]] std::size_t device_count() const { return devices.size(); }

  /// Border channels between consecutive devices.
  [[nodiscard]] std::size_t channel_count() const {
    return devices.empty() ? 0 : devices.size() - 1;
  }

  bool operator==(const AlignmentPlan&) const = default;
};

/// Builds the plan: derives the block grid, partitions the columns
/// proportionally to the weights (granularity min(block_cols,
/// kPartitionGranule)) and tiles each slice into ceil(slice.cols /
/// block_cols) block columns.
/// Throws InvalidArgument on inconsistent requests (non-positive
/// geometry, too many devices for the matrix, weight count mismatch).
[[nodiscard]] AlignmentPlan make_plan(const PlanRequest& request);

/// Profile weights straight from device specs (sw_gcups): the simulator's
/// default split, and the engine's (core::spec_weights) for unthrottled
/// devices.
[[nodiscard]] std::vector<double> profile_weights(
    const std::vector<vgpu::DeviceSpec>& devices);

}  // namespace mgpusw::core
