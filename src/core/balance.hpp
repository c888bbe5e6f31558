// Load-balancing weight computation.
//
// The paper sizes device slices statically, proportional to each GPU's
// measured Smith-Waterman speed. spec_weights() uses the profile figures;
// calibrate_weights() measures the actual speed of each virtual device by
// timing a short block sweep on it in isolation — the equivalent of the
// paper's short calibration run before the real comparison.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sw/kernel.hpp"
#include "sw/scoring.hpp"
#include "vgpu/device.hpp"

namespace mgpusw::core {

/// Weights from device profiles: sw_gcups divided by the runtime
/// slowdown throttle. The engine's split when EngineConfig::weights is
/// empty.
[[nodiscard]] std::vector<double> spec_weights(
    const std::vector<vgpu::Device*>& devices);

/// Measures each device's effective cell rate with a short sweep of
/// `sample_rows` x `sample_cols` random-sequence cells (devices timed one
/// at a time; per device: one unclocked warmup sweep, then the minimum
/// over a few timed repetitions, so cold-start skew cannot seed a bad
/// split). Returns cells/second per device, usable directly as partition
/// weights. The sweep runs the named block kernel — pass the kernel the
/// real comparison will use, so the calibration measures the code path
/// that actually runs.
[[nodiscard]] std::vector<double> calibrate_weights(
    const std::vector<vgpu::Device*>& devices, const sw::ScoreScheme& scheme,
    std::int64_t sample_rows = 2048, std::int64_t sample_cols = 2048,
    std::uint64_t seed = 42,
    const std::string& kernel = std::string(sw::default_kernel()));

}  // namespace mgpusw::core
