// Block-kernel registry: every way this repo can compute a block, by name.
//
// The engine, the vgpu executors, device calibration, the benches and the
// CLI --kernel flags all select block kernels through this table instead
// of hard-coding calls, so adding a kernel (a new traversal, a new ISA
// backend, a future per-device heterogeneous choice) is one registration
// here plus nothing anywhere else.
//
// Registered names:
//   row          scalar row sweep (the reference)
//   simd         8-lane int32 SIMD anti-diagonal (the paper's wavefront
//                inside a block), runtime-dispatched to the strongest
//                ISA backend the CPU supports
//   simd16       16-lane saturating int16 SIMD with overflow detection;
//                escalates to the int32 simd kernel when a block might
//                have saturated (bit-identical either way)
//   simd8        32-lane saturating int8 SIMD; escalates int8 -> int16
//                -> int32
//   auto         narrowest safe precision — the full int8 ladder; the
//                library default on a vector backend (default_kernel)
//   simd-scalar  the SIMD kernel pinned to its scalar backend (always
//                present — the guaranteed fallback)
//   simd-sse42 / simd-avx2
//                pinned vector backends, registered only when the running
//                CPU can execute them (ablation + parity testing)
//   simd16-* / simd8-*
//                the narrow ladders pinned per backend, same registration
//                rule as the pinned simd-* entries
//
// Every simd* entry is one template (sw/block_simd_lp_impl.hpp) at one
// lane width on one backend, or a precision ladder of those instances.
// All entries satisfy the same contract and are bit-identical to `row`
// (tests/sw_kernel_parity_test.cpp sweeps the whole table).
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "sw/block.hpp"
#include "sw/block_simd.hpp"

namespace mgpusw::sw {

/// Every block kernel is a pure function of (scheme, args).
using BlockKernelFn = BlockResult (*)(const ScoreScheme& scheme,
                                      const BlockArgs& args);

struct KernelInfo {
  std::string name;
  BlockKernelFn fn = nullptr;
  std::string description;
};

/// Name of the reference kernel (the scalar row sweep): the registry's
/// front entry and the baseline every other kernel is checked against.
inline constexpr std::string_view kReferenceKernel = "row";

/// The kernel a backend-level choice resolves to: the int8 ladder
/// ("auto") on a vector backend, the reference kernel on the scalar one,
/// where the ladder's lane emulation runs below the row sweep.
[[nodiscard]] std::string_view default_kernel_for(SimdIsa backend);

/// The library's default kernel: default_kernel_for the dispatched SIMD
/// backend (after any MGPUSW_SIMD cap). Resolved once per process.
[[nodiscard]] std::string_view default_kernel();

/// All kernels runnable on this host, reference first. Built once;
/// stable for the process lifetime.
[[nodiscard]] const std::vector<KernelInfo>& kernel_registry();

/// Looks a kernel up by name; throws InvalidArgument listing the valid
/// names for unknown ones.
[[nodiscard]] BlockKernelFn find_kernel(std::string_view name);

/// Comma-separated registered names, for --help strings and errors.
[[nodiscard]] std::string kernel_names();

}  // namespace mgpusw::sw
