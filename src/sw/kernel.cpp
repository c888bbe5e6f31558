#include "sw/kernel.hpp"

#include <string>

#include "base/error.hpp"
#include "sw/block_simd.hpp"

namespace mgpusw::sw {

std::string_view default_kernel_for(SimdIsa backend) {
  return backend == SimdIsa::kScalar ? kReferenceKernel : "auto";
}

std::string_view default_kernel() {
  static const std::string_view name =
      default_kernel_for(dispatched_simd_backend().isa);
  return name;
}

const std::vector<KernelInfo>& kernel_registry() {
  static const std::vector<KernelInfo> registry = [] {
    std::vector<KernelInfo> table;
    table.push_back({std::string(kReferenceKernel), &compute_block,
                     "scalar row sweep (reference)"});
    table.push_back(
        {"simd", &compute_block_simd,
         std::string("8-lane SIMD anti-diagonal (dispatched: ") +
             active_simd_backend() + ")"});
    table.push_back({"simd16", &compute_block_i16,
                     "16-lane saturating int16 SIMD; escalates to int32 "
                     "on overflow"});
    table.push_back({"simd8", &compute_block_i8,
                     "32-lane saturating int8 SIMD; escalates "
                     "int8->int16->int32 on overflow"});
    table.push_back({"auto", &compute_block_auto,
                     "narrowest safe precision (full int8->int32 ladder)"});
    // Pinned backends, strongest first; only the ones this CPU can run
    // (the scalar one always can).
    struct Pinned {
      SimdIsa level;
      const char* suffix;
      const char* label;
    };
    for (const Pinned& p : {Pinned{SimdIsa::kAvx2, "avx2", "AVX2"},
                            Pinned{SimdIsa::kSse42, "sse42", "SSE4.2"},
                            Pinned{SimdIsa::kScalar, "scalar", "scalar"}}) {
      if (detected_simd_isa() < p.level || !simd_backend_runnable(p.level)) {
        continue;
      }
      const SimdBackend& backend = simd_backend(p.level);
      const std::string suffix = std::string("-") + p.suffix;
      const std::string on =
          std::string(" pinned to the ") + p.label + " backend";
      table.push_back({"simd" + suffix, backend.block_i32,
                       "SIMD kernel" + on});
      table.push_back({"simd16" + suffix, backend.block_i16,
                       "int16 ladder" + on});
      table.push_back({"simd8" + suffix, backend.block_i8,
                       "int8 ladder" + on});
    }
    return table;
  }();
  return registry;
}

BlockKernelFn find_kernel(std::string_view name) {
  for (const KernelInfo& info : kernel_registry()) {
    if (info.name == name) return info.fn;
  }
  throw InvalidArgument("unknown block kernel '" + std::string(name) +
                        "' (registered: " + kernel_names() + ")");
}

std::string kernel_names() {
  std::string names;
  for (const KernelInfo& info : kernel_registry()) {
    if (!names.empty()) names += ", ";
    names += info.name;
  }
  return names;
}

}  // namespace mgpusw::sw
