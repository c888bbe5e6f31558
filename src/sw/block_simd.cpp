// Runtime dispatcher for the SIMD kernels.
//
// The three backend TUs each compiled block_simd_lp_impl.hpp with
// different -m flags and filled in one SimdBackend row; this TU (compiled
// with the portable baseline flags only) checks the CPU once and routes
// every dispatched kernel — block and batch — to the strongest backend
// that is both (a) supported by the running CPU per cpuid and (b)
// actually compiled with vector instructions — a backend TU built on a
// non-x86 host reports SimdIsa::kScalar and is treated as such.
#include "sw/block_simd.hpp"

#include <cstdlib>
#include <cstring>

namespace mgpusw::sw {

namespace {

/// cpuid-based feature detection. GCC/Clang resolve the builtin on x86;
/// every other architecture reports scalar.
SimdIsa cpu_isa() {
#if defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__))
  if (__builtin_cpu_supports("avx2")) return SimdIsa::kAvx2;
  if (__builtin_cpu_supports("sse4.2")) return SimdIsa::kSse42;
#endif
  return SimdIsa::kScalar;
}

/// Optional cap from the MGPUSW_SIMD environment variable.
SimdIsa apply_env_cap(SimdIsa isa) {
  const char* cap = std::getenv("MGPUSW_SIMD");
  if (cap == nullptr) return isa;
  if (std::strcmp(cap, "scalar") == 0) return SimdIsa::kScalar;
  if (std::strcmp(cap, "sse4.2") == 0 || std::strcmp(cap, "sse42") == 0) {
    return isa < SimdIsa::kSse42 ? isa : SimdIsa::kSse42;
  }
  return isa;  // "avx2" or unrecognised: no cap below detection
}

/// Strongest backend whose compiled code the CPU can run. A backend TU
/// that degraded at compile time (non-x86 host, unsupported -m flag)
/// reports the weaker level and is still safe to call.
const SimdBackend& resolve() {
  for (SimdIsa level : {SimdIsa::kAvx2, SimdIsa::kSse42}) {
    if (detected_simd_isa() >= level && simd_backend_runnable(level)) {
      return simd_backend(level);
    }
  }
  return simd_scalar::kBackend;
}

}  // namespace

SimdIsa detected_simd_isa() {
  static const SimdIsa isa = apply_env_cap(cpu_isa());
  return isa;
}

const char* simd_isa_name(SimdIsa isa) {
  switch (isa) {
    case SimdIsa::kAvx2: return "avx2";
    case SimdIsa::kSse42: return "sse4.2";
    case SimdIsa::kScalar: return "scalar";
  }
  return "scalar";
}

const SimdBackend& simd_backend(SimdIsa level) {
  switch (level) {
    case SimdIsa::kAvx2: return simd_avx2::kBackend;
    case SimdIsa::kSse42: return simd_sse42::kBackend;
    case SimdIsa::kScalar: break;
  }
  return simd_scalar::kBackend;
}

const SimdBackend& dispatched_simd_backend() {
  static const SimdBackend& backend = resolve();
  return backend;
}

const char* active_simd_backend() { return dispatched_simd_backend().name; }

bool simd_backend_runnable(SimdIsa level) {
  return simd_backend(level).isa <= detected_simd_isa();
}

BlockResult compute_block_simd(const ScoreScheme& scheme,
                               const BlockArgs& args) {
  return dispatched_simd_backend().block_i32(scheme, args);
}

BlockResult compute_block_i16(const ScoreScheme& scheme,
                              const BlockArgs& args) {
  return dispatched_simd_backend().block_i16(scheme, args);
}

BlockResult compute_block_i8(const ScoreScheme& scheme,
                             const BlockArgs& args) {
  return dispatched_simd_backend().block_i8(scheme, args);
}

BlockResult compute_block_auto(const ScoreScheme& scheme,
                               const BlockArgs& args) {
  return dispatched_simd_backend().block_i8(scheme, args);
}

}  // namespace mgpusw::sw
