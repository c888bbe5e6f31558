// Scalar instantiation of the SIMD kernels: the guaranteed fallback the
// dispatcher can always run, on any CPU. MGPUSW_SIMD_FORCE_SCALAR pins
// the scalar traits even if this TU's compile flags would allow a vector
// backend, so the fallback path is genuinely exercised (and
// parity-tested) on vector-capable build hosts too.
#define MGPUSW_SIMD_FORCE_SCALAR 1
#define MGPUSW_SIMD_NS simd_scalar

#include "sw/block_simd_lp_impl.hpp"
