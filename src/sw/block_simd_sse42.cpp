// SSE4.2 instantiation of the SIMD kernels. CMake compiles this TU with
// -msse4.2 on x86 hosts; elsewhere it degrades to scalar. See
// block_simd_avx2.cpp for the dispatch contract.
#define MGPUSW_SIMD_NS simd_sse42

#include "sw/block_simd_lp_impl.hpp"
