// AVX2 instantiation of the SIMD kernels. CMake compiles this TU with
// -mavx2 on x86 hosts; elsewhere the traits silently degrade to the
// strongest backend the compiler offers (ultimately scalar), which keeps
// the symbols defined and correct on every platform. The runtime
// dispatcher consults kBackend.isa so it never advertises a vector ISA
// this TU was not actually compiled for.
#define MGPUSW_SIMD_NS simd_avx2

#include "sw/block_simd_lp_impl.hpp"
