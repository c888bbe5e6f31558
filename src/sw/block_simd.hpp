// SIMD anti-diagonal block kernels with runtime ISA dispatch.
//
// Every kernel here is bit-identical to sw::compute_block (same border
// contract, same best cell and tie-breaking, same border_max) but updates
// one intra-block anti-diagonal of cells per step, one cell per vector
// lane. One template (block_simd_lp_impl.hpp) computes a block at three
// lane widths from the sw/simd_lp.hpp traits:
//
//   int32 :  8 lanes, exact — the `simd` kernel;
//   int16 : 16 lanes, saturating (8 on SSE4.2);
//   int8  : 32 lanes, saturating (16 on SSE4.2).
//
// The template is compiled three times — AVX2, SSE4.2 and scalar
// translation units, each with its own -m flags — and a cpuid check picks
// the strongest backend the running CPU supports, so one portable binary
// never executes an instruction the host lacks. The MGPUSW_SIMD
// environment variable ("avx2", "sse4.2", "scalar") caps the dispatch
// below the detected level — useful for ablation runs and for exercising
// the fallback paths on capable hardware.
//
// The narrow widths run the same traversal with *saturating* arithmetic
// and escalate to the next wider precision when a block's values might
// not have been exact (the standard trick of fast SW libraries: compute
// narrow, detect, rerun wide). The precision ladder (per block):
//
//   simd8  : int8 -> int16 -> int32
//   simd16 : int16 -> int32
//   auto   : alias of the full ladder — "narrowest safe precision",
//            usable as a per-device DeviceSpec::kernel choice.
//
// Exactness argument (all results stay bit-identical to compute_block):
//  * Up-saturation can only happen to H (gains come only from `match`
//    on a diagonal step). Any saturated H equals the narrow type's max,
//    which is >= the watermark (max - match); conversely if every
//    observed H stays *below* the watermark, no addition ever
//    saturated, so every H/E/F value in the block is exact. The kernel
//    checks the per-strip running maxima against the watermark and
//    reports overflow — the ladder then re-runs the untouched block at
//    the next precision (inputs are only converted, never overwritten,
//    until the narrow pass is known exact).
//  * Down-saturation only happens to neg-inf gap sentinels (border E/F
//    values below the narrow range are clamped on conversion). A clamped
//    chain can never win a max: the competing H-derived branch is
//    >= -gap_first (H >= 0 everywhere), while clamped values stay below
//    -(gap_first + gap_extend) by the scheme pre-check. Winners and
//    their values are therefore identical to the int32 computation.
//  * Blocks whose border H values or scoring parameters cannot be
//    represented narrowly fail a cheap O(rows+cols) pre-check and
//    escalate before any work is done.
//  * The int32 rung is the ladder's last and needs none of this: int32
//    lanes hold every Score the recurrence produces, so it computes with
//    plain adds and has no watermark and no exit.
//
// Best-cell tie-breaking is preserved exactly: strict '>' keeps the
// smallest column per lane (column offsets are tracked per segment so a
// narrow lane type can index megabase-wide blocks), segments and strips
// merge in traversal order, and the cross-row reduction walks lanes
// ascending — the same order compute_block resolves ties in.
#pragma once

#include "sw/block.hpp"

namespace mgpusw::sw {

struct PairView;  // sw/batch_simd.hpp

/// ISA levels the dispatcher distinguishes, weakest first.
enum class SimdIsa { kScalar = 0, kSse42 = 1, kAvx2 = 2 };

/// The dispatched block kernels (registry: "simd", "simd16", "simd8",
/// "auto"); each resolves the backend on first use. compute_block_auto
/// is the int8 ladder, named separately so device specs and calibration
/// can ask for "the narrowest precision that is safe for this block"
/// without naming a width.
BlockResult compute_block_simd(const ScoreScheme& scheme,
                               const BlockArgs& args);
BlockResult compute_block_i16(const ScoreScheme& scheme,
                              const BlockArgs& args);
BlockResult compute_block_i8(const ScoreScheme& scheme,
                             const BlockArgs& args);
BlockResult compute_block_auto(const ScoreScheme& scheme,
                               const BlockArgs& args);

/// Highest ISA level the running CPU supports (cpuid-based; honours the
/// MGPUSW_SIMD cap). kScalar on non-x86 hosts.
[[nodiscard]] SimdIsa detected_simd_isa();

/// "avx2", "sse4.2" or "scalar".
[[nodiscard]] const char* simd_isa_name(SimdIsa isa);

/// Backend the dispatched kernels actually run — the detected ISA level
/// further capped by what the backend TU was compiled with (on a non-x86
/// build every backend degrades to "scalar").
[[nodiscard]] const char* active_simd_backend();

/// True when the backend compiled for `level` can execute on the
/// running CPU.
[[nodiscard]] bool simd_backend_runnable(SimdIsa level);

/// Headroom pre-check of the narrow kernels (block and batch): the
/// scheme must leave room for one gap chain below the neg-inf sentinel
/// and one match above the watermark; a quarter of the lane maximum per
/// parameter guarantees both with room to spare.
[[nodiscard]] inline bool scheme_fits(const ScoreScheme& scheme,
                                      int lane_max) {
  const int cap = lane_max / 4;
  return scheme.match <= cap && -scheme.mismatch <= cap &&
         scheme.gap_first() <= cap && scheme.gap_extend <= cap;
}

/// One backend translation unit's entry points, all pinned to its ISA:
/// the block ladders never escalate onto another backend, so the pinned
/// registry entries ablate ISAs and not dispatch policies.
struct SimdBackend {
  using BlockFn = BlockResult (*)(const ScoreScheme&, const BlockArgs&);
  /// Computes `n` (<= that width's lane count) pairs in one vector sweep;
  /// out[k] receives pair k's result, overflow[k] is set when the lane
  /// hit the saturation watermark and out[k] must be recomputed wider.
  /// Callers pre-check the scheme with scheme_fits.
  using BatchGroupFn = void (*)(const ScoreScheme&, const PairView* pairs,
                                int n, ScoreResult* out, bool* overflow);

  const char* name;  // what the TU was compiled for: "avx2", "sse4.2", ...
  SimdIsa isa;       // the same, as the level the dispatcher compares
  BlockFn block_i32;  // exact int32
  BlockFn block_i16;  // int16 -> int32 ladder
  BlockFn block_i8;   // int8 -> int16 -> int32 ladder
  BatchGroupFn batch_i16;
  BatchGroupFn batch_i8;
  int batch_i16_lanes;  // group size per tier: backends differ in lanes
  int batch_i8_lanes;
};

/// The backend compiled for `level`; callable only when
/// simd_backend_runnable(level).
[[nodiscard]] const SimdBackend& simd_backend(SimdIsa level);

/// The strongest runnable backend — what the dispatched kernels use.
[[nodiscard]] const SimdBackend& dispatched_simd_backend();

namespace simd_avx2 {
extern const SimdBackend kBackend;
}  // namespace simd_avx2
namespace simd_sse42 {
extern const SimdBackend kBackend;
}  // namespace simd_sse42
namespace simd_scalar {
extern const SimdBackend kBackend;
}  // namespace simd_scalar

}  // namespace mgpusw::sw
