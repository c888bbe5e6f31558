// The SIMD block kernel — one template over a width trait from
// sw/simd_lp.hpp (LpI32: 8x int32, LpI16: 16x int16, LpI8: 32x int8),
// instantiated once per backend TU (block_simd_{avx2,sse42,scalar}.cpp,
// each defining MGPUSW_SIMD_NS first), plus the precision ladder and the
// backend's SimdBackend table row.
//
// Traversal: horizontal strips of kLanes query rows, skewed so that at
// step t lane r holds cell (i0 + r, t - r) — all the strip's cells sit on
// one intra-block anti-diagonal, the only dependence-free direction of
// the Gotoh recurrences. Lane r's inputs are then:
//
//   left  (H, E)  = lane r   at step t-1  (same lane, previous step)
//   up    (H, F)  = lane r-1 at step t-1  (one-lane shift-in)
//   diag  (H)     = lane r-1 at step t-2  (one-lane shift-in)
//
// with lane 0 fed from the strip-above rolling row (row_h/row_f) and the
// j == 0 column fed from the block's left border. The strip's triangular
// fill (t < kLanes) and drain (t >= cols-1) run scalar on the same
// lane-state arrays; the rectangular steady state runs kLanes cells per
// iteration. The subject character for lane r is subject[t - r] — a
// window of the block's reversed subject, so one vector load — and the
// per-cell `match or mismatch` branch becomes cmpeq + blend against the
// per-strip query vector (the 2-bit query profile reduces to this exact
// lane-select for a 4-letter alphabet, no gather needed).
//
// The narrow widths differ from int32 in three ways, all compiled out of
// the int32 instance (W::kExact):
//
//  * All arithmetic saturates. H can only saturate upwards (gains come
//    only from `match`), so "max observed H < watermark" proves every
//    value exact; the check runs per strip and aborts the narrow pass
//    before anything is committed (int32 outputs are written only after
//    every strip passed).
//  * Borders are converted to narrow private copies on entry (H must be
//    representable — pre-checked; E/F below the narrow range clamp to
//    the narrow neg-inf, which can never win a max). Outputs convert
//    back on success. The int32 instance reads and writes the caller's
//    arrays in place instead.
//  * Best-cell columns are tracked as per-segment offsets (kSegSteps
//    steps per segment) and folded into full-width per-lane accumulators
//    in traversal order, so the narrow lane type can index blocks far
//    wider than its own range without changing tie-breaking. int32 uses
//    one segment per strip.
//
// Geometry guard: blocks narrower/shorter than the lane count (plus row
// remainders < kLanes) delegate to compute_block, which is the parity
// oracle, so every geometry stays exact.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "base/error.hpp"
#include "sw/batch_simd_impl.hpp"
#include "sw/block.hpp"
#include "sw/block_simd.hpp"
#include "sw/simd_lp.hpp"

namespace mgpusw::sw::MGPUSW_SIMD_NS {

namespace lp {

/// Per-thread conversion buffers, one set per width.
template <class W>
struct Scratch {
  std::vector<typename W::Elem> row_h, row_f;          // rolling rows (cols)
  std::vector<typename W::Elem> left_h, left_e;        // strip rows
  std::vector<typename W::Elem> right_h, right_e;      // strip rows
  std::vector<typename W::Elem> rev_subject;           // cols, reversed
};

template <class W>
Scratch<W>& scratch() {
  thread_local Scratch<W> s;
  return s;
}

/// The arrays a block's strips read and write: the narrow widths'
/// scratch copies, or the caller's own border arrays for int32. Raw
/// pointers: calling .data() inside the loops forces a reload every
/// iteration (the row stores could alias the vectors' internals).
template <class W>
struct StripIo {
  using Elem = typename W::Elem;
  Elem* row_h;  // rolling row: top border in, bottom border out
  Elem* row_f;
  const Elem* left_h;  // may alias right_h / right_e (int32 in place)
  const Elem* left_e;
  Elem* right_h;
  Elem* right_e;
  const Elem* rev_subject;  // rev_subject[k] == subject[cols-1-k]
};

/// One full strip of W::kLanes rows: scalar fill, vector steady state,
/// scalar drain. Returns false when a narrow strip's maximum H reached
/// the saturation watermark (results may be inexact — escalate).
template <class W>
bool process_strip(const ScoreScheme& scheme, const BlockArgs& args,
                   const StripIo<W>& io, std::int64_t i0,
                   typename W::Elem strip_diag0, bool last_strip,
                   ScoreResult& best, Score& border_max) {
  using Elem = typename W::Elem;
  using Vec = typename W::Vec;
  constexpr int kL = W::kLanes;

  const std::int64_t cols = args.cols;
  const int gap_first = scheme.gap_first();
  const int gap_ext = scheme.gap_extend;
  const int match = scheme.match;
  const int mismatch = scheme.mismatch;

  Elem* const row_h = io.row_h;
  Elem* const row_f = io.row_f;
  const Elem* const rev_subject = io.rev_subject;

  const auto sat = [](int x) -> Elem {
    if constexpr (W::kExact) {
      return x;
    } else {
      if (x > W::kMax) return W::kMax;
      if (x < W::kMin) return W::kMin;
      return static_cast<Elem>(x);
    }
  };

  // Left border and query codes captured before the drain overwrites the
  // (possibly aliased) left/right arrays.
  alignas(32) Elem left_h_b[kL];
  alignas(32) Elem left_e_b[kL];
  alignas(32) Elem qcode[kL];
  for (int r = 0; r < kL; ++r) {
    left_h_b[r] = io.left_h[i0 + r];
    left_e_b[r] = io.left_e[i0 + r];
    qcode[r] = static_cast<Elem>(args.query[i0 + r]);
  }

  // Rolling lane state: lane r holds its values from the previous step
  // (h/e/f_prev) and the step before (h_prev2). Zero-initialised so the
  // not-yet-active lanes never read indeterminate values.
  alignas(32) Elem h_prev[kL] = {};
  alignas(32) Elem h_prev2[kL] = {};
  alignas(32) Elem e_prev[kL] = {};
  alignas(32) Elem f_prev[kL] = {};
  // Full-width per-lane best accumulators; segments fold into these in
  // traversal order, so strict '>' keeps the smallest column per lane.
  int best_h[kL];
  std::int64_t best_j[kL];
  for (int r = 0; r < kL; ++r) {
    best_h[r] = -1;  // strictly below any reachable H (H >= 0)
    best_j[r] = -1;
  }

  // One skewed step for lanes [r_lo, r_hi], scalar, with every operation
  // saturating exactly as the vector steady state does. Descending r
  // keeps the in-place lane rotation safe: lane r reads lane r-1's
  // previous-step values before lane r-1 overwrites them.
  const auto scalar_step = [&](std::int64_t t, int r_lo, int r_hi) {
    for (int r = r_hi; r >= r_lo; --r) {
      const std::int64_t j = t - r;
      const int lh = j == 0 ? left_h_b[r] : h_prev[r];
      const int le = j == 0 ? left_e_b[r] : e_prev[r];
      const int uh = r == 0 ? row_h[j] : h_prev[r - 1];
      const int uf = r == 0 ? row_f[j] : f_prev[r - 1];
      int dg;
      if (r == 0) {
        dg = j == 0 ? strip_diag0 : row_h[j - 1];
      } else {
        dg = j == 0 ? left_h_b[r - 1] : h_prev2[r - 1];
      }

      const Elem e = std::max(sat(le - gap_ext), sat(lh - gap_first));
      const Elem f = std::max(sat(uf - gap_ext), sat(uh - gap_first));
      Elem h = sat(dg + (qcode[r] == static_cast<Elem>(args.subject[j])
                             ? match
                             : mismatch));
      if (h < e) h = e;
      if (h < f) h = f;
      if (h < 0) h = 0;

      h_prev2[r] = h_prev[r];
      h_prev[r] = h;
      e_prev[r] = e;
      f_prev[r] = f;

      if (r == kL - 1) {  // strip bottom row -> rolling row arrays
        row_h[j] = h;
        row_f[j] = f;
      }
      if (j == cols - 1) {  // block right border
        io.right_h[i0 + r] = h;
        io.right_e[i0 + r] = e;
        border_max = std::max(border_max, static_cast<Score>(h));
      }
      if (static_cast<int>(h) > best_h[r]) {
        best_h[r] = h;
        best_j[r] = j;
      }
    }
  };

  // --- fill: steps 0 .. kL-1, lane r activates at t == r -------------
  for (std::int64_t t = 0; t < kL; ++t) {
    scalar_step(t, 0, static_cast<int>(t));
  }

  // --- steady state: steps kL .. cols-2, all lanes interior ----------
  Vec vh_prev = W::load(h_prev);
  Vec vh_prev2 = W::load(h_prev2);
  Vec ve_prev = W::load(e_prev);
  Vec vf_prev = W::load(f_prev);
  const Vec vq = W::load(qcode);
  // diag(t) equals up_h(t-1) — vh_prev(t-1) is vh_prev2(t) — so the
  // diagonal shift-in is carried from the previous iteration instead of
  // recomputed; only the seed needs an explicit shift.
  Vec vdiag_carry = W::shift_in(vh_prev2, row_h + kL - 1);

  const Vec v_gap_ext = W::broadcast(static_cast<Elem>(gap_ext));
  const Vec v_gap_first = W::broadcast(static_cast<Elem>(gap_first));
  const Vec v_match = W::broadcast(static_cast<Elem>(match));
  const Vec v_mismatch = W::broadcast(static_cast<Elem>(mismatch));
  const Vec v_zero = W::broadcast(0);
  const Vec v_one = W::broadcast(1);

  // Segmented best tracking: toff = t - seg_base fits the lane type.
  Vec vseg_h = W::broadcast(static_cast<Elem>(-1));
  Vec vseg_t = W::broadcast(0);
  Vec vtoff = W::broadcast(0);
  std::int64_t seg_base = kL;

  const auto fold_segment = [&](std::int64_t next_base) {
    alignas(32) Elem seg_h[kL];
    alignas(32) Elem seg_t[kL];
    W::store(seg_h, vseg_h);
    W::store(seg_t, vseg_t);
    for (int r = 0; r < kL; ++r) {
      if (static_cast<int>(seg_h[r]) > best_h[r]) {
        best_h[r] = seg_h[r];
        best_j[r] = seg_base + seg_t[r] - r;
      }
    }
    vseg_h = W::broadcast(static_cast<Elem>(-1));
    vseg_t = W::broadcast(0);
    vtoff = W::broadcast(0);
    seg_base = next_base;
  };

  // Two-level loop: the segment fold fires every kSegSteps steps at
  // most, so the boundary check lives outside the hot loop instead of
  // costing a compare per step.
  std::int64_t t = kL;
  while (t <= cols - 2) {
    const std::int64_t t_stop =
        std::min<std::int64_t>(cols - 1, seg_base + W::kSegSteps);
    for (; t < t_stop; ++t) {
      // Strip-above row values at column t / t-1; the last lane's writes
      // below trail the lane-0 reads by kL-1 columns, so these are still
      // the previous strip's values.
      const Vec vup_h = W::shift_in(vh_prev, row_h + t);
      const Vec vup_f = W::shift_in(vf_prev, row_f + t);
      const Vec vdiag = vdiag_carry;
      const Vec ve = W::max(W::subs(ve_prev, v_gap_ext),
                            W::subs(vh_prev, v_gap_first));
      const Vec vf =
          W::max(W::subs(vup_f, v_gap_ext), W::subs(vup_h, v_gap_first));
      const Vec vs = W::load(rev_subject + (cols - 1 - t));
      const Vec vsub = W::blend(v_mismatch, v_match, W::cmpeq(vq, vs));
      // Balanced max tree: the vf/zero max folds into the slack before
      // vf arrives off shift_in, keeping the H critical path one max
      // shorter than a linear chain.
      Vec vh = W::max(W::adds(vdiag, vsub), ve);
      vh = W::max(vh, W::max(vf, v_zero));

      row_h[t - (kL - 1)] = W::extract_last(vh);
      row_f[t - (kL - 1)] = W::extract_last(vf);

      // The compare must read the pre-update vseg_h, so it runs first;
      // the running max itself is a plain max — one uop against a
      // blend's two, and no mask operand for the compiler to
      // renormalize.
      const Vec vgt = W::cmpgt(vh, vseg_h);
      vseg_h = W::max(vseg_h, vh);
      vseg_t = W::blend(vseg_t, vtoff, vgt);
      vtoff = W::adds(vtoff, v_one);

      vh_prev2 = vh_prev;
      vh_prev = vh;
      ve_prev = ve;
      vf_prev = vf;
      vdiag_carry = vup_h;
    }
    if (t <= cols - 2) fold_segment(t);
  }
  fold_segment(0);

  W::store(h_prev, vh_prev);
  W::store(h_prev2, vh_prev2);
  W::store(e_prev, ve_prev);
  W::store(f_prev, vf_prev);

  // --- drain: steps cols-1 .. cols+kL-2, lane r retires at t-r==cols -
  for (t = cols - 1; t <= cols + kL - 2; ++t) {
    scalar_step(t,
                static_cast<int>(std::max<std::int64_t>(0, t - (cols - 1))),
                kL - 1);
  }

  // Saturation watermark: per-lane bests cover every H computed in the
  // strip, so staying below the watermark proves no addition saturated.
  if constexpr (!W::kExact) {
    int strip_max = -1;
    for (int r = 0; r < kL; ++r) strip_max = std::max(strip_max, best_h[r]);
    if (strip_max >= W::kMax - match) return false;
  }

  // Cross-row reduction in ascending row order: strictly larger row
  // maxima only, so earlier rows win ties exactly as in compute_block.
  for (int r = 0; r < kL; ++r) {
    if (best_h[r] > best.score) {
      best.score = best_h[r];
      best.end = CellPos{args.global_row + i0 + r,
                         args.global_col + best_j[r]};
    }
  }
  if (last_strip) {
    // The block's bottom row is this strip's last lane; its running row
    // maximum is the bottom-row border maximum (H >= 0).
    border_max =
        std::max(border_max, static_cast<Score>(best_h[kL - 1]));
  }
  return true;
}

/// Converts + pre-checks the borders into the narrow scratch arrays.
/// False when a value cannot be represented (escalate). H values must be
/// representable (H >= 0 by the border contract); E/F below the narrow
/// range clamp to the narrow neg-inf sentinel, which can never win a
/// max. The range check is a separate branch-free min/max pass so both
/// it and the conversion autovectorize — with an early-exit in the loop
/// the compiler emits a scalar element-by-element walk, which at wide
/// tiles costs the narrow kernels a few percent that the int32 kernel
/// (no conversion) never pays.
template <class W>
bool stage_narrow_borders(const BlockArgs& args, std::int64_t strip_rows,
                          Scratch<W>& s) {
  using Elem = typename W::Elem;
  if (args.corner_h < 0 || args.corner_h > W::kMax) return false;
  // +4 elements: shift_in may load a full 32 bits at the incoming
  // element's address (see the trait contract in simd_lp.hpp), so the
  // last in-range read needs a little runway past the row.
  s.row_h.resize(static_cast<std::size_t>(args.cols) + 4);
  s.row_f.resize(static_cast<std::size_t>(args.cols) + 4);
  s.left_h.resize(static_cast<std::size_t>(strip_rows));
  s.left_e.resize(static_cast<std::size_t>(strip_rows));
  s.right_h.resize(static_cast<std::size_t>(strip_rows));
  s.right_e.resize(static_cast<std::size_t>(strip_rows));

  Score h_min = 0;
  Score h_max = 0;
  Score f_max = W::kNegInf;
  for (std::int64_t j = 0; j < args.cols; ++j) {
    h_min = std::min(h_min, args.top_h[j]);
    h_max = std::max(h_max, args.top_h[j]);
    f_max = std::max(f_max, args.top_f[j]);
  }
  if (h_min < 0 || h_max > W::kMax || f_max > W::kMax) return false;
  for (std::int64_t j = 0; j < args.cols; ++j) {
    s.row_h[static_cast<std::size_t>(j)] =
        static_cast<Elem>(args.top_h[j]);
    const Score f = args.top_f[j];
    s.row_f[static_cast<std::size_t>(j)] =
        f < W::kNegInf ? W::kNegInf : static_cast<Elem>(f);
  }
  for (std::int64_t i = 0; i < strip_rows; ++i) {
    const Score h = args.left_h[i];
    const Score e = args.left_e[i];
    if (h < 0 || h > W::kMax || e > W::kMax) return false;
    s.left_h[static_cast<std::size_t>(i)] = static_cast<Elem>(h);
    s.left_e[static_cast<std::size_t>(i)] =
        e < W::kNegInf ? W::kNegInf : static_cast<Elem>(e);
  }
  return true;
}

/// Computes the block at width W. std::nullopt means a narrow width
/// could not prove its result exact; every output array is then
/// untouched and the caller re-runs the block wider. The int32 instance
/// always returns a result.
template <class W>
std::optional<BlockResult> compute_block_lp(const ScoreScheme& scheme,
                                            const BlockArgs& args) {
  using Elem = typename W::Elem;
  constexpr int kL = W::kLanes;

  MGPUSW_CHECK(args.rows > 0 && args.cols > 0);
  MGPUSW_CHECK(args.query != nullptr && args.subject != nullptr);
  MGPUSW_CHECK(args.top_h != nullptr && args.top_f != nullptr);
  MGPUSW_CHECK(args.left_h != nullptr && args.left_e != nullptr);
  MGPUSW_CHECK(args.bottom_h != nullptr && args.bottom_f != nullptr);
  MGPUSW_CHECK(args.right_h != nullptr && args.right_e != nullptr);

  // Blocks without a vectorisable steady state (and the pathological
  // > 2^30 case where a column index would not fit the lane types)
  // delegate to the scalar row kernel — exact at full precision, so no
  // overflow either way.
  if (args.rows < kL || args.cols < 2 * kL ||
      args.cols > (std::int64_t{1} << 30) ||
      args.rows > (std::int64_t{1} << 30)) {
    return compute_block(scheme, args);
  }
  if constexpr (!W::kExact) {
    if (!scheme_fits(scheme, W::kMax)) return std::nullopt;
  }

  const std::int64_t strip_rows = args.rows - args.rows % kL;
  Scratch<W>& s = scratch<W>();
  // Subject codes reversed once per block (shared by every strip): turns
  // the steady state's per-step window rotation into one vector load.
  s.rev_subject.resize(static_cast<std::size_t>(args.cols));
  for (std::int64_t j = 0; j < args.cols; ++j) {
    s.rev_subject[static_cast<std::size_t>(args.cols - 1 - j)] =
        static_cast<Elem>(args.subject[j]);
  }

  StripIo<W> io;
  if constexpr (W::kExact) {
    // Nothing to convert or roll back: the strips work in the caller's
    // arrays. Seed the rolling row from the top border (alias-safe: the
    // outputs may be the same arrays).
    if (args.bottom_h != args.top_h) {
      std::copy(args.top_h, args.top_h + args.cols, args.bottom_h);
    }
    if (args.bottom_f != args.top_f) {
      std::copy(args.top_f, args.top_f + args.cols, args.bottom_f);
    }
    io = {args.bottom_h, args.bottom_f, args.left_h,   args.left_e,
          args.right_h,  args.right_e,  s.rev_subject.data()};
  } else {
    if (!stage_narrow_borders<W>(args, strip_rows, s)) return std::nullopt;
    io = {s.row_h.data(),   s.row_f.data(),   s.left_h.data(),
          s.left_e.data(),  s.right_h.data(), s.right_e.data(),
          s.rev_subject.data()};
  }

  ScoreResult best;
  Score border_max = 0;
  // H(strip_first_row - 1, block left border): the corner for the first
  // strip, the saved left-border value afterwards (captured before the
  // strip's drain overwrites the possibly aliased left/right arrays).
  Elem strip_diag0 = static_cast<Elem>(args.corner_h);

  std::int64_t i0 = 0;
  for (; i0 + kL <= args.rows; i0 += kL) {
    const Elem next_strip_diag0 = io.left_h[i0 + kL - 1];
    if (!process_strip<W>(scheme, args, io, i0, strip_diag0,
                          /*last_strip=*/i0 + kL == args.rows, best,
                          border_max)) {
      return std::nullopt;  // int32 outputs untouched: caller re-runs wide
    }
    strip_diag0 = next_strip_diag0;
  }

  if constexpr (!W::kExact) {
    // Every strip was exact — commit the narrow state to the int32
    // borders (only now may the aliased output arrays be overwritten).
    for (std::int64_t j = 0; j < args.cols; ++j) {
      args.bottom_h[j] = s.row_h[static_cast<std::size_t>(j)];
      args.bottom_f[j] = s.row_f[static_cast<std::size_t>(j)];
    }
    for (std::int64_t i = 0; i < strip_rows; ++i) {
      args.right_h[i] = s.right_h[static_cast<std::size_t>(i)];
      args.right_e[i] = s.right_e[static_cast<std::size_t>(i)];
    }
  }

  // Remainder rows (< kL): delegate the final short strip to the scalar
  // kernel on a sub-block whose top border is the committed rolling row.
  if (i0 < args.rows) {
    BlockArgs sub = args;
    sub.query = args.query + i0;
    sub.rows = args.rows - i0;
    sub.global_row = args.global_row + i0;
    sub.top_h = args.bottom_h;
    sub.top_f = args.bottom_f;
    sub.bottom_h = args.bottom_h;
    sub.bottom_f = args.bottom_f;
    sub.left_h = args.left_h + i0;
    sub.left_e = args.left_e + i0;
    sub.right_h = args.right_h + i0;
    sub.right_e = args.right_e + i0;
    sub.corner_h = strip_diag0;
    const BlockResult tail = compute_block(scheme, sub);
    // Later rows never displace an equal earlier best (row-major ties).
    if (improves(tail.best, best)) best = tail.best;
    // tail.border_max covers the block's bottom row plus the remainder
    // rows' right-column values.
    border_max = std::max(border_max, tail.border_max);
  }

  BlockResult result;
  result.best = best;
  result.border_max = border_max;
  return result;
}

/// The precision ladder: compute at W, and when W cannot prove its
/// result exact re-run the untouched block one rung wider. Each
/// escalation counts in BlockResult::overflow_reruns. The last rung must
/// be exact, so the ladder always ends with a result.
template <class W, class... Wider>
BlockResult compute_block_ladder(const ScoreScheme& scheme,
                                 const BlockArgs& args) {
  static_assert(sizeof...(Wider) > 0 || W::kExact,
                "the ladder's last rung must be exact");
  std::optional<BlockResult> result = compute_block_lp<W>(scheme, args);
  if constexpr (sizeof...(Wider) > 0) {
    if (!result) {
      BlockResult wide = compute_block_ladder<Wider...>(scheme, args);
      ++wide.overflow_reruns;
      return wide;
    }
  }
  return *result;
}

}  // namespace lp

// Constant-initialized, so the dispatcher can read it from any static
// initializer without an ordering dependency on this TU.
constinit const SimdBackend kBackend = {
    kSimdBackendName,
    kSimdBackendIsa,
    &lp::compute_block_ladder<LpI32>,
    &lp::compute_block_ladder<LpI16, LpI32>,
    &lp::compute_block_ladder<LpI8, LpI16, LpI32>,
    &lp::batch_group_lp<LpI16>,
    &lp::batch_group_lp<LpI8>,
    LpI16::kLanes,
    LpI8::kLanes,
};

}  // namespace mgpusw::sw::MGPUSW_SIMD_NS
