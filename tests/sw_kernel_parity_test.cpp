// Every kernel in the registry must be bit-identical to the row-scan
// reference: same block best (including both tie-breaking rules), same
// borders out, same border_max — across geometries that exercise the SIMD
// kernel's delegated small shapes, its scalar fill/drain edges, full
// 8-row strips and the non-lane-multiple remainder path.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "sw/block.hpp"
#include "sw/block_simd.hpp"
#include "sw/kernel.hpp"
#include "tests/test_util.hpp"

namespace mgpusw {
namespace {

using seq::Nt;
using sw::BlockArgs;
using sw::Score;
using sw::ScoreScheme;

struct KernelIo {
  std::vector<Score> row_h, row_f, col_h, col_e;
  sw::BlockResult result;
};

KernelIo run_kernel(sw::BlockKernelFn fn, const ScoreScheme& scheme,
                    const std::vector<Nt>& query,
                    const std::vector<Nt>& subject, Score corner,
                    Score border_base = 0, bool matrix_edge = false) {
  KernelIo io;
  const auto rows = static_cast<std::int64_t>(query.size());
  const auto cols = static_cast<std::int64_t>(subject.size());
  // Non-trivial borders: pseudo-random non-negative H, mixed E/F.
  // border_base shifts the H borders upward — chosen by the overflow
  // tests to push them past a narrow type's representable range.
  // matrix_edge instead gives the block the matrix's own top-left
  // borders (H = 0, no open gap), so the sequences alone decide the best.
  io.row_h.resize(static_cast<std::size_t>(cols));
  io.row_f.resize(static_cast<std::size_t>(cols));
  io.col_h.resize(static_cast<std::size_t>(rows));
  io.col_e.resize(static_cast<std::size_t>(rows));
  for (std::int64_t j = 0; j < cols && !matrix_edge; ++j) {
    io.row_h[static_cast<std::size_t>(j)] =
        border_base + static_cast<Score>((j * 7) % 13);
    io.row_f[static_cast<std::size_t>(j)] =
        j % 3 == 0 ? sw::kNegInf : static_cast<Score>((j * 5) % 11 - 8);
  }
  for (std::int64_t i = 0; i < rows && !matrix_edge; ++i) {
    io.col_h[static_cast<std::size_t>(i)] =
        border_base + static_cast<Score>((i * 3) % 17);
    io.col_e[static_cast<std::size_t>(i)] =
        i % 4 == 0 ? sw::kNegInf : static_cast<Score>((i * 9) % 7 - 6);
  }
  if (matrix_edge) {
    std::fill(io.row_f.begin(), io.row_f.end(), sw::kNegInf);
    std::fill(io.col_e.begin(), io.col_e.end(), sw::kNegInf);
  }

  BlockArgs args;
  args.query = query.data();
  args.subject = subject.data();
  args.rows = rows;
  args.cols = cols;
  args.global_row = 1000;
  args.global_col = 2000;
  args.corner_h = corner;
  args.top_h = io.row_h.data();
  args.top_f = io.row_f.data();
  args.left_h = io.col_h.data();
  args.left_e = io.col_e.data();
  args.bottom_h = io.row_h.data();
  args.bottom_f = io.row_f.data();
  args.right_h = io.col_h.data();
  args.right_e = io.col_e.data();
  io.result = fn(scheme, args);
  return io;
}

class KernelParity
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

/// Input index of the tie-heavy case; the others are random seeds.
/// Periodic ACAC... against ACGGAC... between matrix-edge borders: the
/// best local alignment (ACAC, score 4 under the default scheme) recurs
/// every 6 columns and every 2 rows, so the reported best cell is
/// decided by the smallest-row-then-column tie-break — in the SIMD
/// kernels' vector steady state and, past 96 columns, across the int8
/// segment fold.
constexpr int kTieInput = 5;

TEST_P(KernelParity, AllRegisteredKernelsMatchRowScan) {
  const auto [rows, cols, seed] = GetParam();
  const ScoreScheme scheme = testutil::test_schemes()[
      static_cast<std::size_t>(seed) % testutil::test_schemes().size()];
  const bool ties = seed == kTieInput;
  std::vector<Nt> query(static_cast<std::size_t>(rows));
  std::vector<Nt> subject(static_cast<std::size_t>(cols));
  if (ties) {
    constexpr Nt kQueryPeriod[] = {Nt::A, Nt::C};
    constexpr Nt kSubjectPeriod[] = {Nt::A, Nt::C, Nt::G,
                                     Nt::G, Nt::A, Nt::C};
    for (std::size_t i = 0; i < query.size(); ++i) {
      query[i] = kQueryPeriod[i % 2];
    }
    for (std::size_t j = 0; j < subject.size(); ++j) {
      subject[j] = kSubjectPeriod[j % 6];
    }
  } else {
    base::Rng rng(static_cast<std::uint64_t>(seed) * 31 + 7);
    for (auto& nt : query) nt = static_cast<Nt>(rng.next_below(4));
    for (auto& nt : subject) nt = static_cast<Nt>(rng.next_below(4));
  }

  const Score corner = ties ? 0 : 3;
  const KernelIo scan = run_kernel(&sw::compute_block, scheme, query,
                                   subject, corner, 0, ties);
  for (const sw::KernelInfo& info : sw::kernel_registry()) {
    const KernelIo other =
        run_kernel(info.fn, scheme, query, subject, corner, 0, ties);
    EXPECT_EQ(other.result.best, scan.result.best) << info.name;
    EXPECT_EQ(other.result.border_max, scan.result.border_max) << info.name;
    EXPECT_EQ(other.row_h, scan.row_h) << info.name;
    EXPECT_EQ(other.row_f, scan.row_f) << info.name;
    EXPECT_EQ(other.col_h, scan.col_h) << info.name;
    EXPECT_EQ(other.col_e, scan.col_e) << info.name;
  }
}

// Rows hit: degenerate (1, 2), below the 8-lane strip (7), one full strip
// (8), strip + remainder (9, 33), several strips (64), a pipelined strip
// pair plus an odd trailing strip for every lane count (49 covers the
// 16-lane kernels, 96 the 32-lane int8 kernel). Cols hit: the simd
// kernel's small-block delegation (< 16), drain-only widths (16, 17),
// steady-state widths (33, 65, 128), and a non-power width past every
// kernel's 4*kLanes pair-pipelining threshold (200). Inputs 0-4 are
// random; input 5 is the forced-tie case (kTieInput).
INSTANTIATE_TEST_SUITE_P(
    Geometries, KernelParity,
    ::testing::Combine(::testing::Values(1, 2, 7, 8, 9, 33, 49, 64, 96),
                       ::testing::Values(1, 13, 16, 17, 33, 65, 128, 200),
                       ::testing::Range(0, kTieInput + 1)));

// --- precision-ladder escalation ------------------------------------
//
// Each case forces a specific rung of the int8 -> int16 -> int32 ladder
// to fail — by saturation at runtime (large match on a perfect-match
// input) or by the border pre-check (H borders beyond the lane range) —
// and checks (a) every registered kernel still matches the row scan
// bit-for-bit, borders and tie-breaking included, and (b) the ladder
// kernels report the expected overflow_reruns count.

/// Runs every registry kernel against compute_block on one overflow-rig
/// input; returns the ladder kernels' rerun counts by name.
std::pair<int, int> check_overflow_parity(const ScoreScheme& scheme,
                                          const std::vector<Nt>& query,
                                          const std::vector<Nt>& subject,
                                          Score corner, Score border_base) {
  const KernelIo scan = run_kernel(&sw::compute_block, scheme, query,
                                   subject, corner, border_base);
  int reruns16 = -1;
  int reruns8 = -1;
  for (const sw::KernelInfo& info : sw::kernel_registry()) {
    const KernelIo other =
        run_kernel(info.fn, scheme, query, subject, corner, border_base);
    EXPECT_EQ(other.result.best, scan.result.best) << info.name;
    EXPECT_EQ(other.result.border_max, scan.result.border_max) << info.name;
    EXPECT_EQ(other.row_h, scan.row_h) << info.name;
    EXPECT_EQ(other.row_f, scan.row_f) << info.name;
    EXPECT_EQ(other.col_h, scan.col_h) << info.name;
    EXPECT_EQ(other.col_e, scan.col_e) << info.name;
    if (info.name == "simd16") reruns16 = other.result.overflow_reruns;
    if (info.name == "simd8") reruns8 = other.result.overflow_reruns;
  }
  EXPECT_GE(reruns16, 0) << "simd16 not registered";
  EXPECT_GE(reruns8, 0) << "simd8 not registered";
  return {reruns16, reruns8};
}

/// A pair with a long perfect-match run: H climbs by `match` per
/// diagonal step, the overflow rig for runtime saturation.
std::pair<std::vector<Nt>, std::vector<Nt>> perfect_match_pair(int rows,
                                                               int cols) {
  std::vector<Nt> query(static_cast<std::size_t>(rows));
  std::vector<Nt> subject(static_cast<std::size_t>(cols));
  for (std::size_t i = 0; i < query.size(); ++i) {
    query[i] = static_cast<Nt>(i % 4);
  }
  for (std::size_t j = 0; j < subject.size(); ++j) {
    subject[j] = static_cast<Nt>(j % 4);
  }
  return {query, subject};
}

TEST(KernelOverflowTest, Int8SaturationEscalatesToInt16) {
  // match = 25 passes the int8 pre-check (cap 31) but a 64x128
  // perfect-match block drives H far past the int8 watermark (102), so
  // the int8 pass must detect saturation and re-run; int16 absorbs it.
  const ScoreScheme scheme{25, -2, 2, 1};
  const auto [query, subject] = perfect_match_pair(64, 128);
  const auto [reruns16, reruns8] =
      check_overflow_parity(scheme, query, subject, 3, 0);
  EXPECT_EQ(reruns16, 0);
  EXPECT_EQ(reruns8, 1);
}

TEST(KernelOverflowTest, Int16SaturationEscalatesToInt32) {
  // match = 8000 fails the int8 pre-check outright (cap 31) and drives
  // H past the int16 watermark at runtime: simd8 escalates twice,
  // simd16 once, and everything stays bit-identical in int32.
  const ScoreScheme scheme{8000, -3, 3, 2};
  const auto [query, subject] = perfect_match_pair(64, 128);
  const auto [reruns16, reruns8] =
      check_overflow_parity(scheme, query, subject, 3, 0);
  EXPECT_EQ(reruns16, 1);
  EXPECT_EQ(reruns8, 2);
}

TEST(KernelOverflowTest, Int8BorderPrecheckEscalates) {
  // Border H values around 200 are not int8-representable: the int8
  // pass must escalate before computing anything; int16 handles it.
  const ScoreScheme scheme{2, -1, 1, 1};
  const auto [query, subject] = perfect_match_pair(33, 65);
  const auto [reruns16, reruns8] =
      check_overflow_parity(scheme, query, subject, 203, 200);
  EXPECT_EQ(reruns16, 0);
  EXPECT_EQ(reruns8, 1);
}

TEST(KernelOverflowTest, Int16BorderPrecheckEscalates) {
  // Border H values around 50000 exceed int16: both narrow rungs bail
  // in their pre-checks and the int32 kernel computes the block.
  const ScoreScheme scheme{2, -1, 1, 1};
  const auto [query, subject] = perfect_match_pair(33, 65);
  const auto [reruns16, reruns8] =
      check_overflow_parity(scheme, query, subject, 50003, 50000);
  EXPECT_EQ(reruns16, 1);
  EXPECT_EQ(reruns8, 2);
}

TEST(KernelOverflowTest, NoEscalationOnSmallScores) {
  // The control: a default-scheme random block stays narrow end to end.
  const ScoreScheme scheme{1, -3, 3, 2};
  std::vector<Nt> query(64);
  std::vector<Nt> subject(128);
  base::Rng rng(11);
  for (auto& nt : query) nt = static_cast<Nt>(rng.next_below(4));
  for (auto& nt : subject) nt = static_cast<Nt>(rng.next_below(4));
  const auto [reruns16, reruns8] =
      check_overflow_parity(scheme, query, subject, 3, 0);
  EXPECT_EQ(reruns16, 0);
  EXPECT_EQ(reruns8, 0);
}

TEST(KernelRegistryTest, RowIsReferenceAndFirst) {
  const auto& registry = sw::kernel_registry();
  ASSERT_FALSE(registry.empty());
  EXPECT_EQ(sw::kReferenceKernel, "row");
  EXPECT_EQ(registry.front().name, sw::kReferenceKernel);
  EXPECT_EQ(registry.front().fn, &sw::compute_block);
}

TEST(KernelRegistryTest, DefaultKernelFollowsTheBackend) {
  EXPECT_EQ(sw::default_kernel_for(sw::SimdIsa::kScalar), "row");
  EXPECT_EQ(sw::default_kernel_for(sw::SimdIsa::kSse42), "auto");
  EXPECT_EQ(sw::default_kernel_for(sw::SimdIsa::kAvx2), "auto");
  EXPECT_EQ(sw::default_kernel(),
            sw::default_kernel_for(sw::dispatched_simd_backend().isa));
  EXPECT_NO_THROW((void)sw::find_kernel(sw::default_kernel()));
}

TEST(KernelRegistryTest, FindKernelResolvesEveryEntry) {
  for (const sw::KernelInfo& info : sw::kernel_registry()) {
    EXPECT_EQ(sw::find_kernel(info.name), info.fn) << info.name;
  }
}

TEST(KernelRegistryTest, FindKernelRejectsUnknownName) {
  EXPECT_THROW((void)sw::find_kernel("warp-shuffle"), InvalidArgument);
}

TEST(KernelRegistryTest, SimdScalarBackendAlwaysRegistered) {
  // The pinned scalar backend is the guaranteed-runnable fallback; it must
  // be present so the fallback path is parity-tested on every host.
  EXPECT_NO_THROW((void)sw::find_kernel("simd-scalar"));
  EXPECT_TRUE(sw::simd_backend_runnable(sw::SimdIsa::kScalar));
}

TEST(KernelRegistryTest, AutoSelectsNarrowestSafePrecision) {
  // "auto" is how DeviceSpec::kernel / calibration name the full ladder
  // without committing to a width; it must resolve and be the same
  // function as the int8 ladder.
  EXPECT_EQ(sw::find_kernel("auto"), &sw::compute_block_auto);
  EXPECT_EQ(sw::find_kernel("simd8"), &sw::compute_block_i8);
  EXPECT_EQ(sw::find_kernel("simd16"), &sw::compute_block_i16);
}

TEST(KernelRegistryTest, EveryRegisteredKernelHasParityCoverage) {
  // The parity sweep and the overflow tests above iterate the whole
  // registry, so a kernel is covered the moment it registers — but only
  // if the author re-ran this suite. This list is the acknowledgement:
  // registering a kernel without adding it here (and thus without
  // thinking about its parity/overflow coverage) fails the build.
  const std::vector<std::string> covered = {
      "row",          "simd",          "simd16",        "simd8",
      "auto",         "simd-avx2",     "simd-sse42",
      "simd-scalar",  "simd16-avx2",   "simd16-sse42",
      "simd16-scalar", "simd8-avx2",   "simd8-sse42",
      "simd8-scalar"};
  for (const sw::KernelInfo& info : sw::kernel_registry()) {
    EXPECT_NE(std::find(covered.begin(), covered.end(), info.name),
              covered.end())
        << "kernel '" << info.name
        << "' registered without parity coverage — add it to "
           "tests/sw_kernel_parity_test.cpp";
  }
}

TEST(KernelRegistryTest, BackendRowsCarryTheirIsa) {
  // The dispatcher compares SimdBackend::isa; it must name the level the
  // row's `name` reports, and a TU that degraded at compile time reports
  // a weaker level than it was built for, never a stronger one.
  for (const sw::SimdIsa level :
       {sw::SimdIsa::kScalar, sw::SimdIsa::kSse42, sw::SimdIsa::kAvx2}) {
    const sw::SimdBackend& backend = sw::simd_backend(level);
    EXPECT_STREQ(backend.name, sw::simd_isa_name(backend.isa));
    EXPECT_LE(backend.isa, level);
  }
}

TEST(KernelRegistryTest, DispatchedBackendMatchesDetectedIsa) {
  // The dispatcher may never pick a backend above the detected ISA level.
  const std::string active = sw::active_simd_backend();
  const sw::SimdIsa detected = sw::detected_simd_isa();
  if (active == "avx2") {
    EXPECT_GE(detected, sw::SimdIsa::kAvx2);
  }
  if (active == "sse4.2") {
    EXPECT_GE(detected, sw::SimdIsa::kSse42);
  }
}

}  // namespace
}  // namespace mgpusw
