#include "core/balance.hpp"

#include <algorithm>

#include "base/error.hpp"
#include "base/rng.hpp"
#include "base/time.hpp"
#include "sw/block.hpp"

namespace mgpusw::core {

std::vector<double> spec_weights(const std::vector<vgpu::Device*>& devices) {
  std::vector<double> weights;
  weights.reserve(devices.size());
  for (const vgpu::Device* device : devices) {
    MGPUSW_REQUIRE(device != nullptr, "device pointer is null");
    weights.push_back(device->spec().sw_gcups / device->slowdown());
  }
  return weights;
}

std::vector<double> calibrate_weights(
    const std::vector<vgpu::Device*>& devices, const sw::ScoreScheme& scheme,
    std::int64_t sample_rows, std::int64_t sample_cols, std::uint64_t seed,
    const std::string& kernel) {
  MGPUSW_REQUIRE(sample_rows > 0 && sample_cols > 0,
                 "sample dimensions must be positive");
  scheme.validate();
  const sw::BlockKernelFn fn = sw::find_kernel(kernel);

  base::Rng rng(seed);
  std::vector<seq::Nt> query(static_cast<std::size_t>(sample_rows));
  std::vector<seq::Nt> subject(static_cast<std::size_t>(sample_cols));
  for (auto& base : query) base = static_cast<seq::Nt>(rng.next_below(4));
  for (auto& base : subject) base = static_cast<seq::Nt>(rng.next_below(4));

  std::vector<sw::Score> row_h(static_cast<std::size_t>(sample_cols));
  std::vector<sw::Score> row_f(static_cast<std::size_t>(sample_cols));
  std::vector<sw::Score> col_h(static_cast<std::size_t>(sample_rows));
  std::vector<sw::Score> col_e(static_cast<std::size_t>(sample_rows));

  // Timing discipline borrowed from bench/micro_kernels: one unclocked
  // warmup sweep (first-touch pages, cold caches), then the minimum over
  // a few timed repetitions. A single cold-start-skewed sample here
  // would seed a bad initial split that the whole run (or a rebalance
  // restart) then pays for. Each sweep runs inline on the calling thread
  // and pays the device's throttle through account_kernel.
  constexpr int kTimedReps = 3;

  std::vector<double> weights;
  weights.reserve(devices.size());
  for (vgpu::Device* device : devices) {
    MGPUSW_REQUIRE(device != nullptr, "device pointer is null");
    sw::BlockArgs args;
    args.query = query.data();
    args.subject = subject.data();
    args.rows = sample_rows;
    args.cols = sample_cols;
    args.top_h = row_h.data();
    args.top_f = row_f.data();
    args.left_h = col_h.data();
    args.left_e = col_e.data();
    args.bottom_h = row_h.data();
    args.bottom_f = row_f.data();
    args.right_h = col_h.data();
    args.right_e = col_e.data();

    const auto sweep = [&] {
      // The kernel overwrites the borders in place; every sweep must
      // start from the matrix-boundary values to do identical work.
      std::fill(row_h.begin(), row_h.end(), 0);
      std::fill(row_f.begin(), row_f.end(), sw::kNegInf);
      std::fill(col_h.begin(), col_h.end(), 0);
      std::fill(col_e.begin(), col_e.end(), sw::kNegInf);
      base::WallTimer kernel_timer;
      (void)fn(scheme, args);
      device->account_kernel(kernel_timer.elapsed_ns(),
                             sample_rows * sample_cols);
    };

    sweep();  // warmup, unclocked
    double best_seconds = 0.0;
    for (int rep = 0; rep < kTimedReps; ++rep) {
      base::WallTimer timer;
      sweep();
      const double seconds = timer.elapsed_seconds();
      if (rep == 0 || seconds < best_seconds) best_seconds = seconds;
    }
    const double cells =
        static_cast<double>(sample_rows) * static_cast<double>(sample_cols);
    weights.push_back(cells / best_seconds);
  }
  return weights;
}

}  // namespace mgpusw::core
