// Shared plumbing for the table/figure reproduction harnesses.
//
// Every bench binary prints (a) the reproduced table in paper-style rows
// and (b) a SHAPE-CHECK section stating which qualitative property of the
// paper's result the numbers should exhibit. Model-mode numbers come from
// the calibrated pipeline simulator at full chromosome scale; real-mode
// numbers execute every matrix cell on this host at a reduced scale set
// by --scale (sequence lengths divided by that factor).
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "base/flags.hpp"
#include "base/format.hpp"
#include "base/json.hpp"
#include "core/engine.hpp"
#include "seq/synth.hpp"
#include "sim/pipeline_sim.hpp"
#include "sw/kernel.hpp"
#include "sw/linear.hpp"
#include "vgpu/device.hpp"
#include "vgpu/spec.hpp"

namespace mgpusw::bench {

/// Paper-scale simulator run for a chromosome pair on the given devices.
inline sim::SimResult simulate_pair(const seq::ChromosomePair& pair,
                                    std::vector<vgpu::DeviceSpec> devices,
                                    std::int64_t block_rows = 512,
                                    std::int64_t block_cols = 512,
                                    std::int64_t buffer_capacity = 64,
                                    std::vector<double> weights = {}) {
  sim::SimConfig config;
  config.rows = pair.human_length;
  config.cols = pair.chimp_length;
  config.block_rows = block_rows;
  config.block_cols = block_cols;
  config.buffer_capacity = buffer_capacity;
  config.devices = std::move(devices);
  config.weights = std::move(weights);
  return sim::simulate_pipeline(config);
}

/// Result of a real-mode engine run plus its serial-oracle cross-check.
struct RealRun {
  core::EngineResult engine;
  sw::ScoreResult oracle;
  [[nodiscard]] bool matches() const { return engine.best == oracle; }
};

/// Runs the real engine on synthetic homologs of `pair` scaled down by
/// `scale`, on `count` toy devices (heterogeneous when step != 0), and
/// cross-checks the score against the serial scan.
inline RealRun run_real(const seq::ChromosomePair& pair, std::int64_t scale,
                        int device_count, core::EngineConfig config,
                        std::uint64_t seed = 1) {
  const seq::HomologPair homologs =
      seq::make_homolog_pair(seq::scaled_pair(pair, scale), seed);

  std::vector<std::unique_ptr<vgpu::Device>> devices;
  std::vector<vgpu::Device*> pointers;
  for (int d = 0; d < device_count; ++d) {
    devices.push_back(
        std::make_unique<vgpu::Device>(vgpu::toy_device(10.0 + 5.0 * d)));
    pointers.push_back(devices.back().get());
  }

  core::MultiDeviceEngine engine(config, pointers);
  RealRun run;
  run.engine = engine.run(homologs.query, homologs.subject);
  run.oracle = sw::linear_score(config.scheme, homologs.query,
                                homologs.subject);
  return run;
}

/// Prints the standard bench header.
inline void print_header(const std::string& experiment,
                         const std::string& paper_claim) {
  std::printf("==============================================================\n");
  std::printf("%s\n", experiment.c_str());
  std::printf("Paper claim (reconstructed): %s\n", paper_claim.c_str());
  std::printf("==============================================================\n");
}

inline void print_shape_check(const std::vector<std::string>& checks) {
  std::printf("\nSHAPE-CHECK (what should hold, cf. EXPERIMENTS.md):\n");
  for (const std::string& check : checks) {
    std::printf("  * %s\n", check.c_str());
  }
  std::printf("\n");
}

/// Standard flags shared by the harnesses.
inline base::FlagSet standard_flags(const std::string& description) {
  base::FlagSet flags(description);
  flags.add_int("scale", 4096,
                "real-mode reduction factor applied to chromosome lengths");
  flags.add_int("block_rows", 512, "block height (model mode)");
  flags.add_int("block_cols", 512, "block width (model mode)");
  flags.add_int("buffer", 64, "circular buffer capacity in chunks");
  flags.add_bool("real", true, "also run real-mode scaled execution");
  flags.add_string("csv", "", "write the primary data series to this CSV");
  std::vector<std::string> kernels;
  for (const sw::KernelInfo& info : sw::kernel_registry()) {
    kernels.push_back(info.name);
  }
  flags.add_choice("kernel", std::string(sw::default_kernel()),
                   std::move(kernels),
                   "block kernel for real-mode runs (sw::kernel_registry)");
  return flags;
}

inline std::string gcups_str(double gcups) {
  return base::format_double(gcups, 2);
}

/// Writes a rendered JSON document (plus trailing newline) to `path`.
/// Returns false with a warning on stderr when the file cannot be
/// opened — benches keep printing their tables even when the artifact
/// path is bad. Every BENCH_*.json emitter renders with base::JsonWriter
/// and lands here, so the artifacts share one layout convention.
inline bool write_json_file(const std::string& path,
                            const std::string& json) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return false;
  }
  std::fputs(json.c_str(), file);
  std::fputc('\n', file);
  std::fclose(file);
  return true;
}

/// Writes a data series as CSV for plotting when --csv is non-empty.
/// Values containing commas are not expected (numbers and short labels).
inline void maybe_write_csv(const std::string& path,
                            const std::vector<std::string>& header,
                            const std::vector<std::vector<std::string>>& rows) {
  if (path.empty()) return;
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return;
  }
  auto write_row = [&](const std::vector<std::string>& row) {
    for (std::size_t i = 0; i < row.size(); ++i) {
      std::fputs(row[i].c_str(), file);
      std::fputc(i + 1 < row.size() ? ',' : '\n', file);
    }
  };
  write_row(header);
  for (const auto& row : rows) write_row(row);
  std::fclose(file);
  std::printf("(series written to %s)\n", path.c_str());
}

}  // namespace mgpusw::bench
