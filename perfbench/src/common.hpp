// Shared pieces of the repository benchmark: options, the result
// report, order statistics, the oracle, device construction, the
// kernel-strip probe and the engine-statistics roll-up every workload
// derives its per-layer metrics from.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/engine.hpp"
#include "obs/trace.hpp"
#include "seq/sequence.hpp"
#include "seq/synth.hpp"
#include "sw/scoring.hpp"
#include "vgpu/device.hpp"

namespace perfbench {

using namespace mgpusw;
using Clock = std::chrono::steady_clock;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Self-check size: every workload shrinks its inputs and its time
  /// budget so the whole metric set is produced in about a second.
  bool tiny = false;
  /// Directory for the benchmark's own files (journal, Perfetto trace).
  std::string workdir = ".bench_build/work";
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// Everything one run reports. `metrics` is pre-filled by main() with
/// every metric of the run's mode; a workload overwrites what it
/// measures, and a per-layer metric of a layer the workload never
/// calls stays 0.
struct Report {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;     // failed, refused, or wrong score
  std::int64_t mismatches = 0; // score differs from sw::linear_score
  std::map<std::string, Metric> metrics;
  std::vector<std::string> notes;  // printed above the JSON line

  void set(const std::string& name, double value);
  /// One comparison or job outcome: counts it and checks the score.
  void check(bool completed, sw::Score got, sw::Score want);
};

// --- order statistics ---------------------------------------------------

[[nodiscard]] double median(std::vector<double> values);

/// The highest of a fixed list of percentiles with at least ten samples
/// above it (nearest-rank), so the tail figure always rests on ten
/// observations. With fewer than eleven samples it is the maximum.
[[nodiscard]] double tail(std::vector<double> values);

[[nodiscard]] double seconds_since(Clock::time_point start);

/// Peak resident set size of this process, in MiB.
[[nodiscard]] double peak_rss_mb();

// --- inputs and oracle --------------------------------------------------

/// The paper's chr21 human/chimp pair scaled down by `scale`, as
/// synthetic homologs derived from `seed`.
[[nodiscard]] seq::HomologPair chr21_pair(std::int64_t scale,
                                          std::uint64_t seed);

/// Optimal local score by the serial linear-memory scan — the oracle
/// every engine, recovery and service result is checked against.
[[nodiscard]] sw::Score oracle_score(const seq::Sequence& query,
                                     const seq::Sequence& subject);

/// `count` devices with environment-1 profiles, cycled in order.
[[nodiscard]] std::vector<std::unique_ptr<vgpu::Device>> env1_devices(
    int count);
[[nodiscard]] std::vector<vgpu::Device*> pointers(
    const std::vector<std::unique_ptr<vgpu::Device>>& devices);

// --- tracing ------------------------------------------------------------

/// Category of every span the benchmark records around a layer call.
inline constexpr const char* kSpanCategory = "bench";

/// Durations in ms of the benchmark's complete spans called `name`.
[[nodiscard]] std::vector<double> span_ms(const obs::Tracer& tracer,
                                          std::string_view name);

/// Writes the Perfetto trace of a traced run to
/// `<workdir>/<workload>-seed<seed>.trace.json` and notes the path.
void write_trace(const obs::Tracer& tracer, const Options& options,
                 Report& report);

// --- per-layer probes ---------------------------------------------------

/// sw.kernel_gcups at the engine's geometry: the registry's default
/// block kernel (`sw::find_kernel` of EngineConfig{}.kernel) called
/// directly on the top-left 4 x 16 EngineConfig{} blocks of
/// query x subject, swept in row-major order with rolling borders — each
/// block's bottom and right borders feed the next blocks, exactly as
/// inside a slice. Each sweep is one "sw.kernel_strip" span; the sweep
/// runs at least three times and for about `seconds`, and the median
/// sweep sets the rate.
[[nodiscard]] double engine_strip_gcups(obs::Tracer& tracer,
                                        const seq::Sequence& query,
                                        const seq::Sequence& subject,
                                        double seconds);

/// Sums DeviceRunStats over many engine results (one per comparison).
struct EngineTotals {
  std::int64_t runs = 0;
  double device_seconds = 0.0;  // devices x run wall, summed
  std::int64_t blocks = 0;
  std::int64_t overflow_reruns = 0;
  std::int64_t busy_ns = 0;
  std::int64_t recv_stall_ns = 0;
  std::int64_t send_stall_ns = 0;
  std::int64_t device_wall_ns = 0;
  std::int64_t checkpoint_ns = 0;
  std::int64_t bytes_sent = 0;
  std::int64_t chunks_sent = 0;
  std::vector<double> imbalance;  // max / mean device busy, per run

  void add(const core::EngineResult& result);
  /// Sets sw.overflow_rerun_frac, vgpu.busy_frac, comm.*,
  /// core.load_imbalance and core.checkpoint_frac.
  void report(Report& report) const;
};

}  // namespace perfbench
