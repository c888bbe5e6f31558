#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <filesystem>

#include "base/time.hpp"
#include "obs/trace_export.hpp"
#include "sw/block.hpp"
#include "sw/kernel.hpp"
#include "sw/linear.hpp"
#include "vgpu/spec.hpp"

namespace perfbench {

void Report::set(const std::string& name, double value) {
  metrics.at(name).value = value;  // throws on a name main() did not list
}

void Report::check(bool completed, sw::Score got, sw::Score want) {
  ++attempted;
  if (!completed) {
    ++failed;
  } else if (got != want) {
    ++failed;
    ++mismatches;
  }
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double tail(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto n = static_cast<double>(values.size());
  for (const double p : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
    const auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n));
    if (rank >= 1 && values.size() - rank >= 10) return values[rank - 1];
  }
  return values.back();
}

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

seq::HomologPair chr21_pair(std::int64_t scale, std::uint64_t seed) {
  const auto& pairs = seq::paper_chromosome_pairs();
  const auto chr21 = std::find_if(pairs.begin(), pairs.end(),
                                  [](const seq::ChromosomePair& p) {
                                    return p.id == "chr21";
                                  });
  return seq::make_homolog_pair(seq::scaled_pair(*chr21, scale), seed);
}

sw::Score oracle_score(const seq::Sequence& query,
                       const seq::Sequence& subject) {
  return sw::linear_score(core::EngineConfig{}.scheme, query, subject).score;
}

std::vector<std::unique_ptr<vgpu::Device>> env1_devices(int count) {
  const std::vector<vgpu::DeviceSpec> env = vgpu::environment1();
  std::vector<std::unique_ptr<vgpu::Device>> devices;
  for (int d = 0; d < count; ++d) {
    devices.push_back(std::make_unique<vgpu::Device>(
        env[static_cast<std::size_t>(d) % env.size()]));
  }
  return devices;
}

std::vector<vgpu::Device*> pointers(
    const std::vector<std::unique_ptr<vgpu::Device>>& devices) {
  std::vector<vgpu::Device*> out;
  for (const auto& device : devices) out.push_back(device.get());
  return out;
}

std::vector<double> span_ms(const obs::Tracer& tracer,
                            std::string_view name) {
  std::vector<double> out;
  for (const obs::TraceEvent& event : tracer.snapshot()) {
    if (event.type == obs::TraceEvent::kComplete &&
        std::string_view(event.category) == kSpanCategory &&
        event.name == name) {
      out.push_back(static_cast<double>(event.duration_ns) * 1e-6);
    }
  }
  return out;
}

void write_trace(const obs::Tracer& tracer, const Options& options,
                 Report& report) {
  std::filesystem::create_directories(options.workdir);
  const std::string path = options.workdir + "/" + options.workload +
                           "-seed" + std::to_string(options.seed) +
                           ".trace.json";
  obs::write_chrome_trace(path, tracer);
  report.notes.push_back("perfetto trace: " + path + " (" +
                         std::to_string(tracer.event_count()) + " events)");
}

namespace {

std::vector<seq::Nt> unpack(const seq::Sequence& sequence,
                            std::int64_t length) {
  std::vector<seq::Nt> out(static_cast<std::size_t>(length));
  for (std::int64_t i = 0; i < length; ++i) {
    out[static_cast<std::size_t>(i)] = sequence.at(i);
  }
  return out;
}

/// One sweep of the default kernel over the top-left rows x cols of
/// query x subject; returns its cells.
std::int64_t kernel_strip(obs::Tracer& tracer, const seq::Sequence& query,
                          const seq::Sequence& subject, std::int64_t rows,
                          std::int64_t cols, std::int64_t block_rows,
                          std::int64_t block_cols) {
  rows = std::min(rows, query.size());
  cols = std::min(cols, subject.size());
  const core::EngineConfig defaults;
  const sw::BlockKernelFn kernel = sw::find_kernel(defaults.kernel);
  const std::vector<seq::Nt> q = unpack(query, rows);
  const std::vector<seq::Nt> s = unpack(subject, cols);
  const auto width = static_cast<std::size_t>(cols);
  const auto height = static_cast<std::size_t>(block_rows);
  std::vector<sw::Score> top_h(width, 0);
  std::vector<sw::Score> top_f(width, sw::kNegInf);
  sw::Score best = 0;
  obs::TraceSpan span(&tracer, kSpanCategory, "sw.kernel_strip");
  for (std::int64_t r0 = 0; r0 < rows; r0 += block_rows) {
    const std::int64_t h = std::min(block_rows, rows - r0);
    std::vector<sw::Score> left_h(height, 0);
    std::vector<sw::Score> left_e(height, sw::kNegInf);
    sw::Score corner = 0;  // H(r0 - 1, -1): matrix edge
    for (std::int64_t c0 = 0; c0 < cols; c0 += block_cols) {
      const std::int64_t w = std::min(block_cols, cols - c0);
      // The next block's corner is this block's top-right input, which
      // the in-place bottom border is about to overwrite.
      const sw::Score next_corner =
          top_h[static_cast<std::size_t>(c0 + w - 1)];
      sw::BlockArgs args;
      args.query = q.data() + r0;
      args.subject = s.data() + c0;
      args.rows = h;
      args.cols = w;
      args.global_row = r0;
      args.global_col = c0;
      args.top_h = top_h.data() + c0;
      args.top_f = top_f.data() + c0;
      args.left_h = left_h.data();
      args.left_e = left_e.data();
      args.corner_h = corner;
      args.bottom_h = top_h.data() + c0;
      args.bottom_f = top_f.data() + c0;
      args.right_h = left_h.data();
      args.right_e = left_e.data();
      best = std::max(best, kernel(defaults.scheme, args).best.score);
      corner = next_corner;
    }
  }
  span.arg("cells", rows * cols).arg("best", best);
  return rows * cols;
}

}  // namespace

double engine_strip_gcups(obs::Tracer& tracer, const seq::Sequence& query,
                          const seq::Sequence& subject, double seconds) {
  const core::EngineConfig defaults;
  const Clock::time_point start = Clock::now();
  std::int64_t cells = 0;
  for (int sweep = 0; sweep < 3 || seconds_since(start) < seconds; ++sweep) {
    cells = kernel_strip(tracer, query, subject, 4 * defaults.block_rows,
                         16 * defaults.block_cols, defaults.block_rows,
                         defaults.block_cols);
  }
  return base::gcups(cells, median(span_ms(tracer, "sw.kernel_strip")) * 1e-3);
}

void EngineTotals::add(const core::EngineResult& result) {
  ++runs;
  device_seconds +=
      static_cast<double>(result.devices.size()) * result.wall_seconds;
  std::int64_t max_busy = 0;
  std::int64_t sum_busy = 0;
  for (const core::DeviceRunStats& d : result.devices) {
    blocks += d.blocks;
    overflow_reruns += d.overflow_reruns;
    busy_ns += d.busy_ns;
    recv_stall_ns += d.recv_stall_ns;
    send_stall_ns += d.send_stall_ns;
    device_wall_ns += d.wall_ns;
    checkpoint_ns += d.phase_checkpoint_ns;
    bytes_sent += d.bytes_sent;
    chunks_sent += d.chunks_sent;
    max_busy = std::max(max_busy, d.busy_ns);
    sum_busy += d.busy_ns;
  }
  if (sum_busy > 0) {
    imbalance.push_back(static_cast<double>(max_busy) *
                        static_cast<double>(result.devices.size()) /
                        static_cast<double>(sum_busy));
  }
}

void EngineTotals::report(Report& report) const {
  if (runs == 0) return;
  const auto frac = [](std::int64_t part, std::int64_t whole) {
    return whole > 0 ? static_cast<double>(part) / static_cast<double>(whole)
                     : 0.0;
  };
  const double per_run = 1.0 / static_cast<double>(runs);
  report.set("sw.overflow_rerun_frac", frac(overflow_reruns, blocks));
  report.set("vgpu.busy_frac",
             device_seconds > 0.0
                 ? static_cast<double>(busy_ns) * 1e-9 / device_seconds
                 : 0.0);
  report.set("comm.recv_stall_frac", frac(recv_stall_ns, device_wall_ns));
  report.set("comm.send_stall_frac", frac(send_stall_ns, device_wall_ns));
  report.set("comm.bytes_sent", static_cast<double>(bytes_sent) * per_run);
  report.set("comm.chunks_sent", static_cast<double>(chunks_sent) * per_run);
  report.set("core.load_imbalance", median(imbalance));
  report.set("core.checkpoint_frac", frac(checkpoint_ns, device_wall_ns));
}

}  // namespace perfbench
