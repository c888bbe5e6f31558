// perfbench: the repository benchmark (see perfbench/README.md).
//
//   perfbench --workload <megabase|recovery_long>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--tiny] [--workdir <dir>]
//
// Prints one line per metric, then, as the last line, one JSON object
// {"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
// end-to-end metrics with no tracer attached anywhere; --trace 1
// reports the per-layer metrics from a traced run and writes its
// Perfetto trace under --workdir. Exits 1 when any score differs from
// sw::linear_score.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <utility>
#include <vector>

#include "workloads.hpp"

namespace perfbench {
namespace {

using MetricList = std::vector<std::pair<const char*, const char*>>;

// Names and units as listed in BENCHMARK.json.
const MetricList kEndToEnd = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"success_rate", "frac"},
    {"compare_gcups", "GCUPS"},
    {"recover_gcups", "GCUPS"},
};

const MetricList kPerLayer = {
    {"sw.kernel_gcups", "GCUPS"},
    {"sw.overflow_rerun_frac", "frac"},
    {"vgpu.busy_frac", "frac"},
    {"comm.recv_stall_frac", "frac"},
    {"comm.send_stall_frac", "frac"},
    {"comm.bytes_sent", "B"},
    {"comm.chunks_sent", "count"},
    {"core.load_imbalance", "ratio"},
    {"core.gcups_1dev", "GCUPS"},
    {"core.runner_eff", "ratio"},
    {"core.scaling_eff", "ratio"},
    {"core.batch_item_ms", "ms"},
    {"core.lease_wait_ms", "ms"},
    {"core.recovery.restarts", "count"},
    {"core.recovery.wasted_cell_frac", "frac"},
    {"core.recovery.overhead", "ratio"},
    {"core.checkpoint_frac", "frac"},
    {"core.checkpoint_bytes", "B"},
    {"serve.rtt_ms", "ms"},
    {"serve.overhead_ms", "ms"},
    {"serve.journal_append_us", "us"},
    {"serve.journal_appends_per_job", "count"},
    {"serve.generator_lag_ms", "ms"},
    {"warmup_s", "s"},
    {"obs.trace_overhead_frac", "frac"},
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<megabase|recovery_long> --seed <n> "
               "--seconds <s> --trace <0|1> [--tiny] [--workdir <dir>]\n",
               why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--tiny") {
      options.tiny = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      options.seconds = std::stod(value);
    } else if (flag == "--trace") {
      options.trace = value != "0";
    } else if (flag == "--workdir") {
      options.workdir = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (options.seconds <= 0.0) usage("--seconds must be positive");
  return options;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Options options = parse(argc, argv);
  Report report;
  for (const auto& [name, unit] : options.trace ? kPerLayer : kEndToEnd) {
    report.metrics[name] = Metric{0.0, unit};
  }
  try {
    if (options.workload == "megabase") {
      run_megabase(options, report);
    } else if (options.workload == "recovery_long") {
      run_recovery_long(options, report);
    } else {
      usage(("unknown workload '" + options.workload + "'").c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n",
                 options.workload.c_str(), e.what());
    return 1;
  }
  if (!options.trace) {
    report.set("peak_rss_mb", peak_rss_mb());
    report.set("success_rate",
               static_cast<double>(report.attempted - report.failed) /
                   static_cast<double>(report.attempted));
  }

  for (const std::string& note : report.notes) {
    std::printf("# %s\n", note.c_str());
  }
  std::printf("# %s: %lld attempted, %lld failed, %lld wrong scores\n",
              options.workload.c_str(),
              static_cast<long long>(report.attempted),
              static_cast<long long>(report.failed),
              static_cast<long long>(report.mismatches));
  std::string json = "{\"correct\": ";
  json += report.mismatches == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(report.attempted);
  json += ", \"failed\": " + std::to_string(report.failed);
  json += ", \"metrics\": {";
  bool first = true;
  bool finite = true;
  for (const auto& [name, metric] : report.metrics) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", metric.value);
    std::printf("%-32s %20.6f %s\n", name.c_str(), metric.value,
                metric.unit.c_str());
    finite = finite && std::isfinite(metric.value);
    json += std::string(first ? "" : ", ") + "\"" + name +
            "\": {\"value\": " + value + ", \"unit\": \"" + metric.unit +
            "\"}";
    first = false;
  }
  json += "}}";
  if (!finite) {
    std::fprintf(stderr, "perfbench: a metric is not finite\n");
    return 1;
  }
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return report.mismatches == 0 && report.attempted > 0 ? 0 : 1;
}
