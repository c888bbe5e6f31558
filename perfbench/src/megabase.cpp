// megabase: the paper's workload. One scaled chr21 homolog pair is
// compared back to back by MultiDeviceEngine::run on three
// environment-1 devices over the in-process ring transport, with every
// engine knob at its EngineConfig{} default. The untraced run alternates
// those comparisons with the same comparison through run_with_recovery
// and no fault, which sets recover_gcups: the clean-path cost of
// recovery (engine per call, checkpoint writes) on the paper's workload.
#include "base/time.hpp"
#include "core/recovery.hpp"
#include "obs/metrics.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

constexpr std::int64_t kScale = 4096;       // 11461 x 8007 bases
constexpr std::int64_t kTinyScale = 16384;  // 2865 x 2001 bases
constexpr int kDevices = 3;
constexpr int kSetups = 51;

}  // namespace

void run_megabase(const Options& options, Report& report) {
  const seq::HomologPair pair =
      chr21_pair(options.tiny ? kTinyScale : kScale, options.seed);
  const seq::Sequence& query = pair.query;
  const seq::Sequence& subject = pair.subject;
  const sw::Score want = oracle_score(query, subject);
  const std::int64_t cells = query.size() * subject.size();
  report.notes.push_back("pair " + std::to_string(query.size()) + " x " +
                         std::to_string(subject.size()) + ", oracle score " +
                         std::to_string(want));

  // Set-up: devices plus engine, repeated so the median is steady; the
  // last set is the one measured.
  std::vector<double> setup;
  std::vector<std::unique_ptr<vgpu::Device>> devices;
  std::unique_ptr<core::MultiDeviceEngine> engine;
  for (int i = 0; i < kSetups; ++i) {
    engine.reset();
    devices.clear();
    const Clock::time_point start = Clock::now();
    devices = env1_devices(kDevices);
    engine = std::make_unique<core::MultiDeviceEngine>(core::EngineConfig{},
                                                       pointers(devices));
    setup.push_back(seconds_since(start));
  }

  const auto compare = [&](core::MultiDeviceEngine& e) {
    const Clock::time_point start = Clock::now();
    const core::EngineResult result = e.run(query, subject);
    const double wall = seconds_since(start);
    report.check(true, result.best.score, want);
    return std::make_pair(wall, result);
  };

  const Clock::time_point warm = Clock::now();
  report.check(true, engine->run(query, subject).best.score, want);
  const double warmup_s = seconds_since(warm);

  if (!options.trace) {
    std::vector<double> rates;
    std::vector<double> recover_rates;
    const Clock::time_point start = Clock::now();
    while (rates.size() < 3 || seconds_since(start) < options.seconds) {
      rates.push_back(base::gcups(cells, compare(*engine).first));
      const Clock::time_point recover_start = Clock::now();
      const core::RecoveryResult recovered =
          core::run_with_recovery(core::EngineConfig{}, pointers(devices),
                                  query, subject, core::RecoveryPolicy{});
      recover_rates.push_back(
          base::gcups(cells, seconds_since(recover_start)));
      report.check(true, recovered.result.best.score, want);
    }
    report.set("setup_s", median(setup));
    report.set("compare_gcups", median(rates));
    report.set("recover_gcups", median(recover_rates));
    return;
  }

  // Traced run: engine runs alternate between a traced engine (spans,
  // metrics, phase profiling) and the plain one, so the tracing cost is
  // measured under the same conditions it perturbs.
  obs::Tracer tracer;
  obs::MetricsRegistry metrics;
  core::EngineConfig traced_config;
  traced_config.obs = {&tracer, &metrics, true};
  core::MultiDeviceEngine traced(traced_config, pointers(devices));
  EngineTotals totals;
  std::vector<double> plain_rates;
  const Clock::time_point start = Clock::now();
  while (plain_rates.size() < 2 || seconds_since(start) < 0.6 * options.seconds) {
    plain_rates.push_back(base::gcups(cells, compare(*engine).first));
    obs::TraceSpan span(&tracer, kSpanCategory, "core.engine_run");
    totals.add(compare(traced).second);
  }
  const double compare_traced =
      base::gcups(cells, median(span_ms(tracer, "core.engine_run")) * 1e-3);

  // One device, same pair, same defaults: the slice runner without
  // neighbours.
  {
    auto one = env1_devices(1);
    core::MultiDeviceEngine single(core::EngineConfig{}, pointers(one));
    const Clock::time_point single_start = Clock::now();
    int runs = 0;
    while (runs < 2 || seconds_since(single_start) < 0.25 * options.seconds) {
      obs::TraceSpan span(&tracer, kSpanCategory, "core.engine_1dev");
      report.check(true, single.run(query, subject).best.score, want);
      ++runs;
    }
  }
  const double gcups_1dev =
      base::gcups(cells, median(span_ms(tracer, "core.engine_1dev")) * 1e-3);

  const double kernel_gcups =
      engine_strip_gcups(tracer, query, subject, 0.15 * options.seconds);

  totals.report(report);
  report.set("sw.kernel_gcups", kernel_gcups);
  report.set("core.gcups_1dev", gcups_1dev);
  report.set("core.runner_eff", gcups_1dev / kernel_gcups);
  report.set("core.scaling_eff", compare_traced / (kDevices * gcups_1dev));
  report.set("core.checkpoint_bytes",
             static_cast<double>(metrics.counter_value("checkpoint.bytes")) /
                 static_cast<double>(totals.runs));
  report.set("warmup_s", warmup_s);
  report.set("obs.trace_overhead_frac",
             median(plain_rates) / compare_traced - 1.0);
  write_trace(tracer, options, report);
}

}  // namespace perfbench
