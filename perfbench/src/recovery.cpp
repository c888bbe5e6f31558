// recovery_long: the megabase engine under core::run_with_recovery with
// its default checkpointing. Comparisons alternate between a clean run
// and one in which device 1 dies halfway through its slice; every run
// gets fresh devices (a dead device stays dead). The traced run also
// measures the serve layers on the journaled daemon, which wraps every
// job in the same recovery.
#include "base/time.hpp"
#include "core/recovery.hpp"
#include "obs/metrics.hpp"
#include "vgpu/fault.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

constexpr std::int64_t kScale = 4096;       // the megabase pair
constexpr std::int64_t kTinyScale = 16384;
constexpr int kDevices = 3;
constexpr int kVictim = 1;  // the device the fault plan kills

struct Rep {
  double wall_s = 0.0;
  double setup_s = 0.0;
  std::int64_t device_cells = 0;  // summed over every attempt
  core::RecoveryResult result;
};

}  // namespace

void run_recovery_long(const Options& options, Report& report) {
  const seq::HomologPair pair =
      chr21_pair(options.tiny ? kTinyScale : kScale, options.seed);
  const seq::Sequence& query = pair.query;
  const seq::Sequence& subject = pair.subject;
  const sw::Score want = oracle_score(query, subject);
  const std::int64_t cells = query.size() * subject.size();

  // Kill the victim at its middle kernel launch: one launch per block.
  std::string fault;
  {
    auto devices = env1_devices(kDevices);
    const core::AlignmentPlan plan =
        core::MultiDeviceEngine(core::EngineConfig{}, pointers(devices))
            .plan(query.size(), subject.size());
    const std::int64_t victim_blocks =
        plan.block_row_count *
        plan.devices[static_cast<std::size_t>(kVictim)].block_columns;
    fault = "dev" + std::to_string(kVictim) +
            ":die@kernel=" + std::to_string(victim_blocks / 2);
  }
  const vgpu::FaultPlan fault_plan = vgpu::parse_fault_plan(fault);
  report.notes.push_back("pair " + std::to_string(query.size()) + " x " +
                         std::to_string(subject.size()) + ", oracle score " +
                         std::to_string(want) + ", fault " + fault);

  const auto run = [&](bool faulted, const obs::Scope& scope) {
    Rep rep;
    const Clock::time_point setup = Clock::now();
    auto devices = env1_devices(kDevices);
    std::unique_ptr<vgpu::FaultInjector> injector;
    core::EngineConfig config;
    config.obs = scope;
    if (faulted) {
      injector = std::make_unique<vgpu::FaultInjector>(fault_plan);
      config.fault = injector.get();
    }
    rep.setup_s = seconds_since(setup);
    const Clock::time_point start = Clock::now();
    bool completed = true;
    try {
      // Spans only in the traced run (scope.tracer is null otherwise),
      // around the same call wall_s times.
      obs::TraceSpan span(scope.tracer, kSpanCategory,
                          faulted ? "core.recover_fault" : "core.recover_clean");
      rep.result = core::run_with_recovery(config, pointers(devices), query,
                                           subject, core::RecoveryPolicy{});
    } catch (const std::exception& e) {
      completed = false;
      report.notes.push_back(std::string("comparison failed: ") + e.what());
    }
    rep.wall_s = seconds_since(start);
    // A faulted run that never restarted did not exercise recovery.
    if (faulted && completed && rep.result.restarts == 0) {
      completed = false;
      report.notes.push_back("the injected fault did not fire");
    }
    report.check(completed, rep.result.result.best.score, want);
    for (const auto& device : devices) {
      rep.device_cells += device->cells_computed();
    }
    return rep;
  };

  // Warm-up: one clean comparison, untimed in the metrics below.
  const double warmup_s = run(false, {}).wall_s;

  std::vector<double> setup;
  const Clock::time_point start = Clock::now();

  if (!options.trace) {
    std::vector<double> clean_rates;
    std::vector<double> fault_rates;
    while (fault_rates.size() < 3 || seconds_since(start) < options.seconds) {
      for (const bool faulted : {false, true}) {
        const Rep rep = run(faulted, {});
        setup.push_back(rep.setup_s);
        (faulted ? fault_rates : clean_rates)
            .push_back(base::gcups(cells, rep.wall_s));
      }
    }
    report.set("setup_s", median(setup));
    report.set("compare_gcups", median(clean_rates));
    report.set("recover_gcups", median(fault_rates));
    return;
  }

  // Traced run: clean and faulted comparisons, each once traced (spans,
  // metrics, phases) and once plain; the plain faulted runs are the
  // baseline of the tracing overhead.
  obs::Tracer tracer;
  EngineTotals totals;
  std::vector<double> plain_fault_walls;
  std::vector<double> restarts;
  std::vector<double> wasted;
  std::vector<double> checkpoint_bytes;
  while (plain_fault_walls.size() < 2 ||
         seconds_since(start) < 0.5 * options.seconds) {
    for (const bool faulted : {false, true}) {
      obs::MetricsRegistry metrics;
      const Rep rep = run(faulted, {&tracer, &metrics, true});
      totals.add(rep.result.result);
      checkpoint_bytes.push_back(
          static_cast<double>(metrics.counter_value("checkpoint.bytes")));
      if (faulted) {
        restarts.push_back(rep.result.restarts);
        wasted.push_back(static_cast<double>(rep.device_cells - cells) /
                         static_cast<double>(cells));
      }
      const Rep plain = run(faulted, {});
      if (faulted) plain_fault_walls.push_back(plain.wall_s);
    }
  }

  // The durable service path — journaled daemon, checkpoint spill,
  // recovery-wrapped jobs — measured on short homolog jobs.
  measure_service_layers(options, report, tracer, 0.35 * options.seconds);

  const double kernel_gcups = engine_strip_gcups(
      tracer, query, subject, options.seconds - seconds_since(start));

  const double fault_ms = median(span_ms(tracer, "core.recover_fault"));
  totals.report(report);
  report.set("sw.kernel_gcups", kernel_gcups);
  report.set("core.recovery.restarts", median(restarts));
  report.set("core.recovery.wasted_cell_frac", median(wasted));
  report.set("core.recovery.overhead",
             fault_ms / median(span_ms(tracer, "core.recover_clean")));
  report.set("core.checkpoint_bytes", median(checkpoint_bytes));
  report.set("warmup_s", warmup_s);
  report.set("obs.trace_overhead_frac",
             fault_ms * 1e-3 / median(plain_fault_walls) - 1.0);
  write_trace(tracer, options, report);
}

}  // namespace perfbench
