// The serve-layer probe: short homolog jobs through the whole service
// stack, measured inside recovery_long's traced run.
//
// An in-process AlignServer (ServerConfig{} defaults plus a journal
// directory and one device) receives jobs as inline bases over loopback
// TCP from an open-loop load generator: a seeded Poisson schedule, sent
// from kSenders connections while kCollectors more connections wait for
// the results — four connections in one process, the host's core count.
// Latency runs from each job's due time, so a stalled server also
// charges the jobs queued behind the stall.
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <filesystem>
#include <mutex>
#include <thread>

#include "base/rng.hpp"
#include "core/batch.hpp"
#include "core/fleet.hpp"
#include "obs/metrics.hpp"
#include "serve/client_lib.hpp"
#include "serve/journal.hpp"
#include "serve/server.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

// One device: the per-job path (protocol, queue, journal, lease,
// run_batch_item, engine set-up, kernel) without cross-device border
// exchange, which megabase and recovery_long measure.
constexpr int kDevices = 1;
constexpr int kInputs = 64;              // distinct job pairs per seed
constexpr std::int64_t kMinBases = 512;
constexpr std::int64_t kMaxBases = 3072;
constexpr int kSenders = 2;
constexpr int kCollectors = 2;
constexpr int kTenants = 4;
constexpr int kWarmupJobs = 16;
// Offered load: well below the knee, so latency shows per-job cost
// rather than queueing. One round sends kChunkJobs jobs at this rate.
constexpr double kNominalRate = 20.0;  // jobs/s
constexpr int kChunkJobs = 25;
constexpr double kRoundSeconds = kChunkJobs / kNominalRate;

struct JobInput {
  std::string query;
  std::string subject;
  sw::Score want = 0;
  seq::HomologPair pair;
};

/// `count` job pairs whose lengths step evenly through
/// [kMinBases, kMaxBases] (query ascending, subject descending), so the
/// mix of job sizes is the same for every seed; the bases come from the
/// seed.
std::vector<JobInput> make_inputs(std::uint64_t seed, int count) {
  base::Rng rng(seed);
  std::vector<JobInput> inputs(static_cast<std::size_t>(count));
  const std::int64_t step = (kMaxBases - kMinBases) / std::max(1, count - 1);
  for (int i = 0; i < count; ++i) {
    JobInput& in = inputs[static_cast<std::size_t>(i)];
    const seq::ChromosomePair shape{"job" + std::to_string(i),
                                    kMinBases + i * step,
                                    kMaxBases - ((i * 7) % count) * step};
    in.pair = seq::make_homolog_pair(shape, rng.next_u64());
    in.query = in.pair.query.to_string();
    in.subject = in.pair.subject.to_string();
    in.want = oracle_score(in.pair.query, in.pair.subject);
  }
  return inputs;
}

struct Arrival {
  double due_s = 0.0;  // offset from the phase start
  int input = 0;
};

/// `count` Poisson arrivals at `rate`; job j uses input
/// (first_input + j) mod `inputs`.
std::vector<Arrival> poisson(double rate, int count, int first_input,
                             int inputs, std::uint64_t seed) {
  base::Rng rng(seed);
  std::vector<Arrival> schedule;
  double t = 0.0;
  for (int j = 0; j < count; ++j) {
    schedule.push_back({t, (first_input + j) % inputs});
    t += -std::log(1.0 - rng.next_double()) / rate;
  }
  return schedule;
}

struct PhaseResult {
  std::vector<double> latency_ms;  // completed jobs, from due time
  std::vector<double> lag_ms;      // send time minus due time
  std::string result_json;         // one done job's report

  void append(const PhaseResult& other) {
    latency_ms.insert(latency_ms.end(), other.latency_ms.begin(),
                      other.latency_ms.end());
    lag_ms.insert(lag_ms.end(), other.lag_ms.begin(), other.lag_ms.end());
    if (result_json.empty()) result_json = other.result_json;
  }
};

/// The open-loop generator: kSenders + kCollectors connections, opened
/// once and reused by every phase.
class LoadGenerator {
 public:
  explicit LoadGenerator(std::uint16_t port) {
    for (int i = 0; i < kSenders + kCollectors; ++i) {
      clients_.push_back(serve::ServeClient::connect("127.0.0.1", port));
    }
  }

  /// A connection with no request in flight between phases.
  serve::ServeClient& idle_client() { return clients_.front(); }

  /// Sends `schedule` and waits for every result. Each job's outcome —
  /// refused, failed, or done with some score — is checked into
  /// `report`.
  PhaseResult run(const std::vector<Arrival>& schedule,
                  const std::vector<JobInput>& inputs, obs::Tracer* tracer,
                  Report& report);

 private:
  std::vector<serve::ServeClient> clients_;
};

PhaseResult LoadGenerator::run(const std::vector<Arrival>& schedule,
                               const std::vector<JobInput>& inputs,
                               obs::Tracer* tracer, Report& report) {
  enum class State { kPending, kSubmitted, kRefused, kFailed };
  struct Slot {
    State state = State::kPending;
    std::int64_t id = -1;
    std::int64_t send_ns = 0;  // tracer clock
    double sent_s = 0.0;
    double done_s = 0.0;
    bool done = false;
    sw::Score score = -1;
    std::string result_json;
  };
  const std::size_t n = schedule.size();
  std::vector<Slot> slots(n);
  std::mutex mu;  // guards slots[*].state / id between the two sides
  std::condition_variable submitted;
  // Start slightly in the future so every thread is waiting at t = 0.
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(20);
  const auto since_start = [&start] {
    return std::chrono::duration<double>(Clock::now() - start).count();
  };

  const auto sender = [&](int lane) {
    serve::ServeClient& client = clients_[static_cast<std::size_t>(lane)];
    for (std::size_t j = static_cast<std::size_t>(lane); j < n; j += kSenders) {
      const Arrival& arrival = schedule[j];
      const JobInput& input = inputs[static_cast<std::size_t>(arrival.input)];
      serve::SubmitRequest request;
      request.tenant = "tenant" + std::to_string(j % kTenants);
      request.label = "job" + std::to_string(j);
      request.query = input.query;
      request.subject = input.subject;
      std::this_thread::sleep_until(
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(arrival.due_s)));
      const double sent_s = since_start();
      const std::int64_t send_ns = tracer != nullptr ? tracer->now_ns() : 0;
      State state = State::kSubmitted;
      std::int64_t id = -1;
      {
        obs::TraceSpan span(tracer, kSpanCategory, "serve.submit");
        try {
          id = client.submit(request);
          span.arg("job", id);
        } catch (const serve::ServeError&) {
          state = State::kRefused;
        } catch (const std::exception&) {
          state = State::kFailed;
        }
      }
      std::lock_guard<std::mutex> lock(mu);
      slots[j].state = state;
      slots[j].id = id;
      slots[j].sent_s = sent_s;
      slots[j].send_ns = send_ns;
      submitted.notify_all();
    }
  };

  const auto collector = [&](int lane) {
    serve::ServeClient& client =
        clients_[static_cast<std::size_t>(kSenders + lane)];
    for (std::size_t j = static_cast<std::size_t>(lane); j < n;
         j += kCollectors) {
      std::int64_t id = -1;
      {
        std::unique_lock<std::mutex> lock(mu);
        submitted.wait(lock, [&] { return slots[j].state != State::kPending; });
        if (slots[j].state != State::kSubmitted) continue;
        id = slots[j].id;
      }
      Slot& slot = slots[j];  // this collector alone writes the rest
      try {
        serve::JobStatus status = client.result(id, true);
        slot.done_s = since_start();
        slot.done = status.state == serve::JobState::kDone;
        slot.score = static_cast<sw::Score>(status.score);
        slot.result_json = std::move(status.result_json);
      } catch (const std::exception&) {
        slot.done_s = since_start();
      }
      if (tracer != nullptr) {
        // Opened on the sender's connection, closed here: one span per
        // job, sharing the job id with its serve.submit span.
        obs::TraceEvent event;
        event.category = kSpanCategory;
        event.name = "serve.submit_to_result";
        event.start_ns = slot.send_ns;
        event.duration_ns = tracer->now_ns() - slot.send_ns;
        event.args.push_back(obs::TraceArg::number("job", id));
        tracer->emit(std::move(event));
      }
    }
  };

  std::vector<std::thread> threads;
  for (int i = 0; i < kSenders; ++i) threads.emplace_back(sender, i);
  for (int i = 0; i < kCollectors; ++i) threads.emplace_back(collector, i);
  for (std::thread& t : threads) t.join();

  PhaseResult result;
  for (std::size_t j = 0; j < n; ++j) {
    const Slot& slot = slots[j];
    const JobInput& input = inputs[static_cast<std::size_t>(schedule[j].input)];
    report.check(slot.done, slot.score, input.want);
    if (!slot.done) continue;
    result.latency_ms.push_back((slot.done_s - schedule[j].due_s) * 1e3);
    result.lag_ms.push_back((slot.sent_s - schedule[j].due_s) * 1e3);
    if (result.result_json.empty()) result.result_json = slot.result_json;
  }
  return result;
}

/// Server metrics the traced run reads as deltas over one phase.
struct ServerCounters {
  double lease_wait_sum_ms = 0.0;
  std::int64_t lease_waits = 0;
  std::int64_t journal_appends = 0;

  explicit ServerCounters(obs::MetricsRegistry& m) {
    if (const obs::Histogram* h = m.find_histogram("fleet.lease_wait_ms")) {
      lease_wait_sum_ms = h->sum();
      lease_waits = h->count();
    }
    journal_appends = m.counter_value("serve.journal_appends");
  }
};

/// The daemon under test — started, warmed up, and connected to the
/// load generator — plus the job inputs it is sent.
struct Service {
  Service(const Options& options, Report& report);
  ~Service();
  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  /// `count` seeded Poisson arrivals at `rate`, continuing the rotation
  /// through the inputs where the previous schedule stopped.
  [[nodiscard]] std::vector<Arrival> schedule(double rate, int count,
                                              std::uint64_t salt) {
    const int n = static_cast<int>(inputs.size());
    std::vector<Arrival> out =
        poisson(rate, count, next_input, n, seed * 1000003 + salt);
    next_input = (next_input + count) % n;
    return out;
  }

  std::uint64_t seed = 1;
  std::vector<JobInput> inputs;
  int next_input = 0;
  std::string root;  // journal directories
  int chunk_jobs = kChunkJobs;
  std::unique_ptr<serve::AlignServer> server;
  std::unique_ptr<LoadGenerator> load;  // destroyed before the server
};

Service::Service(const Options& options, Report& report)
    : seed(options.seed),
      inputs(make_inputs(options.seed, options.tiny ? 8 : kInputs)),
      root(options.workdir + "/service-" + std::to_string(::getpid())) {
  if (options.tiny) chunk_jobs = 8;
  std::filesystem::remove_all(root);
  serve::ServerConfig config;
  config.devices = kDevices;
  config.journal_dir = root + "/journal";
  server = std::make_unique<serve::AlignServer>(config);
  server->start();
  load = std::make_unique<LoadGenerator>(server->port());
  std::vector<Arrival> burst;
  for (int i = 0; i < std::min<int>(kWarmupJobs, inputs.size()); ++i) {
    burst.push_back({0.0, i});
  }
  (void)load->run(burst, inputs, nullptr, report);
}

Service::~Service() {
  load.reset();
  server.reset();
  std::filesystem::remove_all(root);
}

}  // namespace

void measure_service_layers(const Options& options, Report& report,
                            obs::Tracer& tracer, double seconds) {
  Service service(options, report);
  const std::vector<JobInput>& inputs = service.inputs;

  // Nominal-rate chunks, traced, with the server's counters read around
  // each one.
  const int rounds =
      std::max(2, static_cast<int>(0.6 * seconds / kRoundSeconds));
  PhaseResult traced;
  std::int64_t lease_waits = 0;
  double lease_wait_ms = 0.0;
  std::int64_t journal_appends = 0;
  for (int round = 0; round < rounds; ++round) {
    const std::vector<Arrival> chunk =
        service.schedule(kNominalRate, service.chunk_jobs, round);
    const ServerCounters before(service.server->metrics());
    traced.append(service.load->run(chunk, inputs, &tracer, report));
    const ServerCounters after(service.server->metrics());
    lease_waits += after.lease_waits - before.lease_waits;
    lease_wait_ms += after.lease_wait_sum_ms - before.lease_wait_sum_ms;
    journal_appends += after.journal_appends - before.journal_appends;
  }
  const auto jobs = static_cast<double>(traced.latency_ms.size());

  // STATUS round trip on an idle connection.
  for (int i = 0; i < 50; ++i) {
    obs::TraceSpan span(&tracer, kSpanCategory, "serve.status_rtt");
    (void)service.load->idle_client().status(1);
  }

  // run_batch_item directly, configured as the server configures a job.
  {
    const serve::ServerConfig defaults;
    core::DeviceFleet fleet(env1_devices(kDevices));
    obs::MetricsRegistry metrics;
    core::BatchConfig batch;
    batch.engine.scheme = defaults.scheme;
    batch.engine.block_rows = defaults.block;
    batch.engine.block_cols = defaults.block;
    batch.engine.obs = {&tracer, &metrics, true};
    batch.devices_per_item = defaults.devices_per_job;
    batch.enable_recovery = defaults.enable_recovery;
    batch.recovery = defaults.recovery;
    const Clock::time_point start = Clock::now();
    for (std::size_t i = 0; i < 8 || seconds_since(start) < 0.25 * seconds;
         ++i) {
      const JobInput& input = inputs[i % inputs.size()];
      core::BatchItem item;
      item.label = "probe" + std::to_string(i);
      item.query = input.pair.query;
      item.subject = input.pair.subject;
      core::BatchItemResult entry;
      bool completed = true;
      {
        obs::TraceSpan span(&tracer, kSpanCategory, "core.batch_item");
        span.arg("job", static_cast<std::int64_t>(i));
        try {
          core::run_batch_item(batch, fleet, item, entry);
        } catch (const std::exception&) {
          completed = false;
        }
      }
      report.check(completed, entry.result.best.score, input.want);
    }
  }

  // JobJournal::append on the records one served job writes.
  {
    serve::JobJournal journal(service.root + "/journal-probe");
    (void)journal.replay();
    const Clock::time_point start = Clock::now();
    for (std::int64_t id = 1;
         id <= 8 || seconds_since(start) < 0.15 * seconds; ++id) {
      const JobInput& input =
          inputs[static_cast<std::size_t>(id) % inputs.size()];
      serve::JournalRecord record;
      record.job_id = id;
      record.spec.tenant = "tenant0";
      record.spec.label = "job" + std::to_string(id);
      record.spec.query = input.query;
      record.spec.subject = input.subject;
      record.row = input.pair.query.size() / 2;
      record.score = input.want;
      record.result_json = traced.result_json;
      for (const auto kind : {serve::JournalRecord::Kind::kSubmit,
                              serve::JournalRecord::Kind::kStart,
                              serve::JournalRecord::Kind::kCheckpoint,
                              serve::JournalRecord::Kind::kDone}) {
        record.kind = kind;
        obs::TraceSpan span(&tracer, kSpanCategory, "serve.journal_append");
        span.arg("job", id);
        journal.append(record);
      }
    }
  }

  const double batch_item_ms = median(span_ms(tracer, "core.batch_item"));
  report.set("core.batch_item_ms", batch_item_ms);
  report.set("core.lease_wait_ms",
             lease_waits > 0
                 ? lease_wait_ms / static_cast<double>(lease_waits)
                 : 0.0);
  report.set("serve.rtt_ms", median(span_ms(tracer, "serve.status_rtt")));
  report.set("serve.overhead_ms", median(traced.latency_ms) - batch_item_ms);
  report.set("serve.journal_append_us",
             median(span_ms(tracer, "serve.journal_append")) * 1e3);
  report.set("serve.journal_appends_per_job",
             static_cast<double>(journal_appends) / jobs);
  report.set("serve.generator_lag_ms", tail(traced.lag_ms));
}

}  // namespace perfbench
