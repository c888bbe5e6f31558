// The workloads. Each builds its inputs from Options::seed,
// checks every score against the oracle, and fills the metrics of the
// run's mode (end-to-end untraced, per-layer traced) into the report.
#pragma once

#include "common.hpp"

namespace perfbench {

/// One scaled chr21 homolog pair compared back to back by
/// MultiDeviceEngine::run on three environment-1 devices.
void run_megabase(const Options& options, Report& report);

/// The serve-layer probe of a traced run: short homolog jobs sent
/// open-loop as inline bases over loopback TCP to an in-process
/// AlignServer with the journal on, plus run_batch_item and
/// JobJournal::append called directly. Starts the daemon, measures for
/// about `seconds` and sets core.batch_item_ms, core.lease_wait_ms and
/// serve.*.
void measure_service_layers(const Options& options, Report& report,
                            obs::Tracer& tracer, double seconds);

/// An engine-sized homolog pair through run_with_recovery, alternating
/// clean runs with runs in which one device dies halfway through.
void run_recovery_long(const Options& options, Report& report);

}  // namespace perfbench
