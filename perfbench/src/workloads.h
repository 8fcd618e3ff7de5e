#pragma once

// Entry points of the benchmark workloads and the reporting helpers they
// share. Each workload sets up (timed, repeated, median = setup_s), runs its
// timed section, checks the engine's outputs against a reference computed
// straight from the generated inputs, and fills the Report.

#include <functional>
#include <vector>

#include "bench_common.h"
#include "common/metrics_registry.h"
#include "core/controller_loop.h"
#include "decorators.h"
#include "engine/local_engine.h"
#include "loop.h"

namespace perfbench {

void RunWikiReplay(const Args& args, Report* report);
void RunWikiFt(const Args& args, Report* report);
void RunAirlineAlbic(const Args& args, Report* report);
/// Decorator transparency, open-loop stall visibility and reference-check
/// sensitivity; every check lands in the report's failure tally.
void RunSelfTest(const Args& args, Report* report);

/// Bit-identity of everything deterministic in two engines' period stats
/// (work, communication, counts); wall-clock fields are excluded.
bool SameStats(const albic::engine::EnginePeriodStats& a,
               const albic::engine::EnginePeriodStats& b);

/// airline_albic part of the self-test: decorated vs undecorated engine at
/// 1 worker (with migrations) must agree bit for bit, and the reference
/// check must pass on the clean run and fail once an output is perturbed.
void SelfTestAirline(Report* report);

/// Registers every per-layer metric at zero, so a workload that does not
/// exercise a layer still reports it (as an explicit 0).
void InitLayerMetrics(Report* report);

/// throughput_tps, chunk latency p50/p99 (and their sample counts), and
/// the open loop's generator lag.
void ReportLoop(const LoopResult& loop, Report* report);

/// ops.<name>.* from the operator decorators.
void ReportOps(const std::vector<const TimedOperator*>& ops, Report* report);

/// balance.* from the planner decorator.
void ReportPlanner(const TimedRebalancer& planner, Report* report);

/// core.*, migration.*, recovery.* (all but the kill wall times) and
/// scaling.nodes_* from the controller's round history; \p round_call_ms
/// holds the wall times of the ingest calls that ran a round. Modeled
/// pauses land only in metrics whose names say "modeled".
void ReportController(const std::vector<albic::core::ControllerRound>& history,
                      const std::vector<double>& round_call_ms,
                      Report* report);

/// Wall time of the engine's public ingest / flush calls, timed around
/// the calls (an ingest through the ControllerLoop counts whole, rounds
/// included).
struct EngineCalls {
  int64_t ingest_calls = 0;
  int64_t ingest_ns = 0;
  int64_t flush_ns = 0;
};

/// engine.ingest_*, engine.flush_ms, engine.workers and
/// engine.parallel_efficiency: summed operator busy time over
/// workers x the drain wall time (ingest + flush calls).
void ReportEngineCalls(const EngineCalls& calls, int workers,
                       const std::vector<const TimedOperator*>& ops,
                       Report* report);

/// engine.tuples_processed, engine.waves, engine.phase.* and
/// migration.bytes, read from the registry a traced engine publishes into
/// (harvests the engine's last period first).
void ReportEngineRegistry(albic::engine::LocalEngine* engine,
                          albic::MetricsRegistry* registry, Report* report);

/// trace.* metrics, and writes the Chrome trace to \p path.
void ReportTrace(const Tracer& tracer, double untraced_tps, double traced_tps,
                 const std::string& path, Report* report);

/// Median of the setup durations (seconds) as setup_s.
void ReportSetup(const std::vector<double>& setup_s, Report* report);

/// Runs \p setup five times and reports the median duration as setup_s;
/// the first is timed from process start. The last setup's objects are
/// the ones the run goes on to use.
template <typename Setup>
void TimeSetups(Setup&& setup, Report* report) {
  std::vector<double> seconds;
  for (int i = 0; i < 5; ++i) {
    const int64_t t0 = i == 0 ? ProcessStartNs() : NowNs();
    setup();
    seconds.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }
  ReportSetup(seconds, report);
}

/// What one pass of a controller-driven workload measured.
struct ControllerRun {
  LoopResult loop;
  EngineCalls calls;
  std::vector<double> round_call_ms;  ///< Ingest calls that ran a round.
};

/// Sends \p stream through \p controller in chunks (RunLoop; \p rate 0 =
/// closed loop), flushing \p engine after each ingest; times both calls,
/// records which ingests ran a round, and opens each chunk's spans
/// (operator spans on one chunk in \p op_sample_every). \p before(first)
/// runs ahead of each chunk's ingest (failure injection).
ControllerRun DriveController(albic::core::ControllerLoop* controller,
                              albic::engine::LocalEngine* engine,
                              const ReplayStream& stream, double seconds,
                              double rate, size_t chunk, int64_t min_tuples,
                              int64_t op_sample_every, Tracer* tracer,
                              const std::function<void(int64_t)>& before);

}  // namespace perfbench
