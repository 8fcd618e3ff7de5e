// Helpers shared by the workloads: the report, the controller-driven chunk
// loop, and the metric families every workload reports the same way.

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <string>

#include "workloads.h"

namespace perfbench {

void Report::Check(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    if (!quiet_) std::fprintf(stderr, "FAILED: %s\n", what.c_str());
  }
}

void Report::Print() const {
  for (const std::string& n : notes_) std::printf("note %s\n", n.c_str());
  for (const auto& [name, v] : metrics_) {
    std::printf("metric %s %.17g %s\n", name.c_str(), v.value, v.unit.c_str());
  }
  std::printf("status attempted=%lld failed=%lld\n",
              static_cast<long long>(attempted_),
              static_cast<long long>(failed_));
}

double PeakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

void InitLayerMetrics(Report* r) {
  for (const char* m : {"engine.ingest_calls", "engine.tuples_processed",
                        "engine.waves", "engine.workers", "source.chunks",
                        "checkpoint.rounds", "checkpoint.puts",
                        "checkpoint.delta_puts", "migration.applied",
                        "migration.lease", "migration.epoch",
                        "migration.indirect", "migration.direct",
                        "recovery.kills", "recovery.groups_recovered",
                        "recovery.tuples_replayed", "core.rounds",
                        "balance.plan_calls", "balance.migrations_planned",
                        "scaling.decide_calls", "scaling.nodes_marked",
                        "scaling.nodes_terminated", "scaling.nodes_added",
                        "scaling.scale_in_periods", "trace.spans",
                        "trace.spans_dropped"}) {
    r->Set(m, 0, "count");
  }
  for (const char* m :
       {"engine.ingest_ms", "engine.flush_ms", "engine.phase.ingest_ms",
        "engine.phase.service_ms", "engine.phase.wave_barrier_ms",
        "engine.phase.window_ms", "engine.phase.checkpoint_ms",
        "engine.phase.migration_ms", "engine.phase.recovery_ms",
        "checkpoint.round_ms", "checkpoint.put_ms", "checkpoint.read_ms",
        "migration.modeled_pause_ms", "recovery.wall_ms",
        "recovery.modeled_pause_ms", "core.round_call_ms_p50",
        "core.round_call_ms_p99", "balance.plan_ms_p50",
        "balance.plan_ms_p99", "balance.plan_ms_total", "scaling.decide_ms",
        "source.gen_lag_p99_ms", "trace.self_ms.engine", "trace.self_ms.ops",
        "trace.self_ms.core", "trace.self_ms.balance",
        "trace.self_ms.scaling", "trace.self_ms.checkpoint",
        "trace.self_ms.recovery"}) {
    r->Set(m, 0, "ms");
  }
  for (const char* m : {"checkpoint.bytes", "checkpoint.replay_suffix_bytes",
                        "migration.bytes"}) {
    r->Set(m, 0, "bytes");
  }
  for (const char* op : {"geohash", "topk", "global_topk", "extract",
                         "sum_plane", "sum_route"}) {
    const std::string p = std::string("ops.") + op + ".";
    r->Set(p + "tuples_in", 0, "count");
    r->Set(p + "busy_ms", 0, "ms");
    r->Set(p + "window_fires", 0, "count");
    r->Set(p + "window_ms", 0, "ms");
    r->Set(p + "serialize_ms", 0, "ms");
    r->Set(p + "state_bytes", 0, "bytes");
  }
  r->Set("engine.parallel_efficiency", 0, "ratio");
  r->Set("engine.tps_1worker", 0, "1/s");
  r->Set("engine.tps_nworkers", 0, "1/s");
  r->Set("source.offered_tps", 0, "1/s");
  r->Set("core.load_distance_mean", 0, "%");
  r->Set("balance.useful_plan_frac", 0, "ratio");
  r->Set("balance.collocation_final", 0, "ratio");
  r->Set("trace.overhead_pct", 0, "%");
}

ControllerRun DriveController(albic::core::ControllerLoop* controller,
                              albic::engine::LocalEngine* engine,
                              const ReplayStream& stream, double seconds,
                              double rate, size_t chunk, int64_t min_tuples,
                              int64_t op_sample_every, Tracer* tracer,
                              const std::function<void(int64_t)>& before) {
  ControllerRun run;
  std::vector<albic::engine::Tuple> buf(chunk);
  run.loop = RunLoop(
      seconds, rate, chunk, INT64_MAX,
      [&](int64_t first, size_t n) { stream.Fill(first, n, buf.data()); },
      [&](int64_t k, int64_t first, size_t n) {
        before(first);
        tracer->SetChunk(k, k % op_sample_every == 0);
        Tracer::Scope chunk_span(tracer, "chunk", "source");
        const int rounds = controller->rounds_run();
        bool ok = false;
        {
          Tracer::Scope s(tracer, "controller.ingest", "core");
          const int64_t t0 = NowNs();
          ok = controller->IngestBatch(0, buf.data(), n).ok();
          const int64_t dt = NowNs() - t0;
          run.calls.ingest_ns += dt;
          ++run.calls.ingest_calls;
          if (controller->rounds_run() > rounds) {
            run.round_call_ms.push_back(static_cast<double>(dt) / 1e6);
          }
        }
        Tracer::Scope s(tracer, "engine.flush", "engine");
        const int64_t t0 = NowNs();
        engine->Flush();
        run.calls.flush_ns += NowNs() - t0;
        return ok;
      },
      min_tuples);
  return run;
}

void ReportSetup(const std::vector<double>& setup_s, Report* r) {
  r->Set("setup_s", Median(setup_s), "s");
  std::string all;
  for (double s : setup_s) {
    all += ' ';
    all += std::to_string(s);
  }
  r->Note("setup_s samples:" + all);
}

void ReportLoop(const LoopResult& loop, Report* r) {
  // The timed section is cut into kBlocks equal wall-time blocks and each
  // figure is the median over blocks, so a burst of outside load on the
  // machine moves one block, not the result. The p99 is taken per block
  // when every block holds >= 1000 chunks (ten beyond its p99), else over
  // the whole run.
  constexpr int kBlocks = 10;
  const double block_ns = loop.wall_s * 1e9 / kBlocks;
  std::vector<double> tuples(kBlocks, 0.0);
  std::vector<std::vector<double>> lat(kBlocks);
  for (size_t i = 0; i < loop.done_ns.size(); ++i) {
    const int b = std::min(
        kBlocks - 1, static_cast<int>(static_cast<double>(loop.done_ns[i]) /
                                      block_ns));
    tuples[b] += static_cast<double>(loop.chunk_tuples[i]);
    lat[b].push_back(loop.latency_ms[i]);
  }
  std::vector<double> tps, p50, p99;
  size_t fewest = SIZE_MAX;
  for (int b = 0; b < kBlocks; ++b) {
    tps.push_back(tuples[b] / (block_ns / 1e9));
    p50.push_back(Median(lat[b]));
    p99.push_back(HighTail(lat[b]).value);
    fewest = std::min(fewest, lat[b].size());
  }
  r->Set("throughput_tps", Median(tps), "1/s");
  r->Set("chunk_latency_p50_ms", Median(p50), "ms");
  const Tail pooled = HighTail(loop.latency_ms);
  const bool per_block = fewest >= 1000;
  r->Set("chunk_latency_p99_ms", per_block ? Median(p99) : pooled.value,
         "ms");
  r->Set("source.chunks", static_cast<double>(loop.latency_ms.size()),
         "count");
  r->Note("chunk latency: " + std::to_string(pooled.samples) +
          " samples in " + std::to_string(kBlocks) + " blocks; tail p" +
          std::to_string(pooled.percentile * 100.0) +
          (per_block ? " per block" : " over the run"));
  if (!loop.lag_ms.empty()) {
    r->Set("source.gen_lag_p99_ms", HighTail(loop.lag_ms).value, "ms");
  }
  r->Set("peak_rss_mb", PeakRssMb(), "MB");
}

void ReportOps(const std::vector<const TimedOperator*>& ops, Report* r) {
  for (const TimedOperator* op : ops) {
    const std::string p = std::string("ops.") + op->name() + ".";
    const auto& c = op->counters();
    r->Set(p + "tuples_in", static_cast<double>(c.tuples_in.load()), "count");
    r->Set(p + "busy_ms", Ms(c.busy_ns), "ms");
    r->Set(p + "window_fires", static_cast<double>(c.window_fires.load()),
           "count");
    r->Set(p + "window_ms", Ms(c.window_ns), "ms");
    r->Set(p + "serialize_ms", Ms(c.serialize_ns), "ms");
    r->Set(p + "state_bytes", static_cast<double>(c.state_bytes.load()),
           "bytes");
  }
}

void ReportPlanner(const TimedRebalancer& planner, Report* r) {
  const auto& ms = planner.plan_ms();
  r->Set("balance.plan_calls", static_cast<double>(ms.size()), "count");
  r->Set("balance.plan_ms_p50", Median(ms), "ms");
  r->Set("balance.plan_ms_p99", HighTail(ms).value, "ms");
  r->Set("balance.plan_ms_total", Sum(ms), "ms");
  r->Set("balance.migrations_planned",
         static_cast<double>(planner.migrations_planned()), "count");
  r->Set("balance.useful_plan_frac",
         ms.empty() ? 0.0
                    : static_cast<double>(planner.useful_plans()) /
                          static_cast<double>(ms.size()),
         "ratio");
  r->Check(planner.failed_plans() == 0, "balance: ComputePlan calls");
}

void ReportController(const std::vector<albic::core::ControllerRound>& history,
                      const std::vector<double>& round_call_ms, Report* r) {
  double distance = 0.0, modeled_mig = 0.0, modeled_rec = 0.0;
  int64_t applied = 0, lease = 0, epoch = 0, indirect = 0, direct = 0;
  int64_t recovered = 0, replayed = 0, marked = 0, terminated = 0, added = 0;
  for (const auto& h : history) {
    distance += h.load_distance;
    applied += h.migrations_applied;
    lease += h.migrations_lease;
    epoch += h.migrations_epoch;
    indirect += h.migrations_indirect;
    direct += h.migrations_direct;
    modeled_mig += h.migration_pause_us / 1e3;
    modeled_rec += h.recovery_pause_us / 1e3;
    recovered += h.groups_recovered;
    replayed += h.tuples_replayed;
    marked += h.nodes_marked;
    terminated += h.nodes_terminated;
    added += h.nodes_added;
  }
  r->Set("core.rounds", static_cast<double>(history.size()), "count");
  r->Set("core.load_distance_mean",
         history.empty() ? 0.0 : distance / static_cast<double>(history.size()),
         "%");
  r->Set("core.round_call_ms_p50", Median(round_call_ms), "ms");
  r->Set("core.round_call_ms_p99", HighTail(round_call_ms).value, "ms");
  r->Set("migration.applied", static_cast<double>(applied), "count");
  r->Set("migration.lease", static_cast<double>(lease), "count");
  r->Set("migration.epoch", static_cast<double>(epoch), "count");
  r->Set("migration.indirect", static_cast<double>(indirect), "count");
  r->Set("migration.direct", static_cast<double>(direct), "count");
  r->Set("migration.modeled_pause_ms", modeled_mig, "ms");
  r->Set("recovery.groups_recovered", static_cast<double>(recovered),
         "count");
  r->Set("recovery.tuples_replayed", static_cast<double>(replayed), "count");
  r->Set("recovery.modeled_pause_ms", modeled_rec, "ms");
  r->Set("scaling.nodes_marked", static_cast<double>(marked), "count");
  r->Set("scaling.nodes_terminated", static_cast<double>(terminated),
         "count");
  r->Set("scaling.nodes_added", static_cast<double>(added), "count");
}

void ReportEngineRegistry(albic::engine::LocalEngine* eng,
                          albic::MetricsRegistry* registry, Report* r) {
  eng->HarvestPeriod();  // publishes the tail of the last period
  r->Set("engine.tuples_processed",
         static_cast<double>(
             registry->Counter("engine_tuples_processed_total")->value()),
         "count");
  r->Set("engine.waves",
         static_cast<double>(registry->Counter("engine_waves_total")->value()),
         "count");
  for (const char* phase : {"ingest", "service", "wave_barrier", "window",
                            "checkpoint", "migration", "recovery"}) {
    r->Set(std::string("engine.phase.") + phase + "_ms",
           static_cast<double>(registry
                                   ->Counter("engine_phase_ns_total",
                                             {{"phase", phase}})
                                   ->value()) /
               1e6,
           "ms");
  }
  double bytes = 0.0;
  for (const char* mode : {"direct", "indirect", "epoch", "lease"}) {
    bytes += static_cast<double>(
        registry->Counter("engine_migration_bytes_total", {{"mode", mode}})
            ->value());
  }
  r->Set("migration.bytes", bytes, "bytes");
}

void ReportEngineCalls(const EngineCalls& calls, int workers,
                       const std::vector<const TimedOperator*>& ops,
                       Report* r) {
  r->Set("engine.ingest_calls", static_cast<double>(calls.ingest_calls),
         "count");
  r->Set("engine.ingest_ms", static_cast<double>(calls.ingest_ns) / 1e6, "ms");
  r->Set("engine.flush_ms", static_cast<double>(calls.flush_ns) / 1e6, "ms");
  r->Set("engine.workers", workers, "count");
  double busy_ms = 0.0;
  for (const TimedOperator* op : ops) busy_ms += Ms(op->counters().busy_ns);
  const double drain_ms =
      static_cast<double>(calls.ingest_ns + calls.flush_ns) / 1e6;
  r->Set("engine.parallel_efficiency",
         drain_ms > 0 ? busy_ms / (workers * drain_ms) : 0.0, "ratio");
}

void ReportTrace(const Tracer& tracer, double untraced_tps, double traced_tps,
                 const std::string& path, Report* r) {
  r->Set("trace.overhead_pct",
         traced_tps > 0 ? (untraced_tps / traced_tps - 1.0) * 100.0 : 0.0,
         "%");
  r->Set("trace.spans", static_cast<double>(tracer.recorded()), "count");
  r->Set("trace.spans_dropped", static_cast<double>(tracer.dropped()),
         "count");
  for (const auto& [layer, ms] : tracer.SelfMsByLayer()) {
    r->Set("trace.self_ms." + layer, ms, "ms");
  }
  r->Check(tracer.WriteChrome(path), "trace: write Chrome trace " + path);
  r->Note("chrome trace: " + path);
}

}  // namespace perfbench
