// airline_albic: Real Job 3 live on the engine. Flight records enter
// through an uncharged source, extract-delay keeps delayed flights keyed by
// airplane, sum-by-plane (one-to-one from extract, so collocatable) and
// sum-by-route (full partitioning, grouped on the route id) add delays up.
// The cluster starts over-provisioned (mean load below the scaling policy's
// scale-in threshold) with an adversarial assignment that collocates no
// one-to-one pair; core::Albic plans through the AdaptationFramework with
// the utilization scaling policy, one controller round per statistics
// period, telemetry off (planner loads are tuple counts). Balancing,
// collocation and scale-in have to be solved together.
//
// The engine partitions a full-partitioning edge on the tuple key, which
// extract leaves as the airplane; sum-by-route therefore holds per-group
// partial route sums, and the reference compares their total per route.

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "common/metrics_registry.h"
#include "core/adaptation_framework.h"
#include "core/albic.h"
#include "core/controller_loop.h"
#include "engine/load_model.h"
#include "engine/local_engine.h"
#include "ops/aggregate.h"
#include "ops/extract.h"
#include "scaling/scaling_policy.h"
#include "workloads.h"
#include "workload/streams.h"

namespace perfbench {

using albic::engine::Tuple;
namespace engine = albic::engine;

namespace {

constexpr int kNodes = 16;
constexpr int kGroups = 48;  // per operator
constexpr int kPlanes = 5000;
constexpr int kAirports = 30;
constexpr double kEventRate = 200.0;  // flights per event-time second
constexpr int64_t kTuplesPerPeriod = 100000;
constexpr int64_t kPeriodUs =
    static_cast<int64_t>(kTuplesPerPeriod / kEventRate * 1e6);
constexpr size_t kBaseTuples = 1000000;
constexpr size_t kChunk = 4096;
/// Runs last at least this many periods, so scale-in can finish and be
/// seen to stay finished however fast the machine is.
constexpr int64_t kMinPeriods = 40;
/// Periods the final node count must hold for scale-in to count as done.
constexpr int kSteadyPeriods = 10;
/// Work units per period: extract charges every flight, each sum about
/// 0.4 of them (the delayed share).
constexpr double kWorkPerPeriod = 1.8 * kTuplesPerPeriod;
/// Initial mean load (%), below the policy's 40% scale-in threshold.
constexpr double kInitialMeanLoad = 25.0;
constexpr int64_t kOpSampleEvery = 8;
constexpr size_t kMaxSpans = 400000;

std::vector<Tuple> GenerateFlights(uint64_t seed) {
  albic::workload::AirlineFlightStream flights(kPlanes, kAirports, seed,
                                               kEventRate);
  std::vector<Tuple> v;
  v.reserve(kBaseTuples);
  for (size_t i = 0; i < kBaseTuples; ++i) v.push_back(flights.Next());
  return v;
}

albic::core::AlbicOptions AlbicOpts(uint64_t seed) {
  albic::core::AlbicOptions o;
  o.milp.mode = albic::balance::MilpRebalancerOptions::Mode::kHeuristic;
  o.milp.time_budget_ms = 10;
  o.milp.seed = seed;
  o.seed = seed;
  return o;
}

struct AirlineJob {
  engine::Topology topo;
  engine::Cluster cluster{kNodes};
  albic::ops::DelayExtractOperator extract{kGroups};
  albic::ops::SumByKeyOperator sum_plane{kGroups, albic::ops::GroupField::kKey,
                                         /*emit_updates=*/false};
  albic::ops::SumByKeyOperator sum_route{kGroups, albic::ops::GroupField::kAux,
                                         /*emit_updates=*/false};
  std::vector<std::unique_ptr<TimedOperator>> timed;
  albic::MetricsRegistry registry;
  std::unique_ptr<engine::LocalEngine> engine;
  albic::core::Albic albic;
  TimedRebalancer planner;
  albic::scaling::UtilizationScalingPolicy policy;
  TimedScalingPolicy scaling;
  std::unique_ptr<albic::core::AdaptationFramework> framework;
  engine::LoadModel load_model{engine::CostModel{}};
  std::unique_ptr<albic::core::ControllerLoop> controller;
  bool ok = false;

  AirlineJob(uint64_t seed, Tracer* tracer, bool traced)
      : albic(AlbicOpts(seed)), planner(&albic, tracer),
        scaling(&policy, tracer) {
    const auto src = topo.AddOperator("flights", 1, 0, /*is_source=*/true);
    const auto ex = topo.AddOperator("extract-delay", kGroups, 1 << 16);
    const auto sp = topo.AddOperator("sum-delay-by-plane", kGroups, 1 << 16);
    const auto sr = topo.AddOperator("sum-delay-by-route", kGroups, 1 << 16);
    if (!topo.AddStream(src, ex, engine::PartitioningPattern::kFullPartitioning)
             .ok() ||
        !topo.AddStream(ex, sp, engine::PartitioningPattern::kOneToOne).ok() ||
        !topo.AddStream(ex, sr, engine::PartitioningPattern::kFullPartitioning)
             .ok()) {
      return;
    }
    // Adversarial start: no one-to-one pair shares a node.
    engine::Assignment assign(topo.num_key_groups());
    assign.set_node(topo.first_group(src), 0);
    for (int i = 0; i < kGroups; ++i) {
      assign.set_node(topo.first_group(ex) + i, i % kNodes);
      assign.set_node(topo.first_group(sp) + i, (i + kNodes / 2) % kNodes);
      assign.set_node(topo.first_group(sr) + i, (i + kNodes / 4) % kNodes);
    }
    std::vector<engine::StreamOperator*> ops{nullptr, &extract, &sum_plane,
                                             &sum_route};
    engine::LocalEngineOptions eopts;
    eopts.mode = engine::ExecutionMode::kBatched;
    eopts.num_workers = 1;
    eopts.max_batch_tuples = static_cast<int>(kChunk);
    eopts.serde_cost = 1.0;
    eopts.window_every_us = 0;
    if (traced) {
      timed.push_back(std::make_unique<TimedOperator>("extract", &extract,
                                                      kGroups, tracer));
      timed.push_back(std::make_unique<TimedOperator>("sum_plane", &sum_plane,
                                                      kGroups, tracer));
      timed.push_back(std::make_unique<TimedOperator>("sum_route", &sum_route,
                                                      kGroups, tracer));
      ops = {nullptr, timed[0].get(), timed[1].get(), timed[2].get()};
      eopts.profile_wave_phases = true;
      eopts.metrics = &registry;
    }
    engine = std::make_unique<engine::LocalEngine>(&topo, &cluster, assign,
                                                   ops, eopts);
    albic::core::AdaptationOptions aopts;
    aopts.constraints.max_migrations = 20;
    framework = std::make_unique<albic::core::AdaptationFramework>(
        &planner, &scaling, aopts);
    albic::core::ControllerLoopOptions lopts;
    lopts.period_every_us = kPeriodUs;
    lopts.node_capacity_work_units =
        kWorkPerPeriod * 100.0 / (kInitialMeanLoad * kNodes);
    lopts.use_comm = true;
    controller = std::make_unique<albic::core::ControllerLoop>(
        engine.get(), framework.get(), &load_model, &topo, &cluster, lopts);
    ok = true;
  }

};

ControllerRun DriveAirline(AirlineJob* job, const ReplayStream& stream,
                           double seconds, Tracer* tracer) {
  return DriveController(job->controller.get(), job->engine.get(), stream,
                         seconds, /*rate=*/0.0, kChunk,
                         kMinPeriods * kTuplesPerPeriod, kOpSampleEvery,
                         tracer, [](int64_t) {});
}

bool Close(double got, long double want) {
  const long double diff = std::fabs(static_cast<long double>(got) - want);
  return diff <= 1e-9L * std::fabs(want) + 1e-6L;
}

/// Checks per-group extraction counts, per-plane and per-route delay sums
/// against sums taken straight from the generated flights.
void CheckAirlineOutputs(const AirlineJob& job, const ReplayStream& stream,
                         int64_t injected, Report* report) {
  const int64_t b = static_cast<int64_t>(stream.base_size());
  const int64_t passes = injected / b, rem = injected % b;
  const int routes = kAirports * kAirports;
  std::vector<long double> plane(kPlanes, 0), route(routes, 0);
  std::vector<int64_t> extracted(kGroups, 0);
  bool in_range = true;
  for (int64_t i = 0; i < b; ++i) {
    const Tuple& t = stream.base()[static_cast<size_t>(i)];
    const int64_t times = passes + (i < rem ? 1 : 0);
    if (t.key >= static_cast<uint64_t>(kPlanes) ||
        t.aux >= static_cast<uint64_t>(routes)) {
      in_range = false;
      continue;
    }
    plane[t.key] += static_cast<long double>(t.num) * times;
    route[t.aux] += static_cast<long double>(t.num) * times;
    if (t.num != 0.0) {
      extracted[engine::LocalEngine::RouteKey(t.key, kGroups)] += times;
    }
  }
  report->Check(in_range, "airline: generated ids in range");
  bool ok = true;
  for (int g = 0; g < kGroups; ++g) {
    if (job.extract.extracted(g) != extracted[g]) ok = false;
  }
  report->Check(ok, "airline: extracted flights per group");
  ok = true;
  for (int p = 0; p < kPlanes; ++p) {
    const int g = engine::LocalEngine::RouteKey(static_cast<uint64_t>(p),
                                                kGroups);
    if (!Close(job.sum_plane.SumFor(g, static_cast<uint64_t>(p)), plane[p])) {
      ok = false;
    }
  }
  report->Check(ok, "airline: per-plane delay sums");
  ok = true;
  for (int r = 0; r < routes; ++r) {
    double total = 0.0;
    for (int g = 0; g < kGroups; ++g) {
      total += job.sum_route.SumFor(g, static_cast<uint64_t>(r));
    }
    if (!Close(total, route[r])) ok = false;
  }
  report->Check(ok, "airline: per-route delay sums");
}

/// Share of extract -> downstream traffic (latest measured period) whose
/// endpoints the final assignment places on one node.
double Collocation(const AirlineJob& job) {
  const engine::CommMatrix& comm = job.planner.last_comm();
  if (comm.num_groups() == 0) return 0.0;
  const engine::Assignment& a = job.engine->assignment();
  const engine::KeyGroupId first = job.topo.first_group(1);
  double local = 0.0, total = 0.0;
  for (engine::KeyGroupId g = first; g < first + kGroups; ++g) {
    for (const auto& e : comm.row(g)) {
      total += e.rate;
      if (a.node_of(g) == a.node_of(e.to)) local += e.rate;
    }
  }
  return total > 0 ? local / total : 0.0;
}

void ReportAirlineRun(const AirlineJob& job, const ControllerRun& run,
                      Report* report) {
  const auto& history = job.controller->history();
  ReportController(history, run.round_call_ms, report);
  ReportPlanner(job.planner, report);
  report->Set("scaling.decide_calls", static_cast<double>(job.scaling.calls()),
              "count");
  report->Set("scaling.decide_ms", job.scaling.decide_ms(), "ms");
  report->Set("balance.collocation_final", Collocation(job), "ratio");
  // Scale-in: the first period from which the node count holds at its
  // final value with nothing left marked.
  bool finished = false;
  if (!history.empty()) {
    const int final_nodes = history.back().active_nodes;
    size_t steady_from = history.size();
    while (steady_from > 0 &&
           history[steady_from - 1].active_nodes == final_nodes &&
           history[steady_from - 1].marked_nodes == 0) {
      --steady_from;
    }
    const size_t steady = history.size() - steady_from;
    finished = final_nodes < kNodes &&
               steady >= static_cast<size_t>(kSteadyPeriods);
    report->Set("scaling.scale_in_periods",
                static_cast<double>(steady_from + 1), "count");
    report->Note("airline_albic: " + std::to_string(kNodes) + " -> " +
                 std::to_string(final_nodes) + " nodes, steady for " +
                 std::to_string(steady) + " of " +
                 std::to_string(history.size()) + " periods");
  }
  report->Check(finished, "airline_albic: scale-in finished and held");
}

}  // namespace

void RunAirlineAlbic(const Args& args, Report* report) {
  Tracer off(false, 0);
  std::unique_ptr<ReplayStream> stream;
  std::unique_ptr<AirlineJob> job;
  TimeSetups(
      [&] {
        job.reset();
        stream.reset();
        stream = std::make_unique<ReplayStream>(GenerateFlights(args.seed));
        job = std::make_unique<AirlineJob>(args.seed, &off, false);
      },
      report);
  report->Check(job->ok, "airline_albic: setup");
  if (!job->ok) return;

  const double section = args.trace ? args.seconds / 2.0 : args.seconds;
  const ControllerRun untraced = DriveAirline(job.get(), *stream, section, &off);
  report->Check(untraced.loop.ok, "airline_albic: ingest calls");
  CheckAirlineOutputs(*job, *stream, untraced.loop.tuples, report);
  if (!args.trace) {
    ReportLoop(untraced.loop, report);
    ReportAirlineRun(*job, untraced, report);
    return;
  }
  const double untraced_tps = untraced.loop.tuples / untraced.loop.wall_s;

  Tracer tracer(true, kMaxSpans);
  job.reset();
  job = std::make_unique<AirlineJob>(args.seed, &tracer, true);
  const ControllerRun traced = DriveAirline(job.get(), *stream, section, &tracer);
  report->Check(traced.loop.ok, "airline_albic: traced ingest calls");
  CheckAirlineOutputs(*job, *stream, traced.loop.tuples, report);
  ReportLoop(traced.loop, report);
  ReportAirlineRun(*job, traced, report);
  ReportOps(TimedOps(job->timed), report);
  ReportEngineCalls(traced.calls, 1, TimedOps(job->timed), report);
  ReportEngineRegistry(job->engine.get(), &job->registry, report);
  ReportTrace(tracer, untraced_tps, traced.loop.tuples / traced.loop.wall_s,
              args.workdir + "/trace-airline_albic-" +
                  std::to_string(args.seed) + ".json",
              report);
}

void SelfTestAirline(Report* report) {
  Tracer off(false, 0);
  Tracer tracer(true, 100000);
  const ReplayStream stream(GenerateFlights(7));
  AirlineJob plain(7, &off, false);
  AirlineJob decorated(7, &tracer, true);
  report->Check(plain.ok && decorated.ok, "selftest airline: setup");
  if (!plain.ok || !decorated.ok) return;
  constexpr int64_t kTuples = 300000;
  std::vector<Tuple> buf(kChunk);
  bool calls_ok = true;
  int moves = 0;
  for (int64_t first = 0; first < kTuples; first += kChunk) {
    const size_t n = static_cast<size_t>(
        std::min<int64_t>(kChunk, kTuples - first));
    stream.Fill(first, n, buf.data());
    for (AirlineJob* job : {&plain, &decorated}) {
      tracer.SetChunk(first / kChunk, true);
      calls_ok &= job->engine->InjectBatch(0, buf.data(), n).ok();
      job->engine->Flush();
    }
    if ((first / kChunk) % 10 == 9) {
      // The same direct migration on both: serialize, move, restore.
      const engine::KeyGroupId g = 1 + (moves * 7) % (3 * kGroups);
      const engine::NodeId to = (plain.engine->assignment().node_of(g) + 1) %
                                kNodes;
      for (AirlineJob* job : {&plain, &decorated}) {
        calls_ok &= job->engine->MigrateGroup(g, to).ok();
      }
      ++moves;
    }
  }
  report->Check(calls_ok, "selftest airline: engine calls");
  report->Check(SameStats(plain.engine->HarvestPeriod(),
                          decorated.engine->HarvestPeriod()),
                "selftest airline: decorated period stats bit-identical");
  bool same = true;
  for (int g = 0; g < kGroups; ++g) {
    same &= plain.extract.extracted(g) == decorated.extract.extracted(g);
    same &= plain.sum_plane.SerializeGroupState(g) ==
            decorated.sum_plane.SerializeGroupState(g);
    same &= plain.sum_route.SerializeGroupState(g) ==
            decorated.sum_route.SerializeGroupState(g);
  }
  report->Check(same, "selftest airline: decorated outputs bit-identical");
  report->Check(decorated.timed[0]->counters().serialize_ns.load() > 0 ||
                    decorated.timed[1]->counters().serialize_ns.load() > 0 ||
                    decorated.timed[2]->counters().serialize_ns.load() > 0,
                "selftest airline: migrations serialized through decorators");

  Report clean;
  CheckAirlineOutputs(plain, stream, kTuples, &clean);
  report->Check(clean.failed() == 0 && clean.attempted() > 0,
                "selftest airline: reference accepts the clean run");
  // Perturb one output: one delayed flight the reference never saw.
  Tuple extra = stream.At(kTuples - 1);
  extra.num = 17.0;
  report->Check(plain.engine->InjectBatch(0, &extra, 1).ok(),
                "selftest airline: perturbing inject");
  plain.engine->Flush();
  Report perturbed(/*quiet=*/true);
  CheckAirlineOutputs(plain, stream, kTuples, &perturbed);
  report->Check(perturbed.failed() > 0,
                "selftest airline: reference rejects a perturbed output");
}

}  // namespace perfbench
