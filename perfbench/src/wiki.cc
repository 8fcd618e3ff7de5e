// Real Job 1 workloads: Wikipedia edits -> GeoHash -> per-cell windowed
// TopK -> global TopK (18 key groups per operator on 6 nodes).
//
//  wiki_replay  closed loop on the batched engine, no controller, no
//               checkpointing — engine and operator layers do nearly all
//               the work. One worker end to end; the traced run adds the
//               one-worker-per-core pool.
//  wiki_ft      the fault-tolerant deployment: 1 worker behind the
//               ControllerLoop (MILP heuristic planning, lease/epoch
//               migration), delta-chained checkpoints, an
//               article universe whose operator state outgrows L2, open
//               loop at a fixed offered rate, and nodes killed and replaced
//               at fixed stream offsets.

#include <algorithm>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "balance/milp_rebalancer.h"
#include "common/metrics_registry.h"
#include "core/adaptation_framework.h"
#include "core/controller_loop.h"
#include "engine/checkpoint.h"
#include "engine/load_model.h"
#include "engine/local_engine.h"
#include "ops/geohash.h"
#include "ops/topk.h"
#include "wiki.h"
#include "workloads.h"
#include "workload/streams.h"

namespace perfbench {

using albic::engine::Tuple;
namespace engine = albic::engine;

namespace {

constexpr int kNodes = 6;
constexpr int kGroups = 18;
constexpr int kTopK = 32;
constexpr int64_t kWindowUs = 60LL * 1000 * 1000;
/// Engine batch size and the chunk the generator sends.
constexpr size_t kChunk = 8192;
/// Operator spans are kept for one chunk in this many (trace size bound).
constexpr int64_t kOpSampleEvery = 16;
constexpr size_t kMaxSpans = 400000;

/// Input shape of a wiki workload.
struct WikiShape {
  int articles;
  double event_rate;   ///< Edits per event-time second (window = 60 s).
  size_t base_tuples;  ///< Pre-generated tuples, replayed as often as needed.
};
/// 20k articles: the per-window TopK state stays cache resident.
constexpr WikiShape kReplayShape{20000, 2000.0, 2000000};
/// 1M articles: a window's TopK counts (tens of thousands of distinct
/// articles, plus their dirty-key trackers) outgrow a core's L2.
constexpr WikiShape kFtShape{1000000, 2000.0, 2000000};

std::vector<Tuple> GenerateWiki(const WikiShape& shape, uint64_t seed) {
  albic::workload::WikipediaEditStream edits(shape.articles, seed,
                                             shape.event_rate);
  std::vector<Tuple> v;
  v.reserve(shape.base_tuples);
  for (size_t i = 0; i < shape.base_tuples; ++i) v.push_back(edits.Next());
  return v;
}

int Workers() {
  const unsigned hc = std::thread::hardware_concurrency();
  return static_cast<int>(std::clamp(hc, 1u, 4u));
}

}  // namespace

WikiJob::WikiJob(int workers, Tracer* tracer, bool traced)
    : geohash(kGroups, 1024),
      topk(kGroups, kTopK),
      global(kGroups, kTopK, albic::ops::TopKCountMode::kSumNum) {
  topo.AddOperator("geohash", kGroups, 1 << 16);
  topo.AddOperator("topk-1min", kGroups, 1 << 18);
  topo.AddOperator("global-topk", kGroups, 1 << 16);
  ok = topo.AddStream(0, 1, engine::PartitioningPattern::kFullPartitioning)
           .ok() &&
       topo.AddStream(1, 2, engine::PartitioningPattern::kFullPartitioning)
           .ok();
  engine::Assignment assign(topo.num_key_groups());
  for (engine::KeyGroupId g = 0; g < topo.num_key_groups(); ++g) {
    assign.set_node(g, g % kNodes);
  }
  std::vector<engine::StreamOperator*> ops{&geohash, &topk, &global};
  engine::LocalEngineOptions eopts;
  eopts.mode = engine::ExecutionMode::kBatched;
  eopts.num_workers = workers;
  eopts.max_batch_tuples = static_cast<int>(kChunk);
  eopts.serde_cost = 0.3;
  eopts.window_every_us = kWindowUs;
  if (traced) {
    timed.push_back(std::make_unique<TimedOperator>("geohash", &geohash,
                                                    kGroups, tracer));
    timed.push_back(
        std::make_unique<TimedOperator>("topk", &topk, kGroups, tracer));
    timed.push_back(std::make_unique<TimedOperator>("global_topk", &global,
                                                    kGroups, tracer));
    ops = {timed[0].get(), timed[1].get(), timed[2].get()};
    eopts.profile_wave_phases = true;
    eopts.metrics = &registry;
  }
  engine = std::make_unique<engine::LocalEngine>(&topo, &cluster, assign,
                                                 ops, eopts);
}

void CheckWikiOutputs(const WikiJob& job, const ReplayStream& stream,
                      int64_t injected, Report* report) {
  if (injected <= 0) {
    report->Check(false, "wiki: no tuples injected");
    return;
  }
  const auto route = [](uint64_t key) {
    return engine::LocalEngine::RouteKey(key, kGroups);
  };
  // 1. Lifetime GeoHash tuple counts per key group: every injected tuple
  //    is counted exactly once, kills and recoveries included.
  {
    const int64_t b = static_cast<int64_t>(stream.base_size());
    std::vector<int64_t> full(kGroups, 0), part(kGroups, 0);
    const int64_t rem = injected % b;
    for (int64_t i = 0; i < b; ++i) {
      const int g = route(stream.base()[static_cast<size_t>(i)].key);
      ++full[g];
      if (i < rem) ++part[g];
    }
    bool ok = true;
    for (int g = 0; g < kGroups; ++g) {
      const int64_t want = full[g] * (injected / b) + part[g];
      if (job.geohash.processed(g) != want) ok = false;
    }
    report->Check(ok, "wiki: geohash per-group tuple counts");
  }
  // Window w holds event times [t0 + w * W, t0 + (w + 1) * W).
  const int64_t t0 = stream.TsAt(0);
  const int64_t last = (stream.TsAt(injected - 1) - t0) / kWindowUs;
  const auto window_counts = [&](int64_t w) {
    std::unordered_map<uint64_t, int64_t> counts;
    const int64_t lo = stream.LowerBound(t0 + w * kWindowUs, injected);
    const int64_t hi = stream.LowerBound(t0 + (w + 1) * kWindowUs, injected);
    for (int64_t i = lo; i < hi; ++i) ++counts[stream.At(i).key];
    return counts;
  };
  // 2. The open window's per-group counts, exactly.
  {
    const auto counts = window_counts(last);
    std::vector<std::unordered_map<uint64_t, int64_t>> per(kGroups);
    for (const auto& [id, c] : counts) {
      per[route(job.geohash.CellFor(id))][id] = c;
    }
    bool ok = true;
    for (int g = 0; g < kGroups && ok; ++g) {
      const auto& live = job.topk.counts(g);
      if (live.size() != per[g].size()) {
        ok = false;
        break;
      }
      for (const auto& [id, c] : per[g]) {
        const int64_t* got = live.find(id);
        if (got == nullptr || *got != c) {
          ok = false;
          break;
        }
      }
    }
    report->Check(ok, "wiki: open-window top-k counts");
  }
  // 3. The global TopK of the last closed window in which each global
  //    group received summaries: per-cell-group TopK of the exact article
  //    counts, merged by article.
  if (last >= 1) {
    std::vector<bool> done(kGroups, false);
    int remaining = kGroups;
    bool ok = true;
    for (int64_t w = last - 1; w >= 0 && remaining > 0; --w) {
      const auto counts = window_counts(w);
      std::vector<std::vector<std::pair<uint64_t, int64_t>>> cell(kGroups);
      for (const auto& [id, c] : counts) {
        cell[route(job.geohash.CellFor(id))].emplace_back(id, c);
      }
      const auto rank = [](const auto& a, const auto& b) {
        return a.second != b.second ? a.second > b.second : a.first < b.first;
      };
      std::vector<std::vector<std::pair<uint64_t, int64_t>>> glob(kGroups);
      for (auto& v : cell) {
        const size_t keep = std::min<size_t>(kTopK, v.size());
        std::partial_sort(v.begin(), v.begin() + static_cast<long>(keep),
                          v.end(), rank);
        for (size_t i = 0; i < keep; ++i) glob[route(v[i].first)].push_back(v[i]);
      }
      for (int g = 0; g < kGroups; ++g) {
        if (done[g] || glob[g].empty()) continue;
        auto& v = glob[g];
        const size_t keep = std::min<size_t>(kTopK, v.size());
        std::partial_sort(v.begin(), v.begin() + static_cast<long>(keep),
                          v.end(), rank);
        v.resize(keep);
        if (v != job.global.last_window_top(g)) ok = false;
        done[g] = true;
        --remaining;
      }
    }
    for (int g = 0; g < kGroups; ++g) {
      if (!done[g] && !job.global.last_window_top(g).empty()) ok = false;
    }
    report->Check(ok, "wiki: last closed window global top-k");
  } else {
    report->Check(false, "wiki: run closed no window");
  }
}

namespace {

LoopResult DriveReplay(WikiJob* job, const ReplayStream& stream,
                       double seconds, Tracer* tracer, EngineCalls* calls) {
  std::vector<Tuple> buf(kChunk);
  return RunLoop(
      seconds, /*rate=*/0.0, kChunk, INT64_MAX,
      [&](int64_t first, size_t n) { stream.Fill(first, n, buf.data()); },
      [&](int64_t k, int64_t, size_t n) {
        tracer->SetChunk(k, k % kOpSampleEvery == 0);
        Tracer::Scope chunk(tracer, "chunk", "source");
        bool ok = false;
        {
          Tracer::Scope s(tracer, "engine.inject", "engine");
          const int64_t t0 = NowNs();
          ok = job->engine->InjectBatch(0, buf.data(), n).ok();
          calls->ingest_ns += NowNs() - t0;
          ++calls->ingest_calls;
        }
        Tracer::Scope s(tracer, "engine.flush", "engine");
        const int64_t t0 = NowNs();
        job->engine->Flush();
        calls->flush_ns += NowNs() - t0;
        return ok;
      });
}

}  // namespace

void RunWikiReplay(const Args& args, Report* report) {
  Tracer off(false, 0);
  std::unique_ptr<ReplayStream> stream;
  std::unique_ptr<WikiJob> job;
  TimeSetups(
      [&] {
        job.reset();
        stream.reset();
        stream = std::make_unique<ReplayStream>(
            GenerateWiki(kReplayShape, args.seed));
        job = std::make_unique<WikiJob>(1, &off, /*traced=*/false);
      },
      report);
  report->Check(job->ok, "wiki_replay: topology");

  // The end-to-end figures come from one worker: on a shared machine the
  // multi-worker pool's throughput swings with outside load far more than
  // any bound could absorb. The traced run measures the pool per layer.
  const double section = args.trace ? args.seconds / 3.0 : args.seconds;
  EngineCalls calls;
  const LoopResult one = DriveReplay(job.get(), *stream, section, &off, &calls);
  report->Check(one.ok, "wiki_replay: ingest calls");
  CheckWikiOutputs(*job, *stream, one.tuples, report);
  report->Set("engine.tps_1worker", one.tuples / one.wall_s, "1/s");
  if (!args.trace) {
    ReportLoop(one, report);
    return;
  }

  const int workers = Workers();
  job = std::make_unique<WikiJob>(workers, &off, /*traced=*/false);
  EngineCalls pool_calls;
  const LoopResult pool =
      DriveReplay(job.get(), *stream, section, &off, &pool_calls);
  report->Check(pool.ok, "wiki_replay: worker-pool ingest calls");
  CheckWikiOutputs(*job, *stream, pool.tuples, report);
  const double pool_tps = pool.tuples / pool.wall_s;
  report->Set("engine.tps_nworkers", pool_tps, "1/s");

  Tracer tracer(true, kMaxSpans);
  job = std::make_unique<WikiJob>(workers, &tracer, /*traced=*/true);
  EngineCalls traced_calls;
  const LoopResult traced =
      DriveReplay(job.get(), *stream, section, &tracer, &traced_calls);
  report->Check(traced.ok, "wiki_replay: traced ingest calls");
  CheckWikiOutputs(*job, *stream, traced.tuples, report);
  ReportLoop(traced, report);
  ReportOps(TimedOps(job->timed), report);
  ReportEngineCalls(traced_calls, workers, TimedOps(job->timed), report);
  ReportEngineRegistry(job->engine.get(), &job->registry, report);
  ReportTrace(tracer, pool_tps, traced.tuples / traced.wall_s,
              args.workdir + "/trace-wiki_replay-" +
                  std::to_string(args.seed) + ".json",
              report);
}

// ---------------------------------------------------------------------------
// wiki_ft

namespace {

constexpr int64_t kPeriodUs = 60LL * 1000 * 1000;
/// Four checkpoint rounds per window: a base after each window fire (the
/// TopK state resets), delta records chained onto it between fires.
constexpr int64_t kCheckpointUs = 15LL * 1000 * 1000;
/// Share of the planned stream after which a node is killed (and replaced).
constexpr double kKillAt[] = {0.2, 0.4, 0.6, 0.8};

/// Real Job 1 behind the controller, with delta-chained checkpoints.
///
/// The store is in memory. A FileCheckpointStore rewrites its MANIFEST in
/// place every round, and on ext4 that truncate-and-rewrite waits for a
/// flush (60-150 ms per round measured on the capture machine, following
/// the shared disk's load): every latency figure of the workload then
/// measured the disk's neighbours rather than the engine.
struct FtJob {
  WikiJob wiki;
  engine::MemoryCheckpointStore store;
  std::unique_ptr<TimedCheckpointStore> timed_store;
  std::unique_ptr<engine::CheckpointCoordinator> coordinator;
  albic::balance::MilpRebalancer milp;
  TimedRebalancer planner;
  std::unique_ptr<albic::core::AdaptationFramework> framework;
  engine::LoadModel load_model{engine::CostModel{}};
  std::unique_ptr<albic::core::ControllerLoop> controller;
  bool ok = false;

  static albic::balance::MilpRebalancerOptions MilpOptions(uint64_t seed) {
    albic::balance::MilpRebalancerOptions o;
    o.mode = albic::balance::MilpRebalancerOptions::Mode::kHeuristic;
    o.time_budget_ms = 10;
    o.seed = seed;
    return o;
  }

  FtJob(uint64_t seed, Tracer* tracer, bool traced)
      : wiki(1, tracer, traced), milp(MilpOptions(seed)),
        planner(&milp, tracer) {
    if (!wiki.ok) return;
    engine::CheckpointStore* s = &store;
    if (traced) {
      timed_store = std::make_unique<TimedCheckpointStore>(s, tracer);
      s = timed_store.get();
    }
    engine::CheckpointCoordinatorOptions copts;
    copts.interval_us = kCheckpointUs;
    copts.max_delta_chain = 4;
    coordinator = std::make_unique<engine::CheckpointCoordinator>(s, copts);
    if (!wiki.engine->EnableCheckpointing(coordinator.get()).ok()) return;
    for (auto& t : wiki.timed) t->ForwardChangeTrackers();

    albic::core::AdaptationOptions aopts;
    aopts.constraints.max_migrations = 4;
    framework = std::make_unique<albic::core::AdaptationFramework>(
        &planner, /*policy=*/nullptr, aopts);
    albic::core::ControllerLoopOptions lopts;
    lopts.period_every_us = kPeriodUs;
    // ~2 work units per edit (two charged hops): 50% mean load.
    const double per_period = kFtShape.event_rate * kPeriodUs / 1e6;
    lopts.node_capacity_work_units = 2.0 * per_period / kNodes / 0.5;
    lopts.use_lease_migration = true;
    lopts.use_epoch_migration = true;
    controller = std::make_unique<albic::core::ControllerLoop>(
        wiki.engine.get(), framework.get(), &load_model, &wiki.topo,
        &wiki.cluster, lopts);
    ok = true;
  }
  ~FtJob() {
    controller.reset();
    wiki.engine.reset();  // before the coordinator and store it points at
  }
};

struct FtRun {
  ControllerRun run;
  std::vector<double> kill_ms;
};

FtRun DriveFt(FtJob* job, const ReplayStream& stream, double seconds,
              double rate, Tracer* tracer, Report* report) {
  FtRun ft;
  std::vector<int64_t> kill_at;
  const int64_t start_ns = NowNs();
  for (double f : kKillAt) {
    kill_at.push_back(rate > 0 ? static_cast<int64_t>(f * rate * seconds)
                               : static_cast<int64_t>(f * seconds * 1e9));
  }
  size_t next_kill = 0;
  engine::LocalEngine* eng = job->wiki.engine.get();
  const auto kill = [&](int64_t id) {
    // The surviving node holding the most key groups.
    engine::NodeId victim = engine::kInvalidNode;
    int most = -1;
    for (engine::NodeId n : job->wiki.cluster.active_nodes()) {
      const int c = eng->assignment().count_on(n);
      if (c > most) {
        most = c;
        victim = n;
      }
    }
    tracer->SetChunk(id, true);
    Tracer::Scope span(tracer, "kill", "recovery");
    const int64_t t0 = NowNs();
    const bool ok = job->controller->KillNode(victim).ok();
    ft.kill_ms.push_back(static_cast<double>(NowNs() - t0) / 1e6);
    job->wiki.cluster.AddNode();
    report->Check(ok, "wiki_ft: KillNode");
  };
  ft.run = DriveController(
      job->controller.get(), eng, stream, seconds, rate, kChunk,
      /*min_tuples=*/0, kOpSampleEvery, tracer, [&](int64_t first) {
        while (next_kill < kill_at.size() &&
               (rate > 0 ? first : NowNs() - start_ns) >=
                   kill_at[next_kill]) {
          kill(1000000000LL + static_cast<int64_t>(next_kill));
          ++next_kill;
        }
      });
  report->Check(next_kill == kill_at.size(), "wiki_ft: all kills ran");
  return ft;
}

/// Controller-derived metrics (core.*, migration.*, recovery.*) and the
/// quality metrics shared by every run of wiki_ft.
void ReportFtRun(const FtJob& job, const FtRun& ft, Report* report) {
  const ControllerRun& run = ft.run;
  ReportController(job.controller->history(), run.round_call_ms, report);
  report->Set("recovery.kills", static_cast<double>(ft.kill_ms.size()),
              "count");
  report->Set("recovery.wall_ms", Median(ft.kill_ms), "ms");
  const auto& cs = job.coordinator->stats();
  report->Set("checkpoint.rounds", cs.rounds, "count");
  report->Set("checkpoint.round_ms", cs.round_wall_us / 1e3, "ms");
  double suffix = 0.0;
  for (double b : job.wiki.engine->ReplaySuffixBytes()) suffix += std::max(b, 0.0);
  report->Set("checkpoint.replay_suffix_bytes", suffix, "bytes");
  ReportPlanner(job.planner, report);
  const double wall_ms = run.loop.wall_s * 1e3;
  const double busy_ms =
      static_cast<double>(run.calls.ingest_ns + run.calls.flush_ns) / 1e6;
  report->Note("wiki_ft: of " + std::to_string(wall_ms) +
               " ms timed wall, ingest calls were busy " +
               std::to_string(busy_ms) + " ms; planner " +
               std::to_string(report->Get("balance.plan_ms_total")) +
               " ms, checkpoint rounds " +
               std::to_string(cs.round_wall_us / 1e3) + " ms");
  report->Note("wiki_ft: recovery_ms (median KillNode wall) = " +
               std::to_string(Median(ft.kill_ms)) +
               " ms measured; modeled recovery pause total = " +
               std::to_string(report->Get("recovery.modeled_pause_ms")) +
               " ms");
}

}  // namespace

void RunWikiFt(const Args& args, Report* report) {
  Tracer off(false, 0);
  std::unique_ptr<ReplayStream> stream;
  std::unique_ptr<FtJob> job;
  TimeSetups(
      [&] {
        job.reset();
        stream.reset();
        stream =
            std::make_unique<ReplayStream>(GenerateWiki(kFtShape, args.seed));
        job = std::make_unique<FtJob>(args.seed, &off, false);
      },
      report);
  report->Check(job->ok, "wiki_ft: setup");
  if (!job->ok) return;
  report->Set("source.offered_tps", args.offered_rate, "1/s");

  const double section = args.trace ? args.seconds / 2.0 : args.seconds;
  const FtRun untraced = DriveFt(job.get(), *stream, section,
                                 args.offered_rate, &off, report);
  report->Check(untraced.run.loop.ok, "wiki_ft: ingest calls");
  job->wiki.engine->Flush();
  CheckWikiOutputs(job->wiki, *stream, untraced.run.loop.tuples, report);
  if (!args.trace) {
    ReportLoop(untraced.run.loop, report);
    ReportFtRun(*job, untraced, report);
    return;
  }
  const double untraced_tps = untraced.run.loop.tuples / untraced.run.loop.wall_s;

  Tracer tracer(true, kMaxSpans);
  job.reset();
  job = std::make_unique<FtJob>(args.seed, &tracer, true);
  report->Check(job->ok, "wiki_ft: traced setup");
  if (!job->ok) return;
  const FtRun traced = DriveFt(job.get(), *stream, section, args.offered_rate,
                               &tracer, report);
  report->Check(traced.run.loop.ok, "wiki_ft: traced ingest calls");
  job->wiki.engine->Flush();
  CheckWikiOutputs(job->wiki, *stream, traced.run.loop.tuples, report);
  ReportLoop(traced.run.loop, report);
  ReportFtRun(*job, traced, report);
  ReportOps(TimedOps(job->wiki.timed), report);
  ReportEngineCalls(traced.run.calls, 1, TimedOps(job->wiki.timed), report);
  ReportEngineRegistry(job->wiki.engine.get(), &job->wiki.registry, report);
  report->Set("checkpoint.puts", job->timed_store->timed_puts(), "count");
  report->Set("checkpoint.delta_puts", job->timed_store->timed_delta_puts(),
              "count");
  report->Set("checkpoint.put_ms", job->timed_store->put_ms(), "ms");
  report->Set("checkpoint.bytes", job->timed_store->timed_bytes(), "bytes");
  report->Set("checkpoint.read_ms", job->timed_store->read_ms(), "ms");
  ReportTrace(tracer, untraced_tps, traced.run.loop.tuples / traced.run.loop.wall_s,
              args.workdir + "/trace-wiki_ft-" + std::to_string(args.seed) +
                  ".json",
              report);
}

}  // namespace perfbench
