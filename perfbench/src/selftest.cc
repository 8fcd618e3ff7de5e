// --selftest: checks the benchmark's own instruments.
//  1. Decorator transparency: at 1 worker, a run whose engine sees the
//     timing decorators (plus wave-phase profiling and registry publishing)
//     produces bit-identical outputs and period stats to an undecorated
//     run — wiki with delta checkpoints, a node failure and recovery;
//     airline with direct migrations.
//  2. Open-loop stall: one operator call stalls for a known time; the
//     stall must show in chunk_latency p99 and generator lag measured from
//     due time, while latency measured from send time would hide it.
//  3. Reference sensitivity: the output checks pass on clean runs and fail
//     once an output is perturbed.

#include <memory>
#include <vector>

#include "engine/checkpoint.h"
#include "wiki.h"
#include "workloads.h"
#include "workload/streams.h"

namespace perfbench {

using albic::engine::Tuple;
namespace engine = albic::engine;

bool SameStats(const engine::EnginePeriodStats& a,
               const engine::EnginePeriodStats& b) {
  if (a.group_work != b.group_work || a.node_work != b.node_work ||
      a.tuples_processed != b.tuples_processed ||
      a.tuples_buffered != b.tuples_buffered ||
      a.migration_pause_us != b.migration_pause_us ||
      a.checkpoints_taken != b.checkpoints_taken ||
      a.checkpoint_bytes != b.checkpoint_bytes ||
      a.tuples_replayed != b.tuples_replayed ||
      a.groups_recovered != b.groups_recovered ||
      a.epoch_transfer_bytes != b.epoch_transfer_bytes ||
      a.shard_ingested != b.shard_ingested || a.waves != b.waves ||
      a.mailbox_highwater != b.mailbox_highwater ||
      a.comm.num_groups() != b.comm.num_groups()) {
    return false;
  }
  for (int g = 0; g < a.comm.num_groups(); ++g) {
    const auto& ra = a.comm.row(g);
    const auto& rb = b.comm.row(g);
    if (ra.size() != rb.size()) return false;
    for (size_t i = 0; i < ra.size(); ++i) {
      if (ra[i].to != rb[i].to || ra[i].rate != rb[i].rate) return false;
    }
  }
  return true;
}

namespace {

std::vector<Tuple> SmallWikiStream(size_t n) {
  albic::workload::WikipediaEditStream edits(20000, 11, 2000.0);
  std::vector<Tuple> v;
  v.reserve(n);
  for (size_t i = 0; i < n; ++i) v.push_back(edits.Next());
  return v;
}

/// Wiki job with checkpointing on a memory store (decorated in the traced
/// variant); the decorators get the engine's change trackers.
struct CheckpointedWiki {
  WikiJob job;
  engine::MemoryCheckpointStore store;
  std::unique_ptr<TimedCheckpointStore> timed_store;
  std::unique_ptr<engine::CheckpointCoordinator> coordinator;
  bool ok = false;

  CheckpointedWiki(Tracer* tracer, bool traced) : job(1, tracer, traced) {
    engine::CheckpointStore* s = &store;
    if (traced) {
      timed_store = std::make_unique<TimedCheckpointStore>(s, tracer);
      s = timed_store.get();
    }
    engine::CheckpointCoordinatorOptions copts;
    copts.interval_us = 15LL * 1000 * 1000;
    copts.max_delta_chain = 4;
    coordinator = std::make_unique<engine::CheckpointCoordinator>(s, copts);
    ok = job.ok && job.engine->EnableCheckpointing(coordinator.get()).ok();
    for (auto& t : job.timed) t->ForwardChangeTrackers();
  }
  ~CheckpointedWiki() { job.engine.reset(); }
};

bool SameWikiOutputs(const WikiJob& a, const WikiJob& b) {
  for (int g = 0; g < 18; ++g) {
    if (a.geohash.processed(g) != b.geohash.processed(g) ||
        a.topk.SerializeGroupState(g) != b.topk.SerializeGroupState(g) ||
        a.global.SerializeGroupState(g) != b.global.SerializeGroupState(g)) {
      return false;
    }
  }
  return true;
}

void SelfTestWikiTransparency(Report* report) {
  Tracer off(false, 0);
  Tracer tracer(true, 100000);
  const ReplayStream stream(SmallWikiStream(400000));
  CheckpointedWiki plain(&off, false);
  CheckpointedWiki decorated(&tracer, true);
  report->Check(plain.ok && decorated.ok, "selftest wiki: setup");
  if (!plain.ok || !decorated.ok) return;
  constexpr int64_t kTuples = 600000;
  constexpr size_t kChunk = 8192;
  std::vector<Tuple> buf(kChunk);
  bool calls_ok = true;
  bool failed_over = false;
  for (int64_t first = 0; first < kTuples; first += kChunk) {
    const size_t n = static_cast<size_t>(
        std::min<int64_t>(kChunk, kTuples - first));
    stream.Fill(first, n, buf.data());
    for (CheckpointedWiki* w : {&plain, &decorated}) {
      tracer.SetChunk(first / kChunk, true);
      calls_ok &= w->job.engine->InjectBatch(0, buf.data(), n).ok();
      w->job.engine->Flush();
    }
    if (!failed_over && first >= kTuples / 2) {
      // The same node failure on both, recovered onto node 0 from
      // checkpoint + replay-log suffix.
      failed_over = true;
      for (CheckpointedWiki* w : {&plain, &decorated}) {
        calls_ok &= w->job.engine->FailNode(3).ok();
        calls_ok &= w->job.cluster.Fail(3).ok();
        const std::vector<engine::KeyGroupId> lost =
            w->job.engine->lost_groups();
        for (engine::KeyGroupId g : lost) {
          calls_ok &= w->job.engine->RecoverGroup(g, 0).ok();
        }
      }
    }
  }
  report->Check(calls_ok && failed_over, "selftest wiki: engine calls");
  const engine::EnginePeriodStats sa = plain.job.engine->HarvestPeriod();
  const engine::EnginePeriodStats sb = decorated.job.engine->HarvestPeriod();
  report->Check(sa.groups_recovered > 0 && sa.checkpoints_taken > 0,
                "selftest wiki: run exercised checkpoints and recovery");
  report->Check(SameStats(sa, sb),
                "selftest wiki: decorated period stats bit-identical");
  report->Check(SameWikiOutputs(plain.job, decorated.job),
                "selftest wiki: decorated outputs bit-identical");
  report->Check(decorated.timed_store->timed_delta_puts() > 0,
                "selftest wiki: delta checkpoints went through decorators");

  Report clean;
  CheckWikiOutputs(plain.job, stream, kTuples, &clean);
  report->Check(clean.failed() == 0 && clean.attempted() > 0,
                "selftest wiki: reference accepts the clean run");
  Tuple extra = stream.At(kTuples - 1);  // one edit the reference never saw
  report->Check(plain.job.engine->InjectBatch(0, &extra, 1).ok(),
                "selftest wiki: perturbing inject");
  plain.job.engine->Flush();
  Report perturbed(/*quiet=*/true);
  CheckWikiOutputs(plain.job, stream, kTuples, &perturbed);
  report->Check(perturbed.failed() > 0,
                "selftest wiki: reference rejects a perturbed output");
}

void SelfTestOpenLoopStall(Report* report) {
  constexpr double kStallMs = 100.0;
  constexpr size_t kChunk = 1024;
  constexpr double kRate = 1024.0 * 1000.0;  // one chunk due per ms
  Tracer off(false, 0);
  const ReplayStream stream(SmallWikiStream(400000));
  WikiJob job(1, &off, false);
  // Rebuild the engine with the geohash operator behind a one-shot stall
  // on its 300th batch.
  StallOnceOperator stall(&job.geohash, 300, kStallMs);
  engine::Assignment assign(job.topo.num_key_groups());
  for (engine::KeyGroupId g = 0; g < job.topo.num_key_groups(); ++g) {
    assign.set_node(g, g % 6);
  }
  engine::LocalEngineOptions eopts = job.engine->options();
  job.engine.reset();
  job.engine = std::make_unique<engine::LocalEngine>(
      &job.topo, &job.cluster, assign,
      std::vector<engine::StreamOperator*>{&stall, &job.topk, &job.global},
      eopts);
  std::vector<Tuple> buf(kChunk);
  const LoopResult r = RunLoop(
      1.0, kRate, kChunk, INT64_MAX,
      [&](int64_t first, size_t n) { stream.Fill(first, n, buf.data()); },
      [&](int64_t, int64_t, size_t n) {
        const bool ok = job.engine->InjectBatch(0, buf.data(), n).ok();
        job.engine->Flush();
        return ok;
      });
  const double p99 = HighTail(r.latency_ms).value;
  const double lag = HighTail(r.lag_ms).value;
  const double sent_p99 = HighTail(r.sent_latency_ms).value;
  report->Note("selftest stall " + std::to_string(kStallMs) +
               " ms: latency p99 from due " + std::to_string(p99) +
               " ms, generator lag p99 " + std::to_string(lag) +
               " ms, latency p99 from send " + std::to_string(sent_p99) +
               " ms, " + std::to_string(r.latency_ms.size()) + " chunks");
  report->Check(r.ok, "selftest stall: ingest calls");
  report->Check(p99 >= 0.8 * kStallMs,
                "selftest stall: stall shows in chunk latency p99");
  report->Check(lag >= 0.7 * kStallMs,
                "selftest stall: stall shows in generator lag p99");
  report->Check(sent_p99 < 0.5 * kStallMs,
                "selftest stall: latency from send time would hide it");
}

}  // namespace

void RunSelfTest(const Args&, Report* report) {
  SelfTestWikiTransparency(report);
  SelfTestAirline(report);
  SelfTestOpenLoopStall(report);
}

}  // namespace perfbench
