// Migration-mode equivalence matrix: one parameterized suite asserting
// that direct, indirect, epoch and lease migrations produce identical
// final outputs (canonical state, windowed results, tuple counts — and all
// of them identical to a no-migration baseline) across state sizes (empty
// group, single key, a large FlatMap64 through several doublings) and edge
// timings (migration started mid-window with in-flight traffic,
// back-to-back migrations of the same group, target equal to source).
// Plus the mode-request contracts: kIndirect and kEpoch without
// checkpointing fall back to direct, kLease without checkpointing still
// flips (the arena lease needs no checkpoint subsystem), a failed epoch
// restore is reported by its own group's Finish, a group already
// mid-migration rejects a second StartMigration, and a lease flip racing a
// node kill loses no tuples on either side of the stamp.

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/metrics_registry.h"
#include "engine/checkpoint.h"
#include "engine/local_engine.h"
#include "ops/store.h"
#include "tests/engine/reconfig_harness.h"

namespace albic {
namespace {

using engine::KeyGroupId;
using engine::MigrationMode;
using engine::NodeId;
using engine::Tuple;
using testing::MakeWikiStream;
using testing::ReconfigOptions;
using testing::ReconfigPipeline;

// ---------------------------------------------------------------------------
// State-size axis: a null fan-out source feeding a StoreSink, so the
// migrated group's state is exactly the keys the scenario routes to it.
// ---------------------------------------------------------------------------

constexpr int kStoreGroups = 4;
constexpr int kStoreNodes = 3;

struct StoreScenario {
  const char* name;
  int distinct_keys;  ///< Keys routed into the migrated group.
};

struct StorePipeline {
  engine::Topology topo;
  engine::Cluster cluster{kStoreNodes};
  ops::StoreSinkOperator sink{kStoreGroups};
  engine::MemoryCheckpointStore cstore;
  std::unique_ptr<engine::CheckpointCoordinator> coordinator;
  std::unique_ptr<engine::LocalEngine> engine;

  StorePipeline() {
    topo.AddOperator("src", 1);
    topo.AddOperator("store", kStoreGroups, 1 << 14);
    EXPECT_TRUE(
        topo.AddStream(0, 1, engine::PartitioningPattern::kFullPartitioning)
            .ok());
    engine::Assignment assign(topo.num_key_groups());
    for (KeyGroupId g = 0; g < topo.num_key_groups(); ++g) {
      assign.set_node(g, g % kStoreNodes);
    }
    engine::LocalEngineOptions opts;
    opts.window_every_us = 0;
    engine = std::make_unique<engine::LocalEngine>(
        &topo, &cluster, assign,
        std::vector<engine::StreamOperator*>{nullptr, &sink}, opts);
    engine::CheckpointCoordinatorOptions copts;
    copts.interval_us = 1LL << 60;  // paced manually by the scenario
    copts.max_delta_chain = 3;
    coordinator =
        std::make_unique<engine::CheckpointCoordinator>(&cstore, copts);
    EXPECT_TRUE(engine->EnableCheckpointing(coordinator.get()).ok());
  }

  std::vector<std::string> SinkStates() const {
    std::vector<std::string> out;
    for (int g = 0; g < kStoreGroups; ++g) {
      out.push_back(sink.SerializeGroupState(g));
    }
    return out;
  }
};

/// Keys of the store operator's group \p group, enough to fill the
/// scenario's distinct-key budget; values make every upsert visible.
std::vector<Tuple> KeysFor(int group, int distinct) {
  std::vector<Tuple> out;
  int64_t ts = 0;
  for (uint64_t k = 0; out.size() < static_cast<size_t>(distinct); ++k) {
    if (engine::LocalEngine::RouteKey(k, kStoreGroups) != group) continue;
    Tuple t;
    t.key = k;
    t.num = static_cast<double>(k % 97) + 0.5;
    t.ts = ts += 1000;
    out.push_back(t);
  }
  return out;
}

struct StoreRunResult {
  std::vector<std::string> states;
  int64_t processed = 0;
  int64_t buffered = 0;
};

/// One run: half the keys, checkpoint, migrate (or not), the other half
/// mid-migration when the scenario keeps the move open, then finish.
StoreRunResult RunStoreScenario(const StoreScenario& scenario,
                                bool migrate, MigrationMode mode) {
  StorePipeline p;
  const KeyGroupId group = p.topo.first_group(1);  // store group 0
  const std::vector<Tuple> keys = KeysFor(0, scenario.distinct_keys);
  const size_t half = keys.size() / 2;
  if (half > 0) {
    EXPECT_TRUE(p.engine->InjectBatch(0, keys.data(), half).ok());
    p.engine->Flush();
  }
  EXPECT_TRUE(p.coordinator->CheckpointNow(p.engine.get()).ok());
  if (migrate) {
    const NodeId to = (p.engine->assignment().node_of(group) + 1) %
                      kStoreNodes;
    EXPECT_TRUE(p.engine->StartMigration(group, to, mode).ok());
    if (keys.size() > half) {
      // In-flight traffic between Start and Finish: buffered for direct
      // and indirect, processed live for epoch — same final state either
      // way.
      EXPECT_TRUE(
          p.engine->InjectBatch(0, keys.data() + half, keys.size() - half)
              .ok());
      p.engine->Flush();
    }
    const auto pause = p.engine->FinishMigration(group);
    EXPECT_TRUE(pause.ok()) << pause.status().ToString();
    EXPECT_EQ(p.engine->assignment().node_of(group), to);
  } else if (keys.size() > half) {
    EXPECT_TRUE(
        p.engine->InjectBatch(0, keys.data() + half, keys.size() - half)
            .ok());
  }
  p.engine->Flush();
  StoreRunResult out;
  out.states = p.SinkStates();
  const engine::EnginePeriodStats stats = p.engine->HarvestPeriod();
  out.processed = stats.tuples_processed;
  out.buffered = stats.tuples_buffered;
  return out;
}

class MigrationMatrixTest : public ::testing::TestWithParam<StoreScenario> {};

TEST_P(MigrationMatrixTest, AllModesMatchTheUnmigratedBaseline) {
  const StoreScenario& scenario = GetParam();
  const StoreRunResult baseline =
      RunStoreScenario(scenario, /*migrate=*/false, MigrationMode::kDirect);
  for (const MigrationMode mode :
       {MigrationMode::kDirect, MigrationMode::kIndirect,
        MigrationMode::kEpoch, MigrationMode::kLease}) {
    const StoreRunResult run = RunStoreScenario(scenario, /*migrate=*/true,
                                                mode);
    EXPECT_EQ(run.states, baseline.states)
        << scenario.name << ": mode " << static_cast<int>(mode)
        << " diverged from the unmigrated baseline";
    EXPECT_EQ(run.processed, baseline.processed)
        << scenario.name << ": mode " << static_cast<int>(mode)
        << " lost or duplicated tuples";
    if (!engine::MigrationBuffers(mode)) {
      EXPECT_EQ(run.buffered, 0)
          << scenario.name << ": an epoch/lease migration buffered tuples";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    StateSizes, MigrationMatrixTest,
    ::testing::Values(StoreScenario{"empty_group", 0},
                      StoreScenario{"single_key", 1},
                      StoreScenario{"large_state", 3000}),
    [](const ::testing::TestParamInfo<StoreScenario>& info) {
      return info.param.name;
    });

// ---------------------------------------------------------------------------
// Edge-timing axis, on the windowed wiki pipeline.
// ---------------------------------------------------------------------------

struct WikiRunResult {
  std::vector<std::string> states;
  std::map<uint64_t, int64_t> counts;
  int64_t processed = 0;
};

enum class Timing { kNone, kMidWindow, kBackToBack, kSelfTarget };

WikiRunResult RunWikiScenario(Timing timing, MigrationMode mode) {
  ReconfigOptions opts;  // 4 nodes, 8 groups per op, 500 ms windows
  ReconfigPipeline p(opts);
  engine::CheckpointCoordinatorOptions copts;
  copts.interval_us = 700LL * 1000;
  copts.max_delta_chain = 4;
  p.EnableCheckpointing(copts);
  const std::vector<Tuple> stream = MakeWikiStream(4000);
  // Split inside a window, and find where that window ends: the in-flight
  // slice [split, window_end) shares the open migration's window, so no
  // window can close over tuples a direct or indirect move has buffered.
  // The engine anchors window boundaries at the first tuple's ts, so the
  // window index of a tuple is (ts - anchor) / every, not an absolute
  // bucket.
  const size_t split = stream.size() / 2;
  const int64_t anchor = stream[0].ts;
  size_t window_end = split;
  while (window_end < stream.size() &&
         (stream[window_end].ts - anchor) / opts.window_every_us ==
             (stream[split].ts - anchor) / opts.window_every_us) {
    ++window_end;
  }
  EXPECT_TRUE(p.engine->InjectBatch(0, stream.data(), split).ok());
  p.engine->Flush();
  const KeyGroupId group = p.topo.first_group(1);  // first top-k group
  const NodeId from = p.engine->assignment().node_of(group);
  switch (timing) {
    case Timing::kNone:
      break;
    case Timing::kMidWindow: {
      // Started mid-window, with the rest of the window's traffic landing
      // between Start and Finish.
      EXPECT_TRUE(
          p.engine->StartMigration(group, (from + 1) % opts.nodes, mode)
              .ok());
      break;
    }
    case Timing::kBackToBack: {
      // Two complete migrations of the same group, one right after the
      // other (the second starts from the first one's target).
      EXPECT_TRUE(
          p.engine->MigrateGroup(group, (from + 1) % opts.nodes, mode).ok());
      EXPECT_TRUE(
          p.engine->MigrateGroup(group, (from + 2) % opts.nodes, mode).ok());
      break;
    }
    case Timing::kSelfTarget: {
      // Target equal to source is rejected for every mode, and the
      // rejection must leave the pipeline untouched.
      const Status s = p.engine->StartMigration(group, from, mode);
      EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << s.ToString();
      break;
    }
  }
  if (timing == Timing::kMidWindow) {
    // The rest of the split window lands between Start and Finish.
    EXPECT_TRUE(
        p.engine->InjectBatch(0, stream.data() + split, window_end - split)
            .ok());
    p.engine->Flush();
    const auto pause = p.engine->FinishMigration(group);
    EXPECT_TRUE(pause.ok()) << pause.status().ToString();
    EXPECT_TRUE(p.engine
                    ->InjectBatch(0, stream.data() + window_end,
                                  stream.size() - window_end)
                    .ok());
  } else {
    EXPECT_TRUE(
        p.engine->InjectBatch(0, stream.data() + split, stream.size() - split)
            .ok());
  }
  p.engine->Flush();
  WikiRunResult out;
  out.states = p.AllStates();
  out.counts = p.GlobalCounts();
  out.processed = p.engine->HarvestPeriod().tuples_processed;
  return out;
}

class MigrationTimingTest : public ::testing::TestWithParam<Timing> {};

TEST_P(MigrationTimingTest, AllModesMatchTheUnmigratedBaseline) {
  const Timing timing = GetParam();
  const WikiRunResult baseline =
      RunWikiScenario(Timing::kNone, MigrationMode::kDirect);
  for (const MigrationMode mode :
       {MigrationMode::kDirect, MigrationMode::kIndirect,
        MigrationMode::kEpoch, MigrationMode::kLease}) {
    const WikiRunResult run = RunWikiScenario(timing, mode);
    EXPECT_EQ(run.states, baseline.states)
        << "mode " << static_cast<int>(mode) << " diverged";
    EXPECT_EQ(run.counts, baseline.counts)
        << "mode " << static_cast<int>(mode) << " windowed output diverged";
    EXPECT_EQ(run.processed, baseline.processed)
        << "mode " << static_cast<int>(mode) << " lost or duplicated tuples";
  }
}

INSTANTIATE_TEST_SUITE_P(
    EdgeTimings, MigrationTimingTest,
    ::testing::Values(Timing::kMidWindow, Timing::kBackToBack,
                      Timing::kSelfTarget),
    [](const ::testing::TestParamInfo<Timing>& info) {
      switch (info.param) {
        case Timing::kMidWindow:
          return "mid_window";
        case Timing::kBackToBack:
          return "back_to_back";
        case Timing::kSelfTarget:
          return "target_equals_source";
        default:
          return "none";
      }
    });

// ---------------------------------------------------------------------------
// Mode-request contracts: fallback and rejection.
// ---------------------------------------------------------------------------

class CheckpointlessFallbackTest
    : public ::testing::TestWithParam<MigrationMode> {};

TEST_P(CheckpointlessFallbackTest, FallsBackToDirect) {
  // No EnableCheckpointing: a kIndirect or kEpoch request degrades to
  // kDirect — there is no chain to restore, so the move still happens, with
  // direct-mode semantics (tuples buffer, the pause is O(state)) rather
  // than an error, and it counts as a direct migration.
  engine::Topology topo;
  topo.AddOperator("src", 1);
  topo.AddOperator("store", kStoreGroups, 1 << 14);
  ASSERT_TRUE(
      topo.AddStream(0, 1, engine::PartitioningPattern::kFullPartitioning)
          .ok());
  engine::Cluster cluster(kStoreNodes);
  engine::Assignment assign(topo.num_key_groups());
  for (KeyGroupId g = 0; g < topo.num_key_groups(); ++g) {
    assign.set_node(g, g % kStoreNodes);
  }
  ops::StoreSinkOperator sink(kStoreGroups);
  MetricsRegistry registry;
  engine::LocalEngineOptions opts;
  opts.window_every_us = 0;
  opts.metrics = &registry;
  engine::LocalEngine engine(
      &topo, &cluster, assign,
      std::vector<engine::StreamOperator*>{nullptr, &sink}, opts);

  const std::vector<Tuple> keys = KeysFor(0, 33);
  ASSERT_TRUE(engine.InjectBatch(0, keys.data(), 32).ok());
  engine.Flush();
  const KeyGroupId group = topo.first_group(1);
  const NodeId to = (engine.assignment().node_of(group) + 1) % kStoreNodes;

  // Accepted, with direct semantics: the in-flight tuple buffers (an epoch
  // move would process it live) and the pause is the O(state) round-trip,
  // not zero (an indirect move would pay only its suffix).
  ASSERT_TRUE(engine.StartMigration(group, to, GetParam()).ok());
  ASSERT_TRUE(engine.InjectBatch(0, &keys[32], 1).ok());
  engine.Flush();
  EXPECT_EQ(sink.ValueFor(0, keys[32].key), 0.0);  // buffered, not applied
  const double state_bytes =
      static_cast<double>(sink.SerializeGroupState(0).size());
  const auto pause = engine.FinishMigration(group);
  ASSERT_TRUE(pause.ok()) << pause.status().ToString();
  EXPECT_DOUBLE_EQ(*pause, engine::kEnginePauseUsPerByte * state_bytes)
      << "fallback must pay the direct O(state) pause";
  EXPECT_EQ(sink.ValueFor(0, keys[32].key), keys[32].num);  // drained
  EXPECT_EQ(engine.assignment().node_of(group), to);
  const engine::EnginePeriodStats stats = engine.HarvestPeriod();
  EXPECT_EQ(stats.tuples_buffered, 1);
  EXPECT_EQ(registry.Counter("engine_migrations_total", {{"mode", "direct"}})
                ->value(),
            1);
  for (const char* other : {"indirect", "epoch", "lease"}) {
    EXPECT_EQ(
        registry.Counter("engine_migrations_total", {{"mode", other}})
            ->value(),
        0)
        << other;
  }
}

INSTANTIATE_TEST_SUITE_P(
    WithoutCheckpointing, CheckpointlessFallbackTest,
    ::testing::Values(MigrationMode::kIndirect, MigrationMode::kEpoch),
    [](const ::testing::TestParamInfo<MigrationMode>& info) {
      return info.param == MigrationMode::kIndirect ? "indirect" : "epoch";
    });

/// A store sink whose restores fail for one group.
class RestoreFailingSink : public ops::StoreSinkOperator {
 public:
  RestoreFailingSink(int groups, int broken_group)
      : ops::StoreSinkOperator(groups), broken_group_(broken_group) {}
  Status DeserializeGroupState(int group_index,
                               const std::string& data) override {
    if (group_index == broken_group_) {
      return Status::Internal("injected restore failure");
    }
    return ops::StoreSinkOperator::DeserializeGroupState(group_index, data);
  }

 private:
  int broken_group_;
};

TEST(MigrationModeContractTest, EpochRestoreErrorIsReportedAgainstItsGroup) {
  // One stamp pass restores two epoch groups; the second group's restore
  // fails. The healthy group's Finish (called first) must succeed and the
  // broken group's Finish must return the error — each group's own outcome,
  // whichever order the caller finishes them in.
  engine::Topology topo;
  topo.AddOperator("src", 1);
  topo.AddOperator("store", kStoreGroups, 1 << 14);
  ASSERT_TRUE(
      topo.AddStream(0, 1, engine::PartitioningPattern::kFullPartitioning)
          .ok());
  engine::Cluster cluster(kStoreNodes);
  engine::Assignment assign(topo.num_key_groups());
  for (KeyGroupId g = 0; g < topo.num_key_groups(); ++g) {
    assign.set_node(g, g % kStoreNodes);
  }
  RestoreFailingSink sink(kStoreGroups, /*broken_group=*/1);
  engine::LocalEngineOptions opts;
  opts.window_every_us = 0;
  engine::LocalEngine engine(
      &topo, &cluster, assign,
      std::vector<engine::StreamOperator*>{nullptr, &sink}, opts);
  engine::MemoryCheckpointStore cstore;
  engine::CheckpointCoordinatorOptions copts;
  copts.interval_us = 1LL << 60;
  engine::CheckpointCoordinator coordinator(&cstore, copts);
  ASSERT_TRUE(engine.EnableCheckpointing(&coordinator).ok());

  const KeyGroupId healthy = topo.first_group(1);
  const KeyGroupId broken = topo.first_group(1) + 1;
  for (const KeyGroupId g : {healthy, broken}) {
    const NodeId to = (engine.assignment().node_of(g) + 1) % kStoreNodes;
    ASSERT_TRUE(engine.StartMigration(g, to, MigrationMode::kEpoch).ok());
  }
  const auto healthy_pause = engine.FinishMigration(healthy);
  EXPECT_TRUE(healthy_pause.ok()) << healthy_pause.status().ToString();
  const auto broken_pause = engine.FinishMigration(broken);
  ASSERT_FALSE(broken_pause.ok());
  EXPECT_EQ(broken_pause.status().code(), StatusCode::kInternal)
      << broken_pause.status().ToString();
}

TEST(MigrationModeContractTest, LeaseWithoutCheckpointingStillFlips) {
  // Unlike kEpoch and kIndirect (both degrade to direct), a kLease request
  // needs no checkpoint subsystem at all: the state slot never
  // moves, so there is nothing to transfer and nothing to replay. The
  // in-flight tuple processes LIVE at whichever owner the routing names,
  // and the accounted pause is exactly zero.
  engine::Topology topo;
  topo.AddOperator("src", 1);
  topo.AddOperator("store", kStoreGroups, 1 << 14);
  ASSERT_TRUE(
      topo.AddStream(0, 1, engine::PartitioningPattern::kFullPartitioning)
          .ok());
  engine::Cluster cluster(kStoreNodes);
  engine::Assignment assign(topo.num_key_groups());
  for (KeyGroupId g = 0; g < topo.num_key_groups(); ++g) {
    assign.set_node(g, g % kStoreNodes);
  }
  ops::StoreSinkOperator sink(kStoreGroups);
  engine::LocalEngineOptions opts;
  opts.window_every_us = 0;
  engine::LocalEngine engine(
      &topo, &cluster, assign,
      std::vector<engine::StreamOperator*>{nullptr, &sink}, opts);

  const std::vector<Tuple> keys = KeysFor(0, 33);
  ASSERT_TRUE(engine.InjectBatch(0, keys.data(), 32).ok());
  engine.Flush();
  const KeyGroupId group = topo.first_group(1);
  const NodeId to = (engine.assignment().node_of(group) + 1) % kStoreNodes;

  ASSERT_TRUE(engine.StartMigration(group, to, MigrationMode::kLease).ok());
  ASSERT_TRUE(engine.InjectBatch(0, &keys[32], 1).ok());
  engine.Flush();
  EXPECT_EQ(sink.ValueFor(0, keys[32].key), keys[32].num)
      << "a lease move must process in-flight tuples live, not buffer them";
  const auto pause = engine.FinishMigration(group);
  ASSERT_TRUE(pause.ok()) << pause.status().ToString();
  EXPECT_EQ(*pause, 0.0) << "a lease flip moves nothing, pauses for nothing";
  EXPECT_EQ(engine.assignment().node_of(group), to);
  const engine::EnginePeriodStats stats = engine.HarvestPeriod();
  EXPECT_EQ(stats.tuples_buffered, 0);
  EXPECT_EQ(stats.tuples_processed, 33);
}

TEST(MigrationModeContractTest, LeaseTowardDyingNodeIsCancelledLossFree) {
  // A lease flip racing a kill of its TARGET: the stamp never happened, so
  // the lease table still names the source — FailNode cancels the pending
  // move and the group keeps processing where it is, losing nothing.
  const StoreScenario scenario{"single_owner", 48};
  const StoreRunResult baseline =
      RunStoreScenario(scenario, /*migrate=*/false, MigrationMode::kDirect);

  StorePipeline p;
  const KeyGroupId group = p.topo.first_group(1);  // store group 0
  const std::vector<Tuple> keys = KeysFor(0, scenario.distinct_keys);
  const size_t half = keys.size() / 2;
  ASSERT_TRUE(p.engine->InjectBatch(0, keys.data(), half).ok());
  p.engine->Flush();
  ASSERT_TRUE(p.coordinator->CheckpointNow(p.engine.get()).ok());

  const NodeId from = p.engine->assignment().node_of(group);
  const NodeId to = (from + 1) % kStoreNodes;
  ASSERT_TRUE(p.engine->StartMigration(group, to, MigrationMode::kLease).ok());
  // No wave barrier between Start and the kill: the flip is still pending.
  ASSERT_TRUE(p.engine->FailNode(to).ok());
  EXPECT_EQ(p.engine->assignment().node_of(group), from)
      << "a cancelled lease flip must leave ownership untouched";
  ASSERT_TRUE(
      p.engine->InjectBatch(0, keys.data() + half, keys.size() - half).ok());
  p.engine->Flush();
  // Groups that died WITH the node recover normally (checkpoint + replay);
  // the leased group is not among them.
  for (const KeyGroupId lost : p.engine->lost_groups()) {
    EXPECT_NE(lost, group);
    ASSERT_TRUE(p.engine->RecoverGroup(lost, from).ok());
  }
  p.engine->Flush();
  EXPECT_EQ(p.SinkStates(), baseline.states);
  EXPECT_EQ(p.engine->HarvestPeriod().tuples_processed, baseline.processed);
}

TEST(MigrationModeContractTest, LeasedGroupDyingWithNodeRecoversLossFree) {
  // A lease flip whose stamp ALREADY happened, followed by a kill of the
  // new owner: the lease dies with the node, and recovery goes through
  // checkpoint + replay like any other lost group — zero tuple loss, and
  // never another flip of a dead lease.
  const StoreScenario scenario{"single_owner", 48};
  const StoreRunResult baseline =
      RunStoreScenario(scenario, /*migrate=*/false, MigrationMode::kDirect);

  StorePipeline p;
  const KeyGroupId group = p.topo.first_group(1);
  const std::vector<Tuple> keys = KeysFor(0, scenario.distinct_keys);
  const size_t half = keys.size() / 2;
  ASSERT_TRUE(p.engine->InjectBatch(0, keys.data(), half).ok());
  p.engine->Flush();
  ASSERT_TRUE(p.coordinator->CheckpointNow(p.engine.get()).ok());

  const NodeId from = p.engine->assignment().node_of(group);
  const NodeId to = (from + 1) % kStoreNodes;
  ASSERT_TRUE(p.engine->MigrateGroup(group, to, MigrationMode::kLease).ok());
  ASSERT_EQ(p.engine->assignment().node_of(group), to);

  ASSERT_TRUE(p.engine->FailNode(to).ok());
  // Input offered during the outage buffers and drains at recovery.
  ASSERT_TRUE(
      p.engine->InjectBatch(0, keys.data() + half, keys.size() - half).ok());
  p.engine->Flush();
  for (const KeyGroupId lost : p.engine->lost_groups()) {
    ASSERT_TRUE(p.engine->RecoverGroup(lost, from).ok());
  }
  p.engine->Flush();
  EXPECT_EQ(p.SinkStates(), baseline.states);
  EXPECT_EQ(p.engine->HarvestPeriod().tuples_processed, baseline.processed);
}

TEST(MigrationModeContractTest, SecondStartOnMigratingGroupIsRejected) {
  StorePipeline p;
  const KeyGroupId group = p.topo.first_group(1);
  const NodeId from = p.engine->assignment().node_of(group);
  for (const MigrationMode mode :
       {MigrationMode::kDirect, MigrationMode::kIndirect,
        MigrationMode::kEpoch, MigrationMode::kLease}) {
    ASSERT_TRUE(
        p.engine->StartMigration(group, (from + 1) % kStoreNodes, mode).ok());
    // Every re-Start on the open migration is rejected, whatever mode the
    // second request asks for.
    for (const MigrationMode second :
         {MigrationMode::kDirect, MigrationMode::kIndirect,
          MigrationMode::kEpoch, MigrationMode::kLease}) {
      const Status s =
          p.engine->StartMigration(group, (from + 2) % kStoreNodes, second);
      EXPECT_EQ(s.code(), StatusCode::kAlreadyExists) << s.ToString();
    }
    ASSERT_TRUE(p.engine->FinishMigration(group).ok());
    // Round-trip the group home so every iteration starts identically.
    ASSERT_TRUE(
        p.engine->MigrateGroup(group, from, MigrationMode::kDirect).ok());
  }
}

}  // namespace
}  // namespace albic
