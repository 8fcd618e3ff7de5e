// The batched wave runtime on the Real Job 1 pipeline: multi-worker
// execution reaches the same EnginePeriodStats and operator outputs as one
// worker (including across migrations), per-tuple Inject and chunked
// InjectBatch agree, migrations started while batches are staged buffer and
// drain in arrival order, and the pipeline auto-drains at the batch limit.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <vector>

#include "engine/local_engine.h"
#include "ops/geohash.h"
#include "ops/topk.h"
#include "workload/streams.h"

namespace albic {
namespace {

using engine::KeyGroupId;
using engine::Tuple;

constexpr int kNodes = 4;
constexpr int kGroups = 8;

struct Pipeline {
  engine::Topology topo;
  engine::Cluster cluster{kNodes};
  ops::GeoHashOperator geohash{kGroups, 256};
  ops::WindowedTopKOperator topk{kGroups, 64};
  ops::WindowedTopKOperator global{kGroups, 64, ops::TopKCountMode::kSumNum};
  std::unique_ptr<engine::LocalEngine> engine;

  explicit Pipeline(engine::LocalEngineOptions opts) {
    topo.AddOperator("geohash", kGroups, 1 << 14);
    topo.AddOperator("topk", kGroups, 1 << 14);
    topo.AddOperator("global", kGroups, 1 << 14);
    EXPECT_TRUE(
        topo.AddStream(0, 1, engine::PartitioningPattern::kFullPartitioning)
            .ok());
    EXPECT_TRUE(
        topo.AddStream(1, 2, engine::PartitioningPattern::kFullPartitioning)
            .ok());
    engine::Assignment assign(topo.num_key_groups());
    for (KeyGroupId g = 0; g < topo.num_key_groups(); ++g) {
      assign.set_node(g, g % kNodes);
    }
    engine = std::make_unique<engine::LocalEngine>(
        &topo, &cluster, assign,
        std::vector<engine::StreamOperator*>{&geohash, &topk, &global}, opts);
  }

  /// Runs the wiki edit stream with a rotating migration every 2000 tuples
  /// and returns the final period's statistics.
  engine::EnginePeriodStats RunWiki(int tuples) {
    workload::WikipediaEditStream edits(300, 101, /*rate_per_second=*/400.0);
    for (int i = 0; i < tuples; ++i) {
      EXPECT_TRUE(engine->Inject(0, edits.Next()).ok());
      if (i % 2000 == 1999) {
        const KeyGroupId g =
            static_cast<KeyGroupId>((i / 2000) % topo.num_key_groups());
        const engine::NodeId target =
            (engine->assignment().node_of(g) + 1) % kNodes;
        engine->Flush();  // migrate between batches, as the controller does
        EXPECT_TRUE(engine->MigrateGroup(g, target).ok());
      }
    }
    engine->Flush();
    return engine->HarvestPeriod();
  }

  std::map<uint64_t, int64_t> GlobalCounts() const {
    std::map<uint64_t, int64_t> out;
    for (int g = 0; g < kGroups; ++g) {
      for (const auto& [article, count] : global.last_window_top(g)) {
        out[article] += count;
      }
    }
    return out;
  }
};

void ExpectStatsEqual(const engine::EnginePeriodStats& a,
                      const engine::EnginePeriodStats& b) {
  ASSERT_EQ(a.group_work.size(), b.group_work.size());
  for (size_t g = 0; g < a.group_work.size(); ++g) {
    EXPECT_EQ(a.group_work[g], b.group_work[g]) << "group " << g;
  }
  ASSERT_EQ(a.node_work.size(), b.node_work.size());
  for (size_t n = 0; n < a.node_work.size(); ++n) {
    EXPECT_EQ(a.node_work[n], b.node_work[n]) << "node " << n;
  }
  EXPECT_EQ(a.tuples_processed, b.tuples_processed);
  EXPECT_EQ(a.tuples_buffered, b.tuples_buffered);
  EXPECT_EQ(a.migration_pause_us, b.migration_pause_us);
  ASSERT_EQ(a.comm.num_groups(), b.comm.num_groups());
  for (KeyGroupId from = 0; from < a.comm.num_groups(); ++from) {
    for (KeyGroupId to = 0; to < a.comm.num_groups(); ++to) {
      EXPECT_EQ(a.comm.Rate(from, to), b.comm.Rate(from, to))
          << "comm " << from << " -> " << to;
    }
  }
}

TEST(BatchedRuntimeTest, MultiWorkerMatchesSingleWorker) {
  engine::LocalEngineOptions one;
  one.num_workers = 1;
  Pipeline single(one);

  engine::LocalEngineOptions four;
  four.num_workers = 4;
  Pipeline multi(four);

  constexpr int kTuples = 30000;
  engine::EnginePeriodStats s1 = single.RunWiki(kTuples);
  engine::EnginePeriodStats s4 = multi.RunWiki(kTuples);

  // All work/serde constants in this job are exactly representable, so the
  // sums must agree exactly regardless of the merge order.
  ExpectStatsEqual(s1, s4);
  EXPECT_EQ(single.GlobalCounts(), multi.GlobalCounts());
}

TEST(BatchedRuntimeTest, InjectBatchMatchesPerTupleInject) {
  Pipeline per_tuple{engine::LocalEngineOptions()};
  Pipeline chunked{engine::LocalEngineOptions()};

  // Same stream, ingested per tuple on one engine and in arbitrary chunk
  // sizes on the other.
  constexpr int kTuples = 50000;
  workload::WikipediaEditStream edits(300, 101, /*rate_per_second=*/400.0);
  std::vector<Tuple> stream;
  stream.reserve(kTuples);
  for (int i = 0; i < kTuples; ++i) stream.push_back(edits.Next());

  for (const Tuple& t : stream) {
    ASSERT_TRUE(per_tuple.engine->Inject(0, t).ok());
  }
  size_t offset = 0;
  const size_t chunks[] = {1, 7, 1000, 40000, 8992};
  for (size_t chunk : chunks) {
    ASSERT_TRUE(
        chunked.engine->InjectBatch(0, stream.data() + offset, chunk).ok());
    offset += chunk;
  }
  ASSERT_EQ(offset, stream.size());

  per_tuple.engine->Flush();
  chunked.engine->Flush();
  ExpectStatsEqual(per_tuple.engine->HarvestPeriod(),
                   chunked.engine->HarvestPeriod());
  ASSERT_FALSE(per_tuple.GlobalCounts().empty());
  EXPECT_EQ(per_tuple.GlobalCounts(), chunked.GlobalCounts());
}

/// Records the order in which tuples reach each group (via tuple.num).
class RecordingOperator : public engine::StreamOperator {
 public:
  explicit RecordingOperator(int num_groups) : seen_(num_groups) {}

  void Process(const Tuple& tuple, int group_index,
               engine::Emitter* out) override {
    (void)out;
    seen_[group_index].push_back(tuple.num);
  }

  const std::vector<double>& seen(int group_index) const {
    return seen_[group_index];
  }

 private:
  std::vector<std::vector<double>> seen_;
};

TEST(BatchedRuntimeTest, MigrationMidBatchBuffersAndDrainsInOrder) {
  engine::Topology topo;
  topo.AddOperator("rec", 4, 1 << 10);
  engine::Cluster cluster(2);
  engine::Assignment assign(topo.num_key_groups());
  for (KeyGroupId g = 0; g < topo.num_key_groups(); ++g) {
    assign.set_node(g, g % 2);
  }
  RecordingOperator rec(4);
  engine::LocalEngineOptions opts;
  opts.max_batch_tuples = 1024;  // nothing auto-drains during the test
  opts.window_every_us = 0;
  engine::LocalEngine eng(&topo, &cluster, assign,
                          std::vector<engine::StreamOperator*>{&rec}, opts);

  // A key that lands in group 0.
  uint64_t key = 0;
  while (engine::LocalEngine::RouteKey(key, 4) != 0) ++key;
  const KeyGroupId group = 0;

  auto inject = [&](double seq) {
    Tuple t;
    t.key = key;
    t.num = seq;
    ASSERT_TRUE(eng.Inject(0, t).ok());
  };

  // Tuples 1-5 are staged, then the group starts migrating: the flush must
  // buffer them at the target instead of processing.
  for (int i = 1; i <= 5; ++i) inject(i);
  ASSERT_TRUE(eng.StartMigration(group, 1).ok());
  eng.Flush();
  EXPECT_TRUE(rec.seen(group).empty());

  // More arrive while the state is in flight.
  for (int i = 6; i <= 7; ++i) inject(i);

  // FinishMigration drains the buffer, then the staged tuples, in order.
  auto pause = eng.FinishMigration(group);
  ASSERT_TRUE(pause.ok());
  eng.Flush();
  EXPECT_EQ(eng.assignment().node_of(group), 1);
  EXPECT_EQ(rec.seen(group),
            (std::vector<double>{1, 2, 3, 4, 5, 6, 7}));

  engine::EnginePeriodStats stats = eng.HarvestPeriod();
  EXPECT_EQ(stats.tuples_processed, 7);
  EXPECT_EQ(stats.tuples_buffered, 5);
}

TEST(BatchedRuntimeTest, AutoDrainTriggersAtBatchLimit) {
  engine::Topology topo;
  topo.AddOperator("rec", 2, 1 << 10);
  engine::Cluster cluster(1);
  engine::Assignment assign(topo.num_key_groups());
  for (KeyGroupId g = 0; g < topo.num_key_groups(); ++g) assign.set_node(g, 0);
  RecordingOperator rec(2);
  engine::LocalEngineOptions opts;
  opts.max_batch_tuples = 8;
  opts.window_every_us = 0;
  engine::LocalEngine eng(&topo, &cluster, assign,
                          std::vector<engine::StreamOperator*>{&rec}, opts);

  for (int i = 0; i < 8; ++i) {
    Tuple t;
    t.key = static_cast<uint64_t>(i);
    t.num = i;
    ASSERT_TRUE(eng.Inject(0, t).ok());
  }
  // The eighth tuple hit the batch limit: everything processed, no Flush.
  EXPECT_EQ(rec.seen(0).size() + rec.seen(1).size(), 8u);
}

}  // namespace
}  // namespace albic
