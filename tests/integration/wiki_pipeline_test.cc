// End-to-end correctness of the Real Job 1 pipeline: the distributed
// GeoHash -> windowed TopK -> global TopK answer must agree with an offline
// single-pass reference over the same stream — at one worker and at four,
// including across migrations performed mid-window.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>

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
constexpr int64_t kWindowUs = 60LL * 1000 * 1000;

struct Pipeline {
  engine::Topology topo;
  engine::Cluster cluster{kNodes};
  ops::GeoHashOperator geohash{kGroups, 256};
  ops::WindowedTopKOperator topk{kGroups, 64};  // large K: no truncation
  ops::WindowedTopKOperator global{kGroups, 64, ops::TopKCountMode::kSumNum};
  std::unique_ptr<engine::LocalEngine> engine;

  explicit Pipeline(int num_workers = 1) {
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
    engine::LocalEngineOptions opts;
    opts.window_every_us = kWindowUs;
    opts.num_workers = num_workers;
    engine = std::make_unique<engine::LocalEngine>(
        &topo, &cluster, assign,
        std::vector<engine::StreamOperator*>{&geohash, &topk, &global},
        opts);
  }

  /// Edit counts per article in the last closed window, merged over the
  /// global groups.
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

/// Parameterized over the engine's worker count.
class WikiPipelineTest : public ::testing::TestWithParam<int> {};

TEST_P(WikiPipelineTest, GlobalTopKMatchesOfflineReferencePerWindow) {
  Pipeline p(/*num_workers=*/GetParam());
  workload::WikipediaEditStream edits(300, 101, /*rate_per_second=*/400.0);

  std::map<uint64_t, int64_t> reference;  // current-window offline counts
  std::map<uint64_t, int64_t> reference_last_closed;
  int64_t window_origin = -1;
  int windows_checked = 0;

  for (int i = 0; i < 90000; ++i) {  // ~3.7 minutes of event time
    Tuple t = edits.Next();
    if (window_origin < 0) window_origin = t.ts;
    // Detect window boundary the same way the engine does (origin at the
    // first event's time).
    while (t.ts - window_origin >= kWindowUs) {
      window_origin += kWindowUs;
      reference_last_closed = std::move(reference);
      reference.clear();
      ++windows_checked;
    }
    reference[t.key] += 1;
    ASSERT_TRUE(p.engine->Inject(0, t).ok());
    // Exercise migration-under-load: move a rotating group every ~2000
    // tuples.
    if (i % 2000 == 1999) {
      const KeyGroupId g =
          static_cast<KeyGroupId>((i / 2000) % p.topo.num_key_groups());
      const engine::NodeId target =
          (p.engine->assignment().node_of(g) + 1) % kNodes;
      ASSERT_TRUE(p.engine->MigrateGroup(g, target).ok());
    }
  }
  ASSERT_GE(windows_checked, 2) << "stream too short to close windows";

  // The pipeline's last closed window must match the offline reference for
  // every article (large K so no truncation; the per-cell TopK emits before
  // the global TopK's same-boundary window closes, because windows fire in
  // topological order).
  std::map<uint64_t, int64_t> actual = p.GlobalCounts();
  ASSERT_FALSE(actual.empty());
  for (const auto& [article, count] : reference_last_closed) {
    EXPECT_EQ(actual[article], count) << "article " << article;
  }
  for (const auto& [article, count] : actual) {
    EXPECT_EQ(reference_last_closed[article], count)
        << "phantom article " << article;
  }
}

INSTANTIATE_TEST_SUITE_P(Workers, WikiPipelineTest, ::testing::Values(1, 4),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return std::to_string(info.param) + "Workers";
                         });

TEST(WikiPipelineTest, GeoHashSpreadsLoadAcrossGroups) {
  Pipeline p;
  workload::WikipediaEditStream edits(5000, 33);
  for (int i = 0; i < 20000; ++i) {
    ASSERT_TRUE(p.engine->Inject(0, edits.Next()).ok());
  }
  engine::EnginePeriodStats stats = p.engine->HarvestPeriod();
  // The topk operator's groups (geohash-keyed, even coverage of Denmark)
  // should all receive work, none dominating.
  const KeyGroupId tk0 = p.topo.first_group(1);
  double min = 1e18, max = 0;
  for (int i = 0; i < kGroups; ++i) {
    min = std::min(min, stats.group_work[tk0 + i]);
    max = std::max(max, stats.group_work[tk0 + i]);
  }
  EXPECT_GT(min, 0.0);
  EXPECT_LT(max, 4.0 * min);
}

}  // namespace
}  // namespace albic
