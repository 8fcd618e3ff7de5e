#pragma once

// Real Job 1 pipeline shared by the wiki workloads and the self-tests.

#include <memory>
#include <vector>

#include "bench_common.h"
#include "common/metrics_registry.h"
#include "decorators.h"
#include "engine/local_engine.h"
#include "ops/geohash.h"
#include "ops/topk.h"

namespace perfbench {

/// GeoHash -> windowed TopK -> global TopK, 18 key groups per operator on 6
/// nodes, batched engine. A traced job hands the engine timing decorators
/// in place of the operators and turns on wave-phase profiling and
/// registry publishing; the operators themselves are the same either way.
struct WikiJob {
  WikiJob(int workers, Tracer* tracer, bool traced);

  albic::engine::Topology topo;
  albic::engine::Cluster cluster{6};
  albic::ops::GeoHashOperator geohash;
  albic::ops::WindowedTopKOperator topk;
  albic::ops::WindowedTopKOperator global;
  std::vector<std::unique_ptr<TimedOperator>> timed;  ///< Traced jobs only.
  albic::MetricsRegistry registry;
  std::unique_ptr<albic::engine::LocalEngine> engine;
  bool ok = false;
};

/// Checks the job's outputs after \p injected tuples of \p stream against a
/// reference computed from the stream alone: lifetime GeoHash counts per
/// group, the open window's TopK counts, and the last closed window's
/// global TopK. Each check is one attempted operation in \p report.
void CheckWikiOutputs(const WikiJob& job, const ReplayStream& stream,
                      int64_t injected, Report* report);

}  // namespace perfbench
