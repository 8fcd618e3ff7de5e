#pragma once

// In-memory span recorder of the traced benchmark run. Spans are taken in
// the benchmark's own code around calls into the engine's public APIs (and
// by the timing decorators around operator, planner, scaling and
// checkpoint-store calls), kept in per-thread buffers, and written out as
// a Chrome trace when the run ends.

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "bench_common.h"

namespace perfbench {

class Tracer {
 public:
  struct Span {
    const char* name = "";
    const char* layer = "";  ///< Chrome "cat"; the per-layer grouping.
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int64_t chunk = -1;   ///< Chunk (or kill) the span belongs to.
    int64_t id = 0;
    int64_t parent = 0;   ///< 0 = root.
    int tid = 0;
  };

  /// A disabled tracer records nothing and costs one branch per scope.
  Tracer(bool enabled, size_t max_spans) : enabled_(enabled),
                                           max_spans_(max_spans) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }

  /// Called by the driving thread before each chunk: spans opened until the
  /// next call carry \p chunk. Operator spans (the per-batch ones) are only
  /// kept for chunks with \p sample_ops set, which bounds trace size.
  void SetChunk(int64_t chunk, bool sample_ops);
  bool sampling_ops() const {
    return enabled_ && sample_ops_.load(std::memory_order_relaxed);
  }

  /// RAII span. Its parent is the innermost open span on the same thread;
  /// on a pool worker (no open span) it is the driving thread's innermost
  /// open span, so operator work done for a call nests under that call.
  class Scope {
   public:
    Scope(Tracer* tracer, const char* name, const char* layer);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    Span span_;
  };

  /// Writes every recorded span as a Chrome trace ("X" events, us).
  bool WriteChrome(const std::string& path) const;

  /// Self time per layer (span time minus the union of its children's
  /// intervals), over the spans of sampled chunks only — those are the
  /// chunks whose span trees are complete.
  std::map<std::string, double> SelfMsByLayer() const;

  int64_t recorded() const { return recorded_.load(); }
  int64_t dropped() const { return dropped_.load(); }

 private:
  struct ThreadState;
  ThreadState* State();
  void Record(const Span& span, ThreadState* ts);
  std::vector<Span> AllSpans() const;

  const bool enabled_;
  const size_t max_spans_;
  const uint64_t generation_ = next_generation_.fetch_add(1) + 1;
  static std::atomic<uint64_t> next_generation_;
  std::atomic<int64_t> chunk_{-1};
  std::atomic<bool> sample_ops_{false};
  std::atomic<int64_t> next_id_{1};
  std::atomic<int64_t> recorded_{0};
  std::atomic<int64_t> dropped_{0};
  /// Innermost open span of the thread that called SetChunk.
  std::atomic<int64_t> driving_top_{0};
  std::atomic<int> driving_tid_{-1};
  mutable std::mutex mu_;  // guards buffers_ (registration and read-out)
  std::deque<std::vector<Span>> buffers_;
  std::vector<int64_t> sampled_chunks_;  // driving thread only
};

}  // namespace perfbench
