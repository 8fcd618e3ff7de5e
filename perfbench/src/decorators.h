#pragma once

// Timing decorators: each wraps one implementation of a public engine
// interface (StreamOperator, Rebalancer, ScalingPolicy, CheckpointStore),
// forwards every call unchanged, and counts and times the calls from
// outside. Counters are relaxed atomics, so operator decorators stay safe
// when a multi-worker pool runs different key groups of one operator
// concurrently. A decorated run's outputs are bit-identical to an
// undecorated one (checked by the --selftest mode).

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "balance/rebalancer.h"
#include "engine/checkpoint.h"
#include "engine/comm_matrix.h"
#include "engine/operator.h"
#include "scaling/scaling_policy.h"
#include "tracer.h"

namespace perfbench {

/// Adds \p ns to an atomic nanosecond counter.
inline void AddNs(std::atomic<int64_t>* c, int64_t ns) {
  c->fetch_add(ns, std::memory_order_relaxed);
}
inline double Ms(const std::atomic<int64_t>& ns) {
  return static_cast<double>(ns.load()) / 1e6;
}

class TimedOperator final : public albic::engine::StreamOperator {
 public:
  struct Counters {
    std::atomic<int64_t> tuples_in{0};
    std::atomic<int64_t> busy_ns{0};
    std::atomic<int64_t> window_fires{0};
    std::atomic<int64_t> window_ns{0};
    std::atomic<int64_t> serialize_ns{0};
    std::atomic<int64_t> state_bytes{0};
  };

  TimedOperator(const char* name, albic::engine::StreamOperator* inner,
                int num_groups, Tracer* tracer)
      : name_(name), inner_(inner), num_groups_(num_groups),
        tracer_(tracer) {}

  void Process(const albic::engine::Tuple& tuple, int group_index,
               albic::engine::Emitter* out) override {
    const int64_t t0 = NowNs();
    inner_->Process(tuple, group_index, out);
    AddNs(&c_.busy_ns, NowNs() - t0);
    c_.tuples_in.fetch_add(1, std::memory_order_relaxed);
  }
  void ProcessBatch(const albic::engine::TupleBatch& batch, int group_index,
                    albic::engine::Emitter* out) override {
    if (tracer_->sampling_ops()) {
      Tracer::Scope span(tracer_, name_, "ops");
      TimedBatch(batch, group_index, out);
    } else {
      TimedBatch(batch, group_index, out);
    }
  }
  void OnWindow(int group_index, albic::engine::Emitter* out) override {
    Tracer::Scope span(tracer_->sampling_ops() ? tracer_ : nullptr, name_,
                       "ops");
    const int64_t t0 = NowNs();
    inner_->OnWindow(group_index, out);
    AddNs(&c_.window_ns, NowNs() - t0);
    c_.window_fires.fetch_add(1, std::memory_order_relaxed);
  }
  std::string SerializeGroupState(int group_index) const override {
    const int64_t t0 = NowNs();
    std::string s = inner_->SerializeGroupState(group_index);
    AddNs(&c_.serialize_ns, NowNs() - t0);
    c_.state_bytes.fetch_add(static_cast<int64_t>(s.size()),
                             std::memory_order_relaxed);
    return s;
  }
  albic::Status DeserializeGroupState(int group_index,
                                      const std::string& data) override {
    return inner_->DeserializeGroupState(group_index, data);
  }
  void ClearGroupState(int group_index) override {
    inner_->ClearGroupState(group_index);
  }
  bool SupportsDeltaState() const override {
    return inner_->SupportsDeltaState();
  }
  std::string SerializeGroupDelta(int group_index) const override {
    const int64_t t0 = NowNs();
    std::string s = inner_->SerializeGroupDelta(group_index);
    AddNs(&c_.serialize_ns, NowNs() - t0);
    c_.state_bytes.fetch_add(static_cast<int64_t>(s.size()),
                             std::memory_order_relaxed);
    return s;
  }
  albic::Status ApplyGroupDelta(int group_index,
                                const std::string& data) override {
    return inner_->ApplyGroupDelta(group_index, data);
  }

  /// The engine attaches its dirty-key trackers to the operator it was
  /// given — this decorator. Hands them on to the wrapped operator, whose
  /// mutation paths mark them. Call after LocalEngine::EnableCheckpointing.
  void ForwardChangeTrackers() {
    for (int g = 0; g < num_groups_; ++g) {
      inner_->AttachChangeTracker(g, tracker(g));
    }
  }

  const char* name() const { return name_; }
  const Counters& counters() const { return c_; }

 private:
  void TimedBatch(const albic::engine::TupleBatch& batch, int group_index,
                  albic::engine::Emitter* out) {
    const int64_t t0 = NowNs();
    inner_->ProcessBatch(batch, group_index, out);
    AddNs(&c_.busy_ns, NowNs() - t0);
    c_.tuples_in.fetch_add(static_cast<int64_t>(batch.size()),
                           std::memory_order_relaxed);
  }

  const char* name_;
  albic::engine::StreamOperator* inner_;
  int num_groups_;
  Tracer* tracer_;
  mutable Counters c_;
};

/// Read-only views of a job's operator decorators.
inline std::vector<const TimedOperator*> TimedOps(
    const std::vector<std::unique_ptr<TimedOperator>>& ops) {
  std::vector<const TimedOperator*> v;
  for (const auto& op : ops) v.push_back(op.get());
  return v;
}

/// Times every ComputePlan call and keeps what the quality metrics need:
/// the per-call wall times, planned migration counts, and a copy of the
/// latest snapshot's measured communication matrix.
class TimedRebalancer final : public albic::balance::Rebalancer {
 public:
  TimedRebalancer(albic::balance::Rebalancer* inner, Tracer* tracer)
      : inner_(inner), tracer_(tracer) {}

  albic::Result<albic::balance::RebalancePlan> ComputePlan(
      const albic::engine::SystemSnapshot& snapshot,
      const albic::balance::RebalanceConstraints& constraints) override {
    Tracer::Scope span(tracer_, "plan", "balance");
    const int64_t t0 = NowNs();
    auto plan = inner_->ComputePlan(snapshot, constraints);
    plan_ms_.push_back(static_cast<double>(NowNs() - t0) / 1e6);
    if (plan.ok()) {
      migrations_planned_ += static_cast<int64_t>(plan->migrations.size());
      if (!plan->migrations.empty()) ++useful_plans_;
    } else {
      ++failed_plans_;
    }
    if (snapshot.comm != nullptr) last_comm_ = *snapshot.comm;
    return plan;
  }
  std::string name() const override { return inner_->name(); }

  const std::vector<double>& plan_ms() const { return plan_ms_; }
  int64_t migrations_planned() const { return migrations_planned_; }
  int64_t useful_plans() const { return useful_plans_; }
  int64_t failed_plans() const { return failed_plans_; }
  const albic::engine::CommMatrix& last_comm() const { return last_comm_; }

 private:
  albic::balance::Rebalancer* inner_;
  Tracer* tracer_;
  std::vector<double> plan_ms_;
  int64_t migrations_planned_ = 0;
  int64_t useful_plans_ = 0;
  int64_t failed_plans_ = 0;
  albic::engine::CommMatrix last_comm_;
};

class TimedScalingPolicy final : public albic::scaling::ScalingPolicy {
 public:
  TimedScalingPolicy(albic::scaling::ScalingPolicy* inner, Tracer* tracer)
      : inner_(inner), tracer_(tracer) {}

  albic::scaling::ScalingDecision Decide(
      const albic::engine::SystemSnapshot& snapshot,
      const albic::balance::RebalancePlan& potential) override {
    Tracer::Scope span(tracer_, "decide", "scaling");
    const int64_t t0 = NowNs();
    albic::scaling::ScalingDecision d = inner_->Decide(snapshot, potential);
    decide_ns_ += NowNs() - t0;
    ++calls_;
    return d;
  }

  int64_t calls() const { return calls_; }
  double decide_ms() const { return static_cast<double>(decide_ns_) / 1e6; }

 private:
  albic::scaling::ScalingPolicy* inner_;
  Tracer* tracer_;
  int64_t calls_ = 0;
  int64_t decide_ns_ = 0;
};

class TimedCheckpointStore final : public albic::engine::CheckpointStore {
 public:
  TimedCheckpointStore(albic::engine::CheckpointStore* inner, Tracer* tracer)
      : inner_(inner), tracer_(tracer) {}

  albic::Result<albic::engine::CheckpointInfo> Put(
      albic::engine::KeyGroupId group, uint64_t seq,
      const std::string& state) override {
    Tracer::Scope span(tracer_, "store.put", "checkpoint");
    const int64_t t0 = NowNs();
    auto r = inner_->Put(group, seq, state);
    AddNs(&put_ns_, NowNs() - t0);
    puts_.fetch_add(1, std::memory_order_relaxed);
    bytes_.fetch_add(static_cast<int64_t>(state.size()),
                     std::memory_order_relaxed);
    return r;
  }
  albic::Result<albic::engine::CheckpointInfo> PutDelta(
      albic::engine::KeyGroupId group, uint64_t seq,
      const std::string& delta) override {
    Tracer::Scope span(tracer_, "store.put_delta", "checkpoint");
    const int64_t t0 = NowNs();
    auto r = inner_->PutDelta(group, seq, delta);
    AddNs(&put_ns_, NowNs() - t0);
    puts_.fetch_add(1, std::memory_order_relaxed);
    delta_puts_.fetch_add(1, std::memory_order_relaxed);
    bytes_.fetch_add(static_cast<int64_t>(delta.size()),
                     std::memory_order_relaxed);
    return r;
  }
  bool Latest(albic::engine::KeyGroupId group,
              albic::engine::CheckpointInfo* info,
              std::string* state) const override {
    Tracer::Scope span(tracer_, "store.latest", "checkpoint");
    const int64_t t0 = NowNs();
    const bool ok = inner_->Latest(group, info, state);
    AddNs(&read_ns_, NowNs() - t0);
    return ok;
  }
  bool LatestChain(albic::engine::KeyGroupId group,
                   albic::engine::CheckpointInfo* info, std::string* base,
                   std::vector<std::string>* deltas) const override {
    Tracer::Scope span(tracer_, "store.read_chain", "checkpoint");
    const int64_t t0 = NowNs();
    const bool ok = inner_->LatestChain(group, info, base, deltas);
    AddNs(&read_ns_, NowNs() - t0);
    return ok;
  }
  uint64_t ChainDeltaBytes(albic::engine::KeyGroupId group) const override {
    return inner_->ChainDeltaBytes(group);
  }
  uint64_t ChainBytes(albic::engine::KeyGroupId group) const override {
    return inner_->ChainBytes(group);
  }
  bool Get(albic::engine::KeyGroupId group, uint64_t version,
           albic::engine::CheckpointInfo* info,
           std::string* state) const override {
    Tracer::Scope span(tracer_, "store.get", "checkpoint");
    const int64_t t0 = NowNs();
    const bool ok = inner_->Get(group, version, info, state);
    AddNs(&read_ns_, NowNs() - t0);
    return ok;
  }
  albic::Status PutManifest(
      const albic::engine::CheckpointManifest& manifest) override {
    Tracer::Scope span(tracer_, "store.put_manifest", "checkpoint");
    const int64_t t0 = NowNs();
    albic::Status s = inner_->PutManifest(manifest);
    AddNs(&put_ns_, NowNs() - t0);
    return s;
  }
  bool LatestManifest(albic::engine::CheckpointManifest* out) const override {
    return inner_->LatestManifest(out);
  }
  int64_t puts() const override { return inner_->puts(); }
  int64_t delta_puts() const override { return inner_->delta_puts(); }
  int64_t stored_bytes() const override { return inner_->stored_bytes(); }

  int64_t timed_puts() const { return puts_.load(); }
  int64_t timed_delta_puts() const { return delta_puts_.load(); }
  int64_t timed_bytes() const { return bytes_.load(); }
  double put_ms() const { return Ms(put_ns_); }
  double read_ms() const { return Ms(read_ns_); }

 private:
  albic::engine::CheckpointStore* inner_;
  Tracer* tracer_;
  std::atomic<int64_t> puts_{0};
  std::atomic<int64_t> delta_puts_{0};
  std::atomic<int64_t> bytes_{0};
  std::atomic<int64_t> put_ns_{0};
  mutable std::atomic<int64_t> read_ns_{0};
};

/// Self-test decorator: forwards everything, but its \p stall_at-th
/// ProcessBatch call first sleeps for \p stall_ms. Used to prove that the
/// open loop charges a stall to every chunk that was due during it.
class StallOnceOperator final : public albic::engine::StreamOperator {
 public:
  StallOnceOperator(albic::engine::StreamOperator* inner, int64_t stall_at,
                    double stall_ms)
      : inner_(inner), stall_at_(stall_at), stall_ms_(stall_ms) {}

  void Process(const albic::engine::Tuple& tuple, int group_index,
               albic::engine::Emitter* out) override {
    inner_->Process(tuple, group_index, out);
  }
  void ProcessBatch(const albic::engine::TupleBatch& batch, int group_index,
                    albic::engine::Emitter* out) override {
    if (calls_.fetch_add(1) == stall_at_) {
      std::this_thread::sleep_for(
          std::chrono::microseconds(static_cast<int64_t>(stall_ms_ * 1e3)));
    }
    inner_->ProcessBatch(batch, group_index, out);
  }
  void OnWindow(int group_index, albic::engine::Emitter* out) override {
    inner_->OnWindow(group_index, out);
  }

 private:
  albic::engine::StreamOperator* inner_;
  int64_t stall_at_;
  double stall_ms_;
  std::atomic<int64_t> calls_{0};
};

}  // namespace perfbench
