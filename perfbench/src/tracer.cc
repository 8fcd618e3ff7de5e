#include "tracer.h"

#include <algorithm>
#include <cstdio>
#include <set>
#include <unordered_map>

namespace perfbench {

std::atomic<uint64_t> Tracer::next_generation_{0};

struct Tracer::ThreadState {
  uint64_t generation = 0;
  std::vector<Span>* buf = nullptr;
  int tid = 0;
  std::vector<int64_t> stack;
};

Tracer::ThreadState* Tracer::State() {
  thread_local ThreadState tls;
  if (tls.generation != generation_) {
    std::lock_guard<std::mutex> lock(mu_);
    buffers_.emplace_back();
    tls.buf = &buffers_.back();
    tls.tid = static_cast<int>(buffers_.size()) - 1;
    tls.stack.clear();
    tls.generation = generation_;
  }
  return &tls;
}

void Tracer::SetChunk(int64_t chunk, bool sample_ops) {
  if (!enabled_) return;
  driving_tid_.store(State()->tid, std::memory_order_relaxed);
  chunk_.store(chunk, std::memory_order_relaxed);
  sample_ops_.store(sample_ops, std::memory_order_relaxed);
  if (sample_ops) sampled_chunks_.push_back(chunk);
}

Tracer::Scope::Scope(Tracer* tracer, const char* name, const char* layer)
    : tracer_(tracer != nullptr && tracer->enabled_ ? tracer : nullptr) {
  if (tracer_ == nullptr) return;
  ThreadState* ts = tracer_->State();
  const bool driving =
      ts->tid == tracer_->driving_tid_.load(std::memory_order_relaxed);
  span_.name = name;
  span_.layer = layer;
  span_.id = tracer_->next_id_.fetch_add(1, std::memory_order_relaxed);
  span_.parent =
      !ts->stack.empty()
          ? ts->stack.back()
          : (driving ? 0
                    : tracer_->driving_top_.load(std::memory_order_relaxed));
  span_.chunk = tracer_->chunk_.load(std::memory_order_relaxed);
  span_.tid = ts->tid;
  ts->stack.push_back(span_.id);
  if (driving) tracer_->driving_top_.store(span_.id, std::memory_order_relaxed);
  span_.start_ns = NowNs();
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) return;
  span_.end_ns = NowNs();
  ThreadState* ts = tracer_->State();
  ts->stack.pop_back();
  if (ts->tid == tracer_->driving_tid_.load(std::memory_order_relaxed)) {
    tracer_->driving_top_.store(ts->stack.empty() ? 0 : ts->stack.back(),
                               std::memory_order_relaxed);
  }
  tracer_->Record(span_, ts);
}

void Tracer::Record(const Span& span, ThreadState* ts) {
  if (static_cast<size_t>(recorded_.load(std::memory_order_relaxed)) >=
      max_spans_) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  recorded_.fetch_add(1, std::memory_order_relaxed);
  ts->buf->push_back(span);
}

std::vector<Tracer::Span> Tracer::AllSpans() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Span> all;
  for (const auto& b : buffers_) all.insert(all.end(), b.begin(), b.end());
  return all;
}

bool Tracer::WriteChrome(const std::string& path) const {
  const std::vector<Span> all = AllSpans();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  int64_t origin = INT64_MAX;
  for (const Span& s : all) origin = std::min(origin, s.start_ns);
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
  bool first = true;
  for (const Span& s : all) {
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"chunk\":%lld,"
                 "\"span\":%lld,\"parent\":%lld}}",
                 first ? "" : ",", s.name, s.layer, s.tid,
                 static_cast<double>(s.start_ns - origin) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                 static_cast<long long>(s.chunk),
                 static_cast<long long>(s.id),
                 static_cast<long long>(s.parent));
    first = false;
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

std::map<std::string, double> Tracer::SelfMsByLayer() const {
  const std::vector<Span> all = AllSpans();
  const std::set<int64_t> sampled(sampled_chunks_.begin(),
                                  sampled_chunks_.end());
  std::unordered_map<int64_t, std::vector<const Span*>> children;
  for (const Span& s : all) {
    if (s.parent != 0) children[s.parent].push_back(&s);
  }
  std::map<std::string, double> self_ms;
  std::vector<std::pair<int64_t, int64_t>> iv;
  for (const Span& s : all) {
    if (sampled.count(s.chunk) == 0) continue;
    iv.clear();
    auto it = children.find(s.id);
    if (it != children.end()) {
      for (const Span* c : it->second) {
        const int64_t lo = std::max(s.start_ns, c->start_ns);
        const int64_t hi = std::min(s.end_ns, c->end_ns);
        if (hi > lo) iv.emplace_back(lo, hi);
      }
    }
    std::sort(iv.begin(), iv.end());
    int64_t covered = 0, cur_lo = 0, cur_hi = -1;
    for (const auto& [lo, hi] : iv) {
      if (lo > cur_hi) {
        if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
      } else {
        cur_hi = std::max(cur_hi, hi);
      }
    }
    if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
    self_ms[s.layer] +=
        static_cast<double>(s.end_ns - s.start_ns - covered) / 1e6;
  }
  return self_ms;
}

}  // namespace perfbench
