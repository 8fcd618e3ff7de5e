#pragma once

// Shared plumbing of the repository benchmark: clocks, percentiles, the
// metric report, and the replayed input stream every workload draws from.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "engine/tuple.h"

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Command-line options of one benchmark invocation.
struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// wiki_ft open-loop offered rate (input tuples per second); 0 runs the
  /// same configuration closed loop, which is how the constant is measured.
  double offered_rate = 0.0;
  /// Scratch directory (per-run checkpoint stores, Chrome traces).
  std::string workdir = ".bench_build/work";
  std::string commit = "unknown";
  bool selftest = false;
};

/// A latency percentile and the sample count it was taken from. The
/// requested percentile is lowered until at least ten samples lie beyond
/// it, so a short run never reports its maximum as "p99".
struct Tail {
  double value = 0.0;
  double percentile = 0.0;
  size_t samples = 0;
};

/// Nearest-rank quantile of \p v (copied, then partially sorted).
inline double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  size_t idx = static_cast<size_t>(q * static_cast<double>(v.size()));
  if (idx >= v.size()) idx = v.size() - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<long>(idx), v.end());
  return v[idx];
}

inline double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

inline Tail HighTail(const std::vector<double>& v, double wanted = 0.99) {
  Tail t;
  t.samples = v.size();
  if (v.empty()) return t;
  const double n = static_cast<double>(v.size());
  // Highest percentile with >= 10 samples beyond it.
  const double supported = std::max(0.5, 1.0 - 10.0 / n);
  t.percentile = std::min(wanted, supported);
  t.value = Quantile(v, t.percentile);
  return t;
}

inline double Sum(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return s;
}

/// Every metric a run measured, by name, plus the correctness tally.
/// perfbench/run.py picks the end-to-end or per-layer subset named in
/// BENCHMARK.json for the final JSON line.
class Report {
 public:
  /// A quiet report does not print its failed checks (self-tests that
  /// expect a check to fail use one).
  explicit Report(bool quiet = false) : quiet_(quiet) {}
  void Set(const std::string& name, double value, const std::string& unit) {
    metrics_[name] = {value, unit};
  }
  double Get(const std::string& name) const {
    auto it = metrics_.find(name);
    return it == metrics_.end() ? 0.0 : it->second.value;
  }
  /// Records one checked operation (a call or an output comparison).
  void Check(bool ok, const std::string& what);
  void Note(const std::string& line) { notes_.push_back(line); }

  int64_t attempted() const { return attempted_; }
  int64_t failed() const { return failed_; }
  /// Prints "note ..." and "metric <name> <value> <unit>" lines and the
  /// "status" line perfbench/run.py parses.
  void Print() const;

 private:
  struct Value {
    double value = 0.0;
    std::string unit;
  };
  std::map<std::string, Value> metrics_;
  std::vector<std::string> notes_;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  bool quiet_ = false;
};

/// A pre-generated base stream replayed end to end as often as a run needs:
/// pass p re-emits the base tuples with event time shifted by p * span, so
/// event time keeps advancing and windows keep firing while the input
/// stays bounded in memory. Tuple i of the replayed stream is base[i % B]
/// shifted by (i / B) * span.
class ReplayStream {
 public:
  explicit ReplayStream(std::vector<albic::engine::Tuple> base)
      : base_(std::move(base)),
        span_us_(base_.back().ts - base_.front().ts + 1) {}

  size_t base_size() const { return base_.size(); }
  const std::vector<albic::engine::Tuple>& base() const { return base_; }

  albic::engine::Tuple At(int64_t i) const {
    const int64_t b = static_cast<int64_t>(base_.size());
    albic::engine::Tuple t = base_[static_cast<size_t>(i % b)];
    t.ts += (i / b) * span_us_;
    return t;
  }
  int64_t TsAt(int64_t i) const {
    const int64_t b = static_cast<int64_t>(base_.size());
    return base_[static_cast<size_t>(i % b)].ts + (i / b) * span_us_;
  }
  /// Copies tuples [first, first + n) into \p out.
  void Fill(int64_t first, size_t n, albic::engine::Tuple* out) const {
    const int64_t b = static_cast<int64_t>(base_.size());
    for (size_t k = 0; k < n;) {
      const int64_t i = first + static_cast<int64_t>(k);
      const size_t off = static_cast<size_t>(i % b);
      const int64_t shift = (i / b) * span_us_;
      const size_t run = std::min(n - k, base_.size() - off);
      for (size_t r = 0; r < run; ++r) {
        out[k + r] = base_[off + r];
        out[k + r].ts += shift;
      }
      k += run;
    }
  }
  /// First index in [0, limit) whose event time is >= \p ts (limit when
  /// none); event time is non-decreasing in the index.
  int64_t LowerBound(int64_t ts, int64_t limit) const {
    int64_t lo = 0, hi = limit;
    while (lo < hi) {
      const int64_t mid = lo + (hi - lo) / 2;
      if (TsAt(mid) < ts) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo;
  }

 private:
  std::vector<albic::engine::Tuple> base_;
  int64_t span_us_;
};

/// steady_clock instant at which the process started (first setup's origin).
int64_t ProcessStartNs();

/// Peak resident set of this process, in MiB.
double PeakRssMb();

}  // namespace perfbench
