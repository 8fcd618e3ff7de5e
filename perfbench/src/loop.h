#pragma once

// The chunk loop shared by every workload. Closed loop: each chunk is
// sent as soon as the previous one returned, so "due" means "sent". Open
// loop: chunk k is due at t0 + k * chunk / rate whether or not the system
// kept up, and its latency runs from that due time — a stall is charged to
// every chunk that was due while it lasted (no coordinated omission).

#include <cstdint>
#include <thread>
#include <vector>

#include "bench_common.h"

namespace perfbench {

struct LoopResult {
  std::vector<double> latency_ms;       ///< due -> ingest returned
  std::vector<double> lag_ms;           ///< open loop: sent - due
  std::vector<double> sent_latency_ms;  ///< sent -> returned (CO view)
  std::vector<int64_t> done_ns;         ///< Return instant, from loop start.
  std::vector<int64_t> chunk_tuples;
  int64_t tuples = 0;
  double wall_s = 0.0;
  bool ok = true;
};

/// Runs chunks of \p chunk tuples for \p seconds (a closed loop goes on
/// until \p min_tuples were sent, and no loop sends more than
/// \p max_tuples). \p rate is the offered tuples/s, 0 for a closed loop.
/// \p prepare(first, n) readies the chunk's input before it is due;
/// \p send(k, first, n) ingests it and returns false on a failed call,
/// which ends the loop.
template <typename Prepare, typename Send>
LoopResult RunLoop(double seconds, double rate, size_t chunk,
                   int64_t max_tuples, Prepare&& prepare, Send&& send,
                   int64_t min_tuples = 0) {
  LoopResult r;
  const int64_t t0 = NowNs();
  const int64_t end = t0 + static_cast<int64_t>(seconds * 1e9);
  const double ns_per_tuple = rate > 0.0 ? 1e9 / rate : 0.0;
  for (int64_t k = 0; r.tuples < max_tuples; ++k) {
    const size_t n = static_cast<size_t>(
        std::min<int64_t>(static_cast<int64_t>(chunk), max_tuples - r.tuples));
    int64_t due = 0;
    if (rate > 0.0) {
      due = t0 + static_cast<int64_t>(static_cast<double>(r.tuples) *
                                      ns_per_tuple);
      if (due >= end) break;
    } else if (NowNs() >= end && r.tuples >= min_tuples) {
      break;
    }
    prepare(r.tuples, n);
    if (rate > 0.0) {
      // Sleep through most of the wait, spin the last stretch.
      for (int64_t now = NowNs(); now < due; now = NowNs()) {
        if (due - now > 300000) {
          std::this_thread::sleep_for(
              std::chrono::nanoseconds(due - now - 200000));
        }
      }
    }
    const int64_t sent = NowNs();
    if (rate <= 0.0) due = sent;
    const bool ok = send(k, r.tuples, n);
    const int64_t done = NowNs();
    r.latency_ms.push_back(static_cast<double>(done - due) / 1e6);
    r.sent_latency_ms.push_back(static_cast<double>(done - sent) / 1e6);
    r.done_ns.push_back(done - t0);
    r.chunk_tuples.push_back(static_cast<int64_t>(n));
    if (rate > 0.0) r.lag_ms.push_back(static_cast<double>(sent - due) / 1e6);
    r.tuples += static_cast<int64_t>(n);
    if (!ok) {
      r.ok = false;
      break;
    }
  }
  r.wall_s = static_cast<double>(NowNs() - t0) / 1e9;
  return r;
}

}  // namespace perfbench
