// Measurement collection for the evaluation harness: latency samples,
// percentiles, CDFs (paper Fig. 7), throughput counters, and the exponentially
// weighted moving averages used by the congestion controller (paper Fig. 6).
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <string>
#include <vector>

namespace nakika::util {

// Accumulates scalar samples and answers percentile / CDF queries. Samples
// are sorted lazily on first query.
class sample_set {
 public:
  void add(double v);
  [[nodiscard]] std::size_t count() const { return samples_.size(); }
  [[nodiscard]] double mean() const;
  [[nodiscard]] double min() const;
  [[nodiscard]] double max() const;
  // p in [0, 100]; nearest-rank percentile. Requires at least one sample.
  [[nodiscard]] double percentile(double p) const;
  // Fraction of samples <= threshold, i.e. one point of the CDF.
  [[nodiscard]] double cdf_at(double threshold) const;
  // Fraction of samples >= threshold (used for "fraction of clients seeing
  // at least the video bitrate").
  [[nodiscard]] double fraction_at_least(double threshold) const;
  // Evenly spaced CDF rendering: `points` (x = value, y = cumulative fraction)
  // suitable for printing a figure as rows.
  [[nodiscard]] std::vector<std::pair<double, double>> cdf_points(std::size_t points) const;

  void clear();

 private:
  void sort() const;
  mutable std::vector<double> samples_;
  mutable bool sorted_ = true;
};

// Exponentially weighted moving average: "the actual value is the weighted
// average of past and present consumption" (paper §3.2).
class ewma {
 public:
  explicit ewma(double alpha = 0.5) : alpha_(alpha) {}
  void update(double sample) {
    value_ = initialized_ ? alpha_ * sample + (1.0 - alpha_) * value_ : sample;
    initialized_ = true;
  }
  [[nodiscard]] double value() const { return initialized_ ? value_ : 0.0; }
  [[nodiscard]] bool initialized() const { return initialized_; }
  void reset() {
    value_ = 0.0;
    initialized_ = false;
  }

 private:
  double alpha_;
  double value_ = 0.0;
  bool initialized_ = false;
};

// Simple named counter bundle for per-run accounting (requests offered,
// rejected by throttling, dropped by termination, ...).
struct run_counters {
  std::size_t offered = 0;
  std::size_t completed = 0;
  std::size_t throttled = 0;
  std::size_t terminated = 0;
  std::size_t failed = 0;
  std::size_t rejected = 0;  // bounced at the worker queue (backpressure 503)
  // Cooperative caching: misses served from a peer node's cache vs misses
  // where the overlay was consulted but the origin had to answer.
  std::size_t peer_hits = 0;
  std::size_t peer_misses = 0;
  // Single-flight coalescing: requests that parked on another request's
  // in-flight fetch of the same URL instead of fetching upstream themselves.
  std::size_t coalesced = 0;

  [[nodiscard]] double throttled_fraction() const {
    return offered == 0 ? 0.0 : static_cast<double>(throttled) / static_cast<double>(offered);
  }
  [[nodiscard]] double terminated_fraction() const {
    return offered == 0 ? 0.0 : static_cast<double>(terminated) / static_cast<double>(offered);
  }
};

// Per-worker sharded run counters. Each worker increments its own slot
// (relaxed atomics on a dedicated cache line, so the hot path never shares a
// line across threads); snapshot() merges all slots into a plain
// run_counters. Slot 0 conventionally belongs to the caller/sim thread.
class sharded_run_counters {
 public:
  enum class field : std::size_t {
    offered = 0,
    completed,
    throttled,
    terminated,
    failed,
    rejected,
    peer_hits,
    peer_misses,
    coalesced,
  };
  static constexpr std::size_t field_count = 9;

  explicit sharded_run_counters(std::size_t slots = 1) : slots_(slots == 0 ? 1 : slots) {}

  void add(std::size_t slot, field f, std::size_t n = 1) {
    slots_[slot].v[static_cast<std::size_t>(f)].fetch_add(n, std::memory_order_relaxed);
  }

  [[nodiscard]] run_counters snapshot() const { return sum(0, slots_.size()); }
  // One slot's counters alone (which thread did the counting).
  [[nodiscard]] run_counters snapshot(std::size_t slot) const { return sum(slot, slot + 1); }

  [[nodiscard]] std::size_t slots() const { return slots_.size(); }

 private:
  struct alignas(64) slot_counters {
    std::array<std::atomic<std::size_t>, field_count> v{};
  };

  [[nodiscard]] run_counters sum(std::size_t begin, std::size_t end) const {
    std::array<std::size_t, field_count> v{};
    for (std::size_t s = begin; s < end; ++s) {
      for (std::size_t i = 0; i < field_count; ++i) {
        v[i] += slots_[s].v[i].load(std::memory_order_relaxed);
      }
    }
    run_counters out;
    out.offered = v[0];
    out.completed = v[1];
    out.throttled = v[2];
    out.terminated = v[3];
    out.failed = v[4];
    out.rejected = v[5];
    out.peer_hits = v[6];
    out.peer_misses = v[7];
    out.coalesced = v[8];
    return out;
  }

  std::vector<slot_counters> slots_;
};

// Formats a number with fixed decimals without dragging <iomanip> everywhere.
[[nodiscard]] std::string format_fixed(double v, int decimals);

}  // namespace nakika::util
