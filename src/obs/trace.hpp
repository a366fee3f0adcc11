// Telemetry tentpole, layer 2: per-request trace spans. A trace_context
// rides on the request (via core::exec_state) through pipeline → sandbox →
// http_cache → single_flight → peer_transport → origin, accumulating stage
// timings and outcome flags. Completed spans land in a bounded per-worker
// ring (span_ring) for inspection; stage durations are also folded into the
// registry's latency histograms by the node.
//
// The clock is injected (clock_fn) so the workers=0 sim path stamps spans
// with *virtual* time from the event loop — span order, attribution, and
// flags are reproducible for a fixed seed (timestamps repeat up to the
// measured script CPU the sim bills into virtual time) — while worker mode
// uses wall seconds. A null context (or clock) disables tracing with
// two-branch cost on the hot path.
#pragma once

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <vector>

#if defined(__x86_64__) || defined(_M_X64)
#include <x86intrin.h>
#define NAKIKA_OBS_HAVE_TSC 1
#endif

namespace nakika::obs {

// Cheap monotonic clock for worker-mode span stamps: one RDTSC + one
// multiply (~10ns) instead of a clock_gettime call (~40ns), calibrated once
// per process against steady_clock. Span timings tolerate TSC caveats
// (cross-socket skew, non-invariant TSC on antique hardware) that would be
// unacceptable for billing; falls back to steady_clock off x86-64.
class fast_clock {
 public:
  [[nodiscard]] static double now_seconds() {
#ifdef NAKIKA_OBS_HAVE_TSC
    const calibration& c = calib();
    return static_cast<double>(__rdtsc() - c.tsc_base) * c.seconds_per_tick;
#else
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
#endif
  }

 private:
#ifdef NAKIKA_OBS_HAVE_TSC
  struct calibration {
    std::uint64_t tsc_base;
    double seconds_per_tick;
  };
  static const calibration& calib() {
    // ~2ms spin: long enough for ~0.1% frequency accuracy, short enough to
    // be invisible at first use (thread-safe one-time static init).
    static const calibration c = [] {
      const auto w0 = std::chrono::steady_clock::now();
      const std::uint64_t t0 = __rdtsc();
      while (std::chrono::steady_clock::now() - w0 < std::chrono::milliseconds(2)) {
      }
      const std::uint64_t t1 = __rdtsc();
      const auto w1 = std::chrono::steady_clock::now();
      const double secs = std::chrono::duration<double>(w1 - w0).count();
      return calibration{t0, secs / static_cast<double>(t1 - t0)};
    }();
    return c;
  }
#endif
};

// Request stages, in rough hot-path order. `total` is end-to-end.
enum class stage : std::uint8_t {
  total = 0,
  cache_lookup,    // content-cache probe
  stage_load,      // fetching overlay stage scripts
  policy_match,    // decision-tree predicate evaluation
  script_exec,     // sandbox compile + handler execution
  coalesced_wait,  // blocked behind another flight's leader
  peer_fetch,      // DHT probe + peer transfer
  origin_fetch,    // fallthrough to the origin server
  nkp_render,      // Na Kika pipeline-composition rendering
  gc,              // script-heap cycle collection (watermark + pool-return)
  advertise,       // overlay store announcing a freshly cached copy
};
inline constexpr std::size_t stage_count = 11;

[[nodiscard]] inline const char* to_string(stage s) {
  switch (s) {
    case stage::total: return "total";
    case stage::cache_lookup: return "cache_lookup";
    case stage::stage_load: return "stage_load";
    case stage::policy_match: return "policy_match";
    case stage::script_exec: return "script_exec";
    case stage::coalesced_wait: return "coalesced_wait";
    case stage::peer_fetch: return "peer_fetch";
    case stage::origin_fetch: return "origin_fetch";
    case stage::nkp_render: return "nkp_render";
    case stage::gc: return "gc";
    case stage::advertise: return "advertise";
  }
  return "unknown";
}

// Outcome tag bits (span_record::flags).
namespace span_flag {
inline constexpr std::uint32_t cache_hit = 1u << 0;
inline constexpr std::uint32_t cache_miss = 1u << 1;
inline constexpr std::uint32_t peer_hit = 1u << 2;
inline constexpr std::uint32_t origin = 1u << 3;
inline constexpr std::uint32_t coalesced = 1u << 4;
inline constexpr std::uint32_t throttled = 1u << 5;
inline constexpr std::uint32_t terminated = 1u << 6;
inline constexpr std::uint32_t failed = 1u << 7;
inline constexpr std::uint32_t rejected = 1u << 8;
inline constexpr std::uint32_t nkp = 1u << 9;
}  // namespace span_flag

// One finished request, as recorded in the span ring.
struct span_record {
  std::string site;      // tenant (URL host)
  std::string path;
  double start = 0.0;    // trace-clock seconds at request entry
  std::array<double, stage_count> stage_seconds{};
  std::uint32_t flags = 0;
  std::uint32_t ic_hits = 0;
  std::uint32_t ic_misses = 0;
  std::uint16_t status = 0;

  [[nodiscard]] double seconds(stage s) const {
    return stage_seconds[static_cast<std::size_t>(s)];
  }
  [[nodiscard]] bool has(std::uint32_t f) const { return (flags & f) != 0; }
};

// Mutable per-request context. Not thread-safe by design: one request is
// timed by one thread at a time (the sim path is single-threaded; worker
// mode runs a request synchronously on its worker).
class trace_context {
 public:
  using clock_fn = double (*)(void*);

  trace_context() = default;
  trace_context(clock_fn clock, void* clock_arg) : clock_(clock), clock_arg_(clock_arg) {}

  [[nodiscard]] bool enabled() const { return clock_ != nullptr; }
  [[nodiscard]] double now() const { return clock_ ? clock_(clock_arg_) : 0.0; }

  void add(stage s, double seconds) {
    rec_.stage_seconds[static_cast<std::size_t>(s)] += seconds;
  }
  void flag(std::uint32_t f) { rec_.flags |= f; }
  void add_ic(std::uint32_t hits, std::uint32_t misses) {
    rec_.ic_hits += hits;
    rec_.ic_misses += misses;
  }

  span_record& record() { return rec_; }
  [[nodiscard]] const span_record& record() const { return rec_; }

  // RAII stage timer: adds elapsed trace-clock time on destruction.
  class scoped {
   public:
    scoped(trace_context* ctx, stage s) : ctx_(ctx), stage_(s) {
      if (ctx_ != nullptr && ctx_->enabled()) begin_ = ctx_->now();
    }
    ~scoped() { stop(); }
    scoped(const scoped&) = delete;
    scoped& operator=(const scoped&) = delete;

    // After an explicit stop() the destructor touches nothing, so a span
    // stopped before a continuation may outlive the request it timed.
    void stop() {
      if (!stopped_ && ctx_ != nullptr && ctx_->enabled()) {
        ctx_->add(stage_, ctx_->now() - begin_);
        stopped_ = true;
      }
    }

   private:
    trace_context* ctx_;
    stage stage_;
    double begin_ = 0.0;
    bool stopped_ = false;
  };

 private:
  clock_fn clock_ = nullptr;
  void* clock_arg_ = nullptr;
  span_record rec_;
};

// Bounded per-worker ring of finished spans. Push is slot-private (only the
// owning worker writes a slot), guarded by a slot-local mutex that only the
// snapshot reader contends on. Storage is a flat vector used as a circular
// buffer: at capacity the oldest span is overwritten in place (move-assign
// reuses the evicted record's string capacity, so a steady-state push does
// no allocation) and counted as dropped.
class span_ring {
 public:
  span_ring(std::size_t slots, std::size_t capacity_per_slot)
      : slots_(slots == 0 ? 1 : slots), capacity_(capacity_per_slot) {}

  void push(std::size_t slot, span_record&& rec) {
    if (capacity_ == 0) return;
    slot_state& s = slots_[slot];
    const std::lock_guard<std::mutex> lock(s.mu);
    if (s.spans.size() < capacity_) {
      s.spans.push_back(std::move(rec));
    } else {
      s.spans[s.head] = std::move(rec);
      s.head = (s.head + 1) % capacity_;
      s.dropped += 1;
    }
  }

  // All retained spans, slot 0 (sim/caller thread) first, oldest-first
  // within a slot.
  [[nodiscard]] std::vector<span_record> snapshot() const {
    std::vector<span_record> out;
    for (const slot_state& s : slots_) {
      const std::lock_guard<std::mutex> lock(s.mu);
      for (std::size_t i = 0; i < s.spans.size(); ++i) {
        out.push_back(s.spans[(s.head + i) % s.spans.size()]);
      }
    }
    return out;
  }

  [[nodiscard]] std::uint64_t dropped() const {
    std::uint64_t n = 0;
    for (const slot_state& s : slots_) {
      const std::lock_guard<std::mutex> lock(s.mu);
      n += s.dropped;
    }
    return n;
  }

  [[nodiscard]] std::size_t size() const {
    std::size_t n = 0;
    for (const slot_state& s : slots_) {
      const std::lock_guard<std::mutex> lock(s.mu);
      n += s.spans.size();
    }
    return n;
  }

  [[nodiscard]] std::size_t capacity_per_slot() const { return capacity_; }

 private:
  struct alignas(64) slot_state {
    mutable std::mutex mu;
    std::vector<span_record> spans;  // circular once size reaches capacity
    std::size_t head = 0;            // index of the oldest span when full
    std::uint64_t dropped = 0;
  };
  std::deque<slot_state> slots_;
  std::size_t capacity_;
};

}  // namespace nakika::obs
