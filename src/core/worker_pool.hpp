// Multi-worker request execution (ROADMAP: "per-worker queues with work
// stealing instead of the single MPMC queue"). A worker_pool owns N threads,
// each fed by its own bounded lock-free ring; submitters route jobs by site
// affinity (same site → same worker → warm sandbox pool) with round-robin
// fallback, and a mutex-guarded overflow deque absorbs bursts that overrun a
// single ring. Workers that run dry steal from sibling rings before
// sleeping, so one hot ring cannot idle the rest of the pool. Aggregate
// admission stays exactly as before: one atomic queued-count against
// queue_capacity, so a full pool rejects the submit and the caller sheds
// load with a 503, mirroring the paper's congestion-based resource controls
// (server-busy flag, §4). Each worker owns a private worker_context — its
// own RNG and per-site sandbox pools — so the only state jobs share is what
// the node explicitly locked (http_cache shards, script caches, the
// compiled-chunk cache, local_store, resource_manager).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/sandbox.hpp"
#include "util/random.hpp"

namespace nakika::core {

struct worker_pool_config {
  std::size_t workers = 1;
  // Bounded request queue (aggregate across all per-worker rings plus the
  // overflow deque); try_submit fails when full (backpressure).
  std::size_t queue_capacity = 1024;
  // Per-worker RNGs are seeded rng_seed + worker index, so admission draws
  // stay deterministic per worker even though cross-worker interleaving
  // is not.
  std::uint64_t rng_seed = 42;
};

// What a job sees: the identity, randomness, and per-site sandbox pools
// (paper: contexts cost ~1.5 ms to create, ~3 µs to reuse — pooling
// matters) of the thread executing it; the node's caller thread has one
// too. Never shared across threads — acquire/release and the RNG are only
// touched by the owning thread, so none of it needs locks.
class worker_context : public sandbox_pool {
 public:
  worker_context(std::size_t index, std::uint64_t rng_seed)
      : index_(index), rng_(rng_seed) {}

  [[nodiscard]] std::size_t index() const { return index_; }
  [[nodiscard]] util::rng& rng() { return rng_; }

 private:
  std::size_t index_;
  util::rng rng_;
};

class worker_pool {
 public:
  using job = std::function<void(worker_context&)>;

  explicit worker_pool(worker_pool_config config);
  ~worker_pool();  // stops accepting, drains queued jobs, joins

  worker_pool(const worker_pool&) = delete;
  worker_pool& operator=(const worker_pool&) = delete;

  // Enqueues a job; returns false (without blocking) when the pool is at
  // aggregate capacity or stopping — the backpressure signal. Routing is
  // round-robin across worker rings.
  bool try_submit(job j);
  // Same, but routes to the worker `affinity % workers()` first (site
  // affinity: requests for one site land on the worker whose sandbox pool
  // is already warm for it). Falls back to round-robin when that ring is
  // disproportionately deep, then to the overflow deque.
  bool try_submit(job j, std::uint64_t affinity);

  // Blocks until every submitted job has finished and the queues are empty.
  void drain();

  // Stops accepting new jobs, runs what is queued, joins the threads.
  // Idempotent; the destructor calls it.
  void stop();

  [[nodiscard]] std::size_t workers() const { return contexts_.size(); }
  [[nodiscard]] std::uint64_t executed() const {
    return executed_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t rejected() const {
    return rejected_.load(std::memory_order_relaxed);
  }
  // Jobs whose execution escaped with an exception (swallowed so the worker
  // thread survives). Anything non-zero indicates a bug in a job or caller.
  [[nodiscard]] std::uint64_t job_exceptions() const {
    return job_exceptions_.load(std::memory_order_relaxed);
  }
  // Jobs queued but not yet started, aggregated across every per-worker
  // ring and the overflow deque (the admission count, so it is exact).
  [[nodiscard]] std::size_t queue_depth() const {
    return queued_.load(std::memory_order_relaxed);
  }
  // Approximate depth of one worker's ring (operator telemetry).
  [[nodiscard]] std::size_t queue_depth(std::size_t worker) const;
  // Jobs currently waiting in the overflow deque.
  [[nodiscard]] std::size_t overflow_depth() const {
    return overflow_size_.load(std::memory_order_relaxed);
  }
  // Submits that missed every ring and landed in the overflow deque.
  [[nodiscard]] std::uint64_t overflow_submits() const {
    return overflow_submits_.load(std::memory_order_relaxed);
  }
  // Jobs a worker took from a sibling's ring.
  [[nodiscard]] std::uint64_t steals(std::size_t worker) const;
  [[nodiscard]] std::uint64_t total_steals() const;
  [[nodiscard]] std::size_t queue_capacity() const { return config_.queue_capacity; }
  // Peak aggregate queue depth observed at submit time (sizing feedback for
  // operators); spans every ring plus the overflow deque.
  [[nodiscard]] std::size_t peak_queue_depth() const {
    return peak_depth_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::size_t high_watermark() const { return peak_queue_depth(); }
  [[nodiscard]] std::size_t sandboxes_created() const;

 private:
  // 64 on every target we build for; a fixed value avoids the ABI-stability
  // warning std::hardware_destructive_interference_size carries on GCC.
  static constexpr std::size_t k_cache_line = 64;

  // Bounded MPMC ring (Vyukov sequence-counter scheme). Producers are the
  // submitting threads; consumers are the owning worker and any thief, so
  // both ends are multi-access. Every slot carries its own sequence number:
  // push claims a slot with one CAS on tail_ and publishes with a release
  // store of seq; pop symmetrically on head_. No mutex anywhere.
  class steal_ring {
   public:
    explicit steal_ring(std::size_t capacity_pow2);

    bool push(job&& j);
    bool pop(job& out);
    [[nodiscard]] std::size_t size() const;
    [[nodiscard]] std::size_t capacity() const { return cells_.size(); }

   private:
    struct cell {
      std::atomic<std::size_t> seq{0};
      job item;
    };

    std::size_t mask_;
    std::vector<cell> cells_;
    alignas(k_cache_line) std::atomic<std::size_t> tail_{0};  // producers
    alignas(k_cache_line) std::atomic<std::size_t> head_{0};  // consumers
  };

  struct alignas(k_cache_line) worker_stats {
    std::atomic<std::uint64_t> steals{0};
  };

  void worker_main(worker_context& wc);
  // One dequeue attempt for worker `self`: own ring, then overflow, then a
  // steal sweep over sibling rings. Decrements queued_ on success.
  bool try_get(std::size_t self, job& out);
  bool pop_overflow(job& out);
  void route(job&& j, std::size_t preferred);
  void wake_one();

  worker_pool_config config_;
  std::vector<std::unique_ptr<steal_ring>> rings_;
  std::vector<std::unique_ptr<worker_stats>> stats_;
  std::vector<std::unique_ptr<worker_context>> contexts_;
  std::vector<std::thread> threads_;

  // Aggregate admission/state counters. queued_ = submitted-not-yet-started
  // (the 503 bound); pending_ = submitted-not-yet-finished (the drain bound).
  alignas(k_cache_line) std::atomic<std::size_t> queued_{0};
  alignas(k_cache_line) std::atomic<std::size_t> pending_{0};
  alignas(k_cache_line) std::atomic<std::uint64_t> rr_next_{0};
  std::atomic<bool> stopping_{false};

  // Overflow path: only touched when a ring overflows, so the mutex is off
  // the common path entirely.
  mutable std::mutex overflow_mu_;
  std::deque<job> overflow_;
  std::atomic<std::size_t> overflow_size_{0};
  std::atomic<std::uint64_t> overflow_submits_{0};

  // Sleep/wake + drain coordination. Workers spin briefly before parking;
  // producers take wake_mu_ only when a sleeper is registered.
  std::mutex wake_mu_;
  std::condition_variable wake_cv_;
  std::condition_variable idle_cv_;
  std::atomic<std::size_t> sleepers_{0};

  std::atomic<std::uint64_t> executed_{0};
  std::atomic<std::uint64_t> rejected_{0};
  std::atomic<std::uint64_t> job_exceptions_{0};
  std::atomic<std::size_t> peak_depth_{0};
};

}  // namespace nakika::core
