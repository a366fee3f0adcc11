#include "core/worker_pool.hpp"

#include <algorithm>

namespace nakika::core {

namespace {

std::size_t next_pow2(std::size_t v) {
  std::size_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

}  // namespace

// ----- steal_ring -------------------------------------------------------------

worker_pool::steal_ring::steal_ring(std::size_t capacity_pow2)
    : mask_(capacity_pow2 - 1), cells_(capacity_pow2) {
  for (std::size_t i = 0; i < cells_.size(); ++i) {
    cells_[i].seq.store(i, std::memory_order_relaxed);
  }
}

bool worker_pool::steal_ring::push(job&& j) {
  std::size_t pos = tail_.load(std::memory_order_relaxed);
  cell* c;
  for (;;) {
    c = &cells_[pos & mask_];
    const std::size_t seq = c->seq.load(std::memory_order_acquire);
    const auto dif = static_cast<std::intptr_t>(seq) - static_cast<std::intptr_t>(pos);
    if (dif == 0) {
      if (tail_.compare_exchange_weak(pos, pos + 1, std::memory_order_relaxed)) break;
    } else if (dif < 0) {
      return false;  // ring full
    } else {
      pos = tail_.load(std::memory_order_relaxed);
    }
  }
  c->item = std::move(j);
  c->seq.store(pos + 1, std::memory_order_release);
  return true;
}

bool worker_pool::steal_ring::pop(job& out) {
  std::size_t pos = head_.load(std::memory_order_relaxed);
  cell* c;
  for (;;) {
    c = &cells_[pos & mask_];
    const std::size_t seq = c->seq.load(std::memory_order_acquire);
    const auto dif =
        static_cast<std::intptr_t>(seq) - static_cast<std::intptr_t>(pos + 1);
    if (dif == 0) {
      if (head_.compare_exchange_weak(pos, pos + 1, std::memory_order_relaxed)) break;
    } else if (dif < 0) {
      return false;  // ring empty
    } else {
      pos = head_.load(std::memory_order_relaxed);
    }
  }
  out = std::move(c->item);
  c->item = nullptr;  // drop captured state now, not at the next overwrite
  c->seq.store(pos + mask_ + 1, std::memory_order_release);
  return true;
}

std::size_t worker_pool::steal_ring::size() const {
  const std::size_t t = tail_.load(std::memory_order_relaxed);
  const std::size_t h = head_.load(std::memory_order_relaxed);
  return t >= h ? t - h : 0;
}

// ----- worker_pool ------------------------------------------------------------

worker_pool::worker_pool(worker_pool_config config) : config_(config) {
  if (config_.workers == 0) config_.workers = 1;
  if (config_.queue_capacity == 0) config_.queue_capacity = 1;
  // Per-ring capacity: enough that a ring rarely overflows under the
  // aggregate bound, capped so huge queue_capacity values don't multiply
  // into huge per-worker allocations (the overflow deque absorbs the rest).
  const std::size_t ring_cap =
      next_pow2(std::min<std::size_t>(std::max<std::size_t>(config_.queue_capacity, 2), 4096));
  rings_.reserve(config_.workers);
  stats_.reserve(config_.workers);
  contexts_.reserve(config_.workers);
  threads_.reserve(config_.workers);
  for (std::size_t i = 0; i < config_.workers; ++i) {
    rings_.push_back(std::make_unique<steal_ring>(ring_cap));
    stats_.push_back(std::make_unique<worker_stats>());
    contexts_.push_back(std::make_unique<worker_context>(
        i, config_.rng_seed + static_cast<std::uint64_t>(i)));
  }
  // Contexts and rings are fully built before any thread starts, so
  // worker_main never observes a partially constructed vector.
  for (std::size_t i = 0; i < config_.workers; ++i) {
    threads_.emplace_back([this, i] { worker_main(*contexts_[i]); });
  }
}

worker_pool::~worker_pool() { stop(); }

void worker_pool::route(job&& j, std::size_t preferred) {
  // Affinity first; if that ring is disproportionately deep (a hot site
  // monopolizing one worker) or full, fall back to round-robin, then to the
  // overflow deque. The aggregate queued_ reservation already succeeded, so
  // the job must land somewhere.
  const std::size_t n = rings_.size();
  const std::size_t fair =
      queued_.load(std::memory_order_relaxed) / n + rings_[preferred]->capacity() / 4;
  if (rings_[preferred]->size() <= fair && rings_[preferred]->push(std::move(j))) {
    return;
  }
  const std::size_t rr =
      static_cast<std::size_t>(rr_next_.fetch_add(1, std::memory_order_relaxed)) % n;
  if (rr != preferred && rings_[rr]->push(std::move(j))) return;
  overflow_submits_.fetch_add(1, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(overflow_mu_);
    overflow_.push_back(std::move(j));
    overflow_size_.store(overflow_.size(), std::memory_order_relaxed);
  }
}

void worker_pool::wake_one() {
  if (sleepers_.load(std::memory_order_seq_cst) == 0) return;
  // Empty critical section orders the queued_ increment against the
  // sleeper's predicate check, closing the lost-wakeup window.
  { std::lock_guard<std::mutex> lock(wake_mu_); }
  wake_cv_.notify_one();
}

bool worker_pool::try_submit(job j) {
  const std::size_t n = rings_.size();
  const std::size_t rr =
      static_cast<std::size_t>(rr_next_.fetch_add(1, std::memory_order_relaxed)) % n;
  return try_submit(std::move(j), static_cast<std::uint64_t>(rr) * n + rr);
}

bool worker_pool::try_submit(job j, std::uint64_t affinity) {
  // Reserve a queue slot against the aggregate bound first — this keeps the
  // full→503 semantics exact no matter which ring the job lands in.
  std::size_t q = queued_.load(std::memory_order_relaxed);
  for (;;) {
    if (stopping_.load(std::memory_order_relaxed) || q >= config_.queue_capacity) {
      rejected_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    if (queued_.compare_exchange_weak(q, q + 1, std::memory_order_seq_cst)) break;
  }
  pending_.fetch_add(1, std::memory_order_relaxed);
  const std::size_t depth = q + 1;
  std::size_t seen = peak_depth_.load(std::memory_order_relaxed);
  while (depth > seen &&
         !peak_depth_.compare_exchange_weak(seen, depth, std::memory_order_relaxed)) {
  }
  route(std::move(j), static_cast<std::size_t>(affinity % rings_.size()));
  wake_one();
  return true;
}

bool worker_pool::pop_overflow(job& out) {
  if (overflow_size_.load(std::memory_order_relaxed) == 0) return false;
  std::lock_guard<std::mutex> lock(overflow_mu_);
  if (overflow_.empty()) return false;
  out = std::move(overflow_.front());
  overflow_.pop_front();
  overflow_size_.store(overflow_.size(), std::memory_order_relaxed);
  return true;
}

bool worker_pool::try_get(std::size_t self, job& out) {
  if (rings_[self]->pop(out)) {
    queued_.fetch_sub(1, std::memory_order_relaxed);
    return true;
  }
  if (pop_overflow(out)) {
    queued_.fetch_sub(1, std::memory_order_relaxed);
    return true;
  }
  const std::size_t n = rings_.size();
  for (std::size_t k = 1; k < n; ++k) {
    const std::size_t victim = (self + k) % n;
    if (rings_[victim]->pop(out)) {
      queued_.fetch_sub(1, std::memory_order_relaxed);
      stats_[self]->steals.fetch_add(1, std::memory_order_relaxed);
      return true;
    }
  }
  return false;
}

void worker_pool::drain() {
  std::unique_lock<std::mutex> lock(wake_mu_);
  idle_cv_.wait(lock, [this] { return pending_.load(std::memory_order_seq_cst) == 0; });
}

void worker_pool::stop() {
  stopping_.store(true, std::memory_order_seq_cst);
  { std::lock_guard<std::mutex> lock(wake_mu_); }
  wake_cv_.notify_all();
  for (auto& t : threads_) {
    if (t.joinable()) t.join();
  }
}

std::size_t worker_pool::queue_depth(std::size_t worker) const {
  return worker < rings_.size() ? rings_[worker]->size() : 0;
}

std::uint64_t worker_pool::steals(std::size_t worker) const {
  return worker < stats_.size() ? stats_[worker]->steals.load(std::memory_order_relaxed)
                                : 0;
}

std::uint64_t worker_pool::total_steals() const {
  std::uint64_t total = 0;
  for (const auto& s : stats_) total += s->steals.load(std::memory_order_relaxed);
  return total;
}

std::size_t worker_pool::sandboxes_created() const {
  std::size_t total = 0;
  for (const auto& wc : contexts_) total += wc->created();
  return total;
}

void worker_pool::worker_main(worker_context& wc) {
  const std::size_t self = wc.index();
  // Spin budget before parking: cache-hit jobs are microseconds, so a short
  // burst of retries usually finds work without touching the wake mutex.
  constexpr int k_spin = 64;
  job j;
  for (;;) {
    bool got = false;
    for (int spin = 0; spin < k_spin; ++spin) {
      if (try_get(self, j)) {
        got = true;
        break;
      }
      // Nothing visible anywhere. If the pool is stopping and the aggregate
      // count is zero, every submitted job has been claimed — exit.
      if (queued_.load(std::memory_order_seq_cst) == 0) {
        if (stopping_.load(std::memory_order_seq_cst)) return;
        break;  // genuinely idle: park instead of burning the core
      }
      // queued_ > 0 but no ring delivered: a submit is mid-publish — retry.
    }
    if (got) {
      try {
        j(wc);
      } catch (...) {
        // An exception escaping a job (a throwing completion callback, OOM
        // mid-response) must not unwind out of the thread function — that
        // would std::terminate the whole process. Count it and keep serving.
        job_exceptions_.fetch_add(1, std::memory_order_relaxed);
      }
      j = nullptr;  // drop captured state before sleeping/spinning
      executed_.fetch_add(1, std::memory_order_relaxed);
      if (pending_.fetch_sub(1, std::memory_order_seq_cst) == 1) {
        { std::lock_guard<std::mutex> lock(wake_mu_); }
        idle_cv_.notify_all();
      }
      continue;
    }
    if (stopping_.load(std::memory_order_seq_cst) &&
        queued_.load(std::memory_order_seq_cst) == 0) {
      return;
    }
    sleepers_.fetch_add(1, std::memory_order_seq_cst);
    {
      std::unique_lock<std::mutex> lock(wake_mu_);
      wake_cv_.wait(lock, [this] {
        return stopping_.load(std::memory_order_seq_cst) ||
               queued_.load(std::memory_order_seq_cst) > 0;
      });
    }
    sleepers_.fetch_sub(1, std::memory_order_seq_cst);
  }
}

}  // namespace nakika::core
