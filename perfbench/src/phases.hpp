// The two load shapes a run drives: a closed loop with a fixed in-flight
// window over a fixed request count, and a Poisson open loop on a
// precomputed schedule. The calling thread is the generator; completions
// are stamped and verified on the node's worker threads.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <vector>

#include "harness.hpp"
#include "workload.hpp"

namespace perfbench {

struct phase {
  // Sends requests order[first, first+n); position p goes to node
  // p % nodes.
  phase(environment& e, const inputs& i, const std::vector<std::uint32_t>& o, std::size_t first,
        std::size_t n)
      : env(e), in(i), order(o), begin(first), count(n), submit_begin(n, 0), submit_end(n, 0),
        done(n, 0), good(n, 0), id(next_id.fetch_add(1)) {}
  phase(const phase&) = delete;
  phase& operator=(const phase&) = delete;

  environment& env;
  const inputs& in;
  const std::vector<std::uint32_t>& order;  // request indices, usually in.sequence
  std::size_t begin;                        // first position in `order`
  std::size_t count;
  // Traced phases stamp each request with its sequence position (the id
  // the peer-transport spans join on) and time the handle() call.
  bool traced = false;

  std::vector<std::int64_t> submit_begin;  // handle() entered
  std::vector<std::int64_t> submit_end;    // handle() returned (traced only)
  std::vector<std::int64_t> due;           // open loop: scheduled send time
  std::vector<std::int64_t> done;          // completion callback ran
  std::vector<std::uint8_t> good;          // response verified
  std::size_t submitted = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;  // every node drained

  // Completions are logged per worker thread, each log written by its
  // thread alone, so recording them adds no cache-line traffic between
  // workers; drain merges the logs into done/good.
  struct completion {
    std::uint32_t index;
    bool good;
    std::int64_t at;
  };
  struct alignas(64) thread_log {
    std::vector<completion> entries;
    std::atomic<std::uint64_t> count{0};
  };
  static constexpr std::size_t k_max_threads = 16;
  std::array<thread_log, k_max_threads> logs;
  inline static std::atomic<std::uint64_t> next_id{1};
  const std::uint64_t id;  // unique per phase, unlike its address
  std::atomic<std::size_t> log_threads{0};
  std::mutex log_registration;

  void record(std::uint32_t index, bool ok, std::int64_t at);
  [[nodiscard]] std::uint64_t completed() const;
  [[nodiscard]] std::uint64_t ok() const;
};

// Submits order[begin, begin+count) keeping at most `window` in flight;
// stops submitting early once `deadline_ns` passes (0 = no deadline).
void run_closed(phase& ph, std::size_t window, std::int64_t deadline_ns = 0);

// Submits request i at start + arrivals_ns[i].
void run_open(phase& ph, const std::vector<std::int64_t>& arrivals_ns);

}  // namespace perfbench
