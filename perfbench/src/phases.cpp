#include "phases.hpp"

#include <cstdlib>
#include <string>

namespace perfbench {

namespace {

void submit(phase& ph, std::size_t i) {
  const std::size_t pos = ph.begin + i;
  const std::uint32_t req = ph.order[pos];
  nk::proxy::nakika_node& node = *ph.env.nodes[pos % ph.env.nodes.size()];
  phase* p = &ph;
  const auto idx = static_cast<std::uint32_t>(i);
  auto on_done = [p, idx](nk::http::response resp) {
    const std::int64_t t = now_ns();
    const std::uint32_t r = p->order[p->begin + idx];
    p->record(idx, response_ok(resp, p->in.expectations[p->in.expect_of[r]]), t);
  };
  if (ph.traced) {
    nk::http::request stamped = ph.in.requests[req];
    stamped.headers.set(k_request_id_header, std::to_string(pos));
    ph.submit_begin[i] = now_ns();
    node.handle(stamped, on_done);
    ph.submit_end[i] = now_ns();
  } else {
    ph.submit_begin[i] = now_ns();
    node.handle(ph.in.requests[req], on_done);
  }
  ++ph.submitted;
}

void drain(phase& ph) {
  for (auto& node : ph.env.nodes) node->drain();
  ph.end_ns = now_ns();
  for (std::size_t t = 0; t < ph.log_threads.load(); ++t) {
    for (const phase::completion& c : ph.logs[t].entries) {
      ph.done[c.index] = c.at;
      ph.good[c.index] = c.good ? 1 : 0;
    }
  }
}

}  // namespace

void phase::record(std::uint32_t index, bool ok, std::int64_t at) {
  // This thread's log slot, registered on its first completion in the phase.
  thread_local std::uint64_t owner = 0;
  thread_local std::size_t slot = 0;
  if (owner != id) {
    const std::lock_guard<std::mutex> lock(log_registration);
    slot = log_threads.load(std::memory_order_relaxed);
    if (slot == k_max_threads) std::abort();  // more completing threads than any workload has
    logs[slot].entries.reserve(count);
    log_threads.store(slot + 1, std::memory_order_release);
    owner = id;
  }
  thread_log& log = logs[slot];
  log.entries.push_back({index, ok, at});
  log.count.store(log.entries.size(), std::memory_order_release);
}

std::uint64_t phase::completed() const {
  std::uint64_t n = 0;
  const std::size_t threads = log_threads.load(std::memory_order_acquire);
  for (std::size_t t = 0; t < threads; ++t) n += logs[t].count.load(std::memory_order_acquire);
  return n;
}

std::uint64_t phase::ok() const {
  std::uint64_t n = 0;
  for (std::size_t i = 0; i < submitted; ++i) n += good[i];
  return n;
}

void run_closed(phase& ph, std::size_t window, std::int64_t deadline_ns) {
  ph.start_ns = now_ns();
  for (std::size_t i = 0; i < ph.count; ++i) {
    while (i - ph.completed() >= window) cpu_relax();
    if (deadline_ns != 0 && now_ns() > deadline_ns) break;
    submit(ph, i);
  }
  drain(ph);
}

void run_open(phase& ph, const std::vector<std::int64_t>& arrivals_ns) {
  ph.due.assign(ph.count, 0);
  ph.start_ns = now_ns() + 1'000'000;  // first arrival 1 ms out
  for (std::size_t i = 0; i < ph.count; ++i) {
    const std::int64_t due = ph.start_ns + arrivals_ns[i];
    while (now_ns() < due) cpu_relax();
    ph.due[i] = due;
    submit(ph, i);
  }
  drain(ph);
}

}  // namespace perfbench
