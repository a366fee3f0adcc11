// Checks of the benchmark's own metric math, run at the start of every
// invocation (and alone with --self-test). A failure marks the run's result
// incorrect.
#include <cstdio>
#include <numeric>
#include <string>
#include <thread>

#include "harness.hpp"
#include "workload.hpp"

namespace perfbench {

namespace {

int failures = 0;

void check(bool ok, const char* what) {
  if (ok) return;
  ++failures;
  std::printf("self-test FAILED: %s\n", what);
}

bool near(double a, double b, double rel) { return std::abs(a - b) <= rel * std::abs(b); }

void spin_thread_cpu(std::int64_t ns) {
  const std::int64_t until = thread_cpu_ns() + ns;
  volatile std::uint64_t sink = 0;
  while (thread_cpu_ns() < until) sink = sink + 1;
}

void percentiles() {
  std::vector<double> v(100);
  std::iota(v.begin(), v.end(), 1.0);  // 1..100
  const percentile p50 = nearest_rank(v, 0.5);
  check(p50.value == 50.0 && p50.samples == 100 && p50.beyond == 50, "p50 of 1..100");
  const percentile p99 = nearest_rank(v, 0.99);
  check(p99.value == 99.0 && p99.beyond == 1, "p99 of 1..100");
  check(nearest_rank(v, 1.0).value == 100.0, "p100 is the maximum");
  check(nearest_rank({}, 0.5).samples == 0, "empty sample has no percentile");
  // 100 samples show p90 honestly (10 beyond), not p99 (1 beyond).
  const percentile tail = honest_tail(v);
  check(tail.q == 0.9 && tail.beyond == 10, "honest tail of 100 samples is p90");
  std::vector<double> big(5000);
  std::iota(big.begin(), big.end(), 1.0);
  check(honest_tail(big).q == 0.99, "honest tail of 5000 samples is p99");
  check(median_of({3.0, 1.0, 2.0}) == 2.0 && median_of({4.0, 1.0, 3.0, 2.0}) == 2.5,
        "median of odd and even counts");
  // The two quietest are 5 and 9 (not the two smallest values, 1 and 5).
  check(median_of_quietest({{0.20, 1.0}, {0.01, 5.0}, {0.02, 9.0}, {0.10, 2.0}}, 2) == 7.0,
        "median of the quietest figures selects by steal only");
  check(count_bursts({0.0, 2.0, 2.0, 0.0, 3.0, 0.0, 0.0, 5.0}, 1.0) == 3,
        "consecutive stalls count as one burst");
}

void rates() {
  check(near(throughput(1000, 2'000'000'000), 500.0, 1e-12), "1000 requests in 2 s is 500/s");
  check(throughput(10, 0) == 0.0, "no elapsed time, no throughput");
  cpu_jiffies a{1000, 10};
  cpu_jiffies b{2000, 60};
  check(near(steal_share(a, b), 0.05, 1e-12), "steal share is steal over total jiffies");
}

// The serving-CPU figure must count another thread's CPU and leave out the
// calling (generator) thread's own.
void cpu_accounting() {
  constexpr std::int64_t k_worker_ns = 40'000'000;
  constexpr std::int64_t k_generator_ns = 30'000'000;
  const cpu_reading begin = cpu_reading::take();
  std::thread worker([] { spin_thread_cpu(k_worker_ns); });
  spin_thread_cpu(k_generator_ns);
  worker.join();
  const cpu_reading end = cpu_reading::take();
  const double us = serving_cpu_us_per_request(begin, end, 2);
  check(near(us, k_worker_ns / 1e3 / 2, 0.2), "serving CPU excludes the generator thread");
}

void verification() {
  const std::string body(5000, 'q');
  expectation e;
  e.size = body.size();
  e.sample = sample_fingerprint(body);
  auto response = [](std::string b, const char* type) {
    nk::http::response r = nk::http::make_response(200, type, nk::util::make_body(b));
    return r;
  };
  check(response_ok(response(body, "text/plain"), e), "fill body verifies");
  std::string bad = body;
  bad[body.size() - 1] = 'x';
  check(!response_ok(response(bad, "text/plain"), e), "a wrong last byte fails");
  check(!response_ok(response(body.substr(1), "text/plain"), e), "a short body fails");
  nk::http::response err = response(body, "text/plain");
  err.status = 503;
  check(!response_ok(err, e), "a 503 fails");
  expectation page;
  page.marker = "<h1>Module 1: workup, page 2</h1>";
  check(response_ok(response("<html><h1>Module 1: workup, page 2</h1></html>", "text/html"), page),
        "rendered page verifies");
  check(!response_ok(response("<simm module=\"m1\"/>", "text/xml"), page),
        "unrendered XML fails");
}

}  // namespace

int run_self_tests() {
  failures = 0;
  percentiles();
  rates();
  cpu_accounting();
  verification();
  return failures;
}

}  // namespace perfbench
