// Measurement plumbing shared by every workload: clocks, CPU accounting,
// order statistics, run-health readings, and the result line. Everything
// here is plain functions over plain data so selftest.cpp can check the
// metric math without running a node.
#pragma once

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <ctime>
#include <fstream>
#include <string>
#include <vector>

namespace perfbench {

// Monotonic wall clock in nanoseconds (steady_clock's epoch).
inline std::int64_t now_ns() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

// CPU time of the calling thread, nanoseconds.
inline std::int64_t thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

// User + system CPU time of the whole process (every thread), nanoseconds.
inline std::int64_t process_cpu_ns() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto ns = [](const timeval& tv) {
    return static_cast<std::int64_t>(tv.tv_sec) * 1'000'000'000 +
           static_cast<std::int64_t>(tv.tv_usec) * 1'000;
  };
  return ns(ru.ru_utime) + ns(ru.ru_stime);
}

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#endif
}

// Process CPU spent over an interval minus what the load generator's own
// thread spent in it: the serving cost of the requests, without the
// generator's spinning. Both readings are taken at the interval's two ends.
struct cpu_reading {
  std::int64_t process_ns = 0;
  std::int64_t generator_ns = 0;

  static cpu_reading take() { return {process_cpu_ns(), thread_cpu_ns()}; }
};

inline double serving_cpu_us_per_request(const cpu_reading& begin, const cpu_reading& end,
                                         std::uint64_t completed) {
  if (completed == 0) return 0.0;
  const double serving_ns = static_cast<double>((end.process_ns - begin.process_ns) -
                                                (end.generator_ns - begin.generator_ns));
  return serving_ns / 1e3 / static_cast<double>(completed);
}

// Requests completed per second over a fixed request count.
inline double throughput(std::uint64_t completed, std::int64_t elapsed_ns) {
  if (elapsed_ns <= 0) return 0.0;
  return static_cast<double>(completed) / (static_cast<double>(elapsed_ns) * 1e-9);
}

// A percentile together with the number of samples it came from and how
// many samples lie above it.
struct percentile {
  double q = 0.0;
  double value = 0.0;
  std::size_t samples = 0;
  std::size_t beyond = 0;
};

// Nearest-rank percentile of `sorted` (ascending): the smallest sample with
// at least q*n samples at or below it.
inline percentile nearest_rank(const std::vector<double>& sorted, double q) {
  percentile p;
  p.q = q;
  p.samples = sorted.size();
  if (sorted.empty()) return p;
  auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(sorted.size())));
  rank = std::clamp<std::size_t>(rank, 1, sorted.size());
  p.value = sorted[rank - 1];
  p.beyond = sorted.size() - rank;
  return p;
}

// The highest of p99.99 / p99.9 / p99 / p90 / p50 that still has at least
// ten samples beyond it (the tail a sample of this size can honestly show).
inline percentile honest_tail(const std::vector<double>& sorted) {
  for (const double q : {0.9999, 0.999, 0.99, 0.9}) {
    const percentile p = nearest_rank(sorted, q);
    if (p.beyond >= 10) return p;
  }
  return nearest_rank(sorted, 0.5);
}

inline double median_of(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// A timing figure of one phase and the hypervisor steal share while it ran.
struct steal_figure {
  double steal = 0.0;
  double value = 0.0;
};

// Median of the values of the `n` figures measured under the least steal.
// Only the steal reading picks them, never the value.
inline double median_of_quietest(std::vector<steal_figure> figures, std::size_t n) {
  std::stable_sort(figures.begin(), figures.end(),
                   [](const steal_figure& a, const steal_figure& b) { return a.steal < b.steal; });
  std::vector<double> values;
  for (std::size_t i = 0; i < figures.size() && i < n; ++i) values.push_back(figures[i].value);
  return median_of(std::move(values));
}

// Stall bursts: maximal runs of consecutive samples above `threshold`
// (one long stall delays many back-to-back requests; it counts once).
inline std::size_t count_bursts(const std::vector<double>& in_order, double threshold) {
  std::size_t bursts = 0;
  bool in_burst = false;
  for (const double v : in_order) {
    if (v > threshold && !in_burst) ++bursts;
    in_burst = v > threshold;
  }
  return bursts;
}

// Aggregate CPU jiffies from the first line of /proc/stat.
struct cpu_jiffies {
  std::uint64_t total = 0;
  std::uint64_t steal = 0;

  static cpu_jiffies read() {
    cpu_jiffies j;
    std::ifstream in("/proc/stat");
    std::string cpu;
    std::uint64_t field = 0;
    in >> cpu;
    for (int i = 0; i < 10 && (in >> field); ++i) {
      j.total += field;
      if (i == 7) j.steal = field;  // user nice system idle iowait irq softirq steal
    }
    return j;
  }
};

inline double steal_share(const cpu_jiffies& a, const cpu_jiffies& b) {
  const std::uint64_t total = b.total - a.total;
  return total == 0 ? 0.0 : static_cast<double>(b.steal - a.steal) / static_cast<double>(total);
}

// Peak resident set (VmHWM) of this process, MiB.
inline double peak_rss_mib() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  return 0.0;
}

// FNV-1a, used for sequence digests and sampled-body fingerprints.
struct fnv1a {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void add(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) h = (h ^ p[i]) * 0x100000001b3ULL;
  }
  template <typename T>
  void add_value(const T& v) {
    add(&v, sizeof(v));
  }
  void add_string(const std::string& s) {
    add(s.data(), s.size());
    add_value(s.size());
  }
};

// Runs the metric-math checks; prints one line per failure to stderr and
// returns the number of failures.
int run_self_tests();

}  // namespace perfbench
