// Telemetry tier tests: histogram bucket math and percentile units, the
// lock-free registry under concurrent record/snapshot (the TSan target for
// the retired stats mutex), span-ring overflow accounting, fault-injector
// counters, the node's telemetry_json/stats_report export with per-stage and
// per-tenant breakdowns, bounded site logs, and the workers=0 determinism
// regression (telemetry on/off must not perturb a fixed-seed run).
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "net/fault_injection.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "proxy/deployment.hpp"
#include "sim/topology.hpp"

namespace nakika {
namespace {

// ----- histogram bucket math ---------------------------------------------------------

TEST(LatencyHistogram, LinearBucketsAreExact) {
  for (std::uint64_t m = 0; m < obs::latency_histogram::linear_buckets; ++m) {
    EXPECT_EQ(obs::latency_histogram::bucket_index(m), m);
    EXPECT_EQ(obs::latency_histogram::bucket_lower_micros(m), m);
    EXPECT_EQ(obs::latency_histogram::bucket_upper_micros(m), m + 1);
  }
}

TEST(LatencyHistogram, BucketBoundsRoundTrip) {
  for (std::size_t i = 0; i < obs::latency_histogram::bucket_count; ++i) {
    const std::uint64_t lower = obs::latency_histogram::bucket_lower_micros(i);
    const std::uint64_t upper = obs::latency_histogram::bucket_upper_micros(i);
    ASSERT_LT(lower, upper);
    EXPECT_EQ(obs::latency_histogram::bucket_index(lower), i) << "lower bound of " << i;
    EXPECT_EQ(obs::latency_histogram::bucket_index(upper - 1), i) << "upper bound of " << i;
  }
  // Values beyond the top octave clamp into the last bucket.
  EXPECT_EQ(obs::latency_histogram::bucket_index(1ULL << 50),
            obs::latency_histogram::bucket_count - 1);
}

TEST(LatencyHistogram, IndexIsMonotone) {
  std::size_t prev = 0;
  for (std::uint64_t m = 1; m < (1ULL << 22); m = m + 1 + m / 3) {
    const std::size_t idx = obs::latency_histogram::bucket_index(m);
    EXPECT_GE(idx, prev) << "at " << m;
    prev = idx;
  }
}

TEST(LatencyHistogram, PercentilesReportBucketUpperBoundUnits) {
  obs::latency_histogram h;
  for (int i = 0; i < 90; ++i) h.record_seconds(0.001);   // 1 ms
  for (int i = 0; i < 10; ++i) h.record_seconds(0.100);   // 100 ms
  const obs::histogram_summary s = obs::summarize(h);
  EXPECT_EQ(s.count, 100u);
  // Log-scale buckets have <= 12.5% width: the quantile is the bucket upper
  // bound, so it is >= the true value and within one bucket of it.
  EXPECT_GE(s.p50, 0.001);
  EXPECT_LE(s.p50, 0.001 * 1.125);
  EXPECT_GE(s.p99, 0.100);
  EXPECT_LE(s.p99, 0.100 * 1.125);
  EXPECT_GE(s.p999, 0.100);
  EXPECT_GE(s.max, 0.100);
  EXPECT_GT(s.mean, 0.001);
  EXPECT_LT(s.mean, 0.100);
}

TEST(LatencyHistogram, SubMicrosecondRecordsLandInBucketZero) {
  obs::latency_histogram h;
  h.record_seconds(2e-7);
  h.record_seconds(0.0);
  h.record_seconds(-1.0);  // clamped, never UB
  EXPECT_EQ(h.bucket(0), 3u);
}

// ----- registry: concurrent record vs snapshot (TSan target) -------------------------

TEST(MetricsRegistry, ConcurrentRecordAndSnapshotExactTotals) {
  constexpr std::size_t k_threads = 8;
  constexpr std::uint64_t k_iters = 50'000;
  obs::metrics_registry reg(k_threads);
  const auto ops = reg.counter("test.ops");
  const auto lat = reg.histogram("test.latency");

  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_acquire)) {
      const obs::metrics_snapshot snap = reg.snapshot();
      // Totals are monotone and never torn beyond the running sum.
      ASSERT_LE(snap.counters.at("test.ops"), k_threads * k_iters);
    }
  });
  std::vector<std::thread> writers;
  for (std::size_t t = 0; t < k_threads; ++t) {
    writers.emplace_back([&, t] {
      for (std::uint64_t i = 0; i < k_iters; ++i) {
        reg.add(t, ops);
        reg.record_micros(t, lat, 100 + t);
      }
    });
  }
  for (auto& w : writers) w.join();
  stop.store(true, std::memory_order_release);
  reader.join();

  EXPECT_EQ(reg.counter_value(ops), k_threads * k_iters);
  EXPECT_EQ(reg.histogram_merged(lat).total, k_threads * k_iters);
}

TEST(MetricsRegistry, RegistrationIsIdempotentAndDegradesAtCapacity) {
  obs::metrics_registry reg(1, /*counter_capacity=*/2, /*histogram_capacity=*/1);
  const auto a = reg.counter("a");
  EXPECT_EQ(reg.counter("a"), a);
  const auto b = reg.counter("b");
  EXPECT_NE(a, b);
  // Capacity exhausted: further names alias the last id instead of crashing.
  EXPECT_EQ(reg.counter("c"), b);
  EXPECT_EQ(reg.histogram("h1"), reg.histogram("h2"));
}

// ----- span ring ---------------------------------------------------------------------

TEST(SpanRing, OverflowKeepsNewestAndCountsDrops) {
  obs::span_ring ring(/*slots=*/1, /*capacity_per_slot=*/4);
  for (int i = 0; i < 10; ++i) {
    obs::span_record rec;
    rec.path = "/r" + std::to_string(i);
    ring.push(0, std::move(rec));
  }
  EXPECT_EQ(ring.size(), 4u);
  EXPECT_EQ(ring.dropped(), 6u);
  const std::vector<obs::span_record> spans = ring.snapshot();
  ASSERT_EQ(spans.size(), 4u);
  EXPECT_EQ(spans.front().path, "/r6");  // oldest retained
  EXPECT_EQ(spans.back().path, "/r9");   // newest
}

// ----- fault injector registry counters ----------------------------------------------

TEST(FaultInjector, ActivityShowsUpAsRegistryCounters) {
  net::fault_injector faults(7);
  faults.crash("nakika-1");
  faults.crash("nakika-1");  // already crashed: not double-counted
  faults.crash("nakika-2");
  faults.revive("nakika-1");
  faults.revive("nakika-9");  // never crashed: no-op
  faults.count_skipped_crashed_probe();
  faults.set_fetch_failure_rate(1.0);
  EXPECT_TRUE(faults.should_fail_fetch());
  EXPECT_TRUE(faults.should_fail_fetch());

  const obs::metrics_snapshot snap = faults.metrics_snapshot();
  EXPECT_EQ(snap.counters.at("faults.crashes"), 2u);
  EXPECT_EQ(snap.counters.at("faults.revives"), 1u);
  EXPECT_EQ(snap.counters.at("faults.skipped_crashed_probes"), 1u);
  EXPECT_EQ(snap.counters.at("faults.injected_failures"), 2u);
  EXPECT_EQ(faults.injected_failures(), 2u);
}

// ----- node telemetry export ---------------------------------------------------------

struct telemetry_fixture : ::testing::Test {
  sim::event_loop loop;
  sim::network net{loop};
  sim::three_tier topo;
  std::unique_ptr<proxy::deployment> dep;
  proxy::origin_server* origin = nullptr;
  proxy::nakika_node* node = nullptr;

  void build(proxy::node_config cfg = {}) {
    topo = sim::build_lan(net);
    dep = std::make_unique<proxy::deployment>(net);
    origin = &dep->create_origin(topo.origin);
    node = &dep->create_node(topo.proxy, std::move(cfg));
  }

  http::response fetch(const std::string& url) {
    http::request r;
    r.url = http::url::parse(url);
    r.client_ip = "10.0.0.1";
    http::response out;
    forward_request(net, topo.client, *node, r, [&](http::response resp) {
      out = std::move(resp);
    });
    loop.run();
    return out;
  }

  void add_logging_site(const std::string& host) {
    dep->map_host(host, *origin);
    origin->add_static_text(host, "/nakika.js", "application/javascript", R"JS(
      var p = new Policy();
      p.url = [ ")JS" + host + R"JS(" ];
      p.onResponse = function() { Log.write("hit " + Request.path); };
      p.register();
    )JS");
  }
};

TEST_F(telemetry_fixture, PerStageAndPerTenantBreakdowns) {
  build();
  add_logging_site("site.org");
  origin->add_static_text("site.org", "/a", "text/plain", "A", 600);
  EXPECT_EQ(fetch("http://site.org/a").status, 200);
  EXPECT_EQ(fetch("http://site.org/a").status, 200);  // second: cache hit

  const obs::telemetry_snapshot snap = node->telemetry();

  // Per-stage rows exist for every stage, in stage order, plus the collector's
  // per-pause series ("gc_pause" — samples are individual GC pauses, not
  // requests) appended after them; the total histogram saw both requests and
  // the sim clock gave them nonzero virtual latency.
  ASSERT_EQ(snap.stages.size(), obs::stage_count + 1);
  EXPECT_EQ(snap.stages.back().name, "gc_pause");
  EXPECT_EQ(snap.stages[0].name, "total");
  EXPECT_EQ(snap.stages[0].latency.count, 2u);
  EXPECT_GT(snap.stages[0].latency.p50, 0.0);
  // First request missed (origin fetch), second hit the content cache.
  EXPECT_EQ(snap.counters.at("outcome.cache_hit"), 1u);
  EXPECT_GE(snap.counters.at("outcome.origin_fetch"), 1u);
  EXPECT_EQ(snap.counters.at("requests.completed"), 2u);

  // Per-tenant row joins observed requests with the per-site log state.
  ASSERT_EQ(snap.tenants.size(), 1u);
  const obs::tenant_stats& t = snap.tenants[0];
  EXPECT_EQ(t.site, "http://site.org");
  EXPECT_EQ(t.requests, 2u);
  EXPECT_EQ(t.log_lines, 2u);
  EXPECT_EQ(t.log_dropped, 0u);

  // The aggregate script-time view equals the tenant view (single tenant).
  const proxy::nakika_node::script_time_stats st = node->script_times();
  EXPECT_EQ(st.ic_hits, t.ic_hits);
  EXPECT_EQ(st.ic_misses, t.ic_misses);
  EXPECT_GT(st.stages_executed, 0u);

  // Spans: one per completed request, virtual-time stamped.
  const std::vector<obs::span_record> spans = node->recent_spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].site, "http://site.org");
  EXPECT_EQ(spans[0].status, 200);
  EXPECT_FALSE(spans[0].has(obs::span_flag::cache_hit));
  EXPECT_TRUE(spans[1].has(obs::span_flag::cache_hit));
  EXPECT_GT(spans[1].start, spans[0].start);

  // Export renders both breakdowns.
  const std::string json = node->telemetry_json();
  EXPECT_NE(json.find("\"stages\""), std::string::npos);
  EXPECT_NE(json.find("\"script_exec\""), std::string::npos);
  EXPECT_NE(json.find("\"http://site.org\""), std::string::npos);
  EXPECT_NE(json.find("\"outcome.cache_hit\":1"), std::string::npos);
  const std::string text = node->stats_text();
  EXPECT_NE(text.find("total"), std::string::npos);
  EXPECT_NE(text.find("http://site.org"), std::string::npos);
}

TEST_F(telemetry_fixture, SiteLogsAreBoundedWithDropCounter) {
  proxy::node_config cfg;
  cfg.site_log_capacity = 4;
  build(std::move(cfg));
  add_logging_site("chatty.org");
  for (int i = 0; i < 10; ++i) {
    origin->add_static_text("chatty.org", "/p" + std::to_string(i), "text/plain", "x", 600);
    EXPECT_EQ(fetch("http://chatty.org/p" + std::to_string(i)).status, 200);
  }

  const std::vector<std::string> log = node->site_log("http://chatty.org");
  ASSERT_EQ(log.size(), 4u);  // bounded at capacity, oldest dropped
  EXPECT_EQ(log.front(), "hit /p6");
  EXPECT_EQ(log.back(), "hit /p9");

  ASSERT_EQ(node->telemetry().tenants.size(), 1u);
  const obs::tenant_stats t = node->telemetry().tenants[0];
  EXPECT_EQ(t.log_lines, 10u);
  EXPECT_EQ(t.log_dropped, 6u);
}

TEST_F(telemetry_fixture, TenantQuotaRejectionsPerTenant) {
  proxy::node_config cfg;
  cfg.tenant_cache_quota_bytes["greedy.org"] = 1024;
  build(std::move(cfg));
  dep->map_host("greedy.org", *origin);
  // Far over quota: every put is rejected by tenant isolation.
  origin->add_static_text("greedy.org", "/big", "text/plain", std::string(8192, 'g'), 600);
  EXPECT_EQ(fetch("http://greedy.org/big").status, 200);

  ASSERT_EQ(node->telemetry().tenants.size(), 1u);
  const obs::tenant_stats t = node->telemetry().tenants[0];
  EXPECT_EQ(t.cache_quota, 1024u);
  EXPECT_GE(t.quota_rejections, 1u);
  EXPECT_EQ(t.cache_bytes, 0u);
}

TEST_F(telemetry_fixture, SpanRingOverflowOnNode) {
  proxy::node_config cfg;
  cfg.span_ring_capacity = 3;
  build(std::move(cfg));
  dep->map_host("site.org", *origin);
  for (int i = 0; i < 8; ++i) {
    origin->add_static_text("site.org", "/o" + std::to_string(i), "text/plain", "x", 600);
    fetch("http://site.org/o" + std::to_string(i));
  }
  EXPECT_EQ(node->recent_spans().size(), 3u);
  EXPECT_EQ(node->spans_dropped(), 5u);
  const obs::telemetry_snapshot snap = node->telemetry();
  EXPECT_EQ(snap.spans_retained, 3u);
  EXPECT_EQ(snap.spans_dropped, 5u);
  EXPECT_EQ(snap.spans_recorded, 8u);
  EXPECT_EQ(snap.span_capacity, 3u);
}

// The proxy with an integrated DHT (scripting off) is timed like any other
// request: a span and an end-to-end latency sample per request, on the sim
// path as in worker mode.
TEST_F(telemetry_fixture, DhtOnlyRequestsRecordSpansAndTotals) {
  proxy::node_config cfg;
  cfg.scripting = false;
  build(std::move(cfg));
  dep->map_host("site.org", *origin);
  origin->add_static_text("site.org", "/a", "text/plain", "A", 600);
  EXPECT_EQ(fetch("http://site.org/a").status, 200);  // miss: origin fetch
  EXPECT_EQ(fetch("http://site.org/a").status, 200);  // cache hit

  const std::vector<obs::span_record> spans = node->recent_spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_TRUE(spans[0].has(obs::span_flag::origin));
  EXPECT_TRUE(spans[1].has(obs::span_flag::cache_hit));
  EXPECT_EQ(spans[1].status, 200);
  EXPECT_EQ(node->stage_latency(obs::stage::total).count, 2u);
  EXPECT_EQ(node->counters().completed, 2u);
}

// ----- workers=0 determinism regression ----------------------------------------------

std::uint64_t fnv1a(std::uint64_t h, const std::string& s) {
  for (const unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

struct sim_run {
  std::uint64_t digest = 14695981039346656037ULL;
  std::vector<obs::span_record> spans;
};

// One fixed-seed sim experiment: scripted site + cacheable objects, two
// rounds so both the miss and hit paths run. Returns a completion-order
// digest of every response and the node's retained spans.
sim_run run_fixed_sim(bool telemetry) {
  sim::event_loop loop;
  sim::network net{loop};
  sim::three_tier topo = sim::build_lan(net);
  proxy::deployment dep(net);
  proxy::origin_server& origin = dep.create_origin(topo.origin);
  proxy::node_config cfg;
  cfg.telemetry = telemetry;
  proxy::nakika_node& node = dep.create_node(topo.proxy, std::move(cfg));
  dep.map_host("det.org", origin);
  origin.add_static_text("det.org", "/nakika.js", "application/javascript", R"JS(
    var p = new Policy();
    p.url = [ "det.org" ];
    p.onResponse = function() {
      var n = 0;
      for (var i = 0; i < 200; i++) { n += i * i; }
      Response.setHeader("X-Work", "" + n);
    };
    p.register();
  )JS");
  for (int i = 0; i < 6; ++i) {
    origin.add_static_text("det.org", "/d" + std::to_string(i), "text/plain",
                           "body-" + std::to_string(i), 600);
  }

  sim_run out;
  for (int round = 0; round < 2; ++round) {
    for (int i = 0; i < 6; ++i) {
      http::request r;
      r.url = http::url::parse("http://det.org/d" + std::to_string(i));
      r.client_ip = "10.0.0.1";
      forward_request(net, topo.client, node, r, [&out](http::response resp) {
        out.digest = fnv1a(out.digest, std::to_string(resp.status));
        out.digest = fnv1a(out.digest, resp.headers.get("X-Work").value_or(""));
        out.digest = fnv1a(out.digest, resp.body ? resp.body->str() : "");
      });
      loop.run();
    }
  }
  out.spans = node.recent_spans();
  return out;
}

TEST(TelemetryDeterminism, TelemetryDoesNotPerturbFixedSeedRuns) {
  const sim_run off = run_fixed_sim(false);
  const sim_run on = run_fixed_sim(true);
  // Same seed, same workload: byte-identical responses with telemetry on/off.
  EXPECT_EQ(off.digest, on.digest);
  EXPECT_TRUE(off.spans.empty());
  EXPECT_EQ(on.spans.size(), 12u);
}

TEST(TelemetryDeterminism, SpanStructureIsDeterministic) {
  const sim_run a = run_fixed_sim(true);
  const sim_run b = run_fixed_sim(true);
  EXPECT_EQ(a.digest, b.digest);
  // Span order, attribution, outcome flags, and status are reproducible for
  // a fixed seed. The virtual timestamps are monotone but not bit-identical:
  // the sim bills *measured* script CPU into virtual time (the thrash model
  // needs real costs), so only the event-loop component repeats exactly.
  ASSERT_EQ(a.spans.size(), b.spans.size());
  double prev_start = -1.0;
  for (std::size_t i = 0; i < a.spans.size(); ++i) {
    EXPECT_EQ(a.spans[i].site, b.spans[i].site);
    EXPECT_EQ(a.spans[i].path, b.spans[i].path);
    EXPECT_EQ(a.spans[i].status, b.spans[i].status);
    EXPECT_EQ(a.spans[i].flags, b.spans[i].flags);
    EXPECT_EQ(a.spans[i].ic_hits, b.spans[i].ic_hits);
    EXPECT_GT(a.spans[i].start, prev_start);
    prev_start = a.spans[i].start;
  }
}

// ----- worker-mode span sampling -----------------------------------------------------

// Builds a 1-worker node, serves `total` cache-hit requests against one hot
// object, and returns (span count, total-histogram count).
std::pair<std::size_t, std::uint64_t> run_sampled(std::size_t total,
                                                  std::size_t sample_every) {
  sim::event_loop loop;
  sim::network net(loop);
  const sim::node_id origin_host = net.add_node("origin");
  const sim::node_id proxy_host = net.add_node("proxy");
  net.set_route(origin_host, proxy_host, 0.0005);
  proxy::origin_server origin(net, origin_host);
  origin.add_static_text("hot.org", "/obj", "text/plain", "hot body", 3600);

  proxy::node_config cfg;
  cfg.workers = 1;
  cfg.resource_controls = false;
  cfg.trace_sample_every = sample_every;
  proxy::nakika_node node(
      net, proxy_host,
      [&origin](const std::string&) -> proxy::http_endpoint* { return &origin; },
      std::move(cfg));

  std::atomic<std::size_t> done{0};
  for (std::size_t i = 0; i < total; ++i) {
    http::request r;
    r.url = http::url::parse("http://hot.org/obj");
    r.client_ip = "10.0.0.1";
    node.handle(r, [&](http::response resp) {
      EXPECT_EQ(resp.status, 200);
      done.fetch_add(1);
    });
  }
  node.drain();
  EXPECT_EQ(done.load(), total);
  return {node.recent_spans().size(),
          node.stage_latency(obs::stage::total).count};
}

TEST(TelemetrySampling, WorkerModeSamplesSpansButRecordsEveryLatency) {
  // Default-style decimation: every 16th request per worker gets a span, but
  // the end-to-end latency histogram stays exact (it reuses the billing
  // clock, not span stamps).
  const auto [spans_16, count_16] = run_sampled(/*total=*/32, /*sample_every=*/16);
  EXPECT_EQ(spans_16, 2u);  // requests 0 and 16
  EXPECT_EQ(count_16, 32u);

  // sample_every=1 traces every request, like the sim path does.
  const auto [spans_1, count_1] = run_sampled(/*total=*/8, /*sample_every=*/1);
  EXPECT_EQ(spans_1, 8u);
  EXPECT_EQ(count_1, 8u);
}

}  // namespace
}  // namespace nakika
