// Concurrency tier for the multi-worker node (run under TSan in CI):
//   - 8-worker x 10k-request stress over mixed cache-hit/miss + script
//     workloads, asserting no lost or duplicated responses and per-URL
//     response correctness,
//   - stats totals equal between the 8-worker and 1-worker runs,
//   - queue-full backpressure rejecting with 503,
//   - throttling penalties enforced across workers,
//   - worker responses equal to the workers=0 sim oracle's for the same URLs,
//   - and the workers=0 determinism regression: fixed-seed sim runs (one
//     idle, one congested into throttling) whose digests are pinned to
//     golden SHA-256 values (the oracle path the worker mode is measured
//     against).
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "integrity/sha256.hpp"
#include "proxy/deployment.hpp"
#include "sim/topology.hpp"

namespace nakika::proxy {
namespace {

constexpr std::size_t k_static_urls = 64;

const char* k_site_script = R"JS(
  var p = new Policy();
  p.url = [ "scripted.org" ];
  p.onResponse = function () {
    var n = 0;
    for (var i = 0; i < 500; i++) { n += i; }
    Response.setHeader("X-Work", "" + n);
    HardState.put("seen:" + Request.url, "1");
  };
  p.register();
)JS";

// A site script that sub-fetches through the Fetch vocabulary: one
// coalescible URL and one query-bearing URL (which bypasses coalescing).
const char* k_fetcher_script = R"JS(
  var p = new Policy();
  p.url = [ "fetcher.org" ];
  p.onResponse = function () {
    var a = Fetch.fetch("http://static.org/obj/5");
    var b = Fetch.fetch("http://static.org/uniq/sub?n=1");
    Response.setHeader("X-Sub", a.body.toString() + "+" + b.body.toString());
  };
  p.register();
)JS";

// Host the serving environment's resolver knows nothing about (the 502 path).
constexpr const char* k_unresolvable_host = "unresolvable.org";

// A self-contained single-node serving environment. The sim network exists
// only to satisfy construction; in worker mode all traffic goes through the
// synchronous direct path.
struct serving_env {
  sim::event_loop loop;
  std::unique_ptr<sim::network> net;
  std::unique_ptr<origin_server> origin;
  std::unique_ptr<nakika_node> node;

  explicit serving_env(node_config cfg) {
    net = std::make_unique<sim::network>(loop);
    const sim::node_id origin_host = net->add_node("origin");
    const sim::node_id proxy_host = net->add_node("proxy");
    net->set_route(origin_host, proxy_host, 0.0005);
    origin = std::make_unique<origin_server>(*net, origin_host);

    for (std::size_t i = 0; i < k_static_urls; ++i) {
      origin->add_static_text("static.org", "/obj/" + std::to_string(i), "text/plain",
                              "body-" + std::to_string(i), 3600);
    }
    origin->add_dynamic("static.org", "/uniq/", [](const http::request& r) {
      origin_server::dynamic_result out;
      out.response =
          http::make_response(200, "text/plain", util::make_body("uniq:" + r.url.path()));
      return out;
    });
    origin->add_static_text("scripted.org", "/nakika.js", "application/javascript",
                            k_site_script, 3600);
    for (std::size_t i = 0; i < k_static_urls; ++i) {
      origin->add_static_text("scripted.org", "/doc/" + std::to_string(i), "text/plain",
                              "doc-" + std::to_string(i), 3600);
    }

    origin->add_static_text("static.org", "/page.nkp", "text/nkp",
                            "Sum: <?nkp Response.write(6 * 7); ?>!", 3600);
    origin->add_static_text("fetcher.org", "/nakika.js", "application/javascript",
                            k_fetcher_script, 3600);
    origin->add_static_text("fetcher.org", "/doc", "text/plain", "fetched-doc", 3600);

    origin_server* raw = origin.get();
    node = std::make_unique<nakika_node>(
        *net, proxy_host,
        [raw](const std::string& host) -> http_endpoint* {
          return host == k_unresolvable_host ? nullptr : raw;
        },
        std::move(cfg));
  }
};

std::string url_for(std::size_t i) {
  switch (i % 3) {
    case 0: return "http://static.org/obj/" + std::to_string(i % k_static_urls);
    case 1: return "http://static.org/uniq/" + std::to_string(i);
    default: return "http://scripted.org/doc/" + std::to_string(i % k_static_urls);
  }
}

bool response_matches(std::size_t i, const http::response& resp) {
  if (resp.status != 200 || !resp.body) return false;
  switch (i % 3) {
    case 0:
      return resp.body->view() == "body-" + std::to_string(i % k_static_urls);
    case 1:
      return resp.body->view() == "uniq:/uniq/" + std::to_string(i);
    default:
      return resp.body->view() == "doc-" + std::to_string(i % k_static_urls) &&
             resp.headers.get("X-Work") == "124750";
  }
}

// Runs `total` mixed requests through a node with `workers` workers, driven
// by two producer threads (the queue is MPMC on both ends). Returns the
// node's counters snapshot after everything drained.
util::run_counters run_stress(std::size_t workers, std::size_t total,
                              std::size_t* sandboxes_created = nullptr) {
  node_config cfg;
  cfg.workers = workers;
  cfg.queue_capacity = total + 16;  // no backpressure in this test
  cfg.resource_controls = false;    // counts must be exact, not probabilistic
  serving_env env(std::move(cfg));

  std::vector<std::atomic<int>> completions(total);
  std::atomic<std::size_t> mismatches{0};
  std::atomic<std::size_t> done_count{0};

  const auto produce = [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      http::request r;
      r.url = http::url::parse(url_for(i));
      r.client_ip = "10.0.0.1";
      env.node->handle(r, [&, i](http::response resp) {
        if (!response_matches(i, resp)) mismatches.fetch_add(1);
        completions[i].fetch_add(1);
        done_count.fetch_add(1);
      });
    }
  };
  std::thread producer_a(produce, 0, total / 2);
  std::thread producer_b(produce, total / 2, total);
  producer_a.join();
  producer_b.join();
  env.node->drain();

  EXPECT_EQ(done_count.load(), total) << "lost responses";
  for (std::size_t i = 0; i < total; ++i) {
    EXPECT_EQ(completions[i].load(), 1) << "lost or duplicated response for request " << i;
  }
  EXPECT_EQ(mismatches.load(), 0u);
  // Cross-worker HardState writes must all have landed (store is locked).
  EXPECT_GT(env.node->store().site_keys("http://scripted.org"), 0u);
  EXPECT_EQ(env.node->pool()->job_exceptions(), 0u);
  if (sandboxes_created != nullptr) *sandboxes_created = env.node->sandboxes_created();
  return env.node->counters();
}

TEST(NodeConcurrency, EightWorkerStressNoLostOrDuplicatedResponses) {
  constexpr std::size_t k_total = 10'000;
  std::size_t sandboxes = 0;
  const util::run_counters c = run_stress(8, k_total, &sandboxes);
  EXPECT_EQ(c.offered, k_total);
  EXPECT_EQ(c.completed, k_total);
  EXPECT_EQ(c.rejected, 0u);
  EXPECT_EQ(c.throttled, 0u);
  EXPECT_EQ(c.failed, 0u);
  EXPECT_EQ(c.terminated, 0u);
  // Per-worker pools reuse sandboxes: at most a handful per worker per site,
  // not one per request.
  EXPECT_GE(sandboxes, 1u);
  EXPECT_LE(sandboxes, 8u * 4u);
}

TEST(NodeConcurrency, StatsTotalsEqualSingleWorkerRun) {
  constexpr std::size_t k_total = 3'000;
  const util::run_counters one = run_stress(1, k_total);
  const util::run_counters eight = run_stress(8, k_total);
  EXPECT_EQ(one.offered, eight.offered);
  EXPECT_EQ(one.completed, eight.completed);
  EXPECT_EQ(one.failed, eight.failed);
  EXPECT_EQ(one.terminated, eight.terminated);
  EXPECT_EQ(one.rejected, eight.rejected);
}

TEST(NodeConcurrency, QueueFullRejectsWith503) {
  node_config cfg;
  cfg.workers = 1;
  cfg.queue_capacity = 2;
  cfg.resource_controls = false;
  serving_env env(std::move(cfg));
  // Make each request slow enough that the single worker cannot drain a
  // burst: a busy loop in the site script.
  env.origin->add_static_text("slow.org", "/nakika.js", "application/javascript", R"JS(
    var p = new Policy();
    p.url = [ "slow.org" ];
    p.onResponse = function () {
      var n = 0;
      for (var i = 0; i < 200000; i++) { n += i; }
      Response.setHeader("X-N", "" + n);
    };
    p.register();
  )JS",
                              3600);
  env.origin->add_static_text("slow.org", "/page", "text/plain", "slow", 0);

  constexpr std::size_t k_burst = 40;
  std::atomic<std::size_t> done_count{0};
  std::atomic<std::size_t> busy_503{0};
  for (std::size_t i = 0; i < k_burst; ++i) {
    http::request r;
    r.url = http::url::parse("http://slow.org/page?i=" + std::to_string(i));
    r.client_ip = "10.0.0.1";
    env.node->handle(r, [&](http::response resp) {
      if (resp.status == 503) busy_503.fetch_add(1);
      done_count.fetch_add(1);
    });
  }
  env.node->drain();

  EXPECT_EQ(done_count.load(), k_burst);  // rejected requests still answered
  const util::run_counters c = env.node->counters();
  EXPECT_EQ(c.offered, k_burst);
  EXPECT_GT(c.rejected, 0u) << "burst never hit the queue bound";
  EXPECT_EQ(c.rejected, busy_503.load());
  EXPECT_EQ(c.completed + c.rejected + c.failed + c.terminated + c.throttled, k_burst);
  EXPECT_EQ(env.node->pool()->rejected(), c.rejected);
}

TEST(NodeConcurrency, ThrottlePenaltyAppliesAcrossWorkers) {
  node_config cfg;
  cfg.workers = 4;
  cfg.queue_capacity = 256;
  cfg.resource_controls = true;
  serving_env env(std::move(cfg));
  env.origin->add_static_text("bad.org", "/x", "text/plain", "never served", 3600);

  // Terminate bad.org via the CONTROL procedure before serving: the penalty
  // blocks admission on every worker (shared atomic state).
  auto& rm = env.node->resources();
  rm.record("http://bad.org", core::resource_kind::cpu, 10.0);
  ASSERT_TRUE(rm.control_phase1(core::resource_kind::cpu, 1.0));
  rm.record("http://bad.org", core::resource_kind::cpu, 10.0);
  const core::control_outcome outcome =
      rm.control_phase2(core::resource_kind::cpu, 1.5);
  ASSERT_EQ(outcome.terminated_site, "http://bad.org");

  constexpr std::size_t k_requests = 100;
  std::atomic<std::size_t> rejected_503{0};
  std::atomic<std::size_t> done_count{0};
  for (std::size_t i = 0; i < k_requests; ++i) {
    http::request r;
    r.url = http::url::parse("http://bad.org/x");
    r.client_ip = "10.0.0.1";
    env.node->handle(r, [&](http::response resp) {
      if (resp.status == 503) rejected_503.fetch_add(1);
      done_count.fetch_add(1);
    });
  }
  env.node->drain();
  EXPECT_EQ(done_count.load(), k_requests);
  EXPECT_EQ(rejected_503.load(), k_requests);
  EXPECT_EQ(env.node->counters().throttled, k_requests);
}

// ----- worker mode vs sim oracle -----------------------------------------------

// Runs one URL through a workers=0 node on the event loop (the oracle path).
http::response sim_fetch(sim::event_loop& loop, sim::network& net, sim::node_id client,
                         nakika_node& node, const std::string& url) {
  http::request r;
  r.url = http::url::parse(url);
  r.client_ip = "10.0.0.1";
  http::response out;
  forward_request(net, client, node, r, [&](http::response resp) { out = std::move(resp); });
  loop.run();
  return out;
}

// What the oracle comparison looks at: status, body, and the headers the
// test scripts set.
std::string response_digest(const http::response& resp) {
  return std::to_string(resp.status) + "|" + resp.headers.get_or("X-Work", "-") + "|" +
         resp.headers.get_or("X-Sub", "-") + "|" +
         std::string(resp.body ? resp.body->view() : "");
}

// Serves `urls` through a workers=0 node on the event loop (the oracle) and
// through a 4-worker node built from the same config, and returns the URLs
// whose worker response differs from the oracle's.
std::vector<std::string> worker_vs_sim_mismatches(const node_config& base,
                                                  const std::vector<std::string>& urls) {
  std::vector<std::string> oracle;
  {
    serving_env env(base);
    const sim::node_id client = env.net->add_node("client");
    env.net->set_route(client, env.node->host(), 0.0005);
    for (const auto& url : urls) {
      oracle.push_back(response_digest(sim_fetch(env.loop, *env.net, client, *env.node, url)));
    }
  }

  node_config cfg = base;
  cfg.workers = 4;
  cfg.queue_capacity = 256;
  serving_env env(std::move(cfg));
  std::vector<std::string> got(urls.size());
  std::atomic<std::size_t> done_count{0};
  for (std::size_t i = 0; i < urls.size(); ++i) {
    http::request r;
    r.url = http::url::parse(urls[i]);
    r.client_ip = "10.0.0.1";
    env.node->handle(r, [&, i](http::response resp) {
      got[i] = response_digest(resp);
      done_count.fetch_add(1);
    });
  }
  env.node->drain();
  EXPECT_EQ(done_count.load(), urls.size());
  std::vector<std::string> mismatched;
  for (std::size_t i = 0; i < urls.size(); ++i) {
    if (got[i] != oracle[i]) mismatched.push_back(urls[i] + ": " + got[i] + " vs " + oracle[i]);
  }
  return mismatched;
}

TEST(NodeConcurrency, WorkerResponsesMatchSimOracle) {
  std::vector<std::string> urls;
  for (std::size_t i = 0; i < 30; ++i) urls.push_back(url_for(i));
  urls.push_back("http://static.org/page.nkp");             // Na Kika Pages render
  urls.push_back("http://fetcher.org/doc");                  // Fetch sub-requests
  urls.push_back(std::string("http://") + k_unresolvable_host + "/x");  // 502

  node_config scripted;
  scripted.resource_controls = false;
  EXPECT_EQ(worker_vs_sim_mismatches(scripted, urls), std::vector<std::string>{});

  // The proxy with an integrated DHT (no scripting pipeline).
  node_config dht_only = scripted;
  dht_only.scripting = false;
  EXPECT_EQ(worker_vs_sim_mismatches(dht_only, urls), std::vector<std::string>{});
}

// ----- workers=0 determinism regression ----------------------------------------

// Inputs of one fixed-seed sim run.
struct digest_inputs {
  std::size_t shape_table_max = js::context_limits{}.shape_table_max;
  double request_spacing = 0.2;  // virtual seconds between requests
  double cpu_seconds_per_second = 0.001;
  double bandwidth_bytes_per_second = core::resource_capacities{}.bandwidth_bytes_per_second;
};

// The default run has a tiny CPU capacity, but its requests arrive 0.2 s
// apart, so every throttle window a CONTROL phase 1 opens is closed by its
// phase 2 before the next request: it never throttles. This run congests
// through bandwidth instead, whose byte counts (unlike the wall-measured
// script CPU, lifted out of the way here) are deterministic, so admission,
// its RNG draws and a termination are all part of the digest.
constexpr digest_inputs k_congested{.request_spacing = 0.01,
                                    .cpu_seconds_per_second = 1e9,
                                    .bandwidth_bytes_per_second = 2000};

struct sim_run {
  std::string digest;
  util::run_counters counters;
};

// A full fixed-seed sim run: every response byte plus the final counter
// state, digested. Two runs must agree exactly, and the digests are pinned
// (below) to what the build before the one-request-path refactor produced.
sim_run run_sim(const digest_inputs& in = {}) {
  sim::event_loop loop;
  sim::network net{loop};
  sim::three_tier topo = sim::build_lan(net);
  deployment dep(net);
  origin_server& origin = dep.create_origin(topo.origin);
  dep.map_host("static.org", origin);
  dep.map_host("scripted.org", origin);
  for (std::size_t i = 0; i < k_static_urls; ++i) {
    origin.add_static_text("static.org", "/obj/" + std::to_string(i), "text/plain",
                           "body-" + std::to_string(i), 3600);
  }
  origin.add_static_text("scripted.org", "/nakika.js", "application/javascript",
                         k_site_script, 3600);
  for (std::size_t i = 0; i < k_static_urls; ++i) {
    origin.add_static_text("scripted.org", "/doc/" + std::to_string(i), "text/plain",
                           "doc-" + std::to_string(i), 3600);
  }

  node_config cfg;
  cfg.rng_seed = 1234;
  cfg.capacities.cpu_seconds_per_second = in.cpu_seconds_per_second;
  cfg.capacities.bandwidth_bytes_per_second = in.bandwidth_bytes_per_second;
  cfg.control_interval = 0.05;
  cfg.control_timeout = 0.02;
  cfg.script_limits.shape_table_max = in.shape_table_max;
  nakika_node& node = dep.create_node(topo.proxy, std::move(cfg));
  node.start_monitor();

  constexpr std::size_t k_requests = 300;
  std::vector<http::response> responses(k_requests);
  for (std::size_t i = 0; i < k_requests; ++i) {
    http::request r;
    r.url = http::url::parse(url_for(i % 90));
    r.client_ip = "10.0.0.1";
    forward_request(net, topo.client, node, r, [&responses, i](http::response resp) {
      responses[i] = std::move(resp);
    });
    loop.run_until(loop.now() + in.request_spacing);
  }
  // Responses are digested by request, not by arrival window: the node bills
  // wall-measured script CPU in virtual time, so on a loaded host a response
  // may land after the next request went out.
  loop.run_until(loop.now() + 10.0);

  std::string digest;
  for (const http::response& out : responses) {
    digest += std::to_string(out.status);
    digest += '|';
    digest += out.headers.get_or("X-Work", "-");
    digest += '|';
    if (out.body) digest += out.body->str();
    digest += '\n';
  }
  const util::run_counters c = node.counters();
  digest += "offered=" + std::to_string(c.offered);
  digest += " completed=" + std::to_string(c.completed);
  digest += " throttled=" + std::to_string(c.throttled);
  digest += " terminated=" + std::to_string(c.terminated);
  digest += " failed=" + std::to_string(c.failed);
  digest += " terminations=" + std::to_string(node.resources().terminations());
  digest += " rejections=" + std::to_string(node.resources().throttle_rejections());
  return {std::move(digest), c};
}

// SHA-256 of the two digests as produced before the sim and worker request
// paths were folded into one request body; any change to sim behaviour shows
// up here, not only a change between two runs of the same build.
constexpr const char* k_idle_digest_sha256 =
    "ff317f7e5d7ffc95d049e25a4fd2658395f5cba4a863db6aff34fbd6ee0dd957";
constexpr const char* k_congested_digest_sha256 =
    "e5a9cc449bfe7a841808a734beb7bbc734160a8e799da460a741e1f069f4e045";

TEST(NodeConcurrency, SimPathDeterministicWithWorkersDisabled) {
  const std::string first = run_sim().digest;
  const std::string second = run_sim().digest;
  EXPECT_EQ(first, second);
  EXPECT_EQ(first.size(), 7929u);
  EXPECT_EQ(integrity::sha256_hex(first), k_idle_digest_sha256);
}

TEST(NodeConcurrency, CongestedSimRunThrottlesDeterministically) {
  const sim_run first = run_sim(k_congested);
  const sim_run second = run_sim(k_congested);
  EXPECT_EQ(first.digest, second.digest);
  EXPECT_GT(first.counters.throttled, 0u) << "the run never exercised admission";
  EXPECT_EQ(integrity::sha256_hex(first.digest), k_congested_digest_sha256);
}

// The shape/IC layer is an accelerator, never semantics: the same fixed-seed
// run with the shape tables disabled (dictionary mode everywhere, the
// pre-shape caching behavior) must produce a byte-identical digest — every
// response byte, billing counter, and throttle decision included.
TEST(NodeConcurrency, ShapesOnVsOffDigestByteIdentical) {
  const std::string shaped = run_sim().digest;
  const std::string dictionary = run_sim({.shape_table_max = 0}).digest;
  EXPECT_EQ(shaped, dictionary);
}

// ----- work-stealing pool unit tier ---------------------------------------------

// queue_depth() is the admission count; the per-ring depths plus the
// overflow deque must account for exactly the same jobs, and the peak
// watermark must have seen the full backlog.
TEST(WorkerPool, DepthAggregationAcrossRingsAndOverflow) {
  core::worker_pool_config cfg;
  cfg.workers = 2;
  cfg.queue_capacity = 64;
  core::worker_pool pool(cfg);

  // Pin both workers inside long-running jobs so later submits stay queued.
  std::atomic<bool> release{false};
  std::atomic<int> running{0};
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(pool.try_submit([&](core::worker_context&) {
      running.fetch_add(1);
      while (!release.load()) std::this_thread::yield();
    }));
  }
  while (running.load() < 2) std::this_thread::yield();

  constexpr std::size_t k_backlog = 40;
  for (std::size_t i = 0; i < k_backlog; ++i) {
    ASSERT_TRUE(pool.try_submit([](core::worker_context&) {}, /*affinity=*/i));
  }
  EXPECT_EQ(pool.queue_depth(), k_backlog);
  EXPECT_EQ(pool.queue_depth(0) + pool.queue_depth(1) + pool.overflow_depth(), k_backlog)
      << "per-ring depths plus overflow must equal the aggregate";
  EXPECT_GE(pool.peak_queue_depth(), k_backlog);
  EXPECT_LE(pool.peak_queue_depth(), k_backlog + 2);  // + the two pinned jobs

  release.store(true);
  pool.drain();
  EXPECT_EQ(pool.queue_depth(), 0u);
  EXPECT_EQ(pool.queue_depth(0) + pool.queue_depth(1) + pool.overflow_depth(), 0u);
  EXPECT_EQ(pool.executed(), k_backlog + 2);
  EXPECT_EQ(pool.job_exceptions(), 0u);
}

// Deterministic steal scenario: one worker is pinned inside a job, every
// subsequent submit targets the pinned worker's ring — the only way the idle
// sibling can run them is by stealing.
TEST(WorkerPool, IdleWorkerStealsFromPinnedSiblingsRing) {
  core::worker_pool_config cfg;
  cfg.workers = 2;
  cfg.queue_capacity = 128;
  core::worker_pool pool(cfg);

  std::atomic<bool> release{false};
  std::atomic<int> pinned_index{-1};
  ASSERT_TRUE(pool.try_submit([&](core::worker_context& wc) {
    pinned_index.store(static_cast<int>(wc.index()));
    while (!release.load()) std::this_thread::yield();
  }));
  while (pinned_index.load() < 0) std::this_thread::yield();
  const auto hot = static_cast<std::uint64_t>(pinned_index.load());
  const std::size_t thief = 1 - static_cast<std::size_t>(hot);

  constexpr std::size_t k_jobs = 32;
  std::atomic<std::size_t> ran{0};
  for (std::size_t i = 0; i < k_jobs; ++i) {
    ASSERT_TRUE(pool.try_submit([&ran](core::worker_context&) { ran.fetch_add(1); }, hot));
  }
  while (ran.load() < k_jobs) std::this_thread::yield();
  EXPECT_GE(pool.steals(thief), k_jobs)
      << "every job the idle sibling ran had to come from the hot ring";
  EXPECT_GE(pool.total_steals(), k_jobs);

  release.store(true);
  pool.drain();
  EXPECT_EQ(pool.executed(), k_jobs + 1);
  EXPECT_EQ(pool.job_exceptions(), 0u);
}

// 8-worker stress with skewed affinities and multi-threaded submitters (run
// under TSan in CI): every job runs exactly once, nothing is lost to a ring,
// the overflow path, or a steal, and the queue fully drains.
TEST(WorkerPool, EightWorkerSkewedAffinityStressRunsEveryJobOnce) {
  core::worker_pool_config cfg;
  cfg.workers = 8;
  cfg.queue_capacity = 512;
  core::worker_pool pool(cfg);

  constexpr std::size_t k_jobs = 20'000;
  std::vector<std::atomic<int>> runs(k_jobs);
  std::vector<std::thread> producers;
  for (std::size_t p = 0; p < 4; ++p) {
    producers.emplace_back([&, p] {
      for (std::size_t i = p; i < k_jobs; i += 4) {
        // Zipf-ish skew: most jobs share a handful of affinities.
        const std::uint64_t affinity = (i % 16 == 0) ? i : i % 3;
        while (!pool.try_submit([&runs, i](core::worker_context&) {
          runs[i].fetch_add(1);
        }, affinity)) {
          std::this_thread::yield();  // full queue: retry (backpressure)
        }
      }
    });
  }
  for (auto& t : producers) t.join();
  pool.drain();

  for (std::size_t i = 0; i < k_jobs; ++i) {
    ASSERT_EQ(runs[i].load(), 1) << "job " << i << " lost or duplicated";
  }
  EXPECT_EQ(pool.executed(), k_jobs);
  EXPECT_EQ(pool.queue_depth(), 0u);
  EXPECT_EQ(pool.overflow_depth(), 0u);
  EXPECT_EQ(pool.job_exceptions(), 0u);
}

}  // namespace
}  // namespace nakika::proxy
