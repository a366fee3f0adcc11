// Multi-node worker-cluster tier (run under TSan in CI): concurrently-running
// worker-mode nodes cooperating through the thread-safe peer transport.
//   - a 2-node scenario whose peer-cache hits and served bytes must equal the
//     deterministic sim-path oracle (same deployment, workers=0),
//   - a 4-node x 4-worker mixed stress: every response verified, peer hits
//     observed, no lost/duplicated completions, race-free under TSan,
//   - single-flight coalescing: a burst of identical cold URLs collapses to
//     one origin fetch, asserted via the origin's handler count and the new
//     coalesced/flight counters.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "proxy/deployment.hpp"

namespace nakika::proxy {
namespace {

constexpr std::size_t k_urls = 32;

const char* k_site_script = R"JS(
  var p = new Policy();
  p.url = [ "scripted.org" ];
  p.onResponse = function () {
    var n = 0;
    for (var i = 0; i < 300; i++) { n += i; }
    Response.setHeader("X-Work", "" + n);
  };
  p.register();
)JS";

// A deployment of `n_nodes` Na Kika nodes on a low-latency proxy mesh with
// one origin. With workers > 0 every node serves concurrently and the
// deployment attaches the threaded peer transport; with workers = 0 the same
// wiring runs on the event loop (the oracle).
struct cluster_env {
  sim::event_loop loop;
  sim::network net{loop};
  std::unique_ptr<deployment> dep;
  origin_server* origin = nullptr;
  sim::node_id client = 0;
  std::vector<nakika_node*> nodes;

  cluster_env(std::size_t n_nodes, std::size_t workers, std::size_t queue_capacity = 4096) {
    const sim::node_id origin_host = net.add_node("origin");
    client = net.add_node("client");
    std::vector<sim::node_id> hosts;
    for (std::size_t i = 0; i < n_nodes; ++i) {
      hosts.push_back(net.add_node("p" + std::to_string(i)));
    }
    for (std::size_t i = 0; i < n_nodes; ++i) {
      net.set_route(hosts[i], origin_host, 0.005);
      net.set_route(hosts[i], client, 0.001);
      for (std::size_t j = i + 1; j < n_nodes; ++j) {
        net.set_route(hosts[i], hosts[j], 0.002);  // one tight Coral cluster
      }
    }

    dep = std::make_unique<deployment>(net);
    origin = &dep->create_origin(origin_host);
    dep->map_host("static.org", *origin);
    dep->map_host("scripted.org", *origin);
    dep->map_host("slow.org", *origin);
    for (std::size_t i = 0; i < k_urls; ++i) {
      origin->add_static_text("static.org", "/obj/" + std::to_string(i), "text/plain",
                              "body-" + std::to_string(i), 3600);
      origin->add_static_text("scripted.org", "/doc/" + std::to_string(i), "text/plain",
                              "doc-" + std::to_string(i), 3600);
    }
    origin->add_static_text("scripted.org", "/nakika.js", "application/javascript",
                            k_site_script, 3600);

    dep->enable_overlay();
    for (std::size_t i = 0; i < n_nodes; ++i) {
      node_config cfg;
      cfg.workers = workers;
      cfg.queue_capacity = queue_capacity;
      cfg.resource_controls = false;
      nodes.push_back(&dep->create_node(hosts[i], std::move(cfg)));
    }
    // Settle the overlay joins' bootstrap traffic (single-threaded, before
    // any concurrent serving starts).
    loop.run();
  }

  // One request in worker mode: enqueue + drain (callers drain in bulk for
  // concurrent submissions).
  http::response fetch_worker(nakika_node& node, const std::string& url) {
    http::request r;
    r.url = http::url::parse(url);
    r.client_ip = "10.0.0.1";
    http::response out;
    node.handle(r, [&](http::response resp) { out = std::move(resp); });
    node.drain();
    return out;
  }

  // One request on the sim path, driven to completion on the event loop.
  http::response fetch_sim(nakika_node& node, const std::string& url) {
    http::request r;
    r.url = http::url::parse(url);
    r.client_ip = "10.0.0.1";
    http::response out;
    forward_request(net, client, node, r, [&](http::response resp) { out = std::move(resp); });
    loop.run();
    return out;
  }
};

std::string url_for(std::size_t i) {
  return i % 2 == 0 ? "http://static.org/obj/" + std::to_string(i % k_urls)
                    : "http://scripted.org/doc/" + std::to_string(i % k_urls);
}

bool response_matches(std::size_t i, const http::response& resp) {
  if (resp.status != 200 || !resp.body) return false;
  if (i % 2 == 0) return resp.body->view() == "body-" + std::to_string(i % k_urls);
  return resp.body->view() == "doc-" + std::to_string(i % k_urls) &&
         resp.headers.get("X-Work") == "44850";
}

// ----- worker cluster vs sim oracle ---------------------------------------------

// Warm every URL through node 0, then serve the same set through node 1:
// every node-1 request must be a peer-cache hit (node 0 advertised its
// copies), and the worker-mode run must agree with the deterministic sim
// oracle on bodies, peer-hit counts, and origin load.
struct oracle_outcome {
  std::vector<std::pair<int, std::string>> responses;  // node 1's (status, body)
  std::size_t peer_hits = 0;
  std::size_t peer_misses = 0;
  std::uint64_t origin_served = 0;
};

oracle_outcome run_two_node_scenario(std::size_t workers) {
  cluster_env env(2, workers);
  oracle_outcome out;
  for (std::size_t i = 0; i < k_urls; ++i) {
    const http::response resp =
        workers > 0 ? env.fetch_worker(*env.nodes[0], url_for(i))
                    : env.fetch_sim(*env.nodes[0], url_for(i));
    EXPECT_EQ(resp.status, 200) << "warm fetch " << i;
  }
  for (std::size_t i = 0; i < k_urls; ++i) {
    const http::response resp =
        workers > 0 ? env.fetch_worker(*env.nodes[1], url_for(i))
                    : env.fetch_sim(*env.nodes[1], url_for(i));
    out.responses.emplace_back(resp.status,
                               std::string(resp.body ? resp.body->view() : ""));
  }
  const util::run_counters c = env.nodes[1]->counters();
  out.peer_hits = c.peer_hits;
  out.peer_misses = c.peer_misses;
  out.origin_served = env.origin->requests_served();
  return out;
}

TEST(WorkerCluster, PeerCacheHitsEqualSimPathOracle) {
  const oracle_outcome oracle = run_two_node_scenario(/*workers=*/0);
  const oracle_outcome cluster = run_two_node_scenario(/*workers=*/4);

  // The oracle itself must demonstrate cooperative caching: node 1 answered
  // every content request from node 0's cache.
  ASSERT_EQ(oracle.peer_hits, k_urls);
  EXPECT_EQ(oracle.peer_misses, 0u);

  EXPECT_EQ(cluster.peer_hits, oracle.peer_hits);
  EXPECT_EQ(cluster.peer_misses, oracle.peer_misses);
  EXPECT_EQ(cluster.origin_served, oracle.origin_served)
      << "worker cluster must shield the origin exactly like the sim path";
  ASSERT_EQ(cluster.responses.size(), oracle.responses.size());
  for (std::size_t i = 0; i < oracle.responses.size(); ++i) {
    EXPECT_EQ(cluster.responses[i].first, oracle.responses[i].first) << "status " << i;
    EXPECT_EQ(cluster.responses[i].second, oracle.responses[i].second) << "body " << i;
  }
  // The threaded transport accounted virtual network cost for its walks.
  EXPECT_GT(run_two_node_scenario(/*workers=*/1).peer_hits, 0u);
}

// Advertising a fresh copy is an overlay store walk on the miss path; the
// node's spans time it as its own stage instead of leaving it inside `total`.
TEST(WorkerCluster, AdvertiseWalkIsTimedAsItsOwnStage) {
  cluster_env env(2, /*workers=*/1);
  for (std::size_t i = 0; i < k_urls; ++i) {
    ASSERT_EQ(env.fetch_worker(*env.nodes[0], url_for(i)).status, 200) << i;
  }
  EXPECT_GT(env.nodes[0]->stage_latency(obs::stage::advertise).count, 0u);
}

// ----- 4-node x 4-worker stress --------------------------------------------------

TEST(WorkerCluster, FourNodeFourWorkerStressServesAndSharesRaceFree) {
  constexpr std::size_t k_nodes = 4;
  constexpr std::size_t k_per_node = 1'500;
  cluster_env env(k_nodes, /*workers=*/4);

  std::atomic<std::size_t> done{0};
  std::atomic<std::size_t> mismatches{0};

  // Two producer threads per node; phases shifted per node so each node's
  // early misses are another node's already-cached content.
  std::vector<std::thread> producers;
  for (std::size_t n = 0; n < k_nodes; ++n) {
    for (std::size_t half = 0; half < 2; ++half) {
      producers.emplace_back([&, n, half] {
        const std::size_t begin = half * (k_per_node / 2);
        const std::size_t end = begin + k_per_node / 2;
        for (std::size_t i = begin; i < end; ++i) {
          const std::size_t idx = i + n * (k_urls / k_nodes);
          http::request r;
          r.url = http::url::parse(url_for(idx));
          r.client_ip = "10.0.0.1";
          env.nodes[n]->handle(r, [&, idx](http::response resp) {
            if (!response_matches(idx, resp)) mismatches.fetch_add(1);
            done.fetch_add(1);
          });
        }
      });
    }
  }
  for (auto& t : producers) t.join();
  for (auto* node : env.nodes) node->drain();

  EXPECT_EQ(done.load(), k_nodes * (k_per_node / 2) * 2);
  EXPECT_EQ(mismatches.load(), 0u);

  std::size_t total_completed = 0;
  std::size_t total_peer_hits = 0;
  for (auto* node : env.nodes) {
    const util::run_counters c = node->counters();
    total_completed += c.completed;
    total_peer_hits += c.peer_hits;
    EXPECT_EQ(node->pool()->job_exceptions(), 0u);
    EXPECT_EQ(c.failed, 0u);
    EXPECT_EQ(c.rejected, 0u);
  }
  EXPECT_EQ(total_completed, done.load());
  EXPECT_GT(total_peer_hits, 0u)
      << "a 4-node cluster over one hot URL set must serve some misses from peers";
}

// ----- single-flight coalescing --------------------------------------------------

TEST(WorkerCluster, SingleFlightCollapsesConcurrentMissesToOneOriginFetch) {
  cluster_env env(1, /*workers=*/4);
  std::atomic<int> handler_calls{0};
  env.origin->add_dynamic("slow.org", "/cold", [&](const http::request&) {
    handler_calls.fetch_add(1);
    std::this_thread::sleep_for(std::chrono::milliseconds(250));
    origin_server::dynamic_result out;
    out.response = http::make_response(200, "text/plain", util::make_body("cold-body"));
    out.response.headers.set("Cache-Control", "max-age=3600");
    return out;
  });

  constexpr std::size_t k_burst = 16;
  std::atomic<std::size_t> done{0};
  std::atomic<std::size_t> good{0};
  for (std::size_t i = 0; i < k_burst; ++i) {
    http::request r;
    r.url = http::url::parse("http://slow.org/cold");
    r.client_ip = "10.0.0.1";
    env.nodes[0]->handle(r, [&](http::response resp) {
      if (resp.status == 200 && resp.body && resp.body->view() == "cold-body") {
        good.fetch_add(1);
      }
      done.fetch_add(1);
    });
  }
  env.nodes[0]->drain();

  EXPECT_EQ(done.load(), k_burst);
  EXPECT_EQ(good.load(), k_burst);
  EXPECT_EQ(handler_calls.load(), 1)
      << "concurrent same-URL misses must collapse onto one upstream fetch";

  const util::run_counters c = env.nodes[0]->counters();
  const net::single_flight::stats fs = env.nodes[0]->flight_stats();
  EXPECT_GE(fs.leaders, 1u);
  EXPECT_GE(c.coalesced, 1u) << "with 4 workers and a 250 ms origin, some "
                                "requests must have parked on the flight";
  EXPECT_EQ(c.coalesced, fs.waiters);
  EXPECT_EQ(c.completed, k_burst);
}

// A script sub-fetch that parks on another worker's flight is counted in the
// waiting request's own worker slot, never in slot 0 (the caller thread's).
TEST(WorkerCluster, CoalescedSubFetchesCountInTheirWorkersSlot) {
  cluster_env env(1, /*workers=*/2);
  env.dep->map_host("subs.org", *env.origin);
  env.origin->add_dynamic("slow.org", "/shared", [](const http::request&) {
    std::this_thread::sleep_for(std::chrono::milliseconds(250));
    origin_server::dynamic_result out;
    out.response = http::make_response(200, "text/plain", util::make_body("shared"));
    out.response.headers.set("Cache-Control", "max-age=3600");
    return out;
  });
  env.origin->add_static_text("subs.org", "/nakika.js", "application/javascript", R"JS(
    var p = new Policy();
    p.url = [ "subs.org" ];
    p.onResponse = function () {
      Response.setHeader("X-Sub", Fetch.fetch("http://slow.org/shared").body.toString());
    };
    p.register();
  )JS",
                              3600);

  constexpr std::size_t k_requests = 4;
  for (std::size_t i = 0; i < k_requests; ++i) {
    env.origin->add_static_text("subs.org", "/p" + std::to_string(i), "text/plain", "page",
                                3600);
  }
  std::atomic<std::size_t> good{0};
  for (std::size_t i = 0; i < k_requests; ++i) {
    http::request r;
    r.url = http::url::parse("http://subs.org/p" + std::to_string(i));
    r.client_ip = "10.0.0.1";
    env.nodes[0]->handle(r, [&](http::response resp) {
      if (resp.status == 200 && resp.headers.get("X-Sub") == "shared") good.fetch_add(1);
    });
  }
  env.nodes[0]->drain();
  EXPECT_EQ(good.load(), k_requests);

  const util::run_counters all = env.nodes[0]->counters();
  ASSERT_GE(all.coalesced, 1u) << "with 2 workers and a 250 ms origin, a sub-fetch "
                                  "must have parked on the other worker's flight";
  EXPECT_EQ(env.nodes[0]->counters(0).coalesced, 0u);
  EXPECT_EQ(env.nodes[0]->counters(1).coalesced + env.nodes[0]->counters(2).coalesced,
            all.coalesced);
}

// Query-bearing URLs are personalized: they must bypass coalescing and each
// reach the origin.
TEST(WorkerCluster, QueryUrlsBypassCoalescing) {
  cluster_env env(1, /*workers=*/2);
  std::atomic<int> handler_calls{0};
  env.origin->add_dynamic("slow.org", "/per-user", [&](const http::request& r) {
    handler_calls.fetch_add(1);
    origin_server::dynamic_result out;
    out.response = http::make_response(200, "text/plain",
                                       util::make_body("for " + r.url.query()));
    out.response.headers.set("Cache-Control", "no-store");
    return out;
  });

  constexpr std::size_t k_requests = 8;
  std::atomic<std::size_t> done{0};
  for (std::size_t i = 0; i < k_requests; ++i) {
    http::request r;
    r.url = http::url::parse("http://slow.org/per-user?u=" + std::to_string(i));
    r.client_ip = "10.0.0.1";
    env.nodes[0]->handle(r, [&](http::response resp) {
      EXPECT_EQ(resp.status, 200);
      done.fetch_add(1);
    });
  }
  env.nodes[0]->drain();
  EXPECT_EQ(done.load(), k_requests);
  EXPECT_EQ(handler_calls.load(), static_cast<int>(k_requests));
  EXPECT_EQ(env.nodes[0]->counters().coalesced, 0u);
}

}  // namespace
}  // namespace nakika::proxy
