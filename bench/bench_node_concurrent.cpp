// End-to-end requests/sec of a Na Kika node in worker mode at 1/2/4/8
// workers, over four workloads:
//   cache-hit     every request served from the sharded content cache
//   script-heavy  every request runs the site's onResponse handler (VM)
//   pages         every request renders an .nkp page (uncacheable, so each
//                 one compiles + executes the page policy)
//   simm-edge     every request is a personalized SIMM page (paper §5.2):
//                 the origin returns XML and the site script renders it to
//                 HTML with XmlTransformer (stylesheet from the cache)
// Reports aggregate req/s, speedup vs one worker, and the node's own
// telemetry percentiles (p50/p99/p999 end-to-end latency from the span
// histograms). Speedup is only meaningful on multi-core runners; on a single
// hardware thread the numbers degenerate to ~1x (the harness prints the core
// count so results are interpretable). `--smoke` shrinks the run for CI: it
// validates the worker path end to end (every response checked) without
// measuring. `--gate` runs the telemetry overhead gate instead: cache-hit
// throughput with telemetry on must stay within 3% of telemetry off
// (best of 3 each), the CI bound on the tentpole's hot-path cost. Adding
// `--min-speedup <x>` to `--gate` also runs the scaling gate: cache-hit
// throughput at 4 workers must be at least x times the 1-worker throughput
// (best of 3 each). The scaling gate only arms on runners with >= 4 hardware
// threads — on smaller machines speedup degenerates to ~1x by construction,
// so it reports SKIPPED and passes.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>

#include "bench_common.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "proxy/deployment.hpp"
#include "workload/simm.hpp"

namespace nakika {
namespace {

constexpr std::size_t k_hot_urls = 256;

enum class load { cache_hit, script_heavy, pages, simm_edge };

struct bench_env {
  sim::event_loop loop;
  std::unique_ptr<sim::network> net;
  workload::simm_site simm;  // outlives the origin handlers that use it
  std::unique_ptr<proxy::origin_server> origin;
  std::unique_ptr<proxy::nakika_node> node;

  bench_env(load w, std::size_t workers, std::size_t queue_capacity, bool telemetry) {
    net = std::make_unique<sim::network>(loop);
    const sim::node_id origin_host = net->add_node("origin");
    const sim::node_id proxy_host = net->add_node("proxy");
    net->set_route(origin_host, proxy_host, 0.0005);
    origin = std::make_unique<proxy::origin_server>(*net, origin_host);

    for (std::size_t i = 0; i < k_hot_urls; ++i) {
      origin->add_static_text("hot.org", "/obj/" + std::to_string(i), "text/plain",
                              std::string(1024, 'h'), 36000);
    }
    origin->add_static_text("scripted.org", "/nakika.js", "application/javascript", R"JS(
      var p = new Policy();
      p.url = [ "scripted.org" ];
      p.onResponse = function () {
        var n = 0;
        for (var i = 0; i < 2000; i++) { n += i * i; }
        Response.setHeader("X-Work", "" + n);
      };
      p.register();
    )JS",
                            36000);
    for (std::size_t i = 0; i < k_hot_urls; ++i) {
      origin->add_static_text("scripted.org", "/doc/" + std::to_string(i), "text/plain",
                              std::string(512, 's'), 36000);
    }
    // Pages: a dynamic, uncacheable .nkp resource -> rendered per request.
    origin->add_dynamic("pages.org", "/page", [](const http::request& r) {
      proxy::origin_server::dynamic_result out;
      out.response = http::make_response(
          200, "text/nkp",
          util::make_body("Rendered: <?nkp var n = 0; for (var i = 0; i < 200; i++) "
                          "{ n += i; } Response.write(n); ?> for " +
                          r.url.path()));
      out.response.headers.set("Cache-Control", "no-store");
      return out;
    });
    // The SIMM site's media alone is tens of MB, so only its workload pays
    // for it.
    if (w == load::simm_edge) simm.install_edge(*origin);

    proxy::node_config cfg;
    cfg.workers = workers;
    cfg.queue_capacity = queue_capacity;
    cfg.resource_controls = false;  // measure the execution path, not admission
    cfg.telemetry = telemetry;
    proxy::origin_server* raw = origin.get();
    node = std::make_unique<proxy::nakika_node>(
        *net, proxy_host,
        [raw](const std::string&) -> proxy::http_endpoint* { return raw; },
        std::move(cfg));
  }
};

std::string url_for(load w, std::size_t i) {
  switch (w) {
    case load::cache_hit:
      return "http://hot.org/obj/" + std::to_string(i % k_hot_urls);
    case load::script_heavy:
      return "http://scripted.org/doc/" + std::to_string(i % k_hot_urls);
    case load::pages:
      return "http://pages.org/page";
    case load::simm_edge: {
      const std::size_t k = i % k_hot_urls;
      return std::string("http://") + workload::simm_site::host_name + "/content/m" +
             std::to_string(k % 5) + "/p" + std::to_string(k / 5 % 40) +
             ".xml?student=s" + std::to_string(k % 3);
    }
  }
  return "";
}

// A 200, and for SIMM pages the rendered HTML rather than the origin's XML.
bool response_ok(load w, const http::response& resp) {
  if (resp.status != 200) return false;
  return w != load::simm_edge ||
         (resp.body && resp.body->view().find("<h1>") != std::string_view::npos);
}

// Submits `total` requests with a bounded in-flight window (so the bench
// exercises the queue without tripping backpressure rejections) and returns
// aggregate requests/sec. `ok` counts verified-correct responses;
// `counters_out` (optional) receives the node's final counter snapshot so
// the harness can report single-flight coalescing.
double run_workload(load w, std::size_t workers, std::size_t total, std::size_t* ok,
                    util::run_counters* counters_out = nullptr,
                    obs::histogram_summary* latency_out = nullptr, bool telemetry = true) {
  bench_env env(w, workers, /*queue_capacity=*/512, telemetry);

  // Warm: populate the cache (cache-hit) and the script/chunk caches.
  {
    std::atomic<std::size_t> warm_done{0};
    for (std::size_t i = 0; i < k_hot_urls; ++i) {
      http::request r;
      r.url = http::url::parse(url_for(w, i));
      r.client_ip = "10.0.0.1";
      env.node->handle(r, [&](http::response) { warm_done.fetch_add(1); });
    }
    env.node->drain();
  }

  std::atomic<std::size_t> good{0};
  std::atomic<std::size_t> done{0};
  const auto start = std::chrono::steady_clock::now();
  std::size_t in_flight_cap = 256;
  for (std::size_t i = 0; i < total; ++i) {
    while (i - done.load(std::memory_order_acquire) >= in_flight_cap) {
      std::this_thread::yield();
    }
    http::request r;
    r.url = http::url::parse(url_for(w, i));
    r.client_ip = "10.0.0.1";
    env.node->handle(r, [&](http::response resp) {
      if (response_ok(w, resp)) good.fetch_add(1, std::memory_order_relaxed);
      done.fetch_add(1, std::memory_order_release);
    });
  }
  env.node->drain();
  const std::chrono::duration<double> elapsed = std::chrono::steady_clock::now() - start;
  if (ok != nullptr) *ok = good.load();
  if (counters_out != nullptr) *counters_out = env.node->counters();
  if (latency_out != nullptr) *latency_out = env.node->stage_latency(obs::stage::total);
  return static_cast<double>(total) / elapsed.count();
}

// Telemetry overhead gate (CI): cache-hit throughput, telemetry on vs off,
// best of `reps` runs each to damp scheduler noise. Returns the on/off ratio.
double telemetry_overhead_ratio(std::size_t workers, std::size_t total, int reps) {
  double best_off = 0.0;
  double best_on = 0.0;
  for (int i = 0; i < reps; ++i) {
    std::size_t ok = 0;
    best_off = std::max(best_off, run_workload(load::cache_hit, workers, total, &ok,
                                               nullptr, nullptr, /*telemetry=*/false));
    best_on = std::max(best_on, run_workload(load::cache_hit, workers, total, &ok,
                                             nullptr, nullptr, /*telemetry=*/true));
  }
  std::printf("cache-hit req/s: telemetry off %.0f, on %.0f (best of %d)\n", best_off,
              best_on, reps);
  return best_off > 0.0 ? best_on / best_off : 0.0;
}

// Scaling gate (CI, multi-core runners only): cache-hit throughput at 4
// workers vs 1 worker, best of `reps` runs each. Returns the speedup ratio.
double scaling_speedup(std::size_t total, int reps) {
  double best_1 = 0.0;
  double best_4 = 0.0;
  for (int i = 0; i < reps; ++i) {
    std::size_t ok = 0;
    best_1 = std::max(best_1, run_workload(load::cache_hit, 1, total, &ok));
    best_4 = std::max(best_4, run_workload(load::cache_hit, 4, total, &ok));
  }
  std::printf("cache-hit req/s: 1 worker %.0f, 4 workers %.0f (best of %d)\n", best_1,
              best_4, reps);
  return best_1 > 0.0 ? best_4 / best_1 : 0.0;
}

}  // namespace
}  // namespace nakika

int main(int argc, char** argv) {
  using namespace nakika;
  const bool smoke = bench::has_flag(argc, argv, "--smoke");
  bench::json_reporter json("bench_node_concurrent", argc, argv);

  if (bench::has_flag(argc, argv, "--gate")) {
    bench::print_header("Telemetry overhead gate",
                        "telemetry-on cache-hit throughput within 3% of telemetry-off");
    const double ratio = telemetry_overhead_ratio(/*workers=*/4, /*total=*/20'000, /*reps=*/3);
    std::printf("telemetry on/off throughput ratio: %.3f (gate: >= 0.970)\n", ratio);
    json.add("gate/workers=4", "telemetry_throughput_ratio", ratio);
    if (ratio < 0.97) {
      std::printf("FAIL: telemetry overhead exceeds 3%%\n");
      return 1;
    }
    if (const char* arg = bench::flag_value(argc, argv, "--min-speedup")) {
      const double min_speedup = std::strtod(arg, nullptr);
      const unsigned cores = std::thread::hardware_concurrency();
      bench::print_header("Multi-core scaling gate",
                          "4-worker cache-hit throughput vs 1 worker");
      if (cores < 4) {
        std::printf("SKIPPED: %u hardware threads (< 4), speedup is not meaningful here\n",
                    cores);
      } else {
        const double speedup = scaling_speedup(/*total=*/20'000, /*reps=*/3);
        std::printf("4-worker speedup: %.2fx (gate: >= %.2fx)\n", speedup, min_speedup);
        json.add("gate/scaling", "speedup_4_vs_1_workers", speedup);
        if (speedup < min_speedup) {
          std::printf("FAIL: scaling below --min-speedup\n");
          return 1;
        }
      }
    }
    std::printf("PASS\n");
    return 0;
  }

  bench::print_header(
      "Multi-worker node: end-to-end requests/sec",
      "scaling harness for the ROADMAP north star (no paper counterpart)");
  std::printf("%u hardware threads; speedup is only meaningful on multi-core runners\n\n",
              std::thread::hardware_concurrency());

  struct spec {
    const char* name;
    load w;
    std::size_t total;
    std::size_t smoke_total;
  };
  const spec specs[] = {
      {"cache-hit", load::cache_hit, 40'000, 1'000},
      {"script-heavy", load::script_heavy, 8'000, 500},
      {"pages", load::pages, 4'000, 300},
      {"simm-edge", load::simm_edge, 20'000, 300},
  };
  const std::size_t worker_counts[] = {1, 2, 4, 8};

  bool all_ok = true;
  for (const spec& s : specs) {
    const std::size_t total = smoke ? s.smoke_total : s.total;
    std::printf("-- %s (%zu requests)\n", s.name, total);
    bench::print_row("workers", {"req/s", "vs 1 worker", "p50 ms", "p99 ms", "p999 ms", "ok"});
    double base = 0.0;
    for (const std::size_t workers : worker_counts) {
      std::size_t ok = 0;
      util::run_counters counters;
      obs::histogram_summary latency;
      const double rps = run_workload(s.w, workers, total, &ok, &counters, &latency);
      if (workers == 1) base = rps;
      if (ok != total) all_ok = false;
      bench::print_row(std::to_string(workers),
                       {bench::num(rps, 0), bench::num(rps / base, 2) + "x",
                        bench::ms(latency.p50, 3), bench::ms(latency.p99, 3),
                        bench::ms(latency.p999, 3),
                        std::to_string(ok) + "/" + std::to_string(total)});
      const std::string config = std::string(s.name) + "/workers=" + std::to_string(workers);
      json.add(config, "requests_per_second", rps);
      json.add(config, "speedup_vs_1_worker", base > 0 ? rps / base : 0.0);
      // Single-flight effectiveness on the warm-up misses: how many requests
      // coalesced onto an in-flight fetch instead of refetching.
      json.add(config, "coalesced_requests", static_cast<double>(counters.coalesced));
      // End-to-end latency from the node's own span histograms (telemetry
      // tentpole): the same numbers telemetry_json() exports.
      json.add(config, "latency_p50_ms", latency.p50 * 1000.0);
      json.add(config, "latency_p99_ms", latency.p99 * 1000.0);
      json.add(config, "latency_p999_ms", latency.p999 * 1000.0);
    }
  }
  if (!all_ok) {
    std::printf("\nFAIL: some responses were not 200 or not rendered\n");
    return 1;
  }
  std::printf("\nall responses verified\n");
  return 0;
}
