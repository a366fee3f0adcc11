// A Na Kika edge node (paper Fig. 1): mediates HTTP exchanges through the
// scripting pipeline (client wall → site stages → server wall), caches
// original and processed content, cooperates with other nodes through the
// Coral-like overlay, and enforces congestion-based resource controls with a
// periodic monitor.
#pragma once

#include <atomic>
#include <condition_variable>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "cache/http_cache.hpp"
#include "cache/script_cache.hpp"
#include "core/cost_model.hpp"
#include "core/pages.hpp"
#include "core/pipeline.hpp"
#include "core/resource_manager.hpp"
#include "core/sandbox.hpp"
#include "core/worker_pool.hpp"
#include "net/peer_transport.hpp"
#include "net/single_flight.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "overlay/clusters.hpp"
#include "proxy/origin_server.hpp"
#include "state/local_store.hpp"
#include "state/replication.hpp"
#include "util/stats.hpp"

namespace nakika::proxy {

struct node_config {
  core::pipeline_config pipeline;
  core::cost_model costs;
  core::resource_capacities capacities;
  js::context_limits script_limits;

  // Compiled-chunk cache (content-hash keyed, shared across the node's
  // sandbox pools): entries, not bytes — chunks are small relative to bodies.
  std::size_t chunk_cache_entries = 512;
  // Bound on cached script sources / negative verdicts (ttl_cache).
  std::size_t script_cache_entries = 4096;

  bool resource_controls = true;
  double control_interval = 1.0;  // seconds between CONTROL phase-1 runs
  double control_timeout = 0.5;   // WAIT(TIMEOUT) before phase 2

  // When false the node is "the proxy with an integrated DHT" (Table 1's
  // DHT configuration): no walls, no site scripts, no sandboxes — just
  // caching plus cooperative lookup.
  bool scripting = true;

  bool enable_pages = true;       // Na Kika Pages (.nkp) rendering
  std::int64_t default_script_ttl = 300;

  // Content-cache sizing. Shards spread lock pressure across worker threads;
  // 0 auto-sizes from capacity (see cache::http_cache). Borrowing lets a hot
  // shard use the whole cache instead of thrashing in its 1/N slice.
  std::size_t content_cache_bytes = 256 * 1024 * 1024;
  std::size_t content_cache_shards = 0;
  bool content_cache_borrowing = true;
  // Scan-resistant admission (probation FIFO + ghost readmission, see
  // cache::http_cache): one-hit-wonder floods evict each other instead of
  // the hot set. Off = classic LRU insert-at-head.
  bool cache_admission = true;

  // --- multi-tenant isolation (scenario tier) ---------------------------------
  // Per-tenant (URL host) content-cache quotas: a configured tenant's cached
  // bytes are capped at its quota AND its entries are protected from other
  // tenants' evictions (cache::http_cache::set_tenant_quota).
  std::map<std::string, std::size_t> tenant_cache_quota_bytes;
  // Per-site congestion-control scheduling weights
  // (core::resource_manager::set_site_weight).
  std::map<std::string, double> site_weights;

  // Administrative control scripts; empty = no-op stage. Node administrators
  // may override these to enforce location-specific policy (paper §3.1).
  std::string clientwall_source;
  std::string serverwall_source;

  // What counts as "local" for System.isLocal: CIDRs or domain suffixes.
  std::vector<std::string> local_specs;

  // Per-stage plumbing overhead beyond measured script time (filter chain,
  // bucket-brigade bookkeeping in the paper's Apache implementation).
  // Calibrated so Match-1 capacity lands near the paper's half-of-proxy.
  double stage_overhead = 0.00095;

  std::uint64_t rng_seed = 42;

  // --- telemetry --------------------------------------------------------------
  // Per-request trace spans + per-stage latency histograms (src/obs). The
  // metrics registry itself is always on (it replaces the old stats mutex and
  // costs one relaxed add per event); this flag gates span collection and
  // stage timing, which is what the bench overhead gate compares.
  bool telemetry = true;
  // Worker-mode span sampling: every Nth request per worker gets a full
  // trace (per-stage stamps + a span-ring entry); the rest still land in the
  // end-to-end latency histogram, which reuses the elapsed time already
  // measured for billing and so stays exact per request. With workers = 0
  // every request is traced — the clock is the event loop's virtual time,
  // so full fidelity is free and deterministic there. 1 traces everything
  // in worker mode too.
  std::size_t trace_sample_every = 16;
  // Finished spans retained per worker slot (oldest dropped, drops counted).
  std::size_t span_ring_capacity = 256;
  // Log.write lines retained per site per worker slot (oldest dropped,
  // drops counted in telemetry) — bounds the formerly unbounded site_logs.
  std::size_t site_log_capacity = 256;

  // --- multi-worker execution -------------------------------------------------
  // Picks the executor the one request body runs on. 0 (default): the
  // caller's thread, with every wait (fetch, CPU bill) an event on the sim
  // loop — deterministic virtual time, which every experiment and fixed-seed
  // run relies on. N > 0: N OS threads, each with a private sandbox pool and
  // RNG, pull requests from a bounded queue and run the same body
  // synchronously (real wall-clock accounting, no virtual delays);
  // completion callbacks fire on those threads. Worker mode requires a
  // thread-safe resolve_origin that resolves to origin_server instances;
  // attach a threaded_peer_transport (deployment does this automatically
  // when the overlay is enabled) for multi-node cooperative caching.
  // Configure walls/content before the first request.
  std::size_t workers = 0;
  // Queue bound; a full queue rejects with 503 "server busy" (the paper's
  // congestion signal applied to admission, counters().rejected counts them).
  std::size_t queue_capacity = 1024;
};

class nakika_node : public http_endpoint, public net::peer_endpoint {
 public:
  nakika_node(sim::network& net, sim::node_id host, endpoint_resolver resolve_origin,
              node_config config = {});
  ~nakika_node() override;

  void handle(const http::request& r, std::function<void(http::response)> done) override;
  [[nodiscard]] sim::node_id host() const override { return host_; }

  // --- multi-worker mode ---
  [[nodiscard]] bool using_workers() const { return pool_ != nullptr; }
  // Blocks until every queued request has completed (worker mode only; no-op
  // for the sim path, where loop.run() plays this role).
  void drain();
  [[nodiscard]] core::worker_pool* pool() { return pool_.get(); }

  // --- cooperative caching ---
  // Attaches the peer transport this node locates and fetches peer copies
  // through: a sim_peer_transport on the deterministic event-loop path, a
  // threaded_peer_transport for worker-mode clusters (deployment picks the
  // right one). The node owns the transport.
  void attach_peer_transport(std::unique_ptr<net::peer_transport> transport);
  // Cache-only lookup used by peers (no origin fallback). Thread-safe: the
  // content cache is sharded and the clock is the node's own epoch, so
  // foreign worker threads may probe while this node is serving.
  [[nodiscard]] std::optional<http::response> lookup_cache_only(const std::string& url);
  // net::peer_endpoint: what a peer transport needs from the remote side.
  [[nodiscard]] std::optional<http::response> peer_cache_lookup(
      const std::string& url) override {
    return lookup_cache_only(url);
  }
  [[nodiscard]] sim::node_id peer_host() const override { return host_; }

  // --- hard state ---
  void attach_replica(const std::string& site, state::replica* r);
  [[nodiscard]] state::local_store& store() { return store_; }

  // --- resource controls ---
  // Starts the periodic CONTROL monitor: on the event loop with workers = 0,
  // on a background thread in worker mode.
  void start_monitor();
  [[nodiscard]] core::resource_manager& resources() { return resources_; }

  // --- administrative scripts ---
  void set_wall_sources(std::string clientwall, std::string serverwall);

  // --- introspection ---
  // Snapshots merge per-worker accumulators, so they are safe to take while
  // workers are serving (and cheap: a handful of relaxed loads per slot).
  [[nodiscard]] cache::http_cache& content_cache() { return content_cache_; }
  [[nodiscard]] util::run_counters counters() const { return counters_.snapshot(); }
  // One slot's share: slot 0 is the caller thread's, slot w + 1 worker w's.
  [[nodiscard]] util::run_counters counters(std::size_t slot) const {
    return counters_.snapshot(slot);
  }
  [[nodiscard]] std::vector<std::string> site_log(const std::string& site) const;
  [[nodiscard]] const node_config& config() const { return config_; }
  [[nodiscard]] std::size_t sandboxes_created() const;

  // Cumulative script-time split across all pipelines: how much real time
  // went into making code runnable (parse + bytecode compile + decision-tree
  // build) vs running it (stage evaluation + handlers), plus cache
  // effectiveness: compiled-chunk cache probes (node-wide, shared across
  // sandbox pools) and VM inline-cache hits/misses (summed over pipelines).
  struct script_time_stats {
    double compile_seconds = 0.0;
    double execute_seconds = 0.0;
    // Snapshotted together from the node-wide chunk cache, so the pair
    // describes one probe population and yields a real hit rate.
    std::uint64_t chunk_cache_hits = 0;
    std::uint64_t chunk_cache_misses = 0;
    std::uint64_t ic_hits = 0;
    std::uint64_t ic_misses = 0;
    // Hit-state split: way-0 hits (monomorphic sites), way-1..3 hits
    // (polymorphic), and lookups at sites that overflowed to megamorphic.
    // mono+poly == ic_hits; mega lookups are neither hits nor misses.
    std::uint64_t ic_mono_hits = 0;
    std::uint64_t ic_poly_hits = 0;
    std::uint64_t ic_mega_lookups = 0;
    // Shape (hidden-class) registry health, summed over runs: transition-tree
    // growth and objects that fell back to dictionary mode (deletes, table
    // overflow).
    std::uint64_t shape_transitions = 0;
    std::uint64_t shape_dict_fallbacks = 0;
    std::uint64_t stages_executed = 0;
  };
  [[nodiscard]] script_time_stats script_times() const;
  // Per-site inline-cache effectiveness (the per-site twin of the aggregate
  // ic_hits/ic_misses above), so a misbehaving or cache-hostile site's
  // scripts are observable in isolation.
  struct site_cache_stats {
    std::uint64_t ic_hits = 0;
    std::uint64_t ic_misses = 0;
    std::uint64_t ic_mono_hits = 0;
    std::uint64_t ic_poly_hits = 0;
    std::uint64_t ic_mega_lookups = 0;
  };
  [[nodiscard]] site_cache_stats site_cache(const std::string& site) const;
  [[nodiscard]] core::chunk_cache& chunks() { return chunk_cache_; }

  // Single-flight effectiveness across both flight tables (top-level misses
  // + script sub-fetches): leaders = upstream fetches executed, waiters =
  // requests that coalesced onto one (== counters().coalesced).
  [[nodiscard]] net::single_flight::stats flight_stats() const {
    const net::single_flight::stats top = flights_.snapshot();
    const net::single_flight::stats sub = sub_flights_.snapshot();
    return {top.leaders + sub.leaders, top.waiters + sub.waiters};
  }
  // Virtual network latency the threaded peer transport accounted (overlay
  // walks + peer round-trips); 0 on the sim path, which bills the event loop
  // instead.
  [[nodiscard]] double peer_latency_seconds() const {
    return static_cast<double>(peer_latency_micros_.load(std::memory_order_relaxed)) * 1e-6;
  }

  // Virtual-epoch clock: event-loop time on the sim path, wall-clock seconds
  // since construction in worker mode. Safe from any thread.
  [[nodiscard]] double virtual_now() const;

  // Span-stamp clock: same epochs as virtual_now, but worker mode reads the
  // calibrated TSC (obs::fast_clock) instead of clock_gettime — spans take
  // several stamps per request, so this is what the <3% overhead gate rides
  // on. Billing and TTL logic keep virtual_now.
  [[nodiscard]] double trace_now() const;

  // --- telemetry ---
  // Merged view of everything above plus per-stage latency histograms and
  // per-tenant breakdowns. Safe to take while workers serve: counters are
  // relaxed loads, span/log slots take only slot-local mutexes.
  [[nodiscard]] obs::telemetry_snapshot telemetry() const;
  [[nodiscard]] std::string telemetry_json() const { return obs::to_json(telemetry()); }
  [[nodiscard]] std::string stats_text() const { return obs::stats_report(telemetry()); }
  // Retained trace spans (slot 0 — the sim/caller thread — first).
  [[nodiscard]] std::vector<obs::span_record> recent_spans() const {
    return spans_.snapshot();
  }
  [[nodiscard]] std::uint64_t spans_dropped() const { return spans_.dropped(); }
  [[nodiscard]] const obs::metrics_registry& metrics() const { return metrics_; }
  // Summary of one request stage's latency histogram.
  [[nodiscard]] obs::histogram_summary stage_latency(obs::stage s) const {
    return obs::summarize(
        metrics_.histogram_merged(ids_.stage_hist[static_cast<std::size_t>(s)]));
  }

 private:
  struct script_entry {
    std::string source;
    std::uint64_t version = 0;
  };
  using respond = std::function<void(http::response)>;

  // One request's trip through the node (nakika_node.cpp): handle()
  // allocates it, every continuation of the request body carries it, and
  // answer() frees it once the client has its response.
  struct request_state;
  // The sim/worker seam: everything the request body does differently on
  // the event loop (workers = 0) and on a pool thread — clocks, CPU
  // billing, origin access, miss coalescing, sub-fetch delay. Exactly two
  // implementations, sim_executor and worker_executor (nakika_node.cpp).
  class executor;
  class sim_executor;
  class worker_executor;

  // The request body, in continuation style: each step that may wait
  // continues through a callback, which the sim executor fires from the
  // event loop and the worker executor before the call returns. `slot` is
  // wc's metrics/counter slot.
  void run(request_state* st, core::worker_context& wc, std::size_t slot);
  void run_pipeline(request_state* st);
  void finish_pipeline(request_state* st, core::pipeline_result result);
  // Sends st->response to the client and frees the request.
  void answer(request_state* st);
  // Seals the request's latency: its span when sampled, otherwise only the
  // end-to-end histogram.
  void record_latency(request_state& st, int status, double elapsed_seconds);

  // Pool-return reclamation with attribution: runs the sandbox's cycle
  // collection, bills the GC time to `site` through the resource manager
  // (when resource controls are on), and folds the collection into gc
  // counters, the gc_pause histogram, and the per-site accumulators at
  // `slot`. The caller returns the sandbox to its worker_context afterwards.
  js::gc_cycle_result reclaim_sandbox(const std::string& site, core::sandbox* sb,
                                      bool poisoned, std::size_t slot);

  // Stage scripts: walls from configuration, then the negative, script and
  // content caches, then the origin (whose verdict is cached in turn).
  void load_stage_script(const std::string& url,
                         std::function<void(core::stage_fetch_result)> cb);
  // The request's resource: content cache, then (under miss coalescing)
  // fetch_miss. `cb` gets the response and the cost-model delay it owes.
  void fetch_resource(request_state* st, const http::request& r,
                      std::function<void(http::response, double)> cb);
  // The miss side: peer transport first (when attached and the URL is
  // cacheable), then the origin. `r` outlives the fetch: it is the request
  // state's or the pipeline's own request, which the continuation chain
  // keeps alive.
  void fetch_miss(request_state* st, const http::request& r, respond next);
  void fetch_origin(request_state* st, const http::request& r, respond next);
  // Renders a fetched NKP page, caches and advertises the result, continues.
  void store_fetched(request_state* st, const http::request& r, http::response resp,
                     respond next);
  http::response maybe_render_nkp(request_state& st, const http::request& r,
                                  http::response resp);
  core::fetch_result sub_fetch(request_state* st, const http::request& r);

  // One CONTROL round over every resource: phase 1, then `wait` runs phase
  // 2 after the control timeout. The two schedulers below drive it.
  void control_round(const std::function<void(std::function<void()>)>& wait);
  void monitor_tick();  // event-loop scheduler (workers = 0)
  void monitor_main();  // background CONTROL thread (worker mode)

  // Merges one pipeline's outcome into counters/resources/the metrics
  // registry at `counter_slot`.
  void account_pipeline(const std::string& site, const core::pipeline_result& result,
                        double elapsed_seconds, std::size_t counter_slot);
  // Seals a request's trace span: records the total + per-stage histograms at
  // `slot`, bumps outcome counters from the span's flags, pushes it into the
  // span ring. `status` is the response code sent to the client.
  void finish_span(obs::trace_context& trace, std::uint16_t status, double total_seconds,
                   std::size_t slot);
  // Registers the node's counters/histograms (setup-time, before workers).
  void register_metrics();

  sim::network& net_;
  sim::node_id host_;
  endpoint_resolver resolve_origin_;
  node_config config_;

  core::pipeline_executor pipeline_;
  core::resource_manager resources_;
  cache::http_cache content_cache_;
  cache::ttl_cache<script_entry> script_cache_;
  cache::negative_cache no_script_;
  core::chunk_cache chunk_cache_;  // compiled bytecode, shared by all sandboxes
  state::local_store store_;
  std::map<std::string, state::replica*> replicas_;

  // The caller thread's context (slot 0): sandbox pools (the paper isolates
  // pipelines and reuses contexts) and the admission RNG of every request
  // run inline, i.e. with workers = 0. Pool workers own their own.
  core::worker_context caller_;

  // Cooperative caching: the transport encapsulates overlay membership and
  // how peer copies travel (virtual-time sim events vs direct cross-thread
  // calls). Null until attached; the miss path then goes straight to origin.
  std::unique_ptr<net::peer_transport> transport_;
  // Single-flight tables for misses (only worker mode has concurrent ones to
  // collapse): concurrent requests for one URL share one upstream (peer or
  // origin) fetch. Top-level misses and script sub-fetches coalesce
  // separately — a top-level leader renders NKP pages and advertises its
  // copy, a sub-fetch leader must not — so a waiter never receives a
  // response that skipped its path's side effects.
  net::single_flight flights_;
  net::single_flight sub_flights_;
  std::atomic<std::uint64_t> peer_latency_micros_{0};

  // --- telemetry (lock-free hot path; see src/obs) ---
  // Script-time splits, IC effectiveness, stage latency histograms, and
  // outcome counters live in the registry as per-worker slots — one relaxed
  // atomic add per event, merged on read. This replaced the stats mutex that
  // used to serialize every request's accounting (ROADMAP open item 1).
  struct telemetry_ids {
    std::array<obs::metrics_registry::metric_id, obs::stage_count> stage_hist{};
    obs::metrics_registry::metric_id compile_nanos = 0;
    obs::metrics_registry::metric_id execute_nanos = 0;
    obs::metrics_registry::metric_id ic_hits = 0;
    obs::metrics_registry::metric_id ic_misses = 0;
    obs::metrics_registry::metric_id ic_mono_hits = 0;
    obs::metrics_registry::metric_id ic_poly_hits = 0;
    obs::metrics_registry::metric_id ic_mega_lookups = 0;
    obs::metrics_registry::metric_id shape_transitions = 0;
    obs::metrics_registry::metric_id shape_dict_fallbacks = 0;
    obs::metrics_registry::metric_id shapes_live = 0;  // gauge: latest run's table size
    obs::metrics_registry::metric_id stages_executed = 0;
    obs::metrics_registry::metric_id out_cache_hit = 0;
    obs::metrics_registry::metric_id out_cache_miss = 0;
    obs::metrics_registry::metric_id out_peer_hit = 0;
    obs::metrics_registry::metric_id out_origin = 0;
    obs::metrics_registry::metric_id out_coalesced = 0;
    obs::metrics_registry::metric_id out_throttled = 0;
    obs::metrics_registry::metric_id out_terminated = 0;
    obs::metrics_registry::metric_id out_failed = 0;
    obs::metrics_registry::metric_id out_nkp = 0;
    // Cycle collector: cumulative counters plus the pause histogram
    // (individual collection slices/cycles, exported as "gc_pause").
    obs::metrics_registry::metric_id gc_collections = 0;
    obs::metrics_registry::metric_id gc_objects = 0;
    obs::metrics_registry::metric_id gc_bytes = 0;
    obs::metrics_registry::metric_id gc_pause = 0;
  };
  obs::metrics_registry metrics_;
  telemetry_ids ids_;
  obs::span_ring spans_;
  // Per-site accumulators (requests, ICs, bounded Log.write ring): each
  // worker updates its own slot, so workers never serialize against each
  // other — only telemetry readers take the slot locks.
  struct site_obs {
    std::uint64_t requests = 0;
    std::uint64_t ic_hits = 0;
    std::uint64_t ic_misses = 0;
    std::uint64_t ic_mono_hits = 0;
    std::uint64_t ic_poly_hits = 0;
    std::uint64_t ic_mega_lookups = 0;
    std::uint64_t terminated = 0;
    std::uint64_t log_lines_total = 0;
    std::uint64_t log_dropped = 0;
    // GC work this tenant caused: watermark collections inside its runs plus
    // pool-return reclamation of its sandboxes.
    double gc_seconds = 0.0;
    std::uint64_t gc_collections = 0;
    std::deque<std::string> log;  // bounded by config.site_log_capacity
  };
  obs::per_worker_keyed<site_obs> site_obs_;
  // Span-sampling decimation counters, one per slot (see
  // node_config::trace_sample_every, which sets trace_every_ in worker
  // mode). Slot-private single-writer state, so plain integers.
  struct alignas(64) trace_decim {
    std::uint64_t n = 0;
  };
  std::vector<trace_decim> trace_decim_;
  std::size_t trace_every_;
  // Slot 0 = caller thread, slot w+1 = worker w.
  util::sharded_run_counters counters_;
  std::atomic<std::uint64_t> next_script_version_{1};
  bool monitor_running_ = false;

  // --- worker mode ---
  std::unique_ptr<core::worker_pool> pool_;
  std::thread monitor_thread_;
  std::mutex monitor_mu_;
  std::condition_variable monitor_cv_;
  bool monitor_stop_ = false;

  std::unique_ptr<executor> exec_;
};

}  // namespace nakika::proxy
