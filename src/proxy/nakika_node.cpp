#include "proxy/nakika_node.hpp"

#include <stdexcept>

#include "http/wire.hpp"
#include "overlay/redirector.hpp"
#include "proxy/plain_proxy.hpp"
#include "util/ebr.hpp"
#include "util/logging.hpp"

namespace nakika::proxy {

using counter_field = util::sharded_run_counters::field;

namespace {
double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

// Trace clock: virtual time on the workers=0 sim path (the event loop does
// not advance during synchronous CPU work, so span stamps are reproducible
// for a fixed seed), TSC-backed wall seconds since node start in worker
// mode — a span takes several stamps per request, so the cheap clock is
// what keeps the telemetry overhead gate honest.
double trace_clock(void* node) {
  return static_cast<const nakika_node*>(node)->trace_now();
}
}  // namespace

// ----- the per-request state and the sim/worker seam -----------------------------------

struct nakika_node::request_state {
  request_state(const http::request& r, respond d) : request(r), done(std::move(d)) {}
  request_state(const request_state&) = delete;  // continuations hold its address
  request_state& operator=(const request_state&) = delete;

  http::request request;  // host-rewritten in place; moved into the pipeline
  respond done;
  std::string site;
  core::worker_context* wc = nullptr;  // sandbox pools + admission RNG
  std::size_t slot = 0;                // wc's metrics/counter slot
  obs::trace_context trace;            // disabled unless sampled
  double start = 0.0;                  // virtual_now() on entry
  core::sandbox* sb = nullptr;         // checked out while the pipeline runs
  double setup_cpu = 0.0;              // proxy overhead + context create/reuse
  http::response response;             // what answer() sends
  bool* answered = nullptr;            // set by answer() (worker-mode backstop)

  obs::trace_context* tr() { return trace.enabled() ? &trace : nullptr; }
};

class nakika_node::executor {
 public:
  executor() = default;
  executor(const executor&) = delete;
  executor& operator=(const executor&) = delete;
  virtual ~executor() = default;
  // The node's clocks (see virtual_now and trace_now).
  [[nodiscard]] virtual double now() const = 0;
  [[nodiscard]] virtual double trace_now() const { return now(); }
  // Bills `cpu` seconds of node CPU, then `delay` seconds of network time,
  // then continues.
  virtual void charge(double cpu, double delay, std::function<void()> next) = 0;
  // Stretch factor of a pipeline's CPU bill under memory pressure, after
  // `churn_bytes` more script allocation.
  virtual double memory_pressure(double churn_bytes) = 0;
  // Sends `r` to its origin and continues with the response, or with
  // nullopt when the host resolves to no origin this executor can reach.
  virtual void origin(const http::request& r,
                      std::function<void(std::optional<http::response>)> next) = 0;
  // Runs `fetch` for `key` under `flights`' single-flight discipline and
  // continues with its response and whether this caller only waited on
  // another caller's flight.
  virtual void coalesce(net::single_flight& flights, const std::string& key,
                        const std::function<void(respond)>& fetch,
                        std::function<void(http::response, bool)> next) = 0;
  // Network time a script sub-fetch that `origin` served owes the pipeline.
  [[nodiscard]] virtual double sub_fetch_delay(const origin_server& origin,
                                               const http::response& resp,
                                               double origin_cpu) const = 0;
};

// workers = 0: every wait is an event on the simulator's loop and CPU and
// network time are billed in virtual time. One thread serves, so nothing
// coalesces.
class nakika_node::sim_executor final : public nakika_node::executor {
 public:
  explicit sim_executor(nakika_node& node) : node_(node) {}

  double now() const override { return node_.net_.loop().now(); }

  void charge(double cpu, double delay, std::function<void()> next) override {
    node_.net_.run_cpu(node_.host_, cpu, [this, delay, next = std::move(next)]() mutable {
      if (delay > 0) {
        node_.net_.loop().schedule(delay, std::move(next));
      } else {
        next();
      }
    });
  }

  // Memory-pressure model: when script allocation churn exceeds the node's
  // memory capacity (possible only when per-context limits are disabled and
  // the monitor has not intervened), every request slows down — the
  // simulator's stand-in for swap/GC thrashing on a real host. The factor is
  // the overcommit ratio over a sliding window.
  double memory_pressure(double churn_bytes) override {
    const double t = now();
    constexpr double window = 0.25;  // seconds
    if (t - window_start_ >= window) {
      rate_ = window_bytes_ / std::max(window, t - window_start_);
      window_start_ = t;
      window_bytes_ = 0.0;
    }
    window_bytes_ += churn_bytes;
    const double capacity = node_.config_.capacities.memory_bytes_per_second;
    if (capacity <= 0 || rate_ <= capacity) return 1.0;
    return std::min(rate_ / capacity, 64.0);
  }

  void origin(const http::request& r,
              std::function<void(std::optional<http::response>)> next) override {
    http_endpoint* origin = node_.resolve_origin_(r.url.host());
    if (origin == nullptr) {
      next(std::nullopt);
      return;
    }
    forward_request(node_.net_, node_.host_, *origin, r,
                    [next = std::move(next)](http::response resp) { next(std::move(resp)); });
  }

  void coalesce(net::single_flight& /*flights*/, const std::string& /*key*/,
                const std::function<void(respond)>& fetch,
                std::function<void(http::response, bool)> next) override {
    fetch([next = std::move(next)](http::response resp) { next(std::move(resp), false); });
  }

  // Scripts see blocking semantics (per-script user-level threads in the
  // paper) while the simulator bills the round trip, the origin's CPU and
  // the transfer to the pipeline's completion.
  double sub_fetch_delay(const origin_server& origin, const http::response& resp,
                         double origin_cpu) const override {
    const sim::network& net = node_.net_;
    const double rtt = net.has_route(node_.host_, origin.host())
                           ? 2.0 * net.route_latency(node_.host_, origin.host())
                           : 0.0;
    const double transfer_time =
        static_cast<double>(http::wire_size(resp)) / 12.5e6;  // nominal LAN rate
    return rtt + origin_cpu + transfer_time;
  }

 private:
  nakika_node& node_;
  double window_start_ = 0.0;
  double window_bytes_ = 0.0;
  double rate_ = 0.0;  // bytes/second over the last window
};

// workers > 0: the body runs synchronously on a pool thread. Real time is
// burnt rather than billed (the transport's virtual network cost is
// accounted in peer_latency_seconds instead), origins are served in-process
// through origin_server::serve_now, and concurrent misses for one URL share
// one upstream fetch.
class nakika_node::worker_executor final : public nakika_node::executor {
 public:
  explicit worker_executor(nakika_node& node) : node_(node) {}

  double now() const override { return seconds_since(start_); }
  double trace_now() const override { return obs::fast_clock::now_seconds() - trace_epoch_; }

  void charge(double /*cpu*/, double /*delay*/, std::function<void()> next) override {
    next();
  }
  double memory_pressure(double /*churn_bytes*/) override { return 1.0; }

  void origin(const http::request& r,
              std::function<void(std::optional<http::response>)> next) override {
    auto* origin = dynamic_cast<origin_server*>(node_.resolve_origin_(r.url.host()));
    next(origin != nullptr ? origin->serve_now(r) : std::nullopt);
  }

  // The flight's leader runs `fetch`, whose continuation completes before it
  // returns here; waiters park until then and get a copy of the response.
  void coalesce(net::single_flight& flights, const std::string& key,
                const std::function<void(respond)>& fetch,
                std::function<void(http::response, bool)> next) override {
    bool coalesced = false;
    http::response out = flights.run(
        key,
        [&] {
          // A flight that completed between the caller's miss and taking
          // leadership may have filled the cache already.
          if (auto hit = node_.content_cache_.get(key, static_cast<std::int64_t>(now()))) {
            return std::move(*hit);
          }
          http::response fetched;
          fetch([&fetched](http::response resp) { fetched = std::move(resp); });
          return fetched;
        },
        &coalesced);
    next(std::move(out), coalesced);
  }

  double sub_fetch_delay(const origin_server& /*origin*/, const http::response& /*resp*/,
                         double /*origin_cpu*/) const override {
    return 0.0;
  }

 private:
  nakika_node& node_;
  std::chrono::steady_clock::time_point start_ = std::chrono::steady_clock::now();
  double trace_epoch_ = obs::fast_clock::now_seconds();  // trace_now()'s zero point
};

// ----- node ------------------------------------------------------------------------

nakika_node::nakika_node(sim::network& net, sim::node_id host,
                         endpoint_resolver resolve_origin, node_config config)
    : net_(net),
      host_(host),
      resolve_origin_(std::move(resolve_origin)),
      config_(std::move(config)),
      pipeline_(config_.pipeline),
      resources_(config_.capacities),
      content_cache_(config_.content_cache_bytes, config_.content_cache_shards,
                     config_.content_cache_borrowing, config_.cache_admission),
      script_cache_(config_.script_cache_entries),
      no_script_(config_.default_script_ttl > 0 ? config_.default_script_ttl : 300,
                 config_.script_cache_entries),
      chunk_cache_(config_.chunk_cache_entries),
      caller_(0, config_.rng_seed),
      metrics_(config_.workers + 1),
      spans_(config_.workers + 1, config_.span_ring_capacity),
      site_obs_(config_.workers + 1),
      trace_decim_(config_.workers + 1),
      trace_every_(config_.workers > 0 ? config_.trace_sample_every : 1),
      counters_(config_.workers + 1) {
  register_metrics();
  // Tenant isolation wiring (setup-time: before any request is served).
  for (const auto& [tenant, quota] : config_.tenant_cache_quota_bytes) {
    content_cache_.set_tenant_quota(tenant, quota);
  }
  for (const auto& [site, weight] : config_.site_weights) {
    resources_.set_site_weight(site, weight);
  }
  if (config_.workers == 0) {
    exec_ = std::make_unique<sim_executor>(*this);
    return;
  }
  core::worker_pool_config wp;
  wp.workers = config_.workers;
  wp.queue_capacity = config_.queue_capacity;
  // Offset so worker admission draws differ from the caller thread's stream.
  wp.rng_seed = config_.rng_seed + 0x9e3779b97f4a7c15ULL;
  pool_ = std::make_unique<core::worker_pool>(wp);
  exec_ = std::make_unique<worker_executor>(*this);
}

nakika_node::~nakika_node() {
  if (pool_ != nullptr) pool_->stop();
  if (monitor_thread_.joinable()) {
    {
      std::lock_guard<std::mutex> lock(monitor_mu_);
      monitor_stop_ = true;
    }
    monitor_cv_.notify_all();
    monitor_thread_.join();
  }
}

void nakika_node::drain() {
  if (pool_ != nullptr) pool_->drain();
}

double nakika_node::virtual_now() const { return exec_->now(); }

double nakika_node::trace_now() const { return exec_->trace_now(); }

void nakika_node::set_wall_sources(std::string clientwall, std::string serverwall) {
  config_.clientwall_source = std::move(clientwall);
  config_.serverwall_source = std::move(serverwall);
}

void nakika_node::attach_peer_transport(std::unique_ptr<net::peer_transport> transport) {
  transport_ = std::move(transport);
}

void nakika_node::attach_replica(const std::string& site, state::replica* r) {
  replicas_[site] = r;
}

std::optional<http::response> nakika_node::lookup_cache_only(const std::string& url) {
  // virtual_now (not the raw loop clock) so the probe is safe and fresh when
  // a foreign node's worker thread calls in while we serve in worker mode.
  const auto now = static_cast<std::int64_t>(virtual_now());
  return content_cache_.get(url, now);
}

void nakika_node::register_metrics() {
  for (std::size_t i = 0; i < obs::stage_count; ++i) {
    ids_.stage_hist[i] = metrics_.histogram(
        std::string("latency.") + obs::to_string(static_cast<obs::stage>(i)));
  }
  ids_.compile_nanos = metrics_.counter("script.compile_nanos");
  ids_.execute_nanos = metrics_.counter("script.execute_nanos");
  ids_.ic_hits = metrics_.counter("script.ic_hits");
  ids_.ic_misses = metrics_.counter("script.ic_misses");
  ids_.ic_mono_hits = metrics_.counter("script.ic_mono_hits");
  ids_.ic_poly_hits = metrics_.counter("script.ic_poly_hits");
  ids_.ic_mega_lookups = metrics_.counter("script.ic_mega_lookups");
  ids_.shape_transitions = metrics_.counter("shapes.transitions");
  ids_.shape_dict_fallbacks = metrics_.counter("shapes.dict_fallbacks");
  ids_.shapes_live = metrics_.gauge("shapes.live");
  ids_.stages_executed = metrics_.counter("script.stages_executed");
  ids_.out_cache_hit = metrics_.counter("outcome.cache_hit");
  ids_.out_cache_miss = metrics_.counter("outcome.cache_miss");
  ids_.out_peer_hit = metrics_.counter("outcome.peer_hit");
  ids_.out_origin = metrics_.counter("outcome.origin_fetch");
  ids_.out_coalesced = metrics_.counter("outcome.coalesced");
  ids_.out_throttled = metrics_.counter("outcome.throttled");
  ids_.out_terminated = metrics_.counter("outcome.terminated");
  ids_.out_failed = metrics_.counter("outcome.failed");
  ids_.out_nkp = metrics_.counter("outcome.nkp_render");
  ids_.gc_collections = metrics_.counter("gc.collections");
  ids_.gc_objects = metrics_.counter("gc.objects_collected");
  ids_.gc_bytes = metrics_.counter("gc.bytes_reclaimed");
  ids_.gc_pause = metrics_.histogram("gc_pause");
}

std::vector<std::string> nakika_node::site_log(const std::string& site) const {
  // Slot 0 (the sim/caller thread) first, then workers in index order, so the
  // single-threaded sim path preserves exact Log.write ordering.
  std::vector<std::string> out;
  site_obs_.for_key(site, [&out](const site_obs& s) {
    out.insert(out.end(), s.log.begin(), s.log.end());
  });
  return out;
}

nakika_node::script_time_stats nakika_node::script_times() const {
  script_time_stats out;
  out.compile_seconds =
      static_cast<double>(metrics_.counter_value(ids_.compile_nanos)) * 1e-9;
  out.execute_seconds =
      static_cast<double>(metrics_.counter_value(ids_.execute_nanos)) * 1e-9;
  out.ic_hits = metrics_.counter_value(ids_.ic_hits);
  out.ic_misses = metrics_.counter_value(ids_.ic_misses);
  out.ic_mono_hits = metrics_.counter_value(ids_.ic_mono_hits);
  out.ic_poly_hits = metrics_.counter_value(ids_.ic_poly_hits);
  out.ic_mega_lookups = metrics_.counter_value(ids_.ic_mega_lookups);
  out.shape_transitions = metrics_.counter_value(ids_.shape_transitions);
  out.shape_dict_fallbacks = metrics_.counter_value(ids_.shape_dict_fallbacks);
  out.stages_executed = metrics_.counter_value(ids_.stages_executed);
  // Chunk-cache probes are counted by the (node-wide, thread-safe) cache
  // itself; snapshot BOTH sides from it so hits and misses describe the same
  // probe population (pipeline stage loads + nkp renders alike) and
  // hits/(hits+misses) is a real hit rate.
  out.chunk_cache_hits = chunk_cache_.hits();
  out.chunk_cache_misses = chunk_cache_.misses();
  return out;
}

nakika_node::site_cache_stats nakika_node::site_cache(const std::string& site) const {
  site_cache_stats out;
  site_obs_.for_key(site, [&out](const site_obs& s) {
    out.ic_hits += s.ic_hits;
    out.ic_misses += s.ic_misses;
    out.ic_mono_hits += s.ic_mono_hits;
    out.ic_poly_hits += s.ic_poly_hits;
    out.ic_mega_lookups += s.ic_mega_lookups;
  });
  return out;
}

std::size_t nakika_node::sandboxes_created() const {
  return caller_.created() + (pool_ != nullptr ? pool_->sandboxes_created() : 0);
}

// ----- request handling ---------------------------------------------------------------

void nakika_node::handle(const http::request& original,
                         std::function<void(http::response)> done) {
  auto* st = new request_state(original, std::move(done));
  if (pool_ == nullptr) {
    run(st, caller_, /*slot=*/0);
    return;
  }
  // Affinity by site: one site's requests prefer one worker's ring, so its
  // sandbox reuse and cache lines stay warm; stealing rebalances skew.
  const std::uint64_t affinity = std::hash<std::string>{}(original.url.site());
  const bool accepted = pool_->try_submit(
      [this, st](core::worker_context& wc) {
        bool answered = false;
        st->answered = &answered;
        try {
          run(st, wc, wc.index() + 1);
        } catch (...) {
          // The pipeline itself converts script failures into responses;
          // landing here means host code threw (an origin handler,
          // allocation failure). The request must still be answered and the
          // sandbox/registration must not leak. A throw from `done` after
          // the answer is not ours to answer — rethrow so the pool's
          // backstop counts it.
          if (answered) throw;
          if (st->sb != nullptr) {
            resources_.pipeline_finished(st->site, st->sb->kill_flag());
            wc.release(st->site, st->sb, /*poisoned=*/true);
          }
          counters_.add(st->slot, counter_field::failed);
          st->response = http::make_error_response(500, "internal error on worker");
          answer(st);
        }
      },
      affinity);
  if (!accepted) {
    // A full queue is the backpressure signal: reject immediately, on the
    // caller's thread.
    counters_.add(0, counter_field::offered);
    counters_.add(0, counter_field::rejected);
    st->response = http::make_error_response(503, "server busy (queue full)");
    answer(st);
  }
}

void nakika_node::run(request_state* st, core::worker_context& wc, std::size_t slot) {
  st->wc = &wc;
  st->slot = slot;
  counters_.add(slot, counter_field::offered);
  st->start = virtual_now();

  http::request& r = st->request;
  if (overlay::is_nakika_host(r.url.host())) {
    r.url.set_host(overlay::from_nakika_host(r.url.host()));
  }
  st->site = r.url.site();

  // Span sampling (node_config::trace_sample_every): every Nth request per
  // slot gets the full trace — per-stage stamps plus a span-ring entry. The
  // rest still land in the end-to-end latency histogram, which reuses
  // `start` (taken anyway for billing), so p50/p99/p999 stay exact per
  // request while the per-span cost is amortized 1/N.
  if (config_.telemetry && (trace_every_ <= 1 || trace_decim_[slot].n++ % trace_every_ == 0)) {
    st->trace = obs::trace_context(trace_clock, this);
    st->trace.record().site = st->site;
    st->trace.record().path = r.url.path();
    st->trace.record().start = st->trace.now();
  }

  if (config_.resource_controls && !resources_.admit(st->site, wc.rng(), st->start)) {
    // Throttled rejection is a shared-memory flag check in the paper's
    // implementation — far cheaper than full request processing.
    counters_.add(slot, counter_field::throttled);
    st->trace.flag(obs::span_flag::throttled);
    record_latency(*st, 503, virtual_now() - st->start);
    st->response = http::make_error_response(503, "server busy (throttled)");
    exec_->charge(0.0001, 0.0, [this, st] { answer(st); });
    return;
  }

  if (!config_.scripting) {
    // DHT-only mode: cache + cooperative lookup, no scripting pipeline.
    exec_->charge(config_.costs.proxy_overhead, 0.0, [this, st] {
      fetch_resource(st, st->request, [this, st](http::response resp, double cpu) {
        counters_.add(st->slot, counter_field::completed);
        record_latency(*st, resp.status, virtual_now() - st->start);
        st->response = std::move(resp);
        exec_->charge(cpu + config_.costs.dht_processing, 0.0, [this, st] { answer(st); });
      });
    });
    return;
  }
  run_pipeline(st);
}

void nakika_node::run_pipeline(request_state* st) {
  bool created = false;
  st->sb = st->wc->acquire(st->site, config_.script_limits, &chunk_cache_, &created);
  st->setup_cpu = config_.costs.proxy_overhead +
                  (created ? config_.costs.context_create : config_.costs.context_reuse);
  resources_.pipeline_started(st->site, st->sb->kill_flag());

  core::exec_state base;
  base.site = st->site;
  base.local_specs = config_.local_specs;
  base.now = static_cast<std::int64_t>(st->start);
  base.http_cache = &content_cache_;
  base.store = &store_;
  // replicas_ is wired at deployment time, before serving starts.
  const auto rep = replicas_.find(st->site);
  base.replica = rep == replicas_.end() ? nullptr : rep->second;
  base.fetch = [this, st](const http::request& sub) { return sub_fetch(st, sub); };
  base.resources = resources_.view_for(st->site);
  base.trace = st->tr();

  pipeline_.execute(
      std::move(st->request), *st->sb, st->site + "/nakika.js",
      [this](const std::string& url, std::function<void(core::stage_fetch_result)> cb) {
        load_stage_script(url, std::move(cb));
      },
      [this, st](const http::request& req, std::function<void(http::response, double)> cb) {
        fetch_resource(st, req, std::move(cb));
      },
      std::move(base),
      [this, st](core::pipeline_result result) { finish_pipeline(st, std::move(result)); });
}

void nakika_node::finish_pipeline(request_state* st, core::pipeline_result result) {
  resources_.pipeline_finished(st->site, st->sb->kill_flag());
  const bool poisoned = result.terminated || result.failed;
  const js::gc_cycle_result pool_gc = reclaim_sandbox(st->site, st->sb, poisoned, st->slot);
  st->wc->release(st->site, st->sb, poisoned);
  st->sb = nullptr;

  const double elapsed = virtual_now() - st->start;
  account_pipeline(st->site, result, elapsed, st->slot);
  if (obs::trace_context* trace = st->tr()) {
    const double gc_span = result.gc_seconds + pool_gc.seconds;
    if (gc_span > 0.0) trace->add(obs::stage::gc, gc_span);
    if (result.terminated) trace->flag(obs::span_flag::terminated);
    else if (result.failed) trace->flag(obs::span_flag::failed);
  }
  record_latency(*st, result.response.status, elapsed);

  const double cpu = (st->setup_cpu + result.script_cpu_seconds +
                      config_.stage_overhead * result.stages_executed) *
                     exec_->memory_pressure(static_cast<double>(result.heap_bytes));
  st->response = std::move(result.response);
  exec_->charge(cpu, result.virtual_delay_seconds, [this, st] { answer(st); });
}

void nakika_node::answer(request_state* st) {
  // Freed once the client has its response (or its callback threw), so the
  // teardown is not on the response's latency path.
  const std::unique_ptr<request_state> owned(st);
  if (st->answered != nullptr) *st->answered = true;
  st->done(std::move(st->response));
}

void nakika_node::record_latency(request_state& st, int status, double elapsed_seconds) {
  if (st.trace.enabled()) {
    finish_span(st.trace, static_cast<std::uint16_t>(status), elapsed_seconds, st.slot);
  } else if (config_.telemetry) {
    metrics_.record_seconds(st.slot,
                            ids_.stage_hist[static_cast<std::size_t>(obs::stage::total)],
                            elapsed_seconds);
  }
}

js::gc_cycle_result nakika_node::reclaim_sandbox(const std::string& site,
                                                 core::sandbox* sb, bool poisoned,
                                                 std::size_t slot) {
  js::gc_cycle_result gc;
  if (sb == nullptr || poisoned) return gc;  // poisoned sandboxes are destroyed
  gc = sb->reclaim();
  if (gc.objects_collected == 0 && gc.envs_collected == 0 && gc.cells_collected == 0 &&
      gc.seconds == 0.0) {
    return gc;  // nothing dirty: pool.release's own reclaim() no-ops too
  }
  // The tenant whose scripts built the garbage pays for collecting it, even
  // though the collection runs after its response was sent.
  if (config_.resource_controls && gc.seconds > 0.0) {
    resources_.record(site, core::resource_kind::cpu, gc.seconds);
  }
  metrics_.add(slot, ids_.gc_collections, 1);
  metrics_.add(slot, ids_.gc_objects, gc.objects_collected);
  metrics_.add(slot, ids_.gc_bytes, gc.bytes_reclaimed);
  if (gc.seconds > 0.0) metrics_.record_seconds(slot, ids_.gc_pause, gc.seconds);
  site_obs_.update(slot, site, [&gc](site_obs& s) {
    s.gc_seconds += gc.seconds;
    s.gc_collections += 1;
  });
  return gc;
}

// ----- stage script loading ------------------------------------------------------

void nakika_node::load_stage_script(const std::string& url,
                                    std::function<void(core::stage_fetch_result)> cb) {
  const auto now = static_cast<std::int64_t>(virtual_now());
  core::stage_fetch_result out;
  // Administrative walls come from node configuration (the paper fetches
  // them from nakika.net and caches; administrators may override locally).
  if (url == config_.pipeline.clientwall_url || url == config_.pipeline.serverwall_url) {
    const std::string& source = url == config_.pipeline.clientwall_url
                                    ? config_.clientwall_source
                                    : config_.serverwall_source;
    out.found = !source.empty();
    out.source = source;
    out.version = 1;
    cb(std::move(out));
    return;
  }
  if (no_script_.contains(url, now)) {  // cached "no such script"
    cb(std::move(out));
    return;
  }
  if (auto cached = script_cache_.get(url, now)) {
    out.found = true;
    out.source = std::move(cached->source);
    out.version = cached->version;
    cb(std::move(out));
    return;
  }
  // Scripts are ordinary HTTP resources subject to ordinary caching (§3.1);
  // dynamically generated stage code (e.g. the blacklist extension) lands in
  // the content cache via the Cache vocabulary and is loadable from there.
  if (auto content = content_cache_.get(url, now); content && content->ok() && content->body) {
    out.found = true;
    out.source = content->body->str();
    // Content-hash versioning: identical generated code reuses the
    // compiled stage; regenerated code reloads.
    out.version = std::hash<std::string>{}(out.source) | 1;
    cb(std::move(out));
    return;
  }

  http::request script_request;
  try {
    script_request.url = http::url::parse(url);
  } catch (const std::invalid_argument&) {
    no_script_.insert(url, now);
    cb(std::move(out));
    return;
  }
  script_request.client_ip = "0.0.0.0";
  exec_->origin(script_request, [this, url, now, cb = std::move(cb)](
                                    std::optional<http::response> resp) {
    const auto later = static_cast<std::int64_t>(virtual_now());
    core::stage_fetch_result fetched;
    if (!resp || !resp->ok() || !resp->body) {
      no_script_.insert(url, resp ? later : now);
      cb(std::move(fetched));
      return;
    }
    script_entry entry{resp->body->str(),
                       next_script_version_.fetch_add(1, std::memory_order_relaxed)};
    const http::freshness f = http::compute_freshness(*resp, later);
    script_cache_.put(url, entry,
                      f.cacheable ? f.expires_at : later + config_.default_script_ttl);
    fetched.found = true;
    fetched.source = std::move(entry.source);
    fetched.version = entry.version;
    cb(std::move(fetched));
  });
}

// ----- resource fetching -----------------------------------------------------------

void nakika_node::fetch_resource(request_state* st, const http::request& r,
                                 std::function<void(http::response, double)> cb) {
  obs::trace_context* const trace = st->tr();
  const std::string key = r.url.str();
  std::optional<http::response> hit;
  {
    obs::trace_context::scoped lookup_span(trace, obs::stage::cache_lookup);
    hit = content_cache_.get(key, static_cast<std::int64_t>(virtual_now()));
  }
  if (hit) {
    if (trace != nullptr) trace->flag(obs::span_flag::cache_hit);
    cb(std::move(*hit), config_.costs.cache_hit_serve);
    return;
  }
  if (trace != nullptr) trace->flag(obs::span_flag::cache_miss);

  // Query-bearing URLs are dynamic/personalized: each request must reach the
  // origin itself, so they bypass coalescing (same rule as the overlay).
  if (!r.url.query().empty()) {
    fetch_miss(st, r, [cb = std::move(cb)](http::response resp) { cb(std::move(resp), 0.0); });
    return;
  }
  const double flight_begin = trace != nullptr ? trace->now() : 0.0;
  exec_->coalesce(
      flights_, key, [this, st, &r](respond next) { fetch_miss(st, r, std::move(next)); },
      [this, st, flight_begin, cb = std::move(cb)](http::response resp, bool coalesced) {
        if (coalesced) {
          counters_.add(st->slot, counter_field::coalesced);
          if (obs::trace_context* t = st->tr()) {
            // The whole wait was spent blocked on the flight leader.
            t->add(obs::stage::coalesced_wait, t->now() - flight_begin);
            t->flag(obs::span_flag::coalesced);
          }
        }
        cb(std::move(resp), 0.0);
      });
}

void nakika_node::fetch_miss(request_state* st, const http::request& r, respond next) {
  // The overlay is only worth consulting for content that peers could have
  // cached; query-bearing URLs are dynamic/personalized and go straight to
  // the origin (as CoralCDN does for uncacheable content).
  if (transport_ == nullptr || !r.url.query().empty()) {
    fetch_origin(st, r, std::move(next));
    return;
  }
  const double peer_begin = st->tr() != nullptr ? st->trace.now() : 0.0;
  transport_->fetch_from_peers(r, [this, st, &r, peer_begin, next = std::move(next)](
                                      net::peer_transport::result res) mutable {
    peer_latency_micros_.fetch_add(static_cast<std::uint64_t>(res.latency_seconds * 1e6),
                                   std::memory_order_relaxed);
    if (obs::trace_context* t = st->tr()) {
      // Fold in the transport's accounted virtual network cost (overlay walks
      // + peer round-trips), which wall time on a worker does not include
      // (0 on the sim path, whose event loop bills it instead).
      t->add(obs::stage::peer_fetch, t->now() - peer_begin + res.latency_seconds);
    }
    if (res.response) {
      counters_.add(st->slot, counter_field::peer_hits);
      st->trace.flag(obs::span_flag::peer_hit);
      store_fetched(st, r, std::move(*res.response), std::move(next));
      return;
    }
    counters_.add(st->slot, counter_field::peer_misses);
    fetch_origin(st, r, std::move(next));
  });
}

void nakika_node::fetch_origin(request_state* st, const http::request& r, respond next) {
  const double origin_begin = st->tr() != nullptr ? st->trace.now() : 0.0;
  exec_->origin(r, [this, st, &r, origin_begin, next = std::move(next)](
                       std::optional<http::response> resp) mutable {
    if (obs::trace_context* t = st->tr()) {
      t->add(obs::stage::origin_fetch, t->now() - origin_begin);
      t->flag(obs::span_flag::origin);
    }
    if (!resp) resp = http::make_error_response(502, "cannot resolve " + r.url.host());
    store_fetched(st, r, std::move(*resp), std::move(next));
  });
}

void nakika_node::store_fetched(request_state* st, const http::request& r,
                                http::response resp, respond next) {
  resp = maybe_render_nkp(*st, r, std::move(resp));
  const std::string key = r.url.str();
  const auto later = static_cast<std::int64_t>(virtual_now());
  if (content_cache_.put(key, resp, later) && transport_ != nullptr) {
    // Advertise our copy: "one cached copy ... is sufficient for avoiding
    // origin server accesses".
    const http::freshness f = http::compute_freshness(resp, later);
    obs::trace_context::scoped advertise_span(st->tr(), obs::stage::advertise);
    transport_->advertise(key, f.expires_at);
  }
  next(std::move(resp));
}

http::response nakika_node::maybe_render_nkp(request_state& st, const http::request& r,
                                             http::response resp) {
  if (!config_.enable_pages || !resp.ok() || !resp.body) return resp;
  const std::string content_type = resp.headers.get_or("Content-Type", "");
  if (!core::is_nkp_resource(r.url.path(), content_type)) return resp;
  obs::trace_context::scoped nkp_span(st.tr(), obs::stage::nkp_render);
  st.trace.flag(obs::span_flag::nkp);

  // Compile the page into a one-policy script and run its onResponse in the
  // site's sandbox (the paper layers NKP on the event model the same way).
  std::string script;
  try {
    script = core::compile_nkp(resp.body->str());
  } catch (const std::invalid_argument& e) {
    return http::make_error_response(500, std::string("nkp: ") + e.what());
  }

  core::sandbox* sb = st.wc->acquire(st.site, config_.script_limits, &chunk_cache_);
  bool poisoned = false;
  http::response rendered = std::move(resp);
  try {
    sb->begin_run();
    // The version bump forces a reload per render, so a compiled matcher
    // could never be reused — keep the tree walk for this one-shot stage.
    const core::sandbox::loaded_stage& stage = sb->load_stage(
        r.url.str() + "#nkp", script,
        next_script_version_.fetch_add(1, std::memory_order_relaxed),
        /*stats=*/nullptr, /*compile_matcher=*/false);
    const core::match_result match = sb->match_stage(stage, r);
    if (match.found() && match.matched->has_on_response()) {
      core::exec_state exec;
      exec.site = st.site;
      exec.now = static_cast<std::int64_t>(virtual_now());
      exec.request = const_cast<http::request*>(&r);
      exec.response = &rendered;
      exec.store = &store_;
      exec.http_cache = &content_cache_;
      sb->binding()->current = &exec;
      core::sync_request_to_script(sb->ctx(), r);
      core::sync_response_to_script(sb->ctx(), rendered);
      js::interpreter in(sb->ctx());
      in.call(match.matched->on_response, js::value::undefined(), {});
      core::read_back_response(sb->ctx(), exec, rendered);
      sb->binding()->current = nullptr;
    }
  } catch (const js::script_error& e) {
    poisoned = true;
    rendered = http::make_error_response(500, std::string("nkp script: ") + e.what());
  } catch (const core::request_terminated_signal&) {
    sb->binding()->current = nullptr;
  }
  reclaim_sandbox(st.site, sb, poisoned, st.slot);
  st.wc->release(st.site, sb, poisoned);
  return rendered;
}

// ----- script subrequests (Fetch vocabulary) ----------------------------------------

core::fetch_result nakika_node::sub_fetch(request_state* st, const http::request& r) {
  core::fetch_result out;
  const std::string key = r.url.str();
  if (auto hit = content_cache_.get(key, static_cast<std::int64_t>(virtual_now()))) {
    out.ok = true;
    out.response = std::move(*hit);
    out.virtual_delay_seconds = config_.costs.cache_hit_serve;
    return out;
  }
  auto* origin = dynamic_cast<origin_server*>(resolve_origin_(r.url.host()));
  if (origin == nullptr) return out;  // unreachable or not a direct origin

  // A synchronous origin read in both executors. Failure travels in-band
  // (not as an exception) so a coalesced waiter and the flight's leader
  // reach the same verdict: both see the marked response and report
  // ok=false.
  const auto fetch = [&](respond next) {
    double cpu = 0.0;
    std::optional<http::response> resp = origin->serve_now(r, &cpu);
    if (!resp) {
      http::response err = http::make_error_response(502, "sub-fetch origin failure");
      err.headers.set("X-Nakika-Fetch-Failed", "1");
      next(std::move(err));
      return;
    }
    out.virtual_delay_seconds = exec_->sub_fetch_delay(*origin, *resp, cpu);
    content_cache_.put(key, *resp, static_cast<std::int64_t>(virtual_now()));
    next(std::move(*resp));
  };
  const double flight_begin = st->tr() != nullptr ? st->trace.now() : 0.0;
  const auto finish = [&](http::response resp, bool coalesced) {
    out.response = std::move(resp);
    if (!coalesced) return;
    counters_.add(st->slot, counter_field::coalesced);
    if (obs::trace_context* t = st->tr()) {
      t->add(obs::stage::coalesced_wait, t->now() - flight_begin);
      t->flag(obs::span_flag::coalesced);
    }
  };
  if (r.url.query().empty()) {
    // Sub-fetches coalesce in their own flight table (never shared with
    // top-level misses, whose leaders additionally render + advertise); a
    // sub-fetch for a URL this worker is already fetching runs directly
    // (leader re-entrancy) instead of deadlocking.
    exec_->coalesce(sub_flights_, key, fetch, finish);
  } else {
    fetch([&finish](http::response resp) { finish(std::move(resp), false); });
  }
  if (out.response.headers.has("X-Nakika-Fetch-Failed")) return out;  // ok stays false
  out.ok = true;
  return out;
}

// ----- per-request accounting -------------------------------------------------------

void nakika_node::account_pipeline(const std::string& site,
                                   const core::pipeline_result& result,
                                   double elapsed_seconds, std::size_t counter_slot) {
  // With resource controls off nothing reads the usage counters, so skip the
  // (shared-lock) recording.
  if (config_.resource_controls) {
    const double response_bytes = static_cast<double>(result.response.body_size());
    const double io_bytes =
        static_cast<double>(result.bytes_read + result.bytes_written) + response_bytes;
    std::array<double, core::resource_kind_count> usage{};
    // Watermark collections run inside the script's own execution, so their
    // time is part of the CPU this tenant consumed.
    usage[static_cast<std::size_t>(core::resource_kind::cpu)] =
        result.script_cpu_seconds + result.gc_seconds;
    usage[static_cast<std::size_t>(core::resource_kind::memory)] =
        static_cast<double>(result.heap_bytes);
    usage[static_cast<std::size_t>(core::resource_kind::bandwidth)] = io_bytes;
    usage[static_cast<std::size_t>(core::resource_kind::running_time)] =
        elapsed_seconds + result.script_cpu_seconds;
    usage[static_cast<std::size_t>(core::resource_kind::total_bytes)] = io_bytes;
    resources_.record_usage(site, usage);
  }

  // Registry adds: one relaxed atomic add per field into this worker's slot —
  // the hot path holds no lock (the stats mutex this replaced serialized every
  // request in the node).
  metrics_.add(counter_slot, ids_.compile_nanos,
               static_cast<std::uint64_t>(result.script_compile_seconds * 1e9));
  metrics_.add(counter_slot, ids_.execute_nanos,
               static_cast<std::uint64_t>(result.script_execute_seconds * 1e9));
  if (result.ic_hits != 0) metrics_.add(counter_slot, ids_.ic_hits, result.ic_hits);
  if (result.ic_misses != 0) metrics_.add(counter_slot, ids_.ic_misses, result.ic_misses);
  if (result.ic_mono_hits != 0) {
    metrics_.add(counter_slot, ids_.ic_mono_hits, result.ic_mono_hits);
  }
  if (result.ic_poly_hits != 0) {
    metrics_.add(counter_slot, ids_.ic_poly_hits, result.ic_poly_hits);
  }
  if (result.ic_mega_lookups != 0) {
    metrics_.add(counter_slot, ids_.ic_mega_lookups, result.ic_mega_lookups);
  }
  if (result.shape_transitions != 0) {
    metrics_.add(counter_slot, ids_.shape_transitions, result.shape_transitions);
  }
  if (result.shape_dict_fallbacks != 0) {
    metrics_.add(counter_slot, ids_.shape_dict_fallbacks, result.shape_dict_fallbacks);
  }
  // Gauge: size of the shape table the request's sandbox holds — a rough
  // "how interned is the fleet" signal (not a sum; latest writer wins).
  metrics_.set_gauge(counter_slot, ids_.shapes_live, result.shapes_live);
  if (result.stages_executed != 0) {
    metrics_.add(counter_slot, ids_.stages_executed,
                 static_cast<std::uint64_t>(result.stages_executed));
  }
  if (result.gc_collections != 0) {
    metrics_.add(counter_slot, ids_.gc_collections, result.gc_collections);
    metrics_.add(counter_slot, ids_.gc_objects, result.gc_objects_collected);
    metrics_.add(counter_slot, ids_.gc_bytes, result.gc_bytes_reclaimed);
    // Individual safepoint pauses (not whole-run totals) feed the gc_pause
    // histogram — the bounded-increment claim is checked on this data.
    for (const double pause : result.gc_pauses) {
      metrics_.record_seconds(counter_slot, ids_.gc_pause, pause);
    }
  }

  // Per-site accumulators: slot-local (only telemetry readers contend).
  site_obs_.update(counter_slot, site, [&](site_obs& s) {
    s.requests += 1;
    s.ic_hits += result.ic_hits;
    s.ic_misses += result.ic_misses;
    s.ic_mono_hits += result.ic_mono_hits;
    s.ic_poly_hits += result.ic_poly_hits;
    s.ic_mega_lookups += result.ic_mega_lookups;
    s.gc_seconds += result.gc_seconds;
    s.gc_collections += result.gc_collections;
    if (result.terminated) s.terminated += 1;
    for (const std::string& line : result.log_lines) {
      if (config_.site_log_capacity != 0 && s.log.size() >= config_.site_log_capacity) {
        s.log.pop_front();
        s.log_dropped += 1;
      }
      if (config_.site_log_capacity != 0) s.log.push_back(line);
      s.log_lines_total += 1;
    }
  });

  if (result.terminated) {
    counters_.add(counter_slot, counter_field::terminated);
  } else if (result.failed) {
    counters_.add(counter_slot, counter_field::failed);
  } else {
    counters_.add(counter_slot, counter_field::completed);
  }
}

void nakika_node::finish_span(obs::trace_context& trace, std::uint16_t status,
                              double total_seconds, std::size_t slot) {
  trace.add(obs::stage::total, total_seconds);
  obs::span_record& rec = trace.record();
  rec.status = status;

  for (std::size_t i = 0; i < obs::stage_count; ++i) {
    // Total is always recorded (it is the request-latency histogram the
    // benches report); other stages only when they actually ran, so their
    // counts mean "requests that touched this stage".
    if (i == static_cast<std::size_t>(obs::stage::total) || rec.stage_seconds[i] > 0.0) {
      metrics_.record_seconds(slot, ids_.stage_hist[i], rec.stage_seconds[i]);
    }
  }

  using namespace obs::span_flag;
  if (rec.has(cache_hit)) metrics_.add(slot, ids_.out_cache_hit);
  if (rec.has(cache_miss)) metrics_.add(slot, ids_.out_cache_miss);
  if (rec.has(peer_hit)) metrics_.add(slot, ids_.out_peer_hit);
  if (rec.has(origin)) metrics_.add(slot, ids_.out_origin);
  if (rec.has(coalesced)) metrics_.add(slot, ids_.out_coalesced);
  if (rec.has(throttled)) metrics_.add(slot, ids_.out_throttled);
  if (rec.has(terminated)) metrics_.add(slot, ids_.out_terminated);
  if (rec.has(failed)) metrics_.add(slot, ids_.out_failed);
  if (rec.has(nkp)) metrics_.add(slot, ids_.out_nkp);

  spans_.push(slot, std::move(rec));
}

// ----- telemetry export --------------------------------------------------------------

obs::telemetry_snapshot nakika_node::telemetry() const {
  obs::telemetry_snapshot snap;
  snap.node = "node-" + std::to_string(host_);

  // Registry counters (script.*, outcome.*) merged across worker slots.
  obs::metrics_snapshot reg = metrics_.snapshot();
  snap.counters = std::move(reg.counters);

  const util::run_counters rc = counters_.snapshot();
  snap.counters["requests.offered"] = rc.offered;
  snap.counters["requests.completed"] = rc.completed;
  snap.counters["requests.throttled"] = rc.throttled;
  snap.counters["requests.terminated"] = rc.terminated;
  snap.counters["requests.failed"] = rc.failed;
  snap.counters["requests.rejected"] = rc.rejected;
  snap.counters["requests.peer_hits"] = rc.peer_hits;
  snap.counters["requests.peer_misses"] = rc.peer_misses;
  snap.counters["requests.coalesced"] = rc.coalesced;

  const net::single_flight::stats fs = flight_stats();
  snap.counters["single_flight.leaders"] = fs.leaders;
  snap.counters["single_flight.waiters"] = fs.waiters;

  const cache::cache_stats cs = content_cache_.stats();
  snap.counters["cache.hits"] = cs.hits;
  snap.counters["cache.misses"] = cs.misses;
  snap.counters["cache.insertions"] = cs.insertions;
  snap.counters["cache.evictions"] = cs.evictions;
  snap.counters["cache.expirations"] = cs.expirations;
  snap.counters["cache.quota_rejections"] = cs.quota_rejections;
  snap.counters["cache.oversized_rejections"] = cs.oversized_rejections;
  snap.counters["cache.admission_rejected"] = cs.admission_rejected;
  snap.counters["cache.bytes_used"] = content_cache_.bytes_used();

  // Worker-queue health: aggregate depth/steal/overflow counters plus a
  // per-worker breakdown so skewed site affinity shows up as one hot ring
  // with high steal counts on its neighbors.
  if (pool_ != nullptr) {
    snap.counters["queue.depth"] = pool_->queue_depth();
    snap.counters["queue.peak_depth"] = pool_->peak_queue_depth();
    snap.counters["queue.steals"] = pool_->total_steals();
    snap.counters["queue.overflow"] = pool_->overflow_submits();
    for (std::size_t w = 0; w < pool_->workers(); ++w) {
      const std::string prefix = "queue.worker" + std::to_string(w);
      snap.counters[prefix + ".depth"] = pool_->queue_depth(w);
      snap.counters[prefix + ".steals"] = pool_->steals(w);
    }
  }

  // Overlay read-path accounting (worker-mode clusters): fastpath reads took
  // no ring/membership mutex; epoch counters track snapshot reclamation.
  if (transport_ != nullptr) {
    const net::peer_transport::overlay_read_stats os = transport_->read_stats();
    snap.counters["overlay.read_fastpath"] = os.membership_fastpath + os.ring_fastpath;
    snap.counters["overlay.read_slowpath"] = os.membership_slowpath + os.ring_slowpath;
    snap.counters["overlay.epoch_retired"] = util::ebr_domain::instance().retired_count();
    snap.counters["overlay.epoch_reclaimed"] = util::ebr_domain::instance().reclaimed_count();
  }
  snap.counters["chunk_cache.hits"] = chunk_cache_.hits();
  snap.counters["chunk_cache.misses"] = chunk_cache_.misses();
  snap.counters["resources.terminations"] = resources_.terminations();
  snap.counters["resources.throttle_rejections"] = resources_.throttle_rejections();

  snap.values["peer.latency_seconds"] = peer_latency_seconds();
  snap.values["script.compile_seconds"] =
      static_cast<double>(metrics_.counter_value(ids_.compile_nanos)) * 1e-9;
  snap.values["script.execute_seconds"] =
      static_cast<double>(metrics_.counter_value(ids_.execute_nanos)) * 1e-9;

  // Per-stage latency table, in stage order.
  for (std::size_t i = 0; i < obs::stage_count; ++i) {
    obs::stage_stats st;
    st.name = obs::to_string(static_cast<obs::stage>(i));
    st.latency = obs::summarize(metrics_.histogram_merged(ids_.stage_hist[i]));
    snap.stages.push_back(std::move(st));
  }
  {
    // Individual collection pauses (one sample per safepoint slice / cycle),
    // distinct from the per-request "gc" stage above which sums a request's
    // GC time. This is the series that bounds the incremental-pause claim.
    obs::stage_stats st;
    st.name = "gc_pause";
    st.latency = obs::summarize(metrics_.histogram_merged(ids_.gc_pause));
    snap.stages.push_back(std::move(st));
  }

  // Per-tenant breakdowns: observed request/IC/log state merged across worker
  // slots, joined with cache quota accounting and resource-manager shares.
  std::map<std::string, obs::tenant_stats> tenants;
  site_obs_.for_each([&tenants](const std::string& site, const site_obs& s) {
    obs::tenant_stats& t = tenants[site];
    t.site = site;
    t.requests += s.requests;
    t.ic_hits += s.ic_hits;
    t.ic_misses += s.ic_misses;
    t.ic_mono_hits += s.ic_mono_hits;
    t.ic_poly_hits += s.ic_poly_hits;
    t.ic_mega_lookups += s.ic_mega_lookups;
    t.log_lines += s.log_lines_total;
    t.log_dropped += s.log_dropped;
    t.gc_seconds += s.gc_seconds;
    t.gc_collections += s.gc_collections;
  });
  for (auto& [site, t] : tenants) {
    // Cache tenants are keyed by URL host; resource-manager sites by the
    // scheme-qualified site string.
    const std::string host = cache::http_cache::tenant_of(site);
    t.cache_bytes = content_cache_.tenant_bytes(host);
    t.cache_quota = content_cache_.tenant_quota(host);
    t.quota_rejections = content_cache_.tenant_quota_rejections(host);
    t.kills = resources_.site_kills(site);
    t.weight = resources_.site_weight(site);
    t.cpu_share = resources_.contribution(site, core::resource_kind::cpu);
    snap.tenants.push_back(std::move(t));
  }

  snap.spans_retained = spans_.size();
  snap.spans_dropped = spans_.dropped();
  snap.spans_recorded = snap.spans_retained + snap.spans_dropped;
  snap.span_capacity = spans_.capacity_per_slot();
  return snap;
}

// ----- resource-control monitor ----------------------------------------------------

void nakika_node::start_monitor() {
  if (monitor_running_ || !config_.resource_controls) return;
  monitor_running_ = true;
  if (pool_ != nullptr) {
    // Worker mode: a real background thread runs CONTROL against wall-clock
    // time; phase-2 terminations set kill flags that VM loops on worker
    // threads observe at back-edges.
    monitor_thread_ = std::thread([this] { monitor_main(); });
    return;
  }
  monitor_tick();
}

void nakika_node::control_round(const std::function<void(std::function<void()>)>& wait) {
  // CONTROL runs for every tracked resource each cycle: phase 1, wait the
  // control timeout ("note that our implementation does not block but
  // rather polls"), then phase 2. Housekeeping rides along: expired script
  // sources and negative verdicts are dropped so they don't sit resident
  // until capacity eviction happens to pick them.
  const double now = virtual_now();
  script_cache_.purge_expired(static_cast<std::int64_t>(now));
  no_script_.purge_expired(static_cast<std::int64_t>(now));
  for (std::size_t k = 0; k < core::resource_kind_count; ++k) {
    resources_.control_phase1(static_cast<core::resource_kind>(k), now);
  }
  wait([this] {
    for (std::size_t k = 0; k < core::resource_kind_count; ++k) {
      const core::control_outcome outcome =
          resources_.control_phase2(static_cast<core::resource_kind>(k), virtual_now());
      if (!outcome.terminated_site.empty()) {
        NAKIKA_LOG(info, "monitor") << "terminated pipelines of " << outcome.terminated_site;
      }
    }
  });
}

void nakika_node::monitor_tick() {
  net_.loop().schedule(config_.control_interval, [this] {
    control_round([this](std::function<void()> phase2) {
      net_.loop().schedule(config_.control_timeout, [this, phase2 = std::move(phase2)] {
        phase2();
        monitor_tick();
      });
    });
  });
}

void nakika_node::monitor_main() {
  // Sleeps unless the node stops first; false means stop.
  const auto sleep = [this](double seconds) {
    std::unique_lock<std::mutex> lock(monitor_mu_);
    return !monitor_cv_.wait_for(lock, std::chrono::duration<double>(std::max(seconds, 1e-3)),
                                 [this] { return monitor_stop_; });
  };
  while (sleep(config_.control_interval)) {
    control_round([&](const std::function<void()>& phase2) {
      if (sleep(config_.control_timeout)) phase2();
    });
  }
}

}  // namespace nakika::proxy
