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
      metrics_(config_.workers + 1),
      spans_(config_.workers + 1, config_.span_ring_capacity),
      site_obs_(config_.workers + 1),
      trace_decim_(config_.workers),
      counters_(config_.workers + 1),
      rng_(config_.rng_seed) {
  register_metrics();
  // Tenant isolation wiring (setup-time: before any request is served).
  for (const auto& [tenant, quota] : config_.tenant_cache_quota_bytes) {
    content_cache_.set_tenant_quota(tenant, quota);
  }
  for (const auto& [site, weight] : config_.site_weights) {
    resources_.set_site_weight(site, weight);
  }
  if (config_.workers > 0) {
    core::worker_pool_config wp;
    wp.workers = config_.workers;
    wp.queue_capacity = config_.queue_capacity;
    // Offset so worker admission draws differ from the sim-path stream.
    wp.rng_seed = config_.rng_seed + 0x9e3779b97f4a7c15ULL;
    pool_ = std::make_unique<core::worker_pool>(wp);
  }
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

double nakika_node::virtual_now() const {
  if (pool_ != nullptr) return seconds_since(start_time_);
  return net_.loop().now();
}

double nakika_node::trace_now() const {
  if (pool_ != nullptr) return obs::fast_clock::now_seconds() - trace_epoch_;
  return net_.loop().now();
}

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
  return sandbox_pool_.created() + (pool_ != nullptr ? pool_->sandboxes_created() : 0);
}

// ----- sandbox pool -----------------------------------------------------------

core::sandbox* nakika_node::acquire_sandbox(const std::string& site, double& cpu_cost) {
  bool created = false;
  core::sandbox* sb = sandbox_pool_.acquire(site, config_.script_limits,
                                            config_.script_engine, &chunk_cache_, &created);
  cpu_cost += created ? config_.costs.context_create : config_.costs.context_reuse;
  return sb;
}

js::gc_cycle_result nakika_node::release_sandbox(const std::string& site,
                                                 core::sandbox* sb, bool poisoned) {
  const js::gc_cycle_result gc =
      reclaim_sandbox(site, sb, poisoned, /*slot=*/0, config_.resource_controls);
  sandbox_pool_.release(site, sb, poisoned);
  return gc;
}

js::gc_cycle_result nakika_node::reclaim_sandbox(const std::string& site,
                                                 core::sandbox* sb, bool poisoned,
                                                 std::size_t slot,
                                                 bool record_resources) {
  js::gc_cycle_result gc;
  if (sb == nullptr || poisoned) return gc;  // poisoned sandboxes are destroyed
  gc = sb->reclaim();
  if (gc.objects_collected == 0 && gc.envs_collected == 0 && gc.cells_collected == 0 &&
      gc.seconds == 0.0) {
    return gc;  // nothing dirty: pool.release's own reclaim() no-ops too
  }
  // The tenant whose scripts built the garbage pays for collecting it, even
  // though the collection runs after its response was sent.
  if (record_resources && gc.seconds > 0.0) {
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

std::optional<core::stage_fetch_result> nakika_node::probe_stage_script(
    const std::string& url, std::int64_t now) {
  core::stage_fetch_result out;

  // Administrative walls come from node configuration (the paper fetches
  // them from nakika.net and caches; administrators may override locally).
  if (url == config_.pipeline.clientwall_url) {
    out.found = !config_.clientwall_source.empty();
    out.source = config_.clientwall_source;
    out.version = 1;
    return out;
  }
  if (url == config_.pipeline.serverwall_url) {
    out.found = !config_.serverwall_source.empty();
    out.source = config_.serverwall_source;
    out.version = 1;
    return out;
  }

  if (no_script_.contains(url, now)) return out;  // cached "no such script"
  if (auto cached = script_cache_.get(url, now)) {
    out.found = true;
    out.source = std::move(cached->source);
    out.version = cached->version;
    return out;
  }
  // Scripts are ordinary HTTP resources subject to ordinary caching (§3.1);
  // dynamically generated stage code (e.g. the blacklist extension) lands in
  // the content cache via the Cache vocabulary and is loadable from there.
  if (auto content = content_cache_.get(url, now)) {
    if (content->ok() && content->body) {
      out.found = true;
      out.source = content->body->str();
      // Content-hash versioning: identical generated code reuses the
      // compiled stage; regenerated code reloads.
      out.version = std::hash<std::string>{}(out.source) | 1;
      return out;
    }
  }
  return std::nullopt;  // needs an origin fetch
}

core::stage_fetch_result nakika_node::finish_stage_script_fetch(const std::string& url,
                                                                http::response* resp,
                                                                std::int64_t later) {
  core::stage_fetch_result out;
  if (resp == nullptr || !resp->ok() || !resp->body) {
    no_script_.insert(url, later);
    return out;
  }
  script_entry entry;
  entry.source = resp->body->str();
  entry.version = next_script_version_.fetch_add(1, std::memory_order_relaxed);
  const http::freshness f = http::compute_freshness(*resp, later);
  const std::int64_t expiry =
      f.cacheable ? f.expires_at : later + config_.default_script_ttl;
  script_cache_.put(url, entry, expiry);
  out.found = true;
  out.source = std::move(entry.source);
  out.version = entry.version;
  return out;
}

void nakika_node::load_stage_script(const std::string& url,
                                    std::function<void(core::stage_fetch_result)> cb) {
  const auto now = static_cast<std::int64_t>(net_.loop().now());
  if (auto probed = probe_stage_script(url, now)) {
    cb(std::move(*probed));
    return;
  }

  http::request script_request;
  try {
    script_request.url = http::url::parse(url);
  } catch (const std::invalid_argument&) {
    no_script_.insert(url, now);
    cb(core::stage_fetch_result{});
    return;
  }
  script_request.client_ip = "0.0.0.0";

  http_endpoint* origin = resolve_origin_(script_request.url.host());
  if (origin == nullptr) {
    no_script_.insert(url, now);
    cb(core::stage_fetch_result{});
    return;
  }
  forward_request(net_, host_, *origin, script_request,
                  [this, url, cb = std::move(cb)](http::response resp) mutable {
                    const auto later = static_cast<std::int64_t>(net_.loop().now());
                    cb(finish_stage_script_fetch(url, &resp, later));
                  });
}

// Synchronous twin of load_stage_script for the worker path: identical cache
// discipline (shared helpers above), but origin access goes through
// origin_server::serve_now instead of the (single-threaded) event loop.
core::stage_fetch_result nakika_node::load_stage_script_direct(const std::string& url) {
  const auto now = static_cast<std::int64_t>(virtual_now());
  if (auto probed = probe_stage_script(url, now)) return std::move(*probed);

  http::request script_request;
  try {
    script_request.url = http::url::parse(url);
  } catch (const std::invalid_argument&) {
    no_script_.insert(url, now);
    return core::stage_fetch_result{};
  }
  script_request.client_ip = "0.0.0.0";

  auto* origin = dynamic_cast<origin_server*>(resolve_origin_(script_request.url.host()));
  if (origin == nullptr) {
    no_script_.insert(url, now);
    return core::stage_fetch_result{};
  }
  auto resp = origin->serve_now(script_request);
  const auto later = static_cast<std::int64_t>(virtual_now());
  return finish_stage_script_fetch(url, resp ? &*resp : nullptr, later);
}

// ----- resource fetching -----------------------------------------------------------

http::response nakika_node::maybe_render_nkp(const std::string& site, const http::request& r,
                                             http::response resp, core::worker_context* wc,
                                             obs::trace_context* trace) {
  if (!config_.enable_pages || !resp.ok() || !resp.body) return resp;
  const std::string content_type = resp.headers.get_or("Content-Type", "");
  if (!core::is_nkp_resource(r.url.path(), content_type)) return resp;
  obs::trace_context::scoped nkp_span(trace, obs::stage::nkp_render);
  if (trace != nullptr) trace->flag(obs::span_flag::nkp);

  // Compile the page into a one-policy script and run its onResponse in the
  // site's sandbox (the paper layers NKP on the event model the same way).
  std::string script;
  try {
    script = core::compile_nkp(resp.body->str());
  } catch (const std::invalid_argument& e) {
    return http::make_error_response(500, std::string("nkp: ") + e.what());
  }

  double cpu = 0.0;
  core::sandbox* sb = nullptr;
  if (wc != nullptr) {
    bool created = false;
    sb = wc->acquire(site, config_.script_limits, config_.script_engine, &chunk_cache_,
                     &created);
  } else {
    sb = acquire_sandbox(site, cpu);
  }
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
      exec.site = site;
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
  if (wc != nullptr) {
    wc->release(site, sb, poisoned);
  } else {
    release_sandbox(site, sb, poisoned);
  }
  return rendered;
}

void nakika_node::fetch_from_origin(const http::request& r,
                                    std::function<void(http::response, double)> cb) {
  http_endpoint* origin = resolve_origin_(r.url.host());
  if (origin == nullptr) {
    cb(http::make_error_response(502, "cannot resolve " + r.url.host()), 0.0);
    return;
  }
  forward_request(net_, host_, *origin, r,
                  [cb = std::move(cb)](http::response resp) mutable {
                    cb(std::move(resp), 0.0);
                  });
}

void nakika_node::fetch_resource(const std::string& site, const http::request& r,
                                 std::function<void(http::response, double)> cb,
                                 obs::trace_context* trace) {
  const std::string key = r.url.str();
  const auto now = static_cast<std::int64_t>(net_.loop().now());

  if (auto hit = content_cache_.get(key, now)) {
    if (trace != nullptr) trace->flag(obs::span_flag::cache_hit);
    cb(std::move(*hit), config_.costs.cache_hit_serve);
    return;
  }
  if (trace != nullptr) trace->flag(obs::span_flag::cache_miss);

  auto finish_with = [this, site, r, key, cb, trace](http::response resp) mutable {
    resp = maybe_render_nkp(site, r, std::move(resp), nullptr, trace);
    const auto later = static_cast<std::int64_t>(net_.loop().now());
    const bool stored = content_cache_.put(key, resp, later);
    if (stored && transport_ != nullptr) {
      // Advertise our copy: "one cached copy ... is sufficient for avoiding
      // origin server accesses".
      const http::freshness f = http::compute_freshness(resp, later);
      obs::trace_context::scoped advertise_span(trace, obs::stage::advertise);
      transport_->advertise(key, f.expires_at);
    }
    cb(std::move(resp), 0.0);
  };

  // The overlay is only worth consulting for content that peers could have
  // cached; query-bearing URLs are dynamic/personalized and go straight to
  // the origin (as CoralCDN does for uncacheable content).
  const bool overlay_worthwhile = r.url.query().empty();
  if (transport_ != nullptr && overlay_worthwhile) {
    const double peer_begin = trace != nullptr && trace->enabled() ? trace->now() : 0.0;
    transport_->fetch_from_peers(
        r, [this, r, finish_with, trace, peer_begin](net::peer_transport::result res) mutable {
          if (trace != nullptr && trace->enabled()) {
            trace->add(obs::stage::peer_fetch, trace->now() - peer_begin);
          }
          if (res.response) {
            counters_.add(0, counter_field::peer_hits);
            if (trace != nullptr) trace->flag(obs::span_flag::peer_hit);
            finish_with(std::move(*res.response));
            return;
          }
          counters_.add(0, counter_field::peer_misses);
          const double origin_begin =
              trace != nullptr && trace->enabled() ? trace->now() : 0.0;
          fetch_from_origin(r, [finish_with, trace,
                                origin_begin](http::response resp, double) mutable {
            if (trace != nullptr && trace->enabled()) {
              trace->add(obs::stage::origin_fetch, trace->now() - origin_begin);
              trace->flag(obs::span_flag::origin);
            }
            finish_with(std::move(resp));
          });
        });
    return;
  }

  const double origin_begin = trace != nullptr && trace->enabled() ? trace->now() : 0.0;
  fetch_from_origin(r, [finish_with, trace, origin_begin](http::response resp,
                                                          double) mutable {
    if (trace != nullptr && trace->enabled()) {
      trace->add(obs::stage::origin_fetch, trace->now() - origin_begin);
      trace->flag(obs::span_flag::origin);
    }
    finish_with(std::move(resp));
  });
}

// Synchronous twin of fetch_resource for the worker path: cache, then the
// single-flight miss path (peer transport, then origin via serve_now). No
// virtual-delay sleeping — workers burn real time; the transport's virtual
// network cost is accounted in peer_latency_seconds instead.
http::response nakika_node::fetch_resource_direct(const std::string& site,
                                                  const http::request& r,
                                                  core::worker_context* wc,
                                                  obs::trace_context* trace) {
  const std::string key = r.url.str();
  const auto now = static_cast<std::int64_t>(virtual_now());

  {
    obs::trace_context::scoped lookup_span(trace, obs::stage::cache_lookup);
    if (auto hit = content_cache_.get(key, now)) {
      if (trace != nullptr) trace->flag(obs::span_flag::cache_hit);
      return std::move(*hit);
    }
  }
  if (trace != nullptr) trace->flag(obs::span_flag::cache_miss);

  // Query-bearing URLs are dynamic/personalized: each request must reach the
  // origin itself, so they bypass coalescing (same rule as the overlay).
  if (!r.url.query().empty()) return fetch_miss_direct(site, r, wc, trace);

  bool coalesced = false;
  const double flight_begin = trace != nullptr && trace->enabled() ? trace->now() : 0.0;
  http::response out = flights_.run(
      key, [&] { return fetch_miss_direct(site, r, wc, trace); }, &coalesced);
  if (coalesced) {
    const std::size_t slot = wc != nullptr ? wc->index() + 1 : 0;
    counters_.add(slot, counter_field::coalesced);
    if (trace != nullptr && trace->enabled()) {
      // The whole run() was spent blocked on the flight leader.
      trace->add(obs::stage::coalesced_wait, trace->now() - flight_begin);
      trace->flag(obs::span_flag::coalesced);
    }
  }
  return out;
}

http::response nakika_node::fetch_miss_direct(const std::string& site,
                                              const http::request& r,
                                              core::worker_context* wc,
                                              obs::trace_context* trace) {
  const std::string key = r.url.str();
  const std::size_t slot = wc != nullptr ? wc->index() + 1 : 0;

  // A flight that completed between our miss and taking leadership may have
  // filled the cache already; serve that instead of refetching.
  if (auto hit = content_cache_.get(key, static_cast<std::int64_t>(virtual_now()))) {
    return std::move(*hit);
  }

  auto finish_with = [&](http::response resp) {
    resp = maybe_render_nkp(site, r, std::move(resp), wc, trace);
    const auto later = static_cast<std::int64_t>(virtual_now());
    const bool stored = content_cache_.put(key, resp, later);
    if (stored && transport_ != nullptr) {
      const http::freshness f = http::compute_freshness(resp, later);
      obs::trace_context::scoped advertise_span(trace, obs::stage::advertise);
      transport_->advertise(key, f.expires_at);
    }
    return resp;
  };

  if (transport_ != nullptr && r.url.query().empty()) {
    net::peer_transport::result res;
    {
      obs::trace_context::scoped peer_span(trace, obs::stage::peer_fetch);
      transport_->fetch_from_peers(
          r, [&res](net::peer_transport::result found) { res = std::move(found); });
    }
    peer_latency_micros_.fetch_add(static_cast<std::uint64_t>(res.latency_seconds * 1e6),
                                   std::memory_order_relaxed);
    if (trace != nullptr && trace->enabled()) {
      // Fold in the transport's accounted virtual network cost (overlay walks
      // + peer round-trips), which wall time on a worker does not include.
      trace->add(obs::stage::peer_fetch, res.latency_seconds);
    }
    if (res.response) {
      counters_.add(slot, counter_field::peer_hits);
      if (trace != nullptr) trace->flag(obs::span_flag::peer_hit);
      return finish_with(std::move(*res.response));
    }
    counters_.add(slot, counter_field::peer_misses);
  }

  obs::trace_context::scoped origin_span(trace, obs::stage::origin_fetch);
  if (trace != nullptr) trace->flag(obs::span_flag::origin);
  auto* origin = dynamic_cast<origin_server*>(resolve_origin_(r.url.host()));
  if (origin == nullptr) {
    return http::make_error_response(502, "cannot resolve " + r.url.host());
  }
  auto resp = origin->serve_now(r);
  if (!resp) {
    return http::make_error_response(502, "origin failure for " + key);
  }
  origin_span.stop();
  return finish_with(std::move(*resp));
}

// ----- script subrequests (Fetch vocabulary) ----------------------------------------

core::fetch_result nakika_node::sub_fetch(const http::request& r) {
  core::fetch_result out;
  const std::string key = r.url.str();
  const auto now = static_cast<std::int64_t>(net_.loop().now());

  if (auto hit = content_cache_.get(key, now)) {
    out.ok = true;
    out.response = std::move(*hit);
    out.virtual_delay_seconds = config_.costs.cache_hit_serve;
    return out;
  }
  // Synchronous origin read with an accounted round-trip delay: scripts see
  // blocking semantics (per-script user-level threads in the paper) while
  // the simulator bills the time to the pipeline's completion.
  http_endpoint* origin = resolve_origin_(r.url.host());
  auto* concrete = dynamic_cast<origin_server*>(origin);
  if (concrete == nullptr) {
    return out;  // unreachable or not a direct origin
  }
  double cpu = 0.0;
  auto resp = concrete->serve_now(r, &cpu);
  if (!resp) return out;
  const double rtt = net_.has_route(host_, concrete->host())
                         ? 2.0 * net_.route_latency(host_, concrete->host())
                         : 0.0;
  const double transfer_time =
      static_cast<double>(http::wire_size(*resp)) / 12.5e6;  // nominal LAN rate
  out.ok = true;
  out.response = std::move(*resp);
  out.virtual_delay_seconds = rtt + cpu + transfer_time;
  const auto later = static_cast<std::int64_t>(net_.loop().now());
  content_cache_.put(key, out.response, later);
  return out;
}

core::fetch_result nakika_node::sub_fetch_direct(const http::request& r,
                                                 obs::trace_context* trace) {
  core::fetch_result out;
  const std::string key = r.url.str();
  const auto now = static_cast<std::int64_t>(virtual_now());

  if (auto hit = content_cache_.get(key, now)) {
    out.ok = true;
    out.response = std::move(*hit);
    return out;
  }
  auto* concrete = dynamic_cast<origin_server*>(resolve_origin_(r.url.host()));
  if (concrete == nullptr) return out;

  // Failure travels in-band (not as an exception) so a coalesced waiter and
  // the flight's leader reach the same verdict: both see the marked response
  // and report ok=false, matching the sim path's "origin produced nothing".
  auto fetch = [&]() -> http::response {
    if (auto hit = content_cache_.get(key, static_cast<std::int64_t>(virtual_now()))) {
      return std::move(*hit);
    }
    auto resp = concrete->serve_now(r);
    if (!resp) {
      http::response err = http::make_error_response(502, "sub-fetch origin failure");
      err.headers.set("X-Nakika-Fetch-Failed", "1");
      return err;
    }
    content_cache_.put(key, *resp, static_cast<std::int64_t>(virtual_now()));
    return std::move(*resp);
  };

  if (r.url.query().empty()) {
    // Sub-fetches coalesce in their own flight table (never shared with
    // top-level misses, whose leaders additionally render + advertise); a
    // sub-fetch for a URL this worker is already fetching runs directly
    // (leader re-entrancy) instead of deadlocking.
    bool coalesced = false;
    const double flight_begin = trace != nullptr && trace->enabled() ? trace->now() : 0.0;
    out.response = sub_flights_.run(key, fetch, &coalesced);
    if (coalesced) {
      counters_.add(0, counter_field::coalesced);
      if (trace != nullptr && trace->enabled()) {
        trace->add(obs::stage::coalesced_wait, trace->now() - flight_begin);
        trace->flag(obs::span_flag::coalesced);
      }
    }
  } else {
    out.response = fetch();
  }
  if (out.response.headers.has("X-Nakika-Fetch-Failed")) return out;  // ok stays false
  out.ok = true;
  return out;
}

// ----- shared per-pipeline accounting ------------------------------------------------

void nakika_node::account_pipeline(const std::string& site,
                                   const core::pipeline_result& result,
                                   double elapsed_seconds, std::size_t counter_slot,
                                   bool record_resources) {
  if (record_resources) {
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

// ----- request handling ---------------------------------------------------------------

void nakika_node::handle(const http::request& original,
                         std::function<void(http::response)> done) {
  if (pool_ != nullptr) {
    // Worker mode: enqueue onto the bounded MPMC queue; a full queue is the
    // backpressure signal and rejects immediately on the caller's thread.
    auto done_shared =
        std::make_shared<std::function<void(http::response)>>(std::move(done));
    // Affinity by site: one site's requests prefer one worker's ring, so its
    // sandbox reuse and cache lines stay warm; stealing rebalances skew.
    const std::uint64_t affinity = std::hash<std::string>{}(original.url.site());
    const bool accepted = pool_->try_submit(
        [this, r = original, done_shared](core::worker_context& wc) {
          execute_on_worker(r, wc, *done_shared);
        },
        affinity);
    if (!accepted) {
      counters_.add(0, counter_field::offered);
      counters_.add(0, counter_field::rejected);
      (*done_shared)(http::make_error_response(503, "server busy (queue full)"));
    }
    return;
  }

  counters_.add(0, counter_field::offered);

  http::request r = original;
  if (overlay::is_nakika_host(r.url.host())) {
    r.url.set_host(overlay::from_nakika_host(r.url.host()));
  }
  const std::string site = r.url.site();

  if (config_.resource_controls && !resources_.admit(site, rng_, net_.loop().now())) {
    // Throttled rejection is a shared-memory flag check in the paper's
    // implementation — far cheaper than full request processing.
    counters_.add(0, counter_field::throttled);
    if (config_.telemetry) {
      obs::trace_context trace(trace_clock, this);
      trace.record().site = site;
      trace.record().path = r.url.path();
      trace.record().start = trace.now();
      trace.flag(obs::span_flag::throttled);
      finish_span(trace, 503, 0.0, /*slot=*/0);
    }
    net_.run_cpu(host_, 0.0001, [done = std::move(done)]() mutable {
      done(http::make_error_response(503, "server busy (throttled)"));
    });
    return;
  }

  if (!config_.scripting) {
    // DHT-only mode: cache + cooperative lookup, no scripting pipeline.
    net_.run_cpu(host_, config_.costs.proxy_overhead,
                 [this, site, r, done = std::move(done)]() mutable {
                   fetch_resource(site, r, [this, done = std::move(done)](
                                               http::response resp, double cpu) mutable {
                     counters_.add(0, counter_field::completed);
                     net_.run_cpu(host_, cpu + config_.costs.dht_processing,
                                  [done = std::move(done), resp = std::move(resp)]() mutable {
                                    done(std::move(resp));
                                  });
                   });
                 });
    return;
  }

  double setup_cpu = config_.costs.proxy_overhead;
  core::sandbox* sb = acquire_sandbox(site, setup_cpu);
  resources_.pipeline_started(site, sb->kill_flag());

  // The trace rides the sim path's async callbacks via shared_ptr; its clock
  // is virtual time, so spans are deterministic for a fixed seed.
  std::shared_ptr<obs::trace_context> trace;
  if (config_.telemetry) {
    trace = std::make_shared<obs::trace_context>(trace_clock, this);
    trace->record().site = site;
    trace->record().path = r.url.path();
    trace->record().start = trace->now();
  }

  core::exec_state base;
  base.site = site;
  base.local_specs = config_.local_specs;
  base.now = static_cast<std::int64_t>(net_.loop().now());
  base.http_cache = &content_cache_;
  base.store = &store_;
  const auto rep = replicas_.find(site);
  base.replica = rep == replicas_.end() ? nullptr : rep->second;
  base.fetch = [this](const http::request& sub) { return sub_fetch(sub); };
  base.resources = resources_.view_for(site);
  base.trace = trace.get();

  const std::string site_script_url = site + "/nakika.js";
  const double start_time = net_.loop().now();

  pipeline_.execute(
      std::move(r), *sb, site_script_url,
      [this](const std::string& url, std::function<void(core::stage_fetch_result)> cb) {
        load_stage_script(url, std::move(cb));
      },
      [this, site, trace](const http::request& req,
                          std::function<void(http::response, double)> cb) {
        fetch_resource(site, req, std::move(cb), trace.get());
      },
      std::move(base),
      [this, site, sb, setup_cpu, start_time, trace,
       done = std::move(done)](core::pipeline_result result) mutable {
        resources_.pipeline_finished(site, sb->kill_flag());
        const bool poisoned = result.terminated || result.failed;
        const js::gc_cycle_result pool_gc = release_sandbox(site, sb, poisoned);

        const double elapsed = net_.loop().now() - start_time;
        account_pipeline(site, result, elapsed, /*counter_slot=*/0,
                         /*record_resources=*/true);
        if (trace != nullptr) {
          const double gc_span = result.gc_seconds + pool_gc.seconds;
          if (gc_span > 0.0) trace->add(obs::stage::gc, gc_span);
          if (result.terminated) trace->flag(obs::span_flag::terminated);
          else if (result.failed) trace->flag(obs::span_flag::failed);
          finish_span(*trace, static_cast<std::uint16_t>(result.response.status), elapsed,
                      /*slot=*/0);
        }

        note_churn(static_cast<double>(result.heap_bytes));
        const double cpu = (setup_cpu + result.script_cpu_seconds +
                            config_.stage_overhead * result.stages_executed) *
                           thrash_factor();
        const double extra_delay = result.virtual_delay_seconds;
        net_.run_cpu(host_, cpu, [this, extra_delay, done = std::move(done),
                                  resp = std::move(result.response)]() mutable {
          if (extra_delay > 0) {
            net_.loop().schedule(extra_delay,
                                 [done = std::move(done), resp = std::move(resp)]() mutable {
                                   done(std::move(resp));
                                 });
          } else {
            done(std::move(resp));
          }
        });
      });
}

// Worker-mode request execution: the synchronous pipeline run on a pool
// thread. Stage loads and resource fetches resolve immediately (the pipeline
// executor composes with immediate callbacks), so the whole request completes
// before this function returns and `done` fires on the worker thread.
void nakika_node::execute_on_worker(http::request r, core::worker_context& wc,
                                    std::function<void(http::response)> done) {
  const std::size_t slot = wc.index() + 1;
  counters_.add(slot, counter_field::offered);
  const auto wall_start = std::chrono::steady_clock::now();

  if (overlay::is_nakika_host(r.url.host())) {
    r.url.set_host(overlay::from_nakika_host(r.url.host()));
  }
  const std::string site = r.url.site();

  // Span sampling (node_config::trace_sample_every): every Nth request per
  // worker gets the full trace — per-stage TSC stamps plus a span-ring
  // entry. The rest still land in the end-to-end latency histogram below,
  // which reuses `wall_start` (taken anyway for billing), so p50/p99/p999
  // stay exact per request while the per-span cost is amortized 1/N.
  bool sampled = false;
  if (config_.telemetry) {
    sampled = config_.trace_sample_every <= 1 ||
              (trace_decim_[wc.index()].n++ % config_.trace_sample_every) == 0;
  }
  // Stack-allocated: the worker path is fully synchronous, so the span lives
  // exactly as long as the request.
  obs::trace_context trace =
      sampled ? obs::trace_context(trace_clock, this) : obs::trace_context();
  obs::trace_context* const tr = trace.enabled() ? &trace : nullptr;
  if (tr != nullptr) {
    trace.record().site = site;
    trace.record().path = r.url.path();
    trace.record().start = trace.now();
  }

  if (config_.resource_controls && !resources_.admit(site, wc.rng(), virtual_now())) {
    counters_.add(slot, counter_field::throttled);
    if (tr != nullptr) {
      trace.flag(obs::span_flag::throttled);
      finish_span(trace, 503, seconds_since(wall_start), slot);
    } else if (config_.telemetry) {
      record_total_latency(slot, seconds_since(wall_start));
    }
    done(http::make_error_response(503, "server busy (throttled)"));
    return;
  }

  core::sandbox* sb = nullptr;
  bool finished = false;
  try {
    if (!config_.scripting) {
      http::response resp = fetch_resource_direct(site, r, &wc, tr);
      counters_.add(slot, counter_field::completed);
      if (tr != nullptr) {
        finish_span(trace, static_cast<std::uint16_t>(resp.status),
                    seconds_since(wall_start), slot);
      } else if (config_.telemetry) {
        record_total_latency(slot, seconds_since(wall_start));
      }
      finished = true;
      done(std::move(resp));
      return;
    }

    sb = wc.acquire(site, config_.script_limits, config_.script_engine, &chunk_cache_,
                    nullptr);
    resources_.pipeline_started(site, sb->kill_flag());

    core::exec_state base;
    base.site = site;
    base.local_specs = config_.local_specs;
    base.now = static_cast<std::int64_t>(virtual_now());
    base.http_cache = &content_cache_;
    base.store = &store_;
    // replicas_ is wired at deployment time, before serving starts.
    const auto rep = replicas_.find(site);
    base.replica = rep == replicas_.end() ? nullptr : rep->second;
    base.fetch = [this, tr](const http::request& sub) { return sub_fetch_direct(sub, tr); };
    base.resources = resources_.view_for(site);
    base.trace = tr;

    const std::string site_script_url = site + "/nakika.js";

    // The loaders below resolve synchronously, so the completion lambda runs
    // before execute() returns; `done` is captured by value so the callback
    // owns everything it touches except the long-lived wc/node state.
    pipeline_.execute(
        std::move(r), *sb, site_script_url,
        [this](const std::string& url, std::function<void(core::stage_fetch_result)> cb) {
          cb(load_stage_script_direct(url));
        },
        [this, site, &wc, tr](const http::request& req,
                              std::function<void(http::response, double)> cb) {
          cb(fetch_resource_direct(site, req, &wc, tr), 0.0);
        },
        std::move(base),
        [this, site, sb, slot, &wc, wall_start, done, &finished, tr](
            core::pipeline_result result) {
          resources_.pipeline_finished(site, sb->kill_flag());
          const bool poisoned = result.terminated || result.failed;
          const js::gc_cycle_result pool_gc =
              reclaim_sandbox(site, sb, poisoned, slot, config_.resource_controls);
          wc.release(site, sb, poisoned);
          const double elapsed = seconds_since(wall_start);
          // With resource controls off nothing reads the usage counters, so
          // skip the (shared-lock) recording on the fast path.
          account_pipeline(site, result, elapsed, slot,
                           /*record_resources=*/config_.resource_controls);
          if (tr != nullptr) {
            const double gc_span = result.gc_seconds + pool_gc.seconds;
            if (gc_span > 0.0) tr->add(obs::stage::gc, gc_span);
            if (result.terminated) tr->flag(obs::span_flag::terminated);
            else if (result.failed) tr->flag(obs::span_flag::failed);
            finish_span(*tr, static_cast<std::uint16_t>(result.response.status),
                        elapsed, slot);
          } else if (config_.telemetry) {
            record_total_latency(slot, elapsed);
          }
          finished = true;
          done(std::move(result.response));
        });
  } catch (...) {
    // The pipeline itself converts script failures into responses; landing
    // here means host code threw (an origin handler, allocation failure).
    // The request must still be answered and the sandbox/registration must
    // not leak. A throw from `done` after completion is not ours to answer —
    // rethrow so the pool's backstop counts it.
    if (finished) throw;
    if (sb != nullptr) {
      resources_.pipeline_finished(site, sb->kill_flag());
      wc.release(site, sb, /*poisoned=*/true);
    }
    counters_.add(slot, counter_field::failed);
    done(http::make_error_response(500, "internal error on worker"));
  }
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

// ----- memory-pressure model ---------------------------------------------------------

void nakika_node::note_churn(double bytes) {
  const double now = net_.loop().now();
  constexpr double window = 0.25;  // seconds
  if (now - churn_window_start_ >= window) {
    churn_rate_ = churn_window_bytes_ / std::max(window, now - churn_window_start_);
    churn_window_start_ = now;
    churn_window_bytes_ = 0.0;
  }
  churn_window_bytes_ += bytes;
}

double nakika_node::thrash_factor() const {
  const double capacity = config_.capacities.memory_bytes_per_second;
  if (capacity <= 0 || churn_rate_ <= capacity) return 1.0;
  return std::min(churn_rate_ / capacity, 64.0);
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
  monitor_tick(0);
}

void nakika_node::monitor_tick(std::size_t /*kind_index*/) {
  // CONTROL runs for every tracked resource each cycle: phase 1, wait the
  // control timeout ("note that our implementation does not block but
  // rather polls"), then phase 2.
  net_.loop().schedule(config_.control_interval, [this]() {
    // Housekeeping alongside the resource sweep: drop expired script sources
    // and negative verdicts so they don't sit resident until capacity
    // eviction happens to pick them.
    const auto now = static_cast<std::int64_t>(net_.loop().now());
    script_cache_.purge_expired(now);
    no_script_.purge_expired(now);
    for (std::size_t k = 0; k < core::resource_kind_count; ++k) {
      resources_.control_phase1(static_cast<core::resource_kind>(k), net_.loop().now());
    }
    net_.loop().schedule(config_.control_timeout, [this]() {
      for (std::size_t k = 0; k < core::resource_kind_count; ++k) {
        const core::control_outcome outcome = resources_.control_phase2(
            static_cast<core::resource_kind>(k), net_.loop().now());
        if (!outcome.terminated_site.empty()) {
          NAKIKA_LOG(info, "monitor")
              << "terminated pipelines of " << outcome.terminated_site;
        }
      }
      monitor_tick(0);
    });
  });
}

void nakika_node::monitor_main() {
  const auto interval =
      std::chrono::duration<double>(std::max(config_.control_interval, 1e-3));
  const auto timeout =
      std::chrono::duration<double>(std::max(config_.control_timeout, 1e-3));
  std::unique_lock<std::mutex> lock(monitor_mu_);
  while (!monitor_stop_) {
    if (monitor_cv_.wait_for(lock, interval, [this] { return monitor_stop_; })) return;
    lock.unlock();
    const auto now_epoch = static_cast<std::int64_t>(virtual_now());
    script_cache_.purge_expired(now_epoch);
    no_script_.purge_expired(now_epoch);
    for (std::size_t k = 0; k < core::resource_kind_count; ++k) {
      resources_.control_phase1(static_cast<core::resource_kind>(k), virtual_now());
    }
    lock.lock();
    if (monitor_cv_.wait_for(lock, timeout, [this] { return monitor_stop_; })) return;
    lock.unlock();
    for (std::size_t k = 0; k < core::resource_kind_count; ++k) {
      const core::control_outcome outcome =
          resources_.control_phase2(static_cast<core::resource_kind>(k), virtual_now());
      if (!outcome.terminated_site.empty()) {
        NAKIKA_LOG(info, "monitor")
            << "terminated pipelines of " << outcome.terminated_site;
      }
    }
    lock.lock();
  }
}

}  // namespace nakika::proxy
