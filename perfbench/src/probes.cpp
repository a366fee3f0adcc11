#include "probes.hpp"

#include <atomic>
#include <optional>

#include "cache/http_cache.hpp"
#include "harness.hpp"
#include "media/xsl.hpp"

namespace perfbench {

namespace {

probe_value mean_us(std::int64_t total_ns, std::size_t samples) {
  return {samples == 0 ? 0.0 : static_cast<double>(total_ns) / 1e3 / static_cast<double>(samples),
          samples};
}

// The origin's response for each distinct request, fetched untimed.
class response_memo {
 public:
  response_memo(environment& env, const inputs& in) : env_(env), in_(in), memo_(in.requests.size()) {}
  const nk::http::response& get(std::uint32_t req) {
    if (!memo_[req]) {
      memo_[req] = env_.origin->serve_now(in_.requests[req])
                       .value_or(nk::http::make_error_response(502, "origin gave nothing"));
    }
    return *memo_[req];
  }

 private:
  environment& env_;
  const inputs& in_;
  std::vector<std::optional<nk::http::response>> memo_;
};

}  // namespace

probe_value probe_url_parse(const inputs& in, std::size_t first, std::size_t n) {
  std::vector<std::string> urls;
  urls.reserve(n);
  for (std::size_t i = first; i < first + n; ++i) {
    urls.push_back(in.requests[in.sequence[i]].url.str());
  }
  std::size_t sink = 0;
  const std::int64_t begin = now_ns();
  for (const std::string& u : urls) sink += nk::http::url::parse(u).path().size();
  const std::int64_t end = now_ns();
  if (sink == 0) return {};
  return mean_us(end - begin, urls.size());
}

cache_probe probe_cache(environment& env, const inputs& in, std::size_t cache_bytes,
                        std::size_t first, std::size_t n, std::size_t node_index,
                        std::size_t node_count) {
  response_memo responses(env, in);
  nk::cache::http_cache cache(cache_bytes);
  std::int64_t get_ns = 0;
  std::int64_t put_ns = 0;
  std::size_t gets = 0;
  std::size_t puts = 0;
  for (std::size_t pos = first; pos < first + n; ++pos) {
    if (pos % node_count != node_index) continue;
    const std::uint32_t req = in.sequence[pos];
    const std::string key = in.requests[req].url.str();
    const nk::http::response& resp = responses.get(req);
    std::int64_t t0 = now_ns();
    const bool hit = cache.get(key, 0).has_value();
    std::int64_t t1 = now_ns();
    get_ns += t1 - t0;
    ++gets;
    if (hit) continue;
    t0 = now_ns();
    cache.put(key, resp, 0);
    t1 = now_ns();
    put_ns += t1 - t0;
    ++puts;
  }
  return {mean_us(get_ns, gets), mean_us(put_ns, puts)};
}

probe_value probe_origin(environment& env, const inputs& in, std::size_t first, std::size_t n) {
  std::size_t sink = 0;
  const std::int64_t begin = now_ns();
  for (std::size_t pos = first; pos < first + n; ++pos) {
    const auto resp = env.origin->serve_now(in.requests[in.sequence[pos]]);
    sink += resp ? resp->body_size() : 0;
  }
  const std::int64_t end = now_ns();
  if (sink == 0) return {};
  return mean_us(end - begin, n);
}

probe_value probe_pool_roundtrip(nk::core::worker_pool& pool, std::size_t n) {
  std::vector<double> us;
  us.reserve(n);
  std::atomic<bool> ran{false};
  for (std::size_t i = 0; i < n; ++i) {
    ran.store(false, std::memory_order_relaxed);
    const std::int64_t begin = now_ns();
    if (!pool.try_submit([&ran](nk::core::worker_context&) {
          ran.store(true, std::memory_order_release);
        })) {
      continue;
    }
    while (!ran.load(std::memory_order_acquire)) cpu_relax();
    us.push_back(static_cast<double>(now_ns() - begin) / 1e3);
  }
  pool.drain();
  return {median_of(us), us.size()};
}

probe_value probe_xsl(environment& env, const inputs& in, std::size_t first, std::size_t n,
                      std::size_t max_pages) {
  const std::string stylesheet = nk::workload::simm_site::stylesheet();
  std::vector<bool> seen(in.requests.size(), false);
  std::int64_t total = 0;
  std::size_t pages = 0;
  std::size_t sink = 0;
  for (std::size_t pos = first; pos < first + n && pages < max_pages; ++pos) {
    const std::uint32_t req = in.sequence[pos];
    if (seen[req] || in.expectations[in.expect_of[req]].marker.empty()) continue;
    seen[req] = true;
    const auto xml = env.origin->serve_now(in.requests[req]);
    if (!xml || !xml->body) continue;
    const std::int64_t begin = now_ns();
    sink += nk::media::xsl_transform(stylesheet, xml->body->view()).size();
    total += now_ns() - begin;
    ++pages;
  }
  if (sink == 0) return {};
  return mean_us(total, pages);
}

overlay_probe probe_overlay(const std::vector<std::string>& keys, std::size_t nodes,
                            std::size_t low_keys, std::size_t high_keys, std::size_t pairs) {
  nk::sim::event_loop loop;
  nk::sim::network net(loop);
  std::vector<nk::sim::node_id> hosts;
  for (std::size_t i = 0; i < nodes; ++i) hosts.push_back(net.add_node("p" + std::to_string(i)));
  for (std::size_t i = 0; i < nodes; ++i) {
    for (std::size_t j = i + 1; j < nodes; ++j) net.set_route(hosts[i], hosts[j], 0.002);
  }
  nk::overlay::coral_overlay overlay(net);
  std::vector<nk::overlay::coral_overlay::member_id> members;
  std::vector<std::string> names;
  for (std::size_t i = 0; i < nodes; ++i) {
    names.push_back("nakika-p" + std::to_string(i));
    members.push_back(overlay.join(hosts[i], names.back()));
  }
  loop.run();

  constexpr std::int64_t k_expires = 36'000;
  std::size_t stored = 0;
  auto store_until = [&](std::size_t count) {
    for (; stored < count && stored < keys.size(); ++stored) {
      overlay.put_now(members[stored % nodes], keys[stored], names[stored % nodes], k_expires, 0);
    }
  };
  std::size_t probe_key = 0;
  auto miss_pairs = [&](probe_value& get_us, probe_value& put_us) {
    std::int64_t get_ns = 0;
    std::int64_t put_ns = 0;
    for (std::size_t j = 0; j < pairs; ++j) {
      const std::string key = "http://probe.miss.test/obj/" + std::to_string(probe_key++);
      const std::size_t m = j % nodes;
      std::int64_t t0 = now_ns();
      const auto found = overlay.get_now(members[m], key, 0);
      std::int64_t t1 = now_ns();
      get_ns += t1 - t0;
      t0 = now_ns();
      overlay.put_now(members[m], key, names[m], k_expires, 0);
      t1 = now_ns();
      put_ns += t1 - t0;
      if (!found.values.empty()) return false;  // a fresh key cannot be found
    }
    get_us = mean_us(get_ns, pairs);
    put_us = mean_us(put_ns, pairs);
    return true;
  };

  overlay_probe out;
  store_until(low_keys);
  out.low_keys = stored;
  const bool low_ok = miss_pairs(out.get_low_us, out.put_low_us);
  store_until(high_keys);
  out.high_keys = stored;
  const bool high_ok = miss_pairs(out.get_high_us, out.put_high_us);

  // Clean reads: the first get after the last put rebuilds the snapshot.
  (void)overlay.get_now(members[0], keys.empty() ? "" : keys[0], 0);
  std::int64_t clean_ns = 0;
  std::size_t found = 0;
  const std::size_t clean = std::min<std::size_t>(stored, 2000);
  for (std::size_t j = 0; j < clean; ++j) {
    const std::int64_t t0 = now_ns();
    const auto r = overlay.get_now(members[(j + 1) % nodes], keys[j], 0);
    clean_ns += now_ns() - t0;
    found += r.values.empty() ? 0 : 1;
  }
  out.clean_get_us = mean_us(clean_ns, clean);
  out.ok = low_ok && high_ok && found == clean;
  return out;
}

}  // namespace perfbench
