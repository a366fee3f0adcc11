// Isolated layer probes: each feeds one layer the workload's own seeded
// inputs, outside the node, and times the calls into its public API.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "workload.hpp"

namespace perfbench {

struct probe_value {
  double value = 0.0;
  std::size_t samples = 0;
};

// http::url::parse over the serialized URLs of sequence[first, first+n).
probe_value probe_url_parse(const inputs& in, std::size_t first, std::size_t n);

// http_cache::get / put replaying the sequence positions [first, first+n)
// that node `node_index` of `node_count` receives, on a fresh cache of the
// node's capacity: every request is a get, every miss a put.
struct cache_probe {
  probe_value get_us;
  probe_value put_us;
};
cache_probe probe_cache(environment& env, const inputs& in, std::size_t cache_bytes,
                        std::size_t first, std::size_t n, std::size_t node_index,
                        std::size_t node_count);

// origin_server::serve_now on sequence[first, first+n).
probe_value probe_origin(environment& env, const inputs& in, std::size_t first, std::size_t n);

// Round trip of an empty job through core::worker_pool::try_submit to a
// worker and back, one at a time (median, microseconds).
probe_value probe_pool_roundtrip(nk::core::worker_pool& pool, std::size_t n);

// XSL rendering of the SIMM pages requested in sequence[first, first+n),
// at most `max_pages` of them.
probe_value probe_xsl(environment& env, const inputs& in, std::size_t first, std::size_t n,
                      std::size_t max_pages);

// coral_overlay::get_now / put_now on a fresh overlay of the workload's
// shape, advertising the workload's keys in first-request order. Measured
// at two key counts the workload reaches: after `low_keys` and after
// `high_keys` keys are stored. A miss-path pair is a get_now of a new key
// followed by its put_now; a clean get is a get_now with no put since the
// last one.
struct overlay_probe {
  std::size_t low_keys = 0;
  std::size_t high_keys = 0;
  probe_value get_low_us, put_low_us;
  probe_value get_high_us, put_high_us;
  probe_value clean_get_us;
  bool ok = false;  // fresh keys missed and stored keys were found
};
overlay_probe probe_overlay(const std::vector<std::string>& keys, std::size_t nodes,
                            std::size_t low_keys, std::size_t high_keys, std::size_t pairs);

}  // namespace perfbench
