// The three workloads: their seeded inputs (catalogue, request sequence,
// open-loop arrival schedule) and the system under test each one drives,
// built only through the program's public API.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "net/peer_transport.hpp"
#include "overlay/clusters.hpp"
#include "proxy/nakika_node.hpp"
#include "proxy/origin_server.hpp"
#include "sim/event_loop.hpp"
#include "sim/network.hpp"
#include "workload/simm.hpp"

namespace perfbench {

namespace nk = nakika;

enum class workload_kind { edge_hit, simm_edge, cluster_miss };

// Fixed shape of one workload. A run measures `repeats` fresh environments,
// each driven through a closed phase, an open phase and a latency phase
// (a closed loop with one request in flight per worker); request counts
// per environment scale with the run's `--seconds`, so a run always does
// the same work for a given length.
struct workload_spec {
  const char* name;
  workload_kind kind;
  std::size_t nodes;
  std::size_t workers_per_node;
  std::size_t repeats;              // measured environments per run
  std::size_t window;               // closed loop: requests in flight
  double closed_per_second;         // closed-loop requests per environment per run-second
  double open_rate;                 // open loop: Poisson arrivals per second
  double open_share;                // open loop: run-seconds per environment, as a share
  double latency_per_second;        // latency phase: requests per environment per run-second
  std::size_t cache_bytes;          // per node
};

[[nodiscard]] const workload_spec* find_spec(const std::string& name);

// Requests per environment in the closed, the open and the latency phase
// of a run of `seconds`.
struct phase_sizes {
  std::size_t closed = 0;
  std::size_t open = 0;
  std::size_t latency = 0;
};

// Requests the latency phase keeps in flight: one per worker of the
// environment, so no request waits in a queue for a busy worker.
[[nodiscard]] inline std::size_t latency_window(const workload_spec& spec) {
  return spec.nodes * spec.workers_per_node;
}
[[nodiscard]] phase_sizes sizes_for(const workload_spec& spec, int seconds);

// What a correct response carries. Objects are checked by length and by a
// fingerprint of sampled body bytes; rendered SIMM pages by their status,
// content type and the page's own heading.
struct expectation {
  std::size_t size = 0;
  std::uint64_t sample = 0;
  std::string marker;  // non-empty: a rendered page containing this text
};

[[nodiscard]] std::uint64_t sample_fingerprint(std::string_view body);
[[nodiscard]] bool response_ok(const nk::http::response& r, const expectation& e);

// Everything generated from the seed before timing starts. `sequence`
// indexes `requests`; the closed phase sends sequence[0, closed_count), the
// open phase the next open_count entries at `arrivals_ns` offsets, and the
// latency phase the latency_count entries after those.
struct inputs {
  struct object {
    std::string site;
    std::string path;
    std::size_t size = 0;
    std::uint8_t fill = 0;
  };
  std::vector<object> catalogue;           // static objects (edge_hit, cluster_miss)
  std::vector<nk::http::request> requests;  // distinct requests
  std::vector<std::uint32_t> expect_of;     // requests[i] -> expectations index
  std::vector<expectation> expectations;
  std::vector<std::uint32_t> sequence;
  std::vector<std::int64_t> arrivals_ns;
  std::size_t closed_count = 0;
  std::size_t open_count = 0;
  std::size_t latency_count = 0;

  [[nodiscard]] std::uint64_t digest() const;
};

[[nodiscard]] inputs make_inputs(const workload_spec& spec, std::uint64_t seed, int seconds);

// Span sink for the timing decorator around the peer transport: per request
// (by the id the traced phase stamps into a header) the begin/end of its
// fetch_from_peers and advertise calls, plus a count of calls no request id
// reached.
struct peer_spans {
  explicit peer_spans(std::size_t n)
      : fetch_begin(n, 0), fetch_end(n, 0), advertise_begin(n, 0), advertise_end(n, 0) {}
  std::vector<std::int64_t> fetch_begin, fetch_end, advertise_begin, advertise_end;
  std::atomic<std::int64_t> virtual_latency_ns{0};
  std::atomic<std::uint64_t> fetch_calls{0};
  std::atomic<std::uint64_t> advertise_calls{0};
  std::atomic<std::uint64_t> unattributed_calls{0};
};

inline constexpr const char* k_request_id_header = "X-Perfbench-Id";

// The system under test: origin, node(s), and for cluster_miss the overlay
// they cooperate through. Nodes are declared last so their workers stop
// before anything they reference is destroyed.
struct environment {
  nk::sim::event_loop loop;
  std::unique_ptr<nk::sim::network> net;
  std::unique_ptr<nk::proxy::origin_server> origin;
  std::optional<nk::workload::simm_site> simm;
  std::unique_ptr<nk::overlay::coral_overlay> overlay;
  std::vector<nk::sim::node_id> node_hosts;
  std::vector<std::unique_ptr<nk::proxy::nakika_node>> nodes;

  environment() = default;
  environment(const environment&) = delete;
  environment& operator=(const environment&) = delete;
};

struct env_options {
  bool traced = false;               // trace_sample_every = 1, large span rings
  std::size_t span_capacity = 0;     // per worker slot, when traced
  peer_spans* spans = nullptr;       // when set, peer transports are decorated
};

// Builds the environment for `in`: origin content, nodes, and for
// cluster_miss the overlay joins and peer transports.
[[nodiscard]] std::unique_ptr<environment> build_environment(const workload_spec& spec,
                                                             std::uint64_t seed,
                                                             const inputs& in,
                                                             const env_options& opt);

// Expected responses of SIMM media come from the origin's own bodies; call
// once per inputs on a freshly built environment.
void learn_expectations(environment& env, inputs& in);

}  // namespace perfbench
