// Sloppy DHT ring, modeled on Coral's distributed sloppy hash table: keys
// map to multiple values (node addresses caching a URL), stores may stop
// early at intermediate nodes when the path toward the key is loaded
// ("sloppiness"), and lookups return as soon as any values are found along
// the path.
//
// Two access paths share one store:
//   - The event-driven API (put/get) drives RPCs over the simulated network,
//     so lookups cost real virtual-time hops. It is the deterministic
//     single-threaded sim path and must only be used from the event loop.
//   - The synchronous API (put_now/get_now) performs the same iterative
//     Kademlia walk inline, for callers on concurrent worker threads (the
//     threaded peer transport). It never touches the event loop; the virtual
//     network cost the sim would have charged is returned as accounted
//     latency instead.
//
// Concurrency. Writers (put_now, leave/revive/purge, sweeps, scrubs) hold one
// ring mutex; get_now takes NO lock in steady state. Two published
// structures serve it, both read under a util::ebr guard:
//   - Each member's store is a fixed array of k_store_buckets hash buckets.
//     A bucket is an immutable key -> values map behind an atomic pointer. A
//     store write copies only its key's bucket, publishes the copy with a
//     release store and retires the old copy behind the epoch, so a write
//     costs O(keys / k_store_buckets) and a get_now that starts after a
//     put_now returned sees the value.
//   - The ring snapshot holds liveness, identity and flattened routing
//     contacts. Only join/leave/revive and a routing change that adds or
//     removes a contact bump its version; the first reader to see a stale
//     version rebuilds it under the mutex. Store writes and contact
//     refreshes never do, so reads stay on the fast path between puts.
// join is setup-time only: its bootstrap self-lookup is event-driven sim
// traffic, so complete every join before concurrent serving starts.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "overlay/routing_table.hpp"
#include "sim/network.hpp"
#include "util/ebr.hpp"

namespace nakika::overlay {

struct dht_config {
  std::size_t k = 8;                 // bucket capacity / replication set size
  std::size_t spill_threshold = 4;   // sloppy store: stop early at a node
                                     // already holding this many values
  std::size_t max_values_per_key = 8;
  double rpc_cpu_seconds = 50e-6;    // per-RPC processing cost
  std::size_t rpc_bytes = 120;       // request/response wire size
  // Amortized store hygiene: after this many stores/lookups touching one
  // member, its whole store is swept for TTL-expired values (so keys that
  // are never queried again cannot accumulate dead entries).
  std::size_t sweep_interval = 64;
};

// One logical ring. Multiple rings coexist (Coral levels / clusters).
class sloppy_dht {
 public:
  sloppy_dht(sim::network& net, dht_config config = {});
  ~sloppy_dht();

  using member_id = std::size_t;

  // Adds a member hosted on `host`, bootstrapping its routing table from the
  // existing members (iterative self-lookup, as in Kademlia join).
  member_id join(sim::node_id host, const std::string& name);
  void leave(member_id m);
  // Brings a left member back: alive again with an EMPTY store (state died
  // with the process) and re-seeded routing pointers, as if it had re-joined
  // under the same name. Thread-safe like leave.
  void revive(member_id m);
  // Drops every key stored at one member mid-run (fault injection: models
  // losing a node's DHT state without marking it dead).
  void purge_store(member_id m);

  // --- event-driven API (single-threaded sim path) -----------------------------

  // Stores `value` under `key` with an absolute expiry, starting at member
  // `via`. `done(hops)` fires when the store lands.
  void put(member_id via, const std::string& key, const std::string& value,
           std::int64_t expires_at, std::function<void(int hops)> done);

  // Looks up `key` starting at `via`; `done(values, hops)` delivers all
  // non-expired values found (empty when the key is absent).
  void get(member_id via, const std::string& key,
           std::function<void(std::vector<std::string> values, int hops)> done);

  // --- synchronous API (thread-safe, for worker-mode transports) ---------------

  struct sync_result {
    std::vector<std::string> values;
    int hops = 0;
    // Virtual latency of the walk (per-hop RTT + RPC CPU), what the sim path
    // would have billed to the event loop.
    double latency_seconds = 0.0;
  };

  // The iterative walk of get performed inline, lock-free in steady state.
  // `now` is the caller's epoch (worker mode runs on wall-clock epochs, not
  // event-loop time, so the clock is explicit here).
  [[nodiscard]] sync_result get_now(member_id via, const std::string& key,
                                    std::int64_t now);
  // The walk and sloppy store of put, inline under the ring mutex. Returns
  // the hop count of the store walk.
  int put_now(member_id via, const std::string& key, const std::string& value,
              std::int64_t expires_at, std::int64_t now);

  // Sweeps every member's store, dropping TTL-expired values and empty keys.
  void purge_expired(std::int64_t now);

  [[nodiscard]] std::size_t member_count() const;
  [[nodiscard]] const contact& member_contact(member_id m) const;
  // Introspection for tests: values stored at one member for a key.
  [[nodiscard]] std::vector<std::string> stored_at(member_id m, const std::string& key,
                                                   std::int64_t now) const;
  // Number of keys resident in one member's store (including any whose
  // values have expired but have not been swept yet).
  [[nodiscard]] std::size_t stored_keys(member_id m) const;
  [[nodiscard]] sim::network& net() { return net_; }

  // Read-side accounting for the lock-free get_now (the zero-read-lock
  // assertion tests ride on these): fastpath = the published ring snapshot
  // was current; slowpath = a membership or contact change made it stale and
  // the reader took the ring mutex to rebuild it. Store writes never force
  // a slowpath read.
  [[nodiscard]] std::uint64_t read_fastpath() const {
    return read_fastpath_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t read_slowpath() const {
    return read_slowpath_.load(std::memory_order_relaxed);
  }

 private:
  struct stored_value {
    std::string value;
    std::int64_t expires_at;
    node_id holder;  // hash_of(value): the member the value names, if any
  };
  // One immutable store bucket. Published buckets are never modified; a
  // writer replaces the whole bucket (copy-on-write).
  using bucket_map = std::map<std::string, std::vector<stored_value>>;
  // A write copies ~keys/256 entries: about ten at the few thousand keys a
  // busy member holds, for 2 KB of bucket pointers per member.
  static constexpr std::size_t k_store_buckets = 256;
  // A member's store: a null bucket is empty. Heap-allocated per member so
  // its address survives members_ reallocating on join.
  struct member_store {
    std::array<std::atomic<const bucket_map*>, k_store_buckets> buckets{};
    member_store() = default;
    member_store(const member_store&) = delete;
    member_store& operator=(const member_store&) = delete;
    ~member_store();
  };
  // Immutable per-member view published to readers. The store is reached
  // through its live bucket pointers, not copied.
  struct snap_member {
    bool alive = true;
    contact self;
    sim::node_id host = 0;
    std::vector<contact> contacts;
    const member_store* store = nullptr;
  };
  struct ring_snapshot {
    std::uint64_t version = 0;
    std::vector<snap_member> members;
  };
  struct member {
    bool alive = true;
    contact self;
    sim::node_id host = 0;
    std::unique_ptr<routing_table> table;
    std::unique_ptr<member_store> store = std::make_unique<member_store>();
    std::size_t ops_since_sweep = 0;
  };

  // Iterative lookup driving closure. alpha = 1 outstanding RPC.
  struct lookup_state;
  void lookup(member_id via, const node_id& target,
              std::function<void(std::vector<contact> path, int hops)> done);
  void lookup_step(const std::shared_ptr<lookup_state>& state);

  void rpc(member_id from, const contact& to, std::function<void(member*)> handler,
           std::function<void()> on_unreachable);

  [[nodiscard]] member* find_member(const node_id& id);
  [[nodiscard]] std::int64_t now_seconds() const;
  // Virtual cost of one RPC exchange between two hosts (RTT + CPU).
  [[nodiscard]] double rpc_cost(sim::node_id from, sim::node_id to) const;

  // --- bucketed store (writers hold mu_ on the sync path; the async path
  // runs single-threaded) ---------------------------------------------------------
  [[nodiscard]] static std::size_t bucket_of(const std::string& key);
  // The values stored under `key`, or null. Readers must hold an EBR guard
  // (or mu_) for as long as they use the result.
  [[nodiscard]] static const std::vector<stored_value>* find_values(const member_store& s,
                                                                    const std::string& key);
  // A private copy of bucket `b` for a writer to edit and publish.
  [[nodiscard]] static std::unique_ptr<bucket_map> copy_bucket(const member_store& s,
                                                               std::size_t b);
  // Replaces bucket `b` (null when `fresh` is empty) and retires the old
  // copy behind the epoch.
  static void publish(member_store& s, std::size_t b, std::unique_ptr<bucket_map> fresh);
  static void clear_store(member_store& s);
  // Drops the values of `key` matching `pred`, copying the bucket only when
  // one does; drops the key when none remain.
  template <class Pred>
  void drop_values(member& m, const std::string& key, Pred pred);
  void prune_expired(member& m, const std::string& key, std::int64_t now);
  // Values name cache-holding members; one whose member has left the ring is
  // a dangling holder. Lookups drop expired and dangling values so a lookup
  // never hands a dead peer back to the transport — the caller re-replicates
  // via origin instead.
  void scrub_key(member& m, const std::string& key, std::int64_t now);
  [[nodiscard]] bool holder_is_dead(const node_id& holder) const;
  // Amortized hygiene: every sweep_interval ops touching one member, its
  // whole store is swept for TTL-expired values (so keys that are never
  // queried again cannot accumulate dead entries).
  void sweep_member(member& m, std::int64_t now);
  void touch_for_sweep(member& m, std::int64_t now);
  // Sloppy insert honoring max_values_per_key: refresh a duplicate value,
  // else displace the soonest-to-expire when the per-key list is full.
  void store_value(member& m, const std::string& key, const std::string& value,
                   std::int64_t expires_at, std::int64_t now);

  // --- routing and the ring snapshot --------------------------------------------
  // Readers rebuild the ring snapshot at their next get_now. Called for
  // liveness changes and for contacts added or removed, never for refreshes.
  void bump_version() { version_.fetch_add(1, std::memory_order_release); }
  // `m` learns `c`; bumps the version when c is a new contact.
  void observe(member& m, const contact& c);
  void forget(member& m, const node_id& id);

  // The synchronous store walk used by put_now (under mu_). Walks toward
  // `target`, learning/scrubbing routing state as it goes; fills `path` with
  // the walked shortlist sorted by distance and returns the hop count.
  int walk_now(member& via, const node_id& target, std::vector<contact>& path);

  // Returns a snapshot matching the current version, rebuilding and
  // publishing (old one retired behind the EBR epoch) if needed. mu_ held.
  const ring_snapshot* refresh_snapshot_locked();
  // The pure-read iterative walk over a snapshot and the live buckets:
  // filters TTL-expired and dangling-holder values at collection time, never
  // mutates anything. Members whose stores held filtered values are
  // appended to `scrub` so the caller can drop them afterwards under the
  // ring mutex — lookups stay destructive toward dangling/expired state
  // without steady-state reads ever touching the lock.
  void walk_snapshot(const ring_snapshot& snap, std::size_t via_index,
                     const std::string& key, std::int64_t now, sync_result& out,
                     std::vector<std::size_t>& scrub) const;
  // Index of the live member with this overlay id, or npos.
  [[nodiscard]] static std::size_t find_in_snapshot(const ring_snapshot& snap,
                                                    const node_id& id);
  [[nodiscard]] static bool holder_dead_in(const ring_snapshot& snap, const node_id& holder);

  sim::network& net_;
  dht_config config_;
  mutable std::mutex mu_;  // guards members_ (stores, routing tables, liveness)
  std::vector<member> members_;

  std::atomic<const ring_snapshot*> snap_{nullptr};
  std::atomic<std::uint64_t> version_{1};
  mutable std::atomic<std::uint64_t> read_fastpath_{0};
  mutable std::atomic<std::uint64_t> read_slowpath_{0};
};

}  // namespace nakika::overlay
