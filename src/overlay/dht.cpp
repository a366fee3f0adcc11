#include "overlay/dht.hpp"

#include <algorithm>
#include <stdexcept>

namespace nakika::overlay {

sloppy_dht::sloppy_dht(sim::network& net, dht_config config)
    : net_(net), config_(config) {}

sloppy_dht::~sloppy_dht() {
  // Retire the published snapshot and drain what the epoch allows. By
  // contract no reader is active during destruction, so this frees
  // everything unless an unrelated structure elsewhere holds a guard open.
  const ring_snapshot* cur = snap_.exchange(nullptr, std::memory_order_acq_rel);
  auto& domain = util::ebr_domain::instance();
  if (cur != nullptr) {
    domain.retire(const_cast<ring_snapshot*>(cur),
                  [](void* p) { delete static_cast<ring_snapshot*>(p); });
  }
  domain.flush();
}

sloppy_dht::member_store::~member_store() {
  for (auto& b : buckets) delete b.load(std::memory_order_relaxed);
}

const sloppy_dht::ring_snapshot* sloppy_dht::refresh_snapshot_locked() {
  const ring_snapshot* cur = snap_.load(std::memory_order_acquire);
  const std::uint64_t v = version_.load(std::memory_order_acquire);
  if (cur != nullptr && cur->version == v && cur->members.size() == members_.size()) {
    return cur;  // another reader rebuilt while we waited on mu_
  }
  auto* fresh = new ring_snapshot;
  fresh->version = v;
  fresh->members.reserve(members_.size());
  for (const auto& m : members_) {
    fresh->members.push_back(
        snap_member{m.alive, m.self, m.host, m.table->all_contacts(), m.store.get()});
  }
  const ring_snapshot* old = snap_.exchange(fresh, std::memory_order_acq_rel);
  if (old != nullptr) {
    util::ebr_domain::instance().retire(
        const_cast<ring_snapshot*>(old),
        [](void* p) { delete static_cast<ring_snapshot*>(p); });
  }
  return fresh;
}

std::size_t sloppy_dht::find_in_snapshot(const ring_snapshot& snap, const node_id& id) {
  for (std::size_t i = 0; i < snap.members.size(); ++i) {
    if (snap.members[i].alive && snap.members[i].self.id == id) return i;
  }
  return static_cast<std::size_t>(-1);
}

bool sloppy_dht::holder_dead_in(const ring_snapshot& snap, const node_id& holder) {
  for (const auto& m : snap.members) {
    if (m.self.id == holder) return !m.alive;
  }
  return false;  // not a member name: nothing to judge, keep the value
}

struct sloppy_dht::lookup_state {
  member_id via = 0;
  node_id target;
  std::string key;   // non-empty for get-style lookups
  bool is_get = false;

  std::vector<contact> shortlist;  // sorted by distance to target
  std::set<node_id> queried;
  int hops = 0;
  int rpc_budget = 0;
  bool finished = false;

  std::function<void(std::vector<contact>, int)> done_path;
  std::function<void(std::vector<std::string>, int)> done_values;
};

sloppy_dht::member_id sloppy_dht::join(sim::node_id host, const std::string& name) {
  member_id id = 0;
  bool lone = true;
  {
    std::lock_guard<std::mutex> lock(mu_);
    member m;
    m.self.id = node_id::hash_of(name);
    m.self.host = host;
    m.host = host;
    m.table = std::make_unique<routing_table>(m.self.id, config_.k);

    // Bootstrap: seed with a few existing members, then the new node becomes
    // discoverable as others hear from it over RPC traffic.
    std::size_t seeds = 0;
    for (std::size_t i = 0; i < members_.size() && seeds < 3; ++i) {
      if (!members_[i].alive) continue;
      m.table->observe(members_[i].self);
      ++seeds;
    }
    members_.push_back(std::move(m));
    id = members_.size() - 1;

    // Existing members learn about the newcomer lazily; give the seeds a
    // direct pointer so early lookups can route at all.
    std::size_t told = 0;
    for (std::size_t i = 0; i < members_.size() - 1 && told < 3; ++i) {
      if (!members_[i].alive) continue;
      members_[i].table->observe(members_[id].self);
      ++told;
    }
    lone = members_.size() == 1;
    // New member ⇒ snapshot indices shift; force readers to rebuild.
    bump_version();
  }

  // Iterative self-lookup fills more distant buckets. Runs outside the ring
  // lock: it is event-driven sim traffic (join happens at deployment setup,
  // before concurrent serving starts).
  if (!lone) {
    lookup(id, members_[id].self.id, [](std::vector<contact>, int) {});
  }
  return id;
}

void sloppy_dht::leave(member_id m) {
  std::lock_guard<std::mutex> lock(mu_);
  if (m >= members_.size()) throw std::invalid_argument("sloppy_dht::leave: bad member");
  members_[m].alive = false;
  clear_store(*members_[m].store);
  bump_version();
}

void sloppy_dht::revive(member_id m) {
  std::lock_guard<std::mutex> lock(mu_);
  if (m >= members_.size()) throw std::invalid_argument("sloppy_dht::revive: bad member");
  member& self = members_[m];
  if (self.alive) return;
  self.alive = true;
  // Same minimal re-seeding as join: mutual pointers with a few live members
  // so the revived node can route; walks refill the rest lazily (observe()
  // on RPC traffic re-announces it ring-wide).
  std::size_t seeds = 0;
  for (std::size_t i = 0; i < members_.size() && seeds < 3; ++i) {
    if (i == m || !members_[i].alive) continue;
    self.table->observe(members_[i].self);
    members_[i].table->observe(self.self);
    ++seeds;
  }
  bump_version();  // liveness flipped: readers must see it
}

void sloppy_dht::purge_store(member_id m) {
  std::lock_guard<std::mutex> lock(mu_);
  if (m >= members_.size()) throw std::invalid_argument("sloppy_dht::purge_store: bad member");
  clear_store(*members_[m].store);
}

std::size_t sloppy_dht::member_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t n = 0;
  for (const auto& m : members_) {
    if (m.alive) ++n;
  }
  return n;
}

const contact& sloppy_dht::member_contact(member_id m) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (m >= members_.size()) {
    throw std::invalid_argument("sloppy_dht::member_contact: bad member");
  }
  return members_[m].self;
}

std::vector<std::string> sloppy_dht::stored_at(member_id m, const std::string& key,
                                               std::int64_t now) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> out;
  if (m >= members_.size()) return out;
  const auto* values = find_values(*members_[m].store, key);
  if (values == nullptr) return out;
  for (const auto& sv : *values) {
    if (sv.expires_at > now) out.push_back(sv.value);
  }
  return out;
}

std::size_t sloppy_dht::stored_keys(member_id m) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (m >= members_.size()) return 0;
  std::size_t keys = 0;
  for (const auto& b : members_[m].store->buckets) {
    const bucket_map* map = b.load(std::memory_order_relaxed);
    if (map != nullptr) keys += map->size();
  }
  return keys;
}

sloppy_dht::member* sloppy_dht::find_member(const node_id& id) {
  for (auto& m : members_) {
    if (m.alive && m.self.id == id) return &m;
  }
  return nullptr;
}

std::int64_t sloppy_dht::now_seconds() const {
  return static_cast<std::int64_t>(net_.loop().now());
}

double sloppy_dht::rpc_cost(sim::node_id from, sim::node_id to) const {
  return 2.0 * net_.route_latency_or(from, to, 0.0) + config_.rpc_cpu_seconds;
}

void sloppy_dht::observe(member& m, const contact& c) {
  if (m.table->observe(c)) bump_version();
}

void sloppy_dht::forget(member& m, const node_id& id) {
  if (m.table->remove(id)) bump_version();
}

// ----- bucketed store ------------------------------------------------------------

std::size_t sloppy_dht::bucket_of(const std::string& key) {
  return std::hash<std::string>{}(key) % k_store_buckets;
}

const std::vector<sloppy_dht::stored_value>* sloppy_dht::find_values(const member_store& s,
                                                                     const std::string& key) {
  const bucket_map* b = s.buckets[bucket_of(key)].load(std::memory_order_acquire);
  if (b == nullptr) return nullptr;
  const auto it = b->find(key);
  return it == b->end() ? nullptr : &it->second;
}

std::unique_ptr<sloppy_dht::bucket_map> sloppy_dht::copy_bucket(const member_store& s,
                                                                std::size_t b) {
  const bucket_map* cur = s.buckets[b].load(std::memory_order_relaxed);
  return cur != nullptr ? std::make_unique<bucket_map>(*cur) : std::make_unique<bucket_map>();
}

void sloppy_dht::publish(member_store& s, std::size_t b, std::unique_ptr<bucket_map> fresh) {
  const bucket_map* next = fresh == nullptr || fresh->empty() ? nullptr : fresh.release();
  const bucket_map* old = s.buckets[b].exchange(next, std::memory_order_acq_rel);
  if (old != nullptr) {
    // Readers may still be walking the old copy; free it once their epoch
    // has passed.
    util::ebr_domain::instance().retire(const_cast<bucket_map*>(old), [](void* p) {
      delete static_cast<bucket_map*>(p);
    });
  }
}

void sloppy_dht::clear_store(member_store& s) {
  for (std::size_t b = 0; b < k_store_buckets; ++b) publish(s, b, nullptr);
}

template <class Pred>
void sloppy_dht::drop_values(member& m, const std::string& key, Pred pred) {
  const auto* values = find_values(*m.store, key);
  if (values == nullptr || std::none_of(values->begin(), values->end(), pred)) return;
  const std::size_t b = bucket_of(key);
  auto fresh = copy_bucket(*m.store, b);
  const auto it = fresh->find(key);
  std::erase_if(it->second, pred);
  if (it->second.empty()) fresh->erase(it);
  publish(*m.store, b, std::move(fresh));
}

void sloppy_dht::prune_expired(member& m, const std::string& key, std::int64_t now) {
  drop_values(m, key, [now](const stored_value& sv) { return sv.expires_at <= now; });
}

void sloppy_dht::scrub_key(member& m, const std::string& key, std::int64_t now) {
  drop_values(m, key, [this, now](const stored_value& sv) {
    return sv.expires_at <= now || holder_is_dead(sv.holder);
  });
}

bool sloppy_dht::holder_is_dead(const node_id& holder) const {
  for (const auto& m : members_) {
    if (m.self.id == holder) return !m.alive;
  }
  return false;  // not a member name: nothing to judge, keep the value
}

void sloppy_dht::sweep_member(member& m, std::int64_t now) {
  const auto expired = [now](const stored_value& sv) { return sv.expires_at <= now; };
  for (std::size_t b = 0; b < k_store_buckets; ++b) {
    const bucket_map* cur = m.store->buckets[b].load(std::memory_order_relaxed);
    if (cur == nullptr) continue;
    const bool stale = std::any_of(cur->begin(), cur->end(), [&](const auto& entry) {
      return std::any_of(entry.second.begin(), entry.second.end(), expired);
    });
    if (!stale) continue;
    auto fresh = copy_bucket(*m.store, b);
    for (auto it = fresh->begin(); it != fresh->end();) {
      std::erase_if(it->second, expired);
      it = it->second.empty() ? fresh->erase(it) : std::next(it);
    }
    publish(*m.store, b, std::move(fresh));
  }
}

void sloppy_dht::touch_for_sweep(member& m, std::int64_t now) {
  if (config_.sweep_interval == 0) return;
  if (++m.ops_since_sweep < config_.sweep_interval) return;
  m.ops_since_sweep = 0;
  sweep_member(m, now);
}

void sloppy_dht::store_value(member& m, const std::string& key, const std::string& value,
                             std::int64_t expires_at, std::int64_t now) {
  touch_for_sweep(m, now);
  const auto expired = [now](const stored_value& sv) { return sv.expires_at <= now; };
  if (const auto* held = find_values(*m.store, key);
      held != nullptr && std::none_of(held->begin(), held->end(), expired) &&
      std::any_of(held->begin(), held->end(), [&](const stored_value& sv) {
        return sv.value == value && sv.expires_at >= expires_at;
      })) {
    return;  // a live copy already outlasts this one: nothing would change
  }
  const std::size_t b = bucket_of(key);
  auto fresh = copy_bucket(*m.store, b);
  auto& values = (*fresh)[key];
  std::erase_if(values, expired);
  const auto same = std::find_if(values.begin(), values.end(),
                                 [&](const stored_value& sv) { return sv.value == value; });
  if (same != values.end()) {
    // Refresh an existing copy of the same value.
    same->expires_at = std::max(same->expires_at, expires_at);
  } else if (values.size() >= config_.max_values_per_key) {
    // Displace the soonest-to-expire value.
    auto oldest = std::min_element(values.begin(), values.end(),
                                   [](const stored_value& a, const stored_value& b) {
                                     return a.expires_at < b.expires_at;
                                   });
    *oldest = {value, expires_at, node_id::hash_of(value)};
  } else {
    values.push_back({value, expires_at, node_id::hash_of(value)});
  }
  publish(*m.store, b, std::move(fresh));
}

void sloppy_dht::purge_expired(std::int64_t now) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& m : members_) sweep_member(m, now);
}

// ----- event-driven path (single-threaded sim) ---------------------------------

void sloppy_dht::rpc(member_id from, const contact& to, std::function<void(member*)> handler,
                     std::function<void()> on_unreachable) {
  const sim::node_id from_host = members_[from].host;
  net_.transfer(from_host, to.host, config_.rpc_bytes, [this, from, to,
                                                        handler = std::move(handler),
                                                        on_unreachable =
                                                            std::move(on_unreachable),
                                                        from_host]() {
    member* target = find_member(to.id);
    if (target == nullptr) {
      // Dead node: the reply never comes; model a timeout of one RTT.
      net_.loop().schedule(0.0, on_unreachable);
      return;
    }
    // The target hears from the caller and refreshes its routing table.
    observe(*target, members_[from].self);
    net_.run_cpu(to.host, config_.rpc_cpu_seconds, [this, to, from_host,
                                                    handler = std::move(handler)]() {
      member* target_now = find_member(to.id);
      if (target_now == nullptr) return;
      net_.transfer(to.host, from_host, config_.rpc_bytes,
                    [target_now, handler = std::move(handler)]() { handler(target_now); });
    });
  });
}

void sloppy_dht::lookup(member_id via, const node_id& target,
                        std::function<void(std::vector<contact>, int)> done) {
  auto state = std::make_shared<lookup_state>();
  state->via = via;
  state->target = target;
  state->done_path = std::move(done);
  state->rpc_budget = static_cast<int>(config_.k) * 3;
  state->shortlist = members_[via].table->closest(target, config_.k);
  state->queried.insert(members_[via].self.id);
  lookup_step(state);
}

void sloppy_dht::lookup_step(const std::shared_ptr<lookup_state>& state) {
  if (state->finished) return;

  // Closest not-yet-queried contact.
  const contact* next = nullptr;
  for (const auto& c : state->shortlist) {
    if (!state->queried.contains(c.id)) {
      next = &c;
      break;
    }
  }
  if (next == nullptr || state->rpc_budget <= 0) {
    state->finished = true;
    if (state->is_get) {
      state->done_values({}, state->hops);
    } else {
      state->done_path(state->shortlist, state->hops);
    }
    return;
  }

  const contact to = *next;
  state->queried.insert(to.id);
  --state->rpc_budget;
  ++state->hops;

  rpc(state->via, to,
      [this, state, to](member* m) {
        // Get-style lookups return early when the contacted node holds
        // values for the key (Coral answers from the lookup path).
        if (state->is_get && !state->key.empty()) {
          scrub_key(*m, state->key, now_seconds());
          if (const auto* held = find_values(*m->store, state->key); held != nullptr) {
            state->finished = true;
            std::vector<std::string> values;
            for (const auto& sv : *held) values.push_back(sv.value);
            state->done_values(std::move(values), state->hops);
            return;
          }
        }
        // Merge the target's k-closest into our shortlist.
        std::vector<contact> more = m->table->closest(state->target, config_.k);
        more.push_back(m->self);
        for (const auto& c : more) {
          const bool known = std::any_of(state->shortlist.begin(), state->shortlist.end(),
                                         [&](const contact& s) { return s.id == c.id; });
          if (!known) state->shortlist.push_back(c);
          observe(members_[state->via], c);
        }
        std::sort(state->shortlist.begin(), state->shortlist.end(),
                  [&](const contact& a, const contact& b) {
                    return a.id.distance_to(state->target) < b.id.distance_to(state->target);
                  });
        if (state->shortlist.size() > config_.k * 2) {
          state->shortlist.resize(config_.k * 2);
        }
        lookup_step(state);
      },
      [this, state, to]() {
        forget(members_[state->via], to.id);
        lookup_step(state);
      });
}

void sloppy_dht::put(member_id via, const std::string& key, const std::string& value,
                     std::int64_t expires_at, std::function<void(int hops)> done) {
  if (via >= members_.size() || !members_[via].alive) {
    throw std::invalid_argument("sloppy_dht::put: bad member");
  }
  const node_id target = node_id::hash_of(key);

  lookup(via, target, [this, via, key, value, expires_at, done = std::move(done)](
                          std::vector<contact> path, int hops) {
    // Sloppy store: prefer the closest node, but spill outward past nodes
    // already holding spill_threshold values for this key.
    member* chosen = nullptr;
    for (const auto& c : path) {
      member* m = find_member(c.id);
      if (m == nullptr) continue;
      prune_expired(*m, key, now_seconds());
      const auto* values = find_values(*m->store, key);
      const std::size_t held = values == nullptr ? 0 : values->size();
      if (held < config_.spill_threshold) {
        chosen = m;
        break;
      }
      if (chosen == nullptr) chosen = m;  // fallback: closest alive
    }
    if (chosen == nullptr && !members_.empty()) {
      chosen = &members_[via];  // degenerate ring: store locally
    }
    if (chosen != nullptr) {
      const contact dest = chosen->self;
      rpc(via, dest,
          [this, key, value, expires_at, done, hops](member* m) {
            store_value(*m, key, value, expires_at, now_seconds());
            done(hops + 1);
          },
          [done, hops]() { done(hops + 1); });
      return;
    }
    done(hops);
  });
}

void sloppy_dht::get(member_id via, const std::string& key,
                     std::function<void(std::vector<std::string>, int)> done) {
  if (via >= members_.size() || !members_[via].alive) {
    throw std::invalid_argument("sloppy_dht::get: bad member");
  }
  // Local store first: zero hops.
  touch_for_sweep(members_[via], now_seconds());
  scrub_key(members_[via], key, now_seconds());
  if (const auto* held = find_values(*members_[via].store, key); held != nullptr) {
    std::vector<std::string> values;
    for (const auto& sv : *held) values.push_back(sv.value);
    net_.loop().schedule(0.0, [done = std::move(done), values = std::move(values)]() mutable {
      done(std::move(values), 0);
    });
    return;
  }

  auto state = std::make_shared<lookup_state>();
  state->via = via;
  state->target = node_id::hash_of(key);
  state->key = key;
  state->is_get = true;
  state->done_values = std::move(done);
  state->rpc_budget = static_cast<int>(config_.k) * 3;
  state->shortlist = members_[via].table->closest(state->target, config_.k);
  state->queried.insert(members_[via].self.id);
  lookup_step(state);
}

// ----- synchronous path (thread-safe) ------------------------------------------

int sloppy_dht::walk_now(member& via, const node_id& target, std::vector<contact>& path) {
  path = via.table->closest(target, config_.k);
  std::set<node_id> queried{via.self.id};
  int hops = 0;
  int budget = static_cast<int>(config_.k) * 3;

  while (budget-- > 0) {
    const contact* next = nullptr;
    for (const auto& c : path) {
      if (!queried.contains(c.id)) {
        next = &c;
        break;
      }
    }
    if (next == nullptr) break;
    const contact to = *next;
    queried.insert(to.id);
    ++hops;

    member* m = find_member(to.id);
    if (m == nullptr) {
      forget(via, to.id);
      continue;
    }
    observe(*m, via.self);
    std::vector<contact> more = m->table->closest(target, config_.k);
    more.push_back(m->self);
    for (const auto& c : more) {
      const bool known = std::any_of(path.begin(), path.end(),
                                     [&](const contact& s) { return s.id == c.id; });
      if (!known) path.push_back(c);
      observe(via, c);
    }
    std::sort(path.begin(), path.end(), [&](const contact& a, const contact& b) {
      return a.id.distance_to(target) < b.id.distance_to(target);
    });
    if (path.size() > config_.k * 2) path.resize(config_.k * 2);
  }
  return hops;
}

void sloppy_dht::walk_snapshot(const ring_snapshot& snap, std::size_t via_index,
                               const std::string& key, std::int64_t now, sync_result& out,
                               std::vector<std::size_t>& scrub) const {
  // Collection filters what the locked path scrubs physically: expired
  // values by TTL, dangling holders by snapshot liveness. The published
  // buckets stay untouched; members that held filtered values are reported
  // via `scrub` so the caller drops them for real under the ring mutex.
  const snap_member& via = snap.members[via_index];
  const auto collect = [&](const snap_member& m, std::size_t index) {
    const auto* values = find_values(*m.store, key);
    if (values == nullptr) return false;
    bool any = false;
    bool filtered = false;
    for (const auto& sv : *values) {
      if (sv.expires_at <= now || holder_dead_in(snap, sv.holder)) {
        filtered = true;
        continue;
      }
      out.values.push_back(sv.value);
      any = true;
    }
    if (filtered) scrub.push_back(index);
    return any;
  };
  if (collect(via, via_index)) return;  // zero hops: answered from the local store

  const node_id target = node_id::hash_of(key);
  const auto by_distance = [&](const contact& a, const contact& b) {
    return a.id.distance_to(target) < b.id.distance_to(target);
  };
  std::vector<contact> path = via.contacts;
  std::sort(path.begin(), path.end(), by_distance);
  if (path.size() > config_.k) path.resize(config_.k);
  std::set<node_id> queried{via.self.id};
  int budget = static_cast<int>(config_.k) * 3;

  while (budget-- > 0) {
    const contact* next = nullptr;
    for (const auto& c : path) {
      if (!queried.contains(c.id)) {
        next = &c;
        break;
      }
    }
    if (next == nullptr) break;
    const contact to = *next;
    queried.insert(to.id);
    ++out.hops;
    out.latency_seconds += rpc_cost(via.host, to.host);

    const std::size_t mi = find_in_snapshot(snap, to.id);
    if (mi == static_cast<std::size_t>(-1)) continue;  // dead or unknown
    const snap_member* m = &snap.members[mi];
    if (collect(*m, mi)) return;
    std::vector<contact> more = m->contacts;
    std::sort(more.begin(), more.end(), by_distance);
    if (more.size() > config_.k) more.resize(config_.k);
    more.push_back(m->self);
    for (const auto& c : more) {
      const bool known = std::any_of(path.begin(), path.end(),
                                     [&](const contact& s) { return s.id == c.id; });
      if (!known) path.push_back(c);
    }
    std::sort(path.begin(), path.end(), by_distance);
    if (path.size() > config_.k * 2) path.resize(config_.k * 2);
  }
}

sloppy_dht::sync_result sloppy_dht::get_now(member_id via, const std::string& key,
                                            std::int64_t now) {
  // Lock-free fast path: pin the epoch, read the published snapshot, walk
  // it over the live store buckets. Only a reader that finds the snapshot
  // stale (a membership or contact change since the last rebuild) touches
  // the ring mutex.
  util::ebr_domain::guard g;
  const ring_snapshot* snap = snap_.load(std::memory_order_acquire);
  if (snap == nullptr || snap->version != version_.load(std::memory_order_acquire)) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      snap = refresh_snapshot_locked();
    }
    read_slowpath_.fetch_add(1, std::memory_order_relaxed);
  } else {
    read_fastpath_.fetch_add(1, std::memory_order_relaxed);
  }
  if (via >= snap->members.size() || !snap->members[via].alive) {
    throw std::invalid_argument("sloppy_dht::get_now: bad member");
  }
  sync_result out;
  std::vector<std::size_t> scrub;
  walk_snapshot(*snap, via, key, now, out, scrub);
  if (!scrub.empty()) {
    // The walk saw expired or dangling values — drop them physically, as the
    // event-driven lookup does. Liveness/TTL are re-judged against current
    // state under the lock, so a holder revived since the snapshot is kept.
    std::lock_guard<std::mutex> lock(mu_);
    for (const std::size_t idx : scrub) scrub_key(members_[idx], key, now);
  }
  return out;
}

int sloppy_dht::put_now(member_id via, const std::string& key, const std::string& value,
                        std::int64_t expires_at, std::int64_t now) {
  std::lock_guard<std::mutex> lock(mu_);
  if (via >= members_.size() || !members_[via].alive) {
    throw std::invalid_argument("sloppy_dht::put_now: bad member");
  }
  member& origin = members_[via];
  std::vector<contact> path;
  const int hops = walk_now(origin, node_id::hash_of(key), path);

  // Same sloppy-store placement as the event-driven put.
  member* chosen = nullptr;
  for (const auto& c : path) {
    member* m = find_member(c.id);
    if (m == nullptr) continue;
    prune_expired(*m, key, now);
    const auto* values = find_values(*m->store, key);
    const std::size_t held = values == nullptr ? 0 : values->size();
    if (held < config_.spill_threshold) {
      chosen = m;
      break;
    }
    if (chosen == nullptr) chosen = m;
  }
  if (chosen == nullptr) chosen = &origin;  // degenerate ring: store locally
  store_value(*chosen, key, value, expires_at, now);
  return hops + 1;
}

}  // namespace nakika::overlay
