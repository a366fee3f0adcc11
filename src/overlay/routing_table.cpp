#include "overlay/routing_table.hpp"

#include <algorithm>

namespace nakika::overlay {

routing_table::routing_table(const node_id& owner, std::size_t k) : owner_(owner), k_(k) {}

bool routing_table::observe(const contact& c) {
  const int index = owner_.bucket_index(c.id);
  if (index < 0) return false;  // self
  auto& bucket = buckets_[static_cast<std::size_t>(index)];
  const auto it = std::find(bucket.begin(), bucket.end(), c);
  if (it != bucket.end()) {
    // Refresh: move to the most-recently-seen end.
    bucket.erase(it);
    bucket.push_back(c);
    return false;
  }
  if (bucket.size() >= k_) return false;
  bucket.push_back(c);
  return true;
}

std::vector<contact> routing_table::closest(const node_id& target, std::size_t count) const {
  std::vector<contact> all;
  for (const auto& bucket : buckets_) {
    all.insert(all.end(), bucket.begin(), bucket.end());
  }
  std::sort(all.begin(), all.end(), [&](const contact& a, const contact& b) {
    return a.id.distance_to(target) < b.id.distance_to(target);
  });
  if (all.size() > count) all.resize(count);
  return all;
}

std::vector<contact> routing_table::all_contacts() const {
  std::vector<contact> all;
  all.reserve(size());
  for (const auto& bucket : buckets_) {
    all.insert(all.end(), bucket.begin(), bucket.end());
  }
  return all;
}

bool routing_table::remove(const node_id& id) {
  const int index = owner_.bucket_index(id);
  if (index < 0) return false;
  auto& bucket = buckets_[static_cast<std::size_t>(index)];
  const auto it = std::find_if(bucket.begin(), bucket.end(),
                               [&](const contact& c) { return c.id == id; });
  if (it == bucket.end()) return false;
  bucket.erase(it);
  return true;
}

std::size_t routing_table::size() const {
  std::size_t total = 0;
  for (const auto& bucket : buckets_) total += bucket.size();
  return total;
}

}  // namespace nakika::overlay
