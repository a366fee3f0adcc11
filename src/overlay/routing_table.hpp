// Kademlia-style k-bucket routing table. Buckets are indexed by the position
// of the highest differing bit between the owner and the contact.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "overlay/node_id.hpp"

namespace nakika::overlay {

// A routing contact: overlay identity plus the simulated host that runs it.
struct contact {
  node_id id;
  std::uint32_t host = 0;  // sim::node_id

  bool operator==(const contact& other) const { return id == other.id; }
};

class routing_table {
 public:
  // `k` is the bucket capacity (Kademlia's k).
  routing_table(const node_id& owner, std::size_t k = 8);

  // Inserts or refreshes a contact (LRU within its bucket). The owner itself
  // is never inserted, and a contact whose bucket is full is dropped (no
  // liveness probing in the simulator). Returns true only when the contact
  // was newly inserted — a refresh leaves the contact set unchanged.
  bool observe(const contact& c);

  // Up to `count` known contacts closest to `target`, closest first.
  [[nodiscard]] std::vector<contact> closest(const node_id& target, std::size_t count) const;

  // Every known contact, bucket order (for flattening into read-only ring
  // snapshots — see sloppy_dht's lock-free get_now).
  [[nodiscard]] std::vector<contact> all_contacts() const;

  bool remove(const node_id& id);
  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::size_t bucket_capacity() const { return k_; }

 private:
  node_id owner_;
  std::size_t k_;
  std::array<std::vector<contact>, node_id::bits> buckets_;  // front = LRU-oldest
};

}  // namespace nakika::overlay
