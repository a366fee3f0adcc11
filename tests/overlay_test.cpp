#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "overlay/clusters.hpp"
#include "overlay/dht.hpp"
#include "overlay/node_id.hpp"
#include "overlay/redirector.hpp"
#include "overlay/routing_table.hpp"
#include "sim/topology.hpp"
#include "util/ebr.hpp"

namespace nakika::overlay {
namespace {

// ----- node_id ------------------------------------------------------------------

TEST(NodeId, HashIsDeterministicAndDistinct) {
  EXPECT_EQ(node_id::hash_of("a"), node_id::hash_of("a"));
  EXPECT_NE(node_id::hash_of("a"), node_id::hash_of("b"));
  EXPECT_EQ(node_id::hash_of("a").hex().size(), 40u);
}

TEST(NodeId, XorMetricProperties) {
  const node_id a = node_id::hash_of("a");
  const node_id b = node_id::hash_of("b");
  EXPECT_EQ(a.distance_to(a), node_id{});
  EXPECT_EQ(a.distance_to(b), b.distance_to(a));  // symmetry
  EXPECT_EQ(a.bucket_index(a), -1);
  const int bucket = a.bucket_index(b);
  EXPECT_GE(bucket, 0);
  EXPECT_LT(bucket, 160);
}

TEST(NodeId, BucketIndexMatchesHighBit) {
  std::array<std::uint8_t, node_id::bytes> raw{};
  const node_id zero(raw);
  raw[0] = 0x80;
  EXPECT_EQ(zero.bucket_index(node_id(raw)), 159);
  raw[0] = 0;
  raw[19] = 0x01;
  EXPECT_EQ(zero.bucket_index(node_id(raw)), 0);
}

// ----- routing table -------------------------------------------------------------

TEST(RoutingTable, ObserveAndClosest) {
  const node_id owner = node_id::hash_of("owner");
  routing_table table(owner, 4);
  for (int i = 0; i < 64; ++i) {
    table.observe({node_id::hash_of("n" + std::to_string(i)),
                   static_cast<std::uint32_t>(i)});
  }
  EXPECT_GT(table.size(), 0u);
  const node_id target = node_id::hash_of("target");
  const auto closest = table.closest(target, 5);
  ASSERT_LE(closest.size(), 5u);
  // Results are sorted by XOR distance.
  for (std::size_t i = 1; i < closest.size(); ++i) {
    EXPECT_LE(closest[i - 1].id.distance_to(target), closest[i].id.distance_to(target));
  }
}

TEST(RoutingTable, NeverStoresSelfAndHonorsCapacity) {
  const node_id owner = node_id::hash_of("owner");
  routing_table table(owner, 2);
  EXPECT_FALSE(table.observe({owner, 0}));
  // Same bucket can hold at most k entries; extras are dropped.
  std::size_t inserted = 0;
  for (int i = 0; i < 500; ++i) {
    if (table.observe({node_id::hash_of("x" + std::to_string(i)), 1})) ++inserted;
  }
  EXPECT_LT(inserted, 500u);
}

TEST(RoutingTable, RemoveDeadContacts) {
  routing_table table(node_id::hash_of("owner"), 4);
  const contact c{node_id::hash_of("peer"), 9};
  table.observe(c);
  EXPECT_TRUE(table.remove(c.id));
  EXPECT_FALSE(table.remove(c.id));
}

// ----- sloppy dht ------------------------------------------------------------------

struct dht_fixture : ::testing::Test {
  sim::event_loop loop;
  sim::network net{loop};
  std::vector<sim::node_id> hosts;

  void build_mesh(int n) {
    std::vector<sim::link_id> nics;
    for (int i = 0; i < n; ++i) {
      hosts.push_back(net.add_node("h" + std::to_string(i)));
      nics.push_back(net.add_link(12.5e6));
    }
    for (int i = 0; i < n; ++i) {
      for (int j = i + 1; j < n; ++j) {
        net.set_route(hosts[i], hosts[j], 0.005, {nics[i], nics[j]});
      }
    }
  }
};

TEST_F(dht_fixture, PutThenGetFindsValue) {
  build_mesh(12);
  sloppy_dht dht(net);
  std::vector<sloppy_dht::member_id> members;
  for (auto h : hosts) members.push_back(dht.join(h, net.node_name(h)));
  loop.run();  // settle joins

  bool put_done = false;
  dht.put(members[0], "http://a/x", "holder-0", 1000, [&](int) { put_done = true; });
  loop.run();
  EXPECT_TRUE(put_done);

  std::vector<std::string> found;
  int hops = -1;
  dht.get(members[7], "http://a/x", [&](std::vector<std::string> v, int h) {
    found = std::move(v);
    hops = h;
  });
  loop.run();
  ASSERT_EQ(found.size(), 1u);
  EXPECT_EQ(found[0], "holder-0");
  EXPECT_GE(hops, 0);
}

TEST_F(dht_fixture, MissingKeyReturnsEmpty) {
  build_mesh(8);
  sloppy_dht dht(net);
  std::vector<sloppy_dht::member_id> members;
  for (auto h : hosts) members.push_back(dht.join(h, net.node_name(h)));
  loop.run();

  bool called = false;
  dht.get(members[2], "http://nothing", [&](std::vector<std::string> v, int) {
    called = true;
    EXPECT_TRUE(v.empty());
  });
  loop.run();
  EXPECT_TRUE(called);
}

TEST_F(dht_fixture, ValuesExpire) {
  build_mesh(6);
  sloppy_dht dht(net);
  std::vector<sloppy_dht::member_id> members;
  for (auto h : hosts) members.push_back(dht.join(h, net.node_name(h)));
  loop.run();

  dht.put(members[0], "k", "v", 10, [](int) {});
  loop.run();
  loop.run_until(20.0);  // virtual time past the expiry

  bool called = false;
  dht.get(members[1], "k", [&](std::vector<std::string> v, int) {
    called = true;
    EXPECT_TRUE(v.empty());
  });
  loop.run();
  EXPECT_TRUE(called);
}

TEST_F(dht_fixture, MultipleValuesPerKey) {
  build_mesh(10);
  sloppy_dht dht(net);
  std::vector<sloppy_dht::member_id> members;
  for (auto h : hosts) members.push_back(dht.join(h, net.node_name(h)));
  loop.run();

  for (int i = 0; i < 3; ++i) {
    dht.put(members[static_cast<std::size_t>(i)], "shared", "holder-" + std::to_string(i),
            1000, [](int) {});
  }
  loop.run();

  std::vector<std::string> found;
  dht.get(members[9], "shared", [&](std::vector<std::string> v, int) { found = std::move(v); });
  loop.run();
  EXPECT_GE(found.size(), 1u);  // sloppiness may spread values across nodes
}

TEST_F(dht_fixture, LocalStoreAnswersWithZeroHops) {
  build_mesh(6);
  sloppy_dht dht(net);
  std::vector<sloppy_dht::member_id> members;
  for (auto h : hosts) members.push_back(dht.join(h, net.node_name(h)));
  loop.run();

  // Force a value into member 3's local store, then get from member 3.
  dht.put(members[3], "k3", "v3", 1000, [](int) {});
  loop.run();
  // Find who actually stores it; if member 3 does, the get is local.
  const auto local = dht.stored_at(members[3], "k3", 0);
  std::vector<std::string> found;
  int hops = -1;
  dht.get(members[3], "k3", [&](std::vector<std::string> v, int h) {
    found = std::move(v);
    hops = h;
  });
  loop.run();
  ASSERT_FALSE(found.empty());
  if (!local.empty()) {
    EXPECT_EQ(hops, 0);
  }
}

TEST_F(dht_fixture, DeadNodeDoesNotWedgeLookups) {
  build_mesh(8);
  sloppy_dht dht(net);
  std::vector<sloppy_dht::member_id> members;
  for (auto h : hosts) members.push_back(dht.join(h, net.node_name(h)));
  loop.run();
  dht.put(members[0], "k", "v", 1000, [](int) {});
  loop.run();

  dht.leave(members[2]);
  dht.leave(members[5]);
  bool called = false;
  dht.get(members[7], "k", [&](std::vector<std::string>, int) { called = true; });
  loop.run();
  EXPECT_TRUE(called);
  EXPECT_EQ(dht.member_count(), 6u);
}

// ----- synchronous (thread-safe) dht api --------------------------------------------

TEST_F(dht_fixture, SyncPutThenGetFindsValue) {
  build_mesh(12);
  sloppy_dht dht(net);
  std::vector<sloppy_dht::member_id> members;
  for (auto h : hosts) members.push_back(dht.join(h, net.node_name(h)));
  loop.run();  // settle joins

  const int put_hops = dht.put_now(members[0], "http://a/x", "holder-0", 1000, 0);
  EXPECT_GE(put_hops, 1);

  const sloppy_dht::sync_result found = dht.get_now(members[7], "http://a/x", 0);
  ASSERT_EQ(found.values.size(), 1u);
  EXPECT_EQ(found.values[0], "holder-0");
  EXPECT_GE(found.hops, 0);
  // The walk accounts the virtual cost the sim would have billed (5 ms
  // one-way mesh routes), unless the value happened to land locally.
  if (found.hops > 0) {
    EXPECT_GT(found.latency_seconds, 0.0);
  }
}

TEST_F(dht_fixture, SyncGetHonorsTtl) {
  build_mesh(6);
  sloppy_dht dht(net);
  std::vector<sloppy_dht::member_id> members;
  for (auto h : hosts) members.push_back(dht.join(h, net.node_name(h)));
  loop.run();

  dht.put_now(members[0], "k", "v", /*expires_at=*/10, /*now=*/0);
  EXPECT_FALSE(dht.get_now(members[1], "k", 5).values.empty());
  EXPECT_TRUE(dht.get_now(members[1], "k", 20).values.empty());
}

TEST_F(dht_fixture, SyncBoundsPerKeyValueLists) {
  build_mesh(8);
  dht_config cfg;
  cfg.max_values_per_key = 3;
  sloppy_dht dht(net, cfg);
  std::vector<sloppy_dht::member_id> members;
  for (auto h : hosts) members.push_back(dht.join(h, net.node_name(h)));
  loop.run();

  for (int i = 0; i < 40; ++i) {
    dht.put_now(members[static_cast<std::size_t>(i) % members.size()], "hot",
                "holder-" + std::to_string(i), 1000 + i, 0);
  }
  for (auto m : members) {
    EXPECT_LE(dht.stored_at(m, "hot", 0).size(), cfg.max_values_per_key)
        << "per-key value list exceeded its bound at member " << m;
  }
}

// Expired entries are dropped by the amortized sweep during ordinary
// inserts — stores of keys that are never queried again cannot accumulate.
TEST(SloppyDhtHygiene, InsertSweepDropsExpiredKeys) {
  sim::event_loop loop;
  sim::network net{loop};
  const sim::node_id host = net.add_node("solo");
  dht_config cfg;
  cfg.sweep_interval = 4;
  sloppy_dht dht(net, cfg);
  const auto m = dht.join(host, "solo");

  for (int i = 0; i < 10; ++i) {
    dht.put_now(m, "dead-" + std::to_string(i), "v", /*expires_at=*/5, /*now=*/0);
  }
  EXPECT_EQ(dht.stored_keys(m), 10u);
  // Four more inserts after expiry: the interval sweep fires mid-stream and
  // clears every dead key without any lookup touching them.
  for (int i = 0; i < 4; ++i) {
    dht.put_now(m, "live-" + std::to_string(i), "v", /*expires_at=*/4000, /*now=*/100);
  }
  EXPECT_EQ(dht.stored_keys(m), 4u);
}

TEST_F(dht_fixture, PurgeExpiredEmptiesStores) {
  build_mesh(6);
  sloppy_dht dht(net);
  std::vector<sloppy_dht::member_id> members;
  for (auto h : hosts) members.push_back(dht.join(h, net.node_name(h)));
  loop.run();

  for (int i = 0; i < 30; ++i) {
    dht.put_now(members[static_cast<std::size_t>(i) % members.size()],
                "k" + std::to_string(i), "v", /*expires_at=*/50, /*now=*/0);
  }
  std::size_t resident = 0;
  for (auto m : members) resident += dht.stored_keys(m);
  EXPECT_GT(resident, 0u);

  dht.purge_expired(/*now=*/100);
  resident = 0;
  for (auto m : members) resident += dht.stored_keys(m);
  EXPECT_EQ(resident, 0u);
}

// 8 threads x insert/lookup/introspect/purge on one ring: must be TSan-clean
// and every per-key list must respect its bound afterwards.
TEST_F(dht_fixture, ConcurrentSyncOpsAreRaceFree) {
  build_mesh(12);
  sloppy_dht dht(net);
  std::vector<sloppy_dht::member_id> members;
  for (auto h : hosts) members.push_back(dht.join(h, net.node_name(h)));
  loop.run();

  constexpr int k_threads = 8;
  constexpr int k_ops = 1'500;
  constexpr int k_keys = 23;
  std::vector<std::thread> threads;
  for (int t = 0; t < k_threads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < k_ops; ++i) {
        const std::string key = "k" + std::to_string((i * 7 + t) % k_keys);
        const auto via = members[static_cast<std::size_t>(t + i) % members.size()];
        const std::int64_t now = i / 50;
        switch (i % 4) {
          case 0:
            dht.put_now(via, key, "h" + std::to_string(t), now + 30, now);
            break;
          case 1:
            (void)dht.get_now(via, key, now);
            break;
          case 2:
            (void)dht.stored_at(via, key, now);
            break;
          default:
            if (i % 256 == 3) {
              dht.purge_expired(now);
            } else {
              (void)dht.get_now(via, key, now);
            }
            break;
        }
      }
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_EQ(dht.member_count(), members.size());
  const dht_config defaults;
  for (auto m : members) {
    for (int k = 0; k < k_keys; ++k) {
      EXPECT_LE(dht.stored_at(m, "k" + std::to_string(k), 0).size(),
                defaults.max_values_per_key);
    }
  }
}

// ----- synchronous coral api ---------------------------------------------------------

TEST(Clusters, SyncGetPrefersTightCluster) {
  sim::event_loop loop;
  sim::network net(loop);
  const sim::geo_deployment g = sim::build_geo(net, 3);

  coral_overlay coral(net);
  std::vector<coral_overlay::member_id> members;
  for (std::size_t i = 0; i < g.sites.size(); ++i) {
    members.push_back(coral.join(g.sites[i].proxy, "p" + std::to_string(i)));
  }
  loop.run();

  coral.put_now(members[0], "key", "holder", 10000, 0);

  // A same-region member finds it at the tightest level.
  const coral_overlay::sync_result near = coral.get_now(members[1], "key", 0);
  ASSERT_FALSE(near.values.empty());
  EXPECT_EQ(near.level, 2);

  // A remote-region member still finds it via a wider ring.
  const coral_overlay::sync_result far = coral.get_now(members[6], "key", 0);
  ASSERT_FALSE(far.values.empty());
  EXPECT_LE(far.level, 1);
  EXPECT_TRUE(coral.get_now(members[3], "absent", 0).values.empty());
}

TEST(Clusters, ConcurrentSyncOpsAreRaceFree) {
  sim::event_loop loop;
  sim::network net(loop);
  const sim::geo_deployment g = sim::build_geo(net, 3);

  coral_overlay coral(net);
  std::vector<coral_overlay::member_id> members;
  for (std::size_t i = 0; i < g.sites.size(); ++i) {
    members.push_back(coral.join(g.sites[i].proxy, "p" + std::to_string(i)));
  }
  loop.run();

  constexpr int k_threads = 8;
  constexpr int k_ops = 600;
  std::atomic<std::size_t> found{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < k_threads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < k_ops; ++i) {
        const std::string key = "u" + std::to_string((i + t * 3) % 17);
        const auto via = members[static_cast<std::size_t>(t + i) % members.size()];
        const std::int64_t now = i / 40;
        if (i % 3 == 0) {
          coral.put_now(via, key, "holder-" + std::to_string(t), now + 60, now);
        } else if (i % 97 == 1) {
          coral.purge_expired(now);
        } else {
          if (!coral.get_now(via, key, now).values.empty()) found.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_GT(found.load(), 0u) << "concurrent lookups should observe concurrent inserts";
}

// ----- clusters ---------------------------------------------------------------------

TEST(Clusters, GeoNodesFormRegionalClusters) {
  sim::event_loop loop;
  sim::network net(loop);
  const sim::geo_deployment g = sim::build_geo(net, 3);

  coral_overlay coral(net);
  std::vector<coral_overlay::member_id> members;
  for (const auto& site : g.sites) {
    members.push_back(coral.join(site.proxy, "proxy-" + site.region +
                                                 std::to_string(members.size())));
  }
  loop.run();

  ASSERT_EQ(coral.level_count(), 3u);
  EXPECT_EQ(coral.cluster_count(0), 1u);  // global: everyone together
  // Tightest level: one cluster per region (intra-region 10 ms < 15 ms).
  EXPECT_EQ(coral.cluster_count(2), 3u);
  // Same-region nodes share a tight cluster.
  EXPECT_EQ(coral.cluster_of(members[0], 2), coral.cluster_of(members[1], 2));
  EXPECT_NE(coral.cluster_of(members[0], 2), coral.cluster_of(members[3], 2));
}

TEST(Clusters, GetPrefersTightCluster) {
  sim::event_loop loop;
  sim::network net(loop);
  const sim::geo_deployment g = sim::build_geo(net, 3);

  coral_overlay coral(net);
  std::vector<coral_overlay::member_id> members;
  for (std::size_t i = 0; i < g.sites.size(); ++i) {
    members.push_back(coral.join(g.sites[i].proxy, "p" + std::to_string(i)));
  }
  loop.run();

  bool put_done = false;
  coral.put(members[0], "key", "holder", 10000, [&] { put_done = true; });
  loop.run();
  EXPECT_TRUE(put_done);

  // A same-region member finds it at the tightest level.
  int level = -2;
  coral.get(members[1], "key", [&](std::vector<std::string> v, int l) {
    EXPECT_FALSE(v.empty());
    level = l;
  });
  loop.run();
  EXPECT_EQ(level, 2);

  // A remote-region member still finds it (via a wider level).
  bool found_remote = false;
  coral.get(members[6], "key", [&](std::vector<std::string> v, int l) {
    found_remote = !v.empty();
    EXPECT_LE(l, 1);
  });
  loop.run();
  EXPECT_TRUE(found_remote);
}

TEST(Clusters, MissReportsLevelMinusOne) {
  sim::event_loop loop;
  sim::network net(loop);
  const sim::geo_deployment g = sim::build_geo(net, 1);
  coral_overlay coral(net);
  const auto m = coral.join(g.sites[0].proxy, "only");
  loop.run();
  int level = 0;
  coral.get(m, "absent", [&](std::vector<std::string> v, int l) {
    EXPECT_TRUE(v.empty());
    level = l;
  });
  loop.run();
  EXPECT_EQ(level, -1);
}

// ----- redirector -------------------------------------------------------------------

TEST(Redirector, PicksNearbyProxy) {
  sim::event_loop loop;
  sim::network net(loop);
  const sim::geo_deployment g = sim::build_geo(net, 2);
  dns_redirector redirector(net, 1.05);
  for (const auto& site : g.sites) redirector.add_proxy(site.proxy);

  util::rng rng(1);
  for (int trial = 0; trial < 20; ++trial) {
    const sim::node_id picked = redirector.pick(g.sites[0].client, rng);
    // Must be the site-local proxy (2 ms) — everything else is >= 10 ms.
    EXPECT_EQ(picked, g.sites[0].proxy);
  }
}

TEST(Redirector, BalancesAmongEquallyNearProxies) {
  sim::event_loop loop;
  sim::network net(loop);
  const sim::node_id client = net.add_node("client");
  const sim::node_id p1 = net.add_node("p1");
  const sim::node_id p2 = net.add_node("p2");
  net.set_route(client, p1, 0.010);
  net.set_route(client, p2, 0.010);
  dns_redirector redirector(net);
  redirector.add_proxy(p1);
  redirector.add_proxy(p2);

  util::rng rng(2);
  int hits_p1 = 0;
  for (int i = 0; i < 200; ++i) {
    if (redirector.pick(client, rng) == p1) ++hits_p1;
  }
  EXPECT_GT(hits_p1, 50);
  EXPECT_LT(hits_p1, 150);
}

TEST(Redirector, ErrorsWithoutProxies) {
  sim::event_loop loop;
  sim::network net(loop);
  const sim::node_id client = net.add_node("client");
  dns_redirector redirector(net);
  util::rng rng(1);
  EXPECT_THROW((void)redirector.pick(client, rng), std::logic_error);
  EXPECT_THROW(dns_redirector(net, 0.5), std::invalid_argument);
}

TEST(Redirector, HostnameRewriting) {
  EXPECT_EQ(to_nakika_host("www.med.nyu.edu"), "www.med.nyu.edu.nakika.net");
  EXPECT_EQ(from_nakika_host("www.med.nyu.edu.nakika.net"), "www.med.nyu.edu");
  EXPECT_EQ(from_nakika_host("plain.org"), "plain.org");
  EXPECT_TRUE(is_nakika_host("a.nakika.net"));
  EXPECT_FALSE(is_nakika_host("a.nakika.org"));
  // Idempotent.
  EXPECT_EQ(to_nakika_host(to_nakika_host("x.org")), "x.org.nakika.net");
}

// ----- churn: crash, re-replication, and dangling-holder hygiene --------------------

TEST_F(dht_fixture, GetNeverReturnsDeadHolders) {
  build_mesh(8);
  sloppy_dht dht(net);
  std::vector<sloppy_dht::member_id> members;
  for (auto h : hosts) members.push_back(dht.join(h, net.node_name(h)));
  loop.run();

  // Two holders advertise the same key; holder h2 then dies. Lookups must
  // return only the live holder — a dangling advertisement would send the
  // transport to a dead endpoint.
  ASSERT_GE(dht.put_now(members[0], "http://a/x", "h2", 1000, 0), 0);
  ASSERT_GE(dht.put_now(members[1], "http://a/x", "h5", 1000, 0), 0);
  dht.leave(members[2]);  // members[i] is named "h<i>" by the mesh builder

  const sloppy_dht::sync_result r = dht.get_now(members[6], "http://a/x", 0);
  ASSERT_EQ(r.values.size(), 1u);
  EXPECT_EQ(r.values[0], "h5");
}

TEST_F(dht_fixture, PurgedHolderFallsToLiveReplicaOrEmpty) {
  build_mesh(10);
  sloppy_dht dht(net);
  std::vector<sloppy_dht::member_id> members;
  for (auto h : hosts) members.push_back(dht.join(h, net.node_name(h)));
  loop.run();

  // Several nodes advertise themselves for the key (sloppy replication
  // spreads the values), then one advertiser crashes AND its store is purged.
  // Every remaining lookup result must name a live member — never the dead
  // one — or come back empty (caller falls to origin); a dangling holder is
  // the one unacceptable outcome.
  for (int i = 0; i < 5; ++i) {
    ASSERT_GE(dht.put_now(members[i], "http://b/y", "h" + std::to_string(i), 1000, 0), 0);
  }
  dht.leave(members[3]);
  dht.purge_store(members[3]);

  for (int via = 4; via < 10; ++via) {
    const sloppy_dht::sync_result r = dht.get_now(members[via], "http://b/y", 0);
    for (const std::string& holder : r.values) {
      EXPECT_NE(holder, "h3") << "lookup via member " << via
                              << " returned the dead holder";
    }
  }
}

TEST_F(dht_fixture, ReviveRestoresAdvertisementVisibility) {
  build_mesh(8);
  sloppy_dht dht(net);
  std::vector<sloppy_dht::member_id> members;
  for (auto h : hosts) members.push_back(dht.join(h, net.node_name(h)));
  loop.run();

  // Pick a key whose replica is NOT stored at the member we will crash
  // (leave() drops the leaver's store, which would conflate two effects —
  // that path is covered by ReReplicationAfterCrashMakesKeyFindableAgain).
  std::string key;
  for (int k = 0; k < 32 && key.empty(); ++k) {
    const std::string cand = "http://c/z" + std::to_string(k);
    ASSERT_GE(dht.put_now(members[0], cand, "h1", 1000, 0), 0);
    if (dht.stored_at(members[1], cand, 0).empty()) key = cand;
  }
  ASSERT_FALSE(key.empty());

  // Leave then revive with NO lookup in between: the advertisement is still
  // stored elsewhere, so it becomes visible again as soon as the holder is
  // back.
  dht.leave(members[1]);
  dht.revive(members[1]);
  const sloppy_dht::sync_result back = dht.get_now(members[5], key, 0);
  ASSERT_EQ(back.values.size(), 1u);
  EXPECT_EQ(back.values[0], "h1");

  // But a lookup DURING the outage scrubs the dangling value permanently:
  // after that, only a fresh re-advertisement (re-replication) restores it.
  dht.leave(members[1]);
  EXPECT_TRUE(dht.get_now(members[5], key, 0).values.empty())
      << "sole holder is dead: the value must be filtered";
  dht.revive(members[1]);
  EXPECT_TRUE(dht.get_now(members[5], key, 0).values.empty())
      << "the scrub is destructive: revival alone must not resurrect it";
  ASSERT_GE(dht.put_now(members[1], key, "h1", 1000, 0), 0);
  EXPECT_FALSE(dht.get_now(members[5], key, 0).values.empty());

  // And a revived member routes: it can find other keys again.
  ASSERT_GE(dht.put_now(members[4], "http://c/w", "h4", 1000, 0), 0);
  EXPECT_FALSE(dht.get_now(members[1], "http://c/w", 0).values.empty());
}

TEST_F(dht_fixture, ReReplicationAfterCrashMakesKeyFindableAgain) {
  build_mesh(8);
  sloppy_dht dht(net);
  std::vector<sloppy_dht::member_id> members;
  for (auto h : hosts) members.push_back(dht.join(h, net.node_name(h)));
  loop.run();

  // Sole holder dies with its DHT state; a survivor re-fetches from origin
  // and re-advertises itself — exactly what nakika_node's miss path does.
  ASSERT_GE(dht.put_now(members[0], "http://d/q", "h2", 1000, 0), 0);
  dht.leave(members[2]);
  dht.purge_store(members[2]);
  ASSERT_TRUE(dht.get_now(members[6], "http://d/q", 0).values.empty());

  ASSERT_GE(dht.put_now(members[6], "http://d/q", "h6", 1000, 0), 0);
  const sloppy_dht::sync_result r = dht.get_now(members[7], "http://d/q", 0);
  ASSERT_EQ(r.values.size(), 1u);
  EXPECT_EQ(r.values[0], "h6");
}

TEST_F(dht_fixture, ConcurrentChurnOpsAreRaceFree) {
  build_mesh(10);
  sloppy_dht dht(net);
  std::vector<sloppy_dht::member_id> members;
  for (auto h : hosts) members.push_back(dht.join(h, net.node_name(h)));
  loop.run();

  // put/get traffic racing crash/revive of one member: no crashes, no
  // lost writes to live members, and (checked under TSan in CI) no races.
  std::atomic<bool> stop{false};
  std::thread churner([&] {
    for (int i = 0; i < 60; ++i) {
      dht.leave(members[9]);
      dht.purge_store(members[9]);
      dht.revive(members[9]);
    }
    stop.store(true);
  });
  std::vector<std::thread> workers;
  std::atomic<std::size_t> found{0};
  for (int t = 0; t < 3; ++t) {
    workers.emplace_back([&, t] {
      int i = 0;
      while (!stop.load() || i < 50) {
        const std::string key = "k" + std::to_string(i % 7);
        const auto via = members[static_cast<std::size_t>(t * 3 + i) % 9];  // live members
        if (i % 2 == 0) {
          (void)dht.put_now(via, key, "h" + std::to_string(t), 1000, 0);
        } else if (!dht.get_now(via, key, 0).values.empty()) {
          found.fetch_add(1);
        }
        ++i;
      }
    });
  }
  churner.join();
  for (auto& w : workers) w.join();
  EXPECT_GT(found.load(), 0u);
  EXPECT_EQ(dht.member_count(), members.size());
}

TEST(Clusters, CrashAndReviveMemberAcrossRings) {
  sim::event_loop loop;
  sim::network net(loop);
  const sim::geo_deployment g = sim::build_geo(net, 3);

  coral_overlay coral(net);
  std::vector<coral_overlay::member_id> members;
  for (std::size_t i = 0; i < g.sites.size(); ++i) {
    members.push_back(coral.join(g.sites[i].proxy, "p" + std::to_string(i)));
  }
  loop.run();

  coral.put_now(members[0], "key", "p0", 10000, 0);
  ASSERT_FALSE(coral.get_now(members[1], "key", 0).values.empty());

  // Crash the sole holder at every ring level: the advertisement vanishes
  // from all of them, near and far (and the lookups scrub the dangling
  // values from whatever stores they touched).
  coral.crash_member(members[0]);
  EXPECT_TRUE(coral.get_now(members[1], "key", 0).values.empty());
  EXPECT_TRUE(coral.get_now(members[6], "key", 0).values.empty());

  // Revive and re-advertise (the node's miss path would do this on its next
  // serve): the key is findable again.
  coral.revive_member(members[0]);
  coral.put_now(members[0], "key", "p0", 10000, 0);
  EXPECT_FALSE(coral.get_now(members[1], "key", 0).values.empty());

  // A revived member participates again: it can read a fresh put.
  coral.put_now(members[4], "other", "p4", 10000, 0);
  EXPECT_FALSE(coral.get_now(members[0], "other", 0).values.empty());
}

TEST(Clusters, PurgeMemberStoreDropsItsReplicas) {
  sim::event_loop loop;
  sim::network net(loop);
  const sim::geo_deployment g = sim::build_geo(net, 2);

  coral_overlay coral(net);
  std::vector<coral_overlay::member_id> members;
  for (std::size_t i = 0; i < g.sites.size(); ++i) {
    members.push_back(coral.join(g.sites[i].proxy, "p" + std::to_string(i)));
  }
  loop.run();

  coral.put_now(members[2], "k", "p2", 10000, 0);
  coral.crash_member(members[2]);
  coral.purge_member_store(members[2]);
  coral.revive_member(members[2]);
  // The member is back but its stores died with the process: whatever any
  // lookup returns, it must not be served from the purged member's stores
  // naming only itself... the value may have spilled to other members, but
  // a fresh re-advertisement must always win.
  coral.put_now(members[3], "k", "p3", 10000, 0);
  const coral_overlay::sync_result r = coral.get_now(members[1], "k", 0);
  ASSERT_FALSE(r.values.empty());
  bool has_live = false;
  for (const std::string& v : r.values) has_live |= (v == "p3");
  EXPECT_TRUE(has_live);
}

// ----- epoch-based reclamation + lock-free read path ---------------------------------

// The perf tentpole's contract: steady-state get_now resolves entirely from
// the published snapshot. read_slowpath() counts exactly the reads that had
// to take the ring mutex — after one warm-up rebuild it must stay frozen
// while thousands of reads stream through the fast path.
TEST_F(dht_fixture, SteadyStateGetNowNeverTakesRingMutex) {
  build_mesh(8);
  sloppy_dht dht(net);
  std::vector<sloppy_dht::member_id> members;
  for (auto h : hosts) members.push_back(dht.join(h, net.node_name(h)));
  loop.run();
  for (int k = 0; k < 5; ++k) {
    ASSERT_GE(dht.put_now(members[0], "k" + std::to_string(k), "h1", 1000, 0), 0);
  }
  // Warm-up: the first read after the puts rebuilds the snapshot.
  (void)dht.get_now(members[1], "k0", 0);
  const std::uint64_t slow_before = dht.read_slowpath();
  const std::uint64_t fast_before = dht.read_fastpath();

  constexpr int k_reads = 2'000;
  for (int i = 0; i < k_reads; ++i) {
    const auto via = members[static_cast<std::size_t>(i) % members.size()];
    (void)dht.get_now(via, "k" + std::to_string(i % 5), 0);
  }
  EXPECT_EQ(dht.read_slowpath(), slow_before)
      << "a steady-state read took the ring mutex";
  EXPECT_EQ(dht.read_fastpath(), fast_before + k_reads);
}

// Store writes publish one copy-on-write bucket, never a new ring snapshot:
// once routing has converged, interleaved puts and gets over 10,000 distinct
// keys keep every read on the fast path, and every get finds its put.
TEST_F(dht_fixture, InterleavedPutsNeverForceSlowpathReads) {
  build_mesh(8);
  sloppy_dht dht(net);
  std::vector<sloppy_dht::member_id> members;
  for (auto h : hosts) members.push_back(dht.join(h, net.node_name(h)));
  loop.run();
  const auto key = [](int i) { return "http://site/obj" + std::to_string(i); };
  const auto member_at = [&](int i) { return members[static_cast<std::size_t>(i) % 8]; };

  // Warm-up: puts from every member fill each routing table.
  constexpr int k_warmup = 64;
  for (int i = 0; i < k_warmup; ++i) {
    ASSERT_GE(dht.put_now(member_at(i), key(i), "holder", 100'000, 0), 0);
    (void)dht.get_now(member_at(i + 3), key(i), 0);
  }
  const std::uint64_t slow_before = dht.read_slowpath();

  constexpr int k_keys = 10'000;
  for (int i = k_warmup; i < k_keys; ++i) {
    ASSERT_GE(dht.put_now(member_at(i), key(i), "holder", 100'000, 0), 0);
    const sloppy_dht::sync_result r = dht.get_now(member_at(i + 3), key(i), 0);
    ASSERT_EQ(r.values, std::vector<std::string>{"holder"}) << key(i);
  }
  EXPECT_EQ(dht.read_slowpath(), slow_before) << "a store write forced a snapshot rebuild";
}

// Read-your-writes across threads: a get_now that starts after a put_now has
// returned finds the value, from any member. The writer publishes the index
// of each completed put; readers on other members look that key up at once.
TEST_F(dht_fixture, GetNowSeesCompletedPutFromOtherThreads) {
  build_mesh(6);
  sloppy_dht dht(net);
  std::vector<sloppy_dht::member_id> members;
  for (auto h : hosts) members.push_back(dht.join(h, net.node_name(h)));
  loop.run();
  const auto key = [](int i) { return "http://site/obj" + std::to_string(i); };

  constexpr int k_puts = 2'000;
  std::atomic<int> published{-1};
  std::thread writer([&] {
    for (int i = 0; i < k_puts; ++i) {
      (void)dht.put_now(members[0], key(i), "holder", 100'000, 0);
      published.store(i, std::memory_order_release);
    }
  });
  std::atomic<std::uint64_t> checks{0};
  std::atomic<std::uint64_t> misses{0};
  std::vector<std::thread> readers;
  for (std::size_t t = 1; t <= 3; ++t) {
    readers.emplace_back([&, t] {
      for (;;) {
        const int seen = published.load(std::memory_order_acquire);
        if (seen < 0) {
          std::this_thread::yield();
          continue;
        }
        if (dht.get_now(members[t], key(seen), 0).values.empty()) misses.fetch_add(1);
        checks.fetch_add(1);
        if (seen == k_puts - 1) return;
      }
    });
  }
  writer.join();
  for (auto& r : readers) r.join();

  EXPECT_GE(checks.load(), 3u);
  EXPECT_EQ(misses.load(), 0u) << "a get_now missed a put_now that had returned";
}

// Same property at the coral layer: after the last join, rings_of resolves
// from the membership snapshot; only the first post-join read rebuilds.
TEST(Clusters, SteadyStateLookupsNeverTakeMembershipMutex) {
  sim::event_loop loop;
  sim::network net(loop);
  std::vector<sim::node_id> hosts;
  for (int i = 0; i < 6; ++i) hosts.push_back(net.add_node("n" + std::to_string(i)));
  for (int i = 0; i < 6; ++i) {
    for (int j = i + 1; j < 6; ++j) net.set_route(hosts[i], hosts[j], 0.010);
  }
  coral_overlay overlay(net);
  std::vector<coral_overlay::member_id> members;
  for (auto h : hosts) members.push_back(overlay.join(h, net.node_name(h)));
  loop.run();
  ASSERT_GE(overlay.put_now(members[0], "key", "n0", 1000, 0), 0);
  (void)overlay.get_now(members[1], "key", 0);  // warm-up rebuilds
  const std::uint64_t membership_slow = overlay.read_slowpath();
  const std::uint64_t ring_slow = overlay.ring_read_slowpath();
  for (int i = 0; i < 500; ++i) {
    (void)overlay.get_now(members[static_cast<std::size_t>(i) % members.size()], "key", 0);
  }
  EXPECT_EQ(overlay.read_slowpath(), membership_slow);
  EXPECT_EQ(overlay.ring_read_slowpath(), ring_slow);
  EXPECT_GT(overlay.read_fastpath(), 0u);
  EXPECT_GT(overlay.ring_read_fastpath(), 0u);
}

// EBR torture (run under ASan in CI): readers chase a shared pointer that a
// writer keeps swapping and retiring through the global domain. A reclaim
// racing a pinned reader is a use-after-free ASan would catch; torn blobs
// would show up as mixed words.
TEST(EpochReclamation, RetireWhileReadersPinnedNeverFreesEarly) {
  struct blob {
    std::uint64_t words[8];
  };
  auto& domain = util::ebr_domain::instance();
  const std::uint64_t retired_before = domain.retired_count();

  std::atomic<blob*> shared{new blob{{0, 0, 0, 0, 0, 0, 0, 0}}};
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> torn{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        util::ebr_domain::guard g;
        const blob* b = shared.load(std::memory_order_acquire);
        const std::uint64_t first = b->words[0];
        for (int w = 1; w < 8; ++w) {
          if (b->words[w] != first) torn.fetch_add(1);
        }
      }
    });
  }
  constexpr std::uint64_t k_swaps = 2'000;
  for (std::uint64_t i = 1; i <= k_swaps; ++i) {
    auto* fresh = new blob{{i, i, i, i, i, i, i, i}};
    blob* old = shared.exchange(fresh, std::memory_order_acq_rel);
    domain.retire(old, [](void* p) { delete static_cast<blob*>(p); });
  }
  stop.store(true, std::memory_order_release);
  for (auto& r : readers) r.join();
  delete shared.exchange(nullptr, std::memory_order_acq_rel);
  domain.flush();

  EXPECT_EQ(torn.load(), 0u);
  EXPECT_EQ(domain.retired_count() - retired_before, k_swaps);
  EXPECT_EQ(domain.limbo_size(), 0u) << "flush with no pinned readers must reclaim all";
}

// Snapshot reads racing churn (run under TSan in CI): crash/revive and puts
// force continuous snapshot retirement while readers walk old epochs.
TEST_F(dht_fixture, SnapshotReadsRaceChurnWithoutRaces) {
  build_mesh(10);
  sloppy_dht dht(net);
  std::vector<sloppy_dht::member_id> members;
  for (auto h : hosts) members.push_back(dht.join(h, net.node_name(h)));
  loop.run();
  for (int k = 0; k < 7; ++k) {
    ASSERT_GE(dht.put_now(members[0], "k" + std::to_string(k), "h2", 1000, 0), 0);
  }

  std::atomic<bool> stop{false};
  std::thread churner([&] {
    for (int i = 0; i < 80; ++i) {
      dht.leave(members[9]);
      dht.revive(members[9]);
      (void)dht.put_now(members[0], "k" + std::to_string(i % 7), "h2", 1000, 0);
    }
    stop.store(true);
  });
  std::vector<std::thread> readers;
  std::atomic<std::uint64_t> reads{0};
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&, t] {
      int i = 0;
      while (!stop.load() || i < 200) {
        const auto via = members[static_cast<std::size_t>(t * 2 + i) % 9];
        (void)dht.get_now(via, "k" + std::to_string(i % 7), 0);
        reads.fetch_add(1);
        ++i;
      }
    });
  }
  churner.join();
  for (auto& r : readers) r.join();

  EXPECT_GE(reads.load(), 800u);
  EXPECT_EQ(dht.member_count(), members.size());
  // Every read went through exactly one of the two accounted paths.
  EXPECT_GE(dht.read_fastpath() + dht.read_slowpath(), reads.load());
}

}  // namespace
}  // namespace nakika::overlay
