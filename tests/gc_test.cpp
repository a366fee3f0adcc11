// Cycle-collector tier. The script heap is shared_ptr-managed, so these
// tests target exactly what refcounting cannot free: reference cycles.
//   - object↔object property cycles, escaped-closure cycles, and
//     self-capture cell cycles reclaimed BEFORE context teardown, in both
//     engines (tree-walker closes cycles through environments, the VM
//     through capture cells — different shapes, same collector),
//   - watermark-triggered collections keeping a hot loop's heap flat,
//   - inline caches being weak: sweeping an object clears its IC entries,
//   - the tracked-node registry staying O(live) over 10k create/drop
//     iterations (the fn_registry_ unbounded-growth regression),
//   - a 10k-request pooled-sandbox soak whose live heap plateaus (this is
//     the LSan canary for the pool-return reclaim path),
//   - the workers=0 fixed-seed digest being byte-identical with the
//     collector on vs off (GC must be invisible to script semantics,
//     scheduling, and billing),
//   - an 8-worker stress run with a tiny watermark (TSan coverage for
//     collections racing the monitor/kill machinery).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/sandbox.hpp"
#include "js/interpreter.hpp"
#include "proxy/deployment.hpp"
#include "sim/topology.hpp"

namespace nakika {
namespace {

using js::context;
using js::context_limits;
using js::engine_kind;
using js::eval_script;
using js::gc_cycle_result;

// Builds `n` dead cycles of the given JS shape with the watermark disabled,
// then runs one explicit collection and reports before/after heap plus the
// cycle result. The loop variables are deliberately globals (top-level var),
// so only the final iteration's nodes stay reachable.
struct collect_probe {
  std::size_t heap_before = 0;
  std::size_t heap_after = 0;
  gc_cycle_result result;
};

collect_probe run_and_collect(const std::string& source, engine_kind engine) {
  context_limits limits;
  limits.gc_watermark = 0;  // explicit collect() only
  collect_probe out;
  context ctx(limits);
  eval_script(ctx, source, "<gc>", engine);
  out.heap_before = ctx.heap_used();
  out.result = ctx.gc().collect();
  out.heap_after = ctx.heap_used();
  return out;
}

const char* k_object_cycle = R"JS(
  for (var i = 0; i < 200; i++) {
    var a = { n: i };
    var b = { n: -i };
    a.next = b;
    b.prev = a;
  }
  result = 1;
)JS";

const char* k_closure_cycle = R"JS(
  function make(i) {
    var box = { n: i };
    // box -> fn -> (closure env / capture cell) -> box
    box.fn = function () { return box; };
    return 0;
  }
  for (var i = 0; i < 200; i++) { make(i); }
  result = 1;
)JS";

const char* k_self_capture_cycle = R"JS(
  function make(i) {
    var f = null;
    // f's cell (or env slot) holds the function that captured it.
    f = function () { return f; };
    return 0;
  }
  for (var i = 0; i < 200; i++) { make(i); }
  result = 1;
)JS";

class GcCycles : public ::testing::TestWithParam<engine_kind> {};

TEST_P(GcCycles, ObjectPropertyCyclesReclaimedBeforeTeardown) {
  const collect_probe p = run_and_collect(k_object_cycle, GetParam());
  // 199 dead pairs; only the last {a, b} pair is still rooted by globals.
  EXPECT_GE(p.result.objects_collected, 2u * 199u);
  EXPECT_LT(p.heap_after, p.heap_before);
  EXPECT_GT(p.result.bytes_reclaimed, 0u);
}

TEST_P(GcCycles, EscapedClosureCyclesReclaimedBeforeTeardown) {
  const collect_probe p = run_and_collect(k_closure_cycle, GetParam());
  // Each dead iteration leaks box + the closure's function object (plus its
  // prototype object) — all unreachable, all cyclic.
  EXPECT_GE(p.result.objects_collected, 199u);
  EXPECT_LT(p.heap_after, p.heap_before);
  if (GetParam() == engine_kind::tree_walker) {
    EXPECT_GT(p.result.envs_collected, 0u);
  } else {
    EXPECT_GT(p.result.cells_collected + p.result.envs_collected, 0u);
  }
}

TEST_P(GcCycles, SelfCaptureCellCyclesReclaimedBeforeTeardown) {
  const collect_probe p = run_and_collect(k_self_capture_cycle, GetParam());
  // The tree-walker's break_dead_closure_cycles fast path reclaims this shape
  // on scope exit (by design — the collector is the backstop, not the only
  // mechanism), so heap_before may already be at the live-set baseline there.
  // Either way, after one collection nothing of the 200 cycles may remain.
  if (p.result.objects_collected != 0) {
    EXPECT_GE(p.result.objects_collected, 199u);
    EXPECT_LT(p.heap_after, p.heap_before);
  }
  EXPECT_LE(p.heap_after, 512u);
}

TEST_P(GcCycles, SecondCollectionIsIdempotent) {
  context_limits limits;
  limits.gc_watermark = 0;
  context ctx(limits);
  eval_script(ctx, k_object_cycle, "<gc>", GetParam());
  (void)ctx.gc().collect();
  const std::size_t settled = ctx.heap_used();
  const gc_cycle_result again = ctx.gc().collect();
  EXPECT_EQ(again.objects_collected, 0u);
  EXPECT_EQ(ctx.heap_used(), settled);
}

TEST_P(GcCycles, LiveCyclesSurviveCollection) {
  context_limits limits;
  limits.gc_watermark = 0;
  context ctx(limits);
  // One reachable cycle: the collector must count the global reference as
  // external and keep the whole loop alive and intact.
  eval_script(ctx, R"JS(
    var ring = { name: "head" };
    ring.next = { name: "tail", prev: ring };
    result = 1;
  )JS",
              "<gc>", GetParam());
  (void)ctx.gc().collect();
  eval_script(ctx, "result = ring.next.prev.name + '/' + ring.next.name;", "<gc>",
              GetParam());
  EXPECT_EQ(ctx.global()->get("result").to_string(), "head/tail");
}

INSTANTIATE_TEST_SUITE_P(BothEngines, GcCycles,
                         ::testing::Values(engine_kind::tree_walker,
                                           engine_kind::bytecode),
                         [](const ::testing::TestParamInfo<engine_kind>& info) {
                           return info.param == engine_kind::tree_walker ? "TreeWalker"
                                                                         : "Bytecode";
                         });

// ----- watermark trigger ---------------------------------------------------------

TEST(GcWatermark, CollectionsFireMidRunAndBoundTheHeap) {
  const char* churn = R"JS(
    for (var i = 0; i < 5000; i++) {
      var a = { n: i };
      a.self = a;
    }
    result = 1;
  )JS";

  context_limits off;
  off.gc_watermark = 0;
  context leaky(off);
  eval_script(leaky, churn, "<gc>", engine_kind::bytecode);
  const std::size_t leaked = leaky.heap_used();

  context_limits on;
  on.gc_watermark = 256;
  on.gc_slice = 64;
  context collected(on);
  eval_script(collected, churn, "<gc>", engine_kind::bytecode);
  EXPECT_GE(collected.gc().collections_total(), 1u);
  // Same program, collector armed: the live heap must stay far below the
  // leak-everything baseline (plateau, not proportional growth).
  EXPECT_LT(collected.heap_used(), leaked / 4);
  const js::gc_run_stats& rs = collected.gc().run_stats();
  EXPECT_EQ(rs.collections, collected.gc().collections_total());
  EXPECT_GT(rs.bytes_reclaimed, 0u);
  EXPECT_FALSE(rs.pauses.empty());
}

// ----- inline caches are weak ----------------------------------------------------

TEST(GcInlineCache, SweptObjectEntriesClearedAndNextAccessMisses) {
  context_limits limits;
  limits.gc_watermark = 0;
  context ctx(limits);
  // `probe` warms a property-load IC on t; t then becomes cyclic garbage.
  eval_script(ctx, R"JS(
    function probe(o) { return o.x + o.x + o.x; }
    var t = { x: 1 };
    t.self = t;
    probe(t);
    probe(t);
    t = null;
    result = 1;
  )JS",
              "<gc>", engine_kind::bytecode);
  ASSERT_GT(ctx.ic_hits(), 0u) << "test premise: the IC never warmed";

  const gc_cycle_result r = ctx.gc().collect();
  EXPECT_GT(r.objects_collected, 0u);
  EXPECT_GE(r.ic_entries_cleared, 1u) << "swept object left stale IC entries behind";

  // The same call site must take the miss path (and stay correct) now that
  // its cached target is gone.
  const std::uint64_t misses_before = ctx.ic_misses();
  eval_script(ctx, "result = probe({ x: 2, self: null });", "<gc>",
              engine_kind::bytecode);
  EXPECT_GT(ctx.ic_misses(), misses_before);
  EXPECT_EQ(ctx.global()->get("result").to_number(), 6.0);
}

// ----- registry stays O(live) ----------------------------------------------------

TEST(GcRegistry, StaysBoundedOverTenThousandCreateDropIterations) {
  context_limits limits;
  limits.gc_watermark = 256;
  limits.gc_slice = 64;
  context ctx(limits);
  // Every iteration mints a closure, its prototype object, a cyclic object,
  // and (in the VM) a capture cell — then drops them all.
  eval_script(ctx, R"JS(
    for (var i = 0; i < 10000; i++) {
      var f = (function () {
        var o = { n: i };
        o.self = o;
        return function () { return o; };
      })();
    }
    result = 1;
  )JS",
              "<gc>", engine_kind::bytecode);
  EXPECT_GE(ctx.gc().collections_total(), 10u);
  // Registry footprint is bounded by live set + at most one watermark's worth
  // of fresh allocations (each allocation contributes a handful of tracked
  // nodes), NOT by the 10k iterations.
  EXPECT_LT(ctx.gc().registry_size(), 8u * 256u);
  const gc_cycle_result final_pass = ctx.gc().collect();
  (void)final_pass;
  EXPECT_LT(ctx.gc().registry_size(), 64u);
}

TEST(GcRegistry, ShapeTableStaysBoundedUnderLayoutChurn) {
  // Every iteration builds an object with a DISTINCT property sequence, so a
  // naive transition tree would intern one chain per iteration and grow
  // without bound. The table cap + post-sweep compaction must keep the
  // interned-shape count at O(bound), not O(iterations).
  context_limits limits;
  limits.gc_watermark = 256;
  limits.gc_slice = 64;
  limits.shape_table_max = 128;
  context ctx(limits);
  eval_script(ctx, R"JS(
    for (var i = 0; i < 3000; i++) {
      var o = {};
      o['u' + i] = i;      // unique first key: a fresh transition chain
      o['w' + i] = i + 1;
      o.last = i;
    }
    result = 1;
  )JS",
              "<gc>", engine_kind::bytecode);
  EXPECT_GE(ctx.gc().collections_total(), 1u);
  EXPECT_LE(ctx.shapes_live(), limits.shape_table_max);
  // The cap was actually hit (the workload was shape-hostile, and overflowing
  // objects recorded their fall back to dictionary mode).
  EXPECT_GT(ctx.shape_dict_fallbacks_run(), 0u);
  EXPECT_EQ(ctx.global()->get("result").to_number(), 1.0);
}

// ----- pooled-sandbox soak -------------------------------------------------------

TEST(GcPool, TenThousandRequestSoakHeapPlateaus) {
  const std::string site = "http://soak.org";
  // Top-level vars are frame locals in the VM, so the cyclic batches die with
  // the run; `keep` (no var) lands on the global object and IS the live set —
  // replaced, not accumulated, each request.
  const std::string garbage = R"JS(
    for (var i = 0; i < 40; i++) {
      var a = { n: i };
      var b = function () { return a; };
      a.back = b;
    }
    keep = { tag: "live", last: 40 };
    soak_result = 1;
  )JS";

  core::sandbox_pool pool;
  js::context_limits limits;  // default watermark: mid-run GC stays armed
  std::size_t plateau = 0;
  std::size_t peak = 0;
  constexpr std::size_t k_requests = 10'000;
  for (std::size_t i = 0; i < k_requests; ++i) {
    core::sandbox* sb = pool.acquire(site, limits, nullptr);
    if (i >= 100) {
      // Post-reclaim heap of a pooled sandbox: must hover at the live set.
      const std::size_t idle_heap = sb->heap_used();
      if (plateau == 0) plateau = idle_heap;
      peak = std::max(peak, idle_heap);
    }
    sb->begin_run();
    eval_script(sb->ctx(), garbage, "<soak>", js::engine_kind::bytecode);
    pool.release(site, sb, /*poisoned=*/false);
  }
  ASSERT_GT(plateau, 0u);
  // Flat plateau: the idle-heap high-water mark over 10k requests stays
  // within 2x of where it settled after warmup. Without pool-return
  // reclamation the cyclic 40-object batches accrete monotonically and this
  // fails by orders of magnitude. (LSan covers the teardown half.)
  EXPECT_LE(peak, plateau * 2);
  EXPECT_EQ(pool.created(), 1u) << "soak must reuse one pooled sandbox";
}

// ----- workers=0 determinism: GC on == GC off ------------------------------------

const char* k_cyclic_site_script = R"JS(
  var p = new Policy();
  p.url = [ "cyclic.org" ];
  p.onResponse = function () {
    var total = 0;
    for (var i = 0; i < 60; i++) {
      var node = { n: i };
      node.self = node;
      node.fn = function () { return node; };
      total += node.n;
    }
    Response.setHeader("X-Work", "" + total);
  };
  p.register();
)JS";

// Full fixed-seed sim run, digested byte-for-byte: statuses, script-derived
// headers, bodies, and the final counters. The collector may only change how
// memory is freed — never what scripts compute, how requests interleave, or
// what the node bills — so the digest must be identical with GC on and off.
std::string sim_digest_with_watermark(std::size_t gc_watermark) {
  sim::event_loop loop;
  sim::network net{loop};
  sim::three_tier topo = sim::build_lan(net);
  proxy::deployment dep(net);
  proxy::origin_server& origin = dep.create_origin(topo.origin);
  dep.map_host("cyclic.org", origin);
  origin.add_static_text("cyclic.org", "/nakika.js", "application/javascript",
                         k_cyclic_site_script, 3600);
  for (std::size_t i = 0; i < 16; ++i) {
    origin.add_static_text("cyclic.org", "/doc/" + std::to_string(i), "text/plain",
                           "doc-" + std::to_string(i), 3600);
  }

  proxy::node_config cfg;
  cfg.rng_seed = 4242;
  cfg.script_limits.gc_watermark = gc_watermark;
  cfg.script_limits.gc_slice = 64;
  proxy::nakika_node& node = dep.create_node(topo.proxy, std::move(cfg));
  node.start_monitor();

  std::string digest;
  for (std::size_t i = 0; i < 200; ++i) {
    http::request r;
    r.url = http::url::parse("http://cyclic.org/doc/" + std::to_string(i % 16));
    r.client_ip = "10.0.0.1";
    http::response out;
    proxy::forward_request(net, topo.client, node, r,
                           [&](http::response resp) { out = std::move(resp); });
    // run_until, not run(): the resource monitor reschedules itself forever,
    // so the loop never goes empty.
    loop.run_until(loop.now() + 0.2);
    digest += std::to_string(out.status);
    digest += '|';
    digest += out.headers.get_or("X-Work", "-");
    digest += '|';
    if (out.body) digest += out.body->str();
    digest += '\n';
  }
  const util::run_counters c = node.counters();
  digest += "offered=" + std::to_string(c.offered);
  digest += " completed=" + std::to_string(c.completed);
  digest += " failed=" + std::to_string(c.failed);
  digest += " terminated=" + std::to_string(c.terminated);
  return digest;
}

TEST(GcDeterminism, SimDigestIdenticalWithCollectorOnAndOff) {
  const std::string gc_off = sim_digest_with_watermark(0);
  const std::string gc_on = sim_digest_with_watermark(128);  // collect aggressively
  EXPECT_EQ(gc_off, gc_on);
  EXPECT_GT(gc_off.size(), 200u * 3u);  // real traffic, not a degenerate run
}

// ----- 8-worker stress with watermark collections (TSan tier) --------------------

TEST(GcConcurrency, EightWorkerStressWithWatermarkCollections) {
  sim::event_loop loop;
  sim::network net{loop};
  const sim::node_id origin_host = net.add_node("origin");
  const sim::node_id proxy_host = net.add_node("proxy");
  net.set_route(origin_host, proxy_host, 0.0005);
  proxy::origin_server origin(net, origin_host);
  origin.add_static_text("cyclic.org", "/nakika.js", "application/javascript",
                         k_cyclic_site_script, 3600);
  for (std::size_t i = 0; i < 16; ++i) {
    origin.add_static_text("cyclic.org", "/doc/" + std::to_string(i), "text/plain",
                           "doc-" + std::to_string(i), 3600);
  }

  proxy::node_config cfg;
  cfg.workers = 8;
  constexpr std::size_t k_total = 4'000;
  cfg.queue_capacity = k_total + 16;
  cfg.resource_controls = false;  // exact counts
  // Tiny watermark: every request's 60 cyclic nodes cross it repeatedly, so
  // collections run on all 8 workers while the soak is in flight.
  cfg.script_limits.gc_watermark = 64;
  cfg.script_limits.gc_slice = 16;
  proxy::nakika_node node(
      net, proxy_host, [&origin](const std::string&) -> proxy::http_endpoint* {
        return &origin;
      },
      std::move(cfg));

  std::atomic<std::size_t> done_count{0};
  std::atomic<std::size_t> mismatches{0};
  const auto produce = [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      http::request r;
      r.url = http::url::parse("http://cyclic.org/doc/" + std::to_string(i % 16));
      r.client_ip = "10.0.0.1";
      node.handle(r, [&, i](http::response resp) {
        const std::string body(resp.body ? resp.body->view() : "");
        if (resp.status != 200 || body != "doc-" + std::to_string(i % 16) ||
            resp.headers.get_or("X-Work", "") != "1770") {
          mismatches.fetch_add(1);
        }
        done_count.fetch_add(1);
      });
    }
  };
  std::thread producer_a(produce, 0, k_total / 2);
  std::thread producer_b(produce, k_total / 2, k_total);
  producer_a.join();
  producer_b.join();
  node.drain();

  EXPECT_EQ(done_count.load(), k_total);
  EXPECT_EQ(mismatches.load(), 0u);
  const util::run_counters c = node.counters();
  EXPECT_EQ(c.completed, k_total);
  EXPECT_EQ(c.failed, 0u);
  // The watermark actually fired: collections are visible node-wide.
  const obs::telemetry_snapshot snap = node.telemetry();
  const auto it = snap.counters.find("gc.collections");
  ASSERT_NE(it, snap.counters.end());
  EXPECT_GT(it->second, 0u);
}

}  // namespace
}  // namespace nakika
