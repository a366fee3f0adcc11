// Workload generators and measurement plumbing, plus a small end-to-end run
// of the SIMM workload against both deployments.
#include <gtest/gtest.h>

#include <array>
#include <stdexcept>

#include "integrity/sha256.hpp"
#include "js/parser.hpp"
#include "media/xsl.hpp"
#include "sim/topology.hpp"
#include "workload/arrivals.hpp"
#include "workload/simm.hpp"
#include "workload/specweb.hpp"

namespace nakika::workload {
namespace {

TEST(Measurement, ClassifiesContentTypes) {
  EXPECT_EQ(classify_content("text/html"), content_class::html);
  EXPECT_EQ(classify_content("text/xml"), content_class::html);
  EXPECT_EQ(classify_content("image/jpeg"), content_class::image);
  EXPECT_EQ(classify_content("video/mp4"), content_class::video);
  EXPECT_EQ(classify_content("application/json"), content_class::other);
}

TEST(Measurement, RecordsPerClassSamples) {
  measurement m;
  m.record(0.1, 1000, 200, "text/html");
  m.record(2.0, 350000, 200, "video/mp4");
  m.record(0.5, 100, 503, "text/plain");  // errors excluded from classes
  m.record_failure();
  EXPECT_EQ(m.completed(), 3u);
  EXPECT_EQ(m.failures(), 1u);
  EXPECT_EQ(m.status_count(503), 1u);
  EXPECT_EQ(m.latency_of(content_class::html).count(), 1u);
  EXPECT_EQ(m.bandwidth_of(content_class::video).count(), 1u);
  EXPECT_DOUBLE_EQ(m.bandwidth_of(content_class::video).mean(), 350000 * 8 / 2.0);
  EXPECT_DOUBLE_EQ(m.failure_rate(), 0.5);  // 503 + transport failure of 4 attempts
  m.set_window(10, 20);
  EXPECT_DOUBLE_EQ(m.requests_per_second(), 0.3);
}

TEST(SimmSite, PageXmlIsValidPersonalizedXml) {
  simm_site site;
  const std::string xml = site.page_xml(2, 7, "s42");
  const auto doc = media::parse_xml(xml);
  EXPECT_EQ(doc->name, "simm");
  EXPECT_EQ(*doc->attr("module"), "m2");
  EXPECT_EQ(doc->children_named("section").size(), 6u);
  EXPECT_EQ(*doc->child("student")->attr("id"), "s42");
  // Deterministic and personalized.
  EXPECT_EQ(site.page_xml(2, 7, "s42"), xml);
  EXPECT_NE(site.page_xml(2, 7, "s43"), xml);
}

TEST(SimmSite, StylesheetRendersPages) {
  simm_site site;
  const std::string html =
      media::xsl_transform(simm_site::stylesheet(), site.page_xml(0, 0, "s1"));
  EXPECT_NE(html.find("<html>"), std::string::npos);
  EXPECT_NE(html.find("class=\"section\""), std::string::npos);
  EXPECT_NE(html.find("Module 0"), std::string::npos);
}

// Every SIMM page (5 modules x 40 pages x 3 students, with the student
// query as the generator sends it), rendered with the site stylesheet and
// concatenated. The hash was taken from the tree-walking transformer that
// preceded the compiled one, so it pins the rendered bytes.
TEST(SimmSite, RenderedPagesMatchGoldenHash) {
  const simm_site site;
  const std::string sheet = simm_site::stylesheet();
  std::string all;
  for (int m = 0; m < 5; ++m) {
    for (int p = 0; p < 40; ++p) {
      for (int s = 0; s < 3; ++s) {
        all += media::xsl_transform(sheet, site.page_xml(m, p, "student=s" + std::to_string(s)));
      }
    }
  }
  EXPECT_EQ(all.size(), 3'468'697u);
  EXPECT_EQ(integrity::sha256_hex(all),
            "1f9af496829a569332f137583d248673ebdcd8278bc6bb12a03b5018a194de0a");
}

TEST(SimmSite, NakikaScriptParses) {
  EXPECT_NO_THROW((void)js::parse_program(simm_site::nakika_script(), "nakika.js"));
}

TEST(SimmSite, GeneratorProducesSessionStructure) {
  simm_site site;
  auto gen = site.make_generator(/*edge_mode=*/false, /*client_seed=*/1);
  int html = 0;
  int images = 0;
  int videos = 0;
  for (std::size_t i = 0; i < 400; ++i) {
    const auto r = gen(0, i);
    ASSERT_TRUE(r.has_value());
    const std::string path = r->url.path();
    if (path.find("/content/") == 0) {
      ++html;
      EXPECT_NE(path.find(".html"), std::string::npos);
      EXPECT_EQ(r->url.query(), "student=s0");
    } else if (path.find("-img") != std::string::npos) {
      ++images;
    } else if (path.find("/vid") != std::string::npos) {
      ++videos;
    } else {
      FAIL() << "unexpected url " << r->url.str();
    }
  }
  // Page views follow html -> 2 images (+ sometimes a video).
  EXPECT_NEAR(images, html * 2, html);
  EXPECT_GT(videos, 0);
  EXPECT_LT(videos, html);
}

TEST(SimmSite, EdgeModeRequestsXml) {
  simm_site site;
  auto gen = site.make_generator(/*edge_mode=*/true, 1);
  const auto r = gen(0, 0);
  ASSERT_TRUE(r.has_value());
  EXPECT_NE(r->url.path().find(".xml"), std::string::npos);
}

TEST(SpecwebSite, GeneratorHonorsMix) {
  specweb_site site;
  auto gen = site.make_generator(/*edge_mode=*/true, 2);
  int dynamic = 0;
  int posts = 0;
  int statics = 0;
  for (std::size_t i = 0; i < 1000; ++i) {
    const auto r = gen(i % 16, i);
    ASSERT_TRUE(r.has_value());
    if (r->method == http::method::post) {
      ++posts;
      EXPECT_EQ(r->url.path(), "/register");
    } else if (r->url.path() == "/dynamic.nkp") {
      ++dynamic;
    } else {
      ++statics;
      EXPECT_EQ(r->url.path().find("/file_set/"), 0u);
    }
  }
  // 80% dynamic (including 12.5% of those as POSTs).
  EXPECT_NEAR(dynamic + posts, 800, 60);
  EXPECT_NEAR(posts, 100, 40);
  EXPECT_NEAR(statics, 200, 60);
}

TEST(SpecwebSite, NkpPageParsesAndScriptParses) {
  EXPECT_NO_THROW((void)core::compile_nkp(specweb_site::dynamic_page_nkp()));
  EXPECT_NO_THROW((void)js::parse_program(specweb_site::nakika_script()));
}

// End-to-end smoke: 8 clients against the SIMM single server vs a Na Kika
// node on the constrained WAN; the edge deployment must win on HTML latency
// once warm (the §5.2 local experiment's shape).
TEST(EndToEnd, SimmConstrainedWanShape) {
  simm_config cfg;
  cfg.modules = 2;
  cfg.pages_per_module = 6;
  cfg.videos_per_module = 2;
  cfg.video_bytes = 80 * 1024;

  // --- single server ---
  double server_html_p90 = 0;
  {
    sim::event_loop loop;
    sim::network net(loop);
    const auto topo = sim::build_constrained_wan(net);
    proxy::deployment dep(net);
    proxy::origin_server& origin = dep.create_origin(topo.origin);
    dep.map_host(simm_site::host_name, origin);
    simm_site site(cfg);
    site.install_single_server(origin);

    measurement m;
    load_driver driver(
        net, topo.client, [&](std::size_t) -> proxy::http_endpoint* { return &origin; },
        site.make_generator(false, 7));
    driver_options opts;
    opts.clients = 8;
    opts.requests_per_client = 40;
    driver.start(opts, m);
    loop.run();
    server_html_p90 = m.latency_of(content_class::html).percentile(90);
  }

  // --- Na Kika proxy (warm it with one pass first) ---
  double nakika_html_p90 = 0;
  {
    sim::event_loop loop;
    sim::network net(loop);
    const auto topo = sim::build_constrained_wan(net);
    proxy::deployment dep(net);
    proxy::origin_server& origin = dep.create_origin(topo.origin);
    dep.map_host(simm_site::host_name, origin);
    simm_site site(cfg);
    site.install_edge(origin);
    proxy::nakika_node& node = dep.create_node(topo.proxy);

    measurement warmup;
    load_driver warm(net, topo.client,
                     [&](std::size_t) -> proxy::http_endpoint* { return &node; },
                     site.make_generator(true, 7));
    driver_options warm_opts;
    warm_opts.clients = 8;
    warm_opts.requests_per_client = 40;
    warm.start(warm_opts, warmup);
    loop.run();

    measurement m;
    load_driver driver(net, topo.client,
                       [&](std::size_t) -> proxy::http_endpoint* { return &node; },
                       site.make_generator(true, 8));
    driver.start(warm_opts, m);
    loop.run();
    nakika_html_p90 = m.latency_of(content_class::html).percentile(90);
    EXPECT_EQ(m.failures(), 0u);
  }

  // The paper's shape: behind an 80 ms / 8 Mbps bottleneck, the edge
  // deployment beats the single server on client-perceived HTML latency.
  EXPECT_LT(nakika_html_p90, server_html_p90);
}

// --- scenario-tier arrival generators (workload/arrivals.hpp) ---------------

TEST(ZipfStream, PmfIsNormalizedAndMonotone) {
  zipf_stream z(16, 1.1, 5);
  double sum = 0.0;
  for (std::size_t i = 0; i < 16; ++i) {
    sum += z.probability(i);
    if (i > 0) {
      EXPECT_LT(z.probability(i), z.probability(i - 1));
    }
  }
  EXPECT_NEAR(sum, 1.0, 1e-12);
  EXPECT_DOUBLE_EQ(z.probability(16), 0.0);  // out of range
  EXPECT_THROW(zipf_stream(0, 1.1, 1), std::invalid_argument);
}

TEST(ZipfStream, SameSeedSameDraws) {
  zipf_stream a(32, 1.2, 99);
  zipf_stream b(32, 1.2, 99);
  for (int i = 0; i < 200; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(ZipfStream, ChiSquaredShapeMatchesDeclaredPmf) {
  // 20k draws over 16 objects vs the exact pmf. With 15 degrees of freedom
  // the 99.9th-percentile chi-squared critical value is 37.70 — a correct
  // sampler fails this roughly one run in a thousand, and the seed is fixed,
  // so the test is deterministic in practice.
  constexpr std::size_t k_objects = 16;
  constexpr std::size_t k_draws = 20000;
  zipf_stream z(k_objects, 1.1, 4242);

  std::array<std::size_t, k_objects> observed{};
  for (std::size_t i = 0; i < k_draws; ++i) {
    const std::size_t obj = z.next();
    ASSERT_LT(obj, k_objects);
    ++observed[obj];
  }

  double chi2 = 0.0;
  for (std::size_t i = 0; i < k_objects; ++i) {
    const double expected = z.probability(i) * static_cast<double>(k_draws);
    ASSERT_GT(expected, 5.0) << "chi-squared needs expected counts > 5";
    const double d = static_cast<double>(observed[i]) - expected;
    chi2 += d * d / expected;
  }
  EXPECT_LT(chi2, 37.70) << "draws do not match the declared Zipf pmf";
  // And the head really is hot: rank 0 should dominate.
  EXPECT_GT(observed[0], observed[k_objects - 1] * 4);
}

TEST(BurstArrivals, TimestampsAreNondecreasingAndDeterministic) {
  burst_config cfg;
  cfg.base_rate = 100.0;
  cfg.seed = 77;
  burst_arrivals a(cfg);
  burst_arrivals b(cfg);
  double prev = 0.0;
  for (int i = 0; i < 500; ++i) {
    const double t = a.next();
    EXPECT_GE(t, prev);
    EXPECT_DOUBLE_EQ(t, b.next());
    prev = t;
  }
  burst_config bad;
  bad.base_rate = 0.0;
  EXPECT_THROW(burst_arrivals{bad}, std::invalid_argument);
}

TEST(BurstArrivals, BurstWindowConcentratesArrivals) {
  // 10 arrivals/s baseline with a 1000/s spike in [1, 2): the burst second
  // must hold far more arrivals per unit time than the quiet seconds.
  burst_config cfg;
  cfg.base_rate = 10.0;
  cfg.burst_rate = 1000.0;
  cfg.burst_start = 1.0;
  cfg.burst_duration = 1.0;
  cfg.seed = 21;
  burst_arrivals gen(cfg);

  std::size_t quiet = 0;
  std::size_t burst = 0;
  const std::vector<double> times = gen.take(1200);
  for (const double t : times) {
    if (t >= 1.0 && t < 2.0) {
      ++burst;
    } else if (t < 3.0) {
      ++quiet;
    }
  }
  ASSERT_GT(burst, 0u);
  EXPECT_GT(burst, quiet * 10) << "burst window should dominate: burst=" << burst
                               << " quiet=" << quiet;
}

}  // namespace
}  // namespace nakika::workload
