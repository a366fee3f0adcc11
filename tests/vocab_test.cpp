// Vocabulary behaviours that do not need a full pipeline: ImageTransformer,
// XmlTransformer, Cache, Fetch, HardState, Messages, Na Kika Pages, and the
// policy-object lowering rules.
#include <gtest/gtest.h>

#include "core/pages.hpp"
#include "core/pipeline.hpp"
#include "js/parser.hpp"
#include "media/image.hpp"
#include "workload/simm.hpp"

namespace nakika::core {
namespace {

// Runs `script` (which should define a global `main` function), then calls
// main() with the exec binding pointed at `exec`.
void run_with_exec(sandbox& sb, exec_state& exec, const std::string& script) {
  sb.begin_run();
  js::eval_script(sb.ctx(), script, "<vocab-test>");
  sb.binding()->current = &exec;
  if (exec.request != nullptr) sync_request_to_script(sb.ctx(), *exec.request);
  if (exec.response != nullptr) sync_response_to_script(sb.ctx(), *exec.response);
  js::interpreter in(sb.ctx());
  in.call(sb.ctx().global()->get("main"), js::value::undefined(), {});
  sb.binding()->current = nullptr;
}

std::string global_str(sandbox& sb, const char* name) {
  return sb.ctx().global()->get(name).to_string();
}

TEST(VocabImage, TranscodeFromScript) {
  // The paper's Fig. 2 handler, exercised end to end with a real image.
  sandbox sb;
  const auto img = media::encode(media::make_test_image(800, 600, 5),
                                 media::image_format::png);
  http::request req;
  req.url = http::url::parse("http://site.org/pic.png");
  http::response resp = http::make_response(200, "image/png",
                                            util::make_body(std::move(img)));
  exec_state exec;
  exec.request = &req;
  exec.response = &resp;

  run_with_exec(sb, exec, R"JS(
    function main() {
      var buff = null, body = new ByteArray();
      while (buff = Response.read()) {
        body.append(buff);
      }
      var type = ImageTransformer.type(Response.contentType);
      var dim = ImageTransformer.dimensions(body, type);
      before = dim.x + "x" + dim.y;
      if (dim.x > 176 || dim.y > 208) {
        var img = ImageTransformer.transform(body, type, "jpeg", 176, 208);
        var d2 = ImageTransformer.dimensions(img, "jpeg");
        after = d2.x + "x" + d2.y;
        outLen = img.length;
      }
    }
  )JS");
  EXPECT_EQ(global_str(sb, "before"), "800x600");
  EXPECT_EQ(global_str(sb, "after"), "176x132");
  EXPECT_GT(sb.ctx().global()->get("outLen").to_number(), 0);
}

TEST(VocabImage, TypeReturnsNullForNonImages) {
  sandbox sb;
  exec_state exec;
  run_with_exec(sb, exec, R"JS(
    function main() {
      isNull = (ImageTransformer.type("text/html") === null) ? "yes" : "no";
    }
  )JS");
  EXPECT_EQ(global_str(sb, "isNull"), "yes");
}

TEST(VocabImage, ErrorsAreScriptCatchable) {
  sandbox sb;
  exec_state exec;
  run_with_exec(sb, exec, R"JS(
    function main() {
      caught = "no";
      try {
        var b = new ByteArray("not an image");
        ImageTransformer.dimensions(b, "jpeg");
      } catch (e) { caught = "yes"; }
    }
  )JS");
  EXPECT_EQ(global_str(sb, "caught"), "yes");
}

TEST(VocabXml, RenderFromScript) {
  sandbox sb;
  exec_state exec;
  run_with_exec(sb, exec, R"JS(
    function main() {
      var xsl = '<xsl:stylesheet version="1.0">' +
        '<xsl:template match="d"><b><xsl:value-of select="."/></b></xsl:template>' +
        '</xsl:stylesheet>';
      html = XmlTransformer.render("<d>text</d>", xsl);
      canonical = XmlTransformer.canonicalize("<a  x='1'><b/></a>");
      caught = "no";
      try { XmlTransformer.render("<broken", xsl); } catch (e) { caught = "yes"; }
    }
  )JS");
  EXPECT_EQ(global_str(sb, "html"), "<b>text</b>");
  EXPECT_EQ(global_str(sb, "canonical"), "<a x=\"1\"><b/></a>");
  EXPECT_EQ(global_str(sb, "caught"), "yes");
}

// Calls XmlTransformer.render(doc, sheet) directly; returns the rendered
// string or the uncaught script error's message.
std::string render_in(sandbox& sb, const std::string& doc, const std::string& sheet) {
  const js::value render =
      sb.ctx().global()->get("XmlTransformer").as_object()->get("render");
  js::interpreter in(sb.ctx());
  try {
    return in.call(render, js::value::undefined(),
                   {js::value::string(doc), js::value::string(sheet)})
        .as_string();
  } catch (const js::script_error& e) {
    return e.what();
  }
}

std::string one_template_sheet(const std::string& body) {
  return "<xsl:stylesheet version=\"1.0\"><xsl:template match=\"d\">" + body +
         "</xsl:template></xsl:stylesheet>";
}

TEST(VocabXml, StylesheetMemoFollowsTheSheetPassedIn) {
  sandbox sb;
  sb.begin_run();
  const std::string a = one_template_sheet("A<xsl:value-of select=\".\"/>");
  const std::string b = one_template_sheet("B<xsl:value-of select=\"@k\"/>");
  EXPECT_EQ(render_in(sb, "<d k='2'>1</d>", a), "A1");
  EXPECT_EQ(render_in(sb, "<d k='2'>1</d>", b), "B2");
  EXPECT_EQ(render_in(sb, "<d k='2'>3</d>", a), "A3");
  // Same length, one byte apart: the key is the whole text.
  const std::string a2 = one_template_sheet("Z<xsl:value-of select=\".\"/>");
  EXPECT_EQ(render_in(sb, "<d>4</d>", a2), "Z4");
  EXPECT_EQ(render_in(sb, "<d>5</d>", a), "A5");
}

TEST(VocabXml, MalformedStylesheetFailsEveryCallAndIsNotKept) {
  sandbox sb;
  sb.begin_run();
  const std::string good = one_template_sheet("ok");
  const std::string bad = "<xsl:stylesheet version=\"1.0\"><xsl:template>";
  const std::string expected =
      "uncaught exception: XmlTransformer.render: xml: unterminated element "
      "<xsl:template> (offset 44)";
  EXPECT_EQ(render_in(sb, "<d/>", bad), expected);
  EXPECT_EQ(render_in(sb, "<d/>", bad), expected);
  EXPECT_EQ(render_in(sb, "<d/>", good), "ok");
  EXPECT_EQ(render_in(sb, "<d/>", bad), expected);
  // A failed compile leaves the kept sheet usable.
  EXPECT_EQ(render_in(sb, "<d/>", good), "ok");
  // Body errors stay runtime errors, on a kept sheet as on a fresh one.
  const std::string no_select = one_template_sheet("<xsl:value-of/>");
  for (int i = 0; i < 2; ++i) {
    EXPECT_EQ(render_in(sb, "<d/>", no_select),
              "uncaught exception: XmlTransformer.render: xsl:value-of without select");
  }
}

TEST(VocabXml, RenderChargesFuelPerDocumentByte) {
  // One op per 16 document bytes plus one, and the output as transient
  // allocation: the charge does not depend on whether the sheet was kept.
  sandbox sb;
  sb.begin_run();
  const workload::simm_site site;
  const std::string doc = site.page_xml(1, 2, "student=s0");
  ASSERT_EQ(doc.size(), 5'849u);
  for (int i = 0; i < 2; ++i) {
    const std::uint64_t ops = sb.ctx().ops_used();
    const std::size_t transient = sb.ctx().transient_used();
    const std::string html = render_in(sb, doc, workload::simm_site::stylesheet());
    EXPECT_EQ(html.size(), 5'808u);
    EXPECT_EQ(sb.ctx().ops_used() - ops, 366u);
    EXPECT_EQ(sb.ctx().transient_used() - transient, 5'808u);
  }
}

TEST(VocabXml, DeepDocumentIsACatchableError) {
  sandbox sb;
  exec_state exec;
  std::string deep;
  for (int i = 0; i < 100'000; ++i) deep += "<a>";
  sb.ctx().global()->set("deep", js::value::string(deep));
  run_with_exec(sb, exec, R"JS(
    function main() {
      var xsl = '<xsl:stylesheet version="1.0">' +
        '<xsl:template match="a"><xsl:apply-templates/></xsl:template></xsl:stylesheet>';
      caught = "no";
      try { XmlTransformer.render(deep, xsl); } catch (e) { caught = e; }
    }
  )JS");
  EXPECT_EQ(global_str(sb, "caught"),
            "XmlTransformer.render: xml: nesting deeper than 256 (offset 768)");
}

TEST(VocabCache, PutGetRemoveFromScript) {
  sandbox sb;
  cache::http_cache cache;
  exec_state exec;
  exec.http_cache = &cache;
  exec.now = 100;
  run_with_exec(sb, exec, R"JS(
    function main() {
      missed = (Cache.get("http://x/a") === null) ? "miss" : "hit";
      Cache.put("http://x/a", { status: 200, contentType: "text/plain",
                                body: "cached!", ttl: 60 });
      var r = Cache.get("http://x/a");
      got = r.body.toString() + "/" + r.status + "/" + r.contentType;
      removed = "" + Cache.remove("http://x/a") + Cache.remove("http://x/a");
    }
  )JS");
  EXPECT_EQ(global_str(sb, "missed"), "miss");
  EXPECT_EQ(global_str(sb, "got"), "cached!/200/text/plain");
  EXPECT_EQ(global_str(sb, "removed"), "truefalse");
}

TEST(VocabCache, TtlValidated) {
  sandbox sb;
  cache::http_cache cache;
  exec_state exec;
  exec.http_cache = &cache;
  run_with_exec(sb, exec, R"JS(
    function main() {
      caught = "no";
      try { Cache.put("http://x/a", { body: "b", ttl: -5 }); } catch (e) { caught = "yes"; }
    }
  )JS");
  EXPECT_EQ(global_str(sb, "caught"), "yes");
}

TEST(VocabFetch, SubrequestsGoThroughHostHook) {
  sandbox sb;
  int fetches = 0;
  exec_state exec;
  exec.fetch = [&](const http::request& r) {
    ++fetches;
    fetch_result out;
    out.ok = true;
    out.response = http::make_response(200, "text/css", util::make_body("body{}"));
    out.response.headers.set("X-Origin", r.url.host());
    out.virtual_delay_seconds = 0.25;
    return out;
  };
  run_with_exec(sb, exec, R"JS(
    function main() {
      var r = Fetch.fetch("http://assets.org/site.css");
      got = r.status + "/" + r.body.toString() + "/" + r.getHeader("X-Origin");
      missing = (r.getHeader("Nope") === null) ? "null" : "present";
    }
  )JS");
  EXPECT_EQ(fetches, 1);
  EXPECT_EQ(global_str(sb, "got"), "200/body{}/assets.org");
  EXPECT_EQ(global_str(sb, "missing"), "null");
  EXPECT_DOUBLE_EQ(exec.accumulated_delay, 0.25);
}

TEST(VocabFetch, FailureIsCatchable) {
  sandbox sb;
  exec_state exec;
  exec.fetch = [](const http::request&) { return fetch_result{}; };
  run_with_exec(sb, exec, R"JS(
    function main() {
      caught = "no";
      try { Fetch.fetch("http://down.org/"); } catch (e) { caught = "yes"; }
    }
  )JS");
  EXPECT_EQ(global_str(sb, "caught"), "yes");
}

TEST(VocabHardState, PartitionedBySite) {
  sandbox sb;
  state::local_store store;
  exec_state exec;
  exec.store = &store;
  exec.site = "http://site-a.org";
  run_with_exec(sb, exec, R"JS(
    function main() {
      HardState.put("k", "site-a-value");
      HardState.put("k2", "v2");
      mine = HardState.get("k");
      var all = HardState.scan("");
      count = all.length;
      absent = (HardState.get("zzz") === null) ? "null" : "present";
    }
  )JS");
  EXPECT_EQ(global_str(sb, "mine"), "site-a-value");
  EXPECT_EQ(global_str(sb, "count"), "2");
  EXPECT_EQ(global_str(sb, "absent"), "null");
  // The store is partitioned under the site key.
  EXPECT_EQ(store.get("http://site-a.org", "k"), "site-a-value");
  EXPECT_FALSE(store.get("http://site-b.org", "k").has_value());
}

TEST(VocabMessages, PublishForwardsToHost) {
  sandbox sb;
  std::vector<std::pair<std::string, std::string>> published;
  exec_state exec;
  exec.publish = [&](const std::string& topic, const std::string& payload) {
    published.emplace_back(topic, payload);
  };
  run_with_exec(sb, exec, R"JS(
    function main() { Messages.publish("updates", JSON.stringify({k: 1})); }
  )JS");
  ASSERT_EQ(published.size(), 1u);
  EXPECT_EQ(published[0].first, "updates");
  EXPECT_EQ(published[0].second, "{\"k\":1}");
}

TEST(VocabSystem, CongestionIntrospection) {
  sandbox sb;
  exec_state exec;
  exec.resources.cpu_congestion = 0.75;
  exec.resources.site_contribution = 0.4;
  exec.resources.throttled = true;
  exec.site = "http://s.org";
  run_with_exec(sb, exec, R"JS(
    function main() {
      report = System.congestion("cpu") + "/" + System.contribution() + "/" +
               System.throttled() + "/" + System.site();
      caught = "no";
      try { System.congestion("disk"); } catch (e) { caught = "yes"; }
    }
  )JS");
  EXPECT_EQ(global_str(sb, "report"), "0.75/0.4/true/http://s.org");
  EXPECT_EQ(global_str(sb, "caught"), "yes");
}

// ----- policy lowering validation ----------------------------------------------------

TEST(PolicyLowering, RejectsBadShapes) {
  sandbox sb;
  const char* bad_cases[] = {
      "var p = new Policy(); p.url = [ 42 ]; p.register();",
      "var p = new Policy(); p.method = [ 'FROB' ]; p.register();",
      "var p = new Policy(); p.onRequest = 'not a function'; p.register();",
      "var p = new Policy(); p.headers = { 'User-Agent': '(' }; p.register();",
      "var p = new Policy(); p.url = 42; p.register();",
  };
  for (const char* source : bad_cases) {
    EXPECT_THROW(sb.load_stage(std::string("http://t/") + source, source, 1),
                 js::script_error)
        << source;
  }
}

TEST(PolicyLowering, RegisterOutsideStageLoadFails) {
  sandbox sb;
  sb.load_stage("http://t/ok.js", "var p = new Policy();", 1);
  // Calling register() later (no stage loading) throws a catchable error.
  exec_state exec;
  run_with_exec(sb, exec, R"JS(
    function main() {
      caught = "no";
      try { p.register(); } catch (e) { caught = "yes"; }
    }
  )JS");
  EXPECT_EQ(global_str(sb, "caught"), "yes");
}

TEST(PolicyLowering, AcceptsStringOrList) {
  sandbox sb;
  const auto& stage = sb.load_stage("http://t/s.js", R"JS(
    var p = new Policy();
    p.url = "one.org";
    p.client = [ "10.0.0.0/8", "nyu.edu" ];
    p.method = "GET";
    p.headers = { "User-Agent": [ "Nokia", "Moto" ] };
    p.register();
  )JS",
                                    1);
  EXPECT_EQ(stage.policy_count, 1u);
  // Two header patterns expand the tree but stay one policy.
  EXPECT_GE(stage.tree->node_count(), 4u);
}

// ----- Na Kika Pages -------------------------------------------------------------------

TEST(Pages, CompilesTextAndCode) {
  const std::string script = compile_nkp("Hello <?nkp Response.write(1 + 1); ?> world");
  sandbox sb;
  const auto& stage = sb.load_stage("http://t/p.nkp", script, 1);
  EXPECT_EQ(stage.policy_count, 1u);

  // Run the compiled page against a response.
  http::request req;
  req.url = http::url::parse("http://t/p.nkp");
  http::response resp = http::make_response(200, "text/nkp", util::make_body(""));
  exec_state exec;
  exec.request = &req;
  exec.response = &resp;
  const auto match = stage.tree->match(req);
  ASSERT_TRUE(match.found());
  sb.binding()->current = &exec;
  sync_request_to_script(sb.ctx(), req);
  sync_response_to_script(sb.ctx(), resp);
  js::interpreter in(sb.ctx());
  in.call(match.matched->on_response, js::value::undefined(), {});
  read_back_response(sb.ctx(), exec, resp);
  sb.binding()->current = nullptr;
  EXPECT_EQ(resp.body->view(), "Hello 2 world");
  EXPECT_EQ(resp.headers.get("Content-Type"), "text/html");
}

TEST(Pages, EscapesLiteralText) {
  const std::string script = compile_nkp("a \"quoted\"\nline\\back");
  // Must parse cleanly despite quotes/newlines/backslashes in the text.
  EXPECT_NO_THROW((void)js::parse_program(script));
}

TEST(Pages, MultipleBlocksInterleave) {
  const std::string script =
      compile_nkp("<?nkp var x = 2; ?>x=<?nkp Response.write(x * 21); ?>!");
  sandbox sb;
  EXPECT_NO_THROW(sb.load_stage("http://t/m.nkp", script, 1));
}

TEST(Pages, UnterminatedBlockThrows) {
  EXPECT_THROW((void)compile_nkp("text <?nkp Response.write(1);"), std::invalid_argument);
}

TEST(Pages, ResourceDetection) {
  EXPECT_TRUE(is_nkp_resource("/page.nkp", ""));
  EXPECT_TRUE(is_nkp_resource("/x", "text/nkp"));
  EXPECT_TRUE(is_nkp_resource("/x", "text/nkp; charset=utf-8"));
  EXPECT_FALSE(is_nkp_resource("/page.html", "text/html"));
}

}  // namespace
}  // namespace nakika::core
