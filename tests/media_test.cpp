#include <gtest/gtest.h>

#include "media/image.hpp"
#include "media/xml.hpp"
#include "media/xsl.hpp"

namespace nakika::media {
namespace {

// ----- image -------------------------------------------------------------------

TEST(Image, EncodeDecodeRoundTrip) {
  const image img = make_test_image(16, 9, 42);
  const auto encoded = encode(img, image_format::jpeg);
  const decode_result d = decode(encoded.span());
  ASSERT_TRUE(d.ok) << d.error;
  EXPECT_EQ(d.format, image_format::jpeg);
  EXPECT_EQ(d.img.width, 16u);
  EXPECT_EQ(d.img.height, 9u);
  EXPECT_EQ(d.img.pixels, img.pixels);
}

TEST(Image, HeaderOnlyReads) {
  const auto encoded = encode(make_test_image(33, 21, 1), image_format::png);
  const auto dims = read_dimensions(encoded.span());
  ASSERT_TRUE(dims.has_value());
  EXPECT_EQ(dims->width, 33u);
  EXPECT_EQ(dims->height, 21u);
  EXPECT_EQ(read_format(encoded.span()), image_format::png);
}

TEST(Image, DecodeRejectsGarbage) {
  const util::byte_buffer junk("not an image at all, definitely");
  EXPECT_FALSE(decode(junk.span()).ok);
  EXPECT_FALSE(read_dimensions(junk.span()).has_value());
  // Truncated pixel data.
  auto encoded = encode(make_test_image(10, 10, 1), image_format::raw);
  const auto truncated = encoded.slice(0, encoded.size() - 10);
  EXPECT_FALSE(decode(truncated.span()).ok);
}

TEST(Image, MimeMapping) {
  EXPECT_EQ(format_from_mime("image/jpeg"), image_format::jpeg);
  EXPECT_EQ(format_from_mime(" IMAGE/GIF "), image_format::gif);
  EXPECT_FALSE(format_from_mime("text/html").has_value());
  EXPECT_FALSE(format_from_mime("image/webp").has_value());
  EXPECT_EQ(mime_from_format(image_format::png), "image/png");
  EXPECT_EQ(format_from_name("jpg"), image_format::jpeg);
}

TEST(Image, ScalePreservesGradientStructure) {
  // The test image has a horizontal red gradient; scaling keeps it monotone.
  const image src = make_test_image(64, 64, 3);
  const image dst = scale_bilinear(src, 16, 16);
  EXPECT_EQ(dst.width, 16u);
  EXPECT_TRUE(dst.valid());
  const auto red_at = [&](std::uint32_t x) { return dst.pixels[(8 * 16 + x) * 3]; };
  EXPECT_LT(red_at(0), red_at(8));
  EXPECT_LT(red_at(8), red_at(15));
}

TEST(Image, ScaleEdgeCases) {
  const image src = make_test_image(10, 10, 1);
  const image one = scale_bilinear(src, 1, 1);
  EXPECT_EQ(one.pixels.size(), 3u);
  const image up = scale_bilinear(src, 20, 5);
  EXPECT_EQ(up.width, 20u);
  EXPECT_EQ(up.height, 5u);
  EXPECT_THROW((void)scale_bilinear(src, 0, 5), std::invalid_argument);
  image invalid;
  EXPECT_THROW((void)scale_bilinear(invalid, 5, 5), std::invalid_argument);
}

TEST(Image, TranscodeFitsNokiaScreen) {
  // The paper's Fig. 2 example: fit within 176x208.
  const auto big = encode(make_test_image(1024, 768, 9), image_format::png);
  const auto result = transcode_to_fit(big.span(), image_format::jpeg, 176, 208);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_LE(result.dims.width, 176u);
  EXPECT_LE(result.dims.height, 208u);
  // Aspect ratio preserved: 1024/768 = 4:3 -> 176x132.
  EXPECT_EQ(result.dims.width, 176u);
  EXPECT_EQ(result.dims.height, 132u);
  EXPECT_EQ(read_format(result.data.span()), image_format::jpeg);
}

TEST(Image, TranscodeNeverUpscales) {
  const auto small = encode(make_test_image(100, 50, 2), image_format::gif);
  const auto result = transcode_to_fit(small.span(), image_format::jpeg, 176, 208);
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(result.dims.width, 100u);
  EXPECT_EQ(result.dims.height, 50u);
}

TEST(Image, TranscodeRejectsBadInput) {
  const util::byte_buffer junk("zzz");
  EXPECT_FALSE(transcode_to_fit(junk.span(), image_format::jpeg, 10, 10).ok);
  const auto good = encode(make_test_image(4, 4, 1), image_format::raw);
  EXPECT_FALSE(transcode_to_fit(good.span(), image_format::jpeg, 0, 10).ok);
}

// Parameterized sweep: every source/target size combination stays in bounds.
struct fit_case {
  std::uint32_t sw, sh, mw, mh;
};
class TranscodeFit : public ::testing::TestWithParam<fit_case> {};
TEST_P(TranscodeFit, FitsWithinBox) {
  const auto p = GetParam();
  const auto data = encode(make_test_image(p.sw, p.sh, 7), image_format::jpeg);
  const auto result = transcode_to_fit(data.span(), image_format::jpeg, p.mw, p.mh);
  ASSERT_TRUE(result.ok);
  EXPECT_LE(result.dims.width, p.mw);
  EXPECT_LE(result.dims.height, p.mh);
  EXPECT_GE(result.dims.width, 1u);
  EXPECT_GE(result.dims.height, 1u);
}
INSTANTIATE_TEST_SUITE_P(Sizes, TranscodeFit,
                         ::testing::Values(fit_case{640, 480, 176, 208},
                                           fit_case{480, 640, 176, 208},
                                           fit_case{2000, 100, 176, 208},
                                           fit_case{100, 2000, 176, 208},
                                           fit_case{176, 208, 176, 208},
                                           fit_case{177, 208, 176, 208},
                                           fit_case{1, 1, 176, 208}));

// ----- xml ----------------------------------------------------------------------

TEST(Xml, ParsesElementsAttributesText) {
  const auto root = parse_xml("<a x=\"1\" y='2'><b>hi</b><c/>tail</a>");
  EXPECT_EQ(root->name, "a");
  EXPECT_EQ(*root->attr("x"), "1");
  EXPECT_EQ(*root->attr("y"), "2");
  EXPECT_EQ(root->attr("z"), nullptr);
  ASSERT_EQ(root->children.size(), 3u);
  EXPECT_EQ(root->child("b")->inner_text(), "hi");
  EXPECT_EQ(root->child("c")->children.size(), 0u);
  EXPECT_EQ(root->inner_text(), "hitail");
}

TEST(Xml, HandlesPrologCommentsCdata) {
  const auto root = parse_xml(
      "<?xml version=\"1.0\"?><!-- c --><root><!-- inner --><![CDATA[<raw>]]></root>");
  EXPECT_EQ(root->name, "root");
  EXPECT_EQ(root->inner_text(), "<raw>");
}

TEST(Xml, DecodesEntities) {
  const auto root = parse_xml("<a>&lt;x&gt; &amp; &quot;q&quot; &apos;s&apos; &#65;</a>");
  EXPECT_EQ(root->inner_text(), "<x> & \"q\" 's' A");
}

TEST(Xml, SerializeRoundTrip) {
  const char* doc = "<a x=\"1\"><b>t &amp; u</b><c/></a>";
  const auto root = parse_xml(doc);
  const std::string out = serialize_xml(*root);
  const auto reparsed = parse_xml(out);
  EXPECT_EQ(serialize_xml(*reparsed), out);
  EXPECT_EQ(reparsed->child("b")->inner_text(), "t & u");
}

TEST(Xml, RejectsMalformed) {
  EXPECT_THROW(parse_xml("<a><b></a>"), std::invalid_argument);
  EXPECT_THROW(parse_xml("<a"), std::invalid_argument);
  EXPECT_THROW(parse_xml("<a attr></a>"), std::invalid_argument);
  EXPECT_THROW(parse_xml("<a>&bogus;</a>"), std::invalid_argument);
  EXPECT_THROW(parse_xml("<a></a><b></b>"), std::invalid_argument);
  EXPECT_THROW(parse_xml("<a x=\"unterminated></a>"), std::invalid_argument);
}

TEST(Xml, ChildQueries) {
  const auto root = parse_xml("<r><s>1</s><s>2</s><t>3</t></r>");
  EXPECT_EQ(root->children_named("s").size(), 2u);
  EXPECT_EQ(root->child("t")->inner_text(), "3");
  EXPECT_EQ(root->child("missing"), nullptr);
}

TEST(Xml, NestingIsBounded) {
  const auto nested = [](std::size_t depth) {
    std::string doc;
    for (std::size_t i = 0; i < depth; ++i) doc += "<a>";
    for (std::size_t i = 0; i < depth; ++i) doc += "</a>";
    return doc;
  };
  EXPECT_NO_THROW((void)parse_xml(nested(max_xml_depth)));
  EXPECT_THROW((void)parse_xml(nested(max_xml_depth + 1)), std::invalid_argument);
  // Deep enough to overflow a thread stack if parsing, destruction or
  // rendering recursed once per level.
  try {
    (void)parse_xml(nested(100'000));
    FAIL() << "a 100,000-deep document parsed";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "xml: nesting deeper than 256 (offset 768)");
  }
}

TEST(Xml, EscapesAllFiveCharactersInRuns) {
  const auto escaped = [](std::string_view text) {
    std::string out = "[";
    append_xml_escaped(out, text);
    return out;
  };
  EXPECT_EQ(escaped("plain"), "[plain");
  EXPECT_EQ(escaped("a&b<c>d\"e'f"), "[a&amp;b&lt;c&gt;d&quot;e&apos;f");
  EXPECT_EQ(escaped("<<&&"), "[&lt;&lt;&amp;&amp;");
  EXPECT_EQ(escaped("'y'"), "[&apos;y&apos;");
  // Every special byte at every offset of a text spanning several 8-byte
  // words, against a byte-at-a-time reference.
  for (const char special : std::string_view("&<>\"'")) {
    for (std::size_t at = 0; at < 24; ++at) {
      std::string text(24, 'x');
      text[at] = special;
      text[23 - at] = special;
      std::string expected = "[";
      for (const char c : text) {
        switch (c) {
          case '&': expected += "&amp;"; break;
          case '<': expected += "&lt;"; break;
          case '>': expected += "&gt;"; break;
          case '"': expected += "&quot;"; break;
          case '\'': expected += "&apos;"; break;
          default: expected += c;
        }
      }
      EXPECT_EQ(escaped(text), expected) << "special " << special << " at " << at;
    }
  }
}

TEST(Xml, DecodesEntitiesBetweenRunsAndDropsWhitespaceText) {
  const auto root = parse_xml("<r a='1&amp;2&lt;3'>  <s>x&amp;&amp;y</s> &#32; <t>z</t></r>");
  EXPECT_EQ(*root->attr("a"), "1&2<3");
  // "  " and " &#32; " are whitespace-only (the latter once decoded).
  ASSERT_EQ(root->children.size(), 2u);
  EXPECT_EQ(root->children[0]->inner_text(), "x&&y");
}

// ----- xsl ----------------------------------------------------------------------

TEST(Xsl, ValueOfAndForEach) {
  const char* sheet = R"(<xsl:stylesheet version="1.0">
    <xsl:template match="doc">
      <ul><xsl:for-each select="item"><li><xsl:value-of select="."/></li></xsl:for-each></ul>
    </xsl:template>
  </xsl:stylesheet>)";
  const char* doc = "<doc><item>a</item><item>b</item></doc>";
  // Whitespace-only text between elements is dropped by the parser.
  EXPECT_EQ(xsl_transform(sheet, doc), "<ul><li>a</li><li>b</li></ul>");
}

TEST(Xsl, AttributeSelectAndPaths) {
  const char* sheet = R"(<xsl:stylesheet version="1.0">
    <xsl:template match="doc"><xsl:value-of select="meta/@id"/>:<xsl:value-of select="meta/title"/></xsl:template>
  </xsl:stylesheet>)";
  const char* doc = "<doc><meta id=\"7\"><title>T</title></meta></doc>";
  EXPECT_EQ(xsl_transform(sheet, doc), "7:T");
}

TEST(Xsl, ApplyTemplatesRecursion) {
  const char* sheet = R"(<xsl:stylesheet version="1.0">
    <xsl:template match="doc"><div><xsl:apply-templates select="sec"/></div></xsl:template>
    <xsl:template match="sec"><p><xsl:value-of select="."/></p></xsl:template>
  </xsl:stylesheet>)";
  const char* doc = "<doc><sec>one</sec><sec>two</sec></doc>";
  EXPECT_EQ(xsl_transform(sheet, doc), "<div><p>one</p><p>two</p></div>");
}

TEST(Xsl, LiteralElementsCopyAttributes) {
  const char* sheet = R"(<xsl:stylesheet version="1.0">
    <xsl:template match="d"><a href="x">link</a><br/></xsl:template>
  </xsl:stylesheet>)";
  EXPECT_EQ(xsl_transform(sheet, "<d/>"), "<a href=\"x\">link</a><br/>");
}

TEST(Xsl, EscapesOutputText) {
  const char* sheet = R"(<xsl:stylesheet version="1.0">
    <xsl:template match="d"><xsl:value-of select="."/></xsl:template>
  </xsl:stylesheet>)";
  EXPECT_EQ(xsl_transform(sheet, "<d>a &lt; b</d>"), "a &lt; b");
}

TEST(Xsl, RejectsInvalidStylesheets) {
  EXPECT_THROW(xsl_stylesheet::parse("<notasheet/>"), std::invalid_argument);
  EXPECT_THROW(xsl_stylesheet::parse("<xsl:stylesheet version=\"1.0\"/>"),
               std::invalid_argument);
  EXPECT_THROW(xsl_stylesheet::parse(
                   "<xsl:stylesheet version=\"1.0\"><xsl:template>x</xsl:template>"
                   "</xsl:stylesheet>"),
               std::invalid_argument);
  const char* unsupported = R"(<xsl:stylesheet version="1.0">
    <xsl:template match="d"><xsl:choose/></xsl:template>
  </xsl:stylesheet>)";
  EXPECT_THROW(xsl_transform(unsupported, "<d/>"), std::invalid_argument);
}

TEST(Xsl, DeeplyNestedStylesheetIsRejected) {
  std::string body;
  for (int i = 0; i < 100'000; ++i) body += "<p>";
  for (int i = 0; i < 100'000; ++i) body += "</p>";
  const std::string sheet = "<xsl:stylesheet version=\"1.0\"><xsl:template match=\"d\">" +
                            body + "</xsl:template></xsl:stylesheet>";
  EXPECT_THROW((void)xsl_stylesheet::parse(sheet), std::invalid_argument);
  EXPECT_THROW((void)xsl_transform(sheet, "<d/>"), std::invalid_argument);
  std::string deep_doc;
  for (int i = 0; i < 100'000; ++i) deep_doc += "<d>";
  EXPECT_THROW((void)xsl_transform("<xsl:stylesheet version=\"1.0\"><xsl:template "
                                   "match=\"d\"><xsl:apply-templates/></xsl:template>"
                                   "</xsl:stylesheet>",
                                   deep_doc),
               std::invalid_argument);
}

// Body errors are compiled into ops that throw only when rendering reaches
// them, exactly as the body would have failed while being walked.
TEST(Xsl, BodyErrorsThrowOnlyWhenReached) {
  const char* missing_select = R"(<xsl:stylesheet version="1.0">
    <xsl:template match="d">ok</xsl:template>
    <xsl:template match="e"><xsl:value-of/></xsl:template>
  </xsl:stylesheet>)";
  const xsl_stylesheet sheet = xsl_stylesheet::parse(missing_select);
  EXPECT_EQ(sheet.apply(*parse_xml("<d/>")), "ok");
  try {
    (void)sheet.apply(*parse_xml("<e/>"));
    FAIL() << "value-of without select rendered";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "xsl:value-of without select");
  }

  const char* unsupported_in_loop = R"(<xsl:stylesheet version="1.0">
    <xsl:template match="d">[<xsl:for-each select="none"><xsl:choose/></xsl:for-each>]</xsl:template>
  </xsl:stylesheet>)";
  EXPECT_EQ(xsl_transform(unsupported_in_loop, "<d><x/></d>"), "[]");
  EXPECT_THROW((void)xsl_transform(unsupported_in_loop, "<d><none/></d>"),
               std::invalid_argument);
  const char* for_each_without_select = R"(<xsl:stylesheet version="1.0">
    <xsl:template match="d">x<xsl:for-each>y</xsl:for-each></xsl:template>
  </xsl:stylesheet>)";
  EXPECT_EQ(xsl_transform(for_each_without_select, "<e/>"), "");
  EXPECT_THROW((void)xsl_transform(for_each_without_select, "<d/>"), std::invalid_argument);
}

TEST(Xsl, BuiltInRuleCopiesTextUnescaped) {
  const char* sheet = R"(<xsl:stylesheet version="1.0">
    <xsl:template match="b"><i><xsl:value-of select="."/></i></xsl:template>
  </xsl:stylesheet>)";
  // Text reached through the built-in rule is copied as decoded; value-of
  // output is escaped.
  EXPECT_EQ(xsl_transform(sheet, "<r>a &lt; c<b>x &amp; y</b></r>"), "a < c<i>x &amp; y</i>");
}

TEST(Xsl, SelectPathForms) {
  const char* sheet = R"(<xsl:stylesheet version="1.0">
    <xsl:template match="doc">[<xsl:value-of select="."/>]<xsl:value-of select="@id"/>|<xsl:value-of select="m/t"/>|<xsl:value-of select="m/@k"/>|<xsl:value-of select="m/@missing"/>|<xsl:value-of select="nope/t"/>|<xsl:for-each select="m/t"><xsl:value-of select="."/>;</xsl:for-each>|<xsl:for-each select="."><xsl:value-of select="@k"/></xsl:for-each></xsl:template>
  </xsl:stylesheet>)";
  const char* doc = R"(<doc id="7&amp;"><m k="v&lt;"><t>one</t><t>two</t></m><n k="w"/></doc>)";
  EXPECT_EQ(xsl_transform(sheet, doc), "[onetwo]7&amp;|one|v&lt;|||one;two;|v&lt;w");
}

TEST(Xsl, RootRuleAppliesToTheDocumentElement) {
  const char* sheet = R"(<xsl:stylesheet version="1.0">
    <xsl:template match="doc">never</xsl:template>
    <xsl:template match="/"><out a="&quot;"><xsl:apply-templates select="sec"/></out></xsl:template>
    <xsl:template match="sec">(<xsl:value-of select="."/>)</xsl:template>
  </xsl:stylesheet>)";
  EXPECT_EQ(xsl_transform(sheet, "<doc><sec>1</sec><x/><sec>2</sec></doc>"),
            "<out a=\"&quot;\">(1)(2)</out>");
}

TEST(Xsl, CompiledSheetIsReusableAcrossDocuments) {
  const xsl_stylesheet sheet = xsl_stylesheet::parse(R"(<xsl:stylesheet version="1.0">
    <xsl:template match="d"><b><xsl:value-of select="."/></b></xsl:template>
  </xsl:stylesheet>)");
  EXPECT_EQ(sheet.template_count(), 1u);
  EXPECT_EQ(sheet.apply(*parse_xml("<d>1</d>")), "<b>1</b>");
  EXPECT_EQ(sheet.apply(*parse_xml("<d>2</d>")), "<b>2</b>");
}

TEST(Xsl, BuiltInRuleRecursesUnmatched) {
  const char* sheet = R"(<xsl:stylesheet version="1.0">
    <xsl:template match="leaf">[L]</xsl:template>
  </xsl:stylesheet>)";
  // <root> has no rule: built-in recursion descends to <leaf>.
  EXPECT_EQ(xsl_transform(sheet, "<root><mid><leaf>x</leaf></mid>t</root>"), "[L]t");
}

}  // namespace
}  // namespace nakika::media
