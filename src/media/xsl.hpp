// XSL-subset transformer. The SIMM experiment (paper §5.2) off-loads the
// "processor-intensive" XML-to-HTML rendering (one stylesheet for all
// students) to the edge; this implements the subset those stylesheets need:
//   <xsl:template match="name|/">     template rules
//   <xsl:value-of select="path"/>     path = name, a/b, @attr, a/@attr, or .
//   <xsl:apply-templates/>            recurse into children (optional select)
//   <xsl:for-each select="path">      iterate matching children
// Literal elements are copied through with their attributes.
//
// parse() compiles each template body once into a flat op list. Adjacent
// literal output (text, start tags with their escaped attributes, end tags)
// is merged into one pre-rendered string, and every select path is split
// into its steps. apply() only runs those ops against the document,
// appending straight into the output, so a compiled sheet can be reused for
// many documents. Errors in a body (value-of or for-each without select, an
// unsupported xsl: instruction) are compiled into ops that throw
// std::invalid_argument when reached, not at parse time. Both the stylesheet
// and the document go through parse_xml, so nesting is bounded by
// max_xml_depth and so is the recursion of parse() and apply().
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "media/xml.hpp"

namespace nakika::media {

class xsl_stylesheet {
 public:
  // Parses and compiles a stylesheet document. Throws std::invalid_argument
  // if the document is malformed or is not a stylesheet with templates.
  static xsl_stylesheet parse(std::string_view source);

  // Applies the stylesheet to a document, returning the rendered output.
  [[nodiscard]] std::string apply(const xml_node& document) const;

  [[nodiscard]] std::size_t template_count() const { return templates_.size(); }

 private:
  // A select path, split once at compile time. The context walks `steps`
  // (element names, first match each); then value-of takes attribute `last`
  // (if `attribute`) or the escaped text, and a node-set selects the element
  // children named `last` (all element children if `any_child`).
  struct path {
    std::vector<std::string> steps;
    std::string last;
    bool attribute = false;
    bool any_child = false;

    // "." selects the context's text; a step "@a" ends the walk there.
    static path value(std::string_view select);
    // "" and "." select every element child.
    static path nodes(std::string_view select);

    [[nodiscard]] const xml_node* walk(const xml_node& context) const;
    [[nodiscard]] bool selects(const xml_node& child) const;
  };

  enum class op_code { literal, value_of, for_each, apply_templates, fail };
  struct op {
    op_code code;
    std::string text;     // literal: output bytes; fail: the error message
    path select;          // value_of, for_each, apply_templates
    std::size_t end = 0;  // for_each: index one past its body in ops_
  };

  struct template_rule {
    std::string match;  // element name or "/"
    std::size_t begin;  // body = ops_[begin, end)
    std::size_t end;
  };

  void compile(const xml_node& body, std::string& literal);
  void flush(std::string& literal);
  void run(std::string& out, std::size_t begin, std::size_t end,
           const xml_node& context) const;
  void apply_templates(std::string& out, const xml_node& context) const;
  [[nodiscard]] const template_rule* find_rule(std::string_view name) const;

  std::vector<op> ops_;
  std::vector<template_rule> templates_;
};

// Convenience: parse stylesheet + document and apply.
[[nodiscard]] std::string xsl_transform(std::string_view stylesheet_xml,
                                        std::string_view document_xml);

}  // namespace nakika::media
