// Minimal XML DOM: enough for the SIMM workload's XML content and the XSL
// transformer. Supports elements, attributes, text, comments, self-closing
// tags, and the five predefined entities. Elements nest at most
// max_xml_depth deep, so parsing, destroying and walking a tree all recurse
// a bounded number of frames whatever the input.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace nakika::media {

// Deepest element nesting parse_xml accepts (the root element is depth 1).
inline constexpr std::size_t max_xml_depth = 256;

struct xml_node;
using xml_node_ptr = std::unique_ptr<xml_node>;

struct xml_node {
  enum class kind { element, text };

  kind k = kind::element;
  std::string name;                                     // element name
  std::string text;                                     // text content (kind::text)
  std::vector<std::pair<std::string, std::string>> attrs;
  std::vector<xml_node_ptr> children;

  [[nodiscard]] const std::string* attr(std::string_view name) const;
  // First child element with the given name; nullptr if absent.
  [[nodiscard]] const xml_node* child(std::string_view name) const;
  [[nodiscard]] std::vector<const xml_node*> children_named(std::string_view name) const;
  // Concatenated text of this subtree.
  [[nodiscard]] std::string inner_text() const;
};

// Parses a document and returns its root element. Throws
// std::invalid_argument on malformed input, including nesting deeper than
// max_xml_depth.
[[nodiscard]] xml_node_ptr parse_xml(std::string_view source);

// Serializes a subtree (with entity escaping).
[[nodiscard]] std::string serialize_xml(const xml_node& node);

// Appends `text` to `out` with the five special characters escaped.
void append_xml_escaped(std::string& out, std::string_view text);
// Appends `<name a="v" ...` for an element, attribute values escaped; the
// caller closes it with ">" or "/>".
void append_open_tag(std::string& out, const xml_node& element);

}  // namespace nakika::media
