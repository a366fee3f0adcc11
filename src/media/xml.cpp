#include "media/xml.hpp"

#include <algorithm>
#include <array>
#include <cctype>
#include <cstdint>
#include <cstring>
#include <stdexcept>

namespace nakika::media {

const std::string* xml_node::attr(std::string_view name) const {
  for (const auto& [k, v] : attrs) {
    if (k == name) return &v;
  }
  return nullptr;
}

const xml_node* xml_node::child(std::string_view name) const {
  for (const auto& c : children) {
    if (c->k == kind::element && c->name == name) return c.get();
  }
  return nullptr;
}

std::vector<const xml_node*> xml_node::children_named(std::string_view name) const {
  std::vector<const xml_node*> out;
  for (const auto& c : children) {
    if (c->k == kind::element && c->name == name) out.push_back(c.get());
  }
  return out;
}

std::string xml_node::inner_text() const {
  if (k == kind::text) return text;
  std::string out;
  for (const auto& c : children) out += c->inner_text();
  return out;
}

namespace {

constexpr std::string_view k_space = " \t\r\n";

// Bytes append_xml_escaped replaces; everything else is copied in runs.
constexpr std::array<bool, 256> k_needs_escape = [] {
  std::array<bool, 256> t{};
  for (const unsigned char c : {'&', '<', '>', '"', '\''}) t[c] = true;
  return t;
}();

// Whether any of the 8 bytes in `w` needs escaping: the classic has-zero-byte
// test on `w` XOR each special byte. Plain text is skipped a word at a time;
// on SIMM pages a per-byte table scan made apply() about twice as slow.
bool word_needs_escape(std::uint64_t w) {
  constexpr std::uint64_t ones = 0x0101010101010101ull;
  std::uint64_t zero_bytes = 0;
  for (const unsigned char c : {'&', '<', '>', '"', '\''}) {
    const std::uint64_t x = w ^ (ones * c);
    zero_bytes |= (x - ones) & ~x;
  }
  return (zero_bytes & (ones << 7)) != 0;
}

// Bytes of an element or attribute name (ASCII letters and digits, _ - : .).
constexpr std::array<bool, 256> k_name_char = [] {
  std::array<bool, 256> t{};
  for (int c = 0; c < 256; ++c) {
    t[c] = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') ||
           c == '_' || c == '-' || c == ':' || c == '.';
  }
  return t;
}();

class xml_parser {
 public:
  explicit xml_parser(std::string_view src) : src_(src) {}

  xml_node_ptr parse() {
    skip_prolog();
    auto root = parse_element(1);
    skip_ws_and_comments();
    if (pos_ != src_.size()) fail("trailing content after root element");
    return root;
  }

 private:
  [[noreturn]] void fail(const std::string& message) const {
    throw std::invalid_argument("xml: " + message + " (offset " + std::to_string(pos_) + ")");
  }

  void skip_ws() {
    while (pos_ < src_.size() && std::isspace(static_cast<unsigned char>(src_[pos_]))) ++pos_;
  }

  void skip_ws_and_comments() {
    while (true) {
      skip_ws();
      if (src_.substr(pos_).starts_with("<!--")) {
        const std::size_t end = src_.find("-->", pos_ + 4);
        if (end == std::string_view::npos) fail("unterminated comment");
        pos_ = end + 3;
      } else {
        return;
      }
    }
  }

  void skip_prolog() {
    skip_ws();
    if (src_.substr(pos_).starts_with("<?")) {
      const std::size_t end = src_.find("?>", pos_);
      if (end == std::string_view::npos) fail("unterminated XML declaration");
      pos_ = end + 2;
    }
    skip_ws_and_comments();
    if (src_.substr(pos_).starts_with("<!DOCTYPE")) {
      const std::size_t end = src_.find('>', pos_);
      if (end == std::string_view::npos) fail("unterminated DOCTYPE");
      pos_ = end + 1;
    }
    skip_ws_and_comments();
  }

  std::string_view parse_name() {
    const std::size_t start = pos_;
    while (pos_ < src_.size() && k_name_char[static_cast<unsigned char>(src_[pos_])]) ++pos_;
    if (pos_ == start) fail("expected a name");
    return src_.substr(start, pos_ - start);
  }

  // Appends `raw` to `out` with entity references decoded; the runs between
  // references are copied whole.
  void decode_entities(std::string_view raw, std::string& out) {
    std::size_t i = 0;
    while (true) {
      const std::size_t amp = raw.find('&', i);
      if (amp == std::string_view::npos) {
        out.append(raw.substr(i));
        return;
      }
      out.append(raw.substr(i, amp - i));
      const std::size_t semi = raw.find(';', amp);
      if (semi == std::string_view::npos) fail("unterminated entity");
      const std::string_view entity = raw.substr(amp + 1, semi - amp - 1);
      if (entity == "amp") {
        out.push_back('&');
      } else if (entity == "lt") {
        out.push_back('<');
      } else if (entity == "gt") {
        out.push_back('>');
      } else if (entity == "quot") {
        out.push_back('"');
      } else if (entity == "apos") {
        out.push_back('\'');
      } else if (entity.starts_with("#")) {
        const long cp = std::strtol(std::string(entity.substr(1)).c_str(), nullptr,
                                    entity.starts_with("#x") ? 16 : 10);
        out.push_back(static_cast<char>(cp & 0x7f));
      } else {
        fail("unknown entity &" + std::string(entity) + ";");
      }
      i = semi + 1;
    }
  }

  // `depth` is the nesting level of the element starting at pos_ (the root
  // is 1); recursion stops at max_xml_depth.
  xml_node_ptr parse_element(std::size_t depth) {
    if (pos_ >= src_.size() || src_[pos_] != '<') fail("expected '<'");
    if (depth > max_xml_depth) fail("nesting deeper than " + std::to_string(max_xml_depth));
    ++pos_;
    auto node = std::make_unique<xml_node>();
    node->name = parse_name();

    // Attributes.
    while (true) {
      skip_ws();
      if (pos_ >= src_.size()) fail("unterminated start tag");
      if (src_[pos_] == '>') {
        ++pos_;
        break;
      }
      if (src_.substr(pos_).starts_with("/>")) {
        pos_ += 2;
        return node;  // self-closing
      }
      std::string attr_name(parse_name());
      skip_ws();
      if (pos_ >= src_.size() || src_[pos_] != '=') fail("expected '=' after attribute name");
      ++pos_;
      skip_ws();
      if (pos_ >= src_.size() || (src_[pos_] != '"' && src_[pos_] != '\'')) {
        fail("expected quoted attribute value");
      }
      const char quote = src_[pos_++];
      const std::size_t val_end = src_.find(quote, pos_);
      if (val_end == std::string_view::npos) fail("unterminated attribute value");
      std::string attr_value;
      decode_entities(src_.substr(pos_, val_end - pos_), attr_value);
      node->attrs.emplace_back(std::move(attr_name), std::move(attr_value));
      pos_ = val_end + 1;
    }

    // Children until the matching end tag.
    while (true) {
      if (pos_ >= src_.size()) fail("unterminated element <" + node->name + ">");
      if (src_.substr(pos_).starts_with("</")) {
        pos_ += 2;
        const std::string_view closing = parse_name();
        if (closing != node->name) {
          fail("mismatched end tag </" + std::string(closing) + "> for <" + node->name + ">");
        }
        skip_ws();
        if (pos_ >= src_.size() || src_[pos_] != '>') fail("malformed end tag");
        ++pos_;
        return node;
      }
      if (src_.substr(pos_).starts_with("<!--")) {
        const std::size_t end = src_.find("-->", pos_ + 4);
        if (end == std::string_view::npos) fail("unterminated comment");
        pos_ = end + 3;
        continue;
      }
      if (src_.substr(pos_).starts_with("<![CDATA[")) {
        const std::size_t end = src_.find("]]>", pos_ + 9);
        if (end == std::string_view::npos) fail("unterminated CDATA");
        auto text_node = std::make_unique<xml_node>();
        text_node->k = xml_node::kind::text;
        text_node->text = std::string(src_.substr(pos_ + 9, end - pos_ - 9));
        node->children.push_back(std::move(text_node));
        pos_ = end + 3;
        continue;
      }
      if (src_[pos_] == '<') {
        node->children.push_back(parse_element(depth + 1));
        continue;
      }
      const std::size_t text_end = src_.find('<', pos_);
      if (text_end == std::string_view::npos) fail("unterminated element content");
      // Whitespace-only runs between elements are skipped, before or (for
      // character references such as &#32;) after decoding.
      const std::string_view raw = src_.substr(pos_, text_end - pos_);
      if (raw.find_first_not_of(k_space) == std::string_view::npos) {
        pos_ = text_end;
        continue;
      }
      auto text_node = std::make_unique<xml_node>();
      text_node->k = xml_node::kind::text;
      text_node->text.reserve(raw.size());
      decode_entities(raw, text_node->text);
      pos_ = text_end;
      if (text_node->text.find_first_not_of(k_space) != std::string::npos) {
        node->children.push_back(std::move(text_node));
      }
    }
  }

  std::string_view src_;
  std::size_t pos_ = 0;
};

void serialize_into(std::string& out, const xml_node& node) {
  if (node.k == xml_node::kind::text) {
    append_xml_escaped(out, node.text);
    return;
  }
  append_open_tag(out, node);
  if (node.children.empty()) {
    out += "/>";
    return;
  }
  out += '>';
  for (const auto& c : node.children) serialize_into(out, *c);
  out += "</";
  out += node.name;
  out += '>';
}

}  // namespace

xml_node_ptr parse_xml(std::string_view source) { return xml_parser(source).parse(); }

std::string serialize_xml(const xml_node& node) {
  std::string out;
  serialize_into(out, node);
  return out;
}

void append_open_tag(std::string& out, const xml_node& element) {
  out += '<';
  out += element.name;
  for (const auto& [k, v] : element.attrs) {
    out += ' ';
    out += k;
    out += "=\"";
    append_xml_escaped(out, v);
    out += '"';
  }
}

void append_xml_escaped(std::string& out, std::string_view text) {
  std::size_t run = 0;  // start of the bytes not yet appended
  std::size_t i = 0;
  while (i < text.size()) {
    if (i + 8 <= text.size()) {
      std::uint64_t w = 0;
      std::memcpy(&w, text.data() + i, 8);
      if (!word_needs_escape(w)) {
        i += 8;
        continue;
      }
    }
    for (const std::size_t stop = std::min(i + 8, text.size()); i < stop; ++i) {
      if (!k_needs_escape[static_cast<unsigned char>(text[i])]) continue;
      out.append(text, run, i - run);
      switch (text[i]) {
        case '&': out += "&amp;"; break;
        case '<': out += "&lt;"; break;
        case '>': out += "&gt;"; break;
        case '"': out += "&quot;"; break;
        default: out += "&apos;"; break;
      }
      run = i + 1;
    }
  }
  out.append(text, run);
}

}  // namespace nakika::media
