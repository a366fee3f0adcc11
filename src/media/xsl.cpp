#include "media/xsl.hpp"

#include <stdexcept>

#include "util/strings.hpp"

namespace nakika::media {

namespace {

// Appends the escaped concatenated text of `node`'s subtree.
void append_escaped_text(std::string& out, const xml_node& node) {
  if (node.k == xml_node::kind::text) {
    append_xml_escaped(out, node.text);
    return;
  }
  for (const auto& c : node.children) append_escaped_text(out, *c);
}

}  // namespace

xsl_stylesheet::path xsl_stylesheet::path::value(std::string_view select) {
  path p;
  if (select == ".") return p;
  for (std::string& step : util::split(select, '/')) {
    if (step.empty()) continue;
    if (step.front() == '@') {
      p.attribute = true;
      p.last = step.substr(1);
      break;
    }
    p.steps.push_back(std::move(step));
  }
  return p;
}

xsl_stylesheet::path xsl_stylesheet::path::nodes(std::string_view select) {
  path p;
  if (select.empty() || select == ".") {
    p.any_child = true;
    return p;
  }
  std::vector<std::string> steps = util::split(select, '/');
  p.last = std::move(steps.back());
  steps.pop_back();
  for (std::string& step : steps) {
    if (!step.empty()) p.steps.push_back(std::move(step));
  }
  return p;
}

const xml_node* xsl_stylesheet::path::walk(const xml_node& context) const {
  const xml_node* node = &context;
  for (const std::string& step : steps) {
    node = node->child(step);
    if (node == nullptr) return nullptr;
  }
  return node;
}

bool xsl_stylesheet::path::selects(const xml_node& child) const {
  return child.k == xml_node::kind::element && (any_child || child.name == last);
}

xsl_stylesheet xsl_stylesheet::parse(std::string_view source) {
  const xml_node_ptr root = parse_xml(source);
  if (root->name != "xsl:stylesheet" && root->name != "xsl:transform") {
    throw std::invalid_argument("xsl: root element must be xsl:stylesheet");
  }
  xsl_stylesheet sheet;
  for (const auto& child : root->children) {
    if (child->k != xml_node::kind::element || child->name != "xsl:template") continue;
    const std::string* match = child->attr("match");
    if (match == nullptr || match->empty()) {
      throw std::invalid_argument("xsl: template without match attribute");
    }
    const std::size_t begin = sheet.ops_.size();
    std::string literal;
    sheet.compile(*child, literal);
    sheet.flush(literal);
    sheet.templates_.push_back({*match, begin, sheet.ops_.size()});
  }
  if (sheet.templates_.empty()) {
    throw std::invalid_argument("xsl: stylesheet has no templates");
  }
  return sheet;
}

// Appends `body`'s children as ops. Literal output accumulates in `literal`
// and becomes one op when the next non-literal op (or the caller's flush)
// ends the run.
void xsl_stylesheet::compile(const xml_node& body, std::string& literal) {
  for (const auto& child : body.children) {
    if (child->k == xml_node::kind::text) {
      literal += child->text;
      continue;
    }
    const std::string* select = child->attr("select");
    const std::string& name = child->name;
    if (name == "xsl:value-of") {
      flush(literal);
      if (select == nullptr) {
        ops_.push_back({op_code::fail, "xsl:value-of without select", {}});
      } else {
        ops_.push_back({op_code::value_of, {}, path::value(*select)});
      }
    } else if (name == "xsl:apply-templates") {
      flush(literal);
      ops_.push_back({op_code::apply_templates, {}, path::nodes(select ? *select : "")});
    } else if (name == "xsl:for-each") {
      flush(literal);
      if (select == nullptr) {
        ops_.push_back({op_code::fail, "xsl:for-each without select", {}});
        continue;
      }
      const std::size_t at = ops_.size();
      ops_.push_back({op_code::for_each, {}, path::nodes(*select)});
      compile(*child, literal);
      flush(literal);
      ops_[at].end = ops_.size();
    } else if (name.starts_with("xsl:")) {
      flush(literal);
      ops_.push_back({op_code::fail, "xsl: unsupported instruction " + name, {}});
    } else {
      // Literal result element: tag + escaped attributes, then its body.
      append_open_tag(literal, *child);
      if (child->children.empty()) {
        literal += "/>";
        continue;
      }
      literal += '>';
      compile(*child, literal);
      literal += "</";
      literal += name;
      literal += '>';
    }
  }
}

void xsl_stylesheet::flush(std::string& literal) {
  if (literal.empty()) return;
  ops_.push_back({op_code::literal, std::move(literal), {}});
  literal.clear();
}

const xsl_stylesheet::template_rule* xsl_stylesheet::find_rule(std::string_view name) const {
  for (const auto& t : templates_) {
    if (t.match == name) return &t;
  }
  return nullptr;
}

std::string xsl_stylesheet::apply(const xml_node& document) const {
  std::string out;
  // Root rule "/" if present, else the rule matching the root element, else
  // the built-in rule (recurse).
  if (const template_rule* root = find_rule("/")) {
    run(out, root->begin, root->end, document);
  } else {
    apply_templates(out, document);
  }
  return out;
}

void xsl_stylesheet::apply_templates(std::string& out, const xml_node& context) const {
  if (const template_rule* rule = find_rule(context.name)) {
    run(out, rule->begin, rule->end, context);
    return;
  }
  // Built-in rule: text copies through, elements recurse.
  for (const auto& c : context.children) {
    if (c->k == xml_node::kind::text) {
      out += c->text;
    } else {
      apply_templates(out, *c);
    }
  }
}

void xsl_stylesheet::run(std::string& out, std::size_t begin, std::size_t end,
                         const xml_node& context) const {
  for (std::size_t i = begin; i < end;) {
    const op& o = ops_[i++];
    switch (o.code) {
      case op_code::literal:
        out += o.text;
        break;
      case op_code::value_of:
        if (const xml_node* node = o.select.walk(context)) {
          if (!o.select.attribute) {
            append_escaped_text(out, *node);
          } else if (const std::string* a = node->attr(o.select.last)) {
            append_xml_escaped(out, *a);
          }
        }
        break;
      case op_code::apply_templates:
        if (const xml_node* parent = o.select.walk(context)) {
          for (const auto& c : parent->children) {
            if (o.select.selects(*c)) apply_templates(out, *c);
          }
        }
        break;
      case op_code::for_each:
        if (const xml_node* parent = o.select.walk(context)) {
          for (const auto& c : parent->children) {
            if (o.select.selects(*c)) run(out, i, o.end, *c);
          }
        }
        i = o.end;
        break;
      case op_code::fail:
        throw std::invalid_argument(o.text);
    }
  }
}

std::string xsl_transform(std::string_view stylesheet_xml, std::string_view document_xml) {
  const xsl_stylesheet sheet = xsl_stylesheet::parse(stylesheet_xml);
  const xml_node_ptr doc = parse_xml(document_xml);
  return sheet.apply(*doc);
}

}  // namespace nakika::media
