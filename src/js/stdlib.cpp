#include "js/stdlib.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "js/errors.hpp"
#include "js/interpreter.hpp"
#include "util/glob.hpp"
#include "util/strings.hpp"

namespace nakika::js {

value arg_or_undefined(std::span<value> args, std::size_t i) {
  return i < args.size() ? args[i] : value::undefined();
}

void throw_js(const std::string& message) { throw thrown_value{value::string(message)}; }

const std::string& require_string(std::span<value> args, std::size_t i, const char* who) {
  if (i >= args.size() || !args[i].is_string()) {
    throw_js(std::string(who) + ": argument " + std::to_string(i + 1) + " must be a string");
  }
  return args[i].as_string();
}

double require_number(std::span<value> args, std::size_t i, const char* who) {
  if (i >= args.size() || !args[i].is_number()) {
    throw_js(std::string(who) + ": argument " + std::to_string(i + 1) + " must be a number");
  }
  return args[i].as_number();
}

// ----- JSON -------------------------------------------------------------------

namespace {

void json_escape_into(std::string& out, const std::string& s) {
  out.push_back('"');
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

void json_stringify_into(std::string& out, const value& v, int depth) {
  if (depth > 64) throw_js("JSON.stringify: structure too deep");
  if (v.is_undefined() || v.is_null()) {
    out += "null";
  } else if (v.is_boolean()) {
    out += v.as_boolean() ? "true" : "false";
  } else if (v.is_number()) {
    const double d = v.as_number();
    out += std::isnan(d) || std::isinf(d) ? "null" : v.to_string();
  } else if (v.is_string()) {
    json_escape_into(out, v.as_string());
  } else {
    const auto& obj = v.as_object();
    if (obj->kind == object_kind::array) {
      out.push_back('[');
      for (std::size_t i = 0; i < obj->elements.size(); ++i) {
        if (i > 0) out.push_back(',');
        json_stringify_into(out, obj->elements[i], depth + 1);
      }
      out.push_back(']');
    } else if (obj->kind == object_kind::byte_array) {
      json_escape_into(out, obj->bytes.str());
    } else if (obj->callable()) {
      out += "null";
    } else {
      out.push_back('{');
      bool first = true;
      for (const auto& p : obj->props) {
        if (p.val.is_undefined() || (p.val.is_object() && p.val.as_object()->callable())) {
          continue;
        }
        if (!first) out.push_back(',');
        first = false;
        json_escape_into(out, p.key);
        out.push_back(':');
        json_stringify_into(out, p.val, depth + 1);
      }
      out.push_back('}');
    }
  }
}

class json_reader {
 public:
  json_reader(context& ctx, std::string_view text) : ctx_(ctx), text_(text) {}

  value parse() {
    const value v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) throw_js("JSON.parse: trailing garbage");
    return v;
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    skip_ws();
    if (pos_ >= text_.size()) throw_js("JSON.parse: unexpected end of input");
    return text_[pos_];
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_).starts_with(lit)) {
      pos_ += lit.size();
      return true;
    }
    return false;
  }

  value parse_value() {
    const char c = peek();
    if (c == '{') return parse_object();
    if (c == '[') return parse_array();
    if (c == '"') return value::string(parse_string());
    if (consume_literal("true")) return value::boolean(true);
    if (consume_literal("false")) return value::boolean(false);
    if (consume_literal("null")) return value::null();
    return parse_number();
  }

  value parse_object() {
    ++pos_;  // '{'
    auto obj = ctx_.make_object();
    if (peek() == '}') {
      ++pos_;
      return value::object(obj);
    }
    while (true) {
      if (peek() != '"') throw_js("JSON.parse: expected string key");
      std::string key = parse_string();
      if (peek() != ':') throw_js("JSON.parse: expected ':'");
      ++pos_;
      obj->set(key, parse_value());
      const char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == '}') {
        ++pos_;
        return value::object(obj);
      }
      throw_js("JSON.parse: expected ',' or '}'");
    }
  }

  value parse_array() {
    ++pos_;  // '['
    auto arr = ctx_.make_array();
    if (peek() == ']') {
      ++pos_;
      return value::object(arr);
    }
    while (true) {
      arr->elements.push_back(parse_value());
      const char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == ']') {
        ++pos_;
        return value::object(arr);
      }
      throw_js("JSON.parse: expected ',' or ']'");
    }
  }

  std::string parse_string() {
    ++pos_;  // '"'
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) throw_js("JSON.parse: unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) throw_js("JSON.parse: bad escape");
      const char e = text_[pos_++];
      switch (e) {
        case 'n': out.push_back('\n'); break;
        case 't': out.push_back('\t'); break;
        case 'r': out.push_back('\r'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case '/': out.push_back('/'); break;
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) throw_js("JSON.parse: bad \\u escape");
          const std::string hex(text_.substr(pos_, 4));
          pos_ += 4;
          char* end = nullptr;
          const long cp = std::strtol(hex.c_str(), &end, 16);
          if (end != hex.c_str() + 4) throw_js("JSON.parse: bad \\u escape");
          // UTF-8 encode the BMP code point.
          if (cp < 0x80) {
            out.push_back(static_cast<char>(cp));
          } else if (cp < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (cp >> 6)));
            out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
          } else {
            out.push_back(static_cast<char>(0xE0 | (cp >> 12)));
            out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
          }
          break;
        }
        default:
          throw_js("JSON.parse: bad escape");
      }
    }
  }

  value parse_number() {
    skip_ws();
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E' || text_[pos_] == '+' ||
            text_[pos_] == '-')) {
      ++pos_;
    }
    const auto d = util::parse_double(text_.substr(start, pos_ - start));
    if (!d) throw_js("JSON.parse: malformed number");
    return value::number(*d);
  }

  context& ctx_;
  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

std::string json_stringify(const value& v) {
  std::string out;
  json_stringify_into(out, v, 0);
  return out;
}

value json_parse(context& ctx, std::string_view text) {
  return json_reader(ctx, text).parse();
}

// ----- stdlib installation ------------------------------------------------------

namespace {

void install_string_proto(context& ctx) {
  auto proto = make_plain_object();

  auto self_string = [](interpreter&, const value& self) -> std::string {
    if (!self.is_string()) throw_js("String method called on non-string");
    return self.as_string();
  };

  proto->set("charAt",
             value::object(make_native_function(
                 "charAt", [self_string](interpreter& in, const value& self,
                                         std::span<value> args) -> value {
                   const std::string s = self_string(in, self);
                   const auto i = static_cast<std::int64_t>(
                       arg_or_undefined(args, 0).to_number());
                   if (i < 0 || static_cast<std::size_t>(i) >= s.size()) {
                     return value::string("");
                   }
                   return value::string(std::string(1, s[static_cast<std::size_t>(i)]));
                 })));
  proto->set("charCodeAt",
             value::object(make_native_function(
                 "charCodeAt", [self_string](interpreter& in, const value& self,
                                             std::span<value> args) -> value {
                   const std::string s = self_string(in, self);
                   const auto i = static_cast<std::int64_t>(
                       arg_or_undefined(args, 0).to_number());
                   if (i < 0 || static_cast<std::size_t>(i) >= s.size()) {
                     return value::number(std::nan(""));
                   }
                   return value::number(
                       static_cast<unsigned char>(s[static_cast<std::size_t>(i)]));
                 })));
  proto->set("indexOf",
             value::object(make_native_function(
                 "indexOf", [self_string](interpreter& in, const value& self,
                                          std::span<value> args) -> value {
                   const std::string s = self_string(in, self);
                   const std::string needle = arg_or_undefined(args, 0).to_string();
                   std::size_t from = 0;
                   if (args.size() > 1) {
                     const double d = args[1].to_number();
                     if (d > 0) from = static_cast<std::size_t>(d);
                   }
                   const std::size_t pos = from <= s.size() ? s.find(needle, from)
                                                            : std::string::npos;
                   return value::number(pos == std::string::npos
                                            ? -1.0
                                            : static_cast<double>(pos));
                 })));
  proto->set("lastIndexOf",
             value::object(make_native_function(
                 "lastIndexOf", [self_string](interpreter& in, const value& self,
                                              std::span<value> args) -> value {
                   const std::string s = self_string(in, self);
                   const std::string needle = arg_or_undefined(args, 0).to_string();
                   const std::size_t pos = s.rfind(needle);
                   return value::number(pos == std::string::npos
                                            ? -1.0
                                            : static_cast<double>(pos));
                 })));
  proto->set("substring",
             value::object(make_native_function(
                 "substring", [self_string](interpreter& in, const value& self,
                                            std::span<value> args) -> value {
                   const std::string s = self_string(in, self);
                   auto clamp_index = [&](double d) -> std::size_t {
                     if (std::isnan(d) || d < 0) return 0;
                     return std::min(static_cast<std::size_t>(d), s.size());
                   };
                   std::size_t a = clamp_index(arg_or_undefined(args, 0).to_number());
                   std::size_t b = args.size() > 1
                                       ? clamp_index(args[1].to_number())
                                       : s.size();
                   if (a > b) std::swap(a, b);
                   return value::string(s.substr(a, b - a));
                 })));
  proto->set("slice",
             value::object(make_native_function(
                 "slice", [self_string](interpreter& in, const value& self,
                                        std::span<value> args) -> value {
                   const std::string s = self_string(in, self);
                   auto resolve = [&](double d, std::size_t fallback) -> std::size_t {
                     if (std::isnan(d)) return fallback;
                     if (d < 0) {
                       const double adj = static_cast<double>(s.size()) + d;
                       return adj < 0 ? 0 : static_cast<std::size_t>(adj);
                     }
                     return std::min(static_cast<std::size_t>(d), s.size());
                   };
                   const std::size_t a =
                       args.empty() ? 0 : resolve(args[0].to_number(), 0);
                   const std::size_t b = args.size() > 1
                                             ? resolve(args[1].to_number(), s.size())
                                             : s.size();
                   return value::string(a < b ? s.substr(a, b - a) : "");
                 })));
  proto->set("split",
             value::object(make_native_function(
                 "split", [self_string](interpreter& in, const value& self,
                                        std::span<value> args) -> value {
                   const std::string s = self_string(in, self);
                   auto arr = in.ctx().make_array();
                   if (args.empty() || !args[0].is_string()) {
                     arr->elements.push_back(value::string(s));
                     return value::object(arr);
                   }
                   const std::string& sep = args[0].as_string();
                   if (sep.empty()) {
                     for (char c : s) arr->elements.push_back(value::string(std::string(1, c)));
                     return value::object(arr);
                   }
                   std::size_t start = 0;
                   while (true) {
                     const std::size_t pos = s.find(sep, start);
                     if (pos == std::string::npos) {
                       arr->elements.push_back(value::string(s.substr(start)));
                       break;
                     }
                     arr->elements.push_back(value::string(s.substr(start, pos - start)));
                     start = pos + sep.size();
                   }
                   return value::object(arr);
                 })));
  proto->set("replace",
             value::object(make_native_function(
                 "replace", [self_string](interpreter& in, const value& self,
                                          std::span<value> args) -> value {
                   const std::string s = self_string(in, self);
                   const std::string from = require_string(args, 0, "replace");
                   const std::string to = require_string(args, 1, "replace");
                   // First occurrence only, like JS with a string pattern.
                   const std::size_t pos = s.find(from);
                   if (pos == std::string::npos || from.empty()) return value::string(s);
                   std::string out = s.substr(0, pos) + to + s.substr(pos + from.size());
                   in.ctx().charge_transient(out.size());
                   return value::string(std::move(out));
                 })));
  proto->set("replaceAll",
             value::object(make_native_function(
                 "replaceAll", [self_string](interpreter& in, const value& self,
                                             std::span<value> args) -> value {
                   const std::string s = self_string(in, self);
                   const std::string from = require_string(args, 0, "replaceAll");
                   const std::string to = require_string(args, 1, "replaceAll");
                   if (from.empty()) return value::string(s);
                   std::string out = util::replace_all(s, from, to);
                   in.ctx().charge_transient(out.size());
                   return value::string(std::move(out));
                 })));
  proto->set("toLowerCase",
             value::object(make_native_function(
                 "toLowerCase",
                 [self_string](interpreter& in, const value& self, std::span<value>) -> value {
                   return value::string(util::to_lower(self_string(in, self)));
                 })));
  proto->set("toUpperCase",
             value::object(make_native_function(
                 "toUpperCase",
                 [self_string](interpreter& in, const value& self, std::span<value>) -> value {
                   return value::string(util::to_upper(self_string(in, self)));
                 })));
  proto->set("trim", value::object(make_native_function(
                         "trim", [self_string](interpreter& in, const value& self,
                                               std::span<value>) -> value {
                           return value::string(std::string(util::trim(self_string(in, self))));
                         })));
  proto->set("startsWith",
             value::object(make_native_function(
                 "startsWith", [self_string](interpreter& in, const value& self,
                                             std::span<value> args) -> value {
                   return value::boolean(self_string(in, self).starts_with(
                       require_string(args, 0, "startsWith")));
                 })));
  proto->set("endsWith",
             value::object(make_native_function(
                 "endsWith", [self_string](interpreter& in, const value& self,
                                           std::span<value> args) -> value {
                   return value::boolean(self_string(in, self).ends_with(
                       require_string(args, 0, "endsWith")));
                 })));
  proto->set("concat",
             value::object(make_native_function(
                 "concat", [self_string](interpreter& in, const value& self,
                                         std::span<value> args) -> value {
                   std::string out = self_string(in, self);
                   for (const value& a : args) out += a.to_string();
                   in.ctx().charge_transient(out.size());
                   return value::string(std::move(out));
                 })));
  proto->set("toString",
             value::object(make_native_function(
                 "toString", [](interpreter&, const value& self, std::span<value>) -> value {
                   return value::string(self.to_string());
                 })));

  ctx.string_proto = proto;
}

void install_array_proto(context& ctx) {
  auto proto = make_plain_object();

  auto self_array = [](const value& self) -> object_ptr {
    if (!self.is_object() || self.as_object()->kind != object_kind::array) {
      throw_js("Array method called on non-array");
    }
    return self.as_object();
  };

  proto->set("push", value::object(make_native_function(
                         "push", [self_array](interpreter& in, const value& self,
                                              std::span<value> args) -> value {
                           auto arr = self_array(self);
                           in.ctx().charge_object(*arr, args.size() * 16);
                           for (value& a : args) arr->elements.push_back(std::move(a));
                           return value::number(static_cast<double>(arr->elements.size()));
                         })));
  proto->set("pop", value::object(make_native_function(
                        "pop", [self_array](interpreter&, const value& self,
                                            std::span<value>) -> value {
                          auto arr = self_array(self);
                          if (arr->elements.empty()) return value::undefined();
                          value last = std::move(arr->elements.back());
                          arr->elements.pop_back();
                          return last;
                        })));
  proto->set("shift", value::object(make_native_function(
                          "shift", [self_array](interpreter&, const value& self,
                                                std::span<value>) -> value {
                            auto arr = self_array(self);
                            if (arr->elements.empty()) return value::undefined();
                            value first = std::move(arr->elements.front());
                            arr->elements.erase(arr->elements.begin());
                            return first;
                          })));
  proto->set("unshift",
             value::object(make_native_function(
                 "unshift", [self_array](interpreter& in, const value& self,
                                         std::span<value> args) -> value {
                   auto arr = self_array(self);
                   in.ctx().charge_object(*arr, args.size() * 16);
                   arr->elements.insert(arr->elements.begin(), args.begin(), args.end());
                   return value::number(static_cast<double>(arr->elements.size()));
                 })));
  proto->set("join", value::object(make_native_function(
                         "join", [self_array](interpreter& in, const value& self,
                                              std::span<value> args) -> value {
                           auto arr = self_array(self);
                           const std::string sep =
                               args.empty() ? "," : args[0].to_string();
                           std::string out;
                           for (std::size_t i = 0; i < arr->elements.size(); ++i) {
                             if (i > 0) out += sep;
                             if (!arr->elements[i].is_nullish()) {
                               out += arr->elements[i].to_string();
                             }
                           }
                           in.ctx().charge_transient(out.size());
                           return value::string(std::move(out));
                         })));
  proto->set("slice",
             value::object(make_native_function(
                 "slice", [self_array](interpreter& in, const value& self,
                                       std::span<value> args) -> value {
                   auto arr = self_array(self);
                   const std::size_t n = arr->elements.size();
                   auto resolve = [&](double d, std::size_t fallback) -> std::size_t {
                     if (std::isnan(d)) return fallback;
                     if (d < 0) {
                       const double adj = static_cast<double>(n) + d;
                       return adj < 0 ? 0 : static_cast<std::size_t>(adj);
                     }
                     return std::min(static_cast<std::size_t>(d), n);
                   };
                   const std::size_t a = args.empty() ? 0 : resolve(args[0].to_number(), 0);
                   const std::size_t b =
                       args.size() > 1 ? resolve(args[1].to_number(), n) : n;
                   auto out = in.ctx().make_array();
                   for (std::size_t i = a; i < b; ++i) {
                     out->elements.push_back(arr->elements[i]);
                   }
                   return value::object(out);
                 })));
  proto->set("concat",
             value::object(make_native_function(
                 "concat", [self_array](interpreter& in, const value& self,
                                        std::span<value> args) -> value {
                   auto arr = self_array(self);
                   auto out = in.ctx().make_array();
                   out->elements = arr->elements;
                   for (const value& a : args) {
                     if (a.is_object() && a.as_object()->kind == object_kind::array) {
                       for (const value& e : a.as_object()->elements) {
                         out->elements.push_back(e);
                       }
                     } else {
                       out->elements.push_back(a);
                     }
                   }
                   return value::object(out);
                 })));
  proto->set("indexOf",
             value::object(make_native_function(
                 "indexOf", [self_array](interpreter&, const value& self,
                                         std::span<value> args) -> value {
                   auto arr = self_array(self);
                   const value needle = arg_or_undefined(args, 0);
                   for (std::size_t i = 0; i < arr->elements.size(); ++i) {
                     if (arr->elements[i].strict_equals(needle)) {
                       return value::number(static_cast<double>(i));
                     }
                   }
                   return value::number(-1.0);
                 })));
  proto->set("sort",
             value::object(make_native_function(
                 "sort", [self_array](interpreter& in, const value& self,
                                      std::span<value> args) -> value {
                   auto arr = self_array(self);
                   if (!args.empty() && args[0].is_object() && args[0].as_object()->callable()) {
                     const value cmp = args[0];
                     std::stable_sort(arr->elements.begin(), arr->elements.end(),
                                      [&](const value& a, const value& b) {
                                        const value r = in.call(cmp, value::undefined(), {a, b});
                                        return r.to_number() < 0;
                                      });
                   } else {
                     std::stable_sort(arr->elements.begin(), arr->elements.end(),
                                      [](const value& a, const value& b) {
                                        return a.to_string() < b.to_string();
                                      });
                   }
                   return self;
                 })));
  proto->set("reverse", value::object(make_native_function(
                            "reverse", [self_array](interpreter&, const value& self,
                                                    std::span<value>) -> value {
                              auto arr = self_array(self);
                              std::reverse(arr->elements.begin(), arr->elements.end());
                              return self;
                            })));
  proto->set("toString",
             value::object(make_native_function(
                 "toString", [](interpreter&, const value& self, std::span<value>) -> value {
                   return value::string(self.to_string());
                 })));

  ctx.array_proto = proto;
}

void install_number_proto(context& ctx) {
  auto proto = make_plain_object();
  proto->set("toFixed",
             value::object(make_native_function(
                 "toFixed", [](interpreter&, const value& self, std::span<value> args) -> value {
                   if (!self.is_number()) throw_js("toFixed called on non-number");
                   const int digits = args.empty()
                                          ? 0
                                          : static_cast<int>(args[0].to_number());
                   char buf[64];
                   std::snprintf(buf, sizeof(buf), "%.*f",
                                 std::clamp(digits, 0, 20), self.as_number());
                   return value::string(buf);
                 })));
  proto->set("toString",
             value::object(make_native_function(
                 "toString", [](interpreter&, const value& self, std::span<value>) -> value {
                   return value::string(self.to_string());
                 })));
  ctx.number_proto = proto;
}

void install_byte_array(context& ctx) {
  auto proto = make_plain_object();

  auto self_bytes = [](const value& self) -> object_ptr {
    if (!self.is_object() || self.as_object()->kind != object_kind::byte_array) {
      throw_js("ByteArray method called on non-ByteArray");
    }
    return self.as_object();
  };

  proto->set("append",
             value::object(make_native_function(
                 "append", [self_bytes](interpreter& in, const value& self,
                                        std::span<value> args) -> value {
                   auto ba = self_bytes(self);
                   const value a = arg_or_undefined(args, 0);
                   if (a.is_object() && a.as_object()->kind == object_kind::byte_array) {
                     in.ctx().charge_object(*ba, a.as_object()->bytes.size());
                     ba->bytes.append(a.as_object()->bytes);
                   } else if (a.is_string()) {
                     in.ctx().charge_object(*ba, a.as_string().size());
                     ba->bytes.append(a.as_string());
                   } else if (a.is_number()) {
                     in.ctx().charge_object(*ba, 1);
                     ba->bytes.push_back(static_cast<std::uint8_t>(
                         static_cast<std::int64_t>(a.as_number()) & 0xff));
                   } else if (!a.is_nullish()) {
                     throw_js("ByteArray.append: unsupported argument");
                   }
                   return self;
                 })));
  proto->set("slice",
             value::object(make_native_function(
                 "slice", [self_bytes](interpreter& in, const value& self,
                                       std::span<value> args) -> value {
                   auto ba = self_bytes(self);
                   const auto start = static_cast<std::size_t>(
                       std::max(0.0, arg_or_undefined(args, 0).to_number()));
                   const std::size_t end =
                       args.size() > 1
                           ? static_cast<std::size_t>(std::max(0.0, args[1].to_number()))
                           : ba->bytes.size();
                   auto out = in.ctx().make_byte_array();
                   if (start < ba->bytes.size() && start < end) {
                     out->bytes = ba->bytes.slice(start, end - start);
                     in.ctx().charge_object(*out, out->bytes.size());
                   }
                   return value::object(out);
                 })));
  proto->set("toString",
             value::object(make_native_function(
                 "toString", [self_bytes](interpreter& in, const value& self,
                                          std::span<value>) -> value {
                   auto ba = self_bytes(self);
                   in.ctx().charge_transient(ba->bytes.size());
                   return value::string(ba->bytes.str());
                 })));

  ctx.byte_array_proto = proto;

  ctx.global()->set(
      "ByteArray",
      value::object(make_native_function(
          "ByteArray", [](interpreter& in, const value&, std::span<value> args) -> value {
            auto ba = in.ctx().make_byte_array();
            if (!args.empty() && args[0].is_string()) {
              in.ctx().charge_object(*ba, args[0].as_string().size());
              ba->bytes.append(args[0].as_string());
            }
            return value::object(ba);
          })));
}

void install_math(context& ctx) {
  auto math = make_plain_object();
  auto unary = [](const char* name, double (*fn)(double)) {
    return value::object(make_native_function(
        name, [fn](interpreter&, const value&, std::span<value> args) -> value {
          return value::number(fn(arg_or_undefined(args, 0).to_number()));
        }));
  };
  math->set("floor", unary("floor", std::floor));
  math->set("ceil", unary("ceil", std::ceil));
  math->set("round", unary("round", std::round));
  math->set("abs", unary("abs", std::fabs));
  math->set("sqrt", unary("sqrt", std::sqrt));
  math->set("log", unary("log", std::log));
  math->set("exp", unary("exp", std::exp));
  math->set("min", value::object(make_native_function(
                       "min", [](interpreter&, const value&, std::span<value> args) -> value {
                         double best = std::numeric_limits<double>::infinity();
                         for (const value& a : args) best = std::min(best, a.to_number());
                         return value::number(best);
                       })));
  math->set("max", value::object(make_native_function(
                       "max", [](interpreter&, const value&, std::span<value> args) -> value {
                         double best = -std::numeric_limits<double>::infinity();
                         for (const value& a : args) best = std::max(best, a.to_number());
                         return value::number(best);
                       })));
  math->set("pow", value::object(make_native_function(
                       "pow", [](interpreter&, const value&, std::span<value> args) -> value {
                         return value::number(std::pow(arg_or_undefined(args, 0).to_number(),
                                                       arg_or_undefined(args, 1).to_number()));
                       })));
  math->set("random",
            value::object(make_native_function(
                "random", [](interpreter& in, const value&, std::span<value>) -> value {
                  return value::number(in.ctx().random().next_double());
                })));
  math->set("PI", value::number(3.141592653589793));
  ctx.global()->set("Math", value::object(math));
}

void install_json(context& ctx) {
  auto json = make_plain_object();
  json->set("stringify",
            value::object(make_native_function(
                "stringify", [](interpreter& in, const value&, std::span<value> args) -> value {
                  std::string out = json_stringify(arg_or_undefined(args, 0));
                  in.ctx().charge_transient(out.size());
                  return value::string(std::move(out));
                })));
  json->set("parse", value::object(make_native_function(
                         "parse", [](interpreter& in, const value&,
                                     std::span<value> args) -> value {
                           return json_parse(in.ctx(), require_string(args, 0, "JSON.parse"));
                         })));
  ctx.global()->set("JSON", value::object(json));
}

void install_regexp(context& ctx) {
  // RegExp objects wrap util::pattern. Exposed as a constructor with test(),
  // search(), and exec()-lite (index only) — enough for header predicates and
  // content scanning scripts.
  ctx.global()->set(
      "RegExp",
      value::object(make_native_function(
          "RegExp", [](interpreter& in, const value&, std::span<value> args) -> value {
            const std::string source = require_string(args, 0, "RegExp");
            auto compiled = std::make_shared<util::pattern>([&]() -> util::pattern {
              try {
                return util::pattern(source);
              } catch (const std::invalid_argument& e) {
                throw_js(std::string("RegExp: ") + e.what());
              }
            }());
            auto obj = in.ctx().make_object();
            obj->set("source", value::string(source));
            obj->set("test",
                     value::object(make_native_function(
                         "test", [compiled](interpreter&, const value&,
                                            std::span<value> args2) -> value {
                           return value::boolean(
                               compiled->search(require_string(args2, 0, "test")));
                         })));
            obj->set("search",
                     value::object(make_native_function(
                         "search", [compiled](interpreter&, const value&,
                                              std::span<value> args2) -> value {
                           const std::size_t pos =
                               compiled->find(require_string(args2, 0, "search"));
                           return value::number(pos == std::string::npos
                                                    ? -1.0
                                                    : static_cast<double>(pos));
                         })));
            return value::object(obj);
          })));
}

void install_globals(context& ctx) {
  auto& global = *ctx.global();

  global.set("parseInt",
             value::object(make_native_function(
                 "parseInt", [](interpreter&, const value&, std::span<value> args) -> value {
                   const std::string s = arg_or_undefined(args, 0).to_string();
                   const int base = args.size() > 1 && args[1].is_number()
                                        ? static_cast<int>(args[1].as_number())
                                        : 10;
                   char* end = nullptr;
                   const std::string t(util::trim(s));
                   const long long v = std::strtoll(t.c_str(), &end, base);
                   if (end == t.c_str()) return value::number(std::nan(""));
                   return value::number(static_cast<double>(v));
                 })));
  global.set("parseFloat",
             value::object(make_native_function(
                 "parseFloat", [](interpreter&, const value&, std::span<value> args) -> value {
                   const std::string s(util::trim(arg_or_undefined(args, 0).to_string()));
                   char* end = nullptr;
                   const double v = std::strtod(s.c_str(), &end);
                   if (end == s.c_str()) return value::number(std::nan(""));
                   return value::number(v);
                 })));
  global.set("isNaN", value::object(make_native_function(
                          "isNaN", [](interpreter&, const value&, std::span<value> args) -> value {
                            return value::boolean(
                                std::isnan(arg_or_undefined(args, 0).to_number()));
                          })));
  global.set("String",
             value::object(make_native_function(
                 "String", [](interpreter&, const value&, std::span<value> args) -> value {
                   return value::string(arg_or_undefined(args, 0).to_string());
                 })));
  global.set("Number",
             value::object(make_native_function(
                 "Number", [](interpreter&, const value&, std::span<value> args) -> value {
                   return value::number(arg_or_undefined(args, 0).to_number());
                 })));
  global.set("Boolean",
             value::object(make_native_function(
                 "Boolean", [](interpreter&, const value&, std::span<value> args) -> value {
                   return value::boolean(arg_or_undefined(args, 0).truthy());
                 })));

  auto object_ctor = make_native_function(
      "Object", [](interpreter& in, const value&, std::span<value>) -> value {
        return value::object(in.ctx().make_object());
      });
  object_ctor->set("keys",
                   value::object(make_native_function(
                       "keys", [](interpreter& in, const value&, std::span<value> args) -> value {
                         auto arr = in.ctx().make_array();
                         const value v = arg_or_undefined(args, 0);
                         if (v.is_object()) {
                           for (const auto& p : v.as_object()->props) {
                             arr->elements.push_back(value::string(p.key));
                           }
                         }
                         return value::object(arr);
                       })));
  global.set("Object", value::object(object_ctor));

  auto array_ctor = make_native_function(
      "Array", [](interpreter& in, const value&, std::span<value> args) -> value {
        auto arr = in.ctx().make_array();
        if (args.size() == 1 && args[0].is_number()) {
          arr->elements.resize(static_cast<std::size_t>(args[0].as_number()));
        } else {
          for (const value& a : args) arr->elements.push_back(a);
        }
        return value::object(arr);
      });
  global.set("Array", value::object(array_ctor));
}

}  // namespace

void install_stdlib(context& ctx) {
  ctx.object_proto = make_plain_object();
  ctx.function_proto = make_plain_object();
  install_string_proto(ctx);
  install_array_proto(ctx);
  install_number_proto(ctx);
  install_byte_array(ctx);
  install_math(ctx);
  install_json(ctx);
  install_regexp(ctx);
  install_globals(ctx);
}

}  // namespace nakika::js
