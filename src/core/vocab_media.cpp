// Media vocabularies: ImageTransformer (paper Fig. 2) and XmlTransformer
// (the SIMM XML→HTML rendering off-loaded to the edge, paper §5.2). The
// image operations charge interpreter ops proportional to pixels touched so
// the resource manager sees transcoding as CPU work.
#include <optional>

#include "core/vocabulary.hpp"
#include "js/stdlib.hpp"
#include "media/image.hpp"
#include "media/xsl.hpp"

namespace nakika::core {

using js::arg_or_undefined;
using js::make_native_function;
using js::require_string;
using js::throw_js;
using js::value;

namespace {

std::span<const std::uint8_t> require_bytes(std::span<value> args, std::size_t i,
                                            const char* who) {
  if (i >= args.size() || !args[i].is_object() ||
      args[i].as_object()->kind != js::object_kind::byte_array) {
    throw_js(std::string(who) + ": argument " + std::to_string(i + 1) +
             " must be a ByteArray");
  }
  return args[i].as_object()->bytes.span();
}

}  // namespace

void install_media_vocabulary(js::context& ctx, exec_binding_ptr binding) {
  (void)binding;  // media operations are stateless w.r.t. the pipeline

  auto transformer = js::make_plain_object();

  // type(contentType) -> "jpeg" | "png" | "gif" | "raw" | null
  transformer->set("type",
                   value::object(make_native_function(
                       "type", [](js::interpreter&, const value&,
                                  std::span<value> args) -> value {
                         const std::string mime = require_string(args, 0, "type");
                         const auto f = media::format_from_mime(mime);
                         if (!f) return value::null();
                         return value::string(std::string(media::to_string(*f)));
                       })));
  // dimensions(body, type) -> { x, y }
  transformer->set(
      "dimensions",
      value::object(make_native_function(
          "dimensions",
          [](js::interpreter& in, const value&, std::span<value> args) -> value {
            const auto bytes = require_bytes(args, 0, "dimensions");
            const auto dims = media::read_dimensions(bytes);
            if (!dims) throw_js("ImageTransformer.dimensions: not an image");
            auto obj = in.ctx().make_object();
            obj->set("x", value::number(dims->width));
            obj->set("y", value::number(dims->height));
            return value::object(obj);
          })));
  // transform(body, type, targetType, maxWidth, maxHeight) -> ByteArray
  transformer->set(
      "transform",
      value::object(make_native_function(
          "transform",
          [](js::interpreter& in, const value&, std::span<value> args) -> value {
            const auto bytes = require_bytes(args, 0, "transform");
            const std::string target_name = require_string(args, 2, "transform");
            const auto target = media::format_from_name(target_name);
            if (!target) {
              throw_js("ImageTransformer.transform: unknown format '" + target_name + "'");
            }
            const double max_w = arg_or_undefined(args, 3).to_number();
            const double max_h = arg_or_undefined(args, 4).to_number();
            if (!(max_w >= 1) || !(max_h >= 1)) {
              throw_js("ImageTransformer.transform: bad target dimensions");
            }
            const media::transcode_result result = media::transcode_to_fit(
                bytes, *target, static_cast<std::uint32_t>(max_w),
                static_cast<std::uint32_t>(max_h));
            if (!result.ok) {
              throw_js("ImageTransformer.transform: " + result.error);
            }
            // Account the pixel work as interpreter ops (1 op per 64 pixels
            // keeps the exchange rate comparable to script arithmetic).
            in.ctx().add_ops(static_cast<std::uint64_t>(result.dims.width) *
                                 result.dims.height / 64 +
                             1, 0);
            auto out = in.ctx().make_byte_array();
            out->bytes = std::move(result.data);
            in.ctx().charge_object(*out, out->bytes.size());
            return value::object(out);
          })));
  ctx.global()->set("ImageTransformer", value::object(transformer));

  auto xml = js::make_plain_object();
  // render(documentXml, stylesheetXml) -> string. A site renders every page
  // with the same stylesheet, so the last one compiled is kept, keyed by its
  // exact text. The memo belongs to this sandbox's function object: it is
  // freed with the sandbox and, like the sandbox, used by one thread and one
  // site at a time, so it takes no lock. A stylesheet that fails to compile
  // is not kept.
  struct stylesheet_memo {
    std::string source;
    std::optional<media::xsl_stylesheet> sheet;
  };
  auto memo = std::make_shared<stylesheet_memo>();
  xml->set("render",
           value::object(make_native_function(
               "render", [memo](js::interpreter& in, const value&,
                                std::span<value> args) -> value {
                 const std::string& doc = require_string(args, 0, "render");
                 const std::string& sheet = require_string(args, 1, "render");
                 try {
                   if (!memo->sheet || memo->source != sheet) {
                     media::xsl_stylesheet compiled = media::xsl_stylesheet::parse(sheet);
                     memo->source = sheet;
                     memo->sheet = std::move(compiled);
                   }
                   std::string out = memo->sheet->apply(*media::parse_xml(doc));
                   in.ctx().charge_transient(out.size());
                   in.ctx().add_ops(doc.size() / 16 + 1, 0);
                   return value::string(std::move(out));
                 } catch (const std::invalid_argument& e) {
                   throw_js(std::string("XmlTransformer.render: ") + e.what());
                 }
               })));
  // parse-and-reserialize round trip, for scripts that only restructure
  xml->set("canonicalize",
           value::object(make_native_function(
               "canonicalize", [](js::interpreter& in, const value&,
                                  std::span<value> args) -> value {
                 const std::string doc = require_string(args, 0, "canonicalize");
                 try {
                   std::string out = media::serialize_xml(*media::parse_xml(doc));
                   in.ctx().charge_transient(out.size());
                   return value::string(std::move(out));
                 } catch (const std::invalid_argument& e) {
                   throw_js(std::string("XmlTransformer.canonicalize: ") + e.what());
                 }
               })));
  ctx.global()->set("XmlTransformer", value::object(xml));
}

}  // namespace nakika::core
