// Standard library installed into every fresh context: primitive prototypes
// (String/Array/Number methods), Math, JSON, Object.keys, parseInt and
// friends, the ByteArray type the paper adds to SpiderMonkey, and a RegExp
// vocabulary backed by util::pattern.
#pragma once

#include <span>
#include <string>

#include "js/value.hpp"

namespace nakika::js {

class context;
class interpreter;

void install_stdlib(context& ctx);

// ----- helpers shared by stdlib and the Na Kika vocabularies -----------------

// args[i] or undefined.
[[nodiscard]] value arg_or_undefined(std::span<value> args, std::size_t i);
// Throws a script-catchable error with the given message.
[[noreturn]] void throw_js(const std::string& message);
// Requires a string argument and returns it (valid as long as `args` is);
// throws (catchable) otherwise.
[[nodiscard]] const std::string& require_string(std::span<value> args, std::size_t i,
                                                const char* who);
[[nodiscard]] double require_number(std::span<value> args, std::size_t i, const char* who);

// JSON (subset) conversion used both by the JSON global and the hard-state
// vocabulary.
[[nodiscard]] std::string json_stringify(const value& v);
[[nodiscard]] value json_parse(context& ctx, std::string_view text);

}  // namespace nakika::js
