#pragma once
// Tiny JSON value + parser + writer for the dlapd wire protocol.
//
// Scope is deliberately small: the daemon's request bodies and responses
// are flat objects of numbers, strings and short arrays, so this is a
// straightforward recursive-descent parser (depth-limited) over a
// variant-style value. Numbers are IEEE doubles written by
// std::to_chars(general, precision 17): the standard defines that output
// as printf("%.17g")'s characters, so it round-trips every finite double
// bit-exactly -- the server's "responses bit-identical to in-process
// Engine calls" gate rides on that. Numbers are read with
// std::from_chars under the RFC 8259 grammar (no leading zeros, no bare
// '.', a digit after '.' and in the exponent); an underflowing literal
// reads as a signed zero, an overflowing one is an error. Neither
// direction depends on the process locale. Parse errors throw
// dlap::parse_error naming the byte offset; binding errors (wrong type,
// missing field) are produced by the handler layer, which names the
// field (server/handlers.hpp).

#include <cstddef>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/types.hpp"

namespace dlap::server {

class Json {
 public:
  enum class Type { Null, Bool, Number, String, Array, Object };

  Json() = default;  ///< null

  [[nodiscard]] static Json boolean(bool v);
  [[nodiscard]] static Json number(double v);
  [[nodiscard]] static Json number(index_t v);
  [[nodiscard]] static Json string(std::string v);
  [[nodiscard]] static Json array();
  [[nodiscard]] static Json object();

  /// Parses one JSON document (trailing garbage is an error). Throws
  /// dlap::parse_error as "json:<offset>: <what>".
  [[nodiscard]] static Json parse(std::string_view text);

  [[nodiscard]] Type type() const noexcept { return type_; }
  [[nodiscard]] bool is_null() const noexcept { return type_ == Type::Null; }
  [[nodiscard]] bool is_bool() const noexcept { return type_ == Type::Bool; }
  [[nodiscard]] bool is_number() const noexcept {
    return type_ == Type::Number;
  }
  [[nodiscard]] bool is_string() const noexcept {
    return type_ == Type::String;
  }
  [[nodiscard]] bool is_array() const noexcept { return type_ == Type::Array; }
  [[nodiscard]] bool is_object() const noexcept {
    return type_ == Type::Object;
  }

  /// True for a number with an integral value exactly representable in
  /// index_t (the binding layer's "expected integer" check).
  [[nodiscard]] bool is_integer() const noexcept;

  // Typed access; DLAP_REQUIRE on type mismatch (the handler layer
  // checks types first and reports field-level errors).
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] double as_number() const;
  [[nodiscard]] index_t as_integer() const;
  [[nodiscard]] const std::string& as_string() const;

  /// Array/object element count (0 for scalars).
  [[nodiscard]] std::size_t size() const noexcept;

  /// Array element (DLAP_REQUIRE bounds).
  [[nodiscard]] const Json& at(std::size_t i) const;

  /// Object member, nullptr when absent (or not an object).
  [[nodiscard]] const Json* find(std::string_view key) const;

  /// Object members in insertion order (for strict unknown-field checks).
  [[nodiscard]] const std::vector<std::pair<std::string, Json>>& members()
      const;

  /// Object insert/overwrite; returns *this for chaining. On a temporary
  /// (`Json::object().set(...).set(...)`) the chain moves the value out
  /// instead of copying the tree.
  Json& set(std::string key, Json value) &;
  Json&& set(std::string key, Json value) &&;

  /// Array append; returns *this for chaining (moved out of a temporary,
  /// as for set).
  Json& push_back(Json value) &;
  Json&& push_back(Json value) &&;

  /// Compact wire form (no whitespace; keys in insertion order).
  [[nodiscard]] std::string dump() const;

 private:
  Type type_ = Type::Null;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<Json> array_;
  std::vector<std::pair<std::string, Json>> object_;
};

}  // namespace dlap::server
