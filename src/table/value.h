// Cell values for microdata tables.
//
// A `Value` is a small tagged union: null, 64-bit integer, double, or
// string. Attribute typing lives in the Schema; Value is the dynamic
// representation used for storage, predicates, and I/O.

#pragma once

#include <cstdint>
#include <string>
#include <variant>

#include "util/logging.h"

namespace tripriv {

/// Dynamic cell value: null, integer, real, or string.
class Value {
 public:
  /// Null (missing / suppressed) value.
  Value() : data_(std::monostate{}) {}
  Value(int64_t v) : data_(v) {}             // NOLINT(runtime/explicit)
  Value(int v) : data_(int64_t{v}) {}        // NOLINT(runtime/explicit)
  Value(double v) : data_(v) {}              // NOLINT(runtime/explicit)
  Value(std::string v) : data_(std::move(v)) {}  // NOLINT(runtime/explicit)
  Value(const char* v) : data_(std::string(v)) {}  // NOLINT(runtime/explicit)

  static Value Null() { return Value(); }

  bool is_null() const { return std::holds_alternative<std::monostate>(data_); }
  bool is_int() const { return std::holds_alternative<int64_t>(data_); }
  bool is_real() const { return std::holds_alternative<double>(data_); }
  bool is_string() const { return std::holds_alternative<std::string>(data_); }
  /// True for int or real.
  bool is_numeric() const { return is_int() || is_real(); }

  /// The integer payload. Requires is_int().
  int64_t AsInt() const {
    TRIPRIV_CHECK(is_int()) << "Value::AsInt on non-integer";
    return std::get<int64_t>(data_);
  }
  /// The real payload. Requires is_real().
  double AsReal() const {
    TRIPRIV_CHECK(is_real()) << "Value::AsReal on non-real";
    return std::get<double>(data_);
  }
  /// The string payload. Requires is_string().
  const std::string& AsString() const {
    TRIPRIV_CHECK(is_string()) << "Value::AsString on non-string";
    return std::get<std::string>(data_);
  }

  /// Numeric coercion: int -> double, real -> itself. Requires is_numeric().
  double ToDouble() const {
    if (is_int()) return static_cast<double>(AsInt());
    TRIPRIV_CHECK(is_real()) << "Value::ToDouble on non-numeric";
    return AsReal();
  }

  /// Display / CSV form. Null renders as the empty string; reals use a
  /// compact representation.
  std::string ToDisplayString() const;

  /// Appends the ToDisplayString form to `*out`: integers in decimal, reals
  /// as printf's "%.10g" (std::to_chars' general format at precision 10 is
  /// defined as exactly that), strings verbatim, null as nothing.
  void AppendDisplayString(std::string* out) const;

  /// Deep equality. Integer and real payloads are distinct even when
  /// numerically equal (Value(1) != Value(1.0)).
  bool operator==(const Value& other) const { return data_ == other.data_; }
  bool operator!=(const Value& other) const { return !(*this == other); }

  /// Total order for grouping and sorting: null < numerics < strings
  /// (lexicographic). Numerics order lexicographically on (value as a
  /// double, int before real, exact integer value), so two integers past
  /// 2^53 that share a double still compare exactly.
  bool operator<(const Value& other) const;

  /// Hash compatible with operator== (used by equivalence-class grouping).
  size_t Hash() const;

 private:
  std::variant<std::monostate, int64_t, double, std::string> data_;
};

/// std::hash adapter so Value can key unordered containers.
struct ValueHash {
  size_t operator()(const Value& v) const { return v.Hash(); }
};

}  // namespace tripriv

