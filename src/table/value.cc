#include "table/value.h"

#include <charconv>
#include <functional>

namespace tripriv {

std::string Value::ToDisplayString() const {
  std::string out;
  AppendDisplayString(&out);
  return out;
}

void Value::AppendDisplayString(std::string* out) const {
  if (const auto* s = std::get_if<std::string>(&data_)) {
    out->append(*s);
    return;
  }
  // Wide enough for INT64_MIN and for any "%.10g" rendering (at most 17
  // characters), so to_chars cannot run out of room.
  char buf[32];
  char* end = buf;
  if (const auto* i = std::get_if<int64_t>(&data_)) {
    end = std::to_chars(buf, buf + sizeof(buf), *i).ptr;
  } else if (const auto* d = std::get_if<double>(&data_)) {
    end = std::to_chars(buf, buf + sizeof(buf), *d, std::chars_format::general,
                        10).ptr;
  }
  out->append(buf, end);
}

bool Value::operator<(const Value& other) const {
  // Rank: null(0) < numeric(1) < string(2).
  auto rank = [](const Value& v) {
    if (v.is_null()) return 0;
    if (v.is_numeric()) return 1;
    return 2;
  };
  const int ra = rank(*this);
  const int rb = rank(other);
  if (ra != rb) return ra < rb;
  if (ra == 0) return false;  // null == null
  if (ra == 1) {
    const double a = ToDouble();
    const double b = other.ToDouble();
    if (a != b) return a < b;
    // Equal as doubles: ints before reals, for a strict weak order
    // consistent with operator== (Value(1) != Value(1.0)); two ints then
    // compare exactly, since distinct integers past 2^53 share a double.
    if (is_int() != other.is_int()) return is_int();
    return is_int() && AsInt() < other.AsInt();
  }
  return AsString() < other.AsString();
}

size_t Value::Hash() const {
  if (is_null()) return 0x9E3779B9u;
  if (is_int()) return std::hash<int64_t>{}(AsInt());
  if (is_real()) return std::hash<double>{}(AsReal());
  return std::hash<std::string>{}(AsString());
}

}  // namespace tripriv
