#include "sim/json.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ostream>
#include <sstream>

namespace hwatch::sim {

std::uint64_t Json::as_uint() const {
  switch (type_) {
    case Type::kUint:
      return uint_;
    case Type::kInt:
      return int_ < 0 ? 0 : static_cast<std::uint64_t>(int_);
    case Type::kDouble:
      return dbl_ < 0 ? 0 : static_cast<std::uint64_t>(dbl_);
    default:
      return 0;
  }
}

std::int64_t Json::as_int() const {
  switch (type_) {
    case Type::kUint:
      return static_cast<std::int64_t>(uint_);
    case Type::kInt:
      return int_;
    case Type::kDouble:
      return static_cast<std::int64_t>(dbl_);
    default:
      return 0;
  }
}

double Json::as_double() const {
  switch (type_) {
    case Type::kUint:
      return static_cast<double>(uint_);
    case Type::kInt:
      return static_cast<double>(int_);
    case Type::kDouble:
      return dbl_;
    default:
      return 0;
  }
}

Json& Json::set(std::string key, Json v) {
  type_ = Type::kObject;
  for (auto& [k, existing] : obj_) {
    if (k == key) {
      existing = std::move(v);
      return existing;
    }
  }
  obj_.emplace_back(std::move(key), std::move(v));
  return obj_.back().second;
}

const Json* Json::find(std::string_view key) const {
  for (const auto& [k, v] : obj_) {
    if (k == key) return &v;
  }
  return nullptr;
}

void Json::write_escaped(std::ostream& os, std::string_view s) {
  os << '"';
  for (const char c : s) {
    switch (c) {
      case '"':
        os << "\\\"";
        break;
      case '\\':
        os << "\\\\";
        break;
      case '\n':
        os << "\\n";
        break;
      case '\r':
        os << "\\r";
        break;
      case '\t':
        os << "\\t";
        break;
      case '\b':
        os << "\\b";
        break;
      case '\f':
        os << "\\f";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          os << buf;
        } else {
          os << c;
        }
    }
  }
  os << '"';
}

namespace {

void write_double(std::ostream& os, double d) {
  if (!std::isfinite(d)) {
    // JSON has no inf/nan; null is the conventional stand-in.
    os << "null";
    return;
  }
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", d);
  os << buf;
}

void write_newline_indent(std::ostream& os, int indent, int depth) {
  os << '\n';
  for (int i = 0; i < indent * depth; ++i) os << ' ';
}

}  // namespace

void Json::dump(std::ostream& os, int indent, int depth) const {
  switch (type_) {
    case Type::kNull:
      os << "null";
      return;
    case Type::kBool:
      os << (bool_ ? "true" : "false");
      return;
    case Type::kUint:
      os << uint_;
      return;
    case Type::kInt:
      os << int_;
      return;
    case Type::kDouble:
      write_double(os, dbl_);
      return;
    case Type::kString:
      write_escaped(os, str_);
      return;
    case Type::kArray: {
      os << '[';
      for (std::size_t i = 0; i < arr_.size(); ++i) {
        if (i > 0) os << (indent >= 0 ? ", " : ",");
        arr_[i].dump(os, indent, depth + 1);
      }
      os << ']';
      return;
    }
    case Type::kObject: {
      os << '{';
      for (std::size_t i = 0; i < obj_.size(); ++i) {
        if (i > 0) os << ',';
        if (indent >= 0) {
          write_newline_indent(os, indent, depth + 1);
        }
        write_escaped(os, obj_[i].first);
        os << (indent >= 0 ? ": " : ":");
        obj_[i].second.dump(os, indent, depth + 1);
      }
      if (indent >= 0 && !obj_.empty()) {
        write_newline_indent(os, indent, depth);
      }
      os << '}';
      return;
    }
  }
}

std::string Json::dump(int indent) const {
  std::ostringstream os;
  dump(os, indent, 0);
  return os.str();
}

// ---------------------------------------------------------------- parser

namespace {

struct Parser {
  std::string_view text;
  std::size_t pos = 0;
  std::string error;

  bool fail(const std::string& msg) {
    if (error.empty()) {
      error = msg + " at offset " + std::to_string(pos);
    }
    return false;
  }

  void skip_ws() {
    while (pos < text.size() &&
           (text[pos] == ' ' || text[pos] == '\t' || text[pos] == '\n' ||
            text[pos] == '\r')) {
      ++pos;
    }
  }

  bool consume(char c) {
    if (pos < text.size() && text[pos] == c) {
      ++pos;
      return true;
    }
    return false;
  }

  bool parse_value(Json& out) {
    skip_ws();
    if (pos >= text.size()) return fail("unexpected end of input");
    const char c = text[pos];
    if (c == '{') return parse_object(out);
    if (c == '[') return parse_array(out);
    if (c == '"') return parse_string_value(out);
    if (c == 't' || c == 'f') return parse_bool(out);
    if (c == 'n') return parse_null(out);
    return parse_number(out);
  }

  bool parse_literal(std::string_view lit) {
    if (text.substr(pos, lit.size()) != lit) {
      return fail("invalid literal");
    }
    pos += lit.size();
    return true;
  }

  bool parse_bool(Json& out) {
    if (text[pos] == 't') {
      if (!parse_literal("true")) return false;
      out = Json(true);
    } else {
      if (!parse_literal("false")) return false;
      out = Json(false);
    }
    return true;
  }

  bool parse_null(Json& out) {
    if (!parse_literal("null")) return false;
    out = Json();
    return true;
  }

  bool parse_string(std::string& out) {
    if (!consume('"')) return fail("expected '\"'");
    out.clear();
    while (pos < text.size()) {
      const char c = text[pos++];
      if (c == '"') return true;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos >= text.size()) return fail("truncated escape");
      const char esc = text[pos++];
      switch (esc) {
        case '"':
          out += '"';
          break;
        case '\\':
          out += '\\';
          break;
        case '/':
          out += '/';
          break;
        case 'n':
          out += '\n';
          break;
        case 'r':
          out += '\r';
          break;
        case 't':
          out += '\t';
          break;
        case 'b':
          out += '\b';
          break;
        case 'f':
          out += '\f';
          break;
        case 'u': {
          if (pos + 4 > text.size()) return fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text[pos++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              return fail("bad \\u escape");
            }
          }
          // UTF-8 encode (no surrogate-pair combining; the writer never
          // emits surrogates, so round-trips are exact for our files).
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default:
          return fail("bad escape");
      }
    }
    return fail("unterminated string");
  }

  bool parse_string_value(Json& out) {
    std::string s;
    if (!parse_string(s)) return false;
    out = Json(std::move(s));
    return true;
  }

  bool parse_number(Json& out) {
    const std::size_t start = pos;
    if (pos < text.size() && (text[pos] == '-' || text[pos] == '+')) ++pos;
    bool integral = true;
    while (pos < text.size()) {
      const char c = text[pos];
      if (std::isdigit(static_cast<unsigned char>(c))) {
        ++pos;
      } else if (c == '.' || c == 'e' || c == 'E' || c == '-' || c == '+') {
        integral = c == '-' || c == '+' ? integral : false;
        ++pos;
      } else {
        break;
      }
    }
    if (pos == start) return fail("expected a value");
    const std::string token(text.substr(start, pos - start));
    errno = 0;
    char* end = nullptr;
    if (integral) {
      if (token[0] == '-') {
        const long long v = std::strtoll(token.c_str(), &end, 10);
        if (errno == 0 && end == token.c_str() + token.size()) {
          out = Json(static_cast<std::int64_t>(v));
          return true;
        }
      } else {
        const unsigned long long v = std::strtoull(token.c_str(), &end, 10);
        if (errno == 0 && end == token.c_str() + token.size()) {
          out = Json(static_cast<std::uint64_t>(v));
          return true;
        }
      }
    }
    errno = 0;
    const double d = std::strtod(token.c_str(), &end);
    if (errno != 0 || end != token.c_str() + token.size()) {
      return fail("bad number '" + token + "'");
    }
    out = Json(d);
    return true;
  }

  bool parse_array(Json& out) {
    consume('[');
    out = Json::array();
    skip_ws();
    if (consume(']')) return true;
    for (;;) {
      Json v;
      if (!parse_value(v)) return false;
      out.push_back(std::move(v));
      skip_ws();
      if (consume(']')) return true;
      if (!consume(',')) return fail("expected ',' or ']'");
    }
  }

  bool parse_object(Json& out) {
    consume('{');
    out = Json::object();
    skip_ws();
    if (consume('}')) return true;
    for (;;) {
      skip_ws();
      std::string key;
      if (!parse_string(key)) return false;
      skip_ws();
      if (!consume(':')) return fail("expected ':'");
      Json v;
      if (!parse_value(v)) return false;
      out.set(std::move(key), std::move(v));
      skip_ws();
      if (consume('}')) return true;
      if (!consume(',')) return fail("expected ',' or '}'");
    }
  }
};

}  // namespace

Json Json::parse(std::string_view text, std::string* error) {
  Parser p{text, 0, {}};
  Json out;
  if (!p.parse_value(out)) {
    if (error) *error = p.error;
    return Json();
  }
  p.skip_ws();
  if (p.pos != text.size()) {
    if (error) *error = "trailing data at offset " + std::to_string(p.pos);
    return Json();
  }
  if (error) error->clear();
  return out;
}

}  // namespace hwatch::sim
