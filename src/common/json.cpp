#include "common/json.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "common/error.h"

namespace otem {

Json& Json::set(const std::string& key, Json value) {
  OTEM_REQUIRE(type_ == Type::kObject, "Json::set on a non-object");
  for (auto& [k, v] : members_) {
    if (k == key) {
      v = std::move(value);
      return *this;
    }
  }
  members_.emplace_back(key, std::move(value));
  return *this;
}

Json& Json::push(Json value) {
  OTEM_REQUIRE(type_ == Type::kArray, "Json::push on a non-array");
  items_.push_back(std::move(value));
  return *this;
}

Json Json::numbers(const std::vector<double>& values) {
  Json j = array();
  for (double v : values) j.push(Json(v));
  return j;
}

bool Json::as_bool() const {
  OTEM_REQUIRE(type_ == Type::kBool, "Json::as_bool on a non-bool");
  return bool_;
}

double Json::as_number() const {
  OTEM_REQUIRE(type_ == Type::kNumber, "Json::as_number on a non-number");
  return number_;
}

const std::string& Json::as_string() const {
  OTEM_REQUIRE(type_ == Type::kString, "Json::as_string on a non-string");
  return string_;
}

const Json* Json::find(const std::string& key) const {
  if (type_ != Type::kObject) return nullptr;
  for (const auto& [k, v] : members_) {
    if (k == key) return &v;
  }
  return nullptr;
}

const Json& Json::at(size_t index) const {
  OTEM_REQUIRE(type_ == Type::kArray, "Json::at on a non-array");
  OTEM_REQUIRE(index < items_.size(), "Json::at index out of range");
  return items_[index];
}

size_t Json::size() const {
  switch (type_) {
    case Type::kArray:
      return items_.size();
    case Type::kObject:
      return members_.size();
    default:
      return 0;
  }
}

void append_json_number(std::string& out, double v) {
  if (!std::isfinite(v)) {
    out += "null";
    return;
  }
  // The longest "%.12g" spelling, "-1.23456789012e-308", is 19 bytes.
  char buf[32];
  const std::to_chars_result r = std::to_chars(
      buf, buf + sizeof(buf), v, std::chars_format::general, 12);
  out.append(buf, r.ptr);
}

void append_g17(std::string& out, double v) {
  // The longest "%.17g" spelling, "-1.2345678901234567e-308", is 24 bytes.
  char buf[32];
  const std::to_chars_result r = std::to_chars(
      buf, buf + sizeof(buf), v, std::chars_format::general, 17);
  out.append(buf, r.ptr);
}

void append_json_string(std::string& out, std::string_view s) {
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\b':
        out += "\\b";
        break;
      case '\f':
        out += "\\f";
        break;
      default:
        // Remaining control characters (U+0000–U+001F) must be escaped
        // or the emitted document stops being one well-formed line.
        // The unsigned casts matter: passing a signed char straight to
        // %04x sign-extends, turning high bytes into 8-digit escapes.
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

namespace {
void append_newline_indent(std::string& out, int indent, int depth) {
  if (indent <= 0) return;
  out += '\n';
  out.append(static_cast<size_t>(indent) * depth, ' ');
}
}  // namespace

void Json::dump_to(std::string& out, int indent, int depth) const {
  switch (type_) {
    case Type::kNull:
      out += "null";
      return;
    case Type::kBool:
      out += bool_ ? "true" : "false";
      return;
    case Type::kNumber:
      append_json_number(out, number_);
      return;
    case Type::kString:
      append_json_string(out, string_);
      return;
    case Type::kArray: {
      if (items_.empty()) {
        out += "[]";
        return;
      }
      out += '[';
      for (size_t i = 0; i < items_.size(); ++i) {
        if (i) out += ',';
        append_newline_indent(out, indent, depth + 1);
        items_[i].dump_to(out, indent, depth + 1);
      }
      append_newline_indent(out, indent, depth);
      out += ']';
      return;
    }
    case Type::kObject: {
      if (members_.empty()) {
        out += "{}";
        return;
      }
      out += '{';
      for (size_t i = 0; i < members_.size(); ++i) {
        if (i) out += ',';
        append_newline_indent(out, indent, depth + 1);
        append_json_string(out, members_[i].first);
        out += indent > 0 ? ": " : ":";
        members_[i].second.dump_to(out, indent, depth + 1);
      }
      append_newline_indent(out, indent, depth);
      out += '}';
      return;
    }
  }
}

std::string Json::dump(int indent) const {
  std::string out;
  dump_to(out, indent, 0);
  return out;
}

namespace {

/// Strict recursive-descent JSON reader over a string_view. Errors
/// carry the byte offset so a malformed serve frame can be reported
/// precisely without echoing untrusted bytes back raw.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Json parse_document() {
    skip_ws();
    Json value = parse_value(0);
    skip_ws();
    if (pos_ != text_.size()) fail("trailing garbage after JSON document");
    return value;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw SimError("JSON parse error at byte " + std::to_string(pos_) + ": " +
                   what);
  }

  bool eof() const { return pos_ >= text_.size(); }
  char peek() const { return text_[pos_]; }

  char next() {
    if (eof()) fail("unexpected end of input");
    return text_[pos_++];
  }

  void expect(char c) {
    if (eof() || text_[pos_] != c)
      fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  void skip_ws() {
    while (!eof()) {
      const char c = peek();
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  Json parse_value(int depth) {
    if (depth > Json::kMaxParseDepth) fail("nesting too deep");
    if (eof()) fail("unexpected end of input");
    switch (peek()) {
      case 'n':
        if (!consume_literal("null")) fail("invalid literal");
        return Json();
      case 't':
        if (!consume_literal("true")) fail("invalid literal");
        return Json(true);
      case 'f':
        if (!consume_literal("false")) fail("invalid literal");
        return Json(false);
      case '"':
        return Json(parse_string());
      case '[':
        return parse_array(depth);
      case '{':
        return parse_object(depth);
      default:
        return parse_number();
    }
  }

  Json parse_array(int depth) {
    expect('[');
    Json arr = Json::array();
    skip_ws();
    if (!eof() && peek() == ']') {
      ++pos_;
      return arr;
    }
    for (;;) {
      skip_ws();
      arr.push(parse_value(depth + 1));
      skip_ws();
      const char c = next();
      if (c == ']') return arr;
      if (c != ',') fail("expected ',' or ']' in array");
    }
  }

  Json parse_object(int depth) {
    expect('{');
    Json obj = Json::object();
    skip_ws();
    if (!eof() && peek() == '}') {
      ++pos_;
      return obj;
    }
    for (;;) {
      skip_ws();
      if (eof() || peek() != '"') fail("expected string key in object");
      std::string key = parse_string();
      skip_ws();
      expect(':');
      skip_ws();
      obj.set(key, parse_value(depth + 1));
      skip_ws();
      const char c = next();
      if (c == '}') return obj;
      if (c != ',') fail("expected ',' or '}' in object");
    }
  }

  unsigned parse_hex4() {
    unsigned code = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = next();
      code <<= 4;
      if (c >= '0' && c <= '9')
        code |= static_cast<unsigned>(c - '0');
      else if (c >= 'a' && c <= 'f')
        code |= static_cast<unsigned>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F')
        code |= static_cast<unsigned>(c - 'A' + 10);
      else
        fail("invalid \\u escape digit");
    }
    return code;
  }

  void append_utf8(std::string& out, unsigned cp) {
    if (cp < 0x80) {
      out += static_cast<char>(cp);
    } else if (cp < 0x800) {
      out += static_cast<char>(0xC0 | (cp >> 6));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else if (cp < 0x10000) {
      out += static_cast<char>(0xE0 | (cp >> 12));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else {
      out += static_cast<char>(0xF0 | (cp >> 18));
      out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      const char c = next();
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20)
        fail("raw control character in string");
      if (c != '\\') {
        out += c;
        continue;
      }
      const char esc = next();
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          unsigned cp = parse_hex4();
          if (cp >= 0xD800 && cp <= 0xDBFF) {
            // High surrogate: must pair with a low surrogate escape.
            if (next() != '\\' || next() != 'u')
              fail("unpaired UTF-16 surrogate");
            const unsigned lo = parse_hex4();
            if (lo < 0xDC00 || lo > 0xDFFF)
              fail("invalid UTF-16 surrogate pair");
            cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
          } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
            fail("unpaired UTF-16 surrogate");
          }
          append_utf8(out, cp);
          break;
        }
        default:
          fail("invalid escape character");
      }
    }
  }

  Json parse_number() {
    const size_t start = pos_;
    if (!eof() && peek() == '-') ++pos_;
    const auto digits = [&] {
      size_t n = 0;
      while (!eof() && peek() >= '0' && peek() <= '9') ++pos_, ++n;
      return n;
    };
    // Integer part: a lone 0, or a nonzero digit followed by more.
    if (eof()) fail("invalid number");
    if (peek() == '0') {
      ++pos_;
    } else if (digits() == 0) {
      fail("invalid number");
    }
    if (!eof() && peek() == '.') {
      ++pos_;
      if (digits() == 0) fail("invalid number: missing fraction digits");
    }
    if (!eof() && (peek() == 'e' || peek() == 'E')) {
      ++pos_;
      if (!eof() && (peek() == '+' || peek() == '-')) ++pos_;
      if (digits() == 0) fail("invalid number: missing exponent digits");
    }
    const std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    const double v = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) fail("invalid number");
    // A literal cannot spell infinity, so an infinite value overflowed.
    if (std::isinf(v)) fail("number out of double range");
    return Json(v);
  }

  std::string_view text_;
  size_t pos_ = 0;
};

}  // namespace

Json Json::parse(std::string_view text) {
  return Parser(text).parse_document();
}

void write_json_file(const std::string& path, const Json& value) {
  std::ofstream f(path);
  OTEM_REQUIRE(f.good(), "cannot open JSON output file: " + path);
  f << value.dump() << '\n';
}

}  // namespace otem
