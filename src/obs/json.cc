#include "src/obs/json.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

namespace rubberband {

namespace {

void AppendUtf8(std::string& out, unsigned code_point) {
  if (code_point < 0x80) {
    out.push_back(static_cast<char>(code_point));
  } else if (code_point < 0x800) {
    out.push_back(static_cast<char>(0xC0 | (code_point >> 6)));
    out.push_back(static_cast<char>(0x80 | (code_point & 0x3F)));
  } else {
    out.push_back(static_cast<char>(0xE0 | (code_point >> 12)));
    out.push_back(static_cast<char>(0x80 | ((code_point >> 6) & 0x3F)));
    out.push_back(static_cast<char>(0x80 | (code_point & 0x3F)));
  }
}

}  // namespace

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  JsonValue Parse() {
    JsonValue value = ParseValue();
    SkipWhitespace();
    if (pos_ != text_.size()) {
      Fail("trailing characters after the document");
    }
    return value;
  }

 private:
  [[noreturn]] void Fail(const std::string& what) const {
    throw std::invalid_argument("JSON parse error at byte " + std::to_string(pos_) + ": " + what);
  }

  void SkipWhitespace() {
    while (pos_ < text_.size() && std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  char Peek() {
    if (pos_ >= text_.size()) {
      Fail("unexpected end of input");
    }
    return text_[pos_];
  }

  void Expect(char c) {
    if (Peek() != c) {
      Fail(std::string("expected '") + c + "', found '" + text_[pos_] + "'");
    }
    ++pos_;
  }

  bool Consume(const char* literal) {
    const size_t n = std::char_traits<char>::length(literal);
    if (text_.compare(pos_, n, literal) == 0) {
      pos_ += n;
      return true;
    }
    return false;
  }

  JsonValue ParseValue() {
    SkipWhitespace();
    switch (Peek()) {
      case '{':
      case '[':
        return ParseNested();
      case '"':
        return JsonValue::MakeString(ParseString());
      case 't':
        if (!Consume("true")) Fail("invalid literal");
        return JsonValue::MakeBool(true);
      case 'f':
        if (!Consume("false")) Fail("invalid literal");
        return JsonValue::MakeBool(false);
      case 'n':
        if (!Consume("null")) Fail("invalid literal");
        return JsonValue::MakeNull();
      default:
        return ParseNumber();
    }
  }

  // Arrays and objects recurse: the depth bound keeps untrusted input (every
  // wire request) from exhausting the stack with a long run of '['.
  JsonValue ParseNested() {
    if (++depth_ > kMaxDepth) {
      Fail("nesting deeper than " + std::to_string(kMaxDepth) + " levels");
    }
    JsonValue value = text_[pos_] == '{' ? ParseObject() : ParseArray();
    --depth_;
    return value;
  }

  JsonValue ParseObject() {
    Expect('{');
    JsonValue value;
    value.type_ = JsonValue::Type::kObject;
    SkipWhitespace();
    if (Peek() == '}') {
      ++pos_;
      return value;
    }
    while (true) {
      SkipWhitespace();
      std::string key = ParseString();
      SkipWhitespace();
      Expect(':');
      value.object_[std::move(key)] = ParseValue();
      SkipWhitespace();
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      Expect('}');
      return value;
    }
  }

  JsonValue ParseArray() {
    Expect('[');
    JsonValue value;
    value.type_ = JsonValue::Type::kArray;
    SkipWhitespace();
    if (Peek() == ']') {
      ++pos_;
      return value;
    }
    while (true) {
      value.array_.push_back(ParseValue());
      SkipWhitespace();
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      Expect(']');
      return value;
    }
  }

  std::string ParseString() {
    Expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) {
        Fail("unterminated string");
      }
      const char c = text_[pos_++];
      if (c == '"') {
        return out;
      }
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) {
        Fail("unterminated escape");
      }
      const char escape = text_[pos_++];
      switch (escape) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) {
            Fail("truncated \\u escape");
          }
          unsigned code_point = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code_point <<= 4;
            if (h >= '0' && h <= '9') {
              code_point |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code_point |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code_point |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              Fail("invalid \\u escape");
            }
          }
          AppendUtf8(out, code_point);
          break;
        }
        default:
          Fail("unknown escape");
      }
    }
  }

  JsonValue ParseNumber() {
    const size_t start = pos_;
    if (Peek() == '-') {
      ++pos_;
    }
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E' || text_[pos_] == '+' ||
            text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) {
      Fail("expected a value");
    }
    const std::string token = text_.substr(start, pos_ - start);
    char* end = nullptr;
    const double value = std::strtod(token.c_str(), &end);
    if (end == nullptr || *end != '\0') {
      pos_ = start;
      Fail("malformed number '" + token + "'");
    }
    if (std::isinf(value)) {
      // JSON has no infinities: a literal past the double range would
      // otherwise round-trip as the non-JSON token `inf`.
      pos_ = start;
      Fail("number '" + token + "' out of range");
    }
    return JsonValue::MakeNumber(value);
  }

  static constexpr int kMaxDepth = 64;

  const std::string& text_;
  size_t pos_ = 0;
  int depth_ = 0;
};

JsonValue JsonValue::Parse(const std::string& text) { return JsonParser(text).Parse(); }

JsonValue JsonValue::MakeBool(bool value) {
  JsonValue v;
  v.type_ = Type::kBool;
  v.bool_ = value;
  return v;
}

JsonValue JsonValue::MakeNumber(double value) {
  JsonValue v;
  v.type_ = Type::kNumber;
  v.number_ = value;
  return v;
}

JsonValue JsonValue::MakeString(std::string value) {
  JsonValue v;
  v.type_ = Type::kString;
  v.string_ = std::move(value);
  return v;
}

JsonValue JsonValue::MakeArray() {
  JsonValue v;
  v.type_ = Type::kArray;
  return v;
}

JsonValue JsonValue::MakeObject() {
  JsonValue v;
  v.type_ = Type::kObject;
  return v;
}

JsonValue& JsonValue::Set(const std::string& key, JsonValue value) {
  if (type_ != Type::kObject) {
    *this = MakeObject();
  }
  object_[key] = std::move(value);
  return *this;
}

JsonValue& JsonValue::Append(JsonValue value) {
  if (type_ != Type::kArray) {
    *this = MakeArray();
  }
  array_.push_back(std::move(value));
  return *this;
}

namespace {

void AppendNumber(std::string& out, double value) {
  // Integral values in the exact double range print as integers; the rest
  // use %.17g, which round-trips any double through the parser.
  if (std::abs(value) < 9e15 && value == static_cast<double>(static_cast<int64_t>(value))) {
    out += std::to_string(static_cast<int64_t>(value));
    return;
  }
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  out += buffer;
}

void AppendValue(std::string& out, const JsonValue& value) {
  switch (value.type()) {
    case JsonValue::Type::kNull:
      out += "null";
      return;
    case JsonValue::Type::kBool:
      out += value.bool_value() ? "true" : "false";
      return;
    case JsonValue::Type::kNumber:
      AppendNumber(out, value.number());
      return;
    case JsonValue::Type::kString:
      out += '"';
      out += JsonEscape(value.string());
      out += '"';
      return;
    case JsonValue::Type::kArray: {
      out += '[';
      bool first = true;
      for (const JsonValue& element : value.array()) {
        if (!first) {
          out += ',';
        }
        first = false;
        AppendValue(out, element);
      }
      out += ']';
      return;
    }
    case JsonValue::Type::kObject: {
      out += '{';
      bool first = true;
      for (const auto& [key, member] : value.object()) {
        if (!first) {
          out += ',';
        }
        first = false;
        out += '"';
        out += JsonEscape(key);
        out += "\":";
        AppendValue(out, member);
      }
      out += '}';
      return;
    }
  }
}

}  // namespace

std::string JsonValue::ToJson() const {
  std::string out;
  AppendValue(out, *this);
  return out;
}

bool JsonValue::operator==(const JsonValue& other) const {
  if (type_ != other.type_) {
    return false;
  }
  switch (type_) {
    case Type::kNull:
      return true;
    case Type::kBool:
      return bool_ == other.bool_;
    case Type::kNumber:
      return number_ == other.number_;
    case Type::kString:
      return string_ == other.string_;
    case Type::kArray:
      return array_ == other.array_;
    case Type::kObject:
      return object_ == other.object_;
  }
  return false;
}

std::string JsonEscape(const std::string& raw) {
  std::string out;
  out.reserve(raw.size());
  for (const char c : raw) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x", c);
          out += buffer;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

}  // namespace rubberband
