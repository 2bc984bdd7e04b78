#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "adm/value.h"

namespace simdb::adm {
namespace {

void AppendEscaped(const std::string& s, std::string* out) {
  out->push_back('"');
  for (char c : s) {
    switch (c) {
      case '"':
        out->append("\\\"");
        break;
      case '\\':
        out->append("\\\\");
        break;
      case '\n':
        out->append("\\n");
        break;
      case '\r':
        out->append("\\r");
        break;
      case '\t':
        out->append("\\t");
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out->append(buf);
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

void ToJsonImpl(const Value& v, std::string* out) {
  switch (v.type()) {
    case ValueType::kMissing:
      out->append("missing");
      return;
    case ValueType::kNull:
      out->append("null");
      return;
    case ValueType::kBoolean:
      out->append(v.AsBoolean() ? "true" : "false");
      return;
    case ValueType::kInt64:
      out->append(std::to_string(v.AsInt64()));
      return;
    case ValueType::kDouble: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.17g", v.AsDoubleExact());
      out->append(buf);
      return;
    }
    case ValueType::kString:
      AppendEscaped(v.AsString(), out);
      return;
    case ValueType::kArray:
    case ValueType::kMultiset: {
      bool multiset = v.is_multiset();
      out->append(multiset ? "{{" : "[");
      bool first = true;
      for (const Value& item : v.AsList()) {
        if (!first) out->push_back(',');
        first = false;
        ToJsonImpl(item, out);
      }
      out->append(multiset ? "}}" : "]");
      return;
    }
    case ValueType::kObject: {
      out->push_back('{');
      bool first = true;
      for (const Value::Field& f : v.AsObject()) {
        if (!first) out->push_back(',');
        first = false;
        AppendEscaped(f.first, out);
        out->push_back(':');
        ToJsonImpl(f.second, out);
      }
      out->push_back('}');
      return;
    }
  }
}

/// Minimal recursive-descent JSON parser with the ADM `{{ ... }}` multiset
/// extension. Does not decode \uXXXX beyond Latin-1 (sufficient for the
/// synthetic datasets and tests).
class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text), pos_(0) {}

  Result<Value> Parse() {
    SIMDB_ASSIGN_OR_RETURN(Value v, ParseValue());
    SkipWhitespace();
    if (pos_ != text_.size()) {
      return Err("trailing characters after JSON value");
    }
    return v;
  }

 private:
  Status Err(const std::string& msg) const {
    return Status::ParseError(msg + " at offset " + std::to_string(pos_));
  }

  void SkipWhitespace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    SkipWhitespace();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ConsumeWord(std::string_view w) {
    SkipWhitespace();
    if (text_.substr(pos_, w.size()) == w) {
      pos_ += w.size();
      return true;
    }
    return false;
  }

  Result<Value> ParseValue() {
    SkipWhitespace();
    if (pos_ >= text_.size()) return Err("unexpected end of input");
    char c = text_[pos_];
    if (c == '{' || c == '[') {
      if (depth_ == kMaxJsonDepth) {
        return Err("nesting deeper than " + std::to_string(kMaxJsonDepth) +
                   " levels");
      }
      ++depth_;
      Result<Value> v = c == '['                        ? ParseArray()
                        : text_.substr(pos_, 2) == "{{" ? ParseMultiset()
                                                        : ParseObject();
      --depth_;
      return v;
    }
    if (c == '"') {
      SIMDB_ASSIGN_OR_RETURN(std::string s, ParseString());
      return Value::String(std::move(s));
    }
    if (ConsumeWord("true")) return Value::Boolean(true);
    if (ConsumeWord("false")) return Value::Boolean(false);
    if (ConsumeWord("null")) return Value::Null();
    if (ConsumeWord("missing")) return Value::Missing();
    return ParseNumber();
  }

  Result<Value> ParseObject() {
    ++pos_;  // '{'
    Value::Object fields;
    SkipWhitespace();
    if (Consume('}')) return Value::MakeObject(std::move(fields));
    for (;;) {
      SkipWhitespace();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return Err("expected field name");
      }
      SIMDB_ASSIGN_OR_RETURN(std::string name, ParseString());
      if (!Consume(':')) return Err("expected ':'");
      SIMDB_ASSIGN_OR_RETURN(Value v, ParseValue());
      fields.emplace_back(std::move(name), std::move(v));
      if (Consume(',')) continue;
      if (Consume('}')) break;
      return Err("expected ',' or '}'");
    }
    return Value::MakeObject(std::move(fields));
  }

  Result<Value> ParseArray() {
    ++pos_;  // '['
    Value::Array items;
    if (Consume(']')) return Value::MakeArray(std::move(items));
    for (;;) {
      SIMDB_ASSIGN_OR_RETURN(Value v, ParseValue());
      items.push_back(std::move(v));
      if (Consume(',')) continue;
      if (Consume(']')) break;
      return Err("expected ',' or ']'");
    }
    return Value::MakeArray(std::move(items));
  }

  Result<Value> ParseMultiset() {
    pos_ += 2;  // '{{'
    Value::Array items;
    SkipWhitespace();
    if (text_.substr(pos_, 2) == "}}") {
      pos_ += 2;
      return Value::MakeMultiset(std::move(items));
    }
    for (;;) {
      SIMDB_ASSIGN_OR_RETURN(Value v, ParseValue());
      items.push_back(std::move(v));
      if (Consume(',')) continue;
      SkipWhitespace();
      if (text_.substr(pos_, 2) == "}}") {
        pos_ += 2;
        break;
      }
      return Err("expected ',' or '}}'");
    }
    return Value::MakeMultiset(std::move(items));
  }

  Result<std::string> ParseString() {
    ++pos_;  // '"'
    std::string out;
    while (pos_ < text_.size()) {
      char c = text_[pos_++];
      if (c == '"') return out;
      if (c == '\\') {
        if (pos_ >= text_.size()) return Err("bad escape");
        char e = text_[pos_++];
        switch (e) {
          case '"':
            out.push_back('"');
            break;
          case '\\':
            out.push_back('\\');
            break;
          case '/':
            out.push_back('/');
            break;
          case 'n':
            out.push_back('\n');
            break;
          case 'r':
            out.push_back('\r');
            break;
          case 't':
            out.push_back('\t');
            break;
          case 'b':
            out.push_back('\b');
            break;
          case 'f':
            out.push_back('\f');
            break;
          case 'u': {
            if (pos_ + 4 > text_.size()) return Err("bad \\u escape");
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              char h = text_[pos_++];
              code <<= 4;
              if (h >= '0' && h <= '9') {
                code |= static_cast<unsigned>(h - '0');
              } else if (h >= 'a' && h <= 'f') {
                code |= static_cast<unsigned>(h - 'a' + 10);
              } else if (h >= 'A' && h <= 'F') {
                code |= static_cast<unsigned>(h - 'A' + 10);
              } else {
                return Err("bad \\u escape digit");
              }
            }
            // Encode as UTF-8.
            if (code < 0x80) {
              out.push_back(static_cast<char>(code));
            } else if (code < 0x800) {
              out.push_back(static_cast<char>(0xC0 | (code >> 6)));
              out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
            } else {
              out.push_back(static_cast<char>(0xE0 | (code >> 12)));
              out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
              out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
            }
            break;
          }
          default:
            return Err("unknown escape");
        }
      } else {
        out.push_back(c);
      }
    }
    return Err("unterminated string");
  }

  Result<Value> ParseNumber() {
    size_t start = pos_;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) {
      ++pos_;
    }
    bool is_double = false;
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (std::isdigit(static_cast<unsigned char>(c))) {
        ++pos_;
      } else if (c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-') {
        is_double = true;
        ++pos_;
      } else {
        break;
      }
    }
    if (pos_ == start) return Err("expected a value");
    std::string num(text_.substr(start, pos_ - start));
    if (is_double) {
      char* end = nullptr;
      double d = std::strtod(num.c_str(), &end);
      if (end != num.c_str() + num.size()) return Err("bad number");
      return Value::Double(d);
    }
    errno = 0;
    char* end = nullptr;
    long long i = std::strtoll(num.c_str(), &end, 10);
    if (end != num.c_str() + num.size() || errno == ERANGE) {
      return Err("bad integer");
    }
    return Value::Int64(i);
  }

  std::string_view text_;
  size_t pos_;
  int depth_ = 0;  // open arrays, objects and multisets
};

}  // namespace

std::string Value::ToJson() const {
  std::string out;
  ToJsonImpl(*this, &out);
  return out;
}

Result<Value> Value::FromJson(std::string_view text) {
  return JsonParser(text).Parse();
}

}  // namespace simdb::adm
