#include "scope/trace_check.hpp"

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <utility>

namespace bfly::scope {

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : s_(text) {}

  bool parse(JsonValue* out, std::string* error) {
    skip_ws();
    if (!value(out)) {
      if (error) *error = err_;
      return false;
    }
    skip_ws();
    if (pos_ != s_.size()) {
      if (error) *error = at("trailing characters after document");
      return false;
    }
    return true;
  }

 private:
  std::string at(const std::string& msg) {
    char buf[64];
    std::snprintf(buf, sizeof buf, " (at byte %zu)", pos_);
    return msg + buf;
  }
  bool fail(const std::string& msg) {
    if (err_.empty()) err_ = at(msg);
    return false;
  }
  void skip_ws() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\n' ||
            s_[pos_] == '\r'))
      ++pos_;
  }
  bool literal(std::string_view lit) {
    if (s_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  bool value(JsonValue* out) {
    if (pos_ >= s_.size()) return fail("unexpected end of input");
    switch (s_[pos_]) {
      case '{':
        return object(out);
      case '[':
        return array(out);
      case '"':
        out->kind = JsonValue::Kind::kString;
        return string(&out->str);
      case 't':
        if (!literal("true")) return fail("bad literal");
        out->kind = JsonValue::Kind::kBool;
        out->b = true;
        return true;
      case 'f':
        if (!literal("false")) return fail("bad literal");
        out->kind = JsonValue::Kind::kBool;
        out->b = false;
        return true;
      case 'n':
        if (!literal("null")) return fail("bad literal");
        out->kind = JsonValue::Kind::kNull;
        return true;
      default:
        return number(out);
    }
  }

  bool object(JsonValue* out) {
    out->kind = JsonValue::Kind::kObject;
    ++pos_;  // '{'
    skip_ws();
    if (pos_ < s_.size() && s_[pos_] == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      skip_ws();
      std::string key;
      if (pos_ >= s_.size() || s_[pos_] != '"' || !string(&key))
        return fail("expected object key");
      skip_ws();
      if (pos_ >= s_.size() || s_[pos_] != ':') return fail("expected ':'");
      ++pos_;
      skip_ws();
      JsonValue v;
      if (!value(&v)) return false;
      // RFC 8259 leaves repeated names undefined and readers keep only one
      // value, so a duplicate silently hides data: reject it.
      if (!out->obj.emplace(key, std::move(v)).second)
        return fail("duplicate object key \"" + key + "\"");
      skip_ws();
      if (pos_ >= s_.size()) return fail("unterminated object");
      if (s_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (s_[pos_] == '}') {
        ++pos_;
        return true;
      }
      return fail("expected ',' or '}'");
    }
  }

  bool array(JsonValue* out) {
    out->kind = JsonValue::Kind::kArray;
    ++pos_;  // '['
    skip_ws();
    if (pos_ < s_.size() && s_[pos_] == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      skip_ws();
      JsonValue v;
      if (!value(&v)) return false;
      out->arr.push_back(std::move(v));
      skip_ws();
      if (pos_ >= s_.size()) return fail("unterminated array");
      if (s_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (s_[pos_] == ']') {
        ++pos_;
        return true;
      }
      return fail("expected ',' or ']'");
    }
  }

  bool string(std::string* out) {
    ++pos_;  // opening quote
    out->clear();
    while (pos_ < s_.size()) {
      const char c = s_[pos_];
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (static_cast<unsigned char>(c) < 0x20)
        return fail("raw control character in string");
      if (c != '\\') {
        out->push_back(c);
        ++pos_;
        continue;
      }
      if (++pos_ >= s_.size()) return fail("unterminated escape");
      const char e = s_[pos_++];
      switch (e) {
        case '"':
          out->push_back('"');
          break;
        case '\\':
          out->push_back('\\');
          break;
        case '/':
          out->push_back('/');
          break;
        case 'b':
          out->push_back('\b');
          break;
        case 'f':
          out->push_back('\f');
          break;
        case 'n':
          out->push_back('\n');
          break;
        case 'r':
          out->push_back('\r');
          break;
        case 't':
          out->push_back('\t');
          break;
        case 'u': {
          if (pos_ + 4 > s_.size()) return fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = s_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f')
              code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F')
              code |= static_cast<unsigned>(h - 'A' + 10);
            else
              return fail("bad hex digit in \\u escape");
          }
          // UTF-8 encode the BMP code point (surrogate pairs kept as two
          // replacement sequences; validation only needs well-formedness).
          if (code < 0x80) {
            out->push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out->push_back(static_cast<char>(0xc0 | (code >> 6)));
            out->push_back(static_cast<char>(0x80 | (code & 0x3f)));
          } else {
            out->push_back(static_cast<char>(0xe0 | (code >> 12)));
            out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3f)));
            out->push_back(static_cast<char>(0x80 | (code & 0x3f)));
          }
          break;
        }
        default:
          return fail("bad escape character");
      }
    }
    return fail("unterminated string");
  }

  bool number(JsonValue* out) {
    const std::size_t start = pos_;
    if (pos_ < s_.size() && s_[pos_] == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-'))
      ++pos_;
    if (pos_ == start) return fail("expected a value");
    const std::string tok(s_.substr(start, pos_ - start));
    char* end = nullptr;
    out->num = std::strtod(tok.c_str(), &end);
    if (end == nullptr || *end != '\0') return fail("malformed number");
    out->kind = JsonValue::Kind::kNumber;
    return true;
  }

  std::string_view s_;
  std::size_t pos_ = 0;
  std::string err_;
};

void add_error(std::vector<std::string>* errors, std::string msg) {
  constexpr std::size_t kMaxErrors = 16;
  if (errors == nullptr) return;
  if (errors->size() < kMaxErrors) errors->push_back(std::move(msg));
}

}  // namespace

bool json_parse(std::string_view text, JsonValue* out, std::string* error) {
  *out = JsonValue{};  // a reused value must not merge with the last parse
  return Parser(text).parse(out, error);
}

bool validate_chrome_trace(std::string_view text,
                           std::vector<std::string>* errors,
                           TraceCheckStats* stats) {
  JsonValue doc;
  std::string perr;
  if (!json_parse(text, &doc, &perr)) {
    add_error(errors, "trace does not parse: " + perr);
    return false;
  }
  if (doc.kind != JsonValue::Kind::kObject) {
    add_error(errors, "trace document is not a JSON object");
    return false;
  }
  const JsonValue* events = doc.find("traceEvents");
  if (events == nullptr || events->kind != JsonValue::Kind::kArray) {
    add_error(errors, "missing traceEvents array");
    return false;
  }
  bool ok = true;
  double prev_ts = -1.0;
  // Open-span depth per (pid, tid).
  std::map<std::pair<double, double>, std::size_t> open;
  std::size_t i = 0;
  for (const JsonValue& e : events->arr) {
    ++i;
    if (e.kind != JsonValue::Kind::kObject) {
      add_error(errors, "traceEvents[" + std::to_string(i - 1) +
                            "] is not an object");
      ok = false;
      continue;
    }
    const JsonValue* ph = e.find("ph");
    if (ph == nullptr || ph->kind != JsonValue::Kind::kString ||
        ph->str.empty()) {
      add_error(errors, "event " + std::to_string(i - 1) + " has no ph");
      ok = false;
      continue;
    }
    if (stats) ++stats->events;
    if (ph->str == "M") {
      if (stats) ++stats->metadata;
      continue;  // metadata carries no timestamp
    }
    const JsonValue* ts = e.find("ts");
    const JsonValue* pid = e.find("pid");
    const JsonValue* tid = e.find("tid");
    if (ts == nullptr || ts->kind != JsonValue::Kind::kNumber) {
      add_error(errors, "event " + std::to_string(i - 1) + " (ph=" +
                            ph->str + ") has no numeric ts");
      ok = false;
      continue;
    }
    if (ts->num < prev_ts) {
      add_error(errors,
                "timestamps not monotone at event " + std::to_string(i - 1) +
                    ": " + std::to_string(ts->num) + " after " +
                    std::to_string(prev_ts));
      ok = false;
    }
    prev_ts = ts->num;
    if (ph->str == "C") {
      if (stats) ++stats->counters;
      continue;
    }
    if (ph->str == "i" || ph->str == "I") {
      if (stats) ++stats->instants;
      continue;
    }
    if (ph->str != "B" && ph->str != "E") continue;  // tolerate other types
    if (pid == nullptr || pid->kind != JsonValue::Kind::kNumber ||
        tid == nullptr || tid->kind != JsonValue::Kind::kNumber) {
      add_error(errors, "B/E event " + std::to_string(i - 1) +
                            " lacks numeric pid/tid");
      ok = false;
      continue;
    }
    const auto key = std::make_pair(pid->num, tid->num);
    if (ph->str == "B") {
      if (stats) ++stats->begins;
      ++open[key];
    } else {
      if (stats) ++stats->ends;
      auto it = open.find(key);
      if (it == open.end() || it->second == 0) {
        add_error(errors, "unbalanced E at event " + std::to_string(i - 1));
        ok = false;
      } else {
        --it->second;
      }
    }
  }
  for (const auto& [key, depth] : open) {
    if (depth != 0) {
      add_error(errors, std::to_string(depth) +
                            " unclosed B event(s) on pid " +
                            std::to_string(key.first) + " tid " +
                            std::to_string(key.second));
      ok = false;
    }
  }
  return ok;
}

}  // namespace bfly::scope
