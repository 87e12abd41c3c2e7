// Minimal JSON validity scanner for tests: enough of RFC 8259 to prove an
// export parses (values, objects, arrays, strings with escapes, numbers),
// decoding every string it passes so tests can check what round-trips. CI
// additionally runs emitted files through `python3 -m json.tool`; this
// keeps the property pinned in unit tests too.
#pragma once

#include <cctype>
#include <cstddef>
#include <string>
#include <utility>
#include <vector>

namespace enb {

class JsonScanner {
 public:
  explicit JsonScanner(std::string text) : text_(std::move(text)) {}

  bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == text_.size();
  }

  // Every string scanned so far (keys and values), escapes decoded.
  [[nodiscard]] const std::vector<std::string>& strings() const {
    return strings_;
  }

 private:
  bool value() {
    if (pos_ >= text_.size()) return false;
    switch (text_[pos_]) {
      case '{':
        return object();
      case '[':
        return array();
      case '"':
        return string();
      case 't':
        return literal("true");
      case 'f':
        return literal("false");
      case 'n':
        return literal("null");
      default:
        return number();
    }
  }

  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') return ++pos_, true;
    for (;;) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == '}') return ++pos_, true;
      return false;
    }
  }

  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') return ++pos_, true;
    for (;;) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == ']') return ++pos_, true;
      return false;
    }
  }

  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    std::string decoded;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '"') {
        strings_.push_back(std::move(decoded));
        return ++pos_, true;
      }
      if (static_cast<unsigned char>(c) < 0x20) return false;
      if (c != '\\') {
        decoded += c;
        ++pos_;
        continue;
      }
      ++pos_;
      if (pos_ >= text_.size()) return false;
      const char esc = text_[pos_];
      if (esc == 'u') {
        unsigned code = 0;
        for (int i = 0; i < 4; ++i) {
          ++pos_;
          if (pos_ >= text_.size() ||
              !std::isxdigit(static_cast<unsigned char>(text_[pos_]))) {
            return false;
          }
          const int digit = std::tolower(static_cast<unsigned char>(text_[pos_]));
          code = code * 16 + static_cast<unsigned>(
                                 std::isdigit(digit) ? digit - '0'
                                                     : digit - 'a' + 10);
        }
        append_utf8(decoded, code);
      } else {
        const std::size_t at = std::string("\"\\/bfnrt").find(esc);
        if (at == std::string::npos) return false;
        decoded += "\"\\/\b\f\n\r\t"[at];
      }
      ++pos_;
    }
    return false;
  }

  static void append_utf8(std::string& out, unsigned code) {
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
  }

  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }

  bool literal(const char* word) {
    for (const char* c = word; *c != '\0'; ++c, ++pos_) {
      if (pos_ >= text_.size() || text_[pos_] != *c) return false;
    }
    return true;
  }

  char peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }
  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  std::string text_;  // owned: callers may pass a temporary
  std::size_t pos_ = 0;
  std::vector<std::string> strings_;
};

}  // namespace enb
