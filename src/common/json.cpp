#include "common/json.hpp"

#include <cmath>
#include <cstdio>

#include "common/assert.hpp"
#include "common/format.hpp"

namespace taskprof {

namespace {

/// Length of the well-formed UTF-8 sequence (RFC 3629) that starts at
/// `text[i]`, a byte of 0x80 or above; 0 when there is none: a stray
/// continuation byte, a truncated or overlong form, an encoded surrogate
/// or a code point above U+10FFFF.
std::size_t utf8_sequence_length(std::string_view text, std::size_t i) {
  const auto byte = [&](std::size_t k) {
    return static_cast<unsigned char>(text[i + k]);
  };
  const unsigned char lead = byte(0);
  std::size_t length = 0;
  unsigned char low = 0x80;  // range of the second byte
  unsigned char high = 0xbf;
  if (lead >= 0xc2 && lead <= 0xdf) {
    length = 2;
  } else if (lead >= 0xe0 && lead <= 0xef) {
    length = 3;
    if (lead == 0xe0) low = 0xa0;   // overlong below U+0800
    if (lead == 0xed) high = 0x9f;  // surrogates U+D800..U+DFFF
  } else if (lead >= 0xf0 && lead <= 0xf4) {
    length = 4;
    if (lead == 0xf0) low = 0x90;   // overlong below U+10000
    if (lead == 0xf4) high = 0x8f;  // above U+10FFFF
  } else {
    return 0;
  }
  if (text.size() - i < length) return 0;
  if (byte(1) < low || byte(1) > high) return 0;
  for (std::size_t k = 2; k < length; ++k) {
    if (byte(k) < 0x80 || byte(k) > 0xbf) return 0;
  }
  return length;
}

}  // namespace

void JsonWriter::fixed(std::string_view key, double v, int decimals) {
  member(key);
  out_ += std::isfinite(v) ? format_fixed(v, decimals) : "null";
}

std::string JsonWriter::finish() {
  TASKPROF_ASSERT(stack_.empty(), "finish() with a JSON container open");
  out_ += '\n';
  return std::move(out_);
}

void JsonWriter::open(char opener, char closer, std::string_view key,
                      Layout layout) {
  if (!stack_.empty() && stack_.back().closer == '}') {
    member(key);
  } else {
    TASKPROF_ASSERT(key.empty(), "a JSON array element has no key");
    element();
  }
  if (!stack_.empty() && stack_.back().layout == kLine) layout = kLine;
  out_ += opener;
  stack_.push_back(Frame{closer, layout, true});
}

void JsonWriter::close(char closer) {
  TASKPROF_ASSERT(!stack_.empty() && stack_.back().closer == closer,
                  "mismatched JSON close");
  const Frame frame = stack_.back();
  stack_.pop_back();
  if (frame.layout == kBlock && !frame.empty) {
    out_ += '\n';
    out_.append(2 * stack_.size(), ' ');
  }
  out_ += closer;
}

void JsonWriter::separate() {
  if (stack_.empty()) return;
  Frame& frame = stack_.back();
  if (frame.layout == kBlock) {
    out_ += frame.empty ? "\n" : ",\n";
    out_.append(2 * stack_.size(), ' ');
  } else if (!frame.empty) {
    out_ += ", ";
  }
  frame.empty = false;
}

void JsonWriter::member(std::string_view key) {
  TASKPROF_ASSERT(!stack_.empty() && stack_.back().closer == '}',
                  "a keyed JSON member outside an object");
  separate();
  put(key);
  out_ += ": ";
}

void JsonWriter::element() {
  TASKPROF_ASSERT(stack_.empty() ? out_.empty() : stack_.back().closer == ']',
                  "a JSON value needs an array, or a key inside an object");
  separate();
}

void JsonWriter::put(std::string_view text) {
  // Quoted, with `"`, `\` and every control character escaped.
  // Well-formed UTF-8 passes through; each byte outside a well-formed
  // sequence becomes U+FFFD, so a region name read from a file cannot
  // make the document unparseable.
  out_ += '"';
  std::size_t i = 0;
  while (i < text.size()) {
    const auto c = static_cast<unsigned char>(text[i]);
    if (c >= 0x80) {
      const std::size_t length = utf8_sequence_length(text, i);
      out_ += length == 0 ? "\\ufffd" : text.substr(i, length);
      i += length == 0 ? 1 : length;
      continue;
    }
    if (c == '"' || c == '\\') {
      out_ += '\\';
      out_ += static_cast<char>(c);
    } else if (c == '\n') {
      out_ += "\\n";
    } else if (c == '\t') {
      out_ += "\\t";
    } else if (c < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(c));
      out_ += buf;
    } else {
      out_ += static_cast<char>(c);
    }
    ++i;
  }
  out_ += '"';
}

void JsonWriter::put(double v) {
  // JSON has no inf or nan.
  if (!std::isfinite(v)) {
    out_ += "null";
    return;
  }
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  out_ += buf;
}

}  // namespace taskprof
