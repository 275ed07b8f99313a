// The one JSON writer.  Every JSON document taskprof prints — the report,
// diagnose, what-if and validation documents, scheduler telemetry, the
// Chrome trace, the ingest daemon's stats and the benches' trajectory
// files — is built by a JsonWriter, so escaping, number formatting,
// separators and indentation are decided here and nowhere else.
#pragma once

#include <concepts>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace taskprof {

/// Builds one JSON document front to back.  Containers open with
/// `begin_object`/`begin_array` and close with the matching `end_*`;
/// inside an object every member has a key (`field`, or the key argument
/// of `begin_*`), inside an array no element does (`value`).  Strings are
/// escaped, and each byte that is not part of well-formed UTF-8 becomes
/// the escape for U+FFFD; integers print in full; doubles print with
/// `%.6g`, which keeps golden files byte-stable, and non-finite ones as
/// `null`.  A mismatched close, a key inside an array, or `finish()` with
/// a container still open is a TASKPROF_ASSERT.
class JsonWriter {
 public:
  enum Layout : std::uint8_t {
    /// One member per line, indented two spaces per level.  An empty
    /// container prints `[]` or `{}`.
    kBlock,
    /// Every member on one line: `{"a": 1, "b": [2, 3]}`.  A container
    /// opened inside a line container stays on the line.
    kLine,
  };

  void begin_object(std::string_view key = {}, Layout layout = kBlock) {
    open('{', '}', key, layout);
  }
  void begin_array(std::string_view key = {}, Layout layout = kBlock) {
    open('[', ']', key, layout);
  }
  void end_object() { close('}'); }
  void end_array() { close(']'); }

  /// A member of the enclosing object: a string, bool, integer or double.
  template <typename T>
  void field(std::string_view key, const T& v) {
    member(key);
    put(v);
  }

  /// An element of the enclosing array.
  template <typename T>
  void value(const T& v) {
    element();
    put(v);
  }

  /// A member printed with `decimals` fixed decimals (`%.*f`), such as
  /// Chrome's microsecond timestamps at nanosecond resolution.
  void fixed(std::string_view key, double v, int decimals);

  /// The finished document plus a trailing newline; the writer's last
  /// call.
  [[nodiscard]] std::string finish();

 private:
  struct Frame {
    char closer;  ///< '}' or ']'
    Layout layout;
    bool empty;
  };

  void open(char opener, char closer, std::string_view key, Layout layout);
  void close(char closer);
  void separate();
  void member(std::string_view key);
  void element();

  void put(std::string_view text);
  void put(const char* text) { put(std::string_view(text)); }
  void put(bool v) { out_ += v ? "true" : "false"; }
  void put(double v);
  template <std::integral T>
  void put(T v) {
    out_ += std::to_string(v);
  }

  std::string out_;
  std::vector<Frame> stack_;
};

}  // namespace taskprof
