// Declarative command lines: one option table per binary (DESIGN.md §17).
//
// A binary describes its command line as a Table of commands and option
// rows.  parse() turns argv into Args, checking every value against its
// row before any work starts; usage() generates a command's help text
// from the same rows, so the two cannot drift apart.  A value option
// takes `--name=value` or `--name value`, a flag takes no value, a
// repeated option keeps its last value (a `repeatable` row accumulates),
// numbers must be the whole word, and words without "--" are files.  A
// bad command line raises one UsageError {option, reason}; a main prints
// "option: reason" and exits 2 (parse_or_exit, usage_error).
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace taskprof::cli {

enum class Kind : std::uint8_t {
  kFlag,    ///< present or not; takes no value
  kInt,     ///< int, decimal
  kU64,     ///< std::uint64_t, decimal or 0x hex
  kReal,    ///< finite double
  kString,  ///< any non-empty text (a file, a socket, a spec)
  kChoice,  ///< one of Option::values
};

inline constexpr double kUnbounded = std::numeric_limits<double>::infinity();
inline constexpr int kAnyCount = std::numeric_limits<int>::max();

/// One option row.  Integer bounds are whole numbers below 2^53 in
/// magnitude, so comparing them as doubles is exact (checked at parse).
struct Option {
  std::string_view name = {};  ///< "--threads"
  Kind kind = Kind::kFlag;
  std::string_view help = {};
  /// Default, spelled as on the command line; empty = none.
  std::string_view fallback = {};
  /// kChoice: the choices, "a|b|c".  kString: the value's name ("FILE").
  std::string_view values = {};
  double min = -kUnbounded;  ///< a number (or each list entry) must lie
  double max = kUnbounded;   ///< in [min, max] ...
  bool min_open = false;     ///< ... or in (min, max]
  bool list = false;         ///< the value is comma-separated entries
  bool repeatable = false;   ///< repeats accumulate instead of replacing
  bool required = false;
  std::uint32_t commands = ~0u;  ///< bit i: Table::commands[i] accepts it
};

struct Command {
  std::string_view name = {};  ///< empty: the binary's default command
  std::string_view about = {};
  std::string_view files = {};  ///< the positional files' name ("FILE")
  int min_files = 0;
  int max_files = 0;
};

/// A binary's command line: at least one command, the first of which may
/// be unnamed (the binary's default).
struct Table {
  std::span<const Command> commands;
  std::span<const Option> options;
};

/// A bad command line.  Not a std::exception on purpose: the commands'
/// own `catch (const std::exception&)` blocks map run failures to exit 1,
/// and a usage error must still reach exit 2.
struct UsageError {
  std::string option;  ///< "--threads", or the offending word
  std::string reason;
};

inline constexpr std::size_t kNoCommand = static_cast<std::size_t>(-1);

/// A parsed command line.  The accessors take an option name; a row that
/// the chosen command does not accept reads as its default.  Args refers
/// to the Table it was parsed with, which must outlive it.
class Args {
 public:
  std::string program;  ///< basename of argv[0]
  /// Index into Table::commands; kNoCommand only with `help` on a table
  /// that has no default command.
  std::size_t command = 0;
  bool help = false;
  std::vector<std::string> files;

  /// True when the option was on the command line.
  [[nodiscard]] bool given(std::string_view name) const;
  [[nodiscard]] bool flag(std::string_view name) const;
  [[nodiscard]] int integer(std::string_view name) const;
  [[nodiscard]] std::vector<int> integers(std::string_view name) const;
  [[nodiscard]] std::uint64_t u64(std::string_view name) const;
  [[nodiscard]] double real(std::string_view name) const;
  [[nodiscard]] std::vector<double> reals(std::string_view name) const;
  /// kString or kChoice: the value, or "" when neither given nor
  /// defaulted; texts() has every entry of a list or repeatable row.
  [[nodiscard]] const std::string& text(std::string_view name) const;
  [[nodiscard]] const std::vector<std::string>& texts(
      std::string_view name) const;

 private:
  friend Args parse(const Table& table, int argc, const char* const* argv);

  struct Slot {
    bool given = false;
    std::vector<std::string> items;  ///< one per value or list entry
  };
  const Slot& slot(std::string_view name, Kind kind) const;

  const Table* table_ = nullptr;
  std::vector<Slot> slots_;  ///< one per Table::options row
};

/// Parse argv[1..argc) against `table`.  Throws UsageError.  Stops at
/// --help, so `help` set means the remaining words were not read.
[[nodiscard]] Args parse(const Table& table, int argc,
                         const char* const* argv);

/// The usage text of `command` (kNoCommand: the list of commands).
[[nodiscard]] std::string usage(const Table& table, std::string_view program,
                                std::size_t command);

/// parse() for a main: prints the usage and exits 0 on --help; prints
/// "option: reason" and exits 2 on a usage error.
[[nodiscard]] Args parse_or_exit(const Table& table, int argc,
                                 const char* const* argv);

/// Prints "option: reason" and exits 2.  For the rules that span several
/// options, checked after the parse and before any work starts.
[[noreturn]] void usage_error(std::string_view option,
                              std::string_view reason);

}  // namespace taskprof::cli
