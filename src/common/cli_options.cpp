#include "common/cli_options.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <initializer_list>

#include "common/assert.hpp"

namespace taskprof::cli {

namespace {

constexpr std::size_t kNone = static_cast<std::size_t>(-1);

bool accepts(const Option& row, std::size_t command) {
  return command < 32 && (row.commands >> command & 1u) != 0;
}

std::vector<std::string_view> split(std::string_view text, char separator) {
  std::vector<std::string_view> parts;
  for (std::size_t start = 0;;) {
    const std::size_t end = text.find(separator, start);
    parts.push_back(text.substr(start, end - start));
    if (end == std::string_view::npos) return parts;
    start = end + 1;
  }
}

template <typename T>
T last(const std::vector<T>& values) {
  TASKPROF_ASSERT(!values.empty(), "read of an unset option");
  return values.back();
}

/// Concatenates `parts`.  (GCC 12 at -O3 misreads `"text" + std::string`
/// as an overlapping copy and warns, -Wrestrict.)
std::string cat(std::initializer_list<std::string_view> parts) {
  std::string out;
  for (const std::string_view part : parts) out += part;
  return out;
}

std::string quote(std::string_view text) { return cat({"'", text, "'"}); }

std::string label(std::string_view program, const Command& command) {
  return cat({program, command.name.empty() ? "" : " ", command.name});
}

// --- whole-word numbers -------------------------------------------------

enum class Conv : std::uint8_t { kOk, kBad, kOverflow };

template <typename T, typename... Base>
Conv convert(std::string_view text, T* out, Base... base) {
  const char* const last = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), last, *out, base...);
  if (ec == std::errc::invalid_argument || ptr != last) return Conv::kBad;
  return ec == std::errc::result_out_of_range ? Conv::kOverflow : Conv::kOk;
}

Conv to_u64(std::string_view text, std::uint64_t* out) {
  if (text.starts_with("0x") || text.starts_with("0X")) {
    return convert(text.substr(2), out, 16);
  }
  return convert(text, out, 10);
}

Conv to_real(std::string_view text, double* out) {
  const Conv conv = convert(text, out);
  return conv == Conv::kOk && !std::isfinite(*out) ? Conv::kBad : conv;
}

/// "in [1, 1024]", "in (0, 100]", ">= 1", "> 0", "<= 9", or "".
std::string range_text(const Option& row) {
  const auto bound = [](double value) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.15g", value);
    return std::string(buf);
  };
  const bool low = std::isfinite(row.min);
  if (low && std::isfinite(row.max)) {
    return cat({"in ", row.min_open ? "(" : "[", bound(row.min), ", ",
                bound(row.max), "]"});
  }
  if (low) return cat({row.min_open ? "> " : ">= ", bound(row.min)});
  return std::isfinite(row.max) ? cat({"<= ", bound(row.max)}) : "";
}

// --- values -------------------------------------------------------------

[[noreturn]] void fail(const Option& row, std::string reason) {
  throw UsageError{std::string(row.name), std::move(reason)};
}

/// Checks one value, or one entry of a list, against `row`.
void check_item(const Option& row, std::string_view text) {
  if (row.kind == Kind::kChoice) {
    for (const std::string_view choice : split(row.values, '|')) {
      if (choice == text) return;
    }
    fail(row, cat({quote(text), " is not one of ", row.values}));
  }
  double value = 0.0;
  Conv conv = Conv::kOk;
  const char* expects = "a finite number";
  const char* type = "a double";
  if (row.kind == Kind::kInt) {
    int number = 0;
    conv = convert(text, &number, 10);
    value = number;
    expects = "an integer";
    type = "an int";
  } else if (row.kind == Kind::kU64) {
    std::uint64_t number = 0;
    conv = to_u64(text, &number);
    value = static_cast<double>(number);
    expects = "an unsigned integer (decimal or 0x hex)";
    type = "64 bits";
  } else if (row.kind == Kind::kReal) {
    conv = to_real(text, &value);
  } else {
    return;
  }
  if (conv == Conv::kBad) {
    fail(row, cat({"expects ", expects, ", got ", quote(text)}));
  }
  if (conv == Conv::kOverflow && !std::isfinite(row.max)) {
    fail(row, cat({quote(text), " does not fit in ", type}));
  }
  const bool in_range =
      (row.min_open ? value > row.min : value >= row.min) && value <= row.max;
  if (conv == Conv::kOverflow || !in_range) {
    fail(row, cat({"must be ", range_text(row), ", got ", quote(text)}));
  }
}

/// Checks a whole value; returns its items (the value, or a list's
/// entries).
std::vector<std::string> check_value(const Option& row,
                                     std::string_view text) {
  if (text.empty()) fail(row, "empty value");
  std::vector<std::string> items;
  for (const std::string_view item :
       row.list ? split(text, ',') : std::vector{text}) {
    if (item.empty()) fail(row, cat({"empty entry in ", quote(text)}));
    check_item(row, item);
    items.emplace_back(item);
  }
  return items;
}

/// A row must accept its own default and name its choices, integer bounds
/// must be exact as doubles, and rows that share a name may not share a
/// command.  A broken table is a bug, caught by any run of its binary.
void check_table(const Table& table) {
  TASKPROF_ASSERT(!table.commands.empty(), "a table needs a command");
  for (std::size_t i = 0; i < table.options.size(); ++i) {
    const Option& row = table.options[i];
    const std::string where = cat({row.name, ": bad option row"});
    TASKPROF_ASSERT(row.kind != Kind::kChoice || !row.values.empty(),
                    where.c_str());
    for (const double bound : {row.min, row.max}) {
      TASKPROF_ASSERT(row.kind == Kind::kReal || !std::isfinite(bound) ||
                          (bound == std::trunc(bound) &&
                           std::fabs(bound) < 0x1p53),
                      where.c_str());
    }
    for (std::size_t j = 0; j < i; ++j) {
      TASKPROF_ASSERT(table.options[j].name != row.name ||
                          (table.options[j].commands & row.commands) == 0,
                      where.c_str());
    }
    bool valid = true;
    try {
      if (!row.fallback.empty()) (void)check_value(row, row.fallback);
    } catch (const UsageError&) {
      valid = false;
    }
    TASKPROF_ASSERT(valid,
                    cat({row.name, ": default out of its range"}).c_str());
  }
}

// --- usage text ---------------------------------------------------------

/// The files part of a usage line: " FILE", " [FILE]" or " FILE...".
std::string operands(const Command& command) {
  if (command.max_files == 0) return "";
  if (command.min_files == 0) return cat({" [", command.files, "]"});
  return cat({" ", command.files, command.max_files > 1 ? "..." : ""});
}

/// "  --name=FORM  range, default D, required, repeatable" and the help
/// lines, indented.
void append_row(std::string* out, const Option& row) {
  static constexpr const char* kForms[] = {"", "=INT", "=U64", "=REAL"};
  const bool named = row.kind > Kind::kReal;
  *out += cat({"  ", row.name, named ? "=" : "",
               named ? (row.values.empty() ? "TEXT" : row.values)
                     : kForms[static_cast<int>(row.kind)],
               row.list ? ",..." : ""});
  std::string notes = range_text(row);
  const auto note = [&notes](std::string_view text) {
    notes += cat({notes.empty() ? "" : ", ", text});
  };
  if (!row.fallback.empty()) note(cat({"default ", row.fallback}));
  if (row.required) note("required");
  if (row.repeatable) note("repeatable");
  *out += cat({notes.empty() ? "" : "  ", notes, "\n"});
  for (const std::string_view line : split(row.help, '\n')) {
    *out += cat({"      ", line, "\n"});
  }
}

}  // namespace

// --- Args ---------------------------------------------------------------

const Args::Slot& Args::slot(std::string_view name, Kind kind) const {
  std::size_t found = kNone;
  for (std::size_t i = 0; i < table_->options.size(); ++i) {
    const Option& row = table_->options[i];
    if (row.name == name && (found == kNone || accepts(row, command))) {
      found = i;
    }
  }
  TASKPROF_ASSERT(found != kNone, "read of an option the table lacks");
  const Kind row_kind = table_->options[found].kind;
  TASKPROF_ASSERT(row_kind == kind || (kind == Kind::kString &&
                                       row_kind == Kind::kChoice),
                  "option read as the wrong kind");
  return slots_[found];
}

bool Args::given(std::string_view name) const {
  for (std::size_t i = 0; i < table_->options.size(); ++i) {
    if (table_->options[i].name == name && slots_[i].given) return true;
  }
  return false;
}

bool Args::flag(std::string_view name) const {
  return slot(name, Kind::kFlag).given;
}

int Args::integer(std::string_view name) const {
  return last(integers(name));
}

std::vector<int> Args::integers(std::string_view name) const {
  std::vector<int> values;
  for (const std::string& item : slot(name, Kind::kInt).items) {
    (void)convert(item, &values.emplace_back(), 10);
  }
  return values;
}

std::uint64_t Args::u64(std::string_view name) const {
  std::uint64_t value = 0;
  (void)to_u64(last(slot(name, Kind::kU64).items), &value);
  return value;
}

double Args::real(std::string_view name) const { return last(reals(name)); }

std::vector<double> Args::reals(std::string_view name) const {
  std::vector<double> values;
  for (const std::string& item : slot(name, Kind::kReal).items) {
    (void)to_real(item, &values.emplace_back());
  }
  return values;
}

const std::string& Args::text(std::string_view name) const {
  static const std::string kEmpty;
  const std::vector<std::string>& items = texts(name);
  return items.empty() ? kEmpty : items.back();
}

const std::vector<std::string>& Args::texts(std::string_view name) const {
  return slot(name, Kind::kString).items;
}

// --- parse --------------------------------------------------------------

Args parse(const Table& table, int argc, const char* const* argv) {
  check_table(table);
  const std::span<const Command> commands = table.commands;
  Args args;
  args.table_ = &table;
  const std::string_view path = argc > 0 ? argv[0] : "";
  args.program = path.substr(path.rfind('/') + 1);
  for (const Option& row : table.options) {
    args.slots_.push_back(
        {false, row.fallback.empty() ? std::vector<std::string>{}
                                     : check_value(row, row.fallback)});
  }
  const auto is_help = [](std::string_view word) {
    return word == "--help" || word == "-h";
  };

  // The first word may name a command.  A table whose first command has a
  // name has no default command, so it needs one (or --help).
  int i = 1;
  for (std::size_t c = 0; c < commands.size() && argc > 1; ++c) {
    if (!commands[c].name.empty() && commands[c].name == argv[1]) {
      args.command = c;
      i = 2;
    }
  }
  if (i == 1 && !commands.front().name.empty()) {
    if (argc > 1 && is_help(argv[1])) {
      args.command = kNoCommand;
      args.help = true;
      return args;
    }
    throw UsageError{
        args.program,
        cat({argc > 1 ? "unknown command " : "missing command",
             argc > 1 ? quote(argv[1]) : "", " (see '", args.program,
             " --help')"})};
  }
  const Command& command = commands[args.command];
  const std::string see =
      cat({" (see '", label(args.program, command), " --help')"});

  for (; i < argc; ++i) {
    const std::string_view word = argv[i];
    if (is_help(word)) {
      args.help = true;
      return args;
    }
    if (!word.starts_with("--")) {
      if (args.files.size() >= static_cast<std::size_t>(command.max_files)) {
        throw UsageError{std::string(word), cat({"unexpected argument", see})};
      }
      args.files.emplace_back(word);
      continue;
    }
    const std::size_t equals = word.find('=');
    const std::string_view name = word.substr(0, equals);
    std::size_t index = kNone;
    for (std::size_t r = 0; r < table.options.size(); ++r) {
      const Option& row = table.options[r];
      if (row.name == name && accepts(row, args.command)) index = r;
    }
    if (index == kNone) {
      throw UsageError{std::string(name), cat({"unknown option", see})};
    }
    const Option& row = table.options[index];
    Args::Slot& slot = args.slots_[index];
    std::vector<std::string> items;
    if (row.kind == Kind::kFlag) {
      if (equals != std::string_view::npos) fail(row, "takes no value");
    } else if (equals != std::string_view::npos) {
      items = check_value(row, word.substr(equals + 1));
    } else if (i + 1 < argc) {
      items = check_value(row, argv[++i]);
    } else {
      fail(row, "missing value");
    }
    if (!row.repeatable || !slot.given) slot.items.clear();
    slot.items.insert(slot.items.end(), items.begin(), items.end());
    slot.given = true;
  }

  if (args.files.size() < static_cast<std::size_t>(command.min_files)) {
    throw UsageError{label(args.program, command),
                     cat({"missing ", command.files, see})};
  }
  for (std::size_t r = 0; r < table.options.size(); ++r) {
    const Option& row = table.options[r];
    if (row.required && accepts(row, args.command) && !args.slots_[r].given) {
      fail(row, cat({"is required", see}));
    }
  }
  return args;
}

std::string usage(const Table& table, std::string_view program,
                  std::size_t command) {
  const std::span<const Command> commands = table.commands;
  std::string out = cat({"usage: ", program, " COMMAND [options]\n"});
  if (command != kNoCommand) {
    const Command& chosen = commands[command];
    out = cat({"usage: ", label(program, chosen), operands(chosen),
               " [options]\n", chosen.about.empty() ? "" : "\n",
               chosen.about, chosen.about.empty() ? "" : "\n",
               "\noptions:\n"});
    for (const Option& row : table.options) {
      if (accepts(row, command)) append_row(&out, row);
    }
    out += "  --help\n      print this text\n";
  }
  if (commands.size() > 1 &&
      (command == kNoCommand || commands[command].name.empty())) {
    out += cat({"\ncommands (", program,
                " COMMAND --help for their options):\n"});
    for (const Command& other : commands) {
      if (!other.name.empty()) {
        out += cat({"  ", label(program, other), operands(other), "\n"});
      }
    }
  }
  return out;
}

Args parse_or_exit(const Table& table, int argc, const char* const* argv) {
  try {
    Args args = parse(table, argc, argv);
    if (args.help) {
      std::fputs(usage(table, args.program, args.command).c_str(), stdout);
      std::exit(0);
    }
    return args;
  } catch (const UsageError& error) {
    usage_error(error.option, error.reason);
  }
}

void usage_error(std::string_view option, std::string_view reason) {
  std::fprintf(stderr, "%.*s: %.*s\n", static_cast<int>(option.size()),
               option.data(), static_cast<int>(reason.size()), reason.data());
  std::exit(2);
}

}  // namespace taskprof::cli
