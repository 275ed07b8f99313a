// Checked whole-file writes for the binaries' outputs.
#pragma once

#include <string>
#include <string_view>

namespace taskprof {

/// Writes `bytes` to `path`, creating or truncating it.  Throws
/// std::system_error naming the path when the open, the write or the
/// close fails, so a full disk is an error rather than a short file.
void write_file(const std::string& path, std::string_view bytes);

}  // namespace taskprof
