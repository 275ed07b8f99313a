#include "common/write_file.hpp"

#include <cerrno>
#include <cstdio>
#include <system_error>

namespace taskprof {

void write_file(const std::string& path, std::string_view bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    throw std::system_error(errno, std::generic_category(),
                            "cannot open " + path);
  }
  const std::size_t written = std::fwrite(bytes.data(), 1, bytes.size(), f);
  const bool closed = std::fclose(f) == 0;
  if (written != bytes.size() || !closed) {
    throw std::system_error(errno, std::generic_category(),
                            "cannot write " + path);
  }
}

}  // namespace taskprof
