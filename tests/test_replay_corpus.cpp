// Deterministic-replay regression corpus: every curated seed in
// tests/corpus/ must replay tick-identically on the sim engine (two runs,
// byte-equal Chrome traces) and pass the full invariant + differential
// check on both engines.  Add a .case file here whenever a fuzzing run
// shrinks a real scheduler bug, so the fixed bug stays fixed.
#include "check/fuzz.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

namespace taskprof {
namespace {

#ifndef TASKPROF_CORPUS_DIR
#error "tests/CMakeLists.txt must define TASKPROF_CORPUS_DIR"
#endif

std::vector<std::filesystem::path> corpus_files() {
  std::vector<std::filesystem::path> files;
  for (const auto& entry :
       std::filesystem::directory_iterator(TASKPROF_CORPUS_DIR)) {
    if (entry.path().extension() == ".case") files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  return files;
}

bool parse_case(const std::filesystem::path& path, check::FuzzCase* out,
                std::string* error) {
  std::ifstream in(path);
  if (!in) {
    *error = "cannot open " + path.string();
    return false;
  }
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string key;
    std::string value;
    if (!(fields >> key >> value)) {
      *error = "malformed line '" + line + "'";
      return false;
    }
    if (key == "kernel") {
      out->kernel = value;
    } else if (key == "threads") {
      out->threads = std::stoi(value);
    } else if (key == "seed") {
      out->seed = std::stoull(value, nullptr, 0);
    } else if (key == "size") {
      const std::optional<bots::SizeClass> size = bots::parse_size(value);
      if (!size.has_value()) {
        *error = "bad size '" + value + "'";
        return false;
      }
      out->size = *size;
    } else {
      *error = "unknown key '" + key + "'";
      return false;
    }
  }
  return true;
}

TEST(ReplayCorpus, CorpusIsNonEmpty) {
  EXPECT_GE(corpus_files().size(), 3u)
      << "curated corpus went missing from " << TASKPROF_CORPUS_DIR;
}

TEST(ReplayCorpus, EverySeedReplaysIdenticallyAndPasses) {
  for (const std::filesystem::path& file : corpus_files()) {
    check::FuzzCase c;
    std::string error;
    ASSERT_TRUE(parse_case(file, &c, &error))
        << file.filename() << ": " << error;
    SCOPED_TRACE(::testing::Message()
                 << file.filename().string() << " — "
                 << check::replay_command(c));
    const check::ReplayResult result = check::replay_seed(c);
    EXPECT_TRUE(result.trace_identical)
        << "two sim runs with the same seed diverged ("
        << result.event_count << " events)";
    EXPECT_GT(result.event_count, 0u);
    for (const std::string& problem : result.problems) {
      ADD_FAILURE() << problem;
    }
  }
}

}  // namespace
}  // namespace taskprof
