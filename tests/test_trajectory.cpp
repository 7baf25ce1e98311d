// Shape gate over the committed benchmark trajectory (bench/trajectory/).
//
// Every `<workload>.jsonl` line must parse, carry the fields the
// trajectory README documents, name the workload of its file, and record
// a correct run with no failed operations; lines come in (base, change)
// pairs measured for one change against one base commit.  Wall times
// are deliberately not judged: the same code has read 1.5x apart under
// one host fingerprint, so a threshold over these files would gate the
// host, not the change.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "scenario/json.h"

#ifndef DPMOPT_TRAJECTORY_DIR
#error "DPMOPT_TRAJECTORY_DIR must point at bench/trajectory (set by CMake)"
#endif

namespace dpm {
namespace {

using scenario::JsonValue;

struct TrajectoryFile {
  std::string workload;  // file stem
  std::vector<JsonValue> lines;
};

std::vector<TrajectoryFile> load_trajectory() {
  std::vector<TrajectoryFile> files;
  for (const auto& entry :
       std::filesystem::directory_iterator(DPMOPT_TRAJECTORY_DIR)) {
    if (entry.path().extension() != ".jsonl") continue;
    TrajectoryFile file;
    file.workload = entry.path().stem().string();
    std::ifstream in(entry.path());
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty()) continue;
      file.lines.push_back(JsonValue::parse(line));
    }
    files.push_back(std::move(file));
  }
  return files;
}

TEST(Trajectory, EveryLineIsACorrectRunOfItsWorkload) {
  const std::vector<TrajectoryFile> files = load_trajectory();
  ASSERT_FALSE(files.empty()) << "no *.jsonl in " << DPMOPT_TRAJECTORY_DIR;
  for (const TrajectoryFile& file : files) {
    ASSERT_FALSE(file.lines.empty()) << file.workload;
    for (std::size_t i = 0; i < file.lines.size(); ++i) {
      SCOPED_TRACE(file.workload + ".jsonl line " + std::to_string(i + 1));
      const JsonValue& line = file.lines[i];
      for (const char* key : {"change", "rev", "base", "workload", "host"}) {
        EXPECT_NO_THROW(line.string_at(key)) << key;
      }
      for (const char* key : {"seed", "seconds", "trace"}) {
        EXPECT_NO_THROW(line.number_at(key)) << key;
      }
      EXPECT_EQ(line.string_at("workload"), file.workload);

      const JsonValue* result = line.get("result");
      ASSERT_NE(result, nullptr);
      ASSERT_NE(result->get("correct"), nullptr);
      EXPECT_TRUE(result->get("correct")->as_bool());
      EXPECT_GT(result->number_at("attempted"), 0.0);
      EXPECT_EQ(result->number_at("failed"), 0.0);
      const JsonValue* metrics = result->get("metrics");
      ASSERT_NE(metrics, nullptr);
      for (const char* metric :
           {"setup_s", "p50_ms", "p99_ms", "peak_rss_mb"}) {
        const JsonValue* m = metrics->get(metric);
        ASSERT_NE(m, nullptr) << metric;
        EXPECT_NO_THROW(m->number_at("value")) << metric;
      }
    }
  }
}

TEST(Trajectory, LinesComeInBaseChangePairs) {
  for (const TrajectoryFile& file : load_trajectory()) {
    ASSERT_EQ(file.lines.size() % 2, 0u) << file.workload;
    for (std::size_t i = 0; i < file.lines.size(); i += 2) {
      SCOPED_TRACE(file.workload + ".jsonl lines " + std::to_string(i + 1) +
                   "-" + std::to_string(i + 2));
      const JsonValue& base = file.lines[i];
      const JsonValue& change = file.lines[i + 1];
      EXPECT_EQ(base.string_at("rev"), "base");
      EXPECT_EQ(change.string_at("rev"), "change");
      EXPECT_EQ(base.string_at("change"), change.string_at("change"));
      EXPECT_EQ(base.string_at("base"), change.string_at("base"));
    }
  }
}

}  // namespace
}  // namespace dpm
