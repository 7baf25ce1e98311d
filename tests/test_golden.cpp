// Golden-baseline regression tier.
//
// Five representative scenarios (the running example, disk, CPU, and
// web-server case studies, plus the dpmd serving tier) have smoke-size
// baseline JSON checked in
// under tests/golden/.  Each test runs its scenario in-process on the
// ExperimentRunner and drives the --compare comparator
// (scenario/compare.h) against the baseline under the scenario's
// declared tolerances — so a build whose results drift (a solver
// change landing on a different vertex, a simulation semantics change,
// a lost record) fails here mechanically instead of being caught by
// hand-widened smoke tolerances.
//
// Regenerating baselines (after a *deliberate* result change — see
// docs/bench-format.md, "Golden baselines"):
//   build/bench_scenarios --smoke --quiet \
//     --exact example_a2 --exact fig08_disk \
//     --exact fig09b_cpu --exact fig09a_webserver \
//     --exact serve --baseline-out tests/golden
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "scenario/compare.h"
#include "scenario/json.h"
#include "scenario/registry.h"
#include "scenario/runner.h"

#ifndef DPMOPT_GOLDEN_DIR
#error "DPMOPT_GOLDEN_DIR must point at tests/golden (set by CMake)"
#endif

namespace dpm {
namespace {

using scenario::CompareReport;
using scenario::ExperimentRunner;
using scenario::Record;
using scenario::RunnerOptions;
using scenario::ScenarioRunResult;

constexpr const char* kGoldenScenarios[] = {
    "example_a2",
    "fig08_disk",
    "fig09b_cpu",
    "fig09a_webserver",
    "serve",
};

std::string golden_path(const std::string& name) {
  return std::string(DPMOPT_GOLDEN_DIR) + "/" + name + ".json";
}

std::vector<Record> load_golden(const std::string& name) {
  std::ifstream in(golden_path(name));
  EXPECT_TRUE(in) << "missing golden baseline " << golden_path(name);
  std::ostringstream text;
  text << in.rdbuf();
  return scenario::parse_baseline(text.str());
}

ScenarioRunResult run_smoke(const scenario::Scenario& sc) {
  RunnerOptions opts;
  opts.jobs = 2;
  opts.smoke = true;  // baselines are recorded at --smoke sizes
  opts.print = false;
  opts.write_json = false;
  return ExperimentRunner(opts).run_one(sc);
}

class GoldenScenario : public ::testing::TestWithParam<const char*> {};

TEST_P(GoldenScenario, MatchesCheckedInBaseline) {
  scenario::register_builtin();
  const scenario::Scenario* sc = scenario::find(GetParam());
  ASSERT_NE(sc, nullptr);
  const ScenarioRunResult res = run_smoke(*sc);
  for (const std::string& failure : res.failures) {
    ADD_FAILURE() << sc->name << " shape check: " << failure;
  }
  const std::vector<Record> baseline = load_golden(sc->name);
  ASSERT_FALSE(baseline.empty());
  const CompareReport report =
      scenario::compare_records(*sc, baseline, res.records);
  EXPECT_TRUE(report.ok()) << scenario::format_report(report);
  EXPECT_EQ(report.compared, baseline.size());

  // Pivot counts are deterministic, so this tier holds every record's
  // `iterations` exactly; the comparator's tolerances above only catch
  // blow-ups, which is what a bench-grade --compare run wants.
  ASSERT_EQ(res.records.size(), baseline.size());
  for (std::size_t i = 0; i < baseline.size(); ++i) {
    EXPECT_EQ(res.records[i].name, baseline[i].name);
    EXPECT_EQ(res.records[i].iterations, baseline[i].iterations)
        << sc->name << " record \"" << baseline[i].name << "\"";
  }
}

INSTANTIATE_TEST_SUITE_P(Registry, GoldenScenario,
                         ::testing::ValuesIn(kGoldenScenarios),
                         [](const auto& info) {
                           return std::string(info.param);
                         });

// The golden directory and the test parameter list must agree in both
// directions: a baseline nobody compares is dead weight, a compared
// scenario without a baseline is a hole.
TEST(GoldenScenario, DirectoryMatchesParameterList) {
  std::set<std::string> on_disk;
  for (const auto& entry :
       std::filesystem::directory_iterator(DPMOPT_GOLDEN_DIR)) {
    if (entry.path().extension() == ".json") {
      on_disk.insert(entry.path().stem().string());
    }
  }
  std::set<std::string> expected;
  for (const char* name : kGoldenScenarios) expected.insert(name);
  EXPECT_EQ(on_disk, expected);
}

// The comparator itself must catch every structural drift class: a
// moved objective, a missing record, an extra record.  Exercised on
// real baseline data so the failure paths stay wired to the formats
// the golden tier actually uses.
TEST(GoldenComparator, DetectsInjectedDrift) {
  scenario::register_builtin();
  const scenario::Scenario* sc = scenario::find("example_a2");
  ASSERT_NE(sc, nullptr);
  const std::vector<Record> baseline = load_golden("example_a2");
  ASSERT_GE(baseline.size(), 2u);

  // Identity compares clean.
  EXPECT_TRUE(scenario::compare_records(*sc, baseline, baseline).ok());

  // Objective drift beyond every declared tolerance.
  std::vector<Record> drifted = baseline;
  drifted.front().objective += 1.0;
  const CompareReport drift =
      scenario::compare_records(*sc, baseline, drifted);
  ASSERT_FALSE(drift.ok());
  EXPECT_NE(scenario::format_report(drift).find("objective drifted"),
            std::string::npos);

  // A record that disappeared from the fresh run.
  std::vector<Record> shrunk = baseline;
  shrunk.pop_back();
  const CompareReport missing =
      scenario::compare_records(*sc, baseline, shrunk);
  ASSERT_FALSE(missing.ok());
  EXPECT_NE(scenario::format_report(missing).find("missing record"),
            std::string::npos);

  // A record the baseline does not know.
  std::vector<Record> grown = baseline;
  grown.push_back({"new record", 0.0, 1, 2.0});
  const CompareReport extra = scenario::compare_records(*sc, baseline, grown);
  ASSERT_FALSE(extra.ok());
  EXPECT_NE(scenario::format_report(extra).find("extra record"),
            std::string::npos);

  // Iteration blowup (a lost warm start), beyond abs 50 + rel 1.0.
  std::vector<Record> slow = baseline;
  slow.front().iterations = slow.front().iterations * 3 + 200;
  const CompareReport iters = scenario::compare_records(*sc, baseline, slow);
  ASSERT_FALSE(iters.ok());
  EXPECT_NE(scenario::format_report(iters).find("iterations blew up"),
            std::string::npos);
}

}  // namespace
}  // namespace dpm
