// bench_scenarios: the one experiment multiplexer.
//
// Every paper figure, ablation, and extension is a registered Scenario
// (src/scenario/); this driver lists, filters, and executes them on the
// parallel ExperimentRunner.  Replaces the former per-figure binaries
// (bench_fig06_pareto ... bench_average_cost).
//
//   bench_scenarios --list                 # what is registered
//   bench_scenarios                        # run everything, --jobs 1
//   bench_scenarios --jobs 8               # saturate the machine
//   bench_scenarios --filter fig1          # substring selection
//   bench_scenarios --exact fig08_disk     # exact-name selection
//   bench_scenarios --smoke                # tiny grids (ctest smoke)
//   bench_scenarios --telemetry            # + hypersparsity odometer line
//   bench_scenarios --list --expect a,b,c  # registry drift gate (ctest)
//   bench_scenarios --cache                # content-addressed result
//                                          # cache: replay unchanged
//                                          # units, execute the rest
//   bench_scenarios --cache-dir D          # cache location (default
//                                          # .scenario_cache)
//   bench_scenarios --no-cache             # force the cache off (wins
//                                          # over --cache and the
//                                          # DPMOPT_SCENARIO_CACHE env)
//   bench_scenarios --baseline-out DIR     # write <DIR>/<name>.json
//                                          # baselines after the run
//   bench_scenarios --compare PATH         # regression mode: diff this
//                                          # run against baseline JSON
//                                          # (a file, or a directory of
//                                          # <name>.json) under each
//                                          # scenario's declared
//                                          # tolerances; nonzero exit
//                                          # on any mismatch
//   bench_scenarios --fault-inject SPEC    # arm one fault per unit:
//                                          # SITE[:WINDOW[:COUNT]], e.g.
//                                          # lu-factorize, ftran:8,
//                                          # deadline:4:2 (sites in
//                                          # docs/robustness.md)
//   bench_scenarios --unit-deadline-ms X   # cooperative per-unit
//                                          # wall-clock deadline
//   bench_scenarios --unit-retries N       # re-run a failed unit up to
//                                          # N more times, immediately
//
// Determinism contract: all randomness derives from (scenario name,
// unit index), and results are assembled in unit order, so stdout and
// the emitted BENCH_<scenario>.json files are byte-identical for any
// --jobs value — and for any mix of cached and executed units.  Full
// runs write JSON; --smoke runs never overwrite benchmark-grade
// records.  Exit status: 1 on shape-check or --compare failures, 2 on
// usage errors (including an unknown --exact name, which suggests
// near-miss registered names).
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "lp/revised_simplex.h"
#include "robust/fault_injection.h"
#include "robust/probe.h"
#include "robust/supervisor.h"
#include "scenario/compare.h"
#include "scenario/json.h"
#include "scenario/registry.h"
#include "scenario/runner.h"

namespace {

using dpm::scenario::Scenario;

struct CliOptions {
  bool list = false;
  bool smoke = false;
  bool quiet = false;
  std::size_t jobs = 1;
  std::vector<std::string> filters;  // substring matches, OR-ed
  std::vector<std::string> exact;    // exact names, OR-ed
  std::string expect;                // comma-separated registry gate
  bool cache = false;
  bool no_cache = false;             // wins over --cache and the env
  std::string cache_dir = ".scenario_cache";
  std::string compare_path;          // --compare PATH (empty = off)
  std::string baseline_out;          // --baseline-out DIR (empty = off)
  bool telemetry = false;            // print the hypersparsity odometer
  std::optional<dpm::robust::FaultSpec> fault;  // --fault-inject SPEC
  double unit_deadline_ms = 0.0;     // --unit-deadline-ms (0 = none)
  std::size_t unit_retries = 0;      // --unit-retries
};

bool parse_args(int argc, char** argv, CliOptions& opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "bench_scenarios: %s needs a value\n", flag);
        return nullptr;
      }
      return argv[++i];
    };
    if (arg == "--list") {
      opt.list = true;
    } else if (arg == "--smoke") {
      opt.smoke = true;
    } else if (arg == "--quiet") {
      opt.quiet = true;
    } else if (arg == "--telemetry") {
      opt.telemetry = true;
    } else if (arg == "--cache") {
      opt.cache = true;
    } else if (arg == "--no-cache") {
      opt.no_cache = true;
    } else if (arg == "--cache-dir") {
      const char* v = next("--cache-dir");
      if (v == nullptr) return false;
      opt.cache_dir = v;
    } else if (arg == "--compare") {
      const char* v = next("--compare");
      if (v == nullptr) return false;
      opt.compare_path = v;
    } else if (arg == "--baseline-out") {
      const char* v = next("--baseline-out");
      if (v == nullptr) return false;
      opt.baseline_out = v;
    } else if (arg == "--fault-inject") {
      const char* v = next("--fault-inject");
      if (v == nullptr) return false;
      opt.fault = dpm::robust::parse_fault_spec(v);
      if (!opt.fault.has_value()) {
        std::fprintf(stderr,
                     "bench_scenarios: bad fault spec '%s' (want "
                     "SITE[:WINDOW[:COUNT]]; sites: lu-factorize, "
                     "ft-update, ftran, btran, warm-basis, cache-line, "
                     "deadline)\n",
                     v);
        return false;
      }
    } else if (arg == "--unit-deadline-ms") {
      const char* v = next("--unit-deadline-ms");
      if (v == nullptr) return false;
      opt.unit_deadline_ms = std::strtod(v, nullptr);
    } else if (arg == "--unit-retries") {
      const char* v = next("--unit-retries");
      if (v == nullptr) return false;
      opt.unit_retries = static_cast<std::size_t>(
          std::strtoul(v, nullptr, 10));
    } else if (arg == "--jobs" || arg == "-j") {
      const char* v = next("--jobs");
      if (v == nullptr) return false;
      opt.jobs = static_cast<std::size_t>(std::strtoul(v, nullptr, 10));
    } else if (arg == "--filter") {
      const char* v = next("--filter");
      if (v == nullptr) return false;
      opt.filters.emplace_back(v);
    } else if (arg == "--exact") {
      const char* v = next("--exact");
      if (v == nullptr) return false;
      opt.exact.emplace_back(v);
    } else if (arg == "--expect") {
      const char* v = next("--expect");
      if (v == nullptr) return false;
      opt.expect = v;
    } else {
      std::fprintf(stderr, "bench_scenarios: unknown argument '%s'\n",
                   arg.c_str());
      return false;
    }
  }
  // The ctest smoke environment variable mirrors the historical
  // per-bench behaviour (bench_util.h).
  if (const char* env = std::getenv("DPMOPT_BENCH_SMOKE");
      env != nullptr && env[0] != '\0' && env[0] != '0') {
    opt.smoke = true;
  }
  // Opt into caching per environment (CI images, developer shells);
  // --no-cache wins over both the env and an explicit --cache.
  if (const char* env = std::getenv("DPMOPT_SCENARIO_CACHE");
      env != nullptr && env[0] != '\0' && env[0] != '0') {
    opt.cache = true;
  }
  if (opt.no_cache) opt.cache = false;
  return true;
}

bool selected(const Scenario& sc, const CliOptions& opt) {
  if (opt.filters.empty() && opt.exact.empty()) return true;
  for (const std::string& e : opt.exact) {
    if (sc.name == e) return true;
  }
  for (const std::string& f : opt.filters) {
    if (sc.name.find(f) != std::string::npos) return true;
  }
  return false;
}

std::vector<std::string> split_csv(const std::string& csv) {
  std::vector<std::string> out;
  std::string cur;
  for (const char c : csv) {
    if (c == ',' || c == ';') {
      if (!cur.empty()) out.push_back(cur);
      cur.clear();
    } else {
      cur.push_back(c);
    }
  }
  if (!cur.empty()) out.push_back(cur);
  return out;
}

std::size_t edit_distance(const std::string& a, const std::string& b) {
  std::vector<std::size_t> prev(b.size() + 1), cur(b.size() + 1);
  for (std::size_t j = 0; j <= b.size(); ++j) prev[j] = j;
  for (std::size_t i = 1; i <= a.size(); ++i) {
    cur[0] = i;
    for (std::size_t j = 1; j <= b.size(); ++j) {
      const std::size_t sub = prev[j - 1] + (a[i - 1] == b[j - 1] ? 0 : 1);
      cur[j] = std::min({prev[j] + 1, cur[j - 1] + 1, sub});
    }
    std::swap(prev, cur);
  }
  return prev[b.size()];
}

/// Unknown --exact names are usage errors (exit 2), not silent empty
/// runs: print the near misses (edit distance and substring hits) so a
/// typo costs one retry, then the full registry.
bool validate_exact_names(const CliOptions& opt) {
  bool ok = true;
  for (const std::string& name : opt.exact) {
    if (dpm::scenario::find(name) != nullptr) continue;
    ok = false;
    std::vector<std::pair<std::size_t, std::string>> ranked;
    for (const Scenario& sc : dpm::scenario::all()) {
      std::size_t d = edit_distance(name, sc.name);
      if (sc.name.find(name) != std::string::npos ||
          name.find(sc.name) != std::string::npos) {
        d = std::min<std::size_t>(d, 2);  // substring hits rank high
      }
      ranked.emplace_back(d, sc.name);
    }
    std::sort(ranked.begin(), ranked.end());
    std::string suggestions;
    for (const auto& [d, candidate] : ranked) {
      if (d > std::max<std::size_t>(3, name.size() / 3)) break;
      if (suggestions.size() >= 3 * 24) break;
      if (!suggestions.empty()) suggestions += ", ";
      suggestions += candidate;
    }
    std::fprintf(stderr, "bench_scenarios: unknown scenario '%s'",
                 name.c_str());
    if (!suggestions.empty()) {
      std::fprintf(stderr, " — did you mean: %s?", suggestions.c_str());
    }
    std::fprintf(stderr, "\n");
  }
  if (!ok) {
    std::fprintf(stderr,
                 "bench_scenarios: run --list for the registered names\n");
  }
  return ok;
}

/// Registry drift gate: the build system registers one smoke test per
/// scenario from a literal list; this check fails the suite when the
/// two go out of sync instead of silently dropping coverage.
int check_expected(const std::string& csv) {
  const std::vector<std::string> expected = split_csv(csv);
  int mismatches = 0;
  for (const std::string& name : expected) {
    if (dpm::scenario::find(name) == nullptr) {
      std::fprintf(stderr,
                   "EXPECTED scenario '%s' is not registered "
                   "(update register_builtin or the CMake list)\n",
                   name.c_str());
      ++mismatches;
    }
  }
  for (const Scenario& sc : dpm::scenario::all()) {
    bool found = false;
    for (const std::string& name : expected) {
      if (name == sc.name) {
        found = true;
        break;
      }
    }
    if (!found) {
      std::fprintf(stderr,
                   "REGISTERED scenario '%s' is missing from the CMake "
                   "DPMOPT_SCENARIOS list (no smoke test will run it)\n",
                   sc.name.c_str());
      ++mismatches;
    }
  }
  return mismatches;
}

/// Resolves the baseline file for one scenario under --compare PATH:
/// a directory looks for <PATH>/<name>.json, then
/// <PATH>/BENCH_<name>.json; a plain file is the baseline itself (only
/// meaningful when a single scenario was selected — enforced by the
/// caller).  Empty return = not found.
std::string baseline_file_for(const std::string& compare_path,
                              const std::string& scenario_name) {
  namespace fs = std::filesystem;
  std::error_code ec;
  if (fs::is_directory(compare_path, ec)) {
    const fs::path dir(compare_path);
    for (const std::string candidate :
         {scenario_name + ".json", "BENCH_" + scenario_name + ".json"}) {
      if (fs::exists(dir / candidate, ec)) return (dir / candidate).string();
    }
    return {};
  }
  return fs::exists(compare_path, ec) ? compare_path : std::string{};
}

/// Runs the comparator for every executed scenario; returns the number
/// of scenarios with mismatches (missing baselines count).
std::size_t compare_results(
    const std::vector<dpm::scenario::ScenarioRunResult>& results,
    const CliOptions& opt) {
  std::size_t bad = 0;
  for (const auto& r : results) {
    const Scenario* sc = dpm::scenario::find(r.name);
    const std::string file = baseline_file_for(opt.compare_path, r.name);
    if (sc == nullptr || file.empty()) {
      std::fprintf(stderr,
                   "compare %-22s FAIL: no baseline found under '%s' "
                   "(expected %s.json)\n",
                   r.name.c_str(), opt.compare_path.c_str(), r.name.c_str());
      ++bad;
      continue;
    }
    std::ifstream in(file);
    std::ostringstream text;
    text << in.rdbuf();
    if (!in) {
      std::fprintf(stderr, "compare %-22s FAIL: cannot read '%s'\n",
                   r.name.c_str(), file.c_str());
      ++bad;
      continue;
    }
    try {
      std::string bench_name;
      const std::vector<dpm::scenario::Record> baseline =
          dpm::scenario::parse_baseline(text.str(), &bench_name);
      if (bench_name != r.name) {
        std::fprintf(stderr,
                     "compare %-22s FAIL: baseline '%s' is for scenario "
                     "'%s', not '%s'\n",
                     r.name.c_str(), file.c_str(), bench_name.c_str(),
                     r.name.c_str());
        ++bad;
        continue;
      }
      const dpm::scenario::CompareReport report =
          dpm::scenario::compare_records(*sc, baseline, r.records);
      std::printf("%s\n", dpm::scenario::format_report(report).c_str());
      if (!report.ok()) ++bad;
    } catch (const dpm::scenario::JsonError& e) {
      std::fprintf(stderr, "compare %-22s FAIL: malformed baseline %s: %s\n",
                   r.name.c_str(), file.c_str(), e.what());
      ++bad;
    }
  }
  return bad;
}

/// Writes <dir>/<name>.json baselines for every executed scenario.
bool write_baselines(
    const std::vector<dpm::scenario::ScenarioRunResult>& results,
    const std::string& dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    std::fprintf(stderr, "bench_scenarios: cannot create '%s'\n",
                 dir.c_str());
    return false;
  }
  bool ok = true;
  for (const auto& r : results) {
    const std::string path =
        (std::filesystem::path(dir) / (r.name + ".json")).string();
    if (!dpm::scenario::write_json_report_to(path, r.name, r.records)) {
      std::fprintf(stderr, "bench_scenarios: cannot write '%s'\n",
                   path.c_str());
      ok = false;
    }
  }
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions opt;
  if (!parse_args(argc, argv, opt)) return 2;

  dpm::scenario::register_builtin();

  // An unknown --exact name is a usage error in every mode (it would
  // otherwise silently select nothing under --list and trip the generic
  // "no scenario matches" path without suggestions).
  if (!validate_exact_names(opt)) return 2;

  if (opt.list) {
    std::printf("%-22s %5s  %s\n", "scenario", "units", "description");
    for (const Scenario& sc : dpm::scenario::all()) {
      if (!selected(sc, opt)) continue;
      std::printf("%-22s %5zu  %s\n", sc.name.c_str(),
                  sc.units(opt.smoke).size(), sc.what.c_str());
    }
    if (!opt.expect.empty()) {
      const int mismatches = check_expected(opt.expect);
      if (mismatches != 0) return 1;
      std::printf("registry matches the expected scenario list (%zu)\n",
                  dpm::scenario::all().size());
    }
    return 0;
  }

  std::vector<const Scenario*> run_list;
  for (const Scenario& sc : dpm::scenario::all()) {
    if (selected(sc, opt)) run_list.push_back(&sc);
  }
  if (run_list.empty()) {
    std::fprintf(stderr, "bench_scenarios: no scenario matches\n");
    return 2;
  }
  if (!opt.compare_path.empty() && run_list.size() > 1) {
    namespace fs = std::filesystem;
    std::error_code ec;
    if (fs::exists(opt.compare_path, ec) &&
        !fs::is_directory(opt.compare_path, ec)) {
      std::fprintf(stderr,
                   "bench_scenarios: --compare with a baseline *file* needs "
                   "exactly one selected scenario (%zu selected); pass a "
                   "baseline directory instead\n",
                   run_list.size());
      return 2;
    }
  }

  dpm::scenario::RunnerOptions ropts;
  ropts.jobs = opt.jobs;
  ropts.smoke = opt.smoke;
  ropts.print = !opt.quiet;
  // Smoke grids must never overwrite benchmark-grade JSON records.
  ropts.write_json = !opt.smoke;
  ropts.cache = opt.cache;
  ropts.cache_dir = opt.cache_dir;
  ropts.fault = opt.fault;
  ropts.unit_deadline_ms = opt.unit_deadline_ms;
  ropts.unit_retries = opt.unit_retries;

  const dpm::bench::WallTimer timer;
  const dpm::scenario::ExperimentRunner runner(ropts);
  const auto results = runner.run(run_list);
  const double wall_ms = timer.elapsed_ms();

  std::printf("\n%-22s %6s %7s %8s %10s %12s  %s\n", "scenario", "units",
              "cached", "records", "iterations", "unit ms", "shape");
  std::size_t failures = 0;
  for (const auto& r : results) {
    const std::string shape =
        r.failures.empty() ? "ok"
                           : std::to_string(r.failures.size()) + " FAIL";
    std::printf("%-22s %6zu %7zu %8zu %10zu %12.1f  %s\n", r.name.c_str(),
                r.units, r.units_cached, r.records.size(), r.iterations,
                r.wall_ms, shape.c_str());
    failures += r.failures.size();
  }
  std::printf("\ntotal wall %.1f ms with --jobs %zu on %u hardware "
              "thread(s) (%zu scenarios)%s%s\n",
              wall_ms, opt.jobs == 0 ? std::size_t{1} : opt.jobs,
              std::thread::hardware_concurrency(), results.size(),
              opt.cache ? "  [result cache on]" : "",
              opt.smoke ? "  [smoke — no JSON written]" : "");

  if (opt.telemetry) {
    // Machine-parseable hypersparsity odometer (process-wide, so it
    // covers exactly the scenarios this invocation ran).  verify.sh's
    // --perf-smoke gate greps sparse_pct to assert the Gilbert-Peierls
    // path stays the common case on the case-study LPs.
    const dpm::lp::SweepTelemetry t = dpm::lp::sweep_telemetry();
    const std::uintmax_t total =
        static_cast<std::uintmax_t>(t.sparse_sweeps + t.dense_sweeps);
    std::printf("telemetry: sparse_sweeps=%ju dense_sweeps=%ju "
                "touched_entries=%ju sparse_pct=%.1f\n",
                static_cast<std::uintmax_t>(t.sparse_sweeps),
                static_cast<std::uintmax_t>(t.dense_sweeps),
                static_cast<std::uintmax_t>(t.touched_entries),
                total == 0 ? 0.0
                           : 100.0 * static_cast<double>(t.sparse_sweeps) /
                                 static_cast<double>(total));
    // Recovery odometer (robust/supervisor.h): every supervised solve
    // this invocation ran, how many needed the escalation ladder, and
    // how many injected faults actually fired.
    const dpm::robust::RecoveryTelemetry rt =
        dpm::robust::recovery_telemetry();
    std::printf("telemetry: supervised=%ju first_try=%ju recovered=%ju "
                "unrecovered=%ju faults_fired=%ju",
                static_cast<std::uintmax_t>(rt.supervised),
                static_cast<std::uintmax_t>(rt.first_try),
                static_cast<std::uintmax_t>(rt.recovered),
                static_cast<std::uintmax_t>(rt.unrecovered),
                static_cast<std::uintmax_t>(dpm::robust::faults_fired()));
    for (std::size_t r = 0; r < dpm::robust::kNumRecoveryRungs; ++r) {
      std::string key =
          dpm::robust::to_string(static_cast<dpm::robust::RecoveryRung>(r));
      std::replace(key.begin(), key.end(), '-', '_');
      std::printf(" rung_%s=%ju", key.c_str(),
                  static_cast<std::uintmax_t>(rt.rung_attempts[r]));
    }
    std::printf("\n");
  }

  bool bad = false;
  if (!opt.baseline_out.empty() && !write_baselines(results, opt.baseline_out)) {
    bad = true;
  }
  if (!opt.compare_path.empty()) {
    std::printf("\n");
    const std::size_t mismatched = compare_results(results, opt);
    if (mismatched != 0) {
      std::fprintf(stderr,
                   "bench_scenarios: %zu scenario(s) drifted from the "
                   "baseline\n",
                   mismatched);
      bad = true;
    }
  }
  if (failures != 0) {
    std::fprintf(stderr, "bench_scenarios: %zu shape-check failure(s)\n",
                 failures);
    bad = true;
  }
  return bad ? 1 : 0;
}
