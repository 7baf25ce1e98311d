// perfbench — the repository benchmark program.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--trace-out FILE]
//
// Runs one workload (cold-expander, serve-fleet or serve-hits; see
// README.md), checks every output, and prints one JSON result line as
// the last line of stdout.  Progress and diagnostics go to stderr.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "common.h"

namespace {

/// Share of host CPU time the hypervisor gave other guests during the
/// measured phases above which the run's timings are flagged on stderr:
/// thread wake-ups inside dpmd and the solver's memory traffic then run
/// late.  The flag is a warning, not a verdict: `correct` judges only
/// the program's outputs.
constexpr double kWarnStealRatio = 0.02;

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload cold-expander|serve-fleet|"
               "serve-hits --seed N --seconds S --trace 0|1\n"
               "                 [--trace-out FILE]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  options.dpmd_path = PERFBENCH_DPMD_PATH;  // built beside this program
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage();
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') return usage();
      have_seed = true;
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(options.seconds > 0.0)) {
        return usage();
      }
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") return usage();
      options.trace = value == "1";
    } else if (arg == "--trace-out") {
      options.trace_out = value;
    } else {
      return usage();
    }
  }
  if (!have_seed) return usage();

  std::fprintf(stderr, "perfbench: %s seed=%llu seconds=%g trace=%d host: %s\n",
               options.workload.c_str(),
               static_cast<unsigned long long>(options.seed), options.seconds,
               options.trace ? 1 : 0, perfbench::host_fingerprint().c_str());
  perfbench::Report report;
  try {
    if (options.workload == "cold-expander") {
      perfbench::run_cold_expander(options, report);
    } else if (options.workload == "serve-fleet" ||
               options.workload == "serve-hits") {
      perfbench::run_serve(options, report);
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    // A harness fault is not a measurement: print no result line.
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  const double steal = report.window_steal_ratio();
  std::fprintf(stderr, "perfbench: host steal %.1f%% of CPU time\n",
               100.0 * steal);
  if (steal > kWarnStealRatio) {
    std::fprintf(stderr, "perfbench: warning: host steal above %.0f%%; "
                 "timings measured a contended host\n",
                 100.0 * kWarnStealRatio);
  }
  std::printf("%s\n", report.result_line().c_str());
  return 0;
}
