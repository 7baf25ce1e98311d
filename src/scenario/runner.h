// ExperimentRunner: executes scenario grids on a thread pool.
//
// The unit (scenario/scenario.h) is the scheduling quantum: workers
// pull units off a shared queue, so a 16-scenario run saturates every
// core while each warm-started sweep series stays sequential on one
// worker.  Determinism contract:
//  * every unit derives all randomness from (scenario name, unit
//    index) via sim::derive_seed — never from the worker thread;
//  * units buffer their output; the runner prints and serializes in
//    unit order after the barrier.
// Hence stdout tables and the emitted BENCH_<scenario>.json files are
// byte-identical for --jobs 1 and --jobs N (records carry wall_ms = 0;
// real wall times are reported on stdout only).
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "robust/fault_injection.h"
#include "scenario/scenario.h"

namespace dpm::scenario {

struct RunnerOptions {
  std::size_t jobs = 1;       // worker threads (0 -> 1)
  bool smoke = false;         // reduced grids, short simulations
  bool print = true;          // banner + buffered unit tables on stdout
  bool write_json = true;     // one BENCH_<scenario>.json per scenario
  /// Content-addressed result cache (scenario/cache.h): look every
  /// unit's unit_key() up before executing it, replay hits
  /// bit-identically, store clean misses, and LRU-trim the store to
  /// ResultCache::kDefaultMaxEntries on flush.  Off by default — an
  /// explicit accelerator, not a default behavior change.
  bool cache = false;
  std::string cache_dir = ".scenario_cache";
  /// Per-unit wall-clock deadline in milliseconds (0 = none).
  /// Cooperative: solvers poll robust::deadline_expired() at iteration
  /// boundaries, so an expired unit surfaces a structured kDeadline
  /// failure instead of being killed mid-write.
  double unit_deadline_ms = 0.0;
  /// Bounded retry: a unit whose attempt fails (shape failure, thrown
  /// exception, expired deadline) is re-run immediately, up to this
  /// many more times, before its failure is reported.  Attempts replay
  /// deterministic work, so waiting between them buys nothing.  The
  /// unit's fault scope is armed once, OUTSIDE the attempt loop, so a
  /// consumed single-shot injected fault stays consumed and the retry
  /// reproduces the fault-free output byte-for-byte.
  std::size_t unit_retries = 0;
  /// Optional fault injection: each unit arms a FaultPlan derived from
  /// (site, scenario name, unit index) — deterministic regardless of
  /// --jobs, because plans are thread-local and derived from the unit's
  /// identity, never from the worker that happens to run it.
  std::optional<robust::FaultSpec> fault;
};

/// Structured record of a unit whose attempt(s) failed.  A failing unit
/// always yields one of these — never a crashed pool.
struct UnitFailure {
  std::string unit;          // unit label
  std::size_t index = 0;     // unit index within its scenario
  std::size_t attempts = 0;  // attempts executed (>= 1)
  bool recovered = false;    // a retry produced a clean result
  std::string detail;        // first attempt's first failure message
};

struct ScenarioRunResult {
  std::string name;
  std::size_t units = 0;
  std::size_t units_cached = 0;  // units replayed from the result cache
  std::size_t iterations = 0;  // sum of record iterations (pivots/slices)
  double wall_ms = 0.0;        // sum of unit wall times (real; 0 for
                               // cached units — nothing executed)
  std::vector<Record> records;            // unit order
  std::vector<std::string> failures;      // shape-assertion failures
  std::map<std::string, double> values;   // merged cross-unit facts
  /// One entry per unit whose first attempt failed (recovered or not),
  /// in unit order.  `failures` above stays the pass/fail signal:
  /// recovered units contribute here but not there.
  std::vector<UnitFailure> unit_failures;
};

class ExperimentRunner {
 public:
  explicit ExperimentRunner(RunnerOptions options) : options_(options) {}

  /// Runs every scenario's units on the pool; returns per-scenario
  /// results in the given order.
  std::vector<ScenarioRunResult> run(
      const std::vector<const Scenario*>& scenarios) const;

  /// Convenience: run one scenario.
  ScenarioRunResult run_one(const Scenario& scenario) const;

 private:
  RunnerOptions options_;
};

}  // namespace dpm::scenario
