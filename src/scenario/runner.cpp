#include "scenario/runner.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <exception>
#include <memory>
#include <optional>
#include <thread>

#include "robust/fault_injection.h"
#include "robust/probe.h"
#include "scenario/cache.h"

namespace dpm::scenario {

namespace {

struct UnitTask {
  std::size_t scenario = 0;  // index into the scenario list
  std::size_t unit = 0;      // index into that scenario's unit list
};

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void print_banner(const Scenario& sc, bool smoke) {
  std::printf("\n");
  std::printf(
      "=====================================================================\n");
  std::printf("%s — %s%s\n", sc.name.c_str(), sc.title.c_str(),
              smoke ? "  [smoke]" : "");
  std::printf("  %s\n", sc.what.c_str());
  std::printf(
      "=====================================================================\n");
}

}  // namespace

std::vector<ScenarioRunResult> ExperimentRunner::run(
    const std::vector<const Scenario*>& scenarios) const {
  const bool smoke = options_.smoke;

  // Expand every scenario's grid up front so the pool sees one flat
  // task list (units of different scenarios interleave freely).
  std::vector<std::vector<Unit>> units(scenarios.size());
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    units[i] = scenarios[i]->units(smoke);
  }

  std::vector<std::vector<UnitOutput>> outputs(scenarios.size());
  std::vector<std::vector<char>> cached(scenarios.size());
  std::vector<std::vector<std::size_t>> attempts(scenarios.size());
  std::vector<std::vector<std::string>> first_error(scenarios.size());
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    outputs[i].resize(units[i].size());
    cached[i].assign(units[i].size(), 0);
    attempts[i].assign(units[i].size(), 0);
    first_error[i].resize(units[i].size());
  }

  // Content-addressed result cache: resolve hits before the pool starts
  // (lookups and stores are single-threaded by construction; workers
  // never touch the cache).  Keys are computed up front too — model
  // hashing is cheap next to a solve, and a key is needed either way to
  // store a miss.  The fingerprint does re-compose the unit's model on
  // this thread (the body composes its own copy again on a miss); that
  // duplicate work is accepted while composition stays far below solve
  // cost — revisit if scenarios ever carry bench_mdp_scale-sized
  // models.
  std::unique_ptr<ResultCache> cache;
  std::vector<std::vector<std::uint64_t>> keys(scenarios.size());
  std::vector<std::vector<char>> keyed(scenarios.size());
  std::vector<UnitTask> tasks;
  if (options_.cache) {
    cache = std::make_unique<ResultCache>(options_.cache_dir);
    cache->load();
  }
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    if (cache != nullptr) {
      keys[i].resize(units[i].size(), 0);
      keyed[i].assign(units[i].size(), 0);
    }
    for (std::size_t u = 0; u < units[i].size(); ++u) {
      if (cache != nullptr) {
        // Fingerprints compose the unit's model (and assemble its LP),
        // so they can throw the same way the unit body would.  A
        // throwing fingerprint makes the unit uncacheable — it falls
        // through to the pool, whose try/catch reports the real error
        // as a shape failure instead of aborting the process here.
        try {
          keys[i][u] = unit_key(*scenarios[i], units[i][u], u, smoke);
          keyed[i][u] = 1;
          if (cache->lookup(keys[i][u], outputs[i][u])) {
            cached[i][u] = 1;
            continue;  // replayed — nothing to execute
          }
        } catch (...) {
        }
      }
      tasks.push_back({i, u});
    }
  }

  // Work-stealing-by-counter pool.  Units write only into their own
  // preassigned output slot, so no synchronization beyond the counter
  // (and the final join) is needed, and results are independent of
  // which worker ran what.
  std::atomic<std::size_t> next{0};
  const auto worker = [&]() {
    for (;;) {
      const std::size_t t = next.fetch_add(1, std::memory_order_relaxed);
      if (t >= tasks.size()) return;
      const UnitTask task = tasks[t];
      const Scenario& sc = *scenarios[task.scenario];
      Unit& unit = units[task.scenario][task.unit];

      // Arm this unit's fault plan once, OUTSIDE the attempt loop: the
      // plan is derived from the unit's identity (never the worker), so
      // injection is --jobs-invariant, and a consumed single-shot fault
      // stays consumed — the retry below solves clean and reproduces
      // the fault-free output byte-for-byte.
      std::optional<robust::FaultScope> fault_scope;
      if (options_.fault.has_value()) {
        fault_scope.emplace(robust::FaultPlan::derive(
            options_.fault->site, sc.name, task.unit, options_.fault->window,
            options_.fault->count));
      }

      const std::size_t max_attempts = options_.unit_retries + 1;
      for (std::size_t attempt = 1; attempt <= max_attempts; ++attempt) {
        UnitContext ctx(sc.name, task.unit, smoke);
        if (options_.unit_deadline_ms > 0.0) {
          robust::set_thread_deadline(options_.unit_deadline_ms);
        }
        const double t0 = now_ms();
        try {
          unit.run(ctx);
        } catch (const std::exception& e) {
          ctx.check(false, "unit '" + unit.label + "' threw: " + e.what());
        } catch (...) {
          ctx.check(false,
                    "unit '" + unit.label + "' threw a non-std exception");
        }
        robust::clear_thread_deadline();
        ctx.output().wall_ms = now_ms() - t0;
        attempts[task.scenario][task.unit] = attempt;
        if (attempt == 1 && !ctx.output().failures.empty()) {
          first_error[task.scenario][task.unit] =
              ctx.output().failures.front();
        }
        const bool clean = ctx.output().failures.empty();
        if (clean || attempt == max_attempts) {
          outputs[task.scenario][task.unit] = std::move(ctx.output());
          break;
        }
      }
    }
  };

  std::size_t jobs = options_.jobs == 0 ? 1 : options_.jobs;
  jobs = std::min(jobs, tasks.size() == 0 ? std::size_t{1} : tasks.size());
  if (jobs <= 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(jobs);
    for (std::size_t i = 0; i < jobs; ++i) pool.emplace_back(worker);
    for (std::thread& th : pool) th.join();
  }

  // Record the fresh (clean) results and persist the store; failed
  // units are never cached — they must recompute every run until fixed.
  if (cache != nullptr) {
    for (const UnitTask& task : tasks) {
      const UnitOutput& out = outputs[task.scenario][task.unit];
      if (!out.failures.empty()) continue;
      if (keyed[task.scenario][task.unit] == 0) continue;  // no key
      cache->store(keys[task.scenario][task.unit],
                   scenarios[task.scenario]->name,
                   units[task.scenario][task.unit].label, out);
    }
    if (!cache->flush() && options_.print) {
      std::fprintf(stderr,
                   "scenario cache: could not write %s (results are "
                   "unaffected; caching skipped)\n",
                   cache->path().c_str());
    }
  }

  // Deterministic assembly: scenario order, then unit order.
  std::vector<ScenarioRunResult> results;
  results.reserve(scenarios.size());
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    const Scenario& sc = *scenarios[i];
    ScenarioRunResult res;
    res.name = sc.name;
    res.units = units[i].size();
    if (options_.print) print_banner(sc, smoke);
    for (std::size_t u = 0; u < units[i].size(); ++u) {
      UnitOutput& out = outputs[i][u];
      if (cached[i][u] != 0) ++res.units_cached;
      // Structured failure record for any unit whose first attempt
      // failed.  Recovery notes go to stderr so stdout (and hence the
      // --compare harness) stays byte-identical with a clean run.
      if (attempts[i][u] > 1 || !out.failures.empty()) {
        UnitFailure uf;
        uf.unit = units[i][u].label;
        uf.index = u;
        uf.attempts = attempts[i][u];
        uf.recovered = out.failures.empty();
        uf.detail = first_error[i][u];
        if (options_.print && uf.recovered) {
          std::fprintf(stderr,
                       "  [robust] %s unit '%s' recovered on attempt %zu "
                       "(first attempt: %s)\n",
                       sc.name.c_str(), uf.unit.c_str(), uf.attempts,
                       uf.detail.c_str());
        }
        res.unit_failures.push_back(std::move(uf));
      }
      if (options_.print) {
        if (cached[i][u] != 0) {
          std::printf("\n--- %s ---   (cached)\n", units[i][u].label.c_str());
        } else {
          std::printf("\n--- %s ---   (%.1f ms)\n", units[i][u].label.c_str(),
                      out.wall_ms);
        }
        for (const std::string& line : out.lines) {
          std::printf("%s\n", line.c_str());
        }
      }
      res.wall_ms += out.wall_ms;
      for (Record& r : out.records) {
        res.iterations += r.iterations;
        res.records.push_back(std::move(r));
      }
      // Colliding keys would make cross-unit shape checks silently read
      // the wrong cell — treat a duplicate as a scenario defect.
      for (auto& [k, v] : out.values) {
        if (!res.values.emplace(k, v).second) {
          res.failures.push_back("duplicate cross-unit value key '" + k +
                                 "' (unit '" + units[i][u].label + "')");
        }
      }
      for (std::string& f : out.failures) res.failures.push_back(std::move(f));
    }

    if (sc.check) {
      ShapeChecker checker(res.values);
      sc.check(checker);
      for (std::string& f : checker.take_failures()) {
        res.failures.push_back(std::move(f));
      }
    }

    if (options_.write_json) write_json_report(sc.name, res.records);

    if (options_.print) {
      if (res.failures.empty()) {
        std::printf("\n  shape checks: OK   (%zu units, %zu cached, "
                    "%zu records, %zu iterations, %.1f ms)\n",
                    res.units, res.units_cached, res.records.size(),
                    res.iterations, res.wall_ms);
      } else {
        std::printf("\n  shape checks: %zu FAILURE(S)\n",
                    res.failures.size());
        for (const std::string& f : res.failures) {
          std::printf("    FAIL: %s\n", f.c_str());
        }
      }
    }
    results.push_back(std::move(res));
  }
  return results;
}

ScenarioRunResult ExperimentRunner::run_one(const Scenario& scenario) const {
  return run({&scenario}).front();
}

}  // namespace dpm::scenario
