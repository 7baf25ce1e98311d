// cold-expander: the offline designer's large cold solve.
//
// A closed loop with one caller cycles through synthetic random-
// successor MDPs at n * na = 50 000 (6250 states x 8 commands, four
// successors per pair, gamma = 0.999 — the bench_lp_scale generator)
// and solves each one the way PolicyOptimizer does at >= 4096 columns:
// greedy_crash_actions, then robust::SolveSupervisor seeded with the
// crash columns.  Every solution is checked with an O(nnz) optimality
// certificate built from x and the duals.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "common.h"
#include "dpm/crash.h"
#include "lp/problem.h"
#include "markov/sparse_chain.h"
#include "robust/supervisor.h"
#include "sim/rng.h"

namespace perfbench {
namespace {

using namespace dpm;

constexpr std::size_t kStates = 6250;
constexpr std::size_t kCommands = 8;
constexpr std::size_t kSuccessors = 4;
constexpr double kGamma = 0.999;
/// Instances per run; the loop cycles through them.
constexpr std::size_t kInstances = 4;
/// Fixes the instance set ("fixed-seed" MDPs); the run seed orders the
/// cycles.
constexpr std::uint64_t kInstanceSeed = 0;
/// Set-ups per run; setup_s is their median.
constexpr std::size_t kSetupRounds = 5;

struct Instance {
  std::unique_ptr<markov::SparseControlledChain> chain;
  std::vector<double> cost;  // n * na, the objective
  lp::LpProblem lp;
  double chain_ms = 0.0;  // SparseControlledChain construction
};

/// Random controlled chain with `kSuccessors` successors per (s, a), a
/// per-pair cost, and one loose capacity row over a per-pair metric.
Instance generate(std::uint64_t seed) {
  std::mt19937_64 gen(seed);
  std::uniform_real_distribution<double> u(0.0, 1.0);
  std::uniform_int_distribution<std::size_t> pick(0, kStates - 1);
  Instance inst;
  inst.cost.resize(kStates * kCommands);
  std::vector<double> metric(kStates * kCommands);
  std::vector<std::vector<markov::TransitionRow>> rows(
      kCommands, std::vector<markov::TransitionRow>(kStates));
  for (std::size_t s = 0; s < kStates; ++s) {
    for (std::size_t a = 0; a < kCommands; ++a) {
      inst.cost[s * kCommands + a] = 5.0 * u(gen);
      metric[s * kCommands + a] = 3.0 * u(gen);
      markov::TransitionRow& row = rows[a][s];
      row.resize(kSuccessors);
      double total = 0.0;
      for (auto& [to, w] : row) {
        to = pick(gen);
        w = 0.05 + u(gen);
        total += w;
      }
      for (auto& [to, w] : row) w /= total;
    }
  }
  const Clock::time_point t_chain = Clock::now();
  inst.chain = std::make_unique<markov::SparseControlledChain>(kStates,
                                                               std::move(rows));
  inst.chain_ms = ms_between(t_chain, Clock::now());

  // Balance rows sum_a x(j,a) - gamma sum P_a(s,j) x(s,a) = p0_j, then
  // the capacity row.
  lp::LpProblem& p = inst.lp;
  for (const double c : inst.cost) p.add_variable(c);
  std::vector<lp::Constraint> balance(kStates);
  for (std::size_t j = 0; j < kStates; ++j) {
    balance[j].sense = lp::Sense::kEq;
    balance[j].rhs = 1.0 / static_cast<double>(kStates);
  }
  for (std::size_t s = 0; s < kStates; ++s) {
    for (std::size_t a = 0; a < kCommands; ++a) {
      const std::size_t col = s * kCommands + a;
      balance[s].terms.emplace_back(col, 1.0);
      for (const auto& [j, w] : inst.chain->row(a, s)) {
        balance[j].terms.emplace_back(col, -kGamma * w);
      }
    }
  }
  for (lp::Constraint& c : balance) p.add_constraint(std::move(c));
  lp::Constraint cap;
  cap.sense = lp::Sense::kLe;
  double max_metric = 0.0;
  for (std::size_t col = 0; col < metric.size(); ++col) {
    cap.terms.emplace_back(col, metric[col]);
    max_metric = std::max(max_metric, metric[col]);
  }
  cap.rhs = 0.8 * max_metric / (1.0 - kGamma);
  p.add_constraint(std::move(cap));
  return inst;
}

/// O(nnz) optimality certificate of a min c'x, Ax (=|<=) b, x >= 0
/// solution: primal residual, x >= 0, dual sign on <= rows, reduced
/// costs c - A'y >= 0 and a zero duality gap.  Empty when it holds.
std::string certify(const lp::LpProblem& p, const lp::LpSolution& s) {
  if (s.status != lp::LpStatus::kOptimal) {
    return std::string("status ") + lp::to_string(s.status);
  }
  const std::size_t n = p.num_variables();
  const std::size_t m = p.num_constraints();
  if (s.x.size() != n || s.duals.size() != m) return "solution size mismatch";
  const linalg::Vector& c = p.costs();

  double x_scale = 1.0;
  for (const double v : s.x) x_scale = std::max(x_scale, std::abs(v));
  double c_scale = 1.0;
  for (const double v : c) c_scale = std::max(c_scale, std::abs(v));
  const double primal_tol = 1e-9 * x_scale;
  const double dual_tol = 1e-9 * c_scale;

  double primal_residual = 0.0;
  double dual_sign = 0.0;
  double by = 0.0;
  std::vector<double> reduced(c.begin(), c.end());
  for (std::size_t i = 0; i < m; ++i) {
    const lp::Constraint& row = p.constraints()[i];
    double activity = 0.0;
    double magnitude = 1.0;
    for (const auto& [j, a] : row.terms) {
      activity += a * s.x[j];
      magnitude += std::abs(a * s.x[j]);
      reduced[j] -= a * s.duals[i];
    }
    const double r = activity - row.rhs;
    const double violation = row.sense == lp::Sense::kEq   ? std::abs(r)
                             : row.sense == lp::Sense::kLe ? std::max(r, 0.0)
                                                           : std::max(-r, 0.0);
    primal_residual = std::max(primal_residual, violation / magnitude);
    if (row.sense == lp::Sense::kLe) dual_sign = std::max(dual_sign, s.duals[i]);
    if (row.sense == lp::Sense::kGe) dual_sign = std::max(dual_sign, -s.duals[i]);
    by += row.rhs * s.duals[i];
  }
  double negative_x = 0.0;
  double negative_reduced = 0.0;
  double cx = 0.0;
  for (std::size_t j = 0; j < n; ++j) {
    negative_x = std::max(negative_x, -s.x[j]);
    negative_reduced = std::max(negative_reduced, -reduced[j]);
    cx += c[j] * s.x[j];
  }
  const double gap = std::abs(cx - by) / (1.0 + std::abs(cx));
  char buf[256];
  if (primal_residual > 1e-9 || negative_x > primal_tol ||
      dual_sign > dual_tol || negative_reduced > dual_tol || gap > 1e-9 ||
      std::abs(cx - s.objective) > 1e-9 * (1.0 + std::abs(cx))) {
    std::snprintf(buf, sizeof buf,
                  "certificate: residual %.3g, min x %.3g, dual sign %.3g, "
                  "min reduced cost %.3g, gap %.3g, objective %.12g vs c'x "
                  "%.12g",
                  primal_residual, -negative_x, dual_sign, -negative_reduced,
                  gap, s.objective, cx);
    return buf;
  }
  return {};
}

struct Solve {
  robust::SolveOutcome outcome;
  double wall_ms = 0.0;  // crash + supervised solve
};

/// Crash seed, then the supervised solve — PolicyOptimizer's large-
/// model path.  With a tracer, both steps get spans under `parent`;
/// `stats` (optional) receives the simplex stats.
Solve solve(const Instance& inst, Tracer* tracer = nullptr,
            std::uint64_t request = 0, std::size_t parent = Tracer::kNoParent,
            lp::SimplexStats* stats = nullptr) {
  Solve out;
  const Clock::time_point t0 = Clock::now();
  const std::size_t crash_span =
      tracer ? tracer->begin("dpm.crash", request, parent) : 0;
  const std::vector<std::size_t> actions = greedy_crash_actions(
      *inst.chain,
      [&inst](std::size_t s, std::size_t a) {
        return inst.cost[s * kCommands + a];
      },
      kGamma);
  const std::vector<std::size_t> crash_cols =
      crash_columns_for_lp(actions, kCommands, inst.lp.num_constraints());
  if (tracer) tracer->end(crash_span);
  robust::SupervisorOptions opts;
  opts.lp.crash_columns = &crash_cols;
  opts.lp.stats = stats;
  const std::size_t solve_span =
      tracer ? tracer->begin("lp.solve", request, parent) : 0;
  out.outcome = robust::SolveSupervisor(opts).solve(inst.lp);
  if (tracer) tracer->end(solve_span);
  out.wall_ms = ms_between(t0, Clock::now());
  return out;
}

}  // namespace

void run_cold_expander(const Options& options, Report& report) {
  // Set-up: generate the instance set, kSetupRounds times over (the last
  // set is kept); setup_s is the median.
  std::vector<Instance> instances;
  std::vector<double> setup_s;
  for (std::size_t round = 0; round < kSetupRounds; ++round) {
    instances.clear();
    const Clock::time_point t0 = Clock::now();
    for (std::size_t k = 0; k < kInstances; ++k) {
      instances.push_back(generate(
          dpm::sim::derive_seed("cold-expander", k, kInstanceSeed)));
    }
    setup_s.push_back(ms_between(t0, Clock::now()) / 1000.0);
  }

  // Closed loop: one caller, next solve when the previous returns, in
  // whole cycles over the instance set (seeded order), so every instance
  // is solved equally often.  The traced run spends half its time
  // untraced (the overhead baseline).
  dpm::sim::Rng order_rng(dpm::sim::derive_seed("cold-expander", 1, options.seed));
  Tracer tracer;
  std::vector<double> walls;
  std::vector<double> traced_walls;
  std::vector<SolveRecord> records;
  std::size_t index = 0;
  std::vector<std::vector<double>> walls_by_instance(kInstances);
  const auto run_one = [&](std::size_t k, bool traced) {
    const Instance& inst = instances[k];
    const std::uint64_t request = index++;
    lp::SimplexStats stats;
    Solve s;
    if (traced) {
      Scope root(tracer, "cold.solve", request);
      s = solve(inst, &tracer, request, root.id(), &stats);
      SolveRecord record;
      accumulate(record, s.outcome, stats);
      records.push_back(record);
      traced_walls.push_back(s.wall_ms);
    } else {
      s = solve(inst);
      walls.push_back(s.wall_ms);
      walls_by_instance[k].push_back(s.wall_ms);
    }
    report.attempted(1);
    if (!s.outcome.determined()) {
      report.check_failed("solve " + std::to_string(request) + " failed: " +
                          (s.outcome.failure ? s.outcome.failure->detail : ""));
      return;
    }
    const std::string problem = certify(inst.lp, s.outcome.solution);
    if (!problem.empty()) {
      report.check_failed("solve " + std::to_string(request) + ": " + problem);
    }
  };
  const auto run_cycles = [&](double budget_ms, bool traced) {
    const Clock::time_point start = Clock::now();
    do {
      std::vector<std::size_t> order(kInstances);
      for (std::size_t k = 0; k < kInstances; ++k) order[k] = k;
      for (std::size_t i = kInstances; i > 1; --i) {
        std::swap(order[i - 1], order[order_rng.uniform_index(i)]);
      }
      for (const std::size_t k : order) run_one(k, traced);
    } while (ms_between(start, Clock::now()) < budget_ms);
  };
  const double budget_ms = 1000.0 * options.seconds;
  report.start_window();
  run_cycles(options.trace ? budget_ms / 2.0 : budget_ms, false);
  if (options.trace) run_cycles(budget_ms / 2.0, true);
  std::fprintf(stderr, "perfbench: cold-expander %zu solves, median %.1f ms\n",
               walls.size() + traced_walls.size(), median(walls));

  if (!options.trace) {
    report.metric("setup_s", median(setup_s), "s");
    report.metric("p50_ms", median(walls), "ms");
    // Too few solves for a percentile with ten beyond it: the tail is
    // the slowest instance's median solve.
    double slowest = 0.0;
    for (const std::vector<double>& w : walls_by_instance) {
      slowest = std::max(slowest, median(w));
    }
    report.metric("p99_ms", slowest, "ms");
    report.metric("peak_rss_mb", self_peak_rss_mb(), "MB");
    return;
  }

  LayerMetrics layers;
  // dpm.build_lp_ms stays 0: these synthetic chains have no SystemModel,
  // so PolicyOptimizer::build_lp never runs; the benchmark's own LP
  // assembly above is not a layer of the program.
  std::vector<double> chain_ms;
  for (const Instance& inst : instances) chain_ms.push_back(inst.chain_ms);
  layers.set("markov.chain_ms", median(chain_ms));
  layers.set("dpm.crash_ms", median(tracer.durations("dpm.crash")));
  set_solver_layers(records, layers);
  layers.set("bench.trace_overhead_ratio",
             median(traced_walls) / median(walls) - 1.0);
  layers.set("bench.error_ratio",
             double(report.failures()) / double(walls.size() + records.size()));
  layers.set("bench.steal_ratio", report.window_steal_ratio());
  layers.emit(report);
  if (!options.trace_out.empty() && !tracer.write(options.trace_out)) {
    report.invalid("cannot write " + options.trace_out);
  }
}

}  // namespace perfbench
