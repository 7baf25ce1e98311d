#include "dpm/optimizer.h"

#include <cmath>
#include <string>
#include <utility>

#include "dpm/crash.h"
#include "robust/supervisor.h"

namespace dpm {

namespace {

/// Column count from which crash_seed() seeds cold solves with a
/// policy-iteration crash basis (see dpm/crash.h).  Below it the crash
/// machinery costs more than the pivots it saves, and the small
/// case-study scenarios keep their historical byte-for-byte pivot
/// trajectories (golden tier).
constexpr std::size_t kCrashMinColumns = 4096;

}  // namespace

lp::LpSolution supervised_solve(const lp::LpProblem& problem,
                                lp::Backend backend,
                                const lp::SimplexBasis* warm,
                                lp::SimplexBasis* basis_out,
                                const std::vector<std::size_t>* crash) {
  robust::SupervisorOptions opts;
  opts.backend = backend;
  // Crash seed (revised simplex only; the tableau ignores it).  The
  // supervisor's cold-restart and later rungs drop it themselves.
  opts.lp.crash_columns = crash;
  const robust::SolveSupervisor supervisor(opts);
  robust::SolveOutcome outcome = supervisor.solve(problem, warm, basis_out);
  if (!outcome.determined()) {
    std::string msg = "supervised solve abandoned";
    if (outcome.failure.has_value()) {
      msg += ": ";
      msg += robust::to_string(outcome.failure->reason);
      if (!outcome.failure->detail.empty()) {
        msg += " (" + outcome.failure->detail + ")";
      }
    }
    throw lp::LpError(msg);
  }
  return std::move(outcome.solution);
}

lp::LpProblem balance_lp(const markov::SparseControlledChain& chain,
                         double gamma, const linalg::Vector& rhs,
                         const StateActionMetric& cost) {
  const std::size_t n = chain.num_states();
  const std::size_t na = chain.num_commands();

  lp::LpProblem problem;
  // One variable per (state, command) pair, column index s*na + a.
  for (std::size_t s = 0; s < n; ++s) {
    for (std::size_t a = 0; a < na; ++a) {
      problem.add_variable(cost(s, a), "x(" + std::to_string(s) + "," +
                                           std::to_string(a) + ")");
    }
  }

  // Balance equations (the "incoming flow = outgoing flow" constraints
  // of LP2, Fig. 11).  Each (s, a) pair contributes its outgoing-flow
  // term plus one term per stored successor, so assembly is O(nnz),
  // independent of n^2.  The self-loop's -gamma * p is added to the
  // outgoing 1.0 here rather than in add_constraint's merge (the same
  // sum), so the exact zero of an absorbing state at gamma = 1 is never
  // stored.
  std::vector<lp::Constraint> balance(n);
  for (std::size_t j = 0; j < n; ++j) {
    balance[j].sense = lp::Sense::kEq;
    balance[j].rhs = rhs[j];
    balance[j].name = "balance(" + std::to_string(j) + ")";
    balance[j].terms.reserve(na + 8);
  }
  for (std::size_t a = 0; a < na; ++a) {
    for (std::size_t s = 0; s < n; ++s) {
      const std::size_t col = s * na + a;
      double outgoing = 1.0;
      for (const auto& [j, p] : chain.row(a, s)) {
        if (j == s) {
          outgoing += -gamma * p;
        } else {
          balance[j].terms.emplace_back(col, -gamma * p);
        }
      }
      if (outgoing != 0.0) balance[s].terms.emplace_back(col, outgoing);
    }
  }
  for (std::size_t j = 0; j < n; ++j) {
    problem.add_constraint(std::move(balance[j]));
  }
  return problem;
}

void add_metric_rows(lp::LpProblem& problem, std::size_t num_commands,
                     const std::vector<OptimizationConstraint>& constraints,
                     double scale) {
  const std::size_t n = problem.num_variables() / num_commands;
  for (const auto& oc : constraints) {
    lp::Constraint c;
    c.sense = lp::Sense::kLe;
    c.rhs = oc.per_step_bound * scale;
    c.name = oc.name;
    c.terms.reserve(n * num_commands);
    for (std::size_t s = 0; s < n; ++s) {
      for (std::size_t a = 0; a < num_commands; ++a) {
        const double m = oc.metric(s, a);
        if (m != 0.0) c.terms.emplace_back(s * num_commands + a, m);
      }
    }
    problem.add_constraint(std::move(c));
  }
}

std::vector<double> metric_values(
    const linalg::Vector& x, std::size_t num_commands,
    const std::vector<OptimizationConstraint>& constraints, double scale) {
  std::vector<double> values;
  values.reserve(constraints.size());
  for (const auto& oc : constraints) {
    double total = 0.0;
    for (std::size_t col = 0; col < x.size(); ++col) {
      const double v = x[col];
      if (v != 0.0) {
        total += oc.metric(col / num_commands, col % num_commands) * v;
      }
    }
    values.push_back(scale * total);
  }
  return values;
}

PolicyOptimizer::PolicyOptimizer(const SystemModel& model,
                                 OptimizerConfig config)
    : model_(&model), config_(std::move(config)) {
  if (config_.discount <= 0.0 || config_.discount >= 1.0) {
    throw ModelError("PolicyOptimizer: discount must be in (0,1)");
  }
  if (config_.initial_distribution.empty()) {
    config_.initial_distribution = model.uniform_distribution();
  }
  if (config_.initial_distribution.size() != model.num_states()) {
    throw ModelError("PolicyOptimizer: initial distribution size mismatch");
  }
  double mass = 0.0;
  for (double v : config_.initial_distribution) {
    if (v < -1e-12) {
      throw ModelError("PolicyOptimizer: negative initial probability");
    }
    mass += v;
  }
  if (std::abs(mass - 1.0) > 1e-7) {
    throw ModelError("PolicyOptimizer: initial distribution must sum to 1");
  }
}

lp::LpProblem PolicyOptimizer::build_lp(
    const StateActionMetric& objective,
    const std::vector<OptimizationConstraint>& constraints) const {
  // Metric constraints are scaled from per-step averages to discounted
  // totals by the horizon 1/(1-gamma).
  lp::LpProblem problem = balance_lp(model_->chain(), config_.discount,
                                     config_.initial_distribution, objective);
  add_metric_rows(problem, model_->num_commands(), constraints,
                  1.0 / (1.0 - config_.discount));
  return problem;
}

Policy PolicyOptimizer::extract_policy(
    const linalg::Vector& frequencies) const {
  const std::size_t n = model_->num_states();
  const std::size_t na = model_->num_commands();
  if (frequencies.size() != n * na) {
    throw ModelError("extract_policy: frequency vector size mismatch");
  }
  linalg::Matrix decisions(n, na);
  for (std::size_t s = 0; s < n; ++s) {
    double total = 0.0;
    for (std::size_t a = 0; a < na; ++a) {
      total += std::max(0.0, frequencies[s * na + a]);
    }
    if (total <= 1e-300) {
      // Unreachable under the optimal frequencies: any decision works;
      // pick uniform so the choice is explicit and valid.
      for (std::size_t a = 0; a < na; ++a) {
        decisions(s, a) = 1.0 / static_cast<double>(na);
      }
      continue;
    }
    for (std::size_t a = 0; a < na; ++a) {
      decisions(s, a) = std::max(0.0, frequencies[s * na + a]) / total;
    }
  }
  return Policy::randomized(std::move(decisions));
}

std::vector<std::size_t> PolicyOptimizer::crash_seed(
    const lp::LpProblem& problem, const StateActionMetric& objective) const {
  // Large cold solves start from a policy-iteration crash basis: the
  // greedy deterministic policy's occupation-measure columns seed the
  // balance rows, turning thousands of phase-1/2 pivots into a short
  // phase-2 polish (dpm/crash.h).  Constraints are ignored by the
  // greedy policy on purpose — the engine's repair path absorbs
  // whatever infeasibility that leaves, or falls back cold.
  if (config_.backend != lp::Backend::kRevisedSimplex ||
      model_->num_states() * model_->num_commands() < kCrashMinColumns) {
    return {};
  }
  const std::vector<std::size_t> actions = greedy_crash_actions(
      model_->chain(), objective, config_.discount);
  return crash_columns_for_lp(actions, model_->num_commands(),
                              problem.num_constraints());
}

std::vector<double> PolicyOptimizer::achieved_per_step(
    const linalg::Vector& x,
    const std::vector<OptimizationConstraint>& constraints) const {
  return metric_values(x, model_->num_commands(), constraints,
                       1.0 - config_.discount);
}

OptimizationResult PolicyOptimizer::minimize(
    const StateActionMetric& objective,
    const std::vector<OptimizationConstraint>& constraints) const {
  const lp::LpProblem problem = build_lp(objective, constraints);

  const std::vector<std::size_t> crash_cols = crash_seed(problem, objective);
  const lp::LpSolution lp_sol =
      supervised_solve(problem, config_.backend, nullptr, nullptr,
                       crash_cols.empty() ? nullptr : &crash_cols);

  OptimizationResult result;
  result.lp_status = lp_sol.status;
  result.lp_iterations = lp_sol.iterations;
  if (lp_sol.status != lp::LpStatus::kOptimal) {
    return result;  // infeasible (paper: f(P) = +inf) or solver failure
  }
  const double one_minus_gamma = 1.0 - config_.discount;
  result.feasible = true;
  result.frequencies = lp_sol.x;
  result.objective_per_step = one_minus_gamma * lp_sol.objective;
  result.policy = extract_policy(lp_sol.x);

  result.constraint_per_step = achieved_per_step(lp_sol.x, constraints);
  return result;
}

OptimizationResult PolicyOptimizer::minimize_power(
    double max_avg_queue, std::optional<double> max_loss_rate) const {
  std::vector<OptimizationConstraint> constraints;
  constraints.push_back(
      {metrics::queue_length(*model_), max_avg_queue, "performance"});
  if (max_loss_rate) {
    constraints.push_back(
        {metrics::request_loss(*model_), *max_loss_rate, "request-loss"});
  }
  return minimize(metrics::power(*model_), constraints);
}

OptimizationResult PolicyOptimizer::minimize_penalty(
    double max_avg_power, std::optional<double> max_loss_rate) const {
  std::vector<OptimizationConstraint> constraints;
  constraints.push_back({metrics::power(*model_), max_avg_power, "power"});
  if (max_loss_rate) {
    constraints.push_back(
        {metrics::request_loss(*model_), *max_loss_rate, "request-loss"});
  }
  return minimize(metrics::queue_length(*model_), constraints);
}

std::vector<PolicyOptimizer::ParetoPoint> PolicyOptimizer::sweep(
    const StateActionMetric& objective, const StateActionMetric& swept,
    std::string swept_name, const std::vector<double>& sweep_bounds,
    const std::vector<OptimizationConstraint>& fixed_constraints) const {
  std::vector<ParetoPoint> curve;
  curve.reserve(sweep_bounds.size());

  // The LP matrix is identical across the sweep (the swept constraint is
  // the last row; only its rhs moves), so the revised simplex restarts
  // each point from the previous optimal basis.  The tableau leaves no
  // basis, so under it every point is a cold solve of the same LP.
  std::vector<OptimizationConstraint> constraints = fixed_constraints;
  constraints.push_back(
      {swept, sweep_bounds.empty() ? 0.0 : sweep_bounds.front(), swept_name});
  lp::LpProblem lp = build_lp(objective, constraints);
  const std::size_t swept_row =
      model_->num_states() + fixed_constraints.size();
  const double one_minus_gamma = 1.0 - config_.discount;
  const double horizon = 1.0 / one_minus_gamma;

  lp::SimplexBasis basis;
  for (const double bound : sweep_bounds) {
    lp.set_rhs(swept_row, bound * horizon);
    lp::SimplexBasis next;
    const lp::LpSolution s =
        supervised_solve(lp, config_.backend,
                         basis.empty() ? nullptr : &basis, &next);
    ParetoPoint pt;
    pt.bound = bound;
    pt.lp_iterations = s.iterations;
    if (s.status == lp::LpStatus::kOptimal) {
      pt.feasible = true;
      pt.objective = one_minus_gamma * s.objective;
      pt.policy = extract_policy(s.x);
      pt.constraint_per_step = achieved_per_step(s.x, constraints);
      pt.frequencies = s.x;
      basis = std::move(next);  // warm-start the next bound from here
    }
    curve.push_back(std::move(pt));
  }
  return curve;
}

}  // namespace dpm
