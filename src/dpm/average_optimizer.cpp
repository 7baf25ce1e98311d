#include "dpm/average_optimizer.h"

namespace dpm {

AverageCostOptimizer::AverageCostOptimizer(const SystemModel& model)
    : model_(&model) {}

lp::LpProblem AverageCostOptimizer::build_lp(
    const StateActionMetric& objective,
    const std::vector<OptimizationConstraint>& constraints) const {
  const std::size_t n = model_->num_states();
  const std::size_t na = model_->num_commands();

  // Stationarity: the balance block at gamma = 1 with rhs 0, outflow of
  // j equals inflow of j.  (One of these rows is redundant given the
  // normalization; the solvers tolerate it.)
  lp::LpProblem problem =
      balance_lp(model_->chain(), 1.0, linalg::Vector(n, 0.0), objective);

  // Normalization: x is a distribution.
  lp::Constraint norm;
  norm.sense = lp::Sense::kEq;
  norm.rhs = 1.0;
  norm.name = "normalization";
  for (std::size_t k = 0; k < n * na; ++k) norm.terms.emplace_back(k, 1.0);
  problem.add_constraint(std::move(norm));

  // Bounds are already per-step averages: scale 1.
  add_metric_rows(problem, na, constraints, 1.0);
  return problem;
}

OptimizationResult AverageCostOptimizer::minimize(
    const StateActionMetric& objective,
    const std::vector<OptimizationConstraint>& constraints) const {
  const lp::LpProblem problem = build_lp(objective, constraints);
  const lp::LpSolution lp_sol =
      supervised_solve(problem, lp::Backend::kRevisedSimplex);

  OptimizationResult result;
  result.lp_status = lp_sol.status;
  result.lp_iterations = lp_sol.iterations;
  if (lp_sol.status != lp::LpStatus::kOptimal) return result;

  result.feasible = true;
  result.frequencies = lp_sol.x;
  result.objective_per_step = lp_sol.objective;

  // Policy extraction is shared with the discounted optimizer (Eq. 16
  // applies verbatim to stationary distributions) — but with one
  // average-cost-specific addition: the LP only pins down behaviour on
  // the support of the optimal stationary distribution.  States outside
  // it must be *steered into* the support, or a run started there (or
  // in a transient state) may settle in a worse recurrent class.
  // Backward BFS: give each off-support state a command with positive
  // one-step probability of moving closer to the support.
  OptimizerConfig dummy;
  dummy.discount = 0.5;  // unused by extract_policy
  const PolicyOptimizer extractor(*model_, dummy);
  const std::size_t n = model_->num_states();
  const std::size_t na = model_->num_commands();
  std::vector<bool> steered(n, false);
  for (std::size_t s = 0; s < n; ++s) {
    double mass = 0.0;
    for (std::size_t a = 0; a < na; ++a) mass += lp_sol.x[s * na + a];
    steered[s] = mass > 1e-12;
  }
  linalg::Matrix decisions = extractor.extract_policy(lp_sol.x).matrix();
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t s = 0; s < n; ++s) {
      if (steered[s]) continue;
      for (std::size_t a = 0; a < na; ++a) {
        double into = 0.0;
        for (const auto& [t, p] : model_->chain().row(a, s)) {
          if (steered[t]) into += p;
        }
        if (into > 0.0) {
          for (std::size_t b = 0; b < na; ++b) decisions(s, b) = 0.0;
          decisions(s, a) = 1.0;
          steered[s] = true;
          changed = true;
          break;
        }
      }
    }
  }
  result.policy = Policy::randomized(std::move(decisions));
  result.constraint_per_step = metric_values(lp_sol.x, na, constraints, 1.0);
  return result;
}

bool AverageCostOptimizer::support_is_single_class(
    const OptimizationResult& result) const {
  if (!result.feasible || !result.policy) return false;
  const std::size_t n = model_->num_states();
  const std::size_t na = model_->num_commands();
  std::vector<std::size_t> support;
  for (std::size_t s = 0; s < n; ++s) {
    double mass = 0.0;
    for (std::size_t a = 0; a < na; ++a) {
      mass += result.frequencies[s * na + a];
    }
    if (mass > 1e-12) support.push_back(s);
  }
  if (support.size() <= 1) return true;

  // Strong connectivity of the support under the mixed chain: BFS both
  // ways from support.front(), restricted to support states, over the
  // sparse mixed rows (no dense n x n matrix).
  markov::MixedChainCsr mixed;
  model_->chain().under_policy_csr(result.policy->matrix(), mixed);
  std::vector<char> in_support(n, 0);
  for (const std::size_t s : support) in_support[s] = 1;
  std::vector<std::vector<std::size_t>> fwd(n), rev(n);
  for (const std::size_t s : support) {
    for (const auto& [t, w] : mixed.row(s)) {
      if (w > 0.0 && in_support[t]) {
        fwd[s].push_back(t);
        rev[t].push_back(s);
      }
    }
  }
  const auto reaches_all = [&](const std::vector<std::vector<std::size_t>>&
                                   adj) {
    std::vector<bool> seen(n, false);
    std::vector<std::size_t> frontier{support.front()};
    seen[support.front()] = true;
    while (!frontier.empty()) {
      const std::size_t s = frontier.back();
      frontier.pop_back();
      for (const std::size_t t : adj[s]) {
        if (!seen[t]) {
          seen[t] = true;
          frontier.push_back(t);
        }
      }
    }
    for (const std::size_t s : support) {
      if (!seen[s]) return false;
    }
    return true;
  };
  return reaches_all(fwd) && reaches_all(rev);
}

OptimizationResult AverageCostOptimizer::minimize_power(
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

}  // namespace dpm
