#include "dpm/average_optimizer.h"

namespace dpm {

AverageCostOptimizer::AverageCostOptimizer(const SystemModel& model)
    : model_(&model) {}

lp::LpProblem AverageCostOptimizer::build_lp(
    const StateActionMetric& objective,
    const std::vector<OptimizationConstraint>& constraints) const {
  const std::size_t n = model_->num_states();
  const std::size_t na = model_->num_commands();

  lp::LpProblem problem;
  for (std::size_t s = 0; s < n; ++s) {
    for (std::size_t a = 0; a < na; ++a) {
      problem.add_variable(objective(s, a),
                           "x(" + std::to_string(s) + "," +
                               std::to_string(a) + ")");
    }
  }

  // Stationarity: outflow of j equals inflow of j.  (One of these rows
  // is redundant given the normalization; the solvers tolerate it.)
  for (std::size_t j = 0; j < n; ++j) {
    lp::Constraint c;
    c.sense = lp::Sense::kEq;
    c.rhs = 0.0;
    c.name = "stationarity(" + std::to_string(j) + ")";
    for (std::size_t s = 0; s < n; ++s) {
      for (std::size_t a = 0; a < na; ++a) {
        double coeff = -model_->chain().transition(s, j, a);
        if (s == j) coeff += 1.0;
        if (coeff != 0.0) c.terms.emplace_back(s * na + a, coeff);
      }
    }
    problem.add_constraint(std::move(c));
  }

  // Normalization: x is a distribution.
  {
    lp::Constraint c;
    c.sense = lp::Sense::kEq;
    c.rhs = 1.0;
    c.name = "normalization";
    for (std::size_t k = 0; k < n * na; ++k) c.terms.emplace_back(k, 1.0);
    problem.add_constraint(std::move(c));
  }

  for (const auto& oc : constraints) {
    lp::Constraint c;
    c.sense = lp::Sense::kLe;
    c.rhs = oc.per_step_bound;  // already a per-step average
    c.name = oc.name;
    for (std::size_t s = 0; s < n; ++s) {
      for (std::size_t a = 0; a < na; ++a) {
        const double m = oc.metric(s, a);
        if (m != 0.0) c.terms.emplace_back(s * na + a, m);
      }
    }
    problem.add_constraint(std::move(c));
  }
  return problem;
}

OptimizationResult AverageCostOptimizer::minimize(
    const StateActionMetric& objective,
    const std::vector<OptimizationConstraint>& constraints) const {
  const lp::LpProblem problem = build_lp(objective, constraints);
  const lp::LpSolution lp_sol = lp::solve_revised_simplex(problem);

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
  Policy extracted = extractor.extract_policy(lp_sol.x);
  {
    const std::size_t n = model_->num_states();
    const std::size_t na = model_->num_commands();
    std::vector<bool> steered(n, false);
    for (std::size_t s = 0; s < n; ++s) {
      double mass = 0.0;
      for (std::size_t a = 0; a < na; ++a) mass += lp_sol.x[s * na + a];
      steered[s] = mass > 1e-12;
    }
    linalg::Matrix decisions = extracted.matrix();
    bool changed = true;
    while (changed) {
      changed = false;
      for (std::size_t s = 0; s < n; ++s) {
        if (steered[s]) continue;
        for (std::size_t a = 0; a < na; ++a) {
          double into = 0.0;
          for (std::size_t t = 0; t < n; ++t) {
            if (steered[t]) into += model_->chain().transition(s, t, a);
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
    extracted = Policy::randomized(std::move(decisions));
  }
  result.policy = std::move(extracted);

  const std::size_t n = model_->num_states();
  const std::size_t na = model_->num_commands();
  result.constraint_per_step.reserve(constraints.size());
  for (const auto& oc : constraints) {
    double total = 0.0;
    for (std::size_t s = 0; s < n; ++s) {
      for (std::size_t a = 0; a < na; ++a) {
        const double x = lp_sol.x[s * na + a];
        if (x != 0.0) total += oc.metric(s, a) * x;
      }
    }
    result.constraint_per_step.push_back(total);
  }
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
