// Policy optimization (paper Sec. IV and Appendix A).
//
// Casts PO as a linear program over discounted state-action frequencies
// x_{s,a}:
//
//   min  sum_{s,a} objective(s,a) x_{s,a}                         (LP2)
//   s.t. sum_a x_{j,a} - gamma sum_{s,a} P_a(s,j) x_{s,a} = p0_j  (balance)
//        sum_{s,a} metric_k(s,a) x_{s,a} <= bound_k / (1-gamma)   (LP3/LP4)
//        x >= 0
//
// and extracts the optimal randomized stationary Markov policy
// pi(s,a) = x_{s,a} / sum_a' x_{s,a'}  (Eq. 16).
//
// Bounds are specified as *per-slice averages* (Watts, queue lengths,
// loss probabilities) and scaled internally by the expected session
// length 1/(1-gamma), so callers work in the paper's plotted units.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "dpm/metrics.h"
#include "dpm/policy.h"
#include "lp/solver.h"

namespace dpm {

/// One linear constraint: per-step expected value of `metric` <= bound.
struct OptimizationConstraint {
  StateActionMetric metric;
  double per_step_bound = 0.0;
  std::string name;
};

struct OptimizerConfig {
  /// Discount factor gamma in (0,1); expected session length is
  /// 1/(1-gamma) slices (paper Sec. IV: the stopping-time construction).
  double discount = 0.99999;
  /// Initial state distribution p0; empty means uniform.
  linalg::Vector initial_distribution;
  /// kSimplex puts the dense tableau on the supervisor's first rungs: a
  /// slow, independent reference answer for tests and benches.
  lp::Backend backend = lp::Backend::kRevisedSimplex;
};

struct OptimizationResult {
  bool feasible = false;
  lp::LpStatus lp_status = lp::LpStatus::kIterationLimit;
  std::size_t lp_iterations = 0;
  /// The optimal policy (set when feasible).
  std::optional<Policy> policy;
  /// Optimal per-step objective value ((1-gamma) * LP objective).
  double objective_per_step = 0.0;
  /// Achieved per-step values of the supplied constraints, in order.
  std::vector<double> constraint_per_step;
  /// Raw discounted state-action frequencies, layout x[s*A + a].
  linalg::Vector frequencies;
};

class PolicyOptimizer {
 public:
  PolicyOptimizer(const SystemModel& model, OptimizerConfig config);

  /// General form: minimize a metric subject to per-step constraints.
  ///
  /// Every solve runs under robust::SolveSupervisor: transient
  /// numerical trouble (singular refactorization, non-finite values) is
  /// healed by the escalation ladder with a bit-identical objective
  /// where possible, and the dense tableau is its last rung; an outcome the ladder
  /// cannot determine surfaces as lp::LpError rather than masquerading
  /// as infeasibility.  See docs/robustness.md.
  OptimizationResult minimize(
      const StateActionMetric& objective,
      const std::vector<OptimizationConstraint>& constraints = {}) const;

  /// PO2 / LP4: minimum power under average-queue-length and (optional)
  /// request-loss constraints.
  OptimizationResult minimize_power(
      double max_avg_queue,
      std::optional<double> max_loss_rate = std::nullopt) const;

  /// PO1 / LP3: minimum performance penalty under a power constraint
  /// and (optional) request-loss constraint.
  OptimizationResult minimize_penalty(
      double max_avg_power,
      std::optional<double> max_loss_rate = std::nullopt) const;

  /// One point of a power/performance tradeoff exploration.
  struct ParetoPoint {
    double bound = 0.0;       // the swept constraint's per-step bound
    bool feasible = false;
    double objective = 0.0;   // optimal per-step objective
    std::size_t lp_iterations = 0;  // simplex pivots spent on this point
    std::optional<Policy> policy;
    /// Achieved per-step values of every constraint at this point: the
    /// fixed constraints in order, then the swept constraint last.
    std::vector<double> constraint_per_step;
    /// Raw discounted state-action frequencies (layout x[s*A + a]) —
    /// lets scenario code inspect structural properties of the optimum
    /// (e.g. Fig. 9a's "CPU2 never runs alone") without re-solving.
    linalg::Vector frequencies;
  };

  /// Sweeps `sweep_bounds` for the first constraint while holding
  /// `fixed_constraints`, minimizing `objective` at each point — the
  /// paper's tradeoff-curve exploration (Figs. 6, 8b, 9a, 9b).
  ///
  /// With the revised-simplex backend the LP is built once and each
  /// point after the first warm-starts from the previous optimal basis
  /// (only the swept constraint's rhs changes), so subsequent points
  /// cost a handful of boxed-dual-simplex pivots instead of a cold
  /// solve.  The warm-start contract also survives variable-bound
  /// changes (`LpProblem::set_upper_bound` between solves), so sweeps
  /// over bounded formulations stay warm too — see the warm-start
  /// section of src/lp/README.md.
  std::vector<ParetoPoint> sweep(
      const StateActionMetric& objective, const StateActionMetric& swept,
      std::string swept_name, const std::vector<double>& sweep_bounds,
      const std::vector<OptimizationConstraint>& fixed_constraints = {}) const;

  const SystemModel& model() const noexcept { return *model_; }
  const OptimizerConfig& config() const noexcept { return config_; }

  /// Builds the LP (exposed for white-box tests of the Appendix A
  /// formulation).
  lp::LpProblem build_lp(
      const StateActionMetric& objective,
      const std::vector<OptimizationConstraint>& constraints) const;

  /// Eq. 16 policy extraction; rows with zero visit frequency get a
  /// uniform decision (any choice is optimal for unreachable states).
  Policy extract_policy(const linalg::Vector& frequencies) const;

 private:
  const SystemModel* model_;
  OptimizerConfig config_;
};

}  // namespace dpm
