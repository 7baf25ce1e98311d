// Average-cost (infinite-horizon) policy optimization.
//
// The paper first states PO over the long-run average (Eq. 7) and then
// moves to the discounted stopping-time formulation (Eq. 9) for
// computability.  For unichain models the average-cost problem is
// itself a small LP over the stationary state-action distribution:
//
//   min  sum m(s,a) x_{s,a}
//   s.t. sum_a x_{j,a} - sum_{s,a} P_a(s,j) x_{s,a} = 0   (stationarity)
//        sum_{s,a} x_{s,a} = 1                            (distribution)
//        sum metric_k(s,a) x_{s,a} <= bound_k
//        x >= 0
//
// This optimizer complements PolicyOptimizer: it has no horizon
// parameter and no end-of-session effects (see EXPERIMENTS.md on
// Fig. 14a), and its optimum is the gamma -> 1 limit of the discounted
// one on ergodic models — a relationship the test suite checks.
#pragma once

#include "dpm/optimizer.h"

namespace dpm {

class AverageCostOptimizer {
 public:
  explicit AverageCostOptimizer(const SystemModel& model);

  /// Minimizes the long-run average of `objective` under per-step
  /// constraints.  Fields of OptimizationResult are per-step averages;
  /// `frequencies` holds the stationary state-action distribution
  /// (sums to 1).
  OptimizationResult minimize(
      const StateActionMetric& objective,
      const std::vector<OptimizationConstraint>& constraints = {}) const;

  /// PO2 convenience (min average power under queue/loss bounds).
  OptimizationResult minimize_power(
      double max_avg_queue,
      std::optional<double> max_loss_rate = std::nullopt) const;

  /// Exposed for white-box tests.
  lp::LpProblem build_lp(
      const StateActionMetric& objective,
      const std::vector<OptimizationConstraint>& constraints) const;

  /// True when the optimal stationary distribution's support is one
  /// communicating class under the extracted policy.  When false, the
  /// LP optimum MIXES several recurrent classes: its value and
  /// constraints hold as expectations over which class a trajectory
  /// settles in, not pathwise — a known subtlety of constrained
  /// average-cost MDPs that callers should check before quoting the LP
  /// number for a single long run.
  bool support_is_single_class(const OptimizationResult& result) const;

 private:
  const SystemModel* model_;
};

}  // namespace dpm
