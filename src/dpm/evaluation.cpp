#include "dpm/evaluation.h"

#include <cmath>

#include "markov/occupancy.h"

namespace dpm {

PolicyEvaluation::PolicyEvaluation(const SystemModel& model,
                                   const Policy& policy, double gamma,
                                   const linalg::Vector& p0)
    : model_(&model), policy_(policy), gamma_(gamma) {
  if (policy.num_states() != model.num_states() ||
      policy.num_commands() != model.num_commands()) {
    throw ModelError("PolicyEvaluation: policy shape mismatch");
  }
  if (gamma <= 0.0 || gamma >= 1.0) {
    throw ModelError("PolicyEvaluation: gamma must be in (0,1)");
  }
  double mass = 0.0;
  for (double v : p0) {
    if (v < -1e-12) throw ModelError("PolicyEvaluation: negative p0 entry");
    mass += v;
  }
  if (std::abs(mass - 1.0) > 1e-7) {
    throw ModelError("PolicyEvaluation: p0 must sum to 1");
  }
  // Sparse path: mix the CSR rows under the policy (fused form) and
  // evaluate the occupancy by power accumulation — O(nnz * iters), no
  // dense n x n matrix, no factorization on large models.  Small
  // models take the exact LU route inside the evaluator.
  markov::MixedChainCsr mixed;
  model.chain().under_policy_csr(policy.matrix(), mixed);
  markov::OccupancyWorkspace ws;
  occupancy_ = markov::discounted_occupancy_power(mixed, p0, gamma, ws);
}

double PolicyEvaluation::total(const StateActionMetric& metric) const {
  double acc = 0.0;
  for (std::size_t s = 0; s < model_->num_states(); ++s) {
    const double u = occupancy_[s];
    if (u == 0.0) continue;
    double per_state = 0.0;
    for (std::size_t a = 0; a < model_->num_commands(); ++a) {
      const double p = policy_.probability(s, a);
      if (p > 0.0) per_state += p * metric(s, a);
    }
    acc += u * per_state;
  }
  return acc;
}

double PolicyEvaluation::per_step(const StateActionMetric& metric) const {
  return (1.0 - gamma_) * total(metric);
}

linalg::Vector PolicyEvaluation::state_action_frequencies() const {
  const std::size_t n = model_->num_states();
  const std::size_t na = model_->num_commands();
  linalg::Vector x(n * na, 0.0);
  for (std::size_t s = 0; s < n; ++s) {
    for (std::size_t a = 0; a < na; ++a) {
      x[s * na + a] = occupancy_[s] * policy_.probability(s, a);
    }
  }
  return x;
}

}  // namespace dpm
