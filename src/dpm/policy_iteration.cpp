#include "dpm/policy_iteration.h"

#include <cmath>

#include "linalg/sparse_lu.h"

namespace dpm {

namespace {

// Exact evaluation of a deterministic policy: solve
// (I - gamma P_pi) v = m_pi with the sparse LU over the chain's CSR
// rows (O(nnz) assembly via discounted_transposed_columns).  The
// factorized matrix is the transpose, so btran solves the original
// system, giving v.
linalg::Vector evaluate_deterministic(const SystemModel& model,
                                      const std::vector<std::size_t>& actions,
                                      const linalg::Matrix& cost,
                                      double gamma) {
  const std::size_t n = model.num_states();
  const markov::SparseControlledChain& chain = model.chain();
  const std::vector<linalg::SparseColumn> cols =
      markov::discounted_transposed_columns(n, gamma, [&](std::size_t s) {
        return chain.row(actions[s], s);
      });
  linalg::SparseLu lu;
  if (!lu.factorize(n, cols)) {
    throw ModelError("policy_iteration: singular evaluation system");
  }
  linalg::Vector v(n);
  for (std::size_t s = 0; s < n; ++s) v[s] = cost(s, actions[s]);
  lu.btran(v);
  return v;
}

}  // namespace

PolicyIterationResult policy_iteration(const SystemModel& model,
                                       const StateActionMetric& metric,
                                       double gamma,
                                       const PolicyIterationOptions& options) {
  if (gamma <= 0.0 || gamma >= 1.0) {
    throw ModelError("policy_iteration: gamma must be in (0,1)");
  }
  const std::size_t n = model.num_states();
  const std::size_t na = model.num_commands();

  linalg::Matrix cost(n, na);
  for (std::size_t s = 0; s < n; ++s) {
    for (std::size_t a = 0; a < na; ++a) cost(s, a) = metric(s, a);
  }

  std::vector<std::size_t> actions(n, 0);
  linalg::Vector v;
  std::size_t rounds = 0;
  bool converged = false;
  for (; rounds < options.max_improvements; ++rounds) {
    v = evaluate_deterministic(model, actions, cost, gamma);

    bool changed = false;
    for (std::size_t s = 0; s < n; ++s) {
      double best_q = 0.0;
      std::size_t best_a = actions[s];
      {
        best_q = cost(s, best_a);
        for (const auto& [t, p] : model.chain().row(best_a, s)) {
          best_q += gamma * p * v[t];
        }
      }
      for (std::size_t a = 0; a < na; ++a) {
        if (a == actions[s]) continue;
        double q = cost(s, a);
        for (const auto& [t, p] : model.chain().row(a, s)) {
          q += gamma * p * v[t];
        }
        if (q < best_q - options.improvement_tol) {
          best_q = q;
          best_a = a;
        }
      }
      if (best_a != actions[s]) {
        actions[s] = best_a;
        changed = true;
      }
    }
    if (!changed) {
      converged = true;
      ++rounds;
      break;
    }
  }
  return PolicyIterationResult{Policy::deterministic(actions, na),
                               std::move(v), rounds, converged};
}

}  // namespace dpm
