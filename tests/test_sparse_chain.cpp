// CSR SparseControlledChain: validation, sparse/dense agreement on
// randomized instances, sparse policy evaluation, and the sparse LP
// assembly path.
#include <gtest/gtest.h>

#include <cmath>
#include <random>

#include "cases/example_system.h"
#include "dpm/evaluation.h"
#include "dpm/optimizer.h"
#include "markov/occupancy.h"
#include "markov/sparse_chain.h"

namespace dpm::markov {
namespace {

/// Random sparse controlled chain: `succ` successors per (s, a), weights
/// normalized to 1.  Returns per-command dense matrices (the reference
/// representation the sparse chain is checked against).
std::vector<linalg::Matrix> random_dense_chain(std::size_t n, std::size_t na,
                                               std::size_t succ,
                                               std::mt19937_64& gen) {
  std::uniform_real_distribution<double> u(0.05, 1.0);
  std::uniform_int_distribution<std::size_t> pick(0, n - 1);
  std::vector<linalg::Matrix> dense(na, linalg::Matrix(n, n));
  for (std::size_t a = 0; a < na; ++a) {
    for (std::size_t s = 0; s < n; ++s) {
      linalg::Vector row(n, 0.0);
      for (std::size_t k = 0; k < succ; ++k) row[pick(gen)] += u(gen);
      const double total = linalg::sum(row);
      for (std::size_t t = 0; t < n; ++t) dense[a](s, t) = row[t] / total;
    }
  }
  return dense;
}

linalg::Matrix random_policy(std::size_t n, std::size_t na,
                             std::mt19937_64& gen) {
  std::uniform_real_distribution<double> u(0.05, 1.0);
  linalg::Matrix pi(n, na);
  for (std::size_t s = 0; s < n; ++s) {
    double total = 0.0;
    for (std::size_t a = 0; a < na; ++a) {
      pi(s, a) = u(gen);
      total += pi(s, a);
    }
    for (std::size_t a = 0; a < na; ++a) pi(s, a) /= total;
  }
  return pi;
}

TEST(SparseChain, ValidatesRowStochastic) {
  // Row sums to 0.9, not 1.
  std::vector<std::vector<TransitionRow>> bad{{{{0, 0.9}}}};
  EXPECT_THROW(SparseControlledChain(1, bad), MarkovError);
  // Negative probability.
  std::vector<std::vector<TransitionRow>> neg{{{{0, 1.5}, {0, -0.5}}}};
  EXPECT_NO_THROW(SparseControlledChain(1, neg));  // merged to 1.0
  std::vector<std::vector<TransitionRow>> neg2{
      {{{0, 1.2}}, {{0, 1.0}}}};  // 2 rows for n=1
  EXPECT_THROW(SparseControlledChain(1, neg2), MarkovError);
  // Successor out of range.
  std::vector<std::vector<TransitionRow>> oor{{{{3, 1.0}}}};
  EXPECT_THROW(SparseControlledChain(1, oor), MarkovError);
  // No commands.
  EXPECT_THROW(SparseControlledChain(1, {}), MarkovError);
  // Wrong row count for the order.
  std::vector<std::vector<TransitionRow>> short_rows{{{{0, 1.0}}}};
  EXPECT_THROW(SparseControlledChain(2, short_rows), MarkovError);
}

TEST(SparseChain, MergesDuplicateSuccessorsAndDropsZeros) {
  std::vector<std::vector<TransitionRow>> rows{
      {{{1, 0.3}, {0, 0.0}, {1, 0.2}, {0, 0.5}}}};
  // n = 2 needs 2 rows per command.
  rows[0].push_back({{0, 1.0}});
  const SparseControlledChain c(2, std::move(rows));
  EXPECT_EQ(c.row(0, 0).size(), 2u);  // {0: 0.5, 1: 0.5}; zero dropped
  EXPECT_NEAR(c.transition(0, 1, 0), 0.5, 1e-15);
  EXPECT_NEAR(c.transition(0, 0, 0), 0.5, 1e-15);
  EXPECT_EQ(c.transition(1, 1, 0), 0.0);
  EXPECT_EQ(c.nonzeros(), 3u);
}

TEST(SparseChain, DenseRoundTrip) {
  std::mt19937_64 gen(11);
  const auto dense = random_dense_chain(12, 3, 4, gen);
  const SparseControlledChain sparse =
      SparseControlledChain::from_dense(dense);
  ASSERT_EQ(sparse.num_states(), 12u);
  ASSERT_EQ(sparse.num_commands(), 3u);
  for (std::size_t a = 0; a < 3; ++a) {
    EXPECT_NEAR(linalg::Matrix::max_abs_diff(sparse.to_dense(a), dense[a]),
                0.0, 1e-15);
  }
  // Copies keep the chain.
  const SparseControlledChain copy = sparse;
  EXPECT_NEAR(linalg::Matrix::max_abs_diff(copy.to_dense(1), dense[1]), 0.0,
              1e-15);
}

TEST(SparseChain, UnderPolicyAgreesWithDenseOnRandomInstances) {
  std::mt19937_64 gen(23);
  for (int trial = 0; trial < 8; ++trial) {
    const std::size_t n = 5 + static_cast<std::size_t>(trial) * 3;
    const std::size_t na = 2 + trial % 3;
    const auto dense = random_dense_chain(n, na, 3, gen);
    const SparseControlledChain chain =
        SparseControlledChain::from_dense(dense);
    const linalg::Matrix pi = random_policy(n, na, gen);

    // Dense reference: explicit mix of the dense matrices.
    linalg::Matrix want(n, n);
    for (std::size_t s = 0; s < n; ++s) {
      for (std::size_t a = 0; a < na; ++a) {
        for (std::size_t t = 0; t < n; ++t) {
          want(s, t) += pi(s, a) * dense[a](s, t);
        }
      }
    }
    const MarkovChain mixed = chain.under_policy(pi);
    EXPECT_LT(linalg::Matrix::max_abs_diff(mixed.transition_matrix(), want),
              1e-12);

    // Fused-CSR mix agrees and reuses its buffers across calls.
    MixedChainCsr rows;
    chain.under_policy_csr(pi, rows);
    chain.under_policy_csr(pi, rows);  // reuse
    ASSERT_EQ(rows.num_states(), n);
    linalg::Matrix again(n, n);
    for (std::size_t s = 0; s < n; ++s) {
      for (const auto& [t, p] : rows.row(s)) again(s, t) = p;
    }
    EXPECT_LT(linalg::Matrix::max_abs_diff(again, want), 1e-12);
  }
}

TEST(SparseChain, UnderPolicyRejectsBadDecisions) {
  std::mt19937_64 gen(3);
  const auto dense = random_dense_chain(4, 2, 2, gen);
  const SparseControlledChain sparse =
      SparseControlledChain::from_dense(dense);
  MixedChainCsr rows;
  linalg::Matrix bad_shape(4, 3);
  EXPECT_THROW(sparse.under_policy_csr(bad_shape, rows), MarkovError);
  linalg::Matrix not_summing(4, 2, 0.3);
  EXPECT_THROW(sparse.under_policy_csr(not_summing, rows), MarkovError);
  linalg::Matrix negative(4, 2);
  for (std::size_t s = 0; s < 4; ++s) {
    negative(s, 0) = 1.5;
    negative(s, 1) = -0.5;
  }
  EXPECT_THROW(sparse.under_policy_csr(negative, rows), MarkovError);
}

TEST(SparseChain, SparseOccupancyMatchesDenseSolve) {
  std::mt19937_64 gen(47);
  for (int trial = 0; trial < 6; ++trial) {
    const std::size_t n = 6 + static_cast<std::size_t>(trial) * 5;
    const auto dense = random_dense_chain(n, 2, 3, gen);
    const SparseControlledChain chain =
        SparseControlledChain::from_dense(dense);
    const linalg::Matrix pi = random_policy(n, 2, gen);
    const double gamma = 0.97;
    linalg::Vector p0(n, 0.0);
    p0[0] = 0.4;
    p0[n - 1] = 0.6;

    const MarkovChain mixed = chain.under_policy(pi);
    const linalg::Vector dense_u = mixed.discounted_occupancy(p0, gamma);

    MixedChainCsr rows;
    chain.under_policy_csr(pi, rows);
    const linalg::Vector sparse_u = discounted_occupancy_lu(rows, p0, gamma);
    ASSERT_EQ(sparse_u.size(), n);
    for (std::size_t s = 0; s < n; ++s) {
      EXPECT_NEAR(sparse_u[s], dense_u[s], 1e-8 * (1.0 + dense_u[s]));
    }
  }
}

// ---------------------------------------------------------------------
// Sparse LP assembly: build_lp against a dense reference formulation.
// ---------------------------------------------------------------------

TEST(SparseChain, BuildLpMatchesDenseReferenceFormulation) {
  const SystemModel model = cases::ExampleSystem::make_model();
  const OptimizerConfig config =
      cases::ExampleSystem::make_config(model, 0.999);
  const PolicyOptimizer opt(model, config);
  const StateActionMetric power = metrics::power(model);
  const StateActionMetric queue = metrics::queue_length(model);
  std::vector<OptimizationConstraint> constraints{{queue, 0.5, "queue"}};
  const lp::LpProblem lp = opt.build_lp(power, constraints);

  const std::size_t n = model.num_states();
  const std::size_t na = model.num_commands();
  const double gamma = config.discount;
  ASSERT_EQ(lp.num_variables(), n * na);
  ASSERT_EQ(lp.num_constraints(), n + 1);

  // Dense reference: balance coefficient of x_{s,a} in row j is
  // [s == j] - gamma * P_a(s, j), assembled from the densified chain.
  std::vector<linalg::Matrix> dense;
  for (std::size_t a = 0; a < na; ++a) {
    dense.push_back(model.chain().to_dense(a));
  }
  for (std::size_t j = 0; j < n; ++j) {
    linalg::Vector row(n * na, 0.0);
    for (const auto& [col, v] : lp.constraints()[j].terms) row[col] = v;
    for (std::size_t s = 0; s < n; ++s) {
      for (std::size_t a = 0; a < na; ++a) {
        const double want = (s == j ? 1.0 : 0.0) -
                            gamma * dense[a](s, j);
        EXPECT_NEAR(row[s * na + a], want, 1e-12)
            << "row " << j << " col (" << s << "," << a << ")";
      }
    }
  }
  // Metric row: queue_length per (s, a), scaled bound.
  const lp::Constraint& metric_row = lp.constraints()[n];
  EXPECT_EQ(metric_row.sense, lp::Sense::kLe);
  EXPECT_NEAR(metric_row.rhs, 0.5 / (1.0 - gamma), 1e-6);
}

// End-to-end: the optimizer (sparse assembly + bounded simplex) still
// matches exact policy evaluation of its own output.
TEST(SparseChain, OptimizerPolicyConsistentWithSparseEvaluation) {
  const SystemModel model = cases::ExampleSystem::make_model();
  const OptimizerConfig config =
      cases::ExampleSystem::make_config(model, 0.999);
  const PolicyOptimizer opt(model, config);
  const OptimizationResult r = opt.minimize_power(0.6);
  ASSERT_TRUE(r.feasible);
  ASSERT_TRUE(r.policy.has_value());
  const PolicyEvaluation eval(model, *r.policy, config.discount,
                              config.initial_distribution);
  EXPECT_NEAR(eval.per_step(metrics::power(model)), r.objective_per_step,
              1e-5);
}

}  // namespace
}  // namespace dpm::markov
