// Unit tests for Markov chains and controlled Markov chains.
#include <gtest/gtest.h>

#include <cmath>
#include <random>

#include "markov/markov_chain.h"
#include "markov/sparse_chain.h"

namespace dpm::markov {
namespace {

using linalg::Matrix;
using linalg::Vector;

Matrix bursty2() { return Matrix{{0.85, 0.15}, {0.15, 0.85}}; }

TEST(Validation, AcceptsStochastic) {
  EXPECT_NO_THROW(validate_stochastic(bursty2(), "p"));
}

TEST(Validation, RejectsNonSquare) {
  EXPECT_THROW(validate_stochastic(Matrix(2, 3), "p"), MarkovError);
}

TEST(Validation, RejectsBadRowSum) {
  EXPECT_THROW(validate_stochastic(Matrix{{0.5, 0.4}, {0.0, 1.0}}, "p"),
               MarkovError);
}

TEST(Validation, RejectsNegativeEntry) {
  EXPECT_THROW(validate_stochastic(Matrix{{1.2, -0.2}, {0.0, 1.0}}, "p"),
               MarkovError);
}

TEST(Chain, EvolvePreservesMass) {
  const MarkovChain mc(bursty2());
  Vector d{0.3, 0.7};
  d = mc.evolve(d);
  EXPECT_NEAR(d[0] + d[1], 1.0, 1e-12);
  EXPECT_NEAR(d[0], 0.3 * 0.85 + 0.7 * 0.15, 1e-12);
}

TEST(Chain, EvolveSizeChecked) {
  const MarkovChain mc(bursty2());
  EXPECT_THROW(mc.evolve(Vector{1.0}), MarkovError);
}

TEST(Chain, MultiStepEvolutionConverges) {
  const MarkovChain mc(bursty2());
  const Vector d = mc.evolve(Vector{1.0, 0.0}, 1000);
  EXPECT_NEAR(d[0], 0.5, 1e-9);  // symmetric chain -> uniform
}

TEST(Chain, StationaryDistributionSymmetric) {
  const MarkovChain mc(bursty2());
  const Vector pi = mc.stationary_distribution();
  EXPECT_NEAR(pi[0], 0.5, 1e-12);
  EXPECT_NEAR(pi[1], 0.5, 1e-12);
}

TEST(Chain, StationaryDistributionAsymmetric) {
  // p01 = 0.2, p10 = 0.1  ->  pi = (1/3, 2/3).
  const MarkovChain mc(Matrix{{0.8, 0.2}, {0.1, 0.9}});
  const Vector pi = mc.stationary_distribution();
  EXPECT_NEAR(pi[0], 1.0 / 3.0, 1e-12);
  EXPECT_NEAR(pi[1], 2.0 / 3.0, 1e-12);
}

TEST(Chain, StationaryIsFixedPoint) {
  const MarkovChain mc(
      Matrix{{0.5, 0.3, 0.2}, {0.1, 0.8, 0.1}, {0.3, 0.3, 0.4}});
  const Vector pi = mc.stationary_distribution();
  const Vector next = mc.evolve(pi);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_NEAR(next[i], pi[i], 1e-12);
}

TEST(Chain, DiscountedOccupancyTotalsHorizon) {
  const MarkovChain mc(bursty2());
  const double gamma = 0.99;
  const Vector u = mc.discounted_occupancy({1.0, 0.0}, gamma);
  // sum_t gamma^t = 1 / (1 - gamma).
  EXPECT_NEAR(u[0] + u[1], 1.0 / (1.0 - gamma), 1e-9);
}

TEST(Chain, DiscountedOccupancyMatchesSeries) {
  const MarkovChain mc(Matrix{{0.8, 0.2}, {0.1, 0.9}});
  const double gamma = 0.9;
  const Vector u = mc.discounted_occupancy({1.0, 0.0}, gamma);
  // Direct truncated series.
  Vector d{1.0, 0.0};
  Vector acc{0.0, 0.0};
  double w = 1.0;
  for (int t = 0; t < 2000; ++t) {
    acc[0] += w * d[0];
    acc[1] += w * d[1];
    d = mc.evolve(d);
    w *= gamma;
  }
  EXPECT_NEAR(u[0], acc[0], 1e-8);
  EXPECT_NEAR(u[1], acc[1], 1e-8);
}

TEST(Chain, DiscountedOccupancyValidatesGamma) {
  const MarkovChain mc(bursty2());
  EXPECT_THROW(mc.discounted_occupancy({1.0, 0.0}, 0.0), MarkovError);
  EXPECT_THROW(mc.discounted_occupancy({1.0, 0.0}, 1.0), MarkovError);
  EXPECT_THROW(mc.discounted_occupancy({1.0}, 0.5), MarkovError);
}

TEST(Chain, Irreducibility) {
  EXPECT_TRUE(MarkovChain(bursty2()).is_irreducible());
  // Absorbing state 1: not irreducible.
  EXPECT_FALSE(
      MarkovChain(Matrix{{0.5, 0.5}, {0.0, 1.0}}).is_irreducible());
}

TEST(Chain, ExpectedTransitionTime) {
  EXPECT_DOUBLE_EQ(MarkovChain::expected_transition_time(0.1), 10.0);
  EXPECT_TRUE(std::isinf(MarkovChain::expected_transition_time(0.0)));
  EXPECT_THROW(MarkovChain::expected_transition_time(1.5), MarkovError);
}

// ---------------------------------------------------------------------
// Controlled chains
// ---------------------------------------------------------------------

SparseControlledChain example_controlled() {
  // Example 3.1-like SP: command 0 wakes, command 1 sleeps.
  Matrix on{{1.0, 0.0}, {0.1, 0.9}};
  Matrix off{{0.2, 0.8}, {0.0, 1.0}};
  return SparseControlledChain::from_dense({on, off});
}

TEST(Controlled, BasicAccessors) {
  const SparseControlledChain c = example_controlled();
  EXPECT_EQ(c.num_states(), 2u);
  EXPECT_EQ(c.num_commands(), 2u);
  EXPECT_DOUBLE_EQ(c.transition(1, 0, 0), 0.1);
  EXPECT_DOUBLE_EQ(c.transition(0, 1, 1), 0.8);
}

TEST(Controlled, RejectsEmpty) {
  EXPECT_THROW(SparseControlledChain::from_dense({}), MarkovError);
}

TEST(Controlled, RejectsMismatchedOrders) {
  EXPECT_THROW(
      SparseControlledChain::from_dense({Matrix::identity(2), Matrix::identity(3)}),
      MarkovError);
}

TEST(Controlled, RejectsNonStochasticCommandMatrix) {
  EXPECT_THROW(
      SparseControlledChain::from_dense({Matrix{{0.5, 0.4}, {0.0, 1.0}}}),
      MarkovError);
}

TEST(Controlled, UnderDeterministicPolicyPicksMatrix) {
  const SparseControlledChain c = example_controlled();
  Matrix pick_off(2, 2);
  pick_off(0, 1) = 1.0;
  pick_off(1, 1) = 1.0;
  const MarkovChain mixed = c.under_policy(pick_off);
  EXPECT_DOUBLE_EQ(mixed.transition(0, 1), 0.8);
  EXPECT_DOUBLE_EQ(mixed.transition(1, 1), 1.0);
}

TEST(Controlled, UnderRandomizedPolicyMixesRows) {
  // Example 3.6: 80% s_on, 20% s_off.
  const SparseControlledChain c = example_controlled();
  Matrix mix(2, 2);
  mix(0, 0) = 0.8;
  mix(0, 1) = 0.2;
  mix(1, 0) = 0.8;
  mix(1, 1) = 0.2;
  const MarkovChain mixed = c.under_policy(mix);
  EXPECT_NEAR(mixed.transition(0, 0), 0.8 * 1.0 + 0.2 * 0.2, 1e-12);
  EXPECT_NEAR(mixed.transition(1, 0), 0.8 * 0.1 + 0.2 * 0.0, 1e-12);
}

TEST(Controlled, UnderPolicyValidatesShape) {
  const SparseControlledChain c = example_controlled();
  EXPECT_THROW(c.under_policy(Matrix(3, 2)), MarkovError);
  Matrix bad(2, 2);
  bad(0, 0) = 0.5;  // row does not sum to 1
  bad(1, 0) = 1.0;
  EXPECT_THROW(c.under_policy(bad), MarkovError);
}

// Property: mixing under any valid randomized policy yields a stochastic
// matrix.
class MixPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(MixPropertyTest, MixedMatrixIsStochastic) {
  std::mt19937_64 gen(GetParam());
  std::uniform_real_distribution<double> u(0.0, 1.0);
  const std::size_t n = 4, na = 3;
  std::vector<Matrix> ms;
  for (std::size_t a = 0; a < na; ++a) {
    Matrix m(n, n);
    for (std::size_t i = 0; i < n; ++i) {
      double total = 0.0;
      for (std::size_t j = 0; j < n; ++j) {
        m(i, j) = u(gen) + 1e-3;
        total += m(i, j);
      }
      for (std::size_t j = 0; j < n; ++j) m(i, j) /= total;
    }
    ms.push_back(std::move(m));
  }
  const SparseControlledChain c = SparseControlledChain::from_dense(ms);
  Matrix pol(n, na);
  for (std::size_t i = 0; i < n; ++i) {
    double total = 0.0;
    for (std::size_t a = 0; a < na; ++a) {
      pol(i, a) = u(gen) + 1e-3;
      total += pol(i, a);
    }
    for (std::size_t a = 0; a < na; ++a) pol(i, a) /= total;
  }
  EXPECT_NO_THROW(validate_stochastic(
      c.under_policy(pol).transition_matrix(), "mixed", 1e-9));
}

INSTANTIATE_TEST_SUITE_P(Seeds, MixPropertyTest, ::testing::Range(0, 10));

}  // namespace
}  // namespace dpm::markov
