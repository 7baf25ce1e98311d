// Forrest–Tomlin basis-update machinery: agreement with from-scratch
// factorizations across long update runs and adversarial permutation
// patterns, plus degenerate-pivot stress on the simplex that drives it.
#include <gtest/gtest.h>

#include <cmath>
#include <random>

#include "linalg/sparse_lu.h"
#include "lp/revised_simplex.h"
#include "lp/simplex.h"

namespace dpm {
namespace {

using linalg::BasisFactorization;
using linalg::SparseColumn;
using linalg::Vector;

SparseColumn random_column(std::mt19937_64& gen, int n, int nnz,
                           std::size_t diag, double diag_boost) {
  std::uniform_real_distribution<double> u(-1.0, 1.0);
  std::uniform_int_distribution<int> pick(0, n - 1);
  SparseColumn col;
  std::vector<char> used(n, 0);
  for (int k = 0; k < nnz; ++k) {
    const int r = pick(gen);
    if (!used[r]) {
      used[r] = 1;
      col.emplace_back(static_cast<std::size_t>(r), u(gen));
    }
  }
  bool has_diag = false;
  for (auto& [r, v] : col) {
    if (r == diag) {
      v += diag_boost;
      has_diag = true;
    }
  }
  if (!has_diag) col.emplace_back(diag, diag_boost);
  return col;
}

/// Long Forrest–Tomlin chains at several orders: after every update,
/// ftran and btran must agree with a fresh factorization of the updated
/// basis to the drift bound that motivates periodic refactorization.
class FtChainTest : public ::testing::TestWithParam<int> {};

TEST_P(FtChainTest, LongUpdateRunsTrackFreshFactorization) {
  const int n = GetParam();
  std::mt19937_64 gen(911 + n);
  std::uniform_real_distribution<double> u(-1.0, 1.0);
  std::uniform_int_distribution<int> pick(0, n - 1);

  std::vector<SparseColumn> cols(n);
  for (int j = 0; j < n; ++j) {
    cols[j] = random_column(gen, n, 4, static_cast<std::size_t>(j), 6.0);
  }
  // A large interval so the FT chain, not the cap, is what is tested.
  BasisFactorization fac(/*refactor_interval=*/512);
  ASSERT_TRUE(fac.refactorize(n, cols));

  Vector b(n);
  for (auto& v : b) v = u(gen);
  const int steps = 3 * n;
  for (int step = 0; step < steps; ++step) {
    const std::size_t r = static_cast<std::size_t>(pick(gen));
    SparseColumn incoming =
        random_column(gen, n, 4, r, 6.0);

    Vector d(n, 0.0);
    for (const auto& [row, v] : incoming) d[row] += v;
    fac.ftran(d, /*cache_spike=*/true);  // the production update path
    if (!fac.update(r, d)) {
      cols[r] = incoming;
      ASSERT_TRUE(fac.refactorize(n, cols));
      continue;
    }
    cols[r] = incoming;

    Vector via_updates = b;
    fac.ftran(via_updates);
    BasisFactorization fresh(512);
    ASSERT_TRUE(fresh.refactorize(n, cols));
    Vector via_fresh = b;
    fresh.ftran(via_fresh);
    for (int i = 0; i < n; ++i) {
      ASSERT_NEAR(via_updates[i], via_fresh[i], 1e-7)
          << "ftran, step " << step << " entry " << i;
    }
    Vector bt_updates = b;
    fac.btran(bt_updates);
    Vector bt_fresh = b;
    fresh.btran(bt_fresh);
    for (int i = 0; i < n; ++i) {
      ASSERT_NEAR(bt_updates[i], bt_fresh[i], 1e-7)
          << "btran, step " << step << " entry " << i;
    }
  }
  EXPECT_GT(fac.updates_since_refactor(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Orders, FtChainTest, ::testing::Values(5, 17, 60));

TEST(FtUpdate, RepeatedSameSlotReplacement) {
  // Re-spiking the same column drives the cyclic permutation's
  // worst-case bookkeeping: the spiked label returns to the end of the
  // order every time while the rest rotates around it.
  const int n = 24;
  std::mt19937_64 gen(77);
  std::uniform_real_distribution<double> u(-1.0, 1.0);
  std::vector<SparseColumn> cols(n);
  for (int j = 0; j < n; ++j) {
    cols[j] = random_column(gen, n, 3, static_cast<std::size_t>(j), 5.0);
  }
  BasisFactorization fac(256);
  ASSERT_TRUE(fac.refactorize(n, cols));
  Vector b(n);
  for (auto& v : b) v = u(gen);
  for (int step = 0; step < 40; ++step) {
    const std::size_t r = static_cast<std::size_t>(step % 3);  // slots 0..2
    SparseColumn incoming = random_column(gen, n, 3, r, 5.0);
    Vector d(n, 0.0);
    for (const auto& [row, v] : incoming) d[row] += v;
    fac.ftran(d, /*cache_spike=*/true);
    if (!fac.update(r, d)) {
      cols[r] = incoming;
      ASSERT_TRUE(fac.refactorize(n, cols));
      continue;
    }
    cols[r] = incoming;
    BasisFactorization fresh(256);
    ASSERT_TRUE(fresh.refactorize(n, cols));
    Vector x1 = b, x2 = b;
    fac.ftran(x1);
    fresh.ftran(x2);
    for (int i = 0; i < n; ++i) {
      ASSERT_NEAR(x1[i], x2[i], 1e-7) << "step " << step;
    }
  }
}

TEST(FtUpdate, AmortizedTriggerFiresUnderSweepLoad) {
  // The work-based trigger integrates update fill over sweeps: enough
  // ftrans against a grown transform must eventually demand a rebuild
  // even when the update-count cap is far away.
  const int n = 30;
  std::mt19937_64 gen(13);
  std::uniform_real_distribution<double> u(-1.0, 1.0);
  std::uniform_int_distribution<int> pick(0, n - 1);
  std::vector<SparseColumn> cols(n);
  for (int j = 0; j < n; ++j) {
    cols[j] = random_column(gen, n, 5, static_cast<std::size_t>(j), 6.0);
  }
  BasisFactorization fac(/*refactor_interval=*/100000, /*pivot_tol=*/1e-11,
                         /*work_ratio=*/1.0);
  ASSERT_TRUE(fac.refactorize(n, cols));
  Vector b(n);
  for (auto& v : b) v = u(gen);
  bool fired = false;
  for (int step = 0; step < 2000 && !fired; ++step) {
    const std::size_t r = static_cast<std::size_t>(pick(gen));
    SparseColumn incoming = random_column(gen, n, 5, r, 6.0);
    Vector d(n, 0.0);
    for (const auto& [row, v] : incoming) d[row] += v;
    fac.ftran(d);
    if (!fac.update(r, d)) {
      cols[r] = incoming;
      ASSERT_TRUE(fac.refactorize(n, cols));
      continue;
    }
    cols[r] = incoming;
    Vector x = b;
    fac.ftran(x);  // sweep traffic feeds the work accumulator
    fired = fac.needs_refactor();
  }
  EXPECT_TRUE(fired) << "amortized trigger never fired";
}

// ---------------------------------------------------------------------
// Degenerate-pivot stress on the revised simplex driving the FT update
// ---------------------------------------------------------------------

TEST(DegenerateStress, BealeCyclingExampleTerminatesAtTheOptimum) {
  // Beale's classic example cycles forever under naive Dantzig pricing
  // with fixed tie-breaking; the stall detection + Bland fallback must
  // terminate it at the known optimum.
  lp::LpProblem p;
  p.add_variable(-0.75);
  p.add_variable(150.0);
  p.add_variable(-0.02);
  p.add_variable(6.0);
  p.add_constraint(
      {{{0, 0.25}, {1, -60.0}, {2, -0.04}, {3, 9.0}}, lp::Sense::kLe, 0.0});
  p.add_constraint(
      {{{0, 0.5}, {1, -90.0}, {2, -0.02}, {3, 3.0}}, lp::Sense::kLe, 0.0});
  p.add_constraint({{{2, 1.0}}, lp::Sense::kLe, 1.0});
  const lp::LpSolution s = lp::solve_revised_simplex(p);
  ASSERT_EQ(s.status, lp::LpStatus::kOptimal);
  EXPECT_NEAR(s.objective, -0.05, 1e-9);
}

TEST(DegenerateStress, ConcentratedInitialDistributionPolicyLp) {
  // A balance-equation LP with p0 concentrated on one state: all but
  // one rhs entry is zero, so almost every basis is degenerate — long
  // zero-step pivot runs exercise the FT update + stall machinery.
  const std::size_t n = 40, na = 3, succ = 2;
  const double gamma = 0.999;
  std::mt19937_64 gen(4242);
  std::uniform_real_distribution<double> u(0.0, 1.0);
  std::uniform_int_distribution<std::size_t> pick(0, n - 1);
  lp::LpProblem p;
  for (std::size_t col = 0; col < n * na; ++col) p.add_variable(u(gen));
  std::vector<lp::Constraint> balance(n);
  for (std::size_t j = 0; j < n; ++j) {
    balance[j].sense = lp::Sense::kEq;
    balance[j].rhs = j == 0 ? 1.0 : 0.0;  // concentrated p0
  }
  for (std::size_t s = 0; s < n; ++s) {
    for (std::size_t a = 0; a < na; ++a) {
      const std::size_t col = s * na + a;
      balance[s].terms.emplace_back(col, 1.0);
      double total = 0.0;
      std::vector<std::pair<std::size_t, double>> row(succ);
      for (auto& [to, w] : row) {
        to = pick(gen);
        w = 0.1 + u(gen);
        total += w;
      }
      for (const auto& [to, w] : row) {
        balance[to].terms.emplace_back(col, -gamma * w / total);
      }
    }
  }
  for (auto& c : balance) p.add_constraint(std::move(c));

  const lp::LpSolution reference = lp::solve_simplex(p);
  ASSERT_EQ(reference.status, lp::LpStatus::kOptimal);
  const lp::LpSolution s = lp::solve_revised_simplex(p);
  ASSERT_EQ(s.status, lp::LpStatus::kOptimal);
  EXPECT_NEAR(s.objective, reference.objective,
              1e-6 * (1.0 + std::abs(reference.objective)));
  EXPECT_LT(p.max_violation(s.x), 1e-7);
}

}  // namespace
}  // namespace dpm
