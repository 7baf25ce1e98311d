// Unit tests for the CSC sparse matrix and the LU basis factorization
// behind the revised simplex.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <random>

#include "linalg/lu.h"
#include "linalg/sparse.h"
#include "linalg/sparse_lu.h"

namespace dpm::linalg {
namespace {

TEST(SparseCsc, EmptyByDefault) {
  SparseMatrixCsc m;
  EXPECT_EQ(m.rows(), 0u);
  EXPECT_EQ(m.cols(), 0u);
  EXPECT_EQ(m.nonzeros(), 0u);
}

TEST(SparseCsc, TripletRoundTrip) {
  const SparseMatrixCsc m = SparseMatrixCsc::from_triplets(
      3, 4, {{0, 0, 1.0}, {2, 0, -2.0}, {1, 2, 3.0}, {2, 3, 4.0}});
  EXPECT_EQ(m.nonzeros(), 4u);
  EXPECT_EQ(m.coeff(0, 0), 1.0);
  EXPECT_EQ(m.coeff(2, 0), -2.0);
  EXPECT_EQ(m.coeff(1, 2), 3.0);
  EXPECT_EQ(m.coeff(2, 3), 4.0);
  EXPECT_EQ(m.coeff(0, 1), 0.0);
  const Matrix d = m.to_dense();
  EXPECT_EQ(d.rows(), 3u);
  EXPECT_EQ(d.cols(), 4u);
  EXPECT_EQ(d(2, 0), -2.0);
  EXPECT_EQ(d(1, 1), 0.0);
}

TEST(SparseCsc, DuplicatesSummedAndZerosDropped) {
  const SparseMatrixCsc m = SparseMatrixCsc::from_triplets(
      2, 2, {{0, 0, 1.5}, {0, 0, 0.5}, {1, 1, 1.0}, {1, 1, -1.0}});
  EXPECT_EQ(m.coeff(0, 0), 2.0);
  EXPECT_EQ(m.coeff(1, 1), 0.0);
  EXPECT_EQ(m.nonzeros(), 1u);  // the cancelled entry leaves the pattern
}

TEST(SparseCsc, RowsSortedWithinColumns) {
  const SparseMatrixCsc m = SparseMatrixCsc::from_triplets(
      4, 1, {{3, 0, 3.0}, {0, 0, 1.0}, {2, 0, 2.0}});
  ASSERT_EQ(m.nonzeros(), 3u);
  EXPECT_EQ(m.row_indices()[0], 0u);
  EXPECT_EQ(m.row_indices()[1], 2u);
  EXPECT_EQ(m.row_indices()[2], 3u);
}

TEST(SparseCsc, RejectsOutOfRange) {
  EXPECT_THROW(SparseMatrixCsc::from_triplets(2, 2, {{2, 0, 1.0}}),
               LinalgError);
  EXPECT_THROW(SparseMatrixCsc::from_triplets(2, 2, {{0, 2, 1.0}}),
               LinalgError);
}

TEST(SparseCsc, MultiplyMatchesDense) {
  std::mt19937_64 gen(7);
  std::uniform_real_distribution<double> u(-1.0, 1.0);
  std::uniform_int_distribution<std::size_t> pick(0, 9);
  std::vector<Triplet> trips;
  for (int k = 0; k < 30; ++k) trips.push_back({pick(gen), pick(gen), u(gen)});
  const SparseMatrixCsc s = SparseMatrixCsc::from_triplets(10, 10, trips);
  const Matrix d = s.to_dense();
  Vector x(10);
  for (auto& v : x) v = u(gen);
  const Vector y1 = s.multiply(x);
  const Vector y2 = d * x;
  const Vector z1 = s.multiply_transposed(x);
  const Vector z2 = left_multiply(x, d);
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_NEAR(y1[i], y2[i], 1e-12);
    EXPECT_NEAR(z1[i], z2[i], 1e-12);
  }
  EXPECT_THROW(s.multiply(Vector(3)), LinalgError);
  EXPECT_THROW(s.multiply_transposed(Vector(3)), LinalgError);
}

// ---------------------------------------------------------------------
// SparseLu
// ---------------------------------------------------------------------

std::vector<SparseColumn> columns_of(const Matrix& a) {
  std::vector<SparseColumn> cols(a.cols());
  for (std::size_t j = 0; j < a.cols(); ++j) {
    for (std::size_t i = 0; i < a.rows(); ++i) {
      if (a(i, j) != 0.0) cols[j].emplace_back(i, a(i, j));
    }
  }
  return cols;
}

TEST(SparseLuTest, SolvesKnownSystem) {
  const Matrix a{{2.0, 1.0}, {1.0, 3.0}};
  SparseLu lu;
  ASSERT_TRUE(lu.factorize(2, columns_of(a)));
  Vector x{3.0, 5.0};  // rhs
  lu.ftran(x);
  EXPECT_NEAR(x[0], 0.8, 1e-12);
  EXPECT_NEAR(x[1], 1.4, 1e-12);
}

TEST(SparseLuTest, PivotsOnZeroDiagonal) {
  const Matrix a{{0.0, 1.0}, {1.0, 0.0}};
  SparseLu lu;
  ASSERT_TRUE(lu.factorize(2, columns_of(a)));
  Vector x{2.0, 3.0};
  lu.ftran(x);
  EXPECT_NEAR(x[0], 3.0, 1e-12);
  EXPECT_NEAR(x[1], 2.0, 1e-12);
}

TEST(SparseLuTest, DetectsSingular) {
  const Matrix a{{1.0, 2.0}, {2.0, 4.0}};
  SparseLu lu;
  EXPECT_FALSE(lu.factorize(2, columns_of(a)));
  EXPECT_FALSE(lu.valid());
}

TEST(SparseLuTest, BtranMatchesDenseTransposedSolve) {
  const Matrix a{{3.0, 1.0, 2.0}, {1.0, 4.0, 0.0}, {2.0, 0.0, 5.0}};
  SparseLu lu;
  ASSERT_TRUE(lu.factorize(3, columns_of(a)));
  Vector c{1.0, 2.0, 3.0};
  lu.btran(c);
  const Vector want = LuDecomposition(a.transposed()).solve({1.0, 2.0, 3.0});
  for (std::size_t i = 0; i < 3; ++i) EXPECT_NEAR(c[i], want[i], 1e-12);
}

// Random sparse systems: ftran/btran residuals stay tiny across orders.
class SparseLuRandomTest : public ::testing::TestWithParam<int> {};

TEST_P(SparseLuRandomTest, ResidualsAreSmall) {
  const int n = GetParam();
  std::mt19937_64 gen(321 + n);
  std::uniform_real_distribution<double> u(-1.0, 1.0);
  std::uniform_int_distribution<int> pick(0, n - 1);
  // Sparse + diagonally dominant: ~4 off-diagonals per column.
  Matrix a(n, n);
  for (int j = 0; j < n; ++j) {
    for (int k = 0; k < 4; ++k) a(pick(gen), j) = u(gen);
  }
  for (int i = 0; i < n; ++i) {
    double row_abs = 0.0;
    for (int j = 0; j < n; ++j) row_abs += std::abs(a(i, j));
    a(i, i) = row_abs + 1.0;
  }
  SparseLu lu;
  ASSERT_TRUE(lu.factorize(static_cast<std::size_t>(n), columns_of(a)));

  Vector b(n);
  for (auto& v : b) v = u(gen);
  Vector x = b;
  lu.ftran(x);
  const Vector ax = a * x;
  for (int i = 0; i < n; ++i) EXPECT_NEAR(ax[i], b[i], 1e-9);

  Vector y = b;
  lu.btran(y);
  const Vector aty = left_multiply(y, a);
  for (int i = 0; i < n; ++i) EXPECT_NEAR(aty[i], b[i], 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Orders, SparseLuRandomTest,
                         ::testing::Values(1, 2, 5, 10, 25, 60, 150));

TEST(SparseLuTest, MarkowitzKeepsArrowheadFillLinear) {
  // Arrowhead matrix with the dense row/column FIRST: naive in-order
  // elimination fills the whole matrix (O(n^2) entries); Markowitz
  // pivoting defers the dense row and keeps the factors linear.
  const int n = 200;
  std::vector<SparseColumn> cols(n);
  for (int j = 1; j < n; ++j) {
    cols[0].emplace_back(j, 0.5);                        // dense column 0
    cols[j] = {{0, 0.5}, {static_cast<std::size_t>(j), 4.0}};  // dense row 0
  }
  cols[0].emplace_back(0, 4.0);
  SparseLu lu;
  ASSERT_TRUE(lu.factorize(n, cols));
  // Linear fill: a handful of entries per pivot, nowhere near n^2/2.
  EXPECT_LT(lu.factor_nonzeros(), static_cast<std::size_t>(6 * n));

  std::mt19937_64 gen(9);
  std::uniform_real_distribution<double> u(-1.0, 1.0);
  Vector b(n);
  for (auto& v : b) v = u(gen);
  Vector x = b;
  lu.ftran(x);
  Matrix dense(n, n);
  for (int j = 0; j < n; ++j) {
    for (const auto& [r, v] : cols[j]) dense(r, j) = v;
  }
  const Vector ax = dense * x;
  for (int i = 0; i < n; ++i) EXPECT_NEAR(ax[i], b[i], 1e-9);
}

TEST(SparseLuTest, HeavyFillFactorizationSolvesAccurately) {
  // A random sparse matrix plus one dense row fills in heavily before
  // the dense-tail switch: the elimination's work lists outgrow their
  // first storage blocks, recycle and split freed slots, and get
  // compacted.  The factors must still solve B x = b and B^T y = b, and
  // re-factorizing the same object must reproduce them.
  const std::size_t n = 2000;
  std::mt19937_64 gen(7);
  std::uniform_real_distribution<double> u(-1.0, 1.0);
  std::uniform_int_distribution<std::size_t> pick(0, n - 1);
  std::vector<SparseColumn> cols(n);
  for (std::size_t j = 0; j < n; ++j) {
    cols[j].emplace_back(j, 4.0 + u(gen));
    for (int e = 0; e < 4; ++e) cols[j].emplace_back(pick(gen), u(gen));
    cols[j].emplace_back(n - 1, 1.0 + u(gen));  // the dense row
  }
  SparseLu lu;
  ASSERT_TRUE(lu.factorize(n, cols));
  ASSERT_GT(lu.tail_dim(), 0u);
  const std::size_t nnz = lu.factor_nonzeros();
  EXPECT_GT(nnz, 50 * n);  // heavy fill indeed

  Vector b(n);
  for (auto& v : b) v = u(gen);
  Vector x = b;
  lu.ftran(x);
  Vector y = b;
  lu.btran(y);
  Vector bx(n, 0.0);
  for (std::size_t j = 0; j < n; ++j) {
    double bty = 0.0;
    for (const auto& [r, v] : cols[j]) {
      bx[r] += v * x[j];
      bty += v * y[r];
    }
    EXPECT_NEAR(bty, b[j], 1e-8) << "B^T y, column " << j;
  }
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(bx[i], b[i], 1e-8) << i;

  ASSERT_TRUE(lu.factorize(n, cols));
  EXPECT_EQ(lu.factor_nonzeros(), nnz);
  Vector x2 = b;
  lu.ftran(x2);
  EXPECT_EQ(std::memcmp(x.data(), x2.data(), n * sizeof(double)), 0);
}

TEST(SparseLuTest, SumsDuplicateEntriesWithinColumn) {
  // The factorize contract merges duplicate (row, value) pairs.
  std::vector<SparseColumn> cols = {{{0, 1.0}, {0, 1.0}}, {{1, 2.0}}};
  SparseLu lu;
  ASSERT_TRUE(lu.factorize(2, cols));
  Vector x{4.0, 6.0};
  lu.ftran(x);
  EXPECT_NEAR(x[0], 2.0, 1e-12);
  EXPECT_NEAR(x[1], 3.0, 1e-12);
}

TEST(SparseLuTest, StructurallySingularEmptyColumn) {
  std::vector<SparseColumn> cols = {{{0, 1.0}}, {}};
  SparseLu lu;
  EXPECT_FALSE(lu.factorize(2, cols));
}

// ---------------------------------------------------------------------
// BasisFactorization (Forrest–Tomlin updates)
// ---------------------------------------------------------------------

TEST(BasisFactorizationTest, UpdateMatchesFreshRefactorization) {
  const int n = 40;
  std::mt19937_64 gen(2024);
  std::uniform_real_distribution<double> u(-1.0, 1.0);
  std::uniform_int_distribution<int> pick(0, n - 1);

  auto random_column = [&] {
    SparseColumn col;
    std::vector<char> used(n, 0);
    for (int k = 0; k < 4; ++k) {
      const int r = pick(gen);
      if (!used[r]) {
        used[r] = 1;
        col.emplace_back(static_cast<std::size_t>(r), u(gen));
      }
    }
    return col;
  };
  // Start from a well-conditioned basis: identity plus noise.
  std::vector<SparseColumn> cols(n);
  for (int j = 0; j < n; ++j) {
    cols[j] = random_column();
    bool has_diag = false;
    for (auto& [r, v] : cols[j]) {
      if (r == static_cast<std::size_t>(j)) {
        v += 6.0;
        has_diag = true;
      }
    }
    if (!has_diag) cols[j].emplace_back(j, 6.0);
  }

  BasisFactorization fac(/*refactor_interval=*/64);
  ASSERT_TRUE(fac.refactorize(n, cols));

  // Apply 20 random column replacements through Forrest–Tomlin updates;
  // after each, ftran must agree with a from-scratch factorization of
  // the updated basis to ~1e-8 (the drift bound that motivates periodic
  // refactorization).
  Vector b(n);
  for (auto& v : b) v = u(gen);
  for (int step = 0; step < 20; ++step) {
    SparseColumn incoming = random_column();
    const std::size_t r = static_cast<std::size_t>(pick(gen));
    incoming.emplace_back(r, 6.0);  // keep the basis well conditioned

    Vector d(n, 0.0);
    for (const auto& [row, v] : incoming) d[row] += v;
    fac.ftran(d);
    if (!fac.update(r, d)) {
      cols[r] = incoming;
      ASSERT_TRUE(fac.refactorize(n, cols));
      continue;
    }
    cols[r] = incoming;

    Vector via_updates = b;
    fac.ftran(via_updates);
    BasisFactorization fresh(64);
    ASSERT_TRUE(fresh.refactorize(n, cols));
    Vector via_fresh = b;
    fresh.ftran(via_fresh);
    for (int i = 0; i < n; ++i) {
      EXPECT_NEAR(via_updates[i], via_fresh[i], 1e-8)
          << "step " << step << " entry " << i;
    }
    Vector bt_updates = b;
    fac.btran(bt_updates);
    Vector bt_fresh = b;
    fresh.btran(bt_fresh);
    for (int i = 0; i < n; ++i) {
      EXPECT_NEAR(bt_updates[i], bt_fresh[i], 1e-8)
          << "step " << step << " entry " << i;
    }
  }
  EXPECT_GT(fac.updates_since_refactor(), 0u);
}

TEST(BasisFactorizationTest, RefusesTinyUpdatePivot) {
  BasisFactorization fac(8);
  std::vector<SparseColumn> eye = {{{0, 1.0}}, {{1, 1.0}}};
  ASSERT_TRUE(fac.refactorize(2, eye));
  Vector d{1e-12, 1.0};  // pivot at position 0 far below tolerance
  EXPECT_FALSE(fac.update(0, d));
  EXPECT_EQ(fac.updates_since_refactor(), 0u);
}

TEST(BasisFactorizationTest, SignalsRefactorAtUpdateCountCap) {
  BasisFactorization fac(/*refactor_interval=*/2);
  std::vector<SparseColumn> eye = {{{0, 1.0}}, {{1, 1.0}}};
  ASSERT_TRUE(fac.refactorize(2, eye));
  Vector d{1.0, 0.5};
  EXPECT_TRUE(fac.update(0, d));
  EXPECT_TRUE(fac.update(1, d));
  EXPECT_TRUE(fac.needs_refactor());
  EXPECT_FALSE(fac.update(0, d));  // at cap: caller must refactorize
}

}  // namespace
}  // namespace dpm::linalg
