// Heap-allocation bound of a basis refactorization.
//
// A revised-simplex solve refactorizes its basis every few pivots, so a
// refactorization that allocates per basis row pays the allocator
// thousands of times per solve.  This test counts every global
// operator new (the replacement below is private to this executable:
// each tests/test_*.cpp links alone) around BasisFactorization::
// refactorize on a served-size fleet basis, and holds the second and
// later refactorizations of that basis to a small constant.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>

#include "dpm/metrics.h"
#include "dpm/optimizer.h"
#include "linalg/sparse_lu.h"
#include "lp/revised_simplex.h"
#include "serve/fleet.h"

namespace {
std::atomic<std::size_t> g_allocations{0};

void* counted_alloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* counted_aligned_alloc(std::size_t size, std::align_val_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  const auto a = static_cast<std::size_t>(align);
  const std::size_t rounded = (size + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded == 0 ? a : rounded)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace dpm {
namespace {

using linalg::BasisFactorization;
using linalg::SparseColumn;

/// Optimal basis of a served fleet LP (variant 2, queue capacity 112,
/// gamma 0.999, minimum power under a queue bound of a quarter of the
/// capacity), as columns of the simplex's standard form: structural
/// columns, then one slack per inequality row, then one artificial per
/// row.
std::vector<SparseColumn> fleet_basis_columns() {
  const SystemModel model = serve::fleet_model_spec(2, 112).compose();
  OptimizerConfig config;
  config.discount = 0.999;
  const PolicyOptimizer opt(model, config);
  const lp::LpProblem problem = opt.build_lp(
      metrics::power(model),
      {{metrics::queue_length(model), 0.25 * 112.0, "queue"}});
  lp::SimplexBasis basis;
  const lp::LpSolution sol =
      lp::solve_revised_simplex(problem, {}, nullptr, &basis);
  EXPECT_EQ(sol.status, lp::LpStatus::kOptimal);

  const std::size_t m = problem.num_constraints();
  const linalg::SparseMatrixCsc a = problem.constraint_csc();
  std::vector<SparseColumn> standard;
  for (std::size_t j = 0; j < problem.num_variables(); ++j) {
    SparseColumn col;
    for (std::size_t k = a.col_begin(j); k < a.col_end(j); ++k) {
      col.emplace_back(a.row_indices()[k], a.values()[k]);
    }
    standard.push_back(std::move(col));
  }
  for (std::size_t i = 0; i < m; ++i) {
    const lp::Constraint& c = problem.constraints()[i];
    if (c.sense != lp::Sense::kEq) {
      standard.push_back({{i, c.sense == lp::Sense::kLe ? 1.0 : -1.0}});
    }
  }
  for (std::size_t i = 0; i < m; ++i) {
    standard.push_back({{i, problem.constraints()[i].rhs < 0.0 ? -1.0 : 1.0}});
  }
  // Every row kept: no singleton row was absorbed into a bound, so the
  // basis spans all m rows.
  EXPECT_EQ(basis.basic.size(), m);
  std::vector<SparseColumn> cols;
  for (const std::size_t j : basis.basic) cols.push_back(standard.at(j));
  return cols;
}

TEST(LuAllocations, FleetRefactorizationMakesABoundedNumber) {
  const std::vector<SparseColumn> cols = fleet_basis_columns();
  const std::size_t m = cols.size();
  ASSERT_GE(m, 400u);

  BasisFactorization fac;
  ASSERT_TRUE(fac.refactorize(m, cols));  // sizes every kept buffer
  for (int rep = 0; rep < 3; ++rep) {
    const std::size_t before = g_allocations.load();
    ASSERT_TRUE(fac.refactorize(m, cols));
    const std::size_t made = g_allocations.load() - before;
    std::printf(
        "refactorization %d of the %zu-row basis (nnz(L+U) %zu, dense tail "
        "%zu): %zu allocations\n",
        rep + 2, m, fac.factor_nonzeros(), fac.tail_dim(), made);
    EXPECT_LE(made, 32u) << "refactorization " << rep + 2;
  }
}

}  // namespace
}  // namespace dpm
