// Power-accumulation occupancy evaluator: correctness against the
// exact LU route, the small-size and non-convergence LU gates, and the
// zero-steady-state-allocation guarantee of the mix+eval hot path.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <random>

#include "markov/occupancy.h"
#include "markov/sparse_chain.h"

// Global allocation counter: counts every operator new while armed.
// Used to prove the power loop (and a reused under_policy_csr mix)
// performs no per-iteration allocations once the workspace is warm.
namespace {
std::atomic<bool> g_count_allocs{false};
std::atomic<std::size_t> g_alloc_count{0};
}  // namespace

void* operator new(std::size_t size) {
  if (g_count_allocs.load(std::memory_order_relaxed)) {
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace dpm::markov {
namespace {

SparseControlledChain random_chain(std::size_t n, std::size_t na,
                                   std::size_t succ, std::uint64_t seed) {
  std::mt19937_64 gen(seed);
  std::uniform_real_distribution<double> u(0.05, 1.0);
  std::uniform_int_distribution<std::size_t> pick(0, n - 1);
  std::vector<std::vector<TransitionRow>> rows(n > 0 ? na : 0,
                                               std::vector<TransitionRow>(n));
  for (std::size_t a = 0; a < na; ++a) {
    for (std::size_t s = 0; s < n; ++s) {
      TransitionRow& row = rows[a][s];
      double total = 0.0;
      for (std::size_t k = 0; k < succ; ++k) {
        row.emplace_back(pick(gen), u(gen));
        total += row.back().second;
      }
      for (auto& [to, w] : row) w /= total;
    }
  }
  return SparseControlledChain(n, std::move(rows));
}

linalg::Matrix round_robin_policy(std::size_t n, std::size_t na) {
  linalg::Matrix policy(n, na);
  for (std::size_t s = 0; s < n; ++s) policy(s, s % na) = 1.0;
  return policy;
}

// Power accumulation must agree with the exact LU solve to solver
// precision, and conserve mass: sum(u) = 1 / (1 - gamma).
TEST(OccupancyPower, MatchesLuSolveAboveTheSizeGate) {
  const std::size_t n = 700, na = 4;  // above kPowerMinStates
  const double gamma = 0.99;
  const SparseControlledChain chain = random_chain(n, na, 4, 11);
  const linalg::Matrix policy = round_robin_policy(n, na);
  linalg::Vector p0(n, 1.0 / static_cast<double>(n));

  MixedChainCsr mixed;
  chain.under_policy_csr(policy, mixed);
  OccupancyWorkspace ws;
  const linalg::Vector& u = discounted_occupancy_power(mixed, p0, gamma, ws);
  EXPECT_FALSE(ws.used_lu);
  EXPECT_GT(ws.iterations, 0u);

  const linalg::Vector exact = discounted_occupancy_lu(mixed, p0, gamma);
  double mass = 0.0;
  for (std::size_t s = 0; s < n; ++s) {
    EXPECT_NEAR(u[s], exact[s], 1e-9 * (1.0 + std::abs(exact[s])))
        << "state " << s;
    mass += u[s];
  }
  EXPECT_NEAR(mass * (1.0 - gamma), 1.0, 1e-9);
}

// Below the size gate the evaluator takes the exact LU route — small
// case-study models keep their historic byte-for-byte results.
TEST(OccupancyPower, SmallSystemsUseLu) {
  const std::size_t n = 40, na = 2;
  const SparseControlledChain chain = random_chain(n, na, 3, 7);
  MixedChainCsr mixed;
  chain.under_policy_csr(round_robin_policy(n, na), mixed);
  linalg::Vector p0(n, 1.0 / static_cast<double>(n));
  OccupancyWorkspace ws;
  const linalg::Vector& u = discounted_occupancy_power(mixed, p0, 0.95, ws);
  EXPECT_TRUE(ws.used_lu);
  EXPECT_EQ(ws.iterations, 0u);

  const linalg::Vector exact = discounted_occupancy_lu(mixed, p0, 0.95);
  for (std::size_t s = 0; s < n; ++s) {
    // Same mix + same solver: identical bits.
    EXPECT_EQ(u[s], exact[s]) << "state " << s;
  }
}

// The hot path allocates nothing once warm: re-evaluating with a warm
// workspace (and re-mixing into warm fused arrays) performs zero heap
// allocations regardless of iteration count.
TEST(OccupancyPower, WarmEvaluationDoesNotAllocate) {
  const std::size_t n = 800, na = 4;
  const double gamma = 0.995;
  const SparseControlledChain chain = random_chain(n, na, 4, 13);
  const linalg::Matrix policy = round_robin_policy(n, na);
  linalg::Vector p0(n, 1.0 / static_cast<double>(n));

  MixedChainCsr mixed;
  OccupancyWorkspace ws;
  chain.under_policy_csr(policy, mixed);  // warm the fused arrays
  discounted_occupancy_power(mixed, p0, gamma, ws);  // warm the workspace
  ASSERT_FALSE(ws.used_lu);

  g_alloc_count.store(0);
  g_count_allocs.store(true);
  chain.under_policy_csr(policy, mixed);
  discounted_occupancy_power(mixed, p0, gamma, ws);
  g_count_allocs.store(false);
  EXPECT_EQ(g_alloc_count.load(), 0u)
      << "mix+eval hot path allocated with a warm workspace";
  EXPECT_GT(ws.iterations, 0u);
}

}  // namespace
}  // namespace dpm::markov
