// Discounted-occupancy evaluation over a policy-mixed chain: one exact
// sparse-LU solve and the O(nnz * iters) power accumulation built on it.
//
// The LP pipeline and the scenario harness evaluate many policies
// against one model: mix the per-command CSR rows under a policy, then
// compute u = p0 (I - gamma P_pi)^{-1}.  The LU route costs a full
// sparse factorization per policy — at n*na = 56k that is seconds per
// evaluation, and the factor is dense-tail dominated.  The power path
// replaces it with accumulation,
//
//   u = sum_{k<K} gamma^k p0 P^k  +  gamma^K / (1 - gamma) * x_K,
//
// where x_k = p0 P^k and the closed-form tail exploits that x_k is
// near-stationary once the iteration stops moving (the remaining
// geometric sum collapses).  The loop is two O(nnz) sweeps per
// iteration over a *fused* CSR (one contiguous entry array — no
// per-row vector hops) and touches no allocator: all state lives in a
// caller-owned workspace, so steady-state evaluation performs zero
// heap allocations (guarded by test_occupancy_power.cpp).
//
// Small systems and non-converging chains fall back to the exact LU
// solve: below kPowerMinStates a factorization is cheaper than ~100
// power iterations, and a chain that has not met the error bound after
// kPowerMaxIters (slowly mixing + gamma near 1) is handed to the direct
// solver rather than iterated forever.
#pragma once

#include <cstddef>
#include <vector>

#include "markov/sparse_chain.h"

namespace dpm::markov {

/// Reusable state for discounted_occupancy_power.  `u` holds the last
/// result; `iterations`, `delta`, and `used_lu` describe how it was
/// obtained (used_lu covers both the small-size gate and the
/// kPowerMaxIters safety fallback).
struct OccupancyWorkspace {
  linalg::Vector x;
  linalg::Vector xn;
  linalg::Vector u;
  std::size_t iterations = 0;
  double delta = 0.0;
  bool used_lu = false;
};

/// Below this order the direct LU solve wins (and keeps the historic
/// exact results on the small case-study models byte-for-byte).
inline constexpr std::size_t kPowerMinStates = 512;
/// Power-iteration safety valve: past this, fall back to LU.
inline constexpr std::size_t kPowerMaxIters = 20000;
/// Convergence bound on the truncation error of u (see the error
/// analysis in occupancy.cpp): delta * gamma^k / (1 - gamma)^2.
inline constexpr double kPowerTol = 1e-12;

/// Exact discounted occupancy u = p0 (I - gamma P)^{-1} over a fused
/// mixed chain: u_s is the expected discounted number of visits to s.
/// Solves (I - gamma P)^T u = p0 with the sparse LU, whose columns are
/// the chain's CSR rows (discounted_transposed_columns).  The power
/// path's small-size and non-convergence route, and the tests'
/// reference.  Throws MarkovError on bad gamma/p0 shape or a singular
/// system (which cannot happen for a stochastic P and gamma < 1 unless
/// rows are malformed).
linalg::Vector discounted_occupancy_lu(const MixedChainCsr& chain,
                                       const linalg::Vector& p0,
                                       double gamma);

/// Discounted occupancy u = p0 (I - gamma P)^{-1} over a fused mixed
/// chain, by power accumulation (discounted_occupancy_lu below
/// kPowerMinStates or past kPowerMaxIters).  Returns a reference to
/// ws.u; the workspace owns all scratch and is reused across calls (zero
/// steady-state allocations on the power path).  Throws what
/// discounted_occupancy_lu throws.
const linalg::Vector& discounted_occupancy_power(const MixedChainCsr& chain,
                                                 const linalg::Vector& p0,
                                                 double gamma,
                                                 OccupancyWorkspace& ws);

}  // namespace dpm::markov
