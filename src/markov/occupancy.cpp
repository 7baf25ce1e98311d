#include "markov/occupancy.h"

#include <cmath>
#include <cstdlib>

#include "linalg/sparse_lu.h"

namespace dpm::markov {

namespace {

void check_arguments(std::size_t n, const linalg::Vector& p0,
                     double gamma) {
  if (p0.size() != n) {
    throw MarkovError("discounted_occupancy: p0 size mismatch");
  }
  if (gamma <= 0.0 || gamma >= 1.0) {
    throw MarkovError("discounted_occupancy: gamma must be in (0,1)");
  }
}

}  // namespace

linalg::Vector discounted_occupancy_lu(const MixedChainCsr& chain,
                                       const linalg::Vector& p0,
                                       double gamma) {
  const std::size_t n = chain.num_states();
  check_arguments(n, p0, gamma);
  // u = p0 (I - gamma P)^{-1}  <=>  M u = p0 with M = (I - gamma P)^T.
  const std::vector<linalg::SparseColumn> cols = discounted_transposed_columns(
      n, gamma, [&chain](std::size_t j) { return chain.row(j); });
  linalg::SparseLu lu;
  if (!lu.factorize(n, cols)) {
    throw MarkovError("discounted_occupancy: singular system");
  }
  linalg::Vector u = p0;
  lu.ftran(u);
  return u;
}

const linalg::Vector& discounted_occupancy_power(const MixedChainCsr& chain,
                                                 const linalg::Vector& p0,
                                                 double gamma,
                                                 OccupancyWorkspace& ws) {
  const std::size_t n = chain.num_states();
  check_arguments(n, p0, gamma);
  ws.iterations = 0;
  ws.delta = 0.0;
  ws.used_lu = false;
  if (n < kPowerMinStates) {
    ws.used_lu = true;
    ws.u = discounted_occupancy_lu(chain, p0, gamma);
    return ws.u;
  }

  // Power accumulation.  Error analysis for the truncation at step K:
  // the exact remainder is sum_{k>=K} gamma^k x_k and the tail
  // substitutes x_K for every x_k, so the error is bounded by
  //   sum_{k>=K} gamma^k |x_k - x_K|_1
  //     <= sum_{k>=K} gamma^k (k - K) delta_K     (P is a contraction
  //     = gamma^K delta_K * gamma / (1-gamma)^2    in |.|_1 steps)
  // with delta_K = |x_{K+1} - x_K|_1 — the bound tested each step.
  ws.x = p0;
  ws.xn.assign(n, 0.0);
  ws.u.assign(n, 0.0);
  const std::size_t* row_ptr = chain.row_ptr.data();
  const auto* entries = chain.entries.data();
  double gk = 1.0;
  for (std::size_t it = 0; it < kPowerMaxIters; ++it) {
    double* x = ws.x.data();
    double* xn = ws.xn.data();
    double* u = ws.u.data();
    for (std::size_t s = 0; s < n; ++s) u[s] += gk * x[s];
    for (std::size_t s = 0; s < n; ++s) xn[s] = 0.0;
    // xn = x P over the fused rows: one contiguous pass over entries.
    for (std::size_t s = 0; s < n; ++s) {
      const double xs = x[s];
      if (xs == 0.0) continue;
      const std::size_t end = row_ptr[s + 1];
      for (std::size_t k = row_ptr[s]; k < end; ++k) {
        xn[entries[k].first] += xs * entries[k].second;
      }
    }
    double delta = 0.0;
    for (std::size_t s = 0; s < n; ++s) delta += std::abs(xn[s] - x[s]);
    ws.x.swap(ws.xn);
    gk *= gamma;
    ws.iterations = it + 1;
    ws.delta = delta;
    if (delta * gk / ((1.0 - gamma) * (1.0 - gamma)) < kPowerTol) {
      // Stationarity tail: the remaining geometric sum of the (now
      // essentially fixed) iterate.
      const double* xf = ws.x.data();
      double* u = ws.u.data();
      const double scale = gk / (1.0 - gamma);
      for (std::size_t s = 0; s < n; ++s) u[s] += scale * xf[s];
      return ws.u;
    }
  }
  // Slowly mixing chain: hand the system to the exact solver.
  ws.used_lu = true;
  ws.u = discounted_occupancy_lu(chain, p0, gamma);
  return ws.u;
}

}  // namespace dpm::markov
