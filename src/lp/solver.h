// Solver facade: one entry point, selectable backend.
//
// See src/lp/README.md for the backend table and the warm-start
// contract.
#pragma once

#include "lp/problem.h"
#include "lp/revised_simplex.h"
#include "lp/simplex.h"

namespace dpm::lp {

/// Which LP algorithm `solve()` dispatches to.
enum class Backend {
  /// Sparse revised simplex (the default, and the backend behind
  /// `PolicyOptimizer`): two-phase primal plus a boxed dual simplex,
  /// Forrest–Tomlin-updated Markowitz LU basis, partial pricing,
  /// native bounded variables, warm-startable via `SimplexBasis`.
  kRevisedSimplex,
  /// Dense two-phase tableau — the small, auditable reference
  /// implementation the revised simplex is tested against, and the
  /// supervisor's last recovery rung.
  kSimplex,
};

/// Solves `problem` with the requested backend.  Both backends share
/// the `LpSolution`/`LpStatus` contract and agree on feasible bounded
/// instances to ~1e-6 (enforced by tests/test_lp_agreement.cpp).
/// Callers that need warm starts, per-solve stats, or non-default
/// options use `solve_revised_simplex` directly.
inline LpSolution solve(const LpProblem& problem,
                        Backend backend = Backend::kRevisedSimplex) {
  if (backend == Backend::kSimplex) return solve_simplex(problem);
  return solve_revised_simplex(problem);
}

}  // namespace dpm::lp
