// Two-phase dense primal simplex.
//
// The reference solver for the policy-optimization LPs, and the
// supervisor's last recovery rung (robust::SolveSupervisor).  Phase 1
// minimizes the sum of artificial variables to find a basic feasible
// point; phase 2 optimizes the true objective.  Dantzig pricing with an
// automatic switch to Bland's rule when the objective stalls guarantees
// termination on the (often degenerate) balance-equation LPs produced by
// discounted MDPs.  Each pivot polls robust::deadline_expired(); an
// expired deadline returns kDeadline with note "deadline".
#pragma once

#include "lp/problem.h"

namespace dpm::lp {

struct SimplexOptions {
  std::size_t max_iterations = 20000;
  double pivot_tol = 1e-8;       // reject smaller pivot elements
  double reduced_cost_tol = 1e-9;
  double feas_tol = 1e-7;        // phase-1 residual accepted as feasible
  /// Switch from Dantzig pricing to Bland's rule after this many
  /// iterations without objective improvement (anti-cycling).
  std::size_t stall_limit = 64;
  /// Give up (and let the caller retry on a perturbed copy) after this
  /// many non-improving iterations in Bland mode — far cheaper than
  /// grinding a degenerate basis to the full iteration budget.
  std::size_t bland_stall_abort = 2000;
};

/// Solves `problem` with the two-phase simplex method.
LpSolution solve_simplex(const LpProblem& problem,
                         const SimplexOptions& options = {});

}  // namespace dpm::lp
