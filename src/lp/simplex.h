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

/// Solves `problem` with the two-phase simplex method.  A degenerate
/// stall that outlasts Bland's rule ends in kIterationLimit.
LpSolution solve_simplex(const LpProblem& problem);

}  // namespace dpm::lp
