// Backend selector for the supervised solve path.
//
// See src/lp/README.md for the backend table and the warm-start
// contract.
#pragma once

#include "lp/problem.h"
#include "lp/revised_simplex.h"
#include "lp/simplex.h"

namespace dpm::lp {

/// Which LP algorithm a supervised solve (robust::SolveSupervisor,
/// OptimizerConfig::backend) runs on its first rungs.
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

}  // namespace dpm::lp
