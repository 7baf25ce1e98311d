// Linear-program model.
//
// The policy-optimization LPs of the paper (Appendix A: LP2/LP3/LP4) are
// built through this interface:   min c^T x  s.t.  rows {=, <=, >=} rhs,
// x >= 0.  Rows are stored sparsely; solvers densify as needed.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "linalg/matrix.h"
#include "linalg/sparse.h"
#include "sim/hash.h"

namespace dpm::lp {

/// Thrown on malformed models (bad indices, empty problems, ...).
class LpError : public std::runtime_error {
 public:
  explicit LpError(const std::string& what) : std::runtime_error(what) {}
};

enum class Sense { kEq, kLe, kGe };

/// One linear constraint: sum(coeff_i * x_{col_i})  sense  rhs.
struct Constraint {
  std::vector<std::pair<std::size_t, double>> terms;
  Sense sense = Sense::kEq;
  double rhs = 0.0;
  std::string name;
};

/// Minimization LP over nonnegative variables, optionally box-bounded:
/// 0 <= x_j <= u_j with u_j = +inf by default.
///
/// Invariant: every constraint term references an existing variable;
/// every upper bound is nonnegative.
class LpProblem {
 public:
  /// Adds a variable with the given objective coefficient; returns its
  /// column index.
  std::size_t add_variable(double cost, std::string name = {});

  /// Caps variable `j` at `upper` (>= 0; +inf restores the default).
  /// The revised simplex handles finite bounds natively (nonbasic-at-
  /// bound states and bound flips — no extra row); the dense tableau
  /// solves the `bounds_as_rows` reformulation.
  void set_upper_bound(std::size_t j, double upper);

  const linalg::Vector& upper_bounds() const noexcept { return upper_; }
  /// True when any variable carries a finite upper bound.
  bool has_finite_upper_bounds() const noexcept;

  /// Adds a constraint; all term column indices must already exist.
  /// Duplicate columns within one constraint are summed.
  void add_constraint(Constraint c);

  /// Replaces the right-hand side of constraint `row` (bounds sweeps:
  /// the matrix and senses stay fixed, so a solver basis from the
  /// previous rhs remains structurally valid and can warm-start).
  void set_rhs(std::size_t row, double rhs);

  /// Convenience for dense rows (size must equal num_variables()).
  void add_dense_constraint(const linalg::Vector& row, Sense sense, double rhs,
                            std::string name = {});

  std::size_t num_variables() const noexcept { return costs_.size(); }
  std::size_t num_constraints() const noexcept { return constraints_.size(); }

  const linalg::Vector& costs() const noexcept { return costs_; }
  const std::vector<Constraint>& constraints() const noexcept {
    return constraints_;
  }
  const std::string& variable_name(std::size_t j) const {
    return names_.at(j);
  }

  /// Constraint matrix as CSC columns (num_constraints x num_variables)
  /// — no densification; the revised simplex backend consumes this
  /// directly.
  linalg::SparseMatrixCsc constraint_csc() const;

  /// Objective value of a given point (no feasibility check).
  double objective(const linalg::Vector& x) const;

  /// Max constraint violation of a point (equality residual or one-sided
  /// surplus), useful for tests and post-solve verification.
  double max_violation(const linalg::Vector& x) const;

  /// Streams the LP's canonical content into `h`: costs, upper bounds,
  /// and every constraint's terms/sense/rhs.  Variable and constraint
  /// names are cosmetic and excluded; duplicate in-constraint columns
  /// were summed at add_constraint time, so structurally equal problems
  /// hash equal regardless of how their terms were assembled.
  void hash_into(sim::Fnv1a& h) const;

  /// FNV-1a digest of everything hash_into covers except the rhs: costs,
  /// upper bounds, and every constraint's sense and terms.  set_rhs()
  /// never changes it, so a holder of one LP whose rhs moves per use
  /// (dpmd's sessions) computes it once and hashes only the rhs after.
  std::uint64_t matrix_digest() const;

 private:
  // Costs, bounds and every row's sense/terms, plus its rhs if asked.
  void hash_rows_into(sim::Fnv1a& h, bool with_rhs) const;

  linalg::Vector costs_;
  linalg::Vector upper_;  // per-variable upper bound, +inf by default
  std::vector<std::string> names_;
  std::vector<Constraint> constraints_;
};

/// Reformulates finite upper bounds as explicit `x_j <= u_j` rows and
/// clears the bound vector — the reference formulation for backends
/// without native bound handling, and the comparison target of the
/// bounded-variable tests.
LpProblem bounds_as_rows(const LpProblem& problem);

enum class LpStatus {
  kOptimal,
  kInfeasible,
  kUnbounded,
  kIterationLimit,
  /// The solver hit a numerical wall it could not pivot through:
  /// singular refactorization or non-finite values mid-solve.
  /// Deliberately distinct from kIterationLimit
  /// (which the revised simplex remedies with perturbed retries):
  /// numerical failures are handed to robust::SolveSupervisor, whose
  /// escalation ladder retries the *exact* problem colder instead of a
  /// perturbed one, so recovered objectives stay bit-identical.
  kNumericalFailure,
  /// The cooperative per-unit wall-clock deadline expired mid-solve
  /// (robust::deadline_expired(), polled in the pivot loops).  Never
  /// retried internally — the partial work is abandoned and the caller
  /// (scenario runner / supervisor) decides whether to re-attempt.
  kDeadline,
};

const char* to_string(LpStatus s) noexcept;

struct LpSolution {
  LpStatus status = LpStatus::kIterationLimit;
  linalg::Vector x;        // primal point (original variables)
  double objective = 0.0;  // c^T x
  std::size_t iterations = 0;
  /// Constraint shadow prices (one per original constraint row), filled
  /// by the revised-simplex backend on optimal termination: y_i is
  /// dObjective/drhs_i at the final basis (<= 0 for binding `<=` rows of
  /// a minimization, >= 0 for `>=`, free for `=`; 0 for slack rows).
  /// Rows the solver absorbed into the bound set report 0 — run the
  /// presolve path (cold solves do by default) for exact bound-row
  /// multipliers.  Other backends leave this empty.
  linalg::Vector duals;
  /// Machine-readable failure note, empty on success.  Set alongside the
  /// failure statuses so robust::SolveSupervisor can type the failure
  /// without parsing exception text: "singular-refactorization",
  /// "nonfinite-values", "deadline".
  const char* note = nullptr;
};

/// Deterministically perturbed copy: rhs_i += eps * (i+1) * scale / m,
/// with scale = max |rhs|.  The classical anti-cycling remedy both
/// simplex backends retry with when a heavily degenerate basis stalls
/// (policy LPs are degenerate by construction: most initial-distribution
/// entries are zero).  Objectives move by O(eps * m * horizon), far
/// below any quantity the library reports.
LpProblem perturbed_copy(const LpProblem& problem, double eps);

}  // namespace dpm::lp
