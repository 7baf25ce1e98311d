#include "lp/simplex.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "robust/probe.h"

namespace dpm::lp {

namespace {

// The tableau's one configuration.
constexpr std::size_t kMaxIterations = 20000;  // pivot budget per phase
constexpr double kPivotTol = 1e-8;  // reject smaller pivot elements
constexpr double kReducedCostTol = 1e-9;
constexpr double kFeasTol = 1e-7;  // phase-1 residual accepted as feasible
// Switch from Dantzig pricing to Bland's rule after this many
// iterations without objective improvement (anti-cycling).
constexpr std::size_t kStallLimit = 64;
// End the phase with kIterationLimit after this many non-improving
// iterations in Bland mode, far cheaper than grinding a degenerate
// basis to the full iteration budget.
constexpr std::size_t kBlandStallAbort = 2000;

// Dense two-phase tableau.  Sized for the MDP balance-equation LPs this
// library produces (a few hundred rows, a few thousand columns).
// Constraint coefficients live in rows_; right-hand sides in rhs_; the
// two reduced-cost rows carry their (negated) objective value in
// obj*_rhs_.
class Tableau {
 public:
  explicit Tableau(const LpProblem& p) {
    const std::size_t m = p.num_constraints();
    n_orig_ = p.num_variables();

    // Column layout: [original | slack/surplus | artificial].
    std::size_t n_slack = 0;
    for (const auto& c : p.constraints()) {
      if (c.sense != Sense::kEq) ++n_slack;
    }
    const std::size_t n_max = n_orig_ + n_slack + m;  // worst case
    rows_.assign(m, linalg::Vector(n_max, 0.0));
    rhs_.assign(m, 0.0);
    basis_.assign(m, kNoBasis);

    n_total_ = n_orig_ + n_slack;
    std::size_t next_slack = n_orig_;
    for (std::size_t i = 0; i < m; ++i) {
      const Constraint& c = p.constraints()[i];
      linalg::Vector& row = rows_[i];
      for (const auto& [col, coeff] : c.terms) row[col] = coeff;
      rhs_[i] = c.rhs;
      double slack_coeff = 0.0;
      std::size_t slack_col = kNoBasis;
      if (c.sense == Sense::kLe) {
        slack_coeff = 1.0;
        slack_col = next_slack++;
      } else if (c.sense == Sense::kGe) {
        slack_coeff = -1.0;
        slack_col = next_slack++;
      }
      if (slack_col != kNoBasis) row[slack_col] = slack_coeff;

      if (rhs_[i] < 0.0) {
        // Only [0, n_total_) can be populated at this point; the
        // artificial tail is still all-zero.
        for (std::size_t j = 0; j < n_total_; ++j) row[j] = -row[j];
        rhs_[i] = -rhs_[i];
        slack_coeff = -slack_coeff;
      }
      if (slack_coeff == 1.0) {
        basis_[i] = slack_col;  // slack serves as the initial basic var
      }
    }
    // Add artificials where no slack could enter the basis.
    first_artificial_ = n_total_;
    for (std::size_t i = 0; i < m; ++i) {
      if (basis_[i] == kNoBasis) {
        const std::size_t art = n_total_++;
        rows_[i][art] = 1.0;
        basis_[i] = art;
      }
    }

    // Phase-2 reduced costs start as the raw costs (initial basis has
    // zero cost in the true objective).
    obj2_.assign(n_max, 0.0);
    for (std::size_t j = 0; j < n_orig_; ++j) obj2_[j] = p.costs()[j];
    obj2_rhs_ = 0.0;

    // Phase-1 objective: sum of artificials; express in terms of the
    // nonbasic columns by subtracting the rows whose basic variable is
    // artificial.
    obj1_.assign(n_max, 0.0);
    for (std::size_t j = first_artificial_; j < n_total_; ++j) obj1_[j] = 1.0;
    obj1_rhs_ = 0.0;
    for (std::size_t i = 0; i < m; ++i) {
      if (basis_[i] >= first_artificial_) {
        for (std::size_t j = 0; j < n_total_; ++j) obj1_[j] -= rows_[i][j];
        obj1_rhs_ -= rhs_[i];
      }
    }
  }

  LpSolution run(const LpProblem& p) {
    LpSolution sol;

    if (first_artificial_ < n_total_) {
      const PhaseResult r1 =
          optimize(obj1_, obj1_rhs_, /*block_artificials=*/false);
      sol.iterations += r1.iterations;
      if (r1.status == LpStatus::kIterationLimit ||
          r1.status == LpStatus::kDeadline) {
        sol.status = r1.status;
        if (r1.status == LpStatus::kDeadline) sol.note = "deadline";
        return sol;
      }
      // Phase-1 optimum is -obj1_rhs_; feasible iff it is ~0.
      if (-obj1_rhs_ > kFeasTol) {
        sol.status = LpStatus::kInfeasible;
        return sol;
      }
      drive_out_artificials();
    }

    const PhaseResult r2 =
        optimize(obj2_, obj2_rhs_, /*block_artificials=*/true);
    sol.iterations += r2.iterations;
    sol.status = r2.status;
    if (r2.status == LpStatus::kDeadline) sol.note = "deadline";
    if (r2.status != LpStatus::kOptimal) return sol;

    sol.x.assign(n_orig_, 0.0);
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      if (basis_[i] < n_orig_) sol.x[basis_[i]] = rhs_[i];
    }
    // Clip the tiny negatives that tableau arithmetic can leave behind.
    for (double& v : sol.x) {
      if (v < 0.0 && v > -kFeasTol) v = 0.0;
    }
    sol.objective = p.objective(sol.x);
    return sol;
  }

 private:
  static constexpr std::size_t kNoBasis =
      std::numeric_limits<std::size_t>::max();

  struct PhaseResult {
    LpStatus status;
    std::size_t iterations;
  };

  bool column_usable(std::size_t j, bool block_artificials) const {
    return !(block_artificials && j >= first_artificial_);
  }

  // Primal simplex on the current tableau minimizing the objective whose
  // reduced-cost row is `obj` (updated in place; `obj_rhs` carries the
  // negated objective value).  Dantzig pricing until the objective
  // stalls, then Bland's rule (anti-cycling).  The cooperative deadline
  // (robust::deadline_expired) is polled once per pivot: a large
  // tableau can run for seconds.
  PhaseResult optimize(linalg::Vector& obj, double& obj_rhs,
                       bool block_artificials) {
    std::size_t iters = 0;
    std::size_t stall = 0;
    bool bland = false;
    double best = std::numeric_limits<double>::infinity();

    while (iters < kMaxIterations) {
      if (robust::deadline_expired()) {
        return {LpStatus::kDeadline, iters};
      }
      // --- entering column ---
      std::size_t enter = kNoBasis;
      double most_negative = -kReducedCostTol;
      for (std::size_t j = 0; j < n_total_; ++j) {
        if (!column_usable(j, block_artificials)) continue;
        const double rc = obj[j];
        if (bland) {
          if (rc < -kReducedCostTol) {
            enter = j;
            break;
          }
        } else if (rc < most_negative) {
          most_negative = rc;
          enter = j;
        }
      }
      if (enter == kNoBasis) {
        return {LpStatus::kOptimal, iters};
      }

      // --- ratio test ---
      // Two passes: find the minimum ratio, then among the (near-)tied
      // rows pick the numerically safest pivot (largest |element|) in
      // Dantzig mode, or the lowest basis index in Bland mode
      // (anti-cycling requires the index rule).
      double best_ratio = std::numeric_limits<double>::infinity();
      for (std::size_t i = 0; i < rows_.size(); ++i) {
        const double a = rows_[i][enter];
        if (a <= kPivotTol) continue;
        best_ratio = std::min(best_ratio, rhs_[i] / a);
      }
      if (best_ratio == std::numeric_limits<double>::infinity()) {
        return {LpStatus::kUnbounded, iters};
      }
      std::size_t leave = kNoBasis;
      double best_pivot = 0.0;
      const double ratio_cut = best_ratio + 1e-9 * (1.0 + std::abs(best_ratio));
      for (std::size_t i = 0; i < rows_.size(); ++i) {
        const double a = rows_[i][enter];
        if (a <= kPivotTol) continue;
        if (rhs_[i] / a > ratio_cut) continue;
        if (bland) {
          if (leave == kNoBasis || basis_[i] < basis_[leave]) leave = i;
        } else if (a > best_pivot) {
          best_pivot = a;
          leave = i;
        }
      }

      pivot(leave, enter, obj, obj_rhs);
      ++iters;

      const double cur = -obj_rhs;
      if (cur < best - 1e-12) {
        best = cur;
        stall = 0;
      } else if (++stall >= (bland ? kBlandStallAbort : kStallLimit)) {
        if (bland) {
          return {LpStatus::kIterationLimit, iters};
        }
        bland = true;
        stall = 0;
      }
    }
    return {LpStatus::kIterationLimit, iters};
  }

  void pivot(std::size_t leave, std::size_t enter, linalg::Vector& obj,
             double& obj_rhs) {
    linalg::Vector& prow = rows_[leave];
    const double inv = 1.0 / prow[enter];
    // Live columns only: [n_total_, n_max) stays zero for the whole
    // solve, so scaling it is pure waste (the allocation is worst-case
    // sized for artificials that may never be created).
    for (std::size_t j = 0; j < n_total_; ++j) prow[j] *= inv;
    rhs_[leave] *= inv;
    prow[enter] = 1.0;  // kill roundoff on the pivot element itself

    for (std::size_t i = 0; i < rows_.size(); ++i) {
      if (i == leave) continue;
      eliminate(rows_[i], rhs_[i], prow, rhs_[leave], enter);
    }
    eliminate(obj, obj_rhs, prow, rhs_[leave], enter);
    // Keep the *other* objective row consistent too so phase transitions
    // are free.
    if (&obj == &obj1_) {
      eliminate(obj2_, obj2_rhs_, prow, rhs_[leave], enter);
    } else {
      eliminate(obj1_, obj1_rhs_, prow, rhs_[leave], enter);
    }

    basis_[leave] = enter;
  }

  void eliminate(linalg::Vector& row, double& row_rhs,
                 const linalg::Vector& prow, double prow_rhs,
                 std::size_t enter) const {
    const double f = row[enter];
    if (f == 0.0) return;
    for (std::size_t j = 0; j < n_total_; ++j) row[j] -= f * prow[j];
    row_rhs -= f * prow_rhs;
    row[enter] = 0.0;
  }

  // After phase 1, replace basic artificials with structural columns
  // where possible; rows that admit none are redundant and harmless
  // (their artificial stays basic at value zero, and phase 2 blocks
  // artificial columns from entering).
  void drive_out_artificials() {
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      if (basis_[i] < first_artificial_) continue;
      for (std::size_t j = 0; j < first_artificial_; ++j) {
        if (std::abs(rows_[i][j]) > kPivotTol) {
          pivot(i, j, obj1_, obj1_rhs_);
          break;
        }
      }
    }
  }

  std::size_t n_orig_ = 0;
  std::size_t n_total_ = 0;
  std::size_t first_artificial_ = 0;
  std::vector<linalg::Vector> rows_;  // constraint coefficients
  linalg::Vector rhs_;                // right-hand sides (kept >= 0)
  linalg::Vector obj1_, obj2_;        // reduced-cost rows (phase 1 / 2)
  double obj1_rhs_ = 0.0, obj2_rhs_ = 0.0;
  std::vector<std::size_t> basis_;
};

}  // namespace

LpSolution solve_simplex(const LpProblem& problem) {
  if (problem.num_variables() == 0) {
    throw LpError("simplex: problem has no variables");
  }
  if (problem.has_finite_upper_bounds()) {
    // The tableau has no native bound handling; solve the explicit-row
    // reformulation (same variables, same objective).
    return solve_simplex(bounds_as_rows(problem));
  }
  Tableau t(problem);
  return t.run(problem);
}

}  // namespace dpm::lp
