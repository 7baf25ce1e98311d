#include "lp/revised_simplex.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>

#include "linalg/indexed_vector.h"
#include "linalg/sparse_lu.h"
#include "lp/presolve.h"
#include "robust/probe.h"

namespace dpm::lp {

namespace {

constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();
constexpr double kInf = std::numeric_limits<double>::infinity();

// The engine's one configuration (src/lp/README.md lists these values).
constexpr std::size_t kMaxIterations = 20000;  // pivot budget per phase
constexpr double kPivotTol = 1e-8;  // reject smaller ratio-test pivots
constexpr double kReducedCostTol = 1e-9;
constexpr double kFeasTol = 1e-7;  // phase-1 residual accepted as feasible
// Hard cap on Forrest-Tomlin updates between refactorizations.  The
// trigger that usually fires first is BasisFactorization's amortized
// rule: refactorize once the update transforms have cost
// kRefactorWorkRatio times as much extra sweep work as the last
// rebuild's measured work.  That balances cheap factorizations against
// heavily filling ones and is bit-deterministic; the cap only bounds
// numerical drift on extreme instances.
constexpr std::size_t kRefactorInterval = 1024;
constexpr double kRefactorWorkRatio = 1.0;
// Switch to Bland's rule after this many non-improving iterations.
constexpr std::size_t kStallLimit = 64;
// End the phase with kIterationLimit after this many non-improving
// Bland iterations; the SolveSupervisor ladder escalates it.
constexpr std::size_t kBlandStallAbort = 2000;
// Dual pivots a warm or crash start may spend before it falls back to
// a cold solve (warm starts are only worth it when they are short).
constexpr std::size_t kMaxDualIterations = 1000;

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

#ifdef DPM_VERIFY_SPARSE
/// Verification-build invariant breach: a structured throw the
/// supervisor types as invariant-violation (the word "invariant" in
/// the message is the contract), replacing the old fprintf+abort.
[[noreturn]] void invariant_failure(const char* check, std::size_t i,
                                    double dense_val, double sparse_val) {
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "revised-simplex invariant: %s i=%zu dense=%.17g sparse=%.17g",
                check, i, dense_val, sparse_val);
  throw LpError(buf);
}
#endif

// Process-wide hypersparsity odometer, aggregated once per solve from
// each factorization's cumulative counters (see sweep_telemetry()).
std::atomic<std::uint64_t> g_sparse_sweeps{0};
std::atomic<std::uint64_t> g_dense_sweeps{0};
std::atomic<std::uint64_t> g_touched_entries{0};
std::atomic<std::uint64_t> g_block_sweeps{0};
std::atomic<std::uint64_t> g_block_entries{0};

// Standard-form engine: columns [structural | slack/surplus | artificial]
// over equality rows A x = b, 0 <= x <= u (u = +inf unless the problem
// bounds the variable or a singleton row was absorbed into the bound
// set).  Artificials carry an implicit upper bound of zero outside
// phase 1 and are never allowed to enter.
class RevisedSimplex {
 public:
  RevisedSimplex(const LpProblem& p, const RevisedSimplexOptions& opt)
      : opt_(opt),
        n_struct_(p.num_variables()),
        factor_(kRefactorInterval, 1e-11, kRefactorWorkRatio) {
    // --- bound setup + singleton-row absorption ----------------------
    upper_struct_.assign(n_struct_, kInf);
    for (std::size_t j = 0; j < n_struct_; ++j) {
      upper_struct_[j] = p.upper_bounds()[j];
    }
    std::vector<char> keep_row(p.num_constraints(), 1);
    if (opt_.absorb_singleton_rows) {
      for (std::size_t i = 0; i < p.num_constraints(); ++i) {
        if (!absorb_row(p.constraints()[i], keep_row[i])) {
          infeasible_by_bounds_ = true;
          return;
        }
      }
    }

    // --- row remap + structural columns ------------------------------
    row_map_.assign(p.num_constraints(), kNone);
    for (std::size_t i = 0; i < p.num_constraints(); ++i) {
      if (keep_row[i]) {
        row_map_[i] = m_;
        ++m_;
      }
    }
    const linalg::SparseMatrixCsc a = p.constraint_csc();
    cols_.reserve(n_struct_ + 2 * m_);
    for (std::size_t j = 0; j < n_struct_; ++j) {
      linalg::SparseColumn col;
      col.reserve(a.col_end(j) - a.col_begin(j));
      for (std::size_t k = a.col_begin(j); k < a.col_end(j); ++k) {
        const std::size_t i = row_map_[a.row_indices()[k]];
        if (i != kNone) col.emplace_back(i, a.values()[k]);
      }
      cols_.push_back(std::move(col));
    }

    // --- logical columns ---------------------------------------------
    rhs_.resize(m_);
    slack_of_row_.assign(m_, kNone);
    for (std::size_t i0 = 0; i0 < p.num_constraints(); ++i0) {
      if (!keep_row[i0]) continue;
      const Constraint& c = p.constraints()[i0];
      const std::size_t i = row_map_[i0];
      rhs_[i] = c.rhs;
      if (c.sense != Sense::kEq) {
        slack_of_row_[i] = cols_.size();
        cols_.push_back({{i, c.sense == Sense::kLe ? 1.0 : -1.0}});
      }
    }
    first_artificial_ = cols_.size();
    for (std::size_t i = 0; i < m_; ++i) {
      cols_.push_back({{i, rhs_[i] < 0.0 ? -1.0 : 1.0}});
    }
    n_cols_ = cols_.size();

    upper_.assign(n_cols_, kInf);
    for (std::size_t j = 0; j < n_struct_; ++j) {
      upper_[j] = upper_struct_[j];
      if (std::isfinite(upper_[j])) finite_ub_cols_.push_back(j);
    }
    at_upper_.assign(n_cols_, 0);

    cost2_.assign(n_cols_, 0.0);
    for (std::size_t j = 0; j < n_struct_; ++j) cost2_[j] = p.costs()[j];
    cost1_.assign(n_cols_, 0.0);
    for (std::size_t j = first_artificial_; j < n_cols_; ++j) cost1_[j] = 1.0;

    // Row-wise mirror of the pivotable columns (structural + logical,
    // never artificial).  The dual ratio test walks the pivot row's
    // support through this view, touching only columns that intersect
    // it — O(nnz of those rows) instead of a full O(nnz(A)) scan.
    rows_.assign(m_, {});
    for (std::size_t j = 0; j < first_artificial_; ++j) {
      for (const auto& [r, v] : cols_[j]) rows_[r].emplace_back(j, v);
    }

    // Hypersparse pivot-loop scratch (sized once; clear() is O(touched)).
    dwork_.resize(m_);
    rhowork_.resize(m_);
    tauwork_.resize(m_);
    flipwork_.resize(m_);
    alpha_acc_.assign(first_artificial_, 0.0);
    alpha_mark_.assign(first_artificial_, 0);
  }

  bool infeasible_by_bounds() const noexcept { return infeasible_by_bounds_; }
  bool is_artificial(std::size_t j) const { return j >= first_artificial_; }

  /// Cold start: slack basis where the slack sign admits it, artificial
  /// elsewhere.  Returns true when any artificial entered the basis
  /// (phase 1 required).
  bool install_cold_basis() {
    basis_.assign(m_, kNone);
    std::fill(at_upper_.begin(), at_upper_.end(), 0);
    bool need_phase1 = false;
    for (std::size_t i = 0; i < m_; ++i) {
      const std::size_t s = slack_of_row_[i];
      if (s != kNone) {
        const double sigma = cols_[s].front().second;
        if (rhs_[i] / sigma >= 0.0) {
          basis_[i] = s;
          continue;
        }
      }
      basis_[i] = first_artificial_ + i;
      need_phase1 = true;
    }
    rebuild_in_basis();
    return need_phase1;
  }

  /// Crash start: for each original constraint row the caller nominated
  /// a structural column (see RevisedSimplexOptions::crash_columns);
  /// rows without a valid, unused nomination complete with their slack,
  /// or an artificial where the row has none (equality rows).  Returns
  /// false when the nomination array has the wrong length or no seed
  /// landed — the caller falls back to install_cold_basis.  Whether the
  /// seeded set actually factors is decided by the refactorize that
  /// follows, exactly as for a warm basis.
  bool install_crash_basis(const std::vector<std::size_t>& crash) {
    if (crash.size() != row_map_.size()) return false;
    basis_.assign(m_, kNone);
    std::fill(at_upper_.begin(), at_upper_.end(), 0);
    crash_seeded_.assign(n_struct_, 0);
    std::size_t seeded = 0;
    for (std::size_t i0 = 0; i0 < row_map_.size(); ++i0) {
      const std::size_t i = row_map_[i0];
      if (i == kNone) continue;
      const std::size_t j = crash[i0];
      if (j < n_struct_ && !crash_seeded_[j] && !cols_[j].empty() &&
          upper_[j] > 0.0) {
        crash_seeded_[j] = 1;
        basis_[i] = j;
        ++seeded;
        continue;
      }
      const std::size_t s = slack_of_row_[i];
      basis_[i] = s != kNone ? s : first_artificial_ + i;
    }
    if (seeded == 0) return false;
    rebuild_in_basis();
    return true;
  }

  /// Crash-seeded structural columns still basic right now.  Read at
  /// optimality, each one is a basic column the simplex never had to
  /// pivot in — the deterministic "pivots saved" proxy behind
  /// SimplexStats::crash_pivots_saved.
  std::size_t crash_survivors() const {
    std::size_t count = 0;
    for (const std::size_t j : basis_) {
      if (j < n_struct_ && crash_seeded_[j]) ++count;
    }
    return count;
  }

  bool install_warm_basis(const SimplexBasis& warm) {
    if (warm.basic.size() != m_) return false;
    std::vector<char> seen(n_cols_, 0);
    for (const std::size_t j : warm.basic) {
      if (j >= n_cols_) return false;
      if (seen[j] != 0) return false;  // repeated column: structural junk
      seen[j] = 1;
    }
    basis_ = warm.basic;
    // Restore nonbasic bound status.  Only columns whose bound is
    // finite *now* may rest at upper — a bound relaxed to +inf since
    // the basis was saved drops its column to the lower bound (the
    // dual-feasibility gate below falls back cold if that breaks
    // optimality conditions).
    std::fill(at_upper_.begin(), at_upper_.end(), 0);
    if (warm.at_upper.size() == n_cols_) {
      for (const std::size_t j : finite_ub_cols_) {
        at_upper_[j] = warm.at_upper[j];
      }
    }
    rebuild_in_basis();
    for (const std::size_t j : basis_) at_upper_[j] = 0;
    return true;
  }

  /// Saves the basis + nonbasic bound flags for a later warm start.
  void save_basis(SimplexBasis* out) const {
    if (out == nullptr) return;
    out->basic = basis_;
    out->at_upper.assign(at_upper_.begin(), at_upper_.end());
  }

  bool refactorize() {
    std::vector<linalg::SparseColumn> bcols(m_);
    for (std::size_t i = 0; i < m_; ++i) bcols[i] = cols_[basis_[i]];
    const double t0 = now_ms();
    const bool ok = factor_.refactorize(m_, bcols);
    if (opt_.stats != nullptr) {
      opt_.stats->refactorizations += 1;
      opt_.stats->refactor_ms += now_ms() - t0;
      opt_.stats->tail_dim = factor_.tail_dim();
      opt_.stats->tail_ms += factor_.tail_ms();
      if (ok) opt_.stats->factor_nonzeros = factor_.factor_nonzeros();
    }
    return ok;
  }

  // Timed triangular-sweep wrappers: every B^{-1}/B^{-T} application in
  // the solver funnels through these two so SimplexStats can report the
  // update-vs-sweep cost split without instrumenting each call site.
  // `entering = true` marks the ftran of a candidate entering column,
  // whose intermediate result the factorization caches as the spike of
  // the upcoming Forrest-Tomlin update.
  void solve_ftran(linalg::Vector& v, bool entering = false) const {
    if (opt_.stats == nullptr) {
      factor_.ftran(v, entering);
      return;
    }
    const double t0 = now_ms();
    factor_.ftran(v, entering);
    opt_.stats->sweep_ms += now_ms() - t0;
  }

  void solve_btran(linalg::Vector& v) const {
    if (opt_.stats == nullptr) {
      factor_.btran(v);
      return;
    }
    const double t0 = now_ms();
    factor_.btran(v);
    opt_.stats->sweep_ms += now_ms() - t0;
  }

  // Sparse-rhs counterparts: the pivot loop's entering-column ftrans and
  // pivot-row btrans carry a handful of nonzeros, so they take the
  // Gilbert–Peierls reachability path (bitwise-identical results,
  // O(touched) cost; dense fallback is handled inside the factorization).
  void solve_ftran(linalg::IndexedVector& v, bool entering = false) const {
#ifdef DPM_VERIFY_SPARSE
    for (std::size_t i = 0; i < m_; ++i) {
      if (v.values[i] != 0.0 && !v.dense() && !v.in_pattern(i)) {
        invariant_failure("FTRAN input pattern", i, 0.0, v.values[i]);
      }
    }
    linalg::Vector dense = v.values;
    factor_.ftran(dense, false);
#endif
    const double t0 = opt_.stats != nullptr ? now_ms() : 0.0;
    factor_.ftran_sparse(v, entering);
    if (opt_.stats != nullptr) opt_.stats->sweep_ms += now_ms() - t0;
#ifdef DPM_VERIFY_SPARSE
    for (std::size_t i = 0; i < m_; ++i) {
      if (std::memcmp(&dense[i], &v.values[i], sizeof(double)) != 0) {
        invariant_failure("FTRAN mismatch", i, dense[i], v.values[i]);
      }
      if (v.values[i] != 0.0 && !v.dense() && !v.in_pattern(i)) {
        invariant_failure("FTRAN pattern miss", i, dense[i], v.values[i]);
      }
    }
#endif
  }

  void solve_btran(linalg::IndexedVector& v) const {
#ifdef DPM_VERIFY_SPARSE
    for (std::size_t i = 0; i < m_; ++i) {
      if (v.values[i] != 0.0 && !v.dense() && !v.in_pattern(i)) {
        invariant_failure("BTRAN input pattern", i, 0.0, v.values[i]);
      }
    }
    linalg::Vector dense = v.values;
    factor_.btran(dense);
#endif
    const double t0 = opt_.stats != nullptr ? now_ms() : 0.0;
    factor_.btran_sparse(v);
    if (opt_.stats != nullptr) opt_.stats->sweep_ms += now_ms() - t0;
#ifdef DPM_VERIFY_SPARSE
    for (std::size_t i = 0; i < m_; ++i) {
      if (std::memcmp(&dense[i], &v.values[i], sizeof(double)) != 0) {
        invariant_failure("BTRAN mismatch", i, dense[i], v.values[i]);
      }
      if (v.values[i] != 0.0 && !v.dense() && !v.in_pattern(i)) {
        invariant_failure("BTRAN pattern miss", i, dense[i], v.values[i]);
      }
    }
#endif
  }

  void recompute_xb() {
    xb_ = rhs_;
    for (const std::size_t j : finite_ub_cols_) {
      if (!at_upper_[j]) continue;
      for (const auto& [r, v] : cols_[j]) xb_[r] -= upper_[j] * v;
    }
    solve_ftran(xb_);
  }

  linalg::Vector duals(const linalg::Vector& cost) const {
    linalg::Vector y(m_);
    for (std::size_t i = 0; i < m_; ++i) y[i] = cost[basis_[i]];
    solve_btran(y);
    return y;
  }

  /// Recomputes the maintained dual vector y_ exactly (one full btran).
  /// Between refreshes the pivot loops update y_ incrementally — one
  /// rounding step of drift per pivot — so a refresh runs at every
  /// refactorization, on phase entry, and before optimality is declared.
  void refresh_y(const linalg::Vector& cost) {
    y_ = duals(cost);
    y_pivots_ = 0;
    y_stale_ = false;
  }

  double column_dot(std::size_t j, const linalg::Vector& y) const {
    double acc = 0.0;
    for (const auto& [r, v] : cols_[j]) acc += v * y[r];
    return acc;
  }

  double primal_infeasibility() const {
    double worst = 0.0;
    for (std::size_t i = 0; i < m_; ++i) {
      worst = std::max(worst, -xb_[i]);
      const double u = upper_[basis_[i]];
      if (std::isfinite(u)) worst = std::max(worst, xb_[i] - u);
    }
    return worst;
  }

  /// True when any artificial column sits in the basis (a redundant
  /// row's placeholder, legitimate only at value zero).  Warm starts
  /// must refuse such bases: a rhs change can push the artificial
  /// positive — which neither the boxed dual simplex (an artificial's
  /// implicit zero cap is not in upper_, so it sees no violation) nor
  /// phase 2 (it only caps artificial growth) can repair — and the
  /// dual phase's infeasibility certificate is only sound when every
  /// basic variable is genuinely sign-constrained.  An artificial-free
  /// basis stays artificial-free: no phase ever lets one enter.
  bool basis_has_artificial() const {
    for (const std::size_t j : basis_) {
      if (is_artificial(j)) return true;
    }
    return false;
  }

  double dual_infeasibility() const {
    const linalg::Vector y = duals(cost2_);
    double worst = 0.0;
    for (std::size_t j = 0; j < first_artificial_; ++j) {
      if (in_basis_[j]) continue;
      const double rc = cost2_[j] - column_dot(j, y);
      // At-lower columns need rc >= 0, at-upper columns rc <= 0.
      worst = std::max(worst, at_upper_[j] ? rc : -rc);
    }
    return worst;
  }

  /// Warm and crash starts: an explicit zero upper bound makes the
  /// boxed dual see a basic artificial at positive value as a bound
  /// violation and drive it out.  uncap restores the implicit-cap
  /// convention the primal phases use; it MUST run before falling back
  /// to the cold path (a finite zero bound would freeze artificials in
  /// the phase-1 ratio test).
  void cap_artificials() {
    for (std::size_t j = first_artificial_; j < n_cols_; ++j) {
      upper_[j] = 0.0;
    }
  }
  void uncap_artificials() {
    for (std::size_t j = first_artificial_; j < n_cols_; ++j) {
      upper_[j] = kInf;
    }
  }

  /// Folds the factorization's cumulative hypersparsity counters into
  /// the per-solve stats sink and the process-wide odometer.  Called
  /// exactly once, when the engine is done (the counters are cumulative
  /// over the factorization's life).
  void flush_sweep_telemetry() const {
    const std::uint64_t s = factor_.sparse_sweeps();
    const std::uint64_t dn = factor_.dense_sweeps();
    const std::uint64_t t = factor_.touched_entries();
    const std::uint64_t bs = factor_.block_sweeps();
    const std::uint64_t be = factor_.block_entries();
    if (opt_.stats != nullptr) {
      opt_.stats->sparse_sweeps += s;
      opt_.stats->dense_sweeps += dn;
      opt_.stats->touched_entries += t;
      opt_.stats->block_sweeps += bs;
      opt_.stats->block_entries += be;
    }
    g_sparse_sweeps.fetch_add(s, std::memory_order_relaxed);
    g_dense_sweeps.fetch_add(dn, std::memory_order_relaxed);
    g_touched_entries.fetch_add(t, std::memory_order_relaxed);
    g_block_sweeps.fetch_add(bs, std::memory_order_relaxed);
    g_block_entries.fetch_add(be, std::memory_order_relaxed);
  }

  struct PhaseResult {
    LpStatus status = LpStatus::kIterationLimit;
    std::size_t iterations = 0;
    const char* note = nullptr;  // failure detail (see LpSolution::note)
  };

  /// Primal simplex minimizing `cost` from the current factorized basis.
  /// `artificial_cap` enforces the zero upper bound on basic artificials
  /// (phase 2); phase 1 lets them move freely down to zero.
  ///
  /// Hypersparse inner loop: the entering column's ftran and the pivot
  /// row's btran ride IndexedVectors through the reachability solves,
  /// and every O(m) scan they used to feed (ratio test, xb update) is
  /// restricted to the result's support.  Duals are maintained
  /// incrementally (y' = y + (rc_q/alpha_r) rho_r) instead of a full
  /// btran per iteration; optimality is only declared after re-pricing
  /// against freshly recomputed duals.
  PhaseResult primal(const linalg::Vector& cost, bool artificial_cap) {
    PhaseResult res;
    std::size_t stall = 0;
    bool bland = false;
    double best_obj = std::numeric_limits<double>::infinity();
    y_stale_ = true;

    while (res.iterations < kMaxIterations) {
      if (robust::deadline_expired()) {
        res.status = LpStatus::kDeadline;
        res.note = "deadline";
        return res;
      }
      if (!factor_.valid()) {  // numerically wedged
        res.status = LpStatus::kNumericalFailure;
        res.note = "singular-refactorization";
        return res;
      }
      if (factor_.needs_refactor()) {
        if (!refactorize()) {
          res.status = LpStatus::kNumericalFailure;
          res.note = "singular-refactorization";
          return res;
        }
        recompute_xb();
        y_stale_ = true;
      }
      if (y_stale_) refresh_y(cost);

      const auto [enter, enter_rc] = price(cost, y_, bland);
      if (enter == kNone) {
        if (y_pivots_ > 0) {
          // The maintained duals have drifted since the last exact
          // btran; never certify optimality off them.
          refresh_y(cost);
          continue;
        }
        res.status = LpStatus::kOptimal;
        return res;
      }
      // sigma: +1 when the entering variable rises off its lower bound,
      // -1 when it falls off its upper bound; basics move by -sigma*t*d.
      const double sigma = at_upper_[enter] ? -1.0 : 1.0;

      // --- sparse ftran + two-sided ratio test over d's support ---
      // Off-support rows have d[i] exactly 0, for which leave_ratio is
      // +inf by definition — skipping them is exact, not approximate.
      linalg::IndexedVector& d = dwork_;
      d.clear();
      for (const auto& [r, v] : cols_[enter]) d.add(r, v);
      solve_ftran(d, /*entering=*/true);

      const auto ratio = [&](std::size_t i) {
        return leave_ratio(i, sigma * d.values[i], artificial_cap);
      };
      double best_ratio = kInf;
      for (const std::size_t i : d.pattern) {
        best_ratio = std::min(best_ratio, ratio(i));
      }
      const double own_bound = upper_[enter];  // flip distance
      if (best_ratio == kInf && own_bound == kInf) {
        res.status = LpStatus::kUnbounded;
        return res;
      }

      if (own_bound <= best_ratio) {
        // Bound flip: the entering variable crosses to its other bound
        // before any basic variable blocks — no basis change, no
        // factorization update.
        for (const std::size_t i : d.pattern) {
          xb_[i] -= sigma * own_bound * d.values[i];
        }
        at_upper_[enter] ^= 1;
        ++res.iterations;
        if (opt_.stats != nullptr) opt_.stats->bound_flips += 1;
      } else {
        const double cut = best_ratio + 1e-9 * (1.0 + std::abs(best_ratio));
        std::size_t leave = kNone;
        double best_pivot = 0.0;
        for (const std::size_t i : d.pattern) {
          if (ratio(i) > cut) continue;
          if (bland) {
            if (leave == kNone || basis_[i] < basis_[leave]) leave = i;
          } else if (std::abs(d.values[i]) > best_pivot) {
            best_pivot = std::abs(d.values[i]);
            leave = i;
          }
        }

        const double theta = std::max(best_ratio, 0.0);
        for (const std::size_t i : d.pattern) {
          xb_[i] -= sigma * theta * d.values[i];
        }
        // Which bound does the leaving variable settle at?
        const std::size_t leaving_col = basis_[leave];
        at_upper_[leaving_col] =
            (sigma * d.values[leave] < 0.0 &&
             std::isfinite(upper_[leaving_col]))
                ? 1
                : 0;
        xb_[leave] = at_upper_[enter] ? upper_[enter] - theta : theta;

        // One sparse btran of the pivot row drives the incremental
        // dual update.
        linalg::IndexedVector& rho = rhowork_;
        rho.clear();
        rho.set(leave, 1.0);
        solve_btran(rho);
        const double theta_d = enter_rc / d.values[leave];
        for (const std::size_t k : rho.pattern) {
          y_[k] += theta_d * rho.values[k];
        }
        ++y_pivots_;
        change_basis(leave, enter, d.values);
        ++res.iterations;
      }

      double obj = 0.0;
      for (std::size_t i = 0; i < m_; ++i) obj += cost[basis_[i]] * xb_[i];
      for (const std::size_t j : finite_ub_cols_) {
        if (at_upper_[j]) obj += cost[j] * upper_[j];
      }
      if (!std::isfinite(obj)) {
        // A NaN/Inf reached the basic values (poisoned sweep, overflow):
        // no pivot can repair it, and comparisons below would silently
        // misbehave.  Surface it as a typed failure instead.
        res.status = LpStatus::kNumericalFailure;
        res.note = "nonfinite-values";
        return res;
      }
      if (obj < best_obj - 1e-12) {
        best_obj = obj;
        stall = 0;
        // Progress means we are off the degenerate plateau: resume
        // aggressive pricing.  Termination is still guaranteed — the
        // objective milestones strictly decrease, and each Bland
        // episode between them terminates on its own.
        bland = false;
      } else if (++stall >= (bland ? kBlandStallAbort : kStallLimit)) {
        if (bland) return res;  // give up: kIterationLimit
        bland = true;
        stall = 0;
        // Anti-cycling wants the sharpest reduced costs available.
        y_stale_ = true;
      }
    }
    return res;
  }

  /// Boxed dual simplex from a dual-feasible basis — the warm-restart
  /// engine after a rhs move or a bound change, and the repair step of
  /// a crash seed that is dual but not primal feasible.  The leaving
  /// basic is chosen by dual steepest edge (violation^2 /
  /// ||B^{-T}e_i||^2, exact Forrest–Goldfarb weight recurrence); the
  /// dual ratio test runs over bounded nonbasics at both bounds; and
  /// candidates whose whole bound range is absorbed before the
  /// violation is covered are bound *flipped* instead of pivoted (the
  /// long-step rule — the dual step passes their reduced-cost
  /// breakpoint, so the flip preserves dual feasibility).  Stops as
  /// soon as the basis is primal feasible; returns kOptimal in that
  /// case (a phase-2 polish confirms optimality).
  ///
  /// Hypersparse inner loop: xb is maintained incrementally (all flips
  /// of an iteration batched into ONE sparse ftran, plus the pivot
  /// step over d's support) instead of a full recompute per iteration;
  /// alpha_j = rho^T a_j is accumulated over rho's support through the
  /// row-wise matrix; duals update incrementally off the same rho.
  /// Feasibility is only declared after re-scanning freshly recomputed
  /// basic values.
  PhaseResult dual() {
    PhaseResult res;
    recompute_xb();
    refresh_y(cost2_);
    dse_w_.assign(m_, 1.0);
    std::size_t xb_pivots = 0;   // incremental-xb steps since last solve
    std::size_t bad_pivots = 0;  // consecutive drifted-pivot resyncs

    while (res.iterations < kMaxDualIterations) {
      if (robust::deadline_expired()) {
        res.status = LpStatus::kDeadline;
        res.note = "deadline";
        return res;
      }
      if (!factor_.valid()) {
        res.status = LpStatus::kNumericalFailure;
        res.note = "singular-refactorization";
        return res;
      }
      if (factor_.needs_refactor()) {
        if (!refactorize()) {
          res.status = LpStatus::kNumericalFailure;
          res.note = "singular-refactorization";
          return res;
        }
        recompute_xb();
        xb_pivots = 0;
        y_stale_ = true;
      }
      if (y_stale_) refresh_y(cost2_);

      // --- leaving row: steepest-edge-scaled worst bound violation ---
      std::size_t leave = kNone;
      double best_score = 0.0;
      double viol = 0.0;
      bool above_upper = false;
      for (std::size_t i = 0; i < m_; ++i) {
        if (!std::isfinite(xb_[i])) {
          res.status = LpStatus::kNumericalFailure;
          res.note = "nonfinite-values";
          return res;
        }
        double v = -xb_[i];
        bool up = false;
        const double u = upper_[basis_[i]];
        if (std::isfinite(u) && xb_[i] - u > v) {
          v = xb_[i] - u;
          up = true;
        }
        if (v <= kFeasTol) continue;
        const double score = v * v / dse_w_[i];
        if (leave == kNone || score > best_score) {
          best_score = score;
          leave = i;
          viol = v;
          above_upper = up;
        }
      }
      if (leave == kNone) {
        if (xb_pivots > 0) {
          // xb drifts one rounding step per incremental update; never
          // certify feasibility off it.
          recompute_xb();
          xb_pivots = 0;
          continue;
        }
        res.status = LpStatus::kOptimal;
        return res;
      }
      // Sign the leaving basic must move: up toward 0, or down toward u.
      const double dir = above_upper ? -1.0 : 1.0;

      linalg::IndexedVector& rho = rhowork_;
      rho.clear();
      rho.set(leave, 1.0);
      solve_btran(rho);
      // A sorted support makes the alpha accumulation order (and hence
      // every downstream tie-break) deterministic.
      std::sort(rho.pattern.begin(), rho.pattern.end());

      // --- boxed dual ratio test, row-wise ---
      // alpha_j = rho^T a_j accumulated over rho's support: only
      // columns intersecting the pivot row are touched, O(nnz of those
      // rows) instead of a dot product per nonbasic column.
      for (const std::size_t i : rho.pattern) {
        const double ri = rho.values[i];
        if (ri == 0.0) continue;
        for (const auto& [j, v] : rows_[i]) {
          if (!alpha_mark_[j]) {
            alpha_mark_[j] = 1;
            alpha_touched_.push_back(j);
            alpha_acc_[j] = 0.0;
          }
          alpha_acc_[j] += ri * v;
        }
      }
      std::sort(alpha_touched_.begin(), alpha_touched_.end());

      // Eligible: nonbasic j whose feasible move (up from lower, down
      // from upper) pushes the leaving basic toward its violated
      // bound.  Ratio = distance of the reduced cost to its sign
      // boundary per unit of row entry.
      struct Cand {
        std::size_t j;
        double ratio;
        double alpha_abs;
        double rc;
      };
      std::vector<Cand> cands;
      cands.reserve(alpha_touched_.size());
      for (const std::size_t j : alpha_touched_) {
        if (in_basis_[j] || upper_[j] <= 0.0) continue;
        const double alpha = alpha_acc_[j];
        if (std::abs(alpha) <= kPivotTol) continue;
        const double e = dir * alpha;
        if (at_upper_[j] ? (e <= 0.0) : (e >= 0.0)) continue;
        const double rc = cost2_[j] - column_dot(j, y_);
        const double dist = at_upper_[j] ? std::max(-rc, 0.0)
                                         : std::max(rc, 0.0);
        cands.push_back({j, dist / std::abs(alpha), std::abs(alpha), rc});
      }
      for (const std::size_t j : alpha_touched_) alpha_mark_[j] = 0;
      alpha_touched_.clear();
      if (cands.empty()) {
        res.status = LpStatus::kInfeasible;
        return res;
      }
      std::sort(cands.begin(), cands.end(),
                [](const Cand& a, const Cand& b) {
                  if (a.ratio != b.ratio) return a.ratio < b.ratio;
                  return a.alpha_abs > b.alpha_abs;
                });

      // --- long step: flip fully absorbed candidates, pivot the rest --
      std::size_t enter = kNone;
      double enter_rc = 0.0;
      double enter_ratio = 0.0;
      double remaining = viol;
      linalg::IndexedVector& flip = flipwork_;
      flip.clear();
      bool any_flip = false;
      for (const Cand& c : cands) {
        const double range = upper_[c.j];
        const bool absorbable =
            std::isfinite(range) && c.alpha_abs * range < remaining;
        if (enter != kNone) {
          // Flip-rich extension: candidates *tied* with the chosen
          // blocker's ratio sit exactly on their reduced-cost sign
          // boundary at the dual step about to be taken, so flipping
          // them preserves dual feasibility — and each flip absorbs
          // more of the violation before the pivot, shrinking the
          // primal step (degenerate ratio-0 ties, the common case on
          // the bound-tightened MDP sweeps, cost nothing at all).
          // The sort makes ties adjacent; past them, stop.
          if (c.ratio > enter_ratio) break;
          if (!absorbable) continue;
        } else if (!absorbable) {
          enter = c.j;
          enter_rc = c.rc;
          enter_ratio = c.ratio;
          continue;
        }
        // Dual bound flip: no basis change.  Batch the basic-value
        // shift u_j * a_j (signed by the flip direction) for one
        // collective ftran below.
        const double s = at_upper_[c.j] ? -1.0 : 1.0;
        at_upper_[c.j] ^= 1;
        remaining -= c.alpha_abs * range;
        for (const auto& [r, v] : cols_[c.j]) flip.add(r, s * range * v);
        any_flip = true;
        if (opt_.stats != nullptr) opt_.stats->bound_flips += 1;
      }
      if (enter == kNone) {
        // Every candidate's whole range was absorbed and violation
        // remains: the dual objective rises along this ray without
        // bound — primal infeasible.
        res.status = LpStatus::kInfeasible;
        return res;
      }
      if (any_flip) {
        solve_ftran(flip);
        for (const std::size_t i : flip.pattern) xb_[i] -= flip.values[i];
      }

      linalg::IndexedVector& d = dwork_;
      d.clear();
      for (const auto& [r, v] : cols_[enter]) d.add(r, v);
      solve_ftran(d, /*entering=*/true);
      const double alpha_r = d.values[leave];
      if (std::abs(alpha_r) <= kPivotTol) {
        // The factorized pivot disagrees with the ratio-test alpha
        // (update drift): resync everything and retry the row; give up
        // if it keeps happening.
        if (++bad_pivots > 3) return res;
        if (!refactorize()) {
          res.status = LpStatus::kNumericalFailure;
          res.note = "singular-refactorization";
          return res;
        }
        recompute_xb();
        xb_pivots = 0;
        y_stale_ = true;
        continue;
      }
      bad_pivots = 0;

      // --- primal step: entering leaves its bound by t >= 0 ---
      const std::size_t leaving_col = basis_[leave];
      const double target = above_upper ? upper_[leaving_col] : 0.0;
      const double sigma_q = at_upper_[enter] ? -1.0 : 1.0;
      double t = (xb_[leave] - target) / (sigma_q * alpha_r);
      if (!(t > 0.0)) t = 0.0;  // degenerate (or drift-negative) step
      for (const std::size_t i : d.pattern) {
        xb_[i] -= sigma_q * t * d.values[i];
      }
      xb_[leave] = at_upper_[enter] ? upper_[enter] - t : t;

      // --- exact dual steepest-edge recurrence (Forrest–Goldfarb) ---
      // w_r is exact (rho in hand); the others need tau = B^{-1} rho.
      double w_r = 0.0;
      for (const std::size_t k : rho.pattern) {
        w_r += rho.values[k] * rho.values[k];
      }
      linalg::IndexedVector& tau = tauwork_;
      tau.clear();
      for (const std::size_t k : rho.pattern) {
        if (rho.values[k] != 0.0) tau.set(k, rho.values[k]);
      }
      solve_ftran(tau);
      const double inv_a = 1.0 / alpha_r;
      for (const std::size_t i : d.pattern) {
        if (i == leave) continue;
        const double kappa = d.values[i] * inv_a;
        if (kappa == 0.0) continue;
        const double w =
            dse_w_[i] - 2.0 * kappa * tau.values[i] + kappa * kappa * w_r;
        dse_w_[i] = std::max(w, 1e-4);
      }
      dse_w_[leave] = std::max(w_r * inv_a * inv_a, 1e-4);

      // --- incremental duals + basis change ---
      const double theta_d = enter_rc * inv_a;
      for (const std::size_t k : rho.pattern) {
        y_[k] += theta_d * rho.values[k];
      }
      ++y_pivots_;
      at_upper_[leaving_col] = above_upper ? 1 : 0;
      change_basis(leave, enter, d.values);
      // y_stale_ flags that change_basis had to refactorize (and with it
      // recompute xb), so the incremental-drift counter restarts.
      xb_pivots = y_stale_ ? 0 : xb_pivots + 1;
      ++res.iterations;
      if (opt_.stats != nullptr) opt_.stats->dual_iterations += 1;
    }
    return res;
  }

  /// Post-phase-1 cleanup: swap basic artificials for structural or
  /// slack columns where a usable pivot exists; redundant rows keep
  /// their artificial basic at zero (phase 2 never lets it grow).
  void drive_out_artificials() {
    for (std::size_t i = 0; i < m_; ++i) {
      if (!factor_.valid()) return;
      if (!is_artificial(basis_[i])) continue;
      linalg::Vector rho(m_, 0.0);
      rho[i] = 1.0;
      solve_btran(rho);
      for (std::size_t j = 0; j < first_artificial_; ++j) {
        if (in_basis_[j]) continue;
        if (std::abs(column_dot(j, rho)) <= kPivotTol) continue;
        linalg::Vector d(m_, 0.0);
        for (const auto& [r, v] : cols_[j]) d[r] = v;
        solve_ftran(d, /*entering=*/true);
        change_basis(i, j, d);
        break;
      }
    }
    if (!factor_.valid()) return;
    recompute_xb();
  }

  double phase1_objective() const {
    double obj = 0.0;
    for (std::size_t i = 0; i < m_; ++i) {
      if (is_artificial(basis_[i])) obj += std::max(xb_[i], 0.0);
    }
    return obj;
  }

  LpSolution extract(const LpProblem& p) const {
    LpSolution sol;
    sol.status = LpStatus::kOptimal;
    sol.x.assign(n_struct_, 0.0);
    for (const std::size_t j : finite_ub_cols_) {
      if (at_upper_[j] && j < n_struct_) sol.x[j] = upper_[j];
    }
    for (std::size_t i = 0; i < m_; ++i) {
      if (basis_[i] < n_struct_) {
        sol.x[basis_[i]] = std::max(xb_[i], 0.0);
      }
    }
    sol.objective = p.objective(sol.x);
    // Shadow prices: y = B^{-T} c_B, computed fresh from the final basis
    // (y_ may serve a different cost vector mid-phase), then mapped back
    // through the row remap.  Absorbed singleton rows report 0 — the
    // presolve postsolve reconstructs those from reduced costs instead.
    sol.duals.assign(p.num_constraints(), 0.0);
    if (m_ > 0) {
      linalg::Vector y(m_, 0.0);
      for (std::size_t i = 0; i < m_; ++i) y[i] = cost2_[basis_[i]];
      factor_.btran(y);
      for (std::size_t i0 = 0; i0 < p.num_constraints(); ++i0) {
        if (row_map_[i0] != kNone) sol.duals[i0] = y[row_map_[i0]];
      }
    }
    return sol;
  }

  const std::vector<std::size_t>& basis() const noexcept { return basis_; }
  std::size_t rows() const noexcept { return m_; }
  const linalg::Vector& phase1_cost() const noexcept { return cost1_; }
  const linalg::Vector& phase2_cost() const noexcept { return cost2_; }

 private:
  /// Folds a singleton (or degenerate) row into the bound set.  Returns
  /// false when the row alone is infeasible against x >= 0; sets `keep`
  /// to 0 when the row is absorbed or redundant.
  bool absorb_row(const Constraint& c, char& keep) {
    // Count structural terms with nonzero coefficients.
    std::size_t nz = 0;
    std::size_t var = 0;
    double coeff = 0.0;
    for (const auto& [j, v] : c.terms) {
      if (v != 0.0) {
        ++nz;
        var = j;
        coeff = v;
      }
    }
    if (nz == 0) {
      // 0 (sense) rhs: decide feasibility outright, to the same
      // tolerance phase 1 would apply to the residual.
      const bool ok = c.sense == Sense::kEq
                          ? std::abs(c.rhs) <= kFeasTol
                          : c.sense == Sense::kLe ? c.rhs >= -kFeasTol
                                                  : c.rhs <= kFeasTol;
      if (!ok) return false;
      keep = 0;
      return true;
    }
    if (nz != 1 || c.sense == Sense::kEq) return true;  // keep as a row
    const double bound = c.rhs / coeff;
    const bool is_upper = (c.sense == Sense::kLe) == (coeff > 0.0);
    if (is_upper) {
      // x_var <= bound: infeasible against x >= 0 when bound < 0
      // (beyond the feasibility tolerance; a within-tolerance negative
      // bound clamps to "fixed at zero").
      if (bound < -kFeasTol) return false;
      upper_struct_[var] = std::min(upper_struct_[var], std::max(bound, 0.0));
      keep = 0;
    } else if (bound <= kFeasTol) {
      keep = 0;  // x_var >= bound <~ 0: implied by nonnegativity
    }
    // Positive lower bounds are not representable; keep the row.
    return true;
  }

  void rebuild_in_basis() {
    in_basis_.assign(n_cols_, 0);
    for (const std::size_t j : basis_) in_basis_[j] = 1;
  }

  /// True when column j may price in: nonbasic, not artificial, and not
  /// fixed at zero by a zero upper bound.
  bool price_eligible(std::size_t j) const {
    return !in_basis_[j] && upper_[j] > 0.0;
  }

  /// Entering-column selection.  Returns {kNone, 0} at optimality.
  /// Bland mode scans everything by index (anti-cycling); otherwise
  /// partial pricing scans rotating sections and returns the most
  /// negative reduced cost of the first section that has a candidate.
  std::pair<std::size_t, double> price(const linalg::Vector& cost,
                                       const linalg::Vector& y, bool bland) {
    const auto reduced_cost = [&](std::size_t j) {
      return cost[j] - column_dot(j, y);
    };
    // Attractive = can improve the objective moving off its bound.
    const auto attractive = [&](std::size_t j, double rc) {
      return at_upper_[j] ? rc > kReducedCostTol : rc < -kReducedCostTol;
    };
    if (bland) {
      for (std::size_t j = 0; j < first_artificial_; ++j) {
        if (!price_eligible(j)) continue;
        const double rc = reduced_cost(j);
        if (attractive(j, rc)) return {j, rc};
      }
      return {kNone, 0.0};
    }
    const std::size_t section =
        opt_.partial_section != 0
            ? opt_.partial_section
            : std::max<std::size_t>(
                  256, 4 * static_cast<std::size_t>(std::sqrt(
                               static_cast<double>(first_artificial_))));

    std::size_t enter = kNone;
    double enter_rc = 0.0;
    double best_score = 0.0;
    std::size_t scanned = 0;
    std::size_t j = price_start_ % first_artificial_;
    while (scanned < first_artificial_) {
      const std::size_t chunk =
          std::min(section, first_artificial_ - scanned);
      for (std::size_t k = 0; k < chunk; ++k) {
        if (price_eligible(j)) {
          const double rc = reduced_cost(j);
          if (attractive(j, rc)) {
            const double score = std::abs(rc);
            if (enter == kNone || score > best_score) {
              best_score = score;
              enter = j;
              enter_rc = rc;
            }
          }
        }
        if (++j == first_artificial_) j = 0;
      }
      scanned += chunk;
      if (enter != kNone) break;
    }
    price_start_ = j;
    return {enter, enter_rc};
  }

  /// Ratio contributed by basic position i when the entering column
  /// moves the basics by -delta_i per unit step; +inf when i cannot
  /// limit the step.  Decreasing basics stop at zero; increasing basics
  /// stop at their upper bound.  Basic artificials outside phase 1 also
  /// block movement *upward* (their upper bound is zero), which keeps
  /// phase 2 from re-entering infeasibility through a redundant row.
  double leave_ratio(std::size_t i, double delta, bool artificial_cap) const {
    if (delta > kPivotTol) {
      return std::max(xb_[i], 0.0) / delta;
    }
    if (delta < -kPivotTol) {
      const std::size_t b = basis_[i];
      if (artificial_cap && is_artificial(b)) {
        return std::max(-xb_[i], 0.0) / -delta;
      }
      if (std::isfinite(upper_[b])) {
        return std::max(upper_[b] - xb_[i], 0.0) / -delta;
      }
    }
    return kInf;
  }

  void change_basis(std::size_t leave, std::size_t enter,
                    const linalg::Vector& d) {
    in_basis_[basis_[leave]] = 0;
    in_basis_[enter] = 1;
    at_upper_[enter] = 0;  // basic variables are never at a bound marker
    basis_[leave] = enter;
    const double t0 = opt_.stats != nullptr ? now_ms() : 0.0;
    const bool updated = factor_.update(leave, d);
    if (opt_.stats != nullptr) {
      opt_.stats->update_ms += now_ms() - t0;
      if (updated) opt_.stats->ft_updates += 1;
    }
    if (!updated) {
      if (refactorize()) {
        recompute_xb();
      }
      // Whatever happened, the maintained duals no longer match the
      // factorization's rounding; a singular refactorization leaves
      // factor_ invalid and the next loop iteration reports it.
      y_stale_ = true;
    }
  }

  RevisedSimplexOptions opt_;
  std::size_t m_ = 0;
  std::size_t n_struct_ = 0;
  std::size_t n_cols_ = 0;
  std::size_t first_artificial_ = 0;
  bool infeasible_by_bounds_ = false;
  std::vector<linalg::SparseColumn> cols_;
  std::vector<std::size_t> slack_of_row_;
  std::vector<std::size_t> row_map_;  // original row -> engine row / kNone
  linalg::Vector rhs_;
  linalg::Vector upper_struct_;  // structural bounds incl. absorbed rows
  linalg::Vector upper_;         // per standard-form column
  std::vector<std::size_t> finite_ub_cols_;
  std::vector<char> at_upper_;
  linalg::Vector cost1_, cost2_;
  std::vector<std::size_t> basis_;
  std::vector<char> in_basis_;
  std::vector<char> crash_seeded_;  // structural columns a crash seeded
  linalg::Vector xb_;
  std::size_t price_start_ = 0;
  // Row-wise mirror of cols_[0..first_artificial_) for the dual ratio
  // test's support-driven alpha accumulation.
  std::vector<linalg::SparseColumn> rows_;
  // Maintained dual vector (see refresh_y) + drift bookkeeping.
  linalg::Vector y_;
  std::size_t y_pivots_ = 0;
  bool y_stale_ = true;
  // Dual steepest-edge weights, one per basis row.
  linalg::Vector dse_w_;
  // Hypersparse pivot-loop scratch: entering column, pivot row, DSE
  // tau, batched flip rhs, and the dual ratio test's alpha scatter.
  linalg::IndexedVector dwork_, rhowork_, tauwork_, flipwork_;
  linalg::Vector alpha_acc_;
  std::vector<char> alpha_mark_;
  std::vector<std::size_t> alpha_touched_;
  linalg::BasisFactorization factor_;
};

LpSolution run_phases(RevisedSimplex& engine, const LpProblem& problem,
                      const RevisedSimplexOptions& opt,
                      const SimplexBasis* warm, SimplexBasis* basis_out) {
  LpSolution sol;
  if (engine.infeasible_by_bounds()) {
    sol.status = LpStatus::kInfeasible;
    return sol;
  }

  // --- warm-started path -------------------------------------------
  // The basis stays dual feasible under rhs moves and bound changes
  // alike (neither touches the costs), so the boxed dual simplex can
  // repair whichever primal infeasibility the perturbation introduced.
  bool warm_done = false;
  if (warm != nullptr && !warm->empty()) {
    // Fault injection: a corrupted warm basis is detected before the
    // install and surfaces as a structured failure — the supervisor's
    // retry rung re-reads the caller's pristine basis and reproduces
    // the fault-free pivot trajectory exactly.  (A structurally
    // incompatible basis below still falls through to the cold path:
    // that is a stale hand-off, not a fault.)
    if (robust::probe(robust::FaultSite::kWarmBasis)) {
      sol.status = LpStatus::kNumericalFailure;
      sol.note = "warm-basis-corrupted";
      return sol;
    }
    const bool installed = engine.install_warm_basis(*warm);
    if (installed && !engine.refactorize()) {
      // A basis that installs but will not factor is numerical trouble,
      // not staleness: surface it instead of silently going cold, so
      // the supervised path can retry deterministically.
      sol.status = LpStatus::kNumericalFailure;
      sol.note = "singular-refactorization";
      return sol;
    }
    if (installed) {
      // The basis may carry artificials basic at zero: a presolve-
      // recovered basis re-enters removed equality rows that way, and
      // drive-out leaves one on each truly redundant row.  Cap them so
      // the boxed dual sees any artificial mass as a zero-bound
      // violation to repair, never as free flow.
      engine.cap_artificials();
      engine.recompute_xb();
      if (engine.dual_infeasibility() <= 1e-6) {
        RevisedSimplex::PhaseResult dres = {LpStatus::kOptimal, 0};
        if (engine.primal_infeasibility() > kFeasTol) {
          dres = engine.dual();
          sol.iterations += dres.iterations;
        }
        if (dres.status == LpStatus::kNumericalFailure ||
            dres.status == LpStatus::kDeadline) {
          sol.status = dres.status;
          sol.note = dres.note;
          return sol;
        }
        if (dres.status == LpStatus::kInfeasible) {
          sol.status = LpStatus::kInfeasible;
          return sol;
        }
        if (dres.status == LpStatus::kOptimal) {
          // Polish / confirm with phase-2 pivots (usually zero).
          const auto r2 = engine.primal(engine.phase2_cost(),
                                        /*artificial_cap=*/true);
          sol.iterations += r2.iterations;
          if (r2.status == LpStatus::kNumericalFailure ||
              r2.status == LpStatus::kDeadline) {
            sol.status = r2.status;
            sol.note = r2.note;
            return sol;
          }
          if (r2.status == LpStatus::kOptimal) {
            const std::size_t iters = sol.iterations;
            sol = engine.extract(problem);
            sol.iterations = iters;
            warm_done = true;
          }
        }
      }
    }
    if (warm_done) {
      engine.save_basis(basis_out);
      return sol;
    }
    // Fall through to a cold solve on any *semantic* warm-start trouble
    // (stale shape, dual infeasibility, pivot-budget trouble); the
    // primal phases need the implicit infinite artificial cap back.
    engine.uncap_artificials();
    sol = LpSolution{};
  }

  // --- crash-started path ------------------------------------------
  // A policy-iteration crash seed: the caller nominates one structural
  // column per original row (the occupation-measure columns of a greedy
  // deterministic policy; slacks complete the rest).  The nominated
  // (I - gamma P_pi)^T sub-basis is nonsingular for any policy and
  // gamma < 1, and its basic values are the policy's occupation measure
  // — nonnegative by construction — so the common outcome is a primal
  // feasible near-optimal vertex that phase 2 polishes in a fraction of
  // the cold pivot count.  A seed that leaves primal infeasibility
  // (greedy policy violating a metric row) is repaired by the boxed
  // dual when the basis prices dual feasible; anything less — singular
  // factorization, neither feasibility — falls back to the ordinary
  // cold start.
  if ((warm == nullptr || warm->empty()) && opt.crash_columns != nullptr) {
    // Fault injection: same site as a warm hand-off (the crash seed IS
    // a warm start the optimizer fabricated).  The supervised retry
    // re-reads the caller's pristine crash columns and reproduces the
    // fault-free trajectory exactly.
    if (robust::probe(robust::FaultSite::kWarmBasis)) {
      sol.status = LpStatus::kNumericalFailure;
      sol.note = "crash-basis-corrupted";
      return sol;
    }
    bool attempted = false;
    RevisedSimplex::PhaseResult pres = {LpStatus::kIterationLimit, 0,
                                        nullptr};
    if (engine.install_crash_basis(*opt.crash_columns) &&
        engine.refactorize()) {
      // A crash seed that will not factor is *expected* occasionally
      // (caller heuristics are allowed to be wrong) — unlike the warm
      // path this silently falls back cold instead of surfacing a
      // numerical failure.
      engine.cap_artificials();
      engine.recompute_xb();
      bool dual_ok = true;
      if (engine.primal_infeasibility() > kFeasTol) {
        dual_ok = engine.dual_infeasibility() <= 1e-6;
        if (dual_ok) {
          attempted = true;
          const auto dres = engine.dual();
          sol.iterations += dres.iterations;
          if (dres.status == LpStatus::kNumericalFailure ||
              dres.status == LpStatus::kDeadline) {
            sol.status = dres.status;
            sol.note = dres.note;
            return sol;
          }
          if (dres.status == LpStatus::kInfeasible) {
            sol.status = LpStatus::kInfeasible;
            return sol;
          }
          dual_ok = dres.status == LpStatus::kOptimal;
        }
      }
      if (dual_ok) {
        attempted = true;
        pres = engine.primal(engine.phase2_cost(), /*artificial_cap=*/true);
        sol.iterations += pres.iterations;
        if (pres.status == LpStatus::kNumericalFailure ||
            pres.status == LpStatus::kDeadline) {
          sol.status = pres.status;
          sol.note = pres.note;
          return sol;
        }
      }
    }
    if (attempted && pres.status == LpStatus::kOptimal) {
      const std::size_t iters = sol.iterations;
      sol = engine.extract(problem);
      sol.iterations = iters;
      if (opt.stats != nullptr) {
        opt.stats->crash_basis_used = true;
        opt.stats->crash_pivots_saved = engine.crash_survivors();
      }
      engine.save_basis(basis_out);
      return sol;
    }
    engine.uncap_artificials();
    sol = LpSolution{};
  }

  // --- cold path ----------------------------------------------------
  const bool need_phase1 = engine.install_cold_basis();
  if (!engine.refactorize()) {
    sol.status = LpStatus::kNumericalFailure;  // cold basis wouldn't factor
    sol.note = "singular-refactorization";
    return sol;
  }
  engine.recompute_xb();

  if (need_phase1) {
    const auto r1 = engine.primal(engine.phase1_cost(),
                                  /*artificial_cap=*/false);
    sol.iterations += r1.iterations;
    if (r1.status != LpStatus::kOptimal) {
      sol.status = r1.status == LpStatus::kUnbounded ? LpStatus::kIterationLimit
                                                     : r1.status;
      sol.note = r1.note;
      return sol;
    }
    if (engine.phase1_objective() > kFeasTol) {
      sol.status = LpStatus::kInfeasible;
      return sol;
    }
    engine.drive_out_artificials();
  }

  const auto r2 = engine.primal(engine.phase2_cost(),
                                /*artificial_cap=*/true);
  sol.iterations += r2.iterations;
  sol.status = r2.status;
  sol.note = r2.note;
  if (r2.status != LpStatus::kOptimal) return sol;

  const std::size_t iters = sol.iterations;
  sol = engine.extract(problem);
  sol.iterations = iters;
  engine.save_basis(basis_out);
  return sol;
}

LpSolution solve_once(const LpProblem& problem,
                      const RevisedSimplexOptions& opt,
                      const SimplexBasis* warm, SimplexBasis* basis_out) {
  RevisedSimplex engine(problem, opt);
  const LpSolution sol = run_phases(engine, problem, opt, warm, basis_out);
  engine.flush_sweep_telemetry();
  return sol;
}

/// Final poison audit: an optimal result carrying non-finite numbers
/// (e.g. a corrupted sweep surviving into extract()'s dual btran, where
/// no pivot-loop guard runs) must never be reported as success.
void audit_finite(LpSolution& sol) {
  if (sol.status != LpStatus::kOptimal) return;
  bool ok = std::isfinite(sol.objective);
  for (const double v : sol.x) ok = ok && std::isfinite(v);
  for (const double v : sol.duals) ok = ok && std::isfinite(v);
  if (!ok) {
    sol.status = LpStatus::kNumericalFailure;
    sol.note = "nonfinite-values";
  }
}

// Process-wide pivot odometer (monotone, never reset): lets tests
// assert that a cached scenario replay executed *zero* simplex work,
// not merely that it produced the same numbers.
std::atomic<std::uint64_t> g_pivots_executed{0};

}  // namespace

std::uint64_t pivots_executed() noexcept {
  return g_pivots_executed.load(std::memory_order_relaxed);
}

SweepTelemetry sweep_telemetry() noexcept {
  SweepTelemetry t;
  t.sparse_sweeps = g_sparse_sweeps.load(std::memory_order_relaxed);
  t.dense_sweeps = g_dense_sweeps.load(std::memory_order_relaxed);
  t.touched_entries = g_touched_entries.load(std::memory_order_relaxed);
  t.block_sweeps = g_block_sweeps.load(std::memory_order_relaxed);
  t.block_entries = g_block_entries.load(std::memory_order_relaxed);
  return t;
}

LpSolution solve_revised_simplex(const LpProblem& problem,
                                 const RevisedSimplexOptions& options,
                                 const SimplexBasis* warm,
                                 SimplexBasis* basis_out) {
  if (problem.num_variables() == 0) {
    throw LpError("revised-simplex: problem has no variables");
  }
  const double t0 = now_ms();
  if (options.stats != nullptr) *options.stats = SimplexStats{};

  // --- structural presolve (cold solves only) ------------------------
  // Warm starts skip it: the caller's basis is laid out over the *full*
  // problem's standard form, and a short dual repair beats re-reducing.
  // Crash seeds skip it for the same reason — the nominated columns
  // index the full problem, and the seed already does presolve's job of
  // shortcutting the solve.
  if (options.presolve && (warm == nullptr || warm->empty()) &&
      options.crash_columns == nullptr) {
    Presolve ps;
    const PresolveStatus pst = ps.reduce(problem, kFeasTol);
    if (pst != PresolveStatus::kUnchanged) {
      LpSolution out;
      if (pst == PresolveStatus::kInfeasible) {
        out.status = LpStatus::kInfeasible;
      } else if (pst == PresolveStatus::kUnbounded) {
        out.status = LpStatus::kUnbounded;
      } else if (pst == PresolveStatus::kEmpty) {
        out = ps.postsolve(LpSolution{}, nullptr, basis_out,
                           options.absorb_singleton_rows);
      } else {
        RevisedSimplexOptions inner = options;
        inner.presolve = false;  // the reduction is already a fixpoint
        SimplexBasis red_basis;
        const LpSolution red =
            solve_revised_simplex(ps.reduced(), inner, nullptr, &red_basis);
        out = ps.postsolve(red, &red_basis, basis_out,
                           options.absorb_singleton_rows);
      }
      if (options.stats != nullptr) {
        options.stats->presolve_rows_removed = ps.rows_removed();
        options.stats->presolve_cols_removed = ps.cols_removed();
        options.stats->solve_ms = now_ms() - t0;
        options.stats->iterations = out.iterations;
      }
      audit_finite(out);
      return out;
    }
  }

  LpSolution sol = solve_once(problem, options, warm, basis_out);
  audit_finite(sol);
  if (options.stats != nullptr) {
    options.stats->solve_ms = now_ms() - t0;
    options.stats->iterations = sol.iterations;
  }
  g_pivots_executed.fetch_add(sol.iterations, std::memory_order_relaxed);
  return sol;
}

}  // namespace dpm::lp
