// Sparse LU basis factorization for the revised simplex method.
//
// SparseLu factorizes a square matrix given as sparse columns with a
// right-looking elimination and dynamic Markowitz pivoting: at every
// step the pivot is chosen (among numerically safe candidates) to
// minimize the Markowitz fill bound (r-1)(c-1) over the *current* active
// submatrix, and the outer-product update is applied eagerly so row and
// column counts stay exact.  Flops are proportional to fill, and —
// unlike the earlier left-looking scheme — there is no O(n) scan per
// column, so refactorization cost tracks nnz(L+U), not n^2.
//
// BasisFactorization wraps it with a Forrest–Tomlin factor update: each
// simplex pivot replaces one column of U with the entering column's
// spike, restores triangularity with a cyclic permutation plus one
// sparse row eta, and the factorization is rebuilt from scratch only
// when the update pivot is numerically unsafe, the accumulated update
// fill exceeds the adaptive threshold, or the hard update-count cap is
// reached.  Unlike the product-form eta file it replaces, the transform
// list grows by a (usually tiny) row eta per pivot instead of a full
// B^{-1}a column, so the triangular-sweep cost per iteration stays
// near the fresh-factor cost across long pivot runs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "linalg/dense_block.h"
#include "linalg/indexed_vector.h"
#include "linalg/matrix.h"

namespace dpm::linalg {

/// A sparse column: (row, value) pairs, unique rows.
using SparseColumn = std::vector<std::pair<std::size_t, double>>;

/// Adaptive reachability-probe gate.  A hypersparse solve starts with a
/// DFS probe whose only product, when the factor graph is well
/// connected, is the discovery that the dense sweep is cheaper — a pure
/// tax of up to the edge budget per sweep.  On expander-like bases every
/// probe is doomed, so after `kStrikeLimit` consecutive aborts the gate
/// sends sweeps straight to the dense path, re-arming a probe every
/// `kRetryPeriod` skipped sweeps (and on refactorization, when the
/// factor's structure changes wholesale) so a basis that turns sparse
/// again is noticed within a bounded delay.
struct ProbeGate {
  static constexpr std::size_t kStrikeLimit = 4;
  static constexpr std::size_t kRetryPeriod = 128;
  /// Below this dimension the gate is bypassed entirely (call sites
  /// short-circuit before allowed()): a doomed probe on a tiny basis
  /// costs next to nothing, while a lockout would send the small
  /// case-study models — which are genuinely hypersparse — through
  /// dense sweeps for up to kRetryPeriod iterations after one bad
  /// stretch.  Size-awareness added in PR 8 after the n*na = 500 bench
  /// point showed the lockout machinery costing more than it saved.
  static constexpr std::size_t kMinDim = 256;
  std::size_t strikes = 0;
  std::size_t skipped = 0;
  bool allowed() noexcept {
    if (strikes < kStrikeLimit) return true;
    if (++skipped >= kRetryPeriod) {
      skipped = 0;
      strikes = kStrikeLimit - 1;  // one retry; a failure re-arms the skip
      return true;
    }
    return false;
  }
  void report(bool sparse) noexcept { strikes = sparse ? 0 : strikes + 1; }
  void reset() noexcept {
    strikes = 0;
    skipped = 0;
  }
};

/// P A Q = LU of a square sparse matrix with dynamic Markowitz
/// pivoting: candidate columns are examined sparsest-first (count
/// buckets), and within a column the pivot row is chosen among
/// numerically safe entries (threshold partial pivoting,
/// |pivot| >= 0.1 * max of the column) to minimize (r-1)(c-1) — dense
/// rows (e.g. an LP's metric-constraint row) are deferred to the end
/// instead of spraying fill through every elimination step.
///
/// ftran solves B x = b (b indexed by original row, x indexed by the
/// caller's column); btran solves B^T y = c (c indexed by caller column,
/// y by original row).  This is exactly the index convention the revised
/// simplex needs: ftran maps right-hand sides to basic-variable values,
/// btran maps basic costs to row duals.
class SparseLu {
 public:
  SparseLu() = default;

  /// Factorizes the n x n matrix whose j-th column is `columns[j]`.
  /// Returns false (leaving the object unusable) when no pivot of
  /// magnitude above `pivot_tol` remains — numerically singular.
  bool factorize(std::size_t n, const std::vector<SparseColumn>& columns,
                 double pivot_tol = 1e-11);

  std::size_t order() const noexcept { return n_; }
  bool valid() const noexcept { return valid_; }

  /// Stored entries of L + U including the diagonal (fill metric for
  /// benches and tests; cached at factorization time).
  std::size_t factor_nonzeros() const noexcept { return factor_nnz_; }

  /// Deterministic work estimate of the last factorization: entries
  /// touched by the pivot search and the right-looking updates.  On
  /// low-fill bases it tracks nnz(L+U); on heavy-fill bases it grows
  /// superlinearly, exactly like the wall time — the cost model behind
  /// BasisFactorization's amortized refactorization trigger.
  std::size_t factor_ops() const noexcept { return factor_ops_; }

  /// In place: x (indexed by original row on input) becomes the solution
  /// of B x = input, indexed by the caller's columns.
  void ftran(Vector& x) const;

  /// In place: x (indexed by caller column on input) becomes the
  /// solution of B^T y = input, indexed by original row.
  void btran(Vector& x) const;

  // --- split solves and factor access (Forrest–Tomlin host hooks) ----
  // BasisFactorization owns a *dynamic* copy of U that evolves with
  // each basis change; it only needs the L half (and the permutations)
  // of this object, via the split solves below.

  /// First half of ftran: z <- L^{-1} P x, z indexed by elimination
  /// position.  Clobbers x (it is the scatter workspace).  When
  /// `support` is non-null it receives the positions written nonzero —
  /// the hook that lets BasisFactorization keep its update cost
  /// proportional to the spike's support instead of n.
  void lower_solve(Vector& x, Vector& z,
                   std::vector<std::size_t>* support = nullptr) const;

  /// Second half of btran: solves L^T s = t in place (t indexed by
  /// elimination position), then scatters x[original row] = s[position].
  void lower_transpose_solve(Vector& t, Vector& x) const;

  // --- hypersparse (Gilbert–Peierls) right-hand-side paths ------------
  // Reachability-driven variants of the split solves: a DFS over the
  // factor's nonzero graph from the rhs support finds the exact set of
  // positions the triangular solve can light up, and the replay visits
  // only that set — in the *same index order and loop form* as the
  // dense sweep, so results are bitwise identical.  When the reachable
  // set exceeds kSparseReachCap the call falls back to the dense sweep
  // internally (densifying the vectors) and returns false.

  /// Reachable-set cap as a fraction of n: above it, DFS + sorted
  /// replay costs more than the dense sweep it replaces.  The absolute
  /// floor keeps small bases (the case-study MDPs) on the sparse path
  /// unconditionally, where either sweep is cheap but telemetry and
  /// test coverage want the hypersparse code exercised.
  static constexpr double kSparseReachFraction = 0.3;
  static constexpr std::size_t kSparseReachFloor = 64;
  std::size_t sparse_reach_cap() const noexcept {
    const auto frac =
        static_cast<std::size_t>(kSparseReachFraction * static_cast<double>(n_));
    return frac < kSparseReachFloor ? kSparseReachFloor : frac;
  }

  /// DFS edge budget: successor enumeration is the dominant cost of a
  /// reachability attempt, and on a heavily filled factor a DFS can
  /// enumerate far more edges than the dense sweep it hoped to replace
  /// before its node count ever hits the reach cap.  Bounding the edges
  /// at a fraction of the dense sweep's work (n + factor nonzeros)
  /// turns the worst case into a ~1/6 tax instead of a 2x regression.
  static constexpr std::size_t kSparseEdgeFloor = 4096;
  std::size_t sparse_edge_budget() const noexcept {
    const std::size_t budget = (n_ + factor_nnz_) / 6;
    return budget < kSparseEdgeFloor ? kSparseEdgeFloor : budget;
  }

  /// Sparse lower_solve: z <- L^{-1} P x restricted to the positions
  /// reachable from x's pattern through L's nonzero graph.  Clobbers x
  /// (scatter workspace, pattern-maintained).  z must be clear() on
  /// entry.  Returns false when it fell back to the dense sweep (both
  /// vectors densified).
  bool lower_solve_sparse(IndexedVector& x, IndexedVector& z) const;

  /// Sparse lower_transpose_solve: solves L^T s = t over the positions
  /// reachable from t's pattern through L^T's nonzero graph (the row
  /// adjacency built at factorization), then scatters x[original row] =
  /// s[position].  x must be clear() on entry; t is clobbered.  Returns
  /// false on dense fallback.
  bool lower_transpose_solve_sparse(IndexedVector& t, IndexedVector& x) const;

  /// Moves the U half (columns + diagonal) out of this object — for a
  /// host that maintains its own dynamic U (BasisFactorization).  After
  /// the call only lower_solve / lower_transpose_solve and the
  /// accessors below remain usable; ftran/btran would read the gutted
  /// U and must not be called.  When the dense tail was retained the
  /// moved columns hold only the sparse heads of tail columns; the
  /// above-diagonal tail entries stay in `tail_values()` for the host
  /// to load into its own DenseBlock.
  void take_upper(std::vector<SparseColumn>& u_cols, Vector& u_diag) {
    u_cols = std::move(u_cols_);
    u_diag = std::move(u_diag_);
    u_cols_.clear();
    u_diag_.clear();
  }
  /// Elimination position -> caller column of the pivot chosen there.
  const std::vector<std::size_t>& col_of_position() const noexcept {
    return col_of_position_;
  }

  /// Extent of the dense-tail elimination of the last factorization:
  /// positions [order() - tail_dim(), order()) were eliminated by the
  /// contiguous kernel (0 when the whole factorization stayed sparse).
  std::size_t tail_dim() const noexcept { return tail_dim_; }
  std::size_t tail_start() const noexcept { return n_ - tail_dim_; }
  /// Wall time of the last factorization's dense-tail elimination
  /// (dense_lu_factor), 0 when it had no dense tail.  Telemetry only.
  double tail_ms() const noexcept { return tail_ms_; }

  /// When true (compat/test hook), the dense-tail elimination re-emits
  /// its block into the sparse L/U pair storage as before PR 8, instead
  /// of retaining the contiguous buffer.  Takes effect at the next
  /// factorize().
  void set_emit_tail_sparse(bool emit) noexcept { emit_tail_sparse_ = emit; }

  /// True when the last factorization kept its dense tail in the
  /// contiguous buffer (tail columns' L entries and above-diagonal U
  /// entries live in tail_values(), not in the pair lists).
  bool tail_retained() const noexcept { return tail_retained_; }

  /// The retained elimination buffer: column-major tail_dim() x
  /// tail_dim(), tail slot s <-> elimination position tail_start() + s.
  /// L multipliers strictly below the diagonal, U on and above.
  const Vector& tail_values() const noexcept { return tail_; }

 private:
  // Dense-tail elimination: once the active submatrix of a
  // factorization crosses this density, scatter it into a contiguous
  // column-major block and finish with dense partial-pivoted Gaussian
  // elimination — the sparse update's per-entry scatter overhead loses
  // to contiguous axpy loops long before 15% fill.  The bounds keep
  // tiny tails on the sparse path (switch overhead) and cap the dense
  // buffer (kDenseTailMax^2 doubles).
  static constexpr std::size_t kDenseTailMin = 96;
  static constexpr std::size_t kDenseTailMax = 2048;
  static constexpr std::size_t kDenseTailCheck = 32;
  static constexpr double kDenseTailDensity = 0.15;
  bool dense_tail(std::size_t pos0, std::vector<SparseColumn>& acols,
                  std::vector<char>& col_active,
                  std::vector<SparseColumn>& u_stash, double pivot_tol);

  /// Dense sweep cores shared by the plain solves and the hypersparse
  /// fallbacks (both must run the exact same loop over the exact same
  /// storage for the bitwise contract).
  void lower_solve_core(Vector& x, Vector& z,
                        std::vector<std::size_t>* support) const;
  void lower_transpose_solve_core(Vector& t, Vector& x) const;

  std::size_t n_ = 0;
  bool valid_ = false;
  std::size_t factor_nnz_ = 0;
  std::size_t factor_ops_ = 0;
  std::size_t tail_dim_ = 0;
  std::size_t tail_nnz_ = 0;      // off-diagonal nonzeros of a retained tail
  double tail_ms_ = 0.0;          // dense-tail elimination wall time
  bool emit_tail_sparse_ = false;
  bool tail_retained_ = false;
  Vector tail_;                    // retained elimination buffer (col-major)
  mutable Vector tail_work_;       // lower_solve tail gather workspace
  // L column k: multipliers at *original* row indices (unit diagonal
  // implicit).  U column k: entries U(k', k) at pivot positions k' < k,
  // plus the diagonal.  Positions follow the elimination order;
  // col_of_position_ maps them back to caller column indices.
  std::vector<SparseColumn> l_cols_;
  std::vector<SparseColumn> u_cols_;
  Vector u_diag_;
  std::vector<std::size_t> pivot_row_;     // pivot position -> original row
  std::vector<std::size_t> row_position_;  // original row -> pivot position
  std::vector<std::size_t> col_of_position_;  // position -> caller column
  // Row adjacency of L in position space: l_rows_[m] lists the columns
  // k whose l_cols_[k] holds an entry in pivot row m — the reverse
  // edges the sparse L^T solve's reachability walks.  Built once per
  // factorization (second pass, after the permutation is final).
  std::vector<std::vector<std::size_t>> l_rows_;
  // Reachability-DFS scratch (per-object, like the other mutable
  // workspaces: one thread per factorization object).
  mutable std::vector<char> reach_mark_;
  mutable std::vector<std::size_t> reach_stack_;
  mutable std::vector<std::size_t> reach_edge_;
  mutable std::vector<std::size_t> reach_;
  mutable std::vector<std::size_t> reach_seeds_;
  // Per-direction probe gates (the L and L^T graphs fill differently).
  mutable ProbeGate lower_gate_;
  mutable ProbeGate ltrans_gate_;
};

/// Basis handle for the revised simplex: a Markowitz LU refreshed by
/// Forrest–Tomlin updates between refactorizations.
///
/// Index spaces.  Each pivot of the initial factorization gets a stable
/// *label* (its elimination position).  The dynamic U is stored by
/// label, and a separate order array records the current triangular
/// order — a Forrest–Tomlin update never moves data, it only rewrites
/// the order (the cyclic permutation of the textbook presentation).
/// `slot_of_label_` maps labels back to the caller's basis slots, so
/// ftran/btran keep the exact index convention of SparseLu.
class BasisFactorization {
 public:
  explicit BasisFactorization(std::size_t refactor_interval = 64,
                              double pivot_tol = 1e-11,
                              double work_ratio = 1.0)
      : refactor_interval_(refactor_interval),
        pivot_tol_(pivot_tol),
        work_ratio_(work_ratio) {}

  /// (Re)factorizes from scratch; clears the update transforms.
  /// Returns false on a singular basis.
  bool refactorize(std::size_t n, const std::vector<SparseColumn>& columns);

  /// Dense-block toggle (default on): when enabled, the factorization's
  /// dense tail is kept as a real dense block — ftran/btran route it
  /// through contiguous kernels and update() patches it in place.  When
  /// disabled the tail is re-emitted into sparse pair storage (the
  /// pre-PR 8 path); results are bitwise identical either way, which is
  /// exactly what the property tests assert.  Takes effect at the next
  /// refactorize().
  void set_dense_block_enabled(bool enabled) noexcept {
    use_dense_block_ = enabled;
  }

  /// Smallest basis dimension that gets the dense block even when
  /// enabled: below it the whole factor fits in cache and the block's
  /// bookkeeping (load, FT patch-in-place, extent hints) costs more
  /// than its kernels save, so tiny instances keep the plain sparse
  /// tail (block_sweeps stays 0 — asserted by the bench smoke).
  static constexpr std::size_t kBlockMinBasis = 384;

  /// Dimension of the active dense block (0 when the basis has no dense
  /// tail or the block is disabled).
  std::size_t block_dim() const noexcept { return block_.dim(); }

  /// Forrest–Tomlin basis change: slot `r` is replaced by a column whose
  /// ftran image is `d` (i.e. d = B^{-1} a_entering, as produced by
  /// ftran()).  Replaces one column of U with the entering column's
  /// spike, appends one sparse row eta, and cyclically reorders.
  /// Returns false — leaving the factorization untouched, the caller
  /// must refactorize — when the transformed diagonal is numerically
  /// unsafe or the update-count cap is reached.
  ///
  /// Contract: `d` must come from the most recent `cache_spike` ftran()
  /// on this object (the entering-column solve).  That ftran stashes
  /// its partial result — the spike L^{-1} P a, before the U
  /// back-substitution — so the update costs O(spike + row eta) instead
  /// of a U matvec; when no cached partial is available (no
  /// `cache_spike` ftran since the last update/refactorize) the spike
  /// is recomputed as U d.
  bool update(std::size_t r, const Vector& d);

  /// Number of FT updates applied since the last refactorization.
  std::size_t updates_since_refactor() const noexcept { return etas_.size(); }

  /// Refactorization trigger: the hard update-count cap, or — the
  /// amortized rule — once the *extra sweep work* spent since the last
  /// refactorization exceeds `work_ratio` times the work of that
  /// refactorization.  Every ftran/btran pays `update_fill_` extra
  /// entries (row etas + net U growth) on top of the fresh-factor
  /// sweep; the accumulator integrates that over sweeps, and
  /// SparseLu::factor_ops() prices the rebuild in the same entry-ops
  /// currency.  This balances the two costs by construction — cheap
  /// factorizations (structured, low-fill bases) are refreshed eagerly
  /// to keep sweeps tight, while a heavy-fill rebuild is deferred
  /// until the updates have genuinely cost as much as redoing it —
  /// and, unlike a wall-clock rule, it is bit-deterministic.  The
  /// rebuild work is floored at kMinFactorWork: below that size both
  /// sides are measurement noise and the update-count cap governs.
  /// `work_ratio <= 0` disables the rule (pure fixed interval).
  static constexpr std::size_t kMinFactorWork = 4096;
  bool needs_refactor() const noexcept {
    return etas_.size() >= refactor_interval_ ||
           (work_ratio_ > 0.0 &&
            static_cast<double>(sweep_extra_) >
                work_ratio_ * static_cast<double>(
                                  std::max(lu_.factor_ops(), kMinFactorWork)));
  }
  bool valid() const noexcept { return lu_.valid(); }

  /// nnz(L+U) of the last from-scratch factorization.
  std::size_t factor_nonzeros() const noexcept {
    return lu_.factor_nonzeros();
  }
  /// Dense-tail dimension and elimination wall time of the last
  /// from-scratch factorization (SparseLu::tail_dim / tail_ms).
  std::size_t tail_dim() const noexcept { return lu_.tail_dim(); }
  double tail_ms() const noexcept { return lu_.tail_ms(); }
  /// Current transform size: base L + dynamic U + row etas — the
  /// per-sweep cost metric the adaptive trigger balances.
  std::size_t current_nonzeros() const noexcept {
    return l_nonzeros_ + u_nonzeros_ + n_ + eta_nonzeros_;
  }

  /// DFS edge budget over the dynamic U's graph — same rationale as
  /// SparseLu::sparse_edge_budget(), measured against the dynamic U +
  /// eta file a dense U sweep would scan.
  std::size_t u_edge_budget() const noexcept {
    const std::size_t budget = (n_ + u_nonzeros_ + eta_nonzeros_) / 6;
    return budget < SparseLu::kSparseEdgeFloor ? SparseLu::kSparseEdgeFloor
                                               : budget;
  }

  /// x <- B^{-1} x  (input indexed by original row, output by slot).
  /// Pass `cache_spike = true` when x is the entering column of a
  /// simplex pivot: the intermediate L^{-1} P a (and its support) is
  /// stashed so the following update() gets its spike for free.
  /// Other ftrans leave the cache untouched, so diagnostics between
  /// the entering solve and the update are harmless.
  void ftran(Vector& x, bool cache_spike = false) const;

  /// x <- B^{-T} x  (input indexed by slot, output by original row).
  void btran(Vector& x) const;

  // --- hypersparse sweeps ---------------------------------------------
  // Sparse-rhs ftran/btran: the L (or L^T) half runs the Gilbert–
  // Peierls solve in SparseLu, the row etas are applied in O(eta
  // terms), and the dynamic-U half runs its own reachability DFS over
  // ucols_/urows_ with an order-sorted replay.  Results are bitwise
  // identical to the dense ftran()/btran() on the same factorization
  // state; when any stage's reachable set blows past the density cap
  // the vector is densified and the remaining stages run the dense
  // loops.  The sparse/dense split and total touched entries are
  // recorded for the hypersparsity telemetry.

  /// Sparse x <- B^{-1} x.  x's pattern is the rhs support on entry and
  /// the solution's (superset) support on exit.  `cache_spike` as in
  /// the dense ftran.
  void ftran_sparse(IndexedVector& x, bool cache_spike = false) const;

  /// Sparse x <- B^{-T} x (input pattern indexed by slot, output by
  /// original row).
  void btran_sparse(IndexedVector& x) const;

  // Hypersparsity telemetry, cumulative over the object's life: sweeps
  // that stayed on the sparse path end-to-end, sweeps that fell dense
  // (including every dense ftran()/btran() call), and total entries
  // touched by sparse-path sweeps (dense sweeps count n each).
  std::uint64_t sparse_sweeps() const noexcept { return sparse_sweeps_; }
  std::uint64_t dense_sweeps() const noexcept { return dense_sweeps_; }
  std::uint64_t touched_entries() const noexcept { return touched_entries_; }
  // Dense-block telemetry: dense sweeps that routed their tail through
  // the block kernels, and the block nonzeros those sweeps applied.
  std::uint64_t block_sweeps() const noexcept { return block_sweeps_; }
  std::uint64_t block_entries() const noexcept { return block_entries_; }

 private:
  struct RowEta {
    std::size_t p = 0;     // spiked label (last in order at record time)
    SparseColumn terms;    // (label j, r_j): z[p] -= sum r_j z[j]
  };

  SparseLu lu_;
  std::size_t n_ = 0;
  // Dynamic U by stable label.  Invariant: every entry (row k, col j)
  // satisfies order_of_label_[k] < order_of_label_[j].  When the dense
  // block is active, entries with row *and* column label inside
  // [block_.start(), block_.end()) live in block_ instead of the pair
  // lists — same value set, contiguous storage.
  std::vector<SparseColumn> ucols_;  // (row label, value) off-diagonals
  std::vector<SparseColumn> urows_;  // mirror: (col label, value)
  DenseBlock block_;                 // dense tail of U (label suffix)
  bool use_dense_block_ = true;
  Vector udiag_;
  std::vector<std::size_t> order_of_label_;
  std::vector<std::size_t> label_at_order_;
  std::vector<std::size_t> slot_of_label_;  // label -> caller basis slot
  std::vector<std::size_t> label_of_slot_;  // caller basis slot -> label
  std::vector<RowEta> etas_;
  // Spike cache: ftran's intermediate z (post L-solve and row etas,
  // pre U back-substitution) plus its nonzero support — exactly the
  // spike update() needs for the column the caller is about to pivot
  // in.
  mutable Vector partial_;
  mutable std::vector<std::size_t> partial_support_;
  mutable bool partial_valid_ = false;
  // Reusable solve/update workspaces (allocation-free steady state).
  // acc_ is kept all-zero between updates (the heap-driven row-eta
  // solve re-zeroes every entry it touches).
  mutable Vector work_;
  mutable std::vector<std::size_t> support_;
  Vector acc_;
  std::size_t refactor_interval_;
  double pivot_tol_;
  double work_ratio_;
  std::size_t l_nonzeros_ = 0;    // base L entries (fixed per factorization)
  std::size_t u_nonzeros_ = 0;    // current off-diagonal U entries
  std::size_t u0_nonzeros_ = 0;   // U off-diagonals at the last refactor
  std::size_t eta_nonzeros_ = 0;  // row-eta entries accumulated
  std::size_t update_fill_ = 0;   // eta entries + net U growth per sweep
  mutable std::size_t sweep_extra_ = 0;  // integral of update_fill_ over
                                         // the sweeps since refactor
  // Hypersparse sweep state: the label-space work vector, the DFS
  // scratch for the dynamic-U reachability, and the telemetry counters.
  mutable IndexedVector zvec_;
  mutable std::vector<char> umark_;
  mutable std::vector<std::size_t> ustack_;
  mutable std::vector<std::size_t> uedge_;
  mutable std::vector<std::size_t> ureach_;
  mutable ProbeGate uftran_gate_;
  mutable ProbeGate ubtran_gate_;
  mutable std::uint64_t sparse_sweeps_ = 0;
  mutable std::uint64_t dense_sweeps_ = 0;
  mutable std::uint64_t touched_entries_ = 0;
  mutable std::uint64_t block_sweeps_ = 0;
  mutable std::uint64_t block_entries_ = 0;
};

}  // namespace dpm::linalg
