// Dense-block kernels for the factorization's dense tail.
//
// Simplex bases of well-connected chains (and every expander-style
// model) fill toward the end of the elimination: PR 6's dense-tail
// switch already *eliminates* the trailing block with a contiguous
// kernel, but then re-emitted it into sparse (row, value) pair storage,
// so every triangular sweep walked 16 bytes + a cache miss per entry
// over what is really a dense matrix.  This header keeps that tail as a
// first-class dense block:
//
//  * `DenseBlock` is BasisFactorization's dynamic-U tail — a dim x dim
//    block over the contiguous label range [start, start + dim), stored
//    in *both* column-major and row-major layouts so ftran's column
//    scatters and btran's row scatters are each contiguous.  A
//    Forrest–Tomlin update patches it in place (zero_col / zero_row /
//    set) instead of churning sparse pair lists and their mirrors.
//  * The `tail_*` free functions are SparseLu's L-tail kernels: L never
//    changes between refactorizations, so the lower solves run straight
//    off the retained elimination buffer (column-major, L strictly
//    below the diagonal).
//  * `dense_lu_factor` is SparseLu's elimination of that tail: a
//    blocked, threaded LU that reproduces the unblocked loop's bits.
//
// Bitwise contract: an absent entry is stored as exact 0.0 and every
// kernel skips zeros, so the block applies exactly the term set the
// sparse pair storage would — results are bit-for-bit identical to the
// sparse-storage sweeps (property-tested in test_dense_block.cpp).
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "linalg/matrix.h"

namespace dpm::linalg {

/// Dynamic dense tail of BasisFactorization's U, indexed by label
/// offset: entry (row label start+bi, column label start+bj) lives at
/// cm[bi + bj*dim] and rm[bj + bi*dim].  Invariant: value 0.0 <=>
/// entry absent (exactly the convention of the sparse storage, whose
/// emission drops exact zeros).
class DenseBlock {
 public:
  /// Blocks below this dimension stay in sparse storage: the dense
  /// representation only pays past the point where pair-list walks and
  /// mirror churn dominate (kDenseTailMin-sized tails are borderline;
  /// anything the dense-tail elimination produces qualifies).
  static constexpr std::size_t kMinDim = 96;

  void clear() noexcept {
    start_ = 0;
    dim_ = 0;
    nnz_ = 0;
  }
  /// Re-shapes to a zeroed dim x dim block over labels [start, ..).
  void reset(std::size_t start, std::size_t dim);
  /// Loads the strictly-above-diagonal entries of a retained
  /// elimination buffer (column-major r x r, SparseLu::tail_values()
  /// layout) as a fresh r x r block over labels [start, start + r).
  void load_upper(const double* lu, std::size_t r, std::size_t start);

  bool active() const noexcept { return dim_ > 0; }
  std::size_t start() const noexcept { return start_; }
  std::size_t dim() const noexcept { return dim_; }
  std::size_t end() const noexcept { return start_ + dim_; }
  bool contains(std::size_t label) const noexcept {
    return label >= start_ && label < start_ + dim_;
  }
  /// Stored nonzero entries (maintained by set / zero_col / zero_row —
  /// the accounting BasisFactorization's refactorization trigger reads).
  std::size_t nonzeros() const noexcept { return nnz_; }

  double at(std::size_t bi, std::size_t bj) const noexcept {
    return cm_[bi + bj * dim_];
  }
  /// Writes entry (bi, bj) into both layouts, keeping the nonzero count
  /// exact (the slot may hold an older value).
  void set(std::size_t bi, std::size_t bj, double v) noexcept {
    double& slot = cm_[bi + bj * dim_];
    nnz_ += (v != 0.0) - (slot != 0.0);
    slot = v;
    rm_[bj + bi * dim_] = v;
    if (v != 0.0) {
      if (bi + 1 > col_hi_[bj]) col_hi_[bj] = bi + 1;
      if (bj + 1 > row_hi_[bi]) row_hi_[bi] = bj + 1;
      if (bj < row_lo_[bi]) row_lo_[bi] = bj;
    }
  }
  /// Zeroes column bj (contiguous in cm, strided in rm); returns the
  /// number of nonzeros removed.
  std::size_t zero_col(std::size_t bj) noexcept;
  /// Zeroes row bi (contiguous in rm, strided in cm); returns removed.
  std::size_t zero_row(std::size_t bi) noexcept;

  /// ftran column scatter: z[bi] -= xj * U(bi, bj) over the column's
  /// nonzeros, z addressed at label `start` (caller passes z + start).
  /// Out-of-line: dense_block.cpp is compiled with vector-ISA flags so
  /// the zero-guarded loops if-convert to masked SIMD (bitwise-exact —
  /// absent slots are never operated on).
  void col_axpy_sub(std::size_t bj, double xj, double* z) const noexcept;
  /// Spike-fallback column accumulate: s[bi] += dj * U(bi, bj) over the
  /// column's nonzeros, s addressed at label `start`.
  void col_axpy_add(std::size_t bj, double dj, double* s) const noexcept;
  /// btran row scatter: v[bj] -= tj * U(bi, bj) over the row's
  /// nonzeros, v addressed at label `start`.
  void row_axpy_sub(std::size_t bi, double tj, double* v) const noexcept;
  /// Unguarded row accumulate for the update's eta solve:
  /// acc[bj] -= rj * U(bi, bj) over the row's hinted range with NO
  /// zero test — absent slots subtract an exact zero.  Only safe where
  /// the caller cannot observe the sign of a zero accumulator (the eta
  /// solve skips zero pops sign-insensitively); the sweep kernels must
  /// keep their guards.
  void row_axpy_sub_all(std::size_t bi, double rj, double* acc) const noexcept;
  /// Copies the row's hinted range verbatim into acc (slots outside the
  /// range are untouched; the caller guarantees they are already zero).
  void copy_row(std::size_t bi, double* acc) const noexcept;
  /// Row view (row-major, contiguous) — the update's row-eta solve
  /// walks rows of U to propagate the elimination.
  const double* row(std::size_t bi) const noexcept {
    return rm_.data() + bi * dim_;
  }
  /// One past the last column that can be nonzero in row bi (an upper
  /// bound; slots beyond it are exact zeros).  Bounds row() walks.
  std::size_t row_extent(std::size_t bi) const noexcept { return row_hi_[bi]; }
  /// First column that can be nonzero in row bi (a lower bound; slots
  /// before it are exact zeros).  U rows live right of the diagonal, so
  /// skipping the prefix halves the average row walk.
  std::size_t row_begin(std::size_t bi) const noexcept { return row_lo_[bi]; }

 private:
  std::size_t start_ = 0;
  std::size_t dim_ = 0;
  std::size_t nnz_ = 0;
  // resize() leaves new slots unwritten: load_upper writes every slot
  // itself, and zero-filling r * r doubles first would cost as much as
  // the copy.  Explicit values (assign) are stored as usual.
  struct NoZeroFill : std::allocator<double> {
    template <class U>
    struct rebind {
      using other = NoZeroFill;
    };
    void construct(double*) noexcept {}
    void construct(double* p, double v) noexcept { *p = v; }
  };
  std::vector<double, NoZeroFill> cm_;  // column-major values
  std::vector<double, NoZeroFill> rm_;  // row-major values
  // Nonzero-extent hints: col_hi_[bj] / row_hi_[bi] are one past the
  // last slot that can hold a nonzero in that column / row, and
  // row_lo_[bi] is the first.  Exact after load_upper (triangular:
  // col_hi_[bj] <= bj, row_lo_[bi] > bi), widened by set(), reset by
  // zero_col / zero_row.  Kernels iterate only the hinted range —
  // slots outside it are exact zeros, so skipping them is a pure
  // optimization with no bitwise effect.
  std::vector<std::size_t> col_hi_;
  std::vector<std::size_t> row_hi_;
  std::vector<std::size_t> row_lo_;
};

// --- SparseLu L-tail kernels -----------------------------------------
// `tail` is the retained dense elimination buffer: column-major r x r,
// L multipliers strictly below the diagonal (unit diagonal implicit),
// U on and above (ignored here).  All kernels skip exact zeros — the
// bitwise contract with the sparse-storage sweeps.

/// Forward L-solve over the tail in position space: w[s] is the
/// accumulated rhs for tail slot s on entry; on exit w[s] holds z
/// values (w[s] == z[pos0 + s]).  Returns nothing; zero rhs slots are
/// skipped exactly like the sparse loop.
void tail_lower_solve(const double* tail, std::size_t r, double* w) noexcept;

/// Transposed L-solve over the tail: t (position space, addressed at
/// pos0) is solved in place, descending — the exact gather order of the
/// sparse column storage (entries were emitted ascending).
void tail_lower_transpose_solve(const double* tail, std::size_t r,
                                double* t) noexcept;

/// U back-substitution over the tail for SparseLu's standalone ftran:
/// z (position space, addressed at pos0) already divided?  No — z[s]
/// holds the post-L rhs; diag[s] is U(s, s); on exit z[s] holds the
/// solution for tail slot s.  Scatter form, descending columns.
void tail_upper_solve(const double* tail, std::size_t r, const double* diag,
                      double* z) noexcept;

/// Transposed-U forward solve for SparseLu's standalone btran: gather
/// form per column (static factor, ascending entries), t addressed at
/// pos0, rhs in t on entry, solution on exit.
void tail_upper_transpose_solve(const double* tail, std::size_t r,
                                const double* diag, double* t) noexcept;

// --- SparseLu dense-tail factorization --------------------------------

/// Panel width of dense_lu_factor: the number of elimination steps
/// factored together before one blocked update of the trailing columns.
inline constexpr std::size_t kLuPanel = 64;
/// dense_lu_factor splits a panel's trailing update across threads only
/// when at least this many trailing columns remain; smaller updates run
/// on the calling thread alone.
inline constexpr std::size_t kLuThreadMinCols = 256;

/// In-place LU of the column-major r x r buffer `a` with row partial
/// pivoting (strongest in column, first index on ties).  On return L's
/// multipliers sit strictly below the diagonal (unit diagonal
/// implicit) and U on and above it; rows are swapped physically and
/// `perm[0..r)` receives the same swaps.
///
/// Blocked right-looking form (the LAPACK getrf shape): each kLuPanel-
/// wide panel is factored, its swaps are applied to the columns left
/// and right of it, the unit-lower solve forms its U rows, and the
/// trailing block takes one register-tiled update.  Every entry still
/// receives `c -= u * l` for ascending elimination steps, skipping
/// steps with u == 0 exactly like the unblocked loop, so the result is
/// bit-for-bit the unblocked elimination's.  The update of the columns
/// outside a panel is split into one fixed column range per thread
/// (each entry is written by one thread with the same operation
/// sequence), so the result does not depend on `threads` either.  Up
/// to `threads` threads work on a tail large enough (kLuThreadMinCols);
/// while one call holds its threads, concurrent calls run on their
/// calling thread alone.
///
/// Returns r on success, or the step s at which the strongest
/// remaining entry of column s was <= pivot_tol (numerically
/// singular; `a` and `perm` are then partially eliminated).
std::size_t dense_lu_factor(double* a, std::size_t r, std::size_t* perm,
                            double pivot_tol, unsigned threads);

}  // namespace dpm::linalg
