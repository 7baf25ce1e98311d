// Bitwise agreement property tests for the dense-block tail: with
// set_dense_block_enabled(false) the factorization emits its dense
// tail into sparse pair storage (the pre-block representation) and
// every sweep walks pair lists; with the block enabled the same tail
// lives in contiguous dense storage and the sweeps run the kernels in
// dense_block.cpp.  The two configurations must be *bit-identical* —
// same ftran/btran/ftran_sparse/btran_sparse results, same
// Forrest–Tomlin accept/refuse decisions, same refactorization cadence
// — across long FT update chains.  memcmp, not tolerance: the kernels
// execute the same floating-point operations in the same order, only
// the storage walked differs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>
#include <random>
#include <thread>
#include <utility>
#include <vector>

#include "linalg/dense_block.h"
#include "linalg/indexed_vector.h"
#include "linalg/sparse_lu.h"

namespace dpm::linalg {
namespace {

testing::AssertionResult bitwise_equal(const Vector& a, const Vector& b) {
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::memcmp(&a[i], &b[i], sizeof(double)) != 0) {
      return testing::AssertionFailure()
             << "entry " << i << ": block=" << a[i] << " sparse=" << b[i];
    }
  }
  return testing::AssertionSuccess();
}

// A basis whose trailing block is dense enough to trip the dense-tail
// elimination switch (and therefore the retained DenseBlock).
std::vector<SparseColumn> dense_tail_basis(std::mt19937& rng, std::size_t n,
                                           std::size_t tail) {
  std::uniform_real_distribution<double> uval(-1.0, 1.0);
  std::uniform_int_distribution<std::size_t> urow(0, n - 1);
  std::vector<SparseColumn> cols(n);
  for (std::size_t j = 0; j < n; ++j) {
    cols[j].emplace_back(j, 4.0 + uval(rng));
    const int extra = static_cast<int>(rng() % 4);
    for (int e = 0; e < extra; ++e) cols[j].emplace_back(urow(rng), uval(rng));
  }
  for (std::size_t j = n - tail; j < n; ++j) {
    cols[j].clear();
    cols[j].emplace_back(j, 4.0 + uval(rng));
    for (std::size_t i = n - tail; i < n; ++i)
      if (i != j) cols[j].emplace_back(i, uval(rng));
  }
  return cols;
}

// Drives two factorizations of the same basis — dense block on vs off —
// through identical ftran/btran traffic and a long FT update chain,
// asserting bitwise agreement at every step on all four sweep paths.
TEST(DenseBlock, BitwiseMatchesSparseStorageAcrossFtChains) {
  std::mt19937 rng(4321);
  std::uniform_real_distribution<double> uval(-1.0, 1.0);
  for (int trial = 0; trial < 6; ++trial) {
    // Sizes start above BasisFactorization::kBlockMinBasis — smaller
    // bases never retain a block (see the SizeGate test below).
    const std::size_t n = 400 + trial * 60;
    const std::size_t tail = 150 + trial * 20;
    std::uniform_int_distribution<std::size_t> urow(0, n - 1);
    std::vector<SparseColumn> cols = dense_tail_basis(rng, n, tail);

    BasisFactorization on(64, 1e-11, 1.0);
    BasisFactorization off(64, 1e-11, 1.0);
    on.set_dense_block_enabled(true);
    off.set_dense_block_enabled(false);
    ASSERT_TRUE(on.refactorize(n, cols));
    ASSERT_TRUE(off.refactorize(n, cols));
    ASSERT_GT(on.block_dim(), 0u) << "tail not retained: test is vacuous";
    ASSERT_EQ(off.block_dim(), 0u);

    for (int step = 0; step < 80; ++step) {
      // Dense-path ftran/btran.
      Vector fd_on(n, 0.0), fd_off(n, 0.0);
      IndexedVector fs_on(n), fs_off(n);
      const int k = 1 + static_cast<int>(rng() % 3);
      for (int e = 0; e < k; ++e) {
        const std::size_t r = urow(rng);
        const double v = uval(rng);
        fd_on[r] += v;
        fd_off[r] += v;
        fs_on.add(r, v);
        fs_off.add(r, v);
      }
      on.ftran(fd_on, false);
      off.ftran(fd_off, false);
      ASSERT_TRUE(bitwise_equal(fd_on, fd_off))
          << "ftran trial=" << trial << " step=" << step;
      on.ftran_sparse(fs_on, false);
      off.ftran_sparse(fs_off, false);
      ASSERT_TRUE(bitwise_equal(fs_on.values, fs_off.values))
          << "ftran_sparse trial=" << trial << " step=" << step;

      const std::size_t slot = urow(rng);
      Vector bd_on(n, 0.0), bd_off(n, 0.0);
      bd_on[slot] = bd_off[slot] = 1.0;
      IndexedVector bs_on(n), bs_off(n);
      bs_on.set(slot, 1.0);
      bs_off.set(slot, 1.0);
      on.btran(bd_on);
      off.btran(bd_off);
      ASSERT_TRUE(bitwise_equal(bd_on, bd_off))
          << "btran trial=" << trial << " step=" << step;
      on.btran_sparse(bs_on);
      off.btran_sparse(bs_off);
      ASSERT_TRUE(bitwise_equal(bs_on.values, bs_off.values))
          << "btran_sparse trial=" << trial << " step=" << step;

      // FT update: both must take the same accept/refuse decision and
      // stay on the same refactorization cadence (the nonzero
      // accounting feeding needs_refactor must agree exactly).
      SparseColumn enter;
      enter.emplace_back(urow(rng), 4.0 + uval(rng));
      enter.emplace_back(urow(rng), uval(rng));
      Vector d_on(n, 0.0), d_off(n, 0.0);
      for (const auto& [r, v] : enter) {
        d_on[r] += v;
        d_off[r] += v;
      }
      on.ftran(d_on, /*cache_spike=*/true);
      off.ftran(d_off, /*cache_spike=*/true);
      ASSERT_TRUE(bitwise_equal(d_on, d_off));
      const std::size_t leave = urow(rng);
      const bool ok_on = on.update(leave, d_on);
      const bool ok_off = off.update(leave, d_off);
      ASSERT_EQ(ok_on, ok_off) << "update decision diverged, trial=" << trial
                               << " step=" << step;
      if (ok_on) {
        cols[leave] = enter;
        ASSERT_EQ(on.needs_refactor(), off.needs_refactor())
            << "refactor cadence diverged, trial=" << trial
            << " step=" << step;
        if (on.needs_refactor()) {
          if (!on.refactorize(n, cols)) break;
          ASSERT_TRUE(off.refactorize(n, cols));
        }
      } else {
        if (!on.refactorize(n, cols)) break;
        ASSERT_TRUE(off.refactorize(n, cols));
      }
    }
  }
}

// The retained-tail SparseLu solves (standalone ftran/btran, used by
// scenario evaluation) must match the sparse-emission configuration
// bit for bit as well.
TEST(DenseBlock, RetainedTailLuSolvesBitwiseMatchEmitted) {
  std::mt19937 rng(77);
  std::uniform_real_distribution<double> uval(-1.0, 1.0);
  const std::size_t n = 380, tail = 160;
  std::vector<SparseColumn> cols = dense_tail_basis(rng, n, tail);

  SparseLu keep, emit;
  emit.set_emit_tail_sparse(true);
  ASSERT_TRUE(keep.factorize(n, cols));
  ASSERT_TRUE(emit.factorize(n, cols));
  ASSERT_TRUE(keep.tail_retained());
  ASSERT_FALSE(emit.tail_retained());
  // The retained representation must not change the nonzero accounting
  // (refactorization cadence depends on it).
  ASSERT_EQ(keep.factor_nonzeros(), emit.factor_nonzeros());

  std::uniform_int_distribution<std::size_t> urow(0, n - 1);
  for (int rep = 0; rep < 30; ++rep) {
    Vector b(n, 0.0);
    for (int e = 0; e < 4; ++e) b[urow(rng)] += uval(rng);
    Vector x_keep = b, x_emit = b;
    keep.ftran(x_keep);
    emit.ftran(x_emit);
    ASSERT_TRUE(bitwise_equal(x_keep, x_emit)) << "ftran rep " << rep;
    Vector y_keep = b, y_emit = b;
    keep.btran(y_keep);
    emit.btran(y_emit);
    ASSERT_TRUE(bitwise_equal(y_keep, y_emit)) << "btran rep " << rep;
  }
}

// Size gate: a basis below kBlockMinBasis keeps the sparse tail even
// with the block enabled — tiny instances must not pay the block's
// bookkeeping (the n*na = 500 bench regression this PR fixes).
TEST(DenseBlock, SmallBasesSkipTheBlock) {
  std::mt19937 rng(99);
  const std::size_t n = BasisFactorization::kBlockMinBasis - 60;
  const std::size_t tail = 140;
  std::vector<SparseColumn> cols = dense_tail_basis(rng, n, tail);
  BasisFactorization f(64, 1e-11, 1.0);
  f.set_dense_block_enabled(true);
  ASSERT_TRUE(f.refactorize(n, cols));
  EXPECT_EQ(f.block_dim(), 0u);
  EXPECT_EQ(f.block_sweeps(), 0u);
  Vector x(n, 0.0);
  x[n / 2] = 1.0;
  f.ftran(x, false);
  EXPECT_EQ(f.block_sweeps(), 0u);
}

// DenseBlock bookkeeping unit checks: nnz accounting through
// set/zero_col/zero_row is exact, and the extent hints never exclude a
// nonzero (the kernels iterate only the hinted range).
TEST(DenseBlock, NonzeroAccountingAndHints) {
  DenseBlock blk;
  blk.reset(10, 5);
  EXPECT_TRUE(blk.active());
  EXPECT_EQ(blk.nonzeros(), 0u);
  blk.set(0, 3, 2.0);
  blk.set(1, 3, -1.0);
  blk.set(4, 4, 5.0);
  EXPECT_EQ(blk.nonzeros(), 3u);
  blk.set(0, 3, 0.0);  // overwrite with zero removes
  EXPECT_EQ(blk.nonzeros(), 2u);
  blk.set(1, 3, 7.0);  // overwrite nonzero with nonzero keeps count
  EXPECT_EQ(blk.nonzeros(), 2u);
  EXPECT_EQ(blk.zero_col(3), 1u);
  EXPECT_EQ(blk.nonzeros(), 1u);
  EXPECT_EQ(blk.zero_row(4), 1u);
  EXPECT_EQ(blk.nonzeros(), 0u);

  // Kernels see entries written after a zero_col/zero_row reset.
  blk.set(2, 4, 3.0);
  Vector z(5, 0.0);
  blk.col_axpy_sub(4, 2.0, z.data());
  EXPECT_EQ(z[2], -6.0);
  Vector v(5, 0.0);
  blk.row_axpy_sub(2, 1.0, v.data());
  EXPECT_EQ(v[4], -3.0);
}

// --- dense_lu_factor vs the unblocked elimination -------------------

// The unblocked right-looking elimination dense_lu_factor replaces,
// kept verbatim as the reference: strongest-in-column pivot, full-row
// physical swaps, scaled multipliers, rank-1 update skipping u == 0.
// Returns r, or the step whose pivot was <= pivot_tol.
std::size_t unblocked_lu(Vector& d, std::size_t r, std::vector<std::size_t>& rrow,
                         double pivot_tol) {
  for (std::size_t s = 0; s < r; ++s) {
    double* cs = d.data() + s * r;
    std::size_t pr = s;
    double best = std::abs(cs[s]);
    for (std::size_t i = s + 1; i < r; ++i) {
      const double a = std::abs(cs[i]);
      if (a > best) {
        best = a;
        pr = i;
      }
    }
    if (best <= pivot_tol) return s;  // numerically singular
    if (pr != s) {
      for (std::size_t cj = 0; cj < r; ++cj) {
        std::swap(d[cj * r + s], d[cj * r + pr]);
      }
      std::swap(rrow[s], rrow[pr]);
    }
    const double inv = 1.0 / cs[s];
    for (std::size_t i = s + 1; i < r; ++i) cs[i] *= inv;
    for (std::size_t cj = s + 1; cj < r; ++cj) {
      double* c = d.data() + cj * r;
      const double u = c[s];
      if (u == 0.0) continue;
      for (std::size_t i = s + 1; i < r; ++i) c[i] -= u * cs[i];
    }
  }
  return r;
}

std::vector<std::size_t> identity_perm(std::size_t r) {
  std::vector<std::size_t> p(r);
  std::iota(p.begin(), p.end(), std::size_t{0});
  return p;
}

// An r x r column-major matrix built to stress the bitwise contract:
// values from a small set, so pivot candidates tie in magnitude and
// the elimination cancels to exact zeros (u == 0 skips), and about half
// the entries are zeros of either sign.
Vector tricky_matrix(std::size_t r, std::uint32_t seed) {
  static constexpr double kValues[] = {1.0,  -1.0, 0.5,  -0.5,
                                       2.0,  -2.0, 0.75, -0.25};
  std::mt19937 rng(seed);
  Vector a(r * r);
  for (double& v : a) {
    const std::uint32_t x = rng() % 16;
    v = x < 6 ? 0.0 : x < 8 ? -0.0 : kValues[x - 8];
  }
  return a;
}

// A mostly zero r x r matrix whose factor stays sparse, so most
// register tiles skip most panel steps and mask most of the rest: a
// row-shuffled diagonal of +-4 (the pivot rows move) plus about two
// small entries per column, some of them negative zeros.
Vector sparse_matrix(std::size_t r, std::uint32_t seed) {
  std::mt19937 rng(seed);
  std::vector<std::size_t> rows = identity_perm(r);
  std::shuffle(rows.begin(), rows.end(), rng);
  Vector a(r * r, 0.0);
  for (std::size_t j = 0; j < r; ++j) {
    a[j * r + rows[j]] = rng() % 2 == 0 ? 4.0 : -4.0;
    for (std::size_t i = 0; i < r; ++i) {
      if (i == rows[j] || rng() % r >= 2) continue;
      const std::uint32_t x = rng() % 8;
      a[j * r + i] = x == 0 ? -0.0 : 0.25 * (static_cast<double>(x) - 4.5);
    }
  }
  return a;
}

testing::AssertionResult same_bits(const Vector& a, const Vector& b) {
  if (std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0) {
    return testing::AssertionSuccess();
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::memcmp(&a[i], &b[i], sizeof(double)) != 0) {
      return testing::AssertionFailure()
             << "entry " << i << ": blocked=" << a[i] << " unblocked=" << b[i];
    }
  }
  return testing::AssertionFailure() << "size mismatch";
}

// Sizes on both sides of the panel width (127/128/129) and of the
// threading gate, with partial last panels.  Unoptimized builds (the
// debug and tsan presets) run the elimination 10-50x slower, so there
// the largest size is a 390 block: the smallest shape that still runs
// two threaded panels with partial tiles and a partial last panel.
#ifdef NDEBUG
constexpr std::size_t kLuSizes[] = {96, 127, 128, 129, 517, 1030};
constexpr std::size_t kThreadedSize = 517;
constexpr int kConcurrentRounds = 8;
#else
constexpr std::size_t kLuSizes[] = {96, 127, 128, 129, 390};
constexpr std::size_t kThreadedSize = 390;
constexpr int kConcurrentRounds = 1;
#endif
static_assert(kThreadedSize >= kLuPanel + kLuThreadMinCols + kLuPanel,
              "the threaded size must thread at least two panels");

// 1, 2, 3, 4 and hardware_concurrency() threads, without repeats.
std::vector<unsigned> lu_thread_counts() {
  std::vector<unsigned> counts = {1u, 2u, 3u, 4u};
  const unsigned hw = std::thread::hardware_concurrency();
  if (hw > 4) counts.push_back(hw);
  return counts;
}

// The blocked, threaded kernel reproduces the unblocked loop bit for
// bit: panel-width edges (127/128/129, and tails that leave a partial
// last panel), both sides of the threading gate, every thread count.
TEST(DenseLu, BlockedMatchesUnblockedBitwise) {
  for (const std::size_t r : kLuSizes) {
    for (const bool sparse : {false, true}) {
      const auto seed = static_cast<std::uint32_t>(r);
      const Vector a = sparse ? sparse_matrix(r, seed) : tricky_matrix(r, seed);
      Vector ref = a;
      std::vector<std::size_t> ref_perm = identity_perm(r);
      ASSERT_EQ(unblocked_lu(ref, r, ref_perm, 1e-11), r) << "r=" << r;
      std::size_t zero_u = 0, neg_zero = 0, swaps = 0;
      for (std::size_t j = 0; j < r; ++j) {
        swaps += ref_perm[j] != j;
        for (std::size_t i = 0; i < r; ++i) {
          const double v = ref[j * r + i];
          zero_u += i < j && v == 0.0;
          neg_zero += v == 0.0 && std::signbit(v);
        }
      }
      // The input must exercise the u == 0 skip, signed zeros and row
      // swaps; the sparse family leaves U mostly zero.
      ASSERT_GT(zero_u, sparse ? r * (r - 1) / 4 : r) << "r=" << r;
      ASSERT_GT(neg_zero, 0u) << "r=" << r;
      ASSERT_GT(swaps, 0u) << "r=" << r;
      for (const unsigned threads : lu_thread_counts()) {
        Vector got = a;
        std::vector<std::size_t> perm = identity_perm(r);
        ASSERT_EQ(dense_lu_factor(got.data(), r, perm.data(), 1e-11, threads),
                  r)
            << "r=" << r << " sparse=" << sparse << " threads=" << threads;
        EXPECT_TRUE(same_bits(got, ref))
            << "r=" << r << " sparse=" << sparse << " threads=" << threads;
        EXPECT_EQ(perm, ref_perm)
            << "r=" << r << " sparse=" << sparse << " threads=" << threads;
      }
    }
  }
}

// Several factorizations at once: one holds the thread team and the
// others run on their calling threads, which oversubscribes the CPUs,
// so team members fall behind, stop spinning and block.  Every caller
// must still produce the same bits, whichever of them got the team.
TEST(DenseLu, ConcurrentThreadedFactorizationsMatch) {
  const std::size_t r = kThreadedSize;
  const Vector a = tricky_matrix(r, 99);
  Vector ref = a;
  std::vector<std::size_t> ref_perm = identity_perm(r);
  ASSERT_EQ(unblocked_lu(ref, r, ref_perm, 1e-11), r);
  constexpr int kCallers = 6;
  for (int round = 0; round < kConcurrentRounds; ++round) {
    std::vector<Vector> got(kCallers, a);
    std::vector<std::vector<std::size_t>> perm(kCallers, identity_perm(r));
    std::vector<std::size_t> done(kCallers, 0);
    std::vector<std::thread> callers;
    for (int c = 0; c < kCallers; ++c) {
      callers.emplace_back([&, c] {
        done[c] = dense_lu_factor(got[c].data(), r, perm[c].data(), 1e-11, 4);
      });
    }
    for (std::thread& t : callers) t.join();
    for (int c = 0; c < kCallers; ++c) {
      EXPECT_EQ(done[c], r) << "round " << round << " caller " << c;
      EXPECT_TRUE(same_bits(got[c], ref)) << "round " << round << " caller " << c;
      EXPECT_EQ(perm[c], ref_perm) << "round " << round << " caller " << c;
    }
  }
}

// A numerically singular block fails at the same elimination step on
// both paths, whichever panel the step falls in.
TEST(DenseLu, SingularFailsAtTheSameStep) {
  for (const std::size_t r : {std::size_t{129}, kThreadedSize}) {
    Vector a = tricky_matrix(r, 7);
    // Column r-40 repeats column 30: elimination cancels it exactly.
    const std::size_t dup = r - 40;
    std::copy(a.begin() + 30 * r, a.begin() + 31 * r, a.begin() + dup * r);
    Vector ref = a;
    std::vector<std::size_t> ref_perm = identity_perm(r);
    const std::size_t step = unblocked_lu(ref, r, ref_perm, 1e-11);
    ASSERT_LT(step, r);
    for (const unsigned threads : lu_thread_counts()) {
      Vector got = a;
      std::vector<std::size_t> perm = identity_perm(r);
      EXPECT_EQ(dense_lu_factor(got.data(), r, perm.data(), 1e-11, threads),
                step)
          << "r=" << r << " threads=" << threads;
    }
  }
}

}  // namespace
}  // namespace dpm::linalg
