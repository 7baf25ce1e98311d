// This translation unit is compiled with vector-ISA flags plus
// -ffp-contract=off (see src/CMakeLists rules): the zero-guarded axpy
// loops below if-convert to masked SIMD, while contraction stays off so
// every multiply-subtract rounds exactly like the scalar sparse-storage
// sweeps and the unblocked elimination — the bitwise contracts in
// dense_block.h depend on it.
#include "linalg/dense_block.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstring>
#include <mutex>
#include <optional>
#include <system_error>
#include <thread>
#include <utility>

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

namespace dpm::linalg {

void DenseBlock::reset(std::size_t start, std::size_t dim) {
  start_ = start;
  dim_ = dim;
  nnz_ = 0;
  cm_.assign(dim * dim, 0.0);
  rm_.assign(dim * dim, 0.0);
  col_hi_.assign(dim, 0);
  row_hi_.assign(dim, 0);
  row_lo_.assign(dim, dim);
}

void DenseBlock::load_upper(const double* lu, std::size_t r,
                            std::size_t start) {
  // Every slot of both layouts is written below, so unlike reset() the
  // buffers are resized without a zero fill.
  start_ = start;
  dim_ = r;
  nnz_ = 0;
  cm_.resize(r * r);
  rm_.resize(r * r);
  col_hi_.assign(r, 0);
  row_hi_.assign(r, 0);
  row_lo_.assign(r, r);
  // Column-major copy of the strict upper triangle; exact zeros (either
  // sign) are stored as +0.0, as set() would leave them.
  for (std::size_t bj = 0; bj < r; ++bj) {
    const double* src = lu + bj * r;
    double* dst = cm_.data() + bj * r;
    std::size_t count = 0;
    std::size_t hi = 0;
    for (std::size_t bi = 0; bi < bj; ++bi) {
      const double v = src[bi];
      const bool nonzero = v != 0.0;
      dst[bi] = nonzero ? v : 0.0;
      count += nonzero;
      hi = nonzero ? bi + 1 : hi;
    }
    std::fill(dst + bj, dst + r, 0.0);
    nnz_ += count;
    col_hi_[bj] = hi;
  }
  // Row-major mirror by a cache-blocked transpose; tiles wholly below
  // the diagonal are zeros.
  constexpr std::size_t kTile = 32;
  for (std::size_t i0 = 0; i0 < r; i0 += kTile) {
    const std::size_t i1 = std::min(r, i0 + kTile);
    for (std::size_t bi = i0; bi < i1; ++bi) {
      std::fill(rm_.data() + bi * r, rm_.data() + bi * r + i0, 0.0);
    }
    for (std::size_t j0 = i0; j0 < r; j0 += kTile) {
      const std::size_t j1 = std::min(r, j0 + kTile);
      for (std::size_t bi = i0; bi < i1; ++bi) {
        double* dst = rm_.data() + bi * r;
        for (std::size_t bj = j0; bj < j1; ++bj) dst[bj] = cm_[bi + bj * r];
      }
    }
  }
  // Row extents: first and one past the last nonzero of each row.
  for (std::size_t bi = 0; bi < r; ++bi) {
    const double* row = rm_.data() + bi * r;
    std::size_t bj = bi + 1;
    while (bj < r && row[bj] == 0.0) ++bj;
    if (bj == r) continue;  // empty row: no extent
    row_lo_[bi] = bj;
    std::size_t hi = r;
    while (row[hi - 1] == 0.0) --hi;
    row_hi_[bi] = hi;
  }
}

std::size_t DenseBlock::zero_col(std::size_t bj) noexcept {
  double* c = cm_.data() + bj * dim_;
  double* r = rm_.data() + bj;
  std::size_t removed = 0;
  const std::size_t hi = col_hi_[bj];
  for (std::size_t bi = 0; bi < hi; ++bi) {
    if (c[bi] != 0.0) {
      ++removed;
      c[bi] = 0.0;
      r[bi * dim_] = 0.0;
    }
  }
  nnz_ -= removed;
  col_hi_[bj] = 0;
  return removed;
}

std::size_t DenseBlock::zero_row(std::size_t bi) noexcept {
  double* r = rm_.data() + bi * dim_;
  double* c = cm_.data() + bi;
  std::size_t removed = 0;
  const std::size_t hi = row_hi_[bi];
  for (std::size_t bj = row_lo_[bi]; bj < hi; ++bj) {
    if (r[bj] != 0.0) {
      ++removed;
      r[bj] = 0.0;
      c[bj * dim_] = 0.0;
    }
  }
  nnz_ -= removed;
  row_hi_[bi] = 0;
  row_lo_[bi] = dim_;
  return removed;
}

void DenseBlock::col_axpy_sub(std::size_t bj, double xj,
                              double* z) const noexcept {
  const double* c = cm_.data() + bj * dim_;
  const std::size_t hi = col_hi_[bj];
  for (std::size_t bi = 0; bi < hi; ++bi) {
    const double u = c[bi];
    if (u != 0.0) z[bi] -= xj * u;
  }
}

void DenseBlock::col_axpy_add(std::size_t bj, double dj,
                              double* s) const noexcept {
  const double* c = cm_.data() + bj * dim_;
  const std::size_t hi = col_hi_[bj];
  for (std::size_t bi = 0; bi < hi; ++bi) {
    const double u = c[bi];
    if (u != 0.0) s[bi] += dj * u;
  }
}

void DenseBlock::row_axpy_sub(std::size_t bi, double tj,
                              double* v) const noexcept {
  const double* w = rm_.data() + bi * dim_;
  const std::size_t hi = row_hi_[bi];
  for (std::size_t bj = row_lo_[bi]; bj < hi; ++bj) {
    const double u = w[bj];
    if (u != 0.0) v[bj] -= tj * u;
  }
}

void DenseBlock::row_axpy_sub_all(std::size_t bi, double rj,
                                  double* acc) const noexcept {
  const double* w = rm_.data() + bi * dim_;
  const std::size_t hi = row_hi_[bi];
  for (std::size_t bj = row_lo_[bi]; bj < hi; ++bj) acc[bj] -= rj * w[bj];
}

void DenseBlock::copy_row(std::size_t bi, double* acc) const noexcept {
  const double* w = rm_.data() + bi * dim_;
  const std::size_t hi = row_hi_[bi];
  for (std::size_t bj = row_lo_[bi]; bj < hi; ++bj) acc[bj] = w[bj];
}

void tail_lower_solve(const double* tail, std::size_t r, double* w) noexcept {
  for (std::size_t s = 0; s < r; ++s) {
    const double zs = w[s];
    if (zs == 0.0) continue;
    const double* col = tail + s * r;
    for (std::size_t i = s + 1; i < r; ++i) {
      const double lv = col[i];
      if (lv != 0.0) w[i] -= zs * lv;
    }
  }
}

void tail_lower_transpose_solve(const double* tail, std::size_t r,
                                double* t) noexcept {
  for (std::size_t s = r; s-- > 0;) {
    const double* col = tail + s * r;
    double acc = t[s];
    for (std::size_t i = s + 1; i < r; ++i) {
      const double lv = col[i];
      if (lv != 0.0) acc -= lv * t[i];
    }
    t[s] = acc;
  }
}

void tail_upper_solve(const double* tail, std::size_t r, const double* diag,
                      double* z) noexcept {
  // Divide-then-skip, the exact form of SparseLu::ftran's sparse loop
  // (a zero rhs still records the signed zero the division produces).
  for (std::size_t s = r; s-- > 0;) {
    const double xs = z[s] / diag[s];
    z[s] = xs;
    if (xs == 0.0) continue;
    const double* col = tail + s * r;
    for (std::size_t i = 0; i < s; ++i) {
      const double uv = col[i];
      if (uv != 0.0) z[i] -= xs * uv;
    }
  }
}

void tail_upper_transpose_solve(const double* tail, std::size_t r,
                                const double* diag, double* t) noexcept {
  // Unconditional divide, the exact form of SparseLu::btran's loop.
  for (std::size_t s = 0; s < r; ++s) {
    const double* col = tail + s * r;
    double acc = t[s];
    for (std::size_t i = 0; i < s; ++i) {
      const double uv = col[i];
      if (uv != 0.0) acc -= uv * t[i];
    }
    t[s] = acc / diag[s];
  }
}

namespace {

// Register tile of the trailing update: kMr rows by kNr = kVec columns,
// one vector accumulator per row, sized to the vector register file of
// the target ISA.  GCC vector extensions lower to plain IEEE lane-wise
// multiplies and subtracts (no FMA under -ffp-contract=off), so the
// tile performs exactly the scalar loop's operations.
#if defined(__AVX512F__)
constexpr std::size_t kVec = 8;
constexpr std::size_t kMr = 24;
#elif defined(__AVX__)
constexpr std::size_t kVec = 4;
constexpr std::size_t kMr = 12;
#else
constexpr std::size_t kVec = 2;
constexpr std::size_t kMr = 12;
#endif
constexpr std::size_t kNr = kVec;
static_assert(kMr % kVec == 0, "tiles transpose in kVec x kVec blocks");
using VecD = double __attribute__((vector_size(kVec * sizeof(double))));

/// Rows of packed L per trailing-update row block (a whole number of
/// tiles): ~256 rows x kLuPanel steps is ~128 KiB, resident in L2 while
/// the column tiles stream past it.
constexpr std::size_t kRowBlock = (256 + kMr - 1) / kMr * kMr;

inline VecD load_vec(const double* p) noexcept {
  VecD v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

inline void store_vec(double* p, VecD v) noexcept {
  std::memcpy(p, &v, sizeof v);
}

/// Transposes the kVec x kVec block held in r[0..kVec) in place.
inline void transpose(VecD* r) noexcept {
  VecD t[kVec];
  for (std::size_t i = 0; i < kVec; ++i) {
    for (std::size_t j = 0; j < kVec; ++j) t[i][j] = r[j][i];
  }
  for (std::size_t i = 0; i < kVec; ++i) r[i] = t[i];
}

/// C -= L * U over one kMr x kNr tile and the ascending panel steps
/// `steps[0..n)`: `lp` is the packed L tile (steps of kMr rows), `up`
/// the packed U tile (steps of kNr columns), C column-major with
/// stride ldc.  The tile is held transposed, one row per accumulator,
/// so each step needs one U vector and one zero test for all kNr
/// columns.  Each entry takes its steps in ascending order, and a step
/// whose u is zero leaves it untouched (a masked merge, never a
/// subtracted signed zero), exactly as in the unblocked loop; steps
/// left out of `steps` must have u == 0 in every column.
inline void update_tile(const double* lp, const double* up,
                        const std::uint8_t* steps, std::size_t n, double* c,
                        std::size_t ldc) noexcept {
  VecD acc[kMr];
  for (std::size_t b = 0; b < kMr; b += kVec) {
    for (std::size_t j = 0; j < kNr; ++j) acc[b + j] = load_vec(c + j * ldc + b);
    transpose(acc + b);
  }
  for (std::size_t s = 0; s < n; ++s) {
    const std::size_t t = steps[s];
    const VecD u = load_vec(up + t * kNr);
    const auto keep = u != 0.0;
    const double* l = lp + t * kMr;
    // Fully unrolled: the accumulators must stay in registers.
#pragma GCC unroll 32
    for (std::size_t i = 0; i < kMr; ++i) {
      acc[i] = keep ? acc[i] - l[i] * u : acc[i];
    }
  }
  for (std::size_t b = 0; b < kMr; b += kVec) {
    transpose(acc + b);
    for (std::size_t j = 0; j < kNr; ++j) store_vec(c + j * ldc + b, acc[b + j]);
  }
}

/// Spins for up to kSpinNs on a condition before blocking.  Workers
/// wait well under a millisecond between two panel updates; a thread
/// that blocked there would be woken through the scheduler every
/// panel, and on a virtual machine such a wake-up was measured at
/// several milliseconds.  The spin yields, so a runnable thread sharing
/// the CPU loses little to it.
constexpr std::int64_t kSpinNs = 2'000'000;

template <class Ready>
bool spin_until(Ready ready) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::nanoseconds(kSpinNs);
  for (;;) {
    for (int i = 0; i < 16; ++i) {
      if (ready()) return true;
      std::this_thread::yield();
    }
    if (std::chrono::steady_clock::now() >= deadline) return false;
  }
}

/// CPUs the calling thread may run on, the one it runs on now last.
/// Linux places fresh threads next to their creator and can leave them
/// there: on a virtual machine with idle virtual CPUs, unpinned workers
/// were measured time-slicing on the caller's CPU, each panel waiting
/// milliseconds for them.  Elsewhere: empty (no pinning).
std::vector<int> team_cpus() {
  std::vector<int> cpus;
#if defined(__linux__)
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof set, &set) != 0) return cpus;
  const int here = ::sched_getcpu();
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set) && c != here) cpus.push_back(c);
  }
  if (here >= 0 && CPU_ISSET(here, &set)) cpus.push_back(here);
#endif
  return cpus;
}

/// Held while a factorization owns a thread team.  A factorization that
/// starts meanwhile runs on its calling thread alone, so concurrent
/// callers never start one pinned worker per CPU each.
std::atomic<bool> g_team_claimed{false};

/// The claim on the thread team, taken if free and released on scope
/// exit.
class TeamClaim {
 public:
  TeamClaim() noexcept
      : held_(!g_team_claimed.exchange(true, std::memory_order_acquire)) {}
  ~TeamClaim() {
    if (held_) g_team_claimed.store(false, std::memory_order_release);
  }
  TeamClaim(const TeamClaim&) = delete;
  TeamClaim& operator=(const TeamClaim&) = delete;
  bool held() const noexcept { return held_; }

 private:
  bool held_;
};

/// Fork-join team for the panel updates: `workers` threads started once
/// per factorization, worker w pinned to cpus[w] when given.  A job has
/// one part per thread; the caller always runs part 0 and worker w part
/// w + 1.  Idle workers spin briefly, then block; running a job
/// allocates nothing.
class LuTeam {
 public:
  using Job = void (*)(const void* ctx, unsigned part);

  LuTeam(unsigned workers, const std::vector<int>& cpus) {
    threads_.reserve(workers);
    for (unsigned w = 0; w < workers; ++w) {
      try {
        threads_.emplace_back([this, w] { work(w + 1); });
      } catch (const std::system_error&) {
        break;  // fewer parts: slower, never different
      }
#if defined(__linux__)
      if (w < cpus.size()) {
        cpu_set_t set;
        CPU_ZERO(&set);
        CPU_SET(cpus[w], &set);
        // Best effort: an unpinned worker is slower, never wrong.
        (void)::pthread_setaffinity_np(threads_.back().native_handle(),
                                       sizeof set, &set);
      }
#endif
    }
  }
  ~LuTeam() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stop_.store(true, std::memory_order_release);
    }
    start_.notify_all();
    for (std::thread& t : threads_) t.join();
  }
  LuTeam(const LuTeam&) = delete;
  LuTeam& operator=(const LuTeam&) = delete;

  unsigned parts() const noexcept {
    return static_cast<unsigned>(threads_.size()) + 1;
  }

  /// Runs job(ctx, p) for every part p < parts() and returns when all
  /// have finished.
  void run(Job job, const void* ctx) {
    job_ = job;
    ctx_ = ctx;
    done_.store(0, std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      generation_.fetch_add(1, std::memory_order_release);
    }
    start_.notify_all();
    job(ctx, 0);
    while (done_.load(std::memory_order_acquire) != threads_.size()) {
      std::this_thread::yield();
    }
  }

 private:
  void work(unsigned part) {
    std::uint64_t seen = 0;
    for (;;) {
      const auto posted = [&] {
        return stop_.load(std::memory_order_acquire) ||
               generation_.load(std::memory_order_acquire) != seen;
      };
      if (!spin_until(posted)) {
        std::unique_lock<std::mutex> lock(mutex_);
        start_.wait(lock, posted);
      }
      if (stop_.load(std::memory_order_acquire)) return;
      // run() waits for every part before it posts again, so this is
      // exactly the next generation.
      ++seen;
      job_(ctx_, part);
      done_.fetch_add(1, std::memory_order_release);
    }
  }

  std::mutex mutex_;
  std::condition_variable start_;  // a job was posted, or stop_
  std::atomic<bool> stop_{false};  // set under mutex_
  // Written by run() before it publishes the job's generation.
  Job job_ = nullptr;
  const void* ctx_ = nullptr;
  std::atomic<std::uint64_t> generation_{0};  // bumped under mutex_
  std::atomic<std::size_t> done_{0};          // parts of the job finished
  std::vector<std::thread> threads_;          // last: the workers use the above
};

/// One panel's update of the columns outside it: panel steps
/// [k, k + kb), row swaps ipiv, packed L21 in `lpack`, split into
/// `parts` fixed column ranges.
struct PanelUpdate {
  double* a;
  std::size_t r;
  std::size_t k;
  std::size_t kb;
  const std::size_t* ipiv;
  const double* lpack;
  unsigned parts;
};

/// Applies the panel's row swaps to column `col` (rows k.. of the panel).
inline void swap_rows(const PanelUpdate& u, double* col) noexcept {
  for (std::size_t s = 0; s < u.kb; ++s) {
    const std::size_t p = u.ipiv[s];
    if (p != u.k + s) std::swap(col[u.k + s], col[p]);
  }
}

/// Updates trailing columns [c0, c1) with the panel: its row swaps,
/// the unit-lower solve for the panel's U rows, and the register-tiled
/// update of the rows below the panel.
void update_columns(const PanelUpdate& u, std::size_t c0, std::size_t c1) {
  double* const a = u.a;
  const std::size_t r = u.r;
  const std::size_t k = u.k;
  const std::size_t kb = u.kb;
  const std::size_t k2 = k + kb;  // first row below the panel
  for (std::size_t cj = c0; cj < c1; ++cj) {
    double* col = a + cj * r;
    swap_rows(u, col);
    for (std::size_t t = k; t < k2; ++t) {
      const double ut = col[t];
      if (ut == 0.0) continue;
      const double* lt = a + t * r;
      for (std::size_t i = t + 1; i < k2; ++i) col[i] -= ut * lt[i];
    }
  }

  alignas(64) double up[kLuPanel * kNr];
  alignas(64) double edge[kNr * kMr];
  std::uint8_t steps[kLuPanel];
  static_assert(kLuPanel <= 256, "panel steps are stored as bytes");
  for (std::size_t i0 = k2; i0 < r; i0 += kRowBlock) {
    const std::size_t i1 = std::min(i0 + kRowBlock, r);
    for (std::size_t j0 = c0; j0 < c1; j0 += kNr) {
      const std::size_t nj = std::min(kNr, c1 - j0);
      // Pack the tile's U rows and note the steps with a nonzero u in
      // some column.
      std::size_t nsteps = 0;
      for (std::size_t t = 0; t < kb; ++t) {
        bool any = false;
        for (std::size_t j = 0; j < kNr; ++j) {
          const double v = j < nj ? a[(j0 + j) * r + k + t] : 0.0;
          up[t * kNr + j] = v;
          any = any || v != 0.0;
        }
        if (any) steps[nsteps++] = static_cast<std::uint8_t>(t);
      }
      for (std::size_t it = i0; it < i1; it += kMr) {
        const double* lp = u.lpack + (it - k2) * kb;
        double* c = a + j0 * r + it;
        const std::size_t ni = std::min(kMr, r - it);
        if (ni == kMr && nj == kNr) {
          update_tile(lp, up, steps, nsteps, c, r);
          continue;
        }
        // Edge tile: run the full tile on a zero-padded copy (padded
        // rows multiply packed zeros, padded columns have u == 0 and
        // are skipped) and write back only the real entries.
        for (std::size_t j = 0; j < kNr; ++j) {
          for (std::size_t i = 0; i < kMr; ++i) {
            edge[j * kMr + i] = (i < ni && j < nj) ? c[j * r + i] : 0.0;
          }
        }
        update_tile(lp, up, steps, nsteps, edge, kMr);
        for (std::size_t j = 0; j < nj; ++j) {
          for (std::size_t i = 0; i < ni; ++i) c[j * r + i] = edge[j * kMr + i];
        }
      }
    }
  }
}

/// Part `part` of a panel update: the row swaps on its share of the
/// left columns [0, k), and update_columns on its share of the trailing
/// columns, cut at register-tile boundaries.  The shares depend only on
/// the part count, and no entry's operations depend on either.
void panel_update_part(const void* ctx, unsigned part) {
  const PanelUpdate& u = *static_cast<const PanelUpdate*>(ctx);
  const std::size_t l0 = u.k * part / u.parts;
  const std::size_t l1 = u.k * (part + 1) / u.parts;
  for (std::size_t cj = l0; cj < l1; ++cj) swap_rows(u, u.a + cj * u.r);
  const std::size_t k2 = u.k + u.kb;
  const std::size_t tiles = (u.r - k2 + kNr - 1) / kNr;
  const std::size_t c0 = k2 + tiles * part / u.parts * kNr;
  const std::size_t c1 =
      std::min(u.r, k2 + tiles * (part + 1) / u.parts * kNr);
  update_columns(u, c0, c1);
}

/// Factors panel columns [k, k + kb) over rows [k, r): the unblocked
/// loop's pivot search, swap (panel columns only — the rest are
/// swapped by the panel update), scaling and right-looking update.
/// Returns kb on success or the panel-relative failing step.
std::size_t factor_panel(double* a, std::size_t r, std::size_t k,
                         std::size_t kb, std::size_t* perm, std::size_t* ipiv,
                         double pivot_tol) {
  const std::size_t k2 = k + kb;
  for (std::size_t s = k; s < k2; ++s) {
    double* cs = a + s * r;
    std::size_t pr = s;
    double best = std::abs(cs[s]);
    for (std::size_t i = s + 1; i < r; ++i) {
      const double v = std::abs(cs[i]);
      if (v > best) {
        best = v;
        pr = i;
      }
    }
    if (best <= pivot_tol) return s - k;
    ipiv[s - k] = pr;
    if (pr != s) {
      for (std::size_t cj = k; cj < k2; ++cj) {
        std::swap(a[cj * r + s], a[cj * r + pr]);
      }
      std::swap(perm[s], perm[pr]);
    }
    const double inv = 1.0 / cs[s];
    for (std::size_t i = s + 1; i < r; ++i) cs[i] *= inv;
    for (std::size_t cj = s + 1; cj < k2; ++cj) {
      double* c = a + cj * r;
      const double u = c[s];
      if (u == 0.0) continue;
      for (std::size_t i = s + 1; i < r; ++i) c[i] -= u * cs[i];
    }
  }
  return kb;
}

/// Trailing columns each thread should have at the first panel: caps
/// the team on hosts with many CPUs and small tails.
constexpr std::size_t kLuMinColsPerThread = 64;

/// Packs L21 of panel [k, k + kb) for the trailing update: kMr-row
/// tiles from row k + kb down, each kb steps of kMr contiguous rows,
/// zero-padded past the last row.
void pack_panel(double* dst, const double* a, std::size_t r, std::size_t k,
                std::size_t kb) {
  for (std::size_t it = k + kb; it < r; it += kMr) {
    const std::size_t ni = std::min(kMr, r - it);
    for (std::size_t t = 0; t < kb; ++t) {
      const double* src = a + (k + t) * r + it;
      for (std::size_t i = 0; i < kMr; ++i) {
        dst[t * kMr + i] = i < ni ? src[i] : 0.0;
      }
    }
    dst += kb * kMr;
  }
}

}  // namespace

std::size_t dense_lu_factor(double* a, std::size_t r, std::size_t* perm,
                            double pivot_tol, unsigned threads) {
  std::optional<TeamClaim> claim;
  std::optional<LuTeam> team;
  if (threads > 1 && r >= kLuPanel + kLuThreadMinCols &&
      claim.emplace().held()) {
    // At most one thread per usable CPU: two threads time-slicing one
    // CPU would only slow each other.
    const std::vector<int> cpus = team_cpus();
    if (!cpus.empty()) {
      threads = std::min(threads, static_cast<unsigned>(cpus.size()));
    }
    threads = static_cast<unsigned>(std::min<std::size_t>(
        threads, (r - kLuPanel) / kLuMinColsPerThread));
    if (threads > 1) team.emplace(threads - 1, cpus);
  }
  std::vector<double> lpack((r / kMr + 1) * kMr * kLuPanel);
  std::size_t ipiv[kLuPanel];
  for (std::size_t k = 0; k < r; k += kLuPanel) {
    const std::size_t kb = std::min(kLuPanel, r - k);
    const std::size_t done = factor_panel(a, r, k, kb, perm, ipiv, pivot_tol);
    if (done != kb) return k + done;
    pack_panel(lpack.data(), a, r, k, kb);
    PanelUpdate update{a, r, k, kb, ipiv, lpack.data(), 1};
    if (team && r - (k + kb) >= kLuThreadMinCols) {
      update.parts = team->parts();
      team->run(panel_update_part, &update);
    } else {
      panel_update_part(&update, 0);
    }
  }
  return r;
}

}  // namespace dpm::linalg
