#include "linalg/sparse_lu.h"

#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <cmath>
#include <functional>
#include <limits>
#include <memory>
#include <queue>
#include <span>
#include <thread>

#include "robust/probe.h"

namespace dpm::linalg {

namespace {

/// Injected-fault spike (robust::FaultSite::kFtranSpike /
/// kBtranSpike): models a detected non-finite solve result.  Thrown
/// (not silently poisoned) because a NaN that lands in a heuristic
/// vector — dual steepest-edge weights and taus — would steer the pivot trajectory
/// without ever failing a correctness check; the typed error makes the
/// corruption a structured, recoverable failure at the point of
/// detection.  Only ever runs when an armed fault plan fires.
[[noreturn]] void injected_spike(const char* op) {
  throw LinalgError(std::string("basis-factorization: injected nonfinite ") +
                    op + " spike");
}

constexpr std::size_t kNoPosition = std::numeric_limits<std::size_t>::max();

/// Threads for the dense-tail elimination: every hardware thread (the
/// kernel itself keeps small tails on the calling thread).
unsigned lu_threads() {
  static const unsigned n = std::max(1u, std::thread::hardware_concurrency());
  return n;
}

/// Threshold partial pivoting factor: entries within 1/10 of the
/// column's largest magnitude are numerically acceptable pivots.
constexpr double kPivotThreshold = 0.1;

/// How many numerically acceptable candidate columns the Markowitz
/// search examines before settling (Suhl-style bounded search; the
/// classic compromise between fill quality and search cost).
constexpr std::size_t kMarkowitzCandidates = 8;

/// Forrest–Tomlin update acceptance: the transformed diagonal must
/// clear an absolute floor (mirroring the eta-file's old pivot check)
/// and a relative floor against the spike magnitude, else the update
/// would amplify roundoff and the caller refactorizes instead.
constexpr double kUpdateAbsTol = 1e-9;
constexpr double kUpdateRelTol = 1e-10;

/// Spike / row-eta entries below this fraction of the spike's largest
/// magnitude are dropped — near-cancellation junk that would only bloat
/// the update fill (periodic refactorization bounds the drift).
constexpr double kDropTol = 1e-13;

/// Many short lists over a few large blocks.  List i owns a slot of
/// `cap` entries (a power of two) and uses its first `size`.  A push into
/// a full slot moves the list to a slot of twice the room (grown in
/// place when it ends where the newest block's free space begins), and
/// the old slot — like the slot of a dropped list — goes onto a free
/// chain of its size; a request is served from the smallest free slot
/// large enough, split down to size, before block space is used.  Free
/// slots the requests never fit pile up, so once they add up to a block
/// the arena is compacted (every list slid down over the holes, in
/// address order) before another block is allocated.  Append order,
/// swap-pop and drop behave exactly like one std::vector per list (drop
/// = clear for good), so every walk over a list sees the same sequence;
/// but n lists cost a handful of allocations instead of n.  A push can
/// move any list: pointers into the arena are stale after a push.
///
/// Blocks are raw storage (an entry is constructed when it is written)
/// of at most a megabyte or so after the first, allocated from the heap
/// like the per-list vectors they replace: they reuse the pages earlier
/// solves freed there, and the holes they leave when released are no
/// larger than the blocks.
template <class T>
class FlatLists {
 public:
  /// `lists` empty lists; the first block will hold `reserve` entries.
  void reset(std::size_t lists, std::size_t reserve) {
    release();
    slots_.assign(lists, Slot{});
    next_block_ = std::max<std::size_t>(reserve, 64);
  }
  /// Frees every block and the list table.
  void release() {
    for (const Block& b : blocks_) {
      std::allocator<T>().deallocate(b.data, b.cap);
    }
    std::vector<Block>().swap(blocks_);
    std::vector<Slot>().swap(slots_);
    std::vector<std::size_t>().swap(order_);
    bump_ = 0;
    cursor_ = limit_ = nullptr;
    clear_free();
  }
  ~FlatLists() { release(); }

  /// Gives empty list i room for at least `cap` entries.
  void make_room(std::size_t i, std::size_t cap) {
    const std::size_t room = std::bit_ceil(std::max<std::size_t>(cap, 4));
    T* p = take(room);
    slots_[i] = Slot{p, 0, room};
  }

  std::size_t size(std::size_t i) const { return slots_[i].size; }
  std::span<const T> operator[](std::size_t i) const {
    return {slots_[i].data, slots_[i].size};
  }
  T& at(std::size_t i, std::size_t k) { return slots_[i].data[k]; }

  void push_back(std::size_t i, const T& v) {
    Slot& s = slots_[i];
    if (s.size == s.cap) {
      if (s.data + s.cap == cursor_ &&
          static_cast<std::size_t>(limit_ - cursor_) >= s.cap &&
          s.cap != 0) {
        cursor_ += s.cap;
      } else {
        // take() may compact, which moves this list too: read s after.
        T* moved = take(s.cap == 0 ? 4 : 2 * s.cap);
        std::uninitialized_copy_n(s.data, s.size, moved);
        if (s.cap != 0) give(s.data, s.cap);
        s.data = moved;
      }
      s.cap = s.cap == 0 ? 4 : 2 * s.cap;
    }
    std::construct_at(s.data + s.size++, v);
  }
  /// The vector idiom `list[k] = list.back(); list.pop_back();`.
  void swap_pop(std::size_t i, std::size_t k) {
    Slot& s = slots_[i];
    s.data[k] = s.data[--s.size];
  }
  /// Empties list i for good: its slot goes back to the free chains.
  void drop(std::size_t i) {
    Slot& s = slots_[i];
    if (s.cap != 0) give(s.data, s.cap);
    s = Slot{};
  }

 private:
  /// Blocks after the first grow geometrically up to this many entries.
  static constexpr std::size_t kMaxBlock = std::size_t{1} << 16;
  struct Slot {
    T* data = nullptr;
    std::size_t size = 0;
    std::size_t cap = 0;
  };
  struct Block {
    T* data;
    std::size_t cap;
  };

  /// A slot of `cap` (a power of two) entries: the smallest free slot
  /// that is large enough, split down to `cap` (the unused halves go on
  /// the free chains), else block space.
  T* take(std::size_t cap) {
    const int k = std::countr_zero(cap);
    const std::uint64_t larger = free_mask_ >> k;
    if (larger != 0) {
      int c = k + std::countr_zero(larger);
      T* p = pop(c);
      while (c > k) {
        --c;
        give(p + (std::size_t{1} << c), std::size_t{1} << c);
      }
      return p;
    }
    if (static_cast<std::size_t>(limit_ - cursor_) < cap) {
      if (free_entries_ >= next_block_) compact();
      while (static_cast<std::size_t>(limit_ - cursor_) < cap) next_block(cap);
    }
    T* p = cursor_;
    cursor_ += cap;
    return p;
  }
  /// Moves the bump space to the next block — a spare one left over by
  /// compaction, else a new one with room for at least `cap` — and puts
  /// what is left of the current one on the free chains.
  void next_block(std::size_t cap) {
    while (limit_ - cursor_ >= 4) {
      const std::size_t piece =
          std::bit_floor(static_cast<std::size_t>(limit_ - cursor_));
      give(cursor_, piece);
      cursor_ += piece;
    }
    if (!blocks_.empty() && bump_ + 1 < blocks_.size()) {
      ++bump_;
    } else {
      const std::size_t size = std::max(next_block_, cap);
      blocks_.push_back({std::allocator<T>().allocate(size), size});
      bump_ = blocks_.size() - 1;
      std::size_t total = 0;
      for (const Block& b : blocks_) total += b.cap;
      next_block_ = std::min(total, kMaxBlock);
    }
    cursor_ = blocks_[bump_].data;
    limit_ = cursor_ + blocks_[bump_].cap;
  }
  /// Slides every list, in address order, down over the free slots; the
  /// bump space restarts right after the last list, and blocks past it
  /// are spares for next_block().
  void compact() {
    order_.clear();
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      if (slots_[i].cap != 0) order_.push_back(i);
    }
    std::sort(order_.begin(), order_.end(), [&](std::size_t a, std::size_t b) {
      return std::less<T*>()(slots_[a].data, slots_[b].data);
    });
    std::sort(blocks_.begin(), blocks_.end(),
              [](const Block& a, const Block& b) {
                return std::less<T*>()(a.data, b.data);
              });
    std::size_t bi = 0;
    T* w = blocks_[0].data;
    for (const std::size_t i : order_) {
      Slot& s = slots_[i];
      while (static_cast<std::size_t>(blocks_[bi].data + blocks_[bi].cap - w) <
             s.cap) {
        w = blocks_[++bi].data;
      }
      // w <= s.data, so a forward copy never reads an overwritten entry.
      if (s.data != w) {
        for (std::size_t k = 0; k < s.size; ++k) {
          std::construct_at(w + k, s.data[k]);
        }
        s.data = w;
      }
      w += s.cap;
    }
    clear_free();
    bump_ = bi;
    cursor_ = w;
    limit_ = blocks_[bi].data + blocks_[bi].cap;
  }
  void give(T* p, std::size_t cap) {
    const int c = std::countr_zero(cap);
    set_next(p, free_[c]);
    free_[c] = p;
    free_mask_ |= std::uint64_t{1} << c;
    free_entries_ += cap;
  }
  T* pop(int c) {
    T* p = free_[c];
    free_[c] = next(p);
    if (free_[c] == nullptr) free_mask_ &= ~(std::uint64_t{1} << c);
    free_entries_ -= std::size_t{1} << c;
    return p;
  }
  void clear_free() {
    free_.fill(nullptr);
    free_mask_ = 0;
    free_entries_ = 0;
  }
  // A free slot's first entry holds the next free slot of its size.
  static void set_next(std::size_t* p, std::size_t* next) {
    std::construct_at(p, reinterpret_cast<std::uintptr_t>(next));
  }
  static std::size_t* next(const std::size_t* p) {
    return reinterpret_cast<std::size_t*>(*p);
  }
  static void set_next(std::pair<std::size_t, double>* p,
                       std::pair<std::size_t, double>* next) {
    std::construct_at(p, reinterpret_cast<std::uintptr_t>(next), 0.0);
  }
  static std::pair<std::size_t, double>* next(
      const std::pair<std::size_t, double>* p) {
    return reinterpret_cast<std::pair<std::size_t, double>*>(p->first);
  }

  std::vector<Slot> slots_;
  std::vector<Block> blocks_;
  std::size_t bump_ = 0;  // the block holding the bump space
  T* cursor_ = nullptr;   // bump space: [cursor_, limit_)
  T* limit_ = nullptr;
  std::size_t next_block_ = 0;
  std::vector<std::size_t> order_;  // compaction scratch
  // Free slots of capacity 2^c chained from free_[c]; bit c of
  // free_mask_ is set when that chain is non-empty.
  std::array<T*, 64> free_{};
  std::uint64_t free_mask_ = 0;
  std::size_t free_entries_ = 0;
};

}  // namespace

// The active-submatrix working set of one factorize() call: column-wise
// values (authoritative) + row-wise patterns (may hold stale column ids,
// filtered on use) + exact row/column counts, the lazy column-count
// buckets, and the U(k', k) entries each still-active column collects
// until it is pivoted (U column k is then u_stash list
// col_of_position_[k]).
struct SparseLu::Elimination {
  FlatLists<Entry> acols;
  FlatLists<std::size_t> row_cols;
  FlatLists<std::size_t> buckets;
  FlatLists<Entry> u_stash;
  std::vector<std::size_t> row_count, col_count;
  std::vector<char> col_active;
  // Dense scatter workspace for merging duplicates and applying
  // updates: pos_in_col[r] = 1 + index of row r inside the column being
  // touched.
  std::vector<std::size_t> pos_in_col;
};

bool SparseLu::factorize(std::size_t n, ColumnSet columns, double pivot_tol) {
  if (columns.size() != n) {
    throw LinalgError("sparse-lu: column count does not match order");
  }
  n_ = n;
  valid_ = false;
  // Fault injection: report this basis as singular, exactly like a
  // structurally deficient matrix below.
  if (robust::probe(robust::FaultSite::kLuFactorize)) return false;
  factor_nnz_ = 0;
  factor_ops_ = 0;
  tail_dim_ = 0;
  tail_nnz_ = 0;
  tail_ms_ = 0.0;
  tail_retained_ = false;
  lower_gate_.reset();
  ltrans_gate_.reset();
  l_start_.assign(n + 1, 0);
  l_entries_.clear();
  u_diag_.assign(n, 0.0);
  pivot_row_.assign(n, 0);
  row_position_.assign(n, kNoPosition);
  col_of_position_.assign(n, 0);

  std::size_t input_nnz = 0;
  for (std::size_t j = 0; j < n; ++j) input_nnz += columns[j].size();
  l_entries_.reserve(input_nnz);
  Elimination work;
  FlatLists<Entry>& acols = work.acols;
  FlatLists<std::size_t>& row_cols = work.row_cols;
  FlatLists<std::size_t>& buckets = work.buckets;
  FlatLists<Entry>& u_stash = work.u_stash;
  std::vector<std::size_t>& row_count = work.row_count;
  std::vector<std::size_t>& col_count = work.col_count;
  std::vector<char>& col_active = work.col_active;
  std::vector<std::size_t>& pos_in_col = work.pos_in_col;
  // First blocks: room for the input plus as much fill again (and for
  // the re-pushes of updated columns in the buckets).
  acols.reset(n, 2 * input_nnz);
  row_cols.reset(n, 2 * input_nnz);
  buckets.reset(n + 1, 2 * n);
  u_stash.reset(n, input_nnz);
  row_count.assign(n, 0);
  col_count.assign(n, 0);
  col_active.assign(n, 1);
  pos_in_col.assign(n, 0);

  for (std::size_t j = 0; j < n; ++j) {
    acols.make_room(j, columns[j].size());
    for (const auto& [r, v] : columns[j]) {
      if (r >= n) throw LinalgError("sparse-lu: row index out of range");
      if (v == 0.0) continue;
      if (pos_in_col[r] == 0) {
        acols.push_back(j, {r, v});
        pos_in_col[r] = acols.size(j);
      } else {
        acols.at(j, pos_in_col[r] - 1).second += v;
      }
    }
    for (const auto& [r, v] : acols[j]) pos_in_col[r] = 0;
    col_count[j] = acols.size(j);
    for (std::size_t k = 0; k < acols.size(j); ++k) {
      const std::size_t r = acols.at(j, k).first;
      ++row_count[r];
      row_cols.push_back(r, j);
    }
  }

  // Column-count buckets (lazy: a column is re-pushed whenever its count
  // changes; stale entries are filtered when popped).
  for (std::size_t j = 0; j < n; ++j) buckets.push_back(col_count[j], j);

  for (std::size_t pos = 0; pos < n; ++pos) {
    // --- dense-tail switch --------------------------------------------
    // Simplex bases of well-connected chains fill toward the end of the
    // elimination: the trailing few-hundred-square block routinely
    // reaches 80%+ density, where the scatter-based sparse update pays
    // hundreds of ns per entry against the ~1 flop/cycle of a
    // contiguous kernel.  Once the active submatrix crosses the density
    // threshold, finish it with dense partial-pivoted elimination.
    if (n - pos >= kDenseTailMin && n - pos <= kDenseTailMax &&
        pos % kDenseTailCheck == 0) {
      const std::size_t r = n - pos;
      std::size_t act = 0;
      for (std::size_t j = 0; j < n; ++j) {
        if (col_active[j]) act += acols.size(j);
      }
      if (static_cast<double>(act) >=
          kDenseTailDensity * static_cast<double>(r) * static_cast<double>(r)) {
        if (!dense_tail(pos, work, pivot_tol)) return false;
        break;
      }
    }
    // --- Markowitz pivot search ---------------------------------------
    std::size_t best_col = kNoPosition, best_row = kNoPosition;
    double best_val = 0.0;
    std::size_t best_cost = kNoPosition;
    std::size_t candidates = 0;
    for (std::size_t count = 0; count <= n && best_cost > 0; ++count) {
      if (count == 0) {
        // A count-0 active column has no entry in any unpivoted row:
        // structurally singular.
        bool empty_active = false;
        for (const std::size_t j : buckets[0]) {
          if (col_active[j] && col_count[j] == 0) empty_active = true;
        }
        if (empty_active) return false;
        continue;
      }
      // Lower bound for any column of this count is (count-1) * 0; the
      // classic search cutoff accepts the incumbent once no column of
      // the next count can beat it under the (c-1)^2 heuristic bound.
      if (best_cost != kNoPosition && best_cost <= (count - 1) * (count - 1)) {
        break;
      }
      for (std::size_t bi = 0; bi < buckets.size(count);) {
        const std::size_t j = buckets.at(count, bi);
        if (!col_active[j] || col_count[j] != count) {
          buckets.swap_pop(count, bi);  // stale
          continue;
        }
        ++bi;
        factor_ops_ += acols.size(j);  // candidate scan work
        double max_abs = 0.0;
        for (const auto& [r, v] : acols[j]) {
          max_abs = std::max(max_abs, std::abs(v));
        }
        if (max_abs <= pivot_tol) continue;  // numerically unusable now
        const double threshold = kPivotThreshold * max_abs;
        std::size_t cand_row = kNoPosition;
        double cand_val = 0.0;
        std::size_t cand_cost = kNoPosition;
        double cand_abs = 0.0;
        for (const auto& [r, v] : acols[j]) {
          const double a = std::abs(v);
          if (a < threshold) continue;
          const std::size_t cost = (row_count[r] - 1) * (count - 1);
          if (cost < cand_cost || (cost == cand_cost && a > cand_abs)) {
            cand_cost = cost;
            cand_abs = a;
            cand_row = r;
            cand_val = v;
          }
        }
        if (cand_row == kNoPosition) continue;
        ++candidates;
        if (cand_cost < best_cost) {
          best_cost = cand_cost;
          best_col = j;
          best_row = cand_row;
          best_val = cand_val;
        }
        if (candidates >= kMarkowitzCandidates || best_cost == 0) break;
      }
      if (candidates >= kMarkowitzCandidates) break;
    }
    if (best_col == kNoPosition) return false;  // numerically singular

    // --- record pivot -------------------------------------------------
    const std::size_t cp = best_col, rp = best_row;
    const double piv = best_val;
    u_diag_[pos] = piv;
    pivot_row_[pos] = rp;
    row_position_[rp] = pos;
    col_of_position_[pos] = cp;
    col_active[cp] = 0;

    // L multipliers: the pivot column's remaining active entries.
    const std::size_t l0 = l_entries_.size();
    for (const auto& [r, v] : acols[cp]) {
      if (r == rp) continue;
      l_entries_.emplace_back(r, v / piv);
      --row_count[r];  // entry (r, cp) leaves the active matrix
    }
    l_start_[pos + 1] = l_entries_.size();
    const std::size_t lsize = l_entries_.size() - l0;
    acols.drop(cp);

    // --- right-looking update of every column with an entry in row rp -
    // Fill pushes only into rows other than rp, so row rp's list keeps
    // its length while it is walked (its storage may still move).
    for (std::size_t pi = 0; pi < row_cols.size(rp); ++pi) {
      const std::size_t j = row_cols.at(rp, pi);
      if (!col_active[j]) continue;  // stale or already pivoted
      // Locate and extract the U entry (rp, j).
      double urj = 0.0;
      bool found = false;
      for (std::size_t k = 0; k < acols.size(j); ++k) {
        if (acols.at(j, k).first == rp) {
          urj = acols.at(j, k).second;
          acols.swap_pop(j, k);
          found = true;
          break;
        }
      }
      if (!found) continue;  // stale row entry
      u_stash.push_back(j, {pos, urj});
      --col_count[j];
      factor_ops_ += acols.size(j);  // row-entry search + scatter setup
      if (urj != 0.0 && lsize != 0) {
        factor_ops_ += lsize + acols.size(j);
        // col_j -= (urj / piv) * col_cp, via scatter on the column.
        for (std::size_t k = 0; k < acols.size(j); ++k) {
          pos_in_col[acols.at(j, k).first] = k + 1;
        }
        for (std::size_t li = l0; li < l0 + lsize; ++li) {
          const auto [r, l] = l_entries_[li];
          const std::size_t where = pos_in_col[r];
          if (where != 0) {
            acols.at(j, where - 1).second -= l * urj;
          } else {
            acols.push_back(j, {r, -l * urj});  // fill-in
            pos_in_col[r] = acols.size(j);
            ++col_count[j];
            ++row_count[r];
            row_cols.push_back(r, j);
          }
        }
        for (const auto& [r, v] : acols[j]) pos_in_col[r] = 0;
      }
      buckets.push_back(col_count[j], j);
    }
    row_cols.drop(rp);
    row_count[rp] = 0;
  }
  if (tail_dim_ == 0) build_upper(work, nullptr, n);
  factor_nnz_ = n + tail_nnz_ + l_entries_.size() + u_entries_.size();

  // Row adjacency of L for the sparse L^T reachability (the permutation
  // is only final here, hence the second pass): a counting sort of L's
  // entries by pivot row, columns ascending within each row.
  l_row_start_.assign(n + 1, 0);
  for (const Entry& e : l_entries_) ++l_row_start_[row_position_[e.first] + 1];
  for (std::size_t m = 0; m < n; ++m) l_row_start_[m + 1] += l_row_start_[m];
  l_row_cols_.resize(l_entries_.size());
  std::vector<std::size_t>& fill = work.pos_in_col;  // per-row write cursor
  std::copy(l_row_start_.begin(), l_row_start_.end() - 1, fill.begin());
  for (std::size_t k = 0; k < n; ++k) {
    for (std::size_t i = l_start_[k]; i < l_start_[k + 1]; ++i) {
      l_row_cols_[fill[row_position_[l_entries_[i].first]]++] = k;
    }
  }
  reach_mark_.assign(n, 0);
  reach_stack_.clear();
  reach_edge_.clear();
  reach_.clear();
  valid_ = true;
  return true;
}

void SparseLu::build_upper(const Elimination& work, const double* tail,
                           std::size_t pos0) {
  const std::size_t n = n_;
  const std::size_t r = tail_dim_;
  std::size_t total = 0;
  for (std::size_t p = 0; p < n; ++p) {
    total += work.u_stash.size(col_of_position_[p]);
  }
  if (tail != nullptr) {
    for (std::size_t s = 0; s < r; ++s) {
      const double* cs = tail + s * r;
      for (std::size_t t = 0; t < s; ++t) total += cs[t] != 0.0;
    }
  }
  u_start_.resize(n + 1);
  u_entries_.clear();
  u_entries_.reserve(total);
  u_start_[0] = 0;
  for (std::size_t p = 0; p < n; ++p) {
    const std::size_t cj = col_of_position_[p];
    const std::span<const Entry> head = work.u_stash[cj];
    u_entries_.insert(u_entries_.end(), head.begin(), head.end());
    if (tail != nullptr && p >= pos0) {
      // Compat path: the dense tail's U half re-emitted into the pair
      // storage (exact zeros dropped) — every sweep walks it entry by
      // entry.
      const double* cs = tail + (p - pos0) * r;
      for (std::size_t t = 0; t < p - pos0; ++t) {
        if (cs[t] != 0.0) u_entries_.emplace_back(pos0 + t, cs[t]);
      }
    }
    u_start_[p + 1] = u_entries_.size();
  }
}

bool SparseLu::dense_tail(std::size_t pos0, Elimination& work,
                          double pivot_tol) {
  const std::size_t n = n_;
  const std::size_t r = n - pos0;
  tail_dim_ = r;
  // Remaining (unpivoted) rows and active columns, ascending.
  std::vector<std::size_t> rrow;  // dense row slot -> original row
  rrow.reserve(r);
  std::vector<std::size_t> rof(n, kNoPosition);  // original row -> slot
  for (std::size_t i = 0; i < n; ++i) {
    if (row_position_[i] == kNoPosition) {
      rof[i] = rrow.size();
      rrow.push_back(i);
    }
  }
  std::vector<std::size_t> rcol;  // dense col slot -> caller column
  rcol.reserve(r);
  for (std::size_t j = 0; j < n; ++j) {
    if (work.col_active[j]) rcol.push_back(j);
  }
  if (rrow.size() != r || rcol.size() != r) {
    throw LinalgError("sparse-lu: dense-tail bookkeeping mismatch");
  }
  // Partial pivoting permutes rows only: slot s of the tail is column
  // rcol[s] at position pos0 + s whatever the elimination finds.
  for (std::size_t s = 0; s < r; ++s) {
    col_of_position_[pos0 + s] = rcol[s];
    work.col_active[rcol[s]] = 0;
  }
  // The row patterns and buckets are done; free them (and, when the
  // tail will be retained, the pending U lists, once U is written) so
  // they do not sit under the r x r buffer's peak.
  work.row_cols.release();
  work.buckets.release();
  if (!emit_tail_sparse_) {
    build_upper(work, nullptr, pos0);
    work.u_stash.release();
  }

  // Column-major scatter; the sparse working columns are consumed.
  tail_.assign(r * r, 0.0);
  for (std::size_t cs = 0; cs < r; ++cs) {
    double* col = tail_.data() + cs * r;
    const std::size_t j = rcol[cs];
    for (const auto& [row, v] : work.acols[j]) col[rof[row]] = v;
  }
  work.acols.release();

  // Partial-pivoted elimination, strongest in column (stricter than
  // the sparse phase's threshold rule; the tail has no sparsity left to
  // preserve), blocked and threaded in dense_block.cpp.  The result is
  // bit-for-bit the same at any thread count.
  const auto t_tail = std::chrono::steady_clock::now();
  const bool ok =
      dense_lu_factor(tail_.data(), r, rrow.data(), pivot_tol, lu_threads()) ==
      r;
  tail_ms_ = std::chrono::duration<double, std::milli>(
                 std::chrono::steady_clock::now() - t_tail)
                 .count();
  if (!ok) return false;  // numerically singular
  // Count the tail in the factorization's work estimate at a fraction
  // of its raw flops: the contiguous kernel retires several ops per
  // cycle where the sparse phase's scatter update pays a cache miss per
  // entry, and the estimate feeds the amortized refactorization trigger
  // — overpricing rebuilds would starve the sweeps of fresh factors.
  // Deliberately not retuned to the blocked kernel's speed: the estimate
  // places refactorizations, and with them every pivot count.
  factor_ops_ += r * r * r / 10;

  // Pivot bookkeeping is identical either way; what differs is where
  // the block's entries end up living.
  for (std::size_t s = 0; s < r; ++s) {
    const std::size_t p = pos0 + s;
    u_diag_[p] = tail_[s * r + s];
    pivot_row_[p] = rrow[s];
    row_position_[rrow[s]] = p;
  }
  if (emit_tail_sparse_) {
    // Compat path: emit into the factor's sparse pair structures (exact
    // zeros dropped) — every sweep walks them entry by entry.
    build_upper(work, tail_.data(), pos0);
    for (std::size_t s = 0; s < r; ++s) {
      const double* cs = tail_.data() + s * r;
      for (std::size_t i = s + 1; i < r; ++i) {
        if (cs[i] != 0.0) l_entries_.emplace_back(rrow[i], cs[i]);
      }
      l_start_[pos0 + s + 1] = l_entries_.size();
    }
    Vector().swap(tail_);
    return true;
  }
  // Retain the elimination buffer: the tail's L and U halves stay
  // contiguous and the solves run dense kernels over them.  Only the
  // off-diagonal nonzero count is extracted (the fill accounting must
  // not depend on the storage mode).
  tail_retained_ = true;
  for (std::size_t s = 0; s < r; ++s) {
    const double* cs = tail_.data() + s * r;
    std::size_t count = 0;
    for (std::size_t i = 0; i < r; ++i) count += cs[i] != 0.0;
    tail_nnz_ += count - (cs[s] != 0.0);
  }
  // Tail columns keep no L pairs: their offsets close at L's end.
  for (std::size_t s = 0; s < r; ++s) {
    l_start_[pos0 + s + 1] = l_entries_.size();
  }
  return true;
}

void SparseLu::take_upper(std::vector<SparseColumn>& u_cols, Vector& u_diag) {
  u_cols.resize(n_);
  // A list keeps its capacity unless that is more than twice what it
  // now needs — typically a label that held a Forrest–Tomlin spike — so
  // that the spikes of past updates do not pin memory for the rest of
  // the solve.
  for (std::size_t k = 0; k < n_; ++k) {
    const auto first = u_entries_.begin() + u_start_[k];
    const auto last = u_entries_.begin() + u_start_[k + 1];
    if (u_cols[k].capacity() > 2 * (u_start_[k + 1] - u_start_[k])) {
      SparseColumn(first, last).swap(u_cols[k]);
    } else {
      u_cols[k].assign(first, last);
    }
  }
  u_diag.swap(u_diag_);
  u_diag_.clear();
  std::vector<Entry>().swap(u_entries_);
  u_start_.clear();
}

namespace {

/// Iterative DFS from `seeds` over the directed graph described by
/// `succ_count`/`succ_at`: collects every visited node into `reach`
/// (pre-order, unsorted) and clears its marks again before returning.
/// Returns false — reach emptied, marks cleared — once more than `cap`
/// nodes are visited; past that point the caller's dense sweep is the
/// cheaper plan.  Nodes at or past `node_limit` bail immediately: the
/// caller keeps those in a dense block whose edges this graph cannot
/// see, and any solve whose pattern touches the block is dense-tail
/// work by definition — the dense sweep's contiguous kernels are the
/// cheaper plan there anyway.
template <class SuccCount, class SuccAt>
bool reach_from(const std::vector<std::size_t>& seeds, std::size_t cap,
                std::size_t edge_budget, std::size_t node_limit,
                SuccCount succ_count, SuccAt succ_at, std::vector<char>& mark,
                std::vector<std::size_t>& node_stack,
                std::vector<std::size_t>& edge_stack,
                std::vector<std::size_t>& reach) {
  reach.clear();
  node_stack.clear();
  edge_stack.clear();
  std::size_t edges = 0;
  const auto bail = [&]() {
    for (const std::size_t v : reach) mark[v] = 0;
    reach.clear();
    node_stack.clear();
    edge_stack.clear();
    return false;
  };
  const auto visit = [&](std::size_t v) {
    mark[v] = 1;
    reach.push_back(v);
    node_stack.push_back(v);
    edge_stack.push_back(0);
  };
  for (const std::size_t seed : seeds) {
    if (mark[seed]) continue;
    if (reach.size() >= cap || seed >= node_limit) return bail();
    visit(seed);
    while (!node_stack.empty()) {
      const std::size_t v = node_stack.back();
      const std::size_t ei = edge_stack.back();
      if (ei == succ_count(v)) {
        node_stack.pop_back();
        edge_stack.pop_back();
        continue;
      }
      edge_stack.back() = ei + 1;
      // The edge budget bounds the cost of a *doomed* DFS on a filled
      // factor: enumerating successors is the dominant DFS expense, so
      // bailing once it exceeds a fraction of the dense sweep's work
      // keeps the failed-attempt overhead a bounded tax instead of a
      // 2x sweep regression on dense-ish bases.
      if (++edges > edge_budget) return bail();
      const std::size_t w = succ_at(v, ei);
      if (mark[w]) continue;
      if (reach.size() >= cap || w >= node_limit) return bail();
      visit(w);
    }
  }
  for (const std::size_t v : reach) mark[v] = 0;
  return true;
}

}  // namespace

bool SparseLu::lower_solve_sparse(IndexedVector& x, IndexedVector& z) const {
  if (x.size() != n_ || z.size() != n_) {
    throw LinalgError("sparse-lu: sparse ftran size mismatch");
  }
  // x's pattern lives in original-row space; the DFS walks positions.
  reach_seeds_.clear();
  for (const std::size_t r : x.pattern) reach_seeds_.push_back(row_position_[r]);
  // Position k is lit when x has support in pivot row k, or when a lit
  // position's L column scatters into k's pivot row.  A retained dense
  // tail is invisible to the pair-list graph, so any reach touching it
  // bails to the dense sweep (whose tail is the contiguous kernel).
  const std::size_t limit = tail_retained_ ? n_ - tail_dim_ : n_;
  bool sparse = false;
  if (n_ < ProbeGate::kMinDim || lower_gate_.allowed()) {
    sparse = reach_from(
        reach_seeds_, sparse_reach_cap(), sparse_edge_budget(), limit,
        [&](std::size_t k) { return l_start_[k + 1] - l_start_[k]; },
        [&](std::size_t k, std::size_t i) {
          return row_position_[l_entries_[l_start_[k] + i].first];
        },
        reach_mark_, reach_stack_, reach_edge_, reach_);
    lower_gate_.report(sparse);
  }
  if (!sparse) {
    // Dense fallback: the exact loop of lower_solve over the raw values.
    x.densify();
    z.densify();
    lower_solve_core(x.values, z.values, nullptr);
    return false;
  }
  // Topological replay in the dense sweep's ascending-position order —
  // every scatter target's position is itself reachable, so x's pattern
  // stays a superset of its support.
  std::sort(reach_.begin(), reach_.end());
  for (const std::size_t k : reach_) {
    const double zk = x.values[pivot_row_[k]];
    if (zk == 0.0) continue;
    z.set(k, zk);
    for (const auto& [r, lv] : l_col(k)) {
      x.touch(r);
      x.values[r] -= zk * lv;
    }
  }
  return true;
}

bool SparseLu::lower_transpose_solve_sparse(IndexedVector& t,
                                            IndexedVector& x) const {
  if (t.size() != n_ || x.size() != n_) {
    throw LinalgError("sparse-lu: sparse btran size mismatch");
  }
  // t's pattern is already in position space; position k is lit when an
  // L entry in a lit pivot row belongs to column k (the L row adjacency).
  // As in the forward solve, a pattern that reaches the retained tail
  // bails to the dense sweep.
  const std::size_t limit = tail_retained_ ? n_ - tail_dim_ : n_;
  bool sparse = false;
  if (n_ < ProbeGate::kMinDim || ltrans_gate_.allowed()) {
    sparse = reach_from(
        t.pattern, sparse_reach_cap(), sparse_edge_budget(), limit,
        [&](std::size_t m) { return l_row_start_[m + 1] - l_row_start_[m]; },
        [&](std::size_t m, std::size_t i) {
          return l_row_cols_[l_row_start_[m] + i];
        },
        reach_mark_, reach_stack_, reach_edge_, reach_);
    ltrans_gate_.report(sparse);
  }
  if (!sparse) {
    t.densify();
    x.densify();
    lower_transpose_solve_core(t.values, x.values);
    return false;
  }
  // Descending-position replay: position kk gathers from positions
  // > kk, all of which are reachable whenever their value is nonzero
  // (edge m -> kk exists exactly when the gather at kk reads m).
  std::sort(reach_.begin(), reach_.end(), std::greater<std::size_t>());
  for (const std::size_t kk : reach_) {
    t.touch(kk);
    double acc = t.values[kk];
    for (const auto& [r, lv] : l_col(kk)) {
      acc -= lv * t.values[row_position_[r]];
    }
    t.values[kk] = acc;
  }
  // Scatter back to original-row indexing, values verbatim (the dense
  // sweep writes computed zeros too; unreached positions hold the same
  // exact +0.0 either way).
  for (const std::size_t kk : reach_) x.set(pivot_row_[kk], t.values[kk]);
  return true;
}

void SparseLu::lower_solve_core(Vector& x, Vector& z,
                                std::vector<std::size_t>* support) const {
  // Forward solve L z = P x, column oriented over original row indices;
  // x is the scatter workspace and is clobbered.  The sparse phase runs
  // the pair lists; a retained tail finishes in a contiguous gather /
  // dense-kernel / write-back sequence that accumulates the exact same
  // subtractions into the exact same slots in the same order.
  const std::size_t limit = tail_retained_ ? n_ - tail_dim_ : n_;
  for (std::size_t k = 0; k < limit; ++k) {
    const double zk = x[pivot_row_[k]];
    if (zk == 0.0) continue;  // z[k] stays the exact +0.0 of the assign —
                              // the invariant the sparse replay matches
    z[k] = zk;
    if (support != nullptr) support->push_back(k);
    for (const auto& [r, lv] : l_col(k)) x[r] -= zk * lv;
  }
  if (tail_retained_ && tail_dim_ > 0) {
    const std::size_t r = tail_dim_;
    tail_work_.resize(r);
    double* w = tail_work_.data();
    for (std::size_t s = 0; s < r; ++s) w[s] = x[pivot_row_[limit + s]];
    tail_lower_solve(tail_.data(), r, w);
    for (std::size_t s = 0; s < r; ++s) {
      const double zs = w[s];
      if (zs == 0.0) continue;
      z[limit + s] = zs;
      if (support != nullptr) support->push_back(limit + s);
    }
  }
}

void SparseLu::lower_solve(Vector& x, Vector& z,
                           std::vector<std::size_t>* support) const {
  if (x.size() != n_) throw LinalgError("sparse-lu: ftran size mismatch");
  z.assign(n_, 0.0);
  if (support != nullptr) support->clear();
  lower_solve_core(x, z, support);
}

void SparseLu::lower_transpose_solve_core(Vector& t, Vector& x) const {
  // Back solve L^T s = t: s[k] = t[k] - sum_{m > k} L(m, k) s[m], where
  // the L entry at original row r belongs to pivot position
  // row_position_[r] > k.  Tail positions gather first (they only read
  // later tail positions, contiguous in t), then the pair lists.
  const std::size_t limit = tail_retained_ ? n_ - tail_dim_ : n_;
  if (tail_retained_ && tail_dim_ > 0) {
    tail_lower_transpose_solve(tail_.data(), tail_dim_, t.data() + limit);
  }
  for (std::size_t kk = limit; kk-- > 0;) {
    double acc = t[kk];
    for (const auto& [r, lv] : l_col(kk)) acc -= lv * t[row_position_[r]];
    t[kk] = acc;
  }
  // Scatter back to original row indexing: y[pivot_row_[k]] = t[k].
  for (std::size_t k = 0; k < n_; ++k) x[pivot_row_[k]] = t[k];
}

void SparseLu::lower_transpose_solve(Vector& t, Vector& x) const {
  if (t.size() != n_ || x.size() != n_) {
    throw LinalgError("sparse-lu: btran size mismatch");
  }
  lower_transpose_solve_core(t, x);
}

void SparseLu::ftran(Vector& x) const {
  Vector z;
  lower_solve(x, z);
  // Back substitution U out = z, column oriented.  A retained tail runs
  // the dense kernel (descending columns, divide-then-skip), then
  // scatters the tail columns' sparse heads — head slots are only read
  // below the tail boundary, so the contribution order per slot is
  // unchanged: descending column position either way.
  const std::size_t limit = tail_retained_ ? n_ - tail_dim_ : n_;
  if (tail_retained_ && tail_dim_ > 0) {
    tail_upper_solve(tail_.data(), tail_dim_, u_diag_.data() + limit,
                     z.data() + limit);
    for (std::size_t jj = n_; jj-- > limit;) {
      const double xj = z[jj];
      if (xj == 0.0) continue;
      for (const auto& [k, ukj] : u_col(jj)) z[k] -= xj * ukj;
    }
  }
  for (std::size_t jj = limit; jj-- > 0;) {
    const double xj = z[jj] / u_diag_[jj];
    z[jj] = xj;
    if (xj == 0.0) continue;
    for (const auto& [k, ukj] : u_col(jj)) z[k] -= xj * ukj;
  }
  // Undo the fill-reducing column permutation: position jj solved for
  // the caller's column col_of_position_[jj].
  for (std::size_t jj = 0; jj < n_; ++jj) x[col_of_position_[jj]] = z[jj];
}

void SparseLu::btran(Vector& x) const {
  if (x.size() != n_) throw LinalgError("sparse-lu: btran size mismatch");
  // Forward solve U^T t = c: U column j holds exactly the U(k, j), k < j.
  // Input is indexed by caller column; map it through the fill-reducing
  // column permutation first.  Tail columns gather their sparse heads
  // here (those slots are final by then), then the dense kernel folds
  // the tail-tail terms and divides — the same per-slot term order as
  // the single interleaved pair list.
  Vector t(n_);
  const std::size_t limit = tail_retained_ ? n_ - tail_dim_ : n_;
  for (std::size_t j = 0; j < limit; ++j) {
    double acc = x[col_of_position_[j]];
    for (const auto& [k, ukj] : u_col(j)) acc -= ukj * t[k];
    t[j] = acc / u_diag_[j];
  }
  if (tail_retained_ && tail_dim_ > 0) {
    for (std::size_t j = limit; j < n_; ++j) {
      double acc = x[col_of_position_[j]];
      for (const auto& [k, ukj] : u_col(j)) acc -= ukj * t[k];
      t[j] = acc;
    }
    tail_upper_transpose_solve(tail_.data(), tail_dim_,
                               u_diag_.data() + limit, t.data() + limit);
  }
  lower_transpose_solve(t, x);
}

// ---------------------------------------------------------------------
// BasisFactorization: Forrest–Tomlin updates over a dynamic U
// ---------------------------------------------------------------------

bool BasisFactorization::refactorize(std::size_t n, ColumnSet columns) {
  etas_.clear();
  eta_nonzeros_ = 0;
  update_fill_ = 0;
  sweep_extra_ = 0;
  partial_valid_ = false;
  uftran_gate_.reset();
  ubtran_gate_.reset();
  // Block off (or the basis too small to earn it) => the tail must
  // land in the pair lists (pre-PR 8 path).
  lu_.set_emit_tail_sparse(!use_dense_block_ || n < kBlockMinBasis);
  if (!lu_.factorize(n, columns, pivot_tol_)) return false;
  n_ = n;

  // Copy U into the dynamic (label-indexed) lists, which keep their
  // capacity — the SparseLu keeps only its L half and permutations,
  // which is all the split solves need.  Labels start as elimination
  // positions, the order as the identity; updates only ever rewrite the
  // order arrays.  A
  // retained dense tail becomes the dense block: its labels are exactly
  // the suffix [tail_start, n), so block offsets are label offsets.
  lu_.take_upper(ucols_, udiag_);
  if (lu_.tail_retained()) {
    block_.load_upper(lu_.tail_values().data(), lu_.tail_dim(),
                      lu_.tail_start());
  } else {
    block_.clear();
  }
  // Rebuild the row mirror, keeping each row's capacity across
  // refactorizations (a fresh assign would free + reallocate thousands
  // of small buffers per refactor).
  if (urows_.size() != n) {
    urows_.assign(n, {});
  } else {
    for (SparseColumn& row : urows_) row.clear();
  }
  u_nonzeros_ = block_.nonzeros();
  for (std::size_t j = 0; j < n; ++j) {
    u_nonzeros_ += ucols_[j].size();
    for (const auto& [k, v] : ucols_[j]) urows_[k].emplace_back(j, v);
  }
  u0_nonzeros_ = u_nonzeros_;
  l_nonzeros_ = lu_.factor_nonzeros() - u_nonzeros_ - n;

  label_at_order_.resize(n);
  order_of_label_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    label_at_order_[i] = i;
    order_of_label_[i] = i;
  }
  acc_.assign(n, 0.0);
  zvec_.resize(n);
  umark_.assign(n, 0);
  slot_of_label_ = lu_.col_of_position();
  label_of_slot_.assign(n, 0);
  for (std::size_t lbl = 0; lbl < n; ++lbl) {
    label_of_slot_[slot_of_label_[lbl]] = lbl;
  }
  return true;
}

bool BasisFactorization::update(std::size_t r, const Vector& d) {
  // Fault injection: an update refusal storm that refactorization
  // cannot keep up with.  A single organic refusal (the interval check
  // below) is normal protocol — the caller just refactorizes — so the
  // injected terminal state is a typed error, not one more false.
  if (robust::probe(robust::FaultSite::kFtUpdate)) {
    throw LinalgError("basis-factorization: injected update refusal storm");
  }
  if (etas_.size() >= refactor_interval_) return false;
  const std::size_t p = label_of_slot_[r];
  const std::size_t op = order_of_label_[p];

  // --- spike s = L^{-1} P a (label space) -----------------------------
  // Normally the cached partial (and its nonzero support) of the ftran
  // that produced `d`, taken by swap; the fallback reconstructs it as
  // U d (d is the full image B^{-1} a, and the U back-substitution is
  // the only step between the two).
  Vector s;
  std::vector<std::size_t>& s_support = support_;
  if (partial_valid_) {
    s.swap(partial_);
    s_support.swap(partial_support_);
  } else {
    s.assign(n_, 0.0);
    const std::size_t bstart = block_.start();
    for (std::size_t j = 0; j < n_; ++j) {
      const double dj = d[slot_of_label_[j]];
      if (dj == 0.0) continue;
      s[j] += udiag_[j] * dj;
      for (const auto& [k, u] : ucols_[j]) s[k] += u * dj;
      if (block_.contains(j)) {
        block_.col_axpy_add(j - bstart, dj, s.data() + bstart);
      }
    }
    s_support.resize(n_);
    for (std::size_t k = 0; k < n_; ++k) s_support[k] = k;
  }
  double smax = 0.0;
  for (const std::size_t k : s_support) {
    smax = std::max(smax, std::abs(s[k]));
  }

  // --- row eta: r^T restricted to labels ordered after p --------------
  // Eliminating the old row p of U (which becomes the last row after
  // the cyclic shift) against the diagonals of the later columns is a
  // sparse triangular solve r^T U_after = w^T.  A min-heap over order
  // indices visits exactly the reachable labels in triangular order —
  // cost proportional to the row's fan-out, not to n.  Every touched
  // acc_ entry is re-zeroed, so acc_ stays all-zero between updates.
  // Nothing is mutated yet: the solve never reads row p or column p.
  using OrderedLabel = std::pair<std::size_t, std::size_t>;  // (order, label)
  std::priority_queue<OrderedLabel, std::vector<OrderedLabel>,
                      std::greater<OrderedLabel>>
      heap;
  const std::size_t bstart = block_.start();
  for (const auto& [j, u] : urows_[p]) {
    acc_[j] = u;
    heap.emplace(order_of_label_[j], j);
  }
  if (block_.active()) {
    // Block rows are near-dense, so per-entry push-if-zero bookkeeping
    // (and its branchy row walks) costs more than it saves.  Instead,
    // pre-push every tail label ordered after p once: pops with a zero
    // accumulator are skipped below exactly like duplicate pops, so the
    // popped sequence of *nonzero* labels — and hence eta_terms — is
    // bit-for-bit what the lazy pushes produce.  The block-row
    // accumulations then run unguarded (branchless, vectorized): absent
    // slots contribute exact-zero terms, which cannot change a nonzero
    // accumulator and at worst flip the sign of a zero one — invisible
    // to the `aj == 0.0` skip.
    for (std::size_t bj = 0; bj < block_.dim(); ++bj) {
      const std::size_t l = bstart + bj;
      const std::size_t ol = order_of_label_[l];
      if (ol > op) heap.emplace(ol, l);
    }
    if (block_.contains(p)) {
      block_.copy_row(p - bstart, acc_.data() + bstart);
    }
  }
  SparseColumn eta_terms;
  while (!heap.empty()) {
    const auto [oi, j] = heap.top();
    heap.pop();
    const double aj = acc_[j];
    if (aj == 0.0) continue;  // duplicate / pre-pushed pop or cancellation
    acc_[j] = 0.0;
    const double rj = aj / udiag_[j];
    if (std::abs(rj) < kDropTol) continue;
    eta_terms.emplace_back(j, rj);
    for (const auto& [l, u] : urows_[j]) {
      if (acc_[l] == 0.0) heap.emplace(order_of_label_[l], l);
      acc_[l] -= rj * u;
    }
    if (block_.contains(j)) {
      block_.row_axpy_sub_all(j - bstart, rj, acc_.data() + bstart);
    }
  }

  // --- transformed diagonal + stability test --------------------------
  double new_diag = s[p];
  for (const auto& [j, rj] : eta_terms) new_diag -= rj * s[j];
  if (!std::isfinite(new_diag) || std::abs(new_diag) < kUpdateAbsTol ||
      std::abs(new_diag) < kUpdateRelTol * smax) {
    s.swap(partial_);  // hand the buffer back for reuse
    s_support.swap(partial_support_);
    return false;  // unsafe pivot: caller refactorizes from scratch
  }

  // --- commit: drop old column p and old row p ------------------------
  // The block's share of row/column p is a pair of in-place zero-fills
  // (contiguous in one layout, strided in the other) — no pair-list or
  // mirror churn for the dense tail.
  std::size_t removed = ucols_[p].size() + urows_[p].size();
  if (block_.contains(p)) {
    removed += block_.zero_col(p - bstart);
    removed += block_.zero_row(p - bstart);
  }
  for (const auto& [k, u] : ucols_[p]) {
    SparseColumn& mirror = urows_[k];
    for (std::size_t i = 0; i < mirror.size(); ++i) {
      if (mirror[i].first == p) {
        mirror[i] = mirror.back();
        mirror.pop_back();
        break;
      }
    }
  }
  for (const auto& [j, u] : urows_[p]) {
    SparseColumn& col = ucols_[j];
    for (std::size_t i = 0; i < col.size(); ++i) {
      if (col[i].first == p) {
        col[i] = col.back();
        col.pop_back();
        break;
      }
    }
  }
  ucols_[p].clear();
  urows_[p].clear();

  // --- install the spike as the new last column -----------------------
  // Zeroing installed entries guards against duplicate support labels
  // (a row eta can re-light a position the L-solve already listed).
  // The support is sorted first so the installed entry order — and with
  // it the rounding of every later gather over this column — is a
  // canonical function of the spike's value set, not of which path
  // (dense sweep, hypersparse replay, or the U d fallback) produced the
  // support list.
  std::sort(s_support.begin(), s_support.end());
  const double drop = kDropTol * std::max(smax, 1.0);
  SparseColumn& spike_col = ucols_[p];
  std::size_t added = 0;
  const bool spike_in_block = block_.contains(p);
  for (const std::size_t k : s_support) {
    const double v = s[k];
    if (k == p || std::abs(v) <= drop) continue;
    // The spike's tail segment patches the block column directly (it
    // was just zeroed); everything else goes through the pair lists.
    if (spike_in_block && block_.contains(k)) {
      block_.set(k - bstart, p - bstart, v);
    } else {
      spike_col.emplace_back(k, v);
      urows_[k].emplace_back(p, v);
    }
    ++added;
    s[k] = 0.0;
  }
  udiag_[p] = new_diag;
  s.swap(partial_);  // hand the buffer back for reuse
  s_support.swap(partial_support_);

  // --- cyclic reorder: p moves to the end, later labels shift up ------
  for (std::size_t oi = op; oi + 1 < n_; ++oi) {
    const std::size_t lbl = label_at_order_[oi + 1];
    label_at_order_[oi] = lbl;
    order_of_label_[lbl] = oi;
  }
  label_at_order_[n_ - 1] = p;
  order_of_label_[p] = n_ - 1;

  // --- bookkeeping ----------------------------------------------------
  u_nonzeros_ += added;
  u_nonzeros_ -= removed;
  eta_nonzeros_ += eta_terms.size();
  // The adaptive-refactorization metric tracks what a sweep actually
  // pays on top of a fresh factorization: the row-eta file plus U's
  // *net* growth — the spike replaces a column and retires a row, so
  // gross spike fill would wildly overstate the drift.
  update_fill_ =
      eta_nonzeros_ +
      (u_nonzeros_ > u0_nonzeros_ ? u_nonzeros_ - u0_nonzeros_ : 0);
  etas_.push_back(RowEta{p, std::move(eta_terms)});
  partial_valid_ = false;  // the factorization changed under the cache
  return true;
}

void BasisFactorization::ftran(Vector& x, bool cache_spike) const {
  sweep_extra_ += update_fill_;
  Vector& z = work_;
  lu_.lower_solve(x, z, cache_spike ? &support_ : nullptr);
  // Row etas, chronological: each one folds the eliminated old pivot
  // row of its update into the spiked label's component.
  for (const RowEta& e : etas_) {
    double acc = z[e.p];
    for (const auto& [j, rj] : e.terms) acc -= rj * z[j];
    if (cache_spike && z[e.p] == 0.0 && acc != 0.0) support_.push_back(e.p);
    z[e.p] = acc;
  }
  if (cache_spike) {
    // Stash the partial result + support: update() reuses it as the
    // spike of this entering column.
    partial_ = z;
    partial_support_ = support_;
    partial_valid_ = true;
  }
  // Back substitution over the dynamic U in current order.  Zero
  // entries are skipped *before* the divide so untouched positions keep
  // an exact +0.0 — the form the hypersparse replay reproduces.  A
  // column inside the dense block scatters its tail segment through the
  // contiguous column kernel (same entry set, same per-target single
  // contribution, so bitwise identical to the pair-list walk).
  const std::size_t bstart = block_.start();
  for (std::size_t oi = n_; oi-- > 0;) {
    const std::size_t j = label_at_order_[oi];
    const double zj = z[j];
    if (zj == 0.0) continue;
    const double xj = zj / udiag_[j];
    z[j] = xj;
    if (xj == 0.0) continue;
    for (const auto& [k, u] : ucols_[j]) z[k] -= xj * u;
    if (block_.contains(j)) {
      block_.col_axpy_sub(j - bstart, xj, z.data() + bstart);
    }
  }
  for (std::size_t lbl = 0; lbl < n_; ++lbl) x[slot_of_label_[lbl]] = z[lbl];
  ++dense_sweeps_;
  touched_entries_ += n_;
  if (block_.active()) {
    ++block_sweeps_;
    block_entries_ += block_.nonzeros();
  }
  if (robust::probe(robust::FaultSite::kFtranSpike)) injected_spike("ftran");
}

void BasisFactorization::btran(Vector& x) const {
  if (x.size() != n_) throw LinalgError("basis-factorization: btran size");
  sweep_extra_ += update_fill_;
  Vector& v = work_;
  v.resize(n_);
  for (std::size_t lbl = 0; lbl < n_; ++lbl) v[lbl] = x[slot_of_label_[lbl]];
  // Forward solve U^T in current order, scatter form: once v[j] is
  // final it is pushed through row j (the mirror, plus the block row's
  // contiguous kernel).  Per accumulator, terms arrive in ascending
  // current order of their source — a canonical order shared with the
  // hypersparse replay, and independent of how the entries are stored
  // (each (j, l) entry lives in exactly one of mirror/block).  Zero
  // accumulations are normalized to exact +0.0 instead of divided, so
  // positions the replay never visits match bit for bit.
  const std::size_t bstart = block_.start();
  for (std::size_t oi = 0; oi < n_; ++oi) {
    const std::size_t j = label_at_order_[oi];
    const double a = v[j];
    const double tj = (a == 0.0) ? 0.0 : a / udiag_[j];
    v[j] = tj;
    if (tj == 0.0) continue;
    for (const auto& [l, u] : urows_[j]) v[l] -= u * tj;
    if (block_.contains(j)) {
      block_.row_axpy_sub(j - bstart, tj, v.data() + bstart);
    }
  }
  // Row etas transposed, reverse chronological.
  for (auto it = etas_.rbegin(); it != etas_.rend(); ++it) {
    const double vp = v[it->p];
    if (vp == 0.0) continue;
    for (const auto& [j, rj] : it->terms) v[j] -= rj * vp;
  }
  lu_.lower_transpose_solve(v, x);
  ++dense_sweeps_;
  touched_entries_ += n_;
  if (block_.active()) {
    ++block_sweeps_;
    block_entries_ += block_.nonzeros();
  }
  if (robust::probe(robust::FaultSite::kBtranSpike)) injected_spike("btran");
}

// ---------------------------------------------------------------------
// Hypersparse sweeps: Gilbert–Peierls reachability + order-sorted replay
// over the dynamic U, bitwise-identical to the dense loops above.
// ---------------------------------------------------------------------

void BasisFactorization::ftran_sparse(IndexedVector& x, bool cache_spike) const {
  if (x.size() != n_) throw LinalgError("basis-factorization: ftran size");
  sweep_extra_ += update_fill_;
  IndexedVector& z = zvec_;
  z.clear();
  lu_.lower_solve_sparse(x, z);

  // Row etas, chronological — same full gather as the dense sweep (an
  // eta's cost is its term count either way), with pattern upkeep on
  // the one written entry.
  if (z.dense()) {
    for (const RowEta& e : etas_) {
      double acc = z.values[e.p];
      for (const auto& [j, rj] : e.terms) acc -= rj * z.values[j];
      z.values[e.p] = acc;
    }
  } else {
    for (const RowEta& e : etas_) {
      double acc = z.values[e.p];
      for (const auto& [j, rj] : e.terms) acc -= rj * z.values[j];
      if (acc != 0.0 || z.in_pattern(e.p)) z.set(e.p, acc);
    }
  }

  if (cache_spike) {
    if (z.dense()) {
      partial_ = z.values;
      partial_support_.resize(n_);
      for (std::size_t k = 0; k < n_; ++k) partial_support_[k] = k;
    } else {
      partial_.assign(n_, 0.0);
      for (const std::size_t k : z.pattern) partial_[k] = z.values[k];
      partial_support_ = z.pattern;
    }
    partial_valid_ = true;
  }

  // Dynamic-U back substitution: DFS over the column graph from z's
  // pattern, replayed in descending current order — the dense loop's
  // exact visit order restricted to the reachable labels.  The replay
  // and the dense sweep are strict alternatives: touching the reach can
  // fill z's pattern (dense() turns true), so gating the dense sweep on
  // dense() afterwards would run the substitution twice.
  bool u_replayed = false;
  if (!z.dense()) {
    // Block labels are a bail trigger, exactly like SparseLu's retained
    // tail: their edges live in the dense block, invisible to the pair
    // lists, and a pattern that lights the block is dense-tail work.
    const std::size_t ulimit = block_.active() ? block_.start() : n_;
    bool usparse = false;
    if (n_ < ProbeGate::kMinDim || uftran_gate_.allowed()) {
      usparse = reach_from(
          z.pattern, lu_.sparse_reach_cap(), u_edge_budget(), ulimit,
          [&](std::size_t j) { return ucols_[j].size(); },
          [&](std::size_t j, std::size_t i) { return ucols_[j][i].first; },
          umark_, ustack_, uedge_, ureach_);
      uftran_gate_.report(usparse);
    }
    if (usparse) {
      std::sort(ureach_.begin(), ureach_.end(),
                [&](std::size_t a, std::size_t b) {
                  return order_of_label_[a] > order_of_label_[b];
                });
      for (const std::size_t lbl : ureach_) z.touch(lbl);
      for (const std::size_t lbl : ureach_) {
        const double zj = z.values[lbl];
        if (zj == 0.0) continue;
        const double xj = zj / udiag_[lbl];
        z.values[lbl] = xj;
        if (xj == 0.0) continue;
        for (const auto& [k, u] : ucols_[lbl]) z.values[k] -= xj * u;
      }
      u_replayed = true;
    } else {
      z.densify();
    }
  }
  if (!u_replayed) {
    const std::size_t bstart = block_.start();
    for (std::size_t oi = n_; oi-- > 0;) {
      const std::size_t j = label_at_order_[oi];
      const double zj = z.values[j];
      if (zj == 0.0) continue;
      const double xj = zj / udiag_[j];
      z.values[j] = xj;
      if (xj == 0.0) continue;
      for (const auto& [k, u] : ucols_[j]) z.values[k] -= xj * u;
      if (block_.contains(j)) {
        block_.col_axpy_sub(j - bstart, xj, z.values.data() + bstart);
      }
    }
  }

  // Scatter to caller slots, values verbatim (zeros included, so even a
  // cancelled or underflowed entry lands bit-for-bit like the dense
  // copy loop).
  x.clear();
  if (z.dense()) {
    x.densify();
    for (std::size_t lbl = 0; lbl < n_; ++lbl) {
      x.values[slot_of_label_[lbl]] = z.values[lbl];
    }
    ++dense_sweeps_;
    touched_entries_ += n_;
    if (block_.active()) {
      ++block_sweeps_;
      block_entries_ += block_.nonzeros();
    }
  } else {
    for (const std::size_t lbl : z.pattern) {
      x.set(slot_of_label_[lbl], z.values[lbl]);
    }
    ++sparse_sweeps_;
    touched_entries_ += z.entries();
  }
  if (robust::probe(robust::FaultSite::kFtranSpike)) injected_spike("ftran");
}

void BasisFactorization::btran_sparse(IndexedVector& x) const {
  if (x.size() != n_) throw LinalgError("basis-factorization: btran size");
  sweep_extra_ += update_fill_;
  IndexedVector& v = zvec_;
  v.clear();
  // Slot -> label remap of the rhs support (zero-valued pattern slots
  // contribute nothing, exactly like the dense copy of a zero).
  for (const std::size_t slot : x.pattern) {
    const double val = x.values[slot];
    if (val == 0.0) continue;
    v.set(label_of_slot_[slot], val);
  }

  // U^T forward solve: DFS over the row graph, ascending-order replay
  // in the dense sweep's scatter form (block labels bail, as in ftran).
  const std::size_t ulimit = block_.active() ? block_.start() : n_;
  bool usparse = false;
  if (n_ < ProbeGate::kMinDim || ubtran_gate_.allowed()) {
    usparse = reach_from(
        v.pattern, lu_.sparse_reach_cap(), u_edge_budget(), ulimit,
        [&](std::size_t k) { return urows_[k].size(); },
        [&](std::size_t k, std::size_t i) { return urows_[k][i].first; },
        umark_, ustack_, uedge_, ureach_);
    ubtran_gate_.report(usparse);
  }
  if (usparse) {
    std::sort(ureach_.begin(), ureach_.end(),
              [&](std::size_t a, std::size_t b) {
                return order_of_label_[a] < order_of_label_[b];
              });
    for (const std::size_t lbl : ureach_) v.touch(lbl);
    for (const std::size_t lbl : ureach_) {
      const double a = v.values[lbl];
      const double tj = (a == 0.0) ? 0.0 : a / udiag_[lbl];
      v.values[lbl] = tj;
      if (tj == 0.0) continue;
      // Every scatter target is a DFS successor of lbl, hence reached
      // and pre-touched.
      for (const auto& [l, u] : urows_[lbl]) v.values[l] -= u * tj;
    }
  } else {
    v.densify();
    const std::size_t bstart = block_.start();
    for (std::size_t oi = 0; oi < n_; ++oi) {
      const std::size_t j = label_at_order_[oi];
      const double a = v.values[j];
      const double tj = (a == 0.0) ? 0.0 : a / udiag_[j];
      v.values[j] = tj;
      if (tj == 0.0) continue;
      for (const auto& [l, u] : urows_[j]) v.values[l] -= u * tj;
      if (block_.contains(j)) {
        block_.row_axpy_sub(j - bstart, tj, v.values.data() + bstart);
      }
    }
  }

  // Row etas transposed, reverse chronological (scatter form).
  if (v.dense()) {
    for (auto it = etas_.rbegin(); it != etas_.rend(); ++it) {
      const double vp = v.values[it->p];
      if (vp == 0.0) continue;
      for (const auto& [j, rj] : it->terms) v.values[j] -= rj * vp;
    }
  } else {
    for (auto it = etas_.rbegin(); it != etas_.rend(); ++it) {
      const double vp = v.values[it->p];  // off-pattern reads exact +0.0
      if (vp == 0.0) continue;
      for (const auto& [j, rj] : it->terms) {
        v.touch(j);
        v.values[j] -= rj * vp;
      }
    }
  }

  // L^T tail back to original-row indexing.
  x.clear();
  bool tail_sparse = false;
  if (v.dense()) {
    x.densify();
    lu_.lower_transpose_solve(v.values, x.values);
  } else {
    tail_sparse = lu_.lower_transpose_solve_sparse(v, x);
  }
  if (tail_sparse) {
    ++sparse_sweeps_;
    touched_entries_ += v.entries();
  } else {
    ++dense_sweeps_;
    touched_entries_ += n_;
    if (block_.active()) {
      ++block_sweeps_;
      block_entries_ += block_.nonzeros();
    }
  }
  if (robust::probe(robust::FaultSite::kBtranSpike)) injected_spike("btran");
}

}  // namespace dpm::linalg
