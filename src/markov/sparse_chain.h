// Controlled Markov chains in CSR form (paper Section III-A): one
// row-stochastic matrix per command, the representation the paper
// adopts for the SP and for the composed system.
//
// DPM system models reach only a handful of successor states per
// (state, command) pair (the SR moves to few neighbors, the queue to at
// most two lengths), so the composed transition matrices are extremely
// sparse.  This type stores one compressed-sparse-row matrix per command
// and is the only controlled-chain type: model composition, policy
// mixing, discounted policy evaluation, and the optimizer's LP assembly
// all run in O(nnz) instead of O(n^2 * na).  A dense view of one command
// is to_dense(command); the dense mixed chain is under_policy(policy).
#pragma once

#include <cstddef>
#include <functional>
#include <span>
#include <utility>
#include <vector>

#include "linalg/sparse_lu.h"
#include "markov/markov_chain.h"
#include "sim/hash.h"

namespace dpm::markov {

/// One sparse transition row: (successor state, probability) pairs with
/// unique, sorted successor indices.
using TransitionRow = std::vector<std::pair<std::size_t, double>>;

/// A (successor, probability) view into one CSR row.
using TransitionRowView = std::span<const std::pair<std::size_t, double>>;

/// Policy-mixed chain in fused CSR form: row s of P_pi occupies
/// entries [row_ptr[s], row_ptr[s+1]) with unique sorted successors.
/// Produced by SparseControlledChain::under_policy_csr, which reuses
/// the arrays' capacity across policies.
struct MixedChainCsr {
  std::vector<std::size_t> row_ptr;  // size n + 1 (empty before first mix)
  std::vector<std::pair<std::size_t, double>> entries;

  std::size_t num_states() const noexcept {
    return row_ptr.empty() ? 0 : row_ptr.size() - 1;
  }
  TransitionRowView row(std::size_t s) const noexcept {
    return TransitionRowView(entries.data() + row_ptr[s],
                             row_ptr[s + 1] - row_ptr[s]);
  }
};

/// Stationary controllable Markov chain in CSR form: per command, the
/// rows of a row-stochastic matrix stored as (successor, probability)
/// entries.
///
/// Invariant: all commands share one order n; every row has entries in
/// [0, 1] with unique sorted successors summing to 1 (validated at
/// construction within `tol`; exact zeros are dropped from the pattern).
class SparseControlledChain {
 public:
  /// Assembles from per-command, per-state rows: `rows[a][s]` lists the
  /// (successor, probability) entries of P_a(s, .).  Entries may be
  /// unsorted and may repeat a successor (duplicates are summed).
  SparseControlledChain(std::size_t num_states,
                        std::vector<std::vector<TransitionRow>> rows,
                        double tol = 1e-9);

  /// Converts a dense per-command family (the reference representation).
  static SparseControlledChain from_dense(
      const std::vector<linalg::Matrix>& per_command, double tol = 1e-9);

  std::size_t num_states() const noexcept { return n_; }
  std::size_t num_commands() const noexcept {
    return commands_.size();
  }
  /// Total stored transition probabilities across all commands.
  std::size_t nonzeros() const noexcept;

  /// The sparse row P_a(s, .).
  TransitionRowView row(std::size_t command, std::size_t state) const;

  /// Element lookup (binary search within the row; for spot checks, not
  /// hot loops).  Zero when (from, to) is not in command's pattern.
  double transition(std::size_t from, std::size_t to,
                    std::size_t command) const;

  /// Densifies one command's matrix (reference paths and tests).
  linalg::Matrix to_dense(std::size_t command) const;

  /// Mixes the per-command rows under a randomized stationary decision
  /// matrix `policy` (num_states x num_commands, rows summing to 1):
  ///   P_pi(s, .) = sum_a policy(s, a) P_a(s, .)     (paper Eq. 5)
  /// written as fused CSR into `out` (one contiguous entry array, rows
  /// with unique sorted successors).  Capacity is reused across calls —
  /// a caller sweeping many policies over one model stops allocating
  /// after the first mix.  Throws MarkovError on shape mismatch,
  /// negative decision weights, or rows not summing to 1.
  void under_policy_csr(const linalg::Matrix& policy,
                        MixedChainCsr& out) const;

  /// under_policy_csr densified into a validated MarkovChain (reference
  /// paths and tests only).
  MarkovChain under_policy(const linalg::Matrix& policy) const;

  /// Streams the canonical content of the chain into `h`: order, command
  /// count, and every CSR row as (successor, probability) entries.
  /// Construction sorts entries and sums duplicates, so two chains
  /// assembled from the same transitions in any insertion order hash
  /// equal — the content-address contract of the scenario result cache.
  void hash_into(sim::Fnv1a& h) const;

 private:
  struct Csr {
    std::vector<std::size_t> row_ptr;  // size n + 1
    std::vector<std::pair<std::size_t, double>> entries;  // sorted per row
  };

  std::size_t n_ = 0;
  std::vector<Csr> commands_;
};

/// Sparse columns of (I - gamma P)^T for a chain whose row s is
/// `row_of(s)`: column s is e_s - gamma * P(s, .), i.e. the CSR rows are
/// literally the columns of the transposed system — no transpose pass.
/// Shared by discounted occupancy and deterministic policy evaluation
/// (ftran solves the transposed system, btran the original one).
std::vector<linalg::SparseColumn> discounted_transposed_columns(
    std::size_t n, double gamma,
    const std::function<TransitionRowView(std::size_t)>& row_of);

}  // namespace dpm::markov
