// Controlled (command-dependent) Markov chains, paper Section III-A.
#pragma once

#include <vector>

#include "markov/markov_chain.h"
#include "markov/sparse_chain.h"

namespace dpm::markov {

/// A stationary controllable Markov chain: one row-stochastic matrix per
/// command (the representation the paper adopts for the SP and for the
/// composed system).
///
/// Storage is sparse only: the CSR SparseControlledChain every path
/// consumes (`sparse()` / `row()`).  A dense view of one command is
/// `sparse().to_dense(command)`.
///
/// Invariant: all commands share one order; every row is stochastic
/// (validated at construction).
class ControlledMarkovChain {
 public:
  /// From dense matrices (reference construction; validates and converts
  /// to CSR, keeping no dense copy).
  explicit ControlledMarkovChain(
      const std::vector<linalg::Matrix>& per_command, double tol = 1e-9);

  /// From an already-validated sparse chain.
  explicit ControlledMarkovChain(SparseControlledChain chain);

  std::size_t num_states() const noexcept { return sparse_.num_states(); }
  std::size_t num_commands() const noexcept {
    return sparse_.num_commands();
  }

  /// The CSR representation (hot paths).
  const SparseControlledChain& sparse() const noexcept { return sparse_; }

  /// The sparse row P_a(s, .).
  TransitionRowView row(std::size_t command, std::size_t state) const {
    return sparse_.row(command, state);
  }

  double transition(std::size_t from, std::size_t to,
                    std::size_t command) const {
    return sparse_.transition(from, to, command);
  }

  /// Mixes the per-command matrices under a randomized stationary Markov
  /// decision matrix `policy` (num_states x num_commands, rows summing
  /// to 1): P_pi(s, .) = sum_a policy(s, a) P_a(s, .)   (paper Eq. 5).
  /// Allocates a fresh dense chain per call — hot loops should use
  /// sparse().under_policy_rows() with a reused workspace instead.
  MarkovChain under_policy(const linalg::Matrix& policy) const;

 private:
  SparseControlledChain sparse_;
};

}  // namespace dpm::markov
