#include "markov/controlled_chain.h"

#include <utility>

namespace dpm::markov {

ControlledMarkovChain::ControlledMarkovChain(
    const std::vector<linalg::Matrix>& per_command, double tol)
    : sparse_(SparseControlledChain::from_dense(per_command, tol)) {}

ControlledMarkovChain::ControlledMarkovChain(SparseControlledChain chain)
    : sparse_(std::move(chain)) {}

MarkovChain ControlledMarkovChain::under_policy(
    const linalg::Matrix& policy) const {
  return sparse_.under_policy(policy);
}

}  // namespace dpm::markov
