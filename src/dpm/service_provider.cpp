#include "dpm/service_provider.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

namespace dpm {

ServiceProvider::Builder::Builder(std::size_t num_states, CommandSet commands)
    : n_(num_states),
      commands_(std::move(commands)),
      rate_(num_states, commands_.size()),
      power_(num_states, commands_.size()) {
  if (n_ == 0) {
    throw ModelError("ServiceProvider: needs at least one state");
  }
  names_.resize(n_);
  for (std::size_t s = 0; s < n_; ++s) names_[s] = "sp" + std::to_string(s);
  p_.assign(commands_.size(), linalg::Matrix(n_, n_));
  touched_.assign(commands_.size(), std::vector<bool>(n_, false));
}

ServiceProvider::Builder& ServiceProvider::Builder::state_name(
    std::size_t s, std::string name) {
  if (s >= n_) throw ModelError("ServiceProvider: state index out of range");
  names_.at(s) = std::move(name);
  return *this;
}

ServiceProvider::Builder& ServiceProvider::Builder::transition(
    std::size_t command, std::size_t from, std::size_t to, double prob) {
  if (command >= commands_.size() || from >= n_ || to >= n_) {
    throw ModelError("ServiceProvider: transition index out of range");
  }
  p_[command](from, to) = prob;
  touched_[command][from] = true;
  return *this;
}

ServiceProvider::Builder& ServiceProvider::Builder::transition_matrix(
    std::size_t command, linalg::Matrix p) {
  if (command >= commands_.size()) {
    throw ModelError("ServiceProvider: command index out of range");
  }
  if (p.rows() != n_ || p.cols() != n_) {
    throw ModelError("ServiceProvider: transition matrix shape mismatch");
  }
  p_[command] = std::move(p);
  touched_[command].assign(n_, true);
  return *this;
}

ServiceProvider::Builder& ServiceProvider::Builder::service_rate(
    std::size_t s, std::size_t command, double rate) {
  if (s >= n_ || command >= commands_.size()) {
    throw ModelError("ServiceProvider: service_rate index out of range");
  }
  if (rate < 0.0 || rate > 1.0) {
    throw ModelError("ServiceProvider: service rate must be in [0,1]");
  }
  rate_(s, command) = rate;
  return *this;
}

ServiceProvider::Builder& ServiceProvider::Builder::power(std::size_t s,
                                                          std::size_t command,
                                                          double watts) {
  if (s >= n_ || command >= commands_.size()) {
    throw ModelError("ServiceProvider: power index out of range");
  }
  power_(s, command) = watts;
  return *this;
}

ServiceProvider ServiceProvider::Builder::build() && {
  // Untouched rows become self-loops: the state ignores that command.
  for (std::size_t a = 0; a < p_.size(); ++a) {
    for (std::size_t s = 0; s < n_; ++s) {
      if (!touched_[a][s]) p_[a](s, s) = 1.0;
    }
  }
  return ServiceProvider(std::move(commands_), std::move(names_),
                         markov::SparseControlledChain::from_dense(p_),
                         std::move(rate_), std::move(power_));
}

ServiceProvider::ServiceProvider(CommandSet commands,
                                 std::vector<std::string> names,
                                 markov::SparseControlledChain chain,
                                 linalg::Matrix rate, linalg::Matrix power)
    : commands_(std::move(commands)),
      names_(std::move(names)),
      chain_(std::move(chain)),
      rate_(std::move(rate)),
      power_(std::move(power)) {}

std::size_t ServiceProvider::state_index(const std::string& name) const {
  const auto it = std::find(names_.begin(), names_.end(), name);
  if (it == names_.end()) {
    throw ModelError("ServiceProvider: unknown state '" + name + "'");
  }
  return static_cast<std::size_t>(it - names_.begin());
}

double ServiceProvider::expected_transition_time(std::size_t from,
                                                 std::size_t to,
                                                 std::size_t command) const {
  const double p = chain_.transition(from, to, command);
  if (p <= 0.0) return std::numeric_limits<double>::infinity();
  return 1.0 / p;
}

bool ServiceProvider::is_sleep_state(std::size_t s) const {
  for (std::size_t a = 0; a < commands_.size(); ++a) {
    if (rate_(s, a) > 0.0) return false;
  }
  return true;
}

}  // namespace dpm
