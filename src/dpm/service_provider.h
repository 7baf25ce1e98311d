// Service provider — the power-manageable resource (paper Def. 3.1).
//
// A triple (Sigma, b, c): a controlled Markov chain over SP states, a
// service rate b(s, a) in [0,1] (probability of completing one request
// per time slice), and a power consumption c(s, a) in Watts.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "dpm/command_set.h"
#include "linalg/matrix.h"
#include "markov/sparse_chain.h"

namespace dpm {

class ServiceProvider {
 public:
  /// Step-by-step construction with validation deferred to build().
  ///
  /// Transition rows that are left untouched for some command default to
  /// self-loops (state insensitive to that command) so sparse models --
  /// like the disk drive's transient states -- stay concise.
  class Builder {
   public:
    Builder(std::size_t num_states, CommandSet commands);

    Builder& state_name(std::size_t s, std::string name);

    /// Sets P_a(from, to) = prob.  Marks the row as user-specified.
    Builder& transition(std::size_t command, std::size_t from, std::size_t to,
                        double prob);

    /// Replaces the whole matrix for one command.
    Builder& transition_matrix(std::size_t command, linalg::Matrix p);

    Builder& service_rate(std::size_t s, std::size_t command, double rate);
    Builder& power(std::size_t s, std::size_t command, double watts);

    /// Validates everything (row-stochasticity per command, rates in
    /// [0,1]) and produces the immutable provider.
    ServiceProvider build() &&;

   private:
    std::size_t n_;
    CommandSet commands_;
    std::vector<std::string> names_;
    std::vector<linalg::Matrix> p_;         // one per command
    std::vector<std::vector<bool>> touched_;  // [a][row]
    linalg::Matrix rate_;                   // n x A
    linalg::Matrix power_;                  // n x A
  };

  std::size_t num_states() const noexcept { return chain_.num_states(); }
  const CommandSet& commands() const noexcept { return commands_; }
  const markov::SparseControlledChain& chain() const noexcept {
    return chain_;
  }

  const std::string& state_name(std::size_t s) const { return names_.at(s); }

  /// Index of a named state; throws ModelError when absent.
  std::size_t state_index(const std::string& name) const;

  double service_rate(std::size_t s, std::size_t command) const {
    return rate_(s, command);
  }
  double power(std::size_t s, std::size_t command) const {
    return power_(s, command);
  }

  /// Expected number of slices to move from `from` to `to` when `command`
  /// is asserted every slice (paper Eq. 2: 1 / p_{from,to}(a)); infinity
  /// when the one-step probability is zero.
  double expected_transition_time(std::size_t from, std::size_t to,
                                  std::size_t command) const;

  /// States with zero service rate under every command are sleep states
  /// (paper Sec. III: "states with zero service rate are called sleep
  /// states, states with nonnull service rate are called active").
  bool is_sleep_state(std::size_t s) const;

 private:
  ServiceProvider(CommandSet commands, std::vector<std::string> names,
                  markov::SparseControlledChain chain, linalg::Matrix rate,
                  linalg::Matrix power);

  CommandSet commands_;
  std::vector<std::string> names_;
  markov::SparseControlledChain chain_;
  linalg::Matrix rate_;
  linalg::Matrix power_;
};

}  // namespace dpm
