// Composition of SP x SR x SQ into the system's controlled Markov chain
// (paper Section III-A, Eqs. 3-4 and Example 3.5).
//
// Per time slice, from system state (sp, sr, q) under command a:
//   1. the SR moves sr -> sr' (autonomous);
//   2. r(sr') requests arrive during the slice (Example 3.5 conditions
//      arrivals on the *new* SR state: the (on,0,0) -> (on,1,0)
//      transition carries probability p^R_{01} * b * p^S);
//   3. the SP moves sp -> sp' with probability p^SP_a(sp, sp') and offers
//      service rate b(sp, a) (rate depends on the *departure* state and
//      the command, Def. 3.1);
//   4. the queue absorbs arrivals minus the (at most one) serviced
//      request, clamped to [0, capacity]; arrivals that overflow are
//      lost (Eq. 3 corner cases).
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "dpm/service_provider.h"
#include "dpm/service_requester.h"
#include "markov/sparse_chain.h"
#include "sim/hash.h"

namespace dpm {

/// Decomposed system state (paper: the triple (s_p, s_r, s_q)).
struct SystemState {
  std::size_t sp = 0;
  std::size_t sr = 0;
  std::size_t q = 0;

  bool operator==(const SystemState&) const = default;
};

/// Distribution over next queue lengths given current queue, arrivals in
/// the slice, service rate, and capacity.  Exposed for direct testing of
/// the Eq. 3 corner cases.  Returns {next_q, probability} pairs (at most
/// two entries).
std::vector<std::pair<std::size_t, double>> queue_transition_distribution(
    std::size_t q, unsigned arrivals, double service_rate,
    std::size_t capacity);

/// Optional hook making SP transitions depend on the incoming SR state.
/// Used for reactive components such as the SA-1100 CPU, which wakes up
/// unconditionally on request arrival regardless of PM commands
/// (Sec. VI-C).  Must return a row-stochastic distribution over sp_to
/// for every (sp_from, command, sr_to).
using SpTransitionOverride = std::function<double(
    std::size_t sp_from, std::size_t sp_to, std::size_t command,
    std::size_t sr_to)>;

/// The composed power-managed system: a controlled Markov chain over
/// S = S_SP x S_SR x S_SQ with per-command stochastic matrices (Eq. 4),
/// plus the cost ingredients (power, queue length, request-loss states)
/// the optimizer and simulator consume.
class SystemModel {
 public:
  /// Composes the monolithic model ("Markov composer" block, Fig. 7).
  /// `queue_capacity` may be zero (no buffering; arrivals not serviced in
  /// the same slice are lost -- the CPU case study).
  static SystemModel compose(ServiceProvider sp, ServiceRequester sr,
                             std::size_t queue_capacity,
                             SpTransitionOverride override_sp = nullptr);

  std::size_t num_states() const noexcept { return chain_.num_states(); }
  std::size_t num_commands() const noexcept { return chain_.num_commands(); }
  std::size_t queue_capacity() const noexcept { return capacity_; }

  const ServiceProvider& provider() const noexcept { return sp_; }
  const ServiceRequester& requester() const noexcept { return sr_; }
  const markov::SparseControlledChain& chain() const noexcept {
    return chain_;
  }

  /// Flat index <-> structured state.
  std::size_t index_of(const SystemState& s) const;
  SystemState decompose(std::size_t index) const;
  std::string state_label(std::size_t index) const;

  /// Cost ingredients (paper Sec. III-B).
  double power(std::size_t state, std::size_t command) const;
  double queue_length(std::size_t state) const;
  /// True in states where the SR is issuing requests and the queue is
  /// full -- the "request loss" condition the paper constrains
  /// (Appendix A: "states where SR issues a request and the queue is
  /// full").  With zero capacity: requests arriving while the SP sleeps.
  bool is_loss_state(std::size_t state) const;
  /// Service rate offered in a system state under a command.
  double service_rate(std::size_t state, std::size_t command) const;

  /// The effective SP transition law used in the composition: the
  /// override when one was supplied (reactive components), the SP's own
  /// chain otherwise.  The simulator must sample from this — not from
  /// the raw SP chain — to stay faithful to the composed model.
  double sp_transition(std::size_t sp_from, std::size_t sp_to,
                       std::size_t command, std::size_t sr_to) const;

  /// Initial distribution concentrated on one structured state.
  linalg::Vector point_distribution(const SystemState& s) const;
  /// Uniform initial distribution.
  linalg::Vector uniform_distribution() const;

  /// Streams the model's canonical content into `h`: the composed CSR
  /// chain plus every cost ingredient the optimizer and simulator
  /// consume (power, queue length, loss states, service rates) over the
  /// full (state, command) grid.  Two models hash equal iff they are
  /// observationally identical to every consumer — the content-address
  /// contract of the scenario result cache (src/scenario/cache.h).
  void hash_into(sim::Fnv1a& h) const;

 private:
  SystemModel(ServiceProvider sp, ServiceRequester sr, std::size_t capacity,
              markov::SparseControlledChain chain,
              SpTransitionOverride override_sp);

  ServiceProvider sp_;
  ServiceRequester sr_;
  std::size_t capacity_;
  markov::SparseControlledChain chain_;
  SpTransitionOverride override_;  // may be null (plain product form)
};

}  // namespace dpm
