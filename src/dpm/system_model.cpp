#include "dpm/system_model.h"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace dpm {

std::vector<std::pair<std::size_t, double>> queue_transition_distribution(
    std::size_t q, unsigned arrivals, double service_rate,
    std::size_t capacity) {
  if (q > capacity) {
    throw ModelError("queue_transition_distribution: q exceeds capacity");
  }
  if (service_rate < 0.0 || service_rate > 1.0) {
    throw ModelError("queue_transition_distribution: bad service rate");
  }
  const std::size_t backlog = q + arrivals;  // work present during the slice
  const auto clamp = [capacity](std::size_t v) {
    return std::min(v, capacity);
  };
  // Nothing to serve: the queue can only take the (clamped) arrivals.
  if (backlog == 0 || service_rate == 0.0) {
    return {{clamp(backlog), 1.0}};
  }
  const std::size_t q_served = clamp(backlog - 1);
  const std::size_t q_unserved = clamp(backlog);
  if (q_served == q_unserved) {
    // Overflow regime (Eq. 3 corner case): even a completed service
    // leaves the queue saturated.
    return {{q_served, 1.0}};
  }
  return {{q_served, service_rate}, {q_unserved, 1.0 - service_rate}};
}

SystemModel SystemModel::compose(ServiceProvider sp, ServiceRequester sr,
                                 std::size_t queue_capacity,
                                 SpTransitionOverride override_sp) {
  const std::size_t n_sp = sp.num_states();
  const std::size_t n_sr = sr.num_states();
  const std::size_t n_q = queue_capacity + 1;
  const std::size_t n = n_sp * n_sr * n_q;
  const std::size_t n_a = sp.commands().size();

  const auto idx = [n_sr, n_q](std::size_t isp, std::size_t isr,
                               std::size_t iq) {
    return (isp * n_sr + isr) * n_q + iq;
  };

  // Assemble sparse transition rows directly: each (state, command) pair
  // reaches only |supp(SR row)| x |supp(SP row)| x (<= 2 queue outcomes)
  // successors, so composition is O(nnz) and never materializes an
  // n x n matrix.  Duplicate successors (distinct paths to one state)
  // are summed by the SparseControlledChain constructor.
  std::vector<std::vector<markov::TransitionRow>> rows(
      n_a, std::vector<markov::TransitionRow>(n));
  for (std::size_t a = 0; a < n_a; ++a) {
    for (std::size_t isp = 0; isp < n_sp; ++isp) {
      for (std::size_t isr = 0; isr < n_sr; ++isr) {
        for (std::size_t iq = 0; iq < n_q; ++iq) {
          markov::TransitionRow& row = rows[a][idx(isp, isr, iq)];
          const double rate = sp.service_rate(isp, a);
          for (std::size_t jsr = 0; jsr < n_sr; ++jsr) {
            const double p_sr = sr.chain().transition(isr, jsr);
            if (p_sr == 0.0) continue;
            const unsigned arrivals = sr.requests(jsr);
            const auto q_dist = queue_transition_distribution(
                iq, arrivals, rate, queue_capacity);
            for (std::size_t jsp = 0; jsp < n_sp; ++jsp) {
              const double p_sp =
                  override_sp ? override_sp(isp, jsp, a, jsr)
                              : sp.chain().transition(isp, jsp, a);
              if (p_sp == 0.0) continue;
              for (const auto& [jq, p_q] : q_dist) {
                row.emplace_back(idx(jsp, jsr, jq), p_sr * p_sp * p_q);
              }
            }
          }
        }
      }
    }
  }
  // SparseControlledChain validates row-stochasticity of the composed
  // rows, which also catches non-stochastic overrides.
  markov::SparseControlledChain chain(n, std::move(rows), 1e-7);
  return SystemModel(std::move(sp), std::move(sr), queue_capacity,
                     std::move(chain), std::move(override_sp));
}

SystemModel::SystemModel(ServiceProvider sp, ServiceRequester sr,
                         std::size_t capacity,
                         markov::SparseControlledChain chain,
                         SpTransitionOverride override_sp)
    : sp_(std::move(sp)),
      sr_(std::move(sr)),
      capacity_(capacity),
      chain_(std::move(chain)),
      override_(std::move(override_sp)) {}

double SystemModel::sp_transition(std::size_t sp_from, std::size_t sp_to,
                                  std::size_t command,
                                  std::size_t sr_to) const {
  if (override_) return override_(sp_from, sp_to, command, sr_to);
  return sp_.chain().transition(sp_from, sp_to, command);
}

std::size_t SystemModel::index_of(const SystemState& s) const {
  if (s.sp >= sp_.num_states() || s.sr >= sr_.num_states() ||
      s.q > capacity_) {
    throw ModelError("SystemModel: structured state out of range");
  }
  return (s.sp * sr_.num_states() + s.sr) * (capacity_ + 1) + s.q;
}

SystemState SystemModel::decompose(std::size_t index) const {
  if (index >= num_states()) {
    throw ModelError("SystemModel: state index out of range");
  }
  const std::size_t n_q = capacity_ + 1;
  SystemState s;
  s.q = index % n_q;
  index /= n_q;
  s.sr = index % sr_.num_states();
  s.sp = index / sr_.num_states();
  return s;
}

std::string SystemModel::state_label(std::size_t index) const {
  const SystemState s = decompose(index);
  std::ostringstream os;
  os << "(" << sp_.state_name(s.sp) << "," << sr_.state_name(s.sr) << ",q="
     << s.q << ")";
  return os.str();
}

double SystemModel::power(std::size_t state, std::size_t command) const {
  return sp_.power(decompose(state).sp, command);
}

double SystemModel::queue_length(std::size_t state) const {
  return static_cast<double>(decompose(state).q);
}

bool SystemModel::is_loss_state(std::size_t state) const {
  const SystemState s = decompose(state);
  if (sr_.requests(s.sr) == 0) return false;
  if (capacity_ == 0) {
    // No buffering: a request arriving while the provider sleeps cannot
    // be serviced and is lost.
    return sp_.is_sleep_state(s.sp);
  }
  return s.q == capacity_;
}

double SystemModel::service_rate(std::size_t state,
                                 std::size_t command) const {
  return sp_.service_rate(decompose(state).sp, command);
}

linalg::Vector SystemModel::point_distribution(const SystemState& s) const {
  linalg::Vector p0(num_states(), 0.0);
  p0[index_of(s)] = 1.0;
  return p0;
}

linalg::Vector SystemModel::uniform_distribution() const {
  return linalg::Vector(num_states(), 1.0 / static_cast<double>(num_states()));
}

void SystemModel::hash_into(sim::Fnv1a& h) const {
  h.add_string("SystemModel");
  chain_.hash_into(h);
  h.add_size(capacity_);
  const std::size_t n = num_states();
  const std::size_t na = num_commands();
  for (std::size_t s = 0; s < n; ++s) {
    h.add_double(queue_length(s));
    h.add_byte(is_loss_state(s) ? 1 : 0);
    for (std::size_t a = 0; a < na; ++a) {
      h.add_double(power(s, a));
      h.add_double(service_rate(s, a));
    }
  }
}

}  // namespace dpm
