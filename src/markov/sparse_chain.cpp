#include "markov/sparse_chain.h"

#include <algorithm>
#include <cmath>
#include <string>

namespace dpm::markov {

namespace {

/// Sorts the row held in entries[begin, end) by successor and sums
/// duplicate successors in place, truncating `entries` to the merged
/// row's end.  Returns the total probability mass; entries that sum to
/// exactly zero are dropped from the pattern.
double sort_and_merge(TransitionRow& entries, std::size_t begin = 0) {
  std::sort(entries.begin() + begin, entries.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::size_t out = begin;
  double row_sum = 0.0;
  for (std::size_t k = begin; k < entries.size(); ++k) {
    auto [to, p] = entries[k];
    while (k + 1 < entries.size() && entries[k + 1].first == to) {
      p += entries[++k].second;
    }
    row_sum += p;
    if (p != 0.0) entries[out++] = {to, p};
  }
  entries.resize(out);
  return row_sum;
}

/// sort_and_merge plus validation that `row` is a probability
/// distribution over states < n within `tol`.
void normalize_row(TransitionRow& row, std::size_t n, std::size_t command,
                   std::size_t state, double tol) {
  const double row_sum = sort_and_merge(row);
  const auto where = [&] {
    return "SparseControlledChain[command " + std::to_string(command) +
           "] row " + std::to_string(state);
  };
  for (const auto& [to, p] : row) {
    if (to >= n) {
      throw MarkovError(where() + ": successor index out of range");
    }
    if (p < -tol || p > 1.0 + tol || std::isnan(p)) {
      throw MarkovError(where() + ": entry " + std::to_string(p) +
                        " is not a probability");
    }
  }
  if (std::abs(row_sum - 1.0) > tol) {
    throw MarkovError(where() + " sums to " + std::to_string(row_sum) +
                      ", expected 1");
  }
}

}  // namespace

SparseControlledChain::SparseControlledChain(
    std::size_t num_states, std::vector<std::vector<TransitionRow>> rows,
    double tol)
    : n_(num_states) {
  if (rows.empty()) {
    throw MarkovError("SparseControlledChain: needs at least one command");
  }
  commands_.reserve(rows.size());
  for (std::size_t a = 0; a < rows.size(); ++a) {
    if (rows[a].size() != n_) {
      throw MarkovError("SparseControlledChain: command " + std::to_string(a) +
                        " has " + std::to_string(rows[a].size()) +
                        " rows, expected " + std::to_string(n_));
    }
    Csr csr;
    csr.row_ptr.reserve(n_ + 1);
    csr.row_ptr.push_back(0);
    std::size_t nnz = 0;
    for (const TransitionRow& row : rows[a]) nnz += row.size();
    csr.entries.reserve(nnz);
    for (std::size_t s = 0; s < n_; ++s) {
      normalize_row(rows[a][s], n_, a, s, tol);
      csr.entries.insert(csr.entries.end(), rows[a][s].begin(),
                         rows[a][s].end());
      csr.row_ptr.push_back(csr.entries.size());
    }
    commands_.push_back(std::move(csr));
  }
}

SparseControlledChain SparseControlledChain::from_dense(
    const std::vector<linalg::Matrix>& per_command, double tol) {
  if (per_command.empty()) {
    throw MarkovError("SparseControlledChain: needs at least one command");
  }
  const std::size_t n = per_command.front().rows();
  std::vector<std::vector<TransitionRow>> rows(per_command.size());
  for (std::size_t a = 0; a < per_command.size(); ++a) {
    const linalg::Matrix& p = per_command[a];
    if (p.rows() != n || p.cols() != n) {
      throw MarkovError(
          "SparseControlledChain: command matrices must share one order");
    }
    rows[a].resize(n);
    for (std::size_t s = 0; s < n; ++s) {
      const double* prow = p.data() + s * n;
      for (std::size_t t = 0; t < n; ++t) {
        if (prow[t] != 0.0) rows[a][s].emplace_back(t, prow[t]);
      }
    }
  }
  return SparseControlledChain(n, std::move(rows), tol);
}

std::size_t SparseControlledChain::nonzeros() const noexcept {
  std::size_t nnz = 0;
  for (const Csr& c : commands_) nnz += c.entries.size();
  return nnz;
}

TransitionRowView SparseControlledChain::row(std::size_t command,
                                             std::size_t state) const {
  const Csr& c = commands_.at(command);
  if (state >= n_) {
    throw MarkovError("SparseControlledChain: state index out of range");
  }
  return TransitionRowView(c.entries.data() + c.row_ptr[state],
                           c.row_ptr[state + 1] - c.row_ptr[state]);
}

double SparseControlledChain::transition(std::size_t from, std::size_t to,
                                         std::size_t command) const {
  const TransitionRowView r = row(command, from);
  const auto it = std::lower_bound(
      r.begin(), r.end(), to,
      [](const auto& entry, std::size_t t) { return entry.first < t; });
  return (it != r.end() && it->first == to) ? it->second : 0.0;
}

linalg::Matrix SparseControlledChain::to_dense(std::size_t command) const {
  linalg::Matrix p(n_, n_);
  for (std::size_t s = 0; s < n_; ++s) {
    for (const auto& [t, v] : row(command, s)) p(s, t) = v;
  }
  return p;
}

void SparseControlledChain::under_policy_csr(const linalg::Matrix& policy,
                                             MixedChainCsr& out) const {
  const std::size_t na = num_commands();
  if (policy.rows() != n_ || policy.cols() != na) {
    throw MarkovError("under_policy: policy matrix shape mismatch");
  }
  out.row_ptr.resize(n_ + 1);
  out.entries.clear();  // keeps capacity
  out.row_ptr[0] = 0;
  for (std::size_t s = 0; s < n_; ++s) {
    const std::size_t begin = out.entries.size();
    double row_sum = 0.0;
    for (std::size_t a = 0; a < na; ++a) {
      const double w = policy(s, a);
      if (w < -1e-9) {
        throw MarkovError("under_policy: negative decision probability");
      }
      row_sum += w;
      if (w == 0.0) continue;
      for (const auto& [t, p] : row(a, s)) out.entries.emplace_back(t, w * p);
    }
    if (std::abs(row_sum - 1.0) > 1e-7) {
      throw MarkovError("under_policy: decision row " + std::to_string(s) +
                        " does not sum to 1");
    }
    // Merge the per-command contributions (each sorted) into one sorted
    // unique row, in place on the fused array.  na is small, so one sort
    // of the concatenation beats a k-way merge.
    sort_and_merge(out.entries, begin);
    out.row_ptr[s + 1] = out.entries.size();
  }
}

MarkovChain SparseControlledChain::under_policy(
    const linalg::Matrix& policy) const {
  MixedChainCsr rows;
  under_policy_csr(policy, rows);
  linalg::Matrix mixed(n_, n_);
  for (std::size_t s = 0; s < n_; ++s) {
    for (const auto& [t, p] : rows.row(s)) mixed(s, t) = p;
  }
  return MarkovChain(std::move(mixed), 1e-6);
}

void SparseControlledChain::hash_into(sim::Fnv1a& h) const {
  h.add_string("SparseControlledChain");
  h.add_size(n_);
  h.add_size(commands_.size());
  for (const Csr& csr : commands_) {
    // The row_ptr array is implied by per-row entry counts; hashing the
    // counts plus the sorted unique entries is the canonical form.
    for (std::size_t s = 0; s < n_; ++s) {
      const std::size_t begin = csr.row_ptr[s];
      const std::size_t end = csr.row_ptr[s + 1];
      h.add_size(end - begin);
      for (std::size_t k = begin; k < end; ++k) {
        h.add_size(csr.entries[k].first);
        h.add_double(csr.entries[k].second);
      }
    }
  }
}

std::vector<linalg::SparseColumn> discounted_transposed_columns(
    std::size_t n, double gamma,
    const std::function<TransitionRowView(std::size_t)>& row_of) {
  std::vector<linalg::SparseColumn> cols(n);
  for (std::size_t j = 0; j < n; ++j) {
    const TransitionRowView row = row_of(j);
    linalg::SparseColumn& col = cols[j];
    col.reserve(row.size() + 1);
    bool diag_seen = false;
    for (const auto& [t, p] : row) {
      if (t == j) {
        col.emplace_back(j, 1.0 - gamma * p);
        diag_seen = true;
      } else {
        col.emplace_back(t, -gamma * p);
      }
    }
    if (!diag_seen) col.emplace_back(j, 1.0);
  }
  return cols;
}

}  // namespace dpm::markov
