// Vertex structure of an optimal occupation measure (Altman, Constrained
// Markov Decision Processes, 1999).
//
// The discounted LP has n balance rows and one row per extra constraint.
// A basic optimal solution has at most as many positive variables as
// rows, and a slack of a constraint that is not tight is positive (so
// basic), hence at most n + t positive state-action frequencies, t being
// the number of tight constraints.  When every state has positive
// occupancy (a full-support p0) each state holds at least one positive
// frequency, so at most t states randomize; with t = 0 the optimum is a
// deterministic policy.
#pragma once

#include <cmath>
#include <cstddef>
#include <span>
#include <vector>

#include <gtest/gtest.h>

namespace dpm::vertex {

/// Number of constraints achieved within 1e-9 relative of their bound.
inline std::size_t count_tight(const std::vector<double>& achieved,
                               const std::vector<double>& bounds) {
  EXPECT_EQ(achieved.size(), bounds.size());
  std::size_t tight = 0;
  for (std::size_t k = 0; k < achieved.size() && k < bounds.size(); ++k) {
    if (std::abs(achieved[k] - bounds[k]) <= 1e-9 * std::abs(bounds[k])) {
      ++tight;
    }
  }
  return tight;
}

/// Checks the vertex structure of `x`, laid out x[s * na + a]: the
/// state-action frequencies of an optimum, or (under a full-support p0,
/// where it has the same pattern) its policy's decision matrix.
inline void expect_vertex_structure(std::span<const double> x, std::size_t n,
                                    std::size_t na, std::size_t tight) {
  ASSERT_EQ(x.size(), n * na);
  std::size_t positive = 0;
  std::size_t randomized = 0;
  for (std::size_t s = 0; s < n; ++s) {
    std::size_t in_state = 0;
    for (std::size_t a = 0; a < na; ++a) {
      if (x[s * na + a] > 0.0) ++in_state;
    }
    positive += in_state;
    if (in_state > 1) ++randomized;
  }
  EXPECT_LE(positive, n + tight) << "positive frequencies, tight " << tight;
  EXPECT_LE(randomized, tight) << "randomized states, tight " << tight;
}

}  // namespace dpm::vertex
