// Exhaustive global-optimality checks on small random models.
//
// The cardinality of the deterministic stationary Markov class D is
// A^S (paper Sec. III-B); for S = 8, A = 2 that is 256 policies — small
// enough to enumerate.  These tests brute-force ALL of D and verify the
// library's optimality theorems against it:
//   * LP2's optimum equals the best deterministic policy (Theorem A.1);
//   * with constraints, the LP optimum lower-bounds every *feasible*
//     deterministic policy, and when some deterministic policy is
//     infeasible-but-cheaper, randomization closes the gap
//     (Theorem A.2);
//   * the average-cost optimizer lower-bounds every unichain
//     deterministic policy's stationary cost;
//   * every discounted optimum is a vertex: at most n + t positive
//     frequencies and t randomized states for t tight constraints
//     (tests/vertex_structure.h).
#include <gtest/gtest.h>

#include <random>

#include "dpm/average_optimizer.h"
#include "dpm/evaluation.h"
#include "dpm/optimizer.h"
#include "markov/markov_chain.h"
#include "vertex_structure.h"

namespace dpm {
namespace {

// Random 2-state SP x 2-state SR x queue-1 model => 8 states, 2 commands.
SystemModel random_model(std::uint64_t seed) {
  std::mt19937_64 gen(seed);
  std::uniform_real_distribution<double> u(0.05, 0.95);
  CommandSet commands({"a", "b"});
  ServiceProvider::Builder b(2, commands);
  for (std::size_t cmd = 0; cmd < 2; ++cmd) {
    for (std::size_t s = 0; s < 2; ++s) {
      const double p = u(gen);
      b.transition(cmd, s, 0, p);
      b.transition(cmd, s, 1, 1.0 - p);
      b.service_rate(s, cmd, u(gen));
      b.power(s, cmd, 3.0 * u(gen));
    }
  }
  return SystemModel::compose(std::move(b).build(),
                              ServiceRequester::two_state(u(gen), u(gen)),
                              1);
}

std::vector<Policy> all_deterministic(const SystemModel& m) {
  const std::size_t n = m.num_states();
  const std::size_t na = m.num_commands();
  std::size_t count = 1;
  for (std::size_t s = 0; s < n; ++s) count *= na;
  std::vector<Policy> out;
  out.reserve(count);
  for (std::size_t code = 0; code < count; ++code) {
    std::vector<std::size_t> actions(n);
    std::size_t c = code;
    for (std::size_t s = 0; s < n; ++s) {
      actions[s] = c % na;
      c /= na;
    }
    out.push_back(Policy::deterministic(actions, na));
  }
  return out;
}

class ExhaustiveTest : public ::testing::TestWithParam<int> {};

TEST_P(ExhaustiveTest, Lp2EqualsBestDeterministic) {
  const SystemModel m = random_model(1000 + GetParam());
  const double gamma = 0.9;
  OptimizerConfig cfg;
  cfg.discount = gamma;
  cfg.initial_distribution = m.point_distribution({0, 0, 0});
  const PolicyOptimizer opt(m, cfg);
  const OptimizationResult lp = opt.minimize(metrics::power(m));
  ASSERT_TRUE(lp.feasible);
  // No constraint: the optimum is a deterministic vertex.
  vertex::expect_vertex_structure(lp.frequencies, m.num_states(),
                                  m.num_commands(), 0);

  double best = 1e300;
  for (const Policy& p : all_deterministic(m)) {
    const PolicyEvaluation ev(m, p, gamma, cfg.initial_distribution);
    best = std::min(best, ev.per_step(metrics::power(m)));
  }
  // Theorem A.1: the unconstrained optimum is attained in D.
  EXPECT_NEAR(lp.objective_per_step, best, 1e-7) << "seed " << GetParam();
}

TEST_P(ExhaustiveTest, ConstrainedLpLowerBoundsFeasibleDeterministic) {
  const SystemModel m = random_model(2000 + GetParam());
  const double gamma = 0.9;
  OptimizerConfig cfg;
  cfg.discount = gamma;
  cfg.initial_distribution = m.point_distribution({0, 0, 0});
  const PolicyOptimizer opt(m, cfg);

  // Pick a bound between the unconstrained queue and the min queue so
  // the constraint is meaningful for this random instance.
  double min_queue = 1e300, max_queue = -1e300;
  for (const Policy& p : all_deterministic(m)) {
    const PolicyEvaluation ev(m, p, gamma, cfg.initial_distribution);
    const double ql = ev.per_step(metrics::queue_length(m));
    min_queue = std::min(min_queue, ql);
    max_queue = std::max(max_queue, ql);
  }
  const double bound = 0.5 * (min_queue + max_queue);

  const OptimizationResult lp = opt.minimize_power(bound);
  ASSERT_TRUE(lp.feasible) << "seed " << GetParam();
  vertex::expect_vertex_structure(
      lp.frequencies, m.num_states(), m.num_commands(),
      vertex::count_tight(lp.constraint_per_step, {bound}));

  double best_feasible_det = 1e300;
  for (const Policy& p : all_deterministic(m)) {
    const PolicyEvaluation ev(m, p, gamma, cfg.initial_distribution);
    if (ev.per_step(metrics::queue_length(m)) > bound + 1e-12) continue;
    best_feasible_det =
        std::min(best_feasible_det, ev.per_step(metrics::power(m)));
  }
  // Theorem A.2: the (possibly randomized) LP optimum can only improve
  // on the best feasible deterministic policy.
  EXPECT_LE(lp.objective_per_step, best_feasible_det + 1e-7)
      << "seed " << GetParam();
}

TEST_P(ExhaustiveTest, AverageCostLowerBoundsUnichainDeterministic) {
  const SystemModel m = random_model(3000 + GetParam());
  const AverageCostOptimizer opt(m);
  const OptimizationResult lp = opt.minimize(metrics::power(m));
  ASSERT_TRUE(lp.feasible);

  double best = 1e300;
  for (const Policy& p : all_deterministic(m)) {
    const markov::MarkovChain mixed = m.chain().under_policy(p.matrix());
    if (!mixed.is_irreducible()) continue;  // skip multichain cases
    const linalg::Vector pi = mixed.stationary_distribution();
    double power = 0.0;
    for (std::size_t s = 0; s < m.num_states(); ++s) {
      for (std::size_t a = 0; a < m.num_commands(); ++a) {
        power += pi[s] * p.probability(s, a) * m.power(s, a);
      }
    }
    best = std::min(best, power);
  }
  EXPECT_LE(lp.objective_per_step, best + 1e-7) << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(RandomModels, ExhaustiveTest,
                         ::testing::Range(0, 8));

}  // namespace
}  // namespace dpm
