// Tests for SP/SR construction and the SP x SR x SQ composition
// (paper Eqs. 3-4, Example 3.5).
#include <gtest/gtest.h>

#include <cmath>

#include "cases/example_system.h"
#include "dpm/system_model.h"
#include "markov/markov_chain.h"

namespace dpm {
namespace {

using cases::ExampleSystem;

// ---------------------------------------------------------------------
// CommandSet
// ---------------------------------------------------------------------

TEST(CommandSet, LookupByName) {
  const CommandSet c({"s_on", "s_off"});
  EXPECT_EQ(c.size(), 2u);
  EXPECT_EQ(c.index("s_off"), 1u);
  EXPECT_TRUE(c.contains("s_on"));
  EXPECT_FALSE(c.contains("nope"));
  EXPECT_THROW(c.index("nope"), ModelError);
}

TEST(CommandSet, RejectsEmptyAndDuplicates) {
  EXPECT_THROW(CommandSet({}), ModelError);
  EXPECT_THROW(CommandSet({""}), ModelError);
  EXPECT_THROW(CommandSet({"a", "a"}), ModelError);
}

// ---------------------------------------------------------------------
// ServiceProvider builder
// ---------------------------------------------------------------------

TEST(ServiceProvider, ExampleSystemStructure) {
  const ServiceProvider sp = ExampleSystem::make_provider();
  EXPECT_EQ(sp.num_states(), 2u);
  EXPECT_EQ(sp.commands().size(), 2u);
  EXPECT_EQ(sp.state_name(0), "on");
  EXPECT_EQ(sp.state_index("off"), 1u);
  EXPECT_THROW(sp.state_index("zzz"), ModelError);
}

TEST(ServiceProvider, WakeTimeMatchesEquation2) {
  // Example 3.1: off->on under s_on has p = 0.1 => expected 10 slices.
  const ServiceProvider sp = ExampleSystem::make_provider();
  EXPECT_NEAR(sp.expected_transition_time(ExampleSystem::kSpOff,
                                          ExampleSystem::kSpOn,
                                          ExampleSystem::kCmdOn),
              10.0, 1e-12);
  EXPECT_TRUE(std::isinf(sp.expected_transition_time(
      ExampleSystem::kSpOff, ExampleSystem::kSpOn, ExampleSystem::kCmdOff)));
}

TEST(ServiceProvider, SleepStateDetection) {
  const ServiceProvider sp = ExampleSystem::make_provider();
  EXPECT_FALSE(sp.is_sleep_state(ExampleSystem::kSpOn));
  EXPECT_TRUE(sp.is_sleep_state(ExampleSystem::kSpOff));
}

TEST(ServiceProvider, BuilderValidation) {
  CommandSet c({"go"});
  ServiceProvider::Builder b(2, c);
  EXPECT_THROW(b.transition(0, 5, 0, 1.0), ModelError);
  EXPECT_THROW(b.service_rate(0, 0, 1.5), ModelError);
  EXPECT_THROW(b.service_rate(0, 9, 0.5), ModelError);
  EXPECT_THROW(b.power(9, 0, 1.0), ModelError);
  EXPECT_THROW(b.transition_matrix(0, linalg::Matrix(3, 3)), ModelError);
}

TEST(ServiceProvider, UntouchedRowsBecomeSelfLoops) {
  CommandSet c({"go"});
  ServiceProvider::Builder b(2, c);
  b.transition(0, 0, 1, 1.0);  // row 1 untouched
  const ServiceProvider sp = std::move(b).build();
  EXPECT_DOUBLE_EQ(sp.chain().transition(1, 1, 0), 1.0);
}

TEST(ServiceProvider, NonStochasticRowRejectedAtBuild) {
  CommandSet c({"go"});
  ServiceProvider::Builder b(1, c);
  b.transition(0, 0, 0, 0.4);  // row sums to 0.4
  EXPECT_THROW(std::move(b).build(), markov::MarkovError);
}

// ---------------------------------------------------------------------
// ServiceRequester
// ---------------------------------------------------------------------

TEST(ServiceRequester, TwoStateExample) {
  const ServiceRequester sr = ExampleSystem::make_requester();
  EXPECT_EQ(sr.num_states(), 2u);
  EXPECT_EQ(sr.requests(0), 0u);
  EXPECT_EQ(sr.requests(1), 1u);
  EXPECT_EQ(sr.max_requests_per_slice(), 1u);
  // Example 3.2: burst persistence 0.85.
  EXPECT_NEAR(sr.chain().transition(1, 1), 0.85, 1e-12);
}

TEST(ServiceRequester, MeanArrivalRate) {
  // Symmetric chain: stationary (0.5, 0.5); one request in state 1.
  const ServiceRequester sr = ServiceRequester::two_state(0.15, 0.15);
  EXPECT_NEAR(sr.mean_arrival_rate(), 0.5, 1e-12);
}

TEST(ServiceRequester, SizeValidation) {
  EXPECT_THROW(
      ServiceRequester(linalg::Matrix::identity(2), {0u}),
      ModelError);
  EXPECT_THROW(ServiceRequester(linalg::Matrix::identity(2), {0u, 1u},
                                {"only-one"}),
               ModelError);
}

// ---------------------------------------------------------------------
// Queue transition distribution (Eq. 3 incl. corner cases)
// ---------------------------------------------------------------------

TEST(Queue, EmptyNoArrivalsStaysEmpty) {
  const auto d = queue_transition_distribution(0, 0, 0.8, 2);
  ASSERT_EQ(d.size(), 1u);
  EXPECT_EQ(d[0].first, 0u);
  EXPECT_DOUBLE_EQ(d[0].second, 1.0);
}

TEST(Queue, ZeroRateOnlyFills) {
  const auto d = queue_transition_distribution(1, 1, 0.0, 2);
  ASSERT_EQ(d.size(), 1u);
  EXPECT_EQ(d[0].first, 2u);
}

TEST(Queue, ServiceSplitsOutcomes) {
  const auto d = queue_transition_distribution(1, 0, 0.8, 2);
  ASSERT_EQ(d.size(), 2u);
  EXPECT_EQ(d[0].first, 0u);
  EXPECT_DOUBLE_EQ(d[0].second, 0.8);
  EXPECT_EQ(d[1].first, 1u);
  EXPECT_DOUBLE_EQ(d[1].second, 0.2);
}

TEST(Queue, FullWithArrivalStaysFull) {
  // Paper corner case: full queue + arrival stays full w.p. 1 (loss),
  // because even a completed service leaves >= capacity requests.
  const auto d = queue_transition_distribution(2, 1, 0.8, 2);
  ASSERT_EQ(d.size(), 1u);
  EXPECT_EQ(d[0].first, 2u);
}

TEST(Queue, FullNoArrivalCanDrain) {
  const auto d = queue_transition_distribution(2, 0, 0.8, 2);
  ASSERT_EQ(d.size(), 2u);
  EXPECT_EQ(d[0].first, 1u);
  EXPECT_DOUBLE_EQ(d[0].second, 0.8);
}

TEST(Queue, OverflowClampsToCapacity) {
  const auto d = queue_transition_distribution(1, 3, 0.0, 2);
  ASSERT_EQ(d.size(), 1u);
  EXPECT_EQ(d[0].first, 2u);
}

TEST(Queue, IncomingRequestServedDirectly) {
  // Empty queue, one arrival, service succeeds -> stays empty.
  const auto d = queue_transition_distribution(0, 1, 0.8, 2);
  ASSERT_EQ(d.size(), 2u);
  EXPECT_EQ(d[0].first, 0u);
  EXPECT_DOUBLE_EQ(d[0].second, 0.8);
  EXPECT_EQ(d[1].first, 1u);
}

TEST(Queue, ZeroCapacity) {
  const auto d = queue_transition_distribution(0, 1, 0.5, 0);
  ASSERT_EQ(d.size(), 1u);
  EXPECT_EQ(d[0].first, 0u);  // either served or lost; queue stays empty
}

TEST(Queue, Validation) {
  EXPECT_THROW(queue_transition_distribution(3, 0, 0.5, 2), ModelError);
  EXPECT_THROW(queue_transition_distribution(0, 0, 1.5, 2), ModelError);
}

// Property: the distribution always sums to 1 and respects capacity.
struct QueueCase {
  std::size_t q;
  unsigned arrivals;
  double rate;
  std::size_t capacity;
};

class QueueProperty : public ::testing::TestWithParam<QueueCase> {};

TEST_P(QueueProperty, ValidDistribution) {
  const QueueCase c = GetParam();
  const auto d =
      queue_transition_distribution(c.q, c.arrivals, c.rate, c.capacity);
  double total = 0.0;
  for (const auto& [q2, p] : d) {
    EXPECT_LE(q2, c.capacity);
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
    total += p;
  }
  EXPECT_NEAR(total, 1.0, 1e-12);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, QueueProperty,
    ::testing::Values(QueueCase{0, 0, 0.0, 0}, QueueCase{0, 2, 0.5, 1},
                      QueueCase{1, 1, 1.0, 1}, QueueCase{2, 2, 0.3, 3},
                      QueueCase{3, 0, 0.9, 3}, QueueCase{0, 5, 0.5, 2},
                      QueueCase{2, 0, 0.0, 4}, QueueCase{4, 1, 0.7, 4}));

// ---------------------------------------------------------------------
// Composition (Eq. 4)
// ---------------------------------------------------------------------

TEST(Compose, ExampleSystemHasEightStates) {
  const SystemModel m = ExampleSystem::make_model();
  EXPECT_EQ(m.num_states(), 8u);  // 2 SP x 2 SR x 2 SQ (Example 3.5)
  EXPECT_EQ(m.num_commands(), 2u);
  EXPECT_EQ(m.queue_capacity(), 1u);
}

TEST(Compose, IndexRoundTrip) {
  const SystemModel m = ExampleSystem::make_model();
  for (std::size_t i = 0; i < m.num_states(); ++i) {
    EXPECT_EQ(m.index_of(m.decompose(i)), i);
  }
  EXPECT_THROW(m.decompose(8), ModelError);
  EXPECT_THROW(m.index_of({9, 0, 0}), ModelError);
}

TEST(Compose, MatricesAreStochastic) {
  const SystemModel m = ExampleSystem::make_model();
  for (std::size_t a = 0; a < m.num_commands(); ++a) {
    EXPECT_NO_THROW(markov::validate_stochastic(
        m.chain().to_dense(a), "composed", 1e-9));
  }
}

TEST(Compose, Example35Transition) {
  // (on, 0, 0) -> (on, 1, 0) under s_on:
  //   p^R(0->1) * b(on, s_on) * p^S(on->on | s_on) = 0.05 * 0.8 * 1.0.
  const SystemModel m = ExampleSystem::make_model();
  const std::size_t from = m.index_of({ExampleSystem::kSpOn, 0, 0});
  const std::size_t to = m.index_of({ExampleSystem::kSpOn, 1, 0});
  EXPECT_NEAR(m.chain().transition(from, to, ExampleSystem::kCmdOn),
              0.05 * 0.8 * 1.0, 1e-12);
  // Under s_off the service rate is zero: the request must queue.
  EXPECT_NEAR(m.chain().transition(from, to, ExampleSystem::kCmdOff), 0.0,
              1e-12);
}

TEST(Compose, CostIngredients) {
  const SystemModel m = ExampleSystem::make_model();
  const std::size_t on00 = m.index_of({ExampleSystem::kSpOn, 0, 0});
  EXPECT_DOUBLE_EQ(m.power(on00, ExampleSystem::kCmdOn), 3.0);
  EXPECT_DOUBLE_EQ(m.power(on00, ExampleSystem::kCmdOff), 4.0);
  EXPECT_DOUBLE_EQ(m.queue_length(on00), 0.0);
  EXPECT_FALSE(m.is_loss_state(on00));
  const std::size_t off11 = m.index_of({ExampleSystem::kSpOff, 1, 1});
  EXPECT_DOUBLE_EQ(m.queue_length(off11), 1.0);
  EXPECT_TRUE(m.is_loss_state(off11));  // requester active, queue full
  const std::size_t off01 = m.index_of({ExampleSystem::kSpOff, 0, 1});
  EXPECT_FALSE(m.is_loss_state(off01));  // no incoming requests
}

TEST(Compose, Distributions) {
  const SystemModel m = ExampleSystem::make_model();
  const linalg::Vector p0 = m.point_distribution({0, 0, 0});
  EXPECT_DOUBLE_EQ(p0[m.index_of({0, 0, 0})], 1.0);
  EXPECT_DOUBLE_EQ(linalg::sum(p0), 1.0);
  EXPECT_NEAR(linalg::sum(m.uniform_distribution()), 1.0, 1e-12);
}

TEST(Compose, StateLabel) {
  const SystemModel m = ExampleSystem::make_model();
  EXPECT_EQ(m.state_label(m.index_of({ExampleSystem::kSpOn, 1, 0})),
            "(on,request,q=0)");
}

TEST(Compose, OverrideChangesDynamics) {
  // Force the SP to stay put regardless of commands whenever the SR
  // moves to its request state.
  ServiceProvider sp = ExampleSystem::make_provider();
  const markov::SparseControlledChain base = sp.chain();
  SpTransitionOverride ov = [base](std::size_t f, std::size_t t,
                                   std::size_t a, std::size_t sr_to) {
    if (sr_to == 1) return f == t ? 1.0 : 0.0;
    return base.transition(f, t, a);
  };
  const SystemModel m = SystemModel::compose(
      std::move(sp), ExampleSystem::make_requester(), 1, std::move(ov));
  // From (off, 0, 0) under s_on: reaching (on, 1, *) requires the SP to
  // move while the SR moves to "request" -- forbidden by the override.
  const std::size_t from = m.index_of({ExampleSystem::kSpOff, 0, 0});
  for (std::size_t q = 0; q <= 1; ++q) {
    EXPECT_DOUBLE_EQ(m.chain().transition(
                         from, m.index_of({ExampleSystem::kSpOn, 1, q}),
                         ExampleSystem::kCmdOn),
                     0.0);
  }
  // Still row-stochastic.
  EXPECT_NO_THROW(markov::validate_stochastic(
      m.chain().to_dense(0), "override", 1e-9));
}

TEST(Compose, NonStochasticOverrideRejected) {
  ServiceProvider sp = ExampleSystem::make_provider();
  SpTransitionOverride bad = [](std::size_t, std::size_t, std::size_t,
                                std::size_t) { return 0.3; };
  EXPECT_THROW(SystemModel::compose(std::move(sp),
                                    ExampleSystem::make_requester(), 1,
                                    std::move(bad)),
               markov::MarkovError);
}

}  // namespace
}  // namespace dpm
