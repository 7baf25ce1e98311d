// Unit tests for LpProblem and the dense tableau solver.
#include <gtest/gtest.h>

#include "lp/simplex.h"

namespace dpm::lp {
namespace {

// min -x - y  s.t.  x + y <= 4, x <= 2, y <= 3  -> optimum -4 on a face.
LpProblem box_problem() {
  LpProblem p;
  const std::size_t x = p.add_variable(-1.0, "x");
  const std::size_t y = p.add_variable(-1.0, "y");
  p.add_constraint({{{x, 1.0}, {y, 1.0}}, Sense::kLe, 4.0, "cap"});
  p.add_constraint({{{x, 1.0}}, Sense::kLe, 2.0, "xmax"});
  p.add_constraint({{{y, 1.0}}, Sense::kLe, 3.0, "ymax"});
  return p;
}

TEST(Problem, VariableNamesAndCosts) {
  LpProblem p;
  EXPECT_EQ(p.add_variable(1.5, "a"), 0u);
  EXPECT_EQ(p.add_variable(-2.0), 1u);
  EXPECT_EQ(p.variable_name(0), "a");
  EXPECT_EQ(p.variable_name(1), "x1");
  EXPECT_EQ(p.costs()[1], -2.0);
}

TEST(Problem, RejectsUnknownVariable) {
  LpProblem p;
  p.add_variable(1.0);
  EXPECT_THROW(p.add_constraint({{{5, 1.0}}, Sense::kEq, 0.0, ""}), LpError);
}

TEST(Problem, MergesDuplicateTerms) {
  LpProblem p;
  const std::size_t x = p.add_variable(1.0);
  p.add_constraint({{{x, 1.0}, {x, 2.0}}, Sense::kEq, 3.0, ""});
  ASSERT_EQ(p.constraints()[0].terms.size(), 1u);
  EXPECT_EQ(p.constraints()[0].terms[0].second, 3.0);
}

TEST(Problem, DenseConstraintSizeChecked) {
  LpProblem p;
  p.add_variable(1.0);
  EXPECT_THROW(p.add_dense_constraint({1.0, 2.0}, Sense::kLe, 1.0), LpError);
}

TEST(Problem, MaxViolation) {
  LpProblem p = box_problem();
  EXPECT_NEAR(p.max_violation({2.0, 3.0}), 1.0, 1e-12);  // cap exceeded by 1
  EXPECT_NEAR(p.max_violation({1.0, 1.0}), 0.0, 1e-12);
  EXPECT_NEAR(p.max_violation({-0.5, 0.0}), 0.5, 1e-12);  // x >= 0
}

TEST(Problem, StatusToString) {
  EXPECT_STREQ(to_string(LpStatus::kOptimal), "optimal");
  EXPECT_STREQ(to_string(LpStatus::kInfeasible), "infeasible");
  EXPECT_STREQ(to_string(LpStatus::kUnbounded), "unbounded");
  EXPECT_STREQ(to_string(LpStatus::kIterationLimit), "iteration-limit");
}

// ---------------------------------------------------------------------
// Simplex
// ---------------------------------------------------------------------

TEST(Simplex, SolvesBoxProblem) {
  const LpSolution s = solve_simplex(box_problem());
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_NEAR(s.objective, -4.0, 1e-9);
  EXPECT_NEAR(s.x[0] + s.x[1], 4.0, 1e-9);
}

TEST(Simplex, SolvesEqualityProblem) {
  // min x + 2y s.t. x + y = 3  -> x = 3, y = 0, obj = 3.
  LpProblem p;
  const std::size_t x = p.add_variable(1.0);
  const std::size_t y = p.add_variable(2.0);
  p.add_constraint({{{x, 1.0}, {y, 1.0}}, Sense::kEq, 3.0, ""});
  const LpSolution s = solve_simplex(p);
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_NEAR(s.objective, 3.0, 1e-9);
  EXPECT_NEAR(s.x[0], 3.0, 1e-9);
  EXPECT_NEAR(s.x[1], 0.0, 1e-9);
}

TEST(Simplex, SolvesGeConstraints) {
  // min 2x + 3y s.t. x + y >= 5, x >= 1 -> (4, 1)?  cost 2x+3y minimized
  // by pushing y to 0: (5, 0) violates nothing, cost 10.
  LpProblem p;
  const std::size_t x = p.add_variable(2.0);
  const std::size_t y = p.add_variable(3.0);
  p.add_constraint({{{x, 1.0}, {y, 1.0}}, Sense::kGe, 5.0, ""});
  p.add_constraint({{{x, 1.0}}, Sense::kGe, 1.0, ""});
  const LpSolution s = solve_simplex(p);
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_NEAR(s.objective, 10.0, 1e-9);
  EXPECT_NEAR(s.x[0], 5.0, 1e-9);
}

TEST(Simplex, DetectsInfeasible) {
  LpProblem p;
  const std::size_t x = p.add_variable(1.0);
  p.add_constraint({{{x, 1.0}}, Sense::kLe, 1.0, ""});
  p.add_constraint({{{x, 1.0}}, Sense::kGe, 2.0, ""});
  EXPECT_EQ(solve_simplex(p).status, LpStatus::kInfeasible);
}

TEST(Simplex, DetectsUnbounded) {
  LpProblem p;
  const std::size_t x = p.add_variable(-1.0);  // min -x, x free upward
  p.add_variable(1.0);
  p.add_constraint({{{x, -1.0}}, Sense::kLe, 0.0, ""});  // -x <= 0 always
  EXPECT_EQ(solve_simplex(p).status, LpStatus::kUnbounded);
}

TEST(Simplex, NegativeRhsHandled) {
  // x - y <= -2 with min x + y  ->  y >= x + 2, best (0, 2).
  LpProblem p;
  const std::size_t x = p.add_variable(1.0);
  const std::size_t y = p.add_variable(1.0);
  p.add_constraint({{{x, 1.0}, {y, -1.0}}, Sense::kLe, -2.0, ""});
  const LpSolution s = solve_simplex(p);
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_NEAR(s.objective, 2.0, 1e-9);
}

TEST(Simplex, DegenerateProblemTerminates) {
  // Classic degeneracy: several redundant constraints through the
  // optimum.
  LpProblem p;
  const std::size_t x = p.add_variable(-1.0);
  const std::size_t y = p.add_variable(-1.0);
  p.add_constraint({{{x, 1.0}}, Sense::kLe, 1.0, ""});
  p.add_constraint({{{x, 1.0}, {y, 1.0}}, Sense::kLe, 2.0, ""});
  p.add_constraint({{{x, 2.0}, {y, 2.0}}, Sense::kLe, 4.0, ""});
  p.add_constraint({{{y, 1.0}}, Sense::kLe, 1.0, ""});
  const LpSolution s = solve_simplex(p);
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_NEAR(s.objective, -2.0, 1e-9);
}

TEST(Simplex, EmptyProblemThrows) {
  EXPECT_THROW(solve_simplex(LpProblem{}), LpError);
}

TEST(Simplex, RedundantEqualityRowsAreHarmless) {
  // x + y = 2 listed twice; min x -> (0, 2).
  LpProblem p;
  const std::size_t x = p.add_variable(1.0);
  const std::size_t y = p.add_variable(0.0);
  p.add_constraint({{{x, 1.0}, {y, 1.0}}, Sense::kEq, 2.0, ""});
  p.add_constraint({{{x, 1.0}, {y, 1.0}}, Sense::kEq, 2.0, ""});
  const LpSolution s = solve_simplex(p);
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_NEAR(s.objective, 0.0, 1e-9);
  EXPECT_NEAR(s.x[1], 2.0, 1e-9);
}

}  // namespace
}  // namespace dpm::lp
