#include "lp/problem.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>

namespace dpm::lp {

std::size_t LpProblem::add_variable(double cost, std::string name) {
  costs_.push_back(cost);
  upper_.push_back(std::numeric_limits<double>::infinity());
  if (name.empty()) {
    name = "x" + std::to_string(costs_.size() - 1);
  }
  names_.push_back(std::move(name));
  return costs_.size() - 1;
}

void LpProblem::set_upper_bound(std::size_t j, double upper) {
  if (j >= num_variables()) {
    throw LpError("lp: set_upper_bound variable out of range");
  }
  if (std::isnan(upper) || upper < 0.0) {
    throw LpError("lp: upper bound must be >= 0");
  }
  upper_[j] = upper;
}

bool LpProblem::has_finite_upper_bounds() const noexcept {
  for (const double u : upper_) {
    if (std::isfinite(u)) return true;
  }
  return false;
}

void LpProblem::add_constraint(Constraint c) {
  // Merge duplicate columns so solvers can assume unique indices per row.
  std::map<std::size_t, double> merged;
  for (const auto& [col, coeff] : c.terms) {
    if (col >= num_variables()) {
      throw LpError("lp: constraint references unknown variable " +
                    std::to_string(col));
    }
    merged[col] += coeff;
  }
  c.terms.assign(merged.begin(), merged.end());
  constraints_.push_back(std::move(c));
}

void LpProblem::set_rhs(std::size_t row, double rhs) {
  if (row >= constraints_.size()) {
    throw LpError("lp: set_rhs row out of range");
  }
  constraints_[row].rhs = rhs;
}

linalg::SparseMatrixCsc LpProblem::constraint_csc() const {
  std::vector<linalg::Triplet> triplets;
  std::size_t nnz = 0;
  for (const Constraint& c : constraints_) nnz += c.terms.size();
  triplets.reserve(nnz);
  for (std::size_t i = 0; i < constraints_.size(); ++i) {
    for (const auto& [col, coeff] : constraints_[i].terms) {
      triplets.push_back({i, col, coeff});
    }
  }
  return linalg::SparseMatrixCsc::from_triplets(num_constraints(),
                                                num_variables(), triplets);
}

void LpProblem::add_dense_constraint(const linalg::Vector& row, Sense sense,
                                     double rhs, std::string name) {
  if (row.size() != num_variables()) {
    throw LpError("lp: dense row size mismatch");
  }
  Constraint c;
  c.sense = sense;
  c.rhs = rhs;
  c.name = std::move(name);
  for (std::size_t j = 0; j < row.size(); ++j) {
    if (row[j] != 0.0) c.terms.emplace_back(j, row[j]);
  }
  add_constraint(std::move(c));
}

double LpProblem::objective(const linalg::Vector& x) const {
  if (x.size() != num_variables()) {
    throw LpError("lp: point size mismatch");
  }
  return linalg::dot(costs_, x);
}

double LpProblem::max_violation(const linalg::Vector& x) const {
  if (x.size() != num_variables()) {
    throw LpError("lp: point size mismatch");
  }
  double worst = 0.0;
  for (std::size_t j = 0; j < x.size(); ++j) {
    worst = std::max(worst, -x[j]);  // x >= 0
    if (std::isfinite(upper_[j])) {
      worst = std::max(worst, x[j] - upper_[j]);
    }
  }
  for (const auto& c : constraints_) {
    double lhs = 0.0;
    for (const auto& [col, coeff] : c.terms) lhs += coeff * x[col];
    switch (c.sense) {
      case Sense::kEq:
        worst = std::max(worst, std::abs(lhs - c.rhs));
        break;
      case Sense::kLe:
        worst = std::max(worst, lhs - c.rhs);
        break;
      case Sense::kGe:
        worst = std::max(worst, c.rhs - lhs);
        break;
    }
  }
  return worst;
}

void LpProblem::hash_into(sim::Fnv1a& h) const {
  h.add_string("LpProblem");
  hash_rows_into(h, /*with_rhs=*/true);
}

std::uint64_t LpProblem::matrix_digest() const {
  sim::Fnv1a h;
  h.add_string("LpMatrix");
  hash_rows_into(h, /*with_rhs=*/false);
  return h.digest();
}

void LpProblem::hash_rows_into(sim::Fnv1a& h, bool with_rhs) const {
  h.add_size(costs_.size());
  for (const double c : costs_) h.add_double(c);
  // +inf (the default bound) hashes by its bit pattern like any value.
  for (const double u : upper_) h.add_double(u);
  h.add_size(constraints_.size());
  for (const Constraint& c : constraints_) {
    h.add_byte(static_cast<unsigned char>(c.sense));
    if (with_rhs) h.add_double(c.rhs);
    h.add_size(c.terms.size());
    // add_constraint canonicalized terms (sorted unique columns).
    for (const auto& [col, coeff] : c.terms) {
      h.add_size(col);
      h.add_double(coeff);
    }
  }
}

LpProblem bounds_as_rows(const LpProblem& problem) {
  LpProblem copy;
  for (std::size_t j = 0; j < problem.num_variables(); ++j) {
    copy.add_variable(problem.costs()[j], problem.variable_name(j));
  }
  for (const Constraint& c : problem.constraints()) {
    copy.add_constraint(c);
  }
  for (std::size_t j = 0; j < problem.num_variables(); ++j) {
    const double u = problem.upper_bounds()[j];
    if (std::isfinite(u)) {
      copy.add_constraint({{{j, 1.0}},
                           Sense::kLe,
                           u,
                           "ub(" + problem.variable_name(j) + ")"});
    }
  }
  return copy;
}

LpProblem perturbed_copy(const LpProblem& problem, double eps) {
  LpProblem copy;
  for (std::size_t j = 0; j < problem.num_variables(); ++j) {
    copy.add_variable(problem.costs()[j], problem.variable_name(j));
    copy.set_upper_bound(j, problem.upper_bounds()[j]);
  }
  double scale = 1.0;
  for (const Constraint& c : problem.constraints()) {
    scale = std::max(scale, std::abs(c.rhs));
  }
  std::size_t i = 0;
  for (Constraint c : problem.constraints()) {
    c.rhs += eps * static_cast<double>(i + 1) * scale /
             static_cast<double>(problem.num_constraints());
    copy.add_constraint(std::move(c));
    ++i;
  }
  return copy;
}

const char* to_string(LpStatus s) noexcept {
  switch (s) {
    case LpStatus::kOptimal:
      return "optimal";
    case LpStatus::kInfeasible:
      return "infeasible";
    case LpStatus::kUnbounded:
      return "unbounded";
    case LpStatus::kIterationLimit:
      return "iteration-limit";
    case LpStatus::kNumericalFailure:
      return "numerical-failure";
    case LpStatus::kDeadline:
      return "deadline";
  }
  return "unknown";
}

}  // namespace dpm::lp
