// Sparse revised simplex (two-phase primal, plus a boxed dual simplex).
//
// Operates on the LpProblem's CSC columns directly: each iteration costs
// two triangular solves against an LU-factorized basis (right-looking
// Markowitz LU, Forrest–Tomlin-updated between stability- or
// fill-triggered refactorizations) plus one partial-pricing pass —
// instead of the dense tableau's O(rows x columns) pivot.  This is the backend of
// choice for the MDP balance-equation LPs, whose columns have only a
// handful of nonzeros (one outgoing-flow term plus the few reachable
// successor states).
//
// Bounded variables: 0 <= x_j <= u_j is handled natively — nonbasic
// columns rest at either bound, the ratio test is two-sided, and a step
// limited by the entering variable's own bound becomes a bound *flip*
// (no basis change, no factorization update).  Singleton rows
// (a * x_j <= b and friends) are absorbed into the bound set during
// setup, shrinking the basis instead of wasting a row on them.
//
// Warm starts: the optimal basis of a solved instance can be fed back to
// solve a neighboring instance (same matrix and senses; rhs *and*
// variable bounds may differ).  If the basis is still primal feasible it
// is re-priced in place; if the change made it primal infeasible, the
// boxed dual simplex drives it back in a handful of pivots — bound
// tightening and rhs moves alike, the engine behind
// PolicyOptimizer::sweep().
#pragma once

#include <cstdint>
#include <vector>

#include "lp/problem.h"

namespace dpm::lp {

/// Per-solve instrumentation (optional; see RevisedSimplexOptions::stats).
/// The cost identity benches rely on:
///   solve_ms ~= sweep_ms (triangular solves) + update_ms (FT updates)
///             + refactor_ms (from-scratch LU) + pricing & ratio tests,
/// and refactor_ms ~= tail_ms (dense tail) + the sparse Markowitz phase
/// and setup.
struct SimplexStats {
  std::size_t refactorizations = 0;  // from-scratch LU factorizations
  double refactor_ms = 0.0;          // wall time inside those
  // The dense part of refactor_ms: the last factorization's dense-tail
  // dimension, and the wall time of every dense-tail elimination (the
  // rest of refactor_ms is the sparse Markowitz phase and the factor's
  // setup).
  std::size_t tail_dim = 0;
  double tail_ms = 0.0;
  std::size_t ft_updates = 0;        // successful Forrest-Tomlin updates
  double update_ms = 0.0;            // wall time inside factor updates
  double sweep_ms = 0.0;             // wall time in ftran/btran sweeps
  double solve_ms = 0.0;             // wall time of the whole solve
  std::size_t iterations = 0;        // pivots + bound flips
  std::size_t bound_flips = 0;       // iterations that were pure flips
  std::size_t dual_iterations = 0;   // pivots spent in the dual phase
  std::size_t factor_nonzeros = 0;   // nnz(L+U) of the last factorization
  // Hypersparsity telemetry (see BasisFactorization): triangular sweeps
  // that stayed on the Gilbert–Peierls sparse path vs sweeps that ran
  // (or fell back to) the dense scan, and total vector entries touched
  // (a dense sweep counts the full dimension m).
  std::uint64_t sparse_sweeps = 0;
  std::uint64_t dense_sweeps = 0;
  std::uint64_t touched_entries = 0;
  // Dense-block telemetry: sweeps whose tail segment ran through the
  // contiguous DenseBlock kernels, and the block nonzeros those sweeps
  // processed (counted separately from touched_entries, which accrues
  // the basis dimension per dense sweep — block_entries is the actual
  // dense-tail arithmetic volume).
  std::uint64_t block_sweeps = 0;
  std::uint64_t block_entries = 0;
  // Presolve reductions applied before the simplex saw the problem.
  std::size_t presolve_rows_removed = 0;
  std::size_t presolve_cols_removed = 0;
  // Crash-basis telemetry: whether a crash seed survived installation
  // (nonsingular, adopted), and how many crash-seeded structural
  // columns were still basic at optimality — each one is a column the
  // simplex never had to price in, a deterministic proxy for pivots
  // the seed saved versus the all-logical cold start.
  bool crash_basis_used = false;
  std::size_t crash_pivots_saved = 0;
};

/// Process-wide hypersparsity odometer, aggregated across every
/// solve_revised_simplex call since process start (thread-safe,
/// monotone — same contract as pivots_executed()).  verify.sh's
/// perf-smoke gate reads it to assert the sparse path stays the common
/// case on the case-study scenarios.
struct SweepTelemetry {
  std::uint64_t sparse_sweeps = 0;
  std::uint64_t dense_sweeps = 0;
  std::uint64_t touched_entries = 0;
  std::uint64_t block_sweeps = 0;   // sweeps routed through the dense block
  std::uint64_t block_entries = 0;  // block nonzeros those sweeps processed
};
SweepTelemetry sweep_telemetry() noexcept;

/// The per-call choices.  Tolerances, pivot budgets and the
/// refactorization trigger are fixed constants of the engine (listed
/// with their values in src/lp/README.md).
struct RevisedSimplexOptions {
  /// Columns per partial-pricing section (Dantzig over rotating
  /// sections; Bland's rule on stalls); 0 picks a size proportional to
  /// sqrt(#columns) (at least 256).  A full scan touches every column's
  /// sparse dot product per iteration, which dominates once columns
  /// outnumber rows; a section finds an entering column of almost the
  /// same quality at a fraction of the cost.
  std::size_t partial_section = 0;
  /// Absorb singleton constraint rows (one structural term) into the
  /// variable bound set instead of keeping them as basis rows.
  bool absorb_singleton_rows = true;
  /// Run the structural presolve (src/lp/presolve.h) before cold
  /// solves: empty/singleton/redundant/forcing rows and
  /// fixed/empty/dominated/duplicate columns are eliminated, the
  /// reduced problem is solved, and postsolve restores the full
  /// primal/dual solution plus a warm-startable basis.  Warm starts
  /// always bypass it (the supplied basis spans the full problem).
  bool presolve = true;
  /// Optional instrumentation sink (bench harnesses); reset and filled
  /// by solve_revised_simplex when non-null.
  SimplexStats* stats = nullptr;
  /// Optional crash basis: for each *original* constraint row, the
  /// structural column to seed basic (any value >= num_variables means
  /// "no seed; complete with a slack or artificial").  The MDP
  /// optimizer derives these from a few policy-iteration steps — the
  /// occupation-measure columns of the greedy deterministic policy form
  /// a nonsingular (I - gamma P)^T sub-basis over the balance rows.  A
  /// crash solve bypasses presolve (like a warm start, the seed spans
  /// the full problem); a singular or malformed seed falls back to the
  /// ordinary cold start.  Ignored when a warm basis is supplied.
  const std::vector<std::size_t>* crash_columns = nullptr;
};

/// Opaque warm-start handle: the basic column set over the solver's
/// internal standard form, plus the bound status of every nonbasic
/// column (which bound it rests at).  Only valid for problems with the
/// same constraint matrix, senses, and variable count; rhs and variable
/// bounds may differ — the boxed dual simplex repairs the primal
/// infeasibility either change introduces.
struct SimplexBasis {
  std::vector<std::size_t> basic;  // one standard-form column per row
  std::vector<char> at_upper;      // per standard-form column bound flag
  bool empty() const noexcept { return basic.empty(); }
};

/// Solves `problem` with the sparse revised simplex.
///
/// `warm` (optional) restarts from a previous basis; `basis_out`
/// (optional) receives the final basis on optimal termination.  Both may
/// be null; passing an incompatible warm basis silently falls back to a
/// cold solve.  A degenerate stall that outlasts Bland's rule ends in
/// kIterationLimit, which robust::SolveSupervisor escalates.
LpSolution solve_revised_simplex(const LpProblem& problem,
                                 const RevisedSimplexOptions& options = {},
                                 const SimplexBasis* warm = nullptr,
                                 SimplexBasis* basis_out = nullptr);

/// Process-wide pivot odometer: total iterations (pivots + bound flips)
/// executed by every solve_revised_simplex call since process start.
/// Monotone and thread-safe; read it before and after an operation to
/// measure the simplex work it triggered.  The scenario result cache's
/// round-trip test uses it to prove a cache replay ran zero pivots.
std::uint64_t pivots_executed() noexcept;

}  // namespace dpm::lp
