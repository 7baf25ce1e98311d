#include "robust/supervisor.h"

#include <atomic>
#include <cstring>
#include <string>

#include "linalg/matrix.h"

namespace dpm::robust {
namespace {

std::atomic<std::uint64_t> g_supervised{0};
std::atomic<std::uint64_t> g_first_try{0};
std::atomic<std::uint64_t> g_recovered{0};
std::atomic<std::uint64_t> g_unrecovered{0};
std::atomic<std::uint64_t> g_rung_attempts[kNumRecoveryRungs]{};

/// Types a failed (undetermined) solver return via its status + note.
FailureReason reason_from(const lp::LpSolution& sol) noexcept {
  switch (sol.status) {
    case lp::LpStatus::kDeadline:
      return FailureReason::kDeadlineExpired;
    case lp::LpStatus::kIterationLimit:
      return FailureReason::kIterationLimit;
    default:
      break;
  }
  if (sol.note != nullptr) {
    if (std::strcmp(sol.note, "singular-refactorization") == 0 ||
        std::strcmp(sol.note, "warm-basis-corrupted") == 0 ||
        std::strcmp(sol.note, "crash-basis-corrupted") == 0) {
      return FailureReason::kSingularBasis;
    }
  }
  return FailureReason::kNonFinite;
}

}  // namespace

const char* to_string(FailureReason r) noexcept {
  switch (r) {
    case FailureReason::kSingularBasis: return "singular-basis";
    case FailureReason::kNonFinite: return "non-finite";
    case FailureReason::kIterationLimit: return "iteration-limit";
    case FailureReason::kDeadlineExpired: return "deadline-expired";
    case FailureReason::kInvariantViolation: return "invariant-violation";
    case FailureReason::kBadModel: return "bad-model";
  }
  return nullptr;
}

const char* to_string(RecoveryRung r) noexcept {
  switch (r) {
    case RecoveryRung::kPlain: return "plain";
    case RecoveryRung::kRetryRefactorize: return "retry-refactorize";
    case RecoveryRung::kColdRestart: return "cold-restart";
    case RecoveryRung::kNoPresolve: return "no-presolve";
    case RecoveryRung::kCrossCheck: return "cross-check";
  }
  return nullptr;
}

RecoveryTelemetry recovery_telemetry() noexcept {
  RecoveryTelemetry t;
  t.supervised = g_supervised.load(std::memory_order_relaxed);
  t.first_try = g_first_try.load(std::memory_order_relaxed);
  t.recovered = g_recovered.load(std::memory_order_relaxed);
  t.unrecovered = g_unrecovered.load(std::memory_order_relaxed);
  for (std::size_t i = 0; i < kNumRecoveryRungs; ++i) {
    t.rung_attempts[i] = g_rung_attempts[i].load(std::memory_order_relaxed);
  }
  return t;
}

SolveOutcome SolveSupervisor::solve(const lp::LpProblem& problem,
                                    const lp::SimplexBasis* warm,
                                    lp::SimplexBasis* basis_out) const {
  SolveOutcome out;
  g_supervised.fetch_add(1, std::memory_order_relaxed);

  // Runs one ladder rung.  Returns true when the ladder must stop:
  // either the model is determined, or the failure is one escalation
  // cannot help with (expired deadline, malformed model).
  const auto attempt = [&](RecoveryRung rung, auto&& fn) -> bool {
    g_rung_attempts[static_cast<std::size_t>(rung)].fetch_add(
        1, std::memory_order_relaxed);
    RecoveryStep step;
    step.rung = rung;
    try {
      out.solution = fn();
      step.status = out.solution.status;
      step.iterations = out.solution.iterations;
      out.steps.push_back(step);
      if (out.determined()) {
        out.failure.reset();
        return true;
      }
      SolveFailure f;
      f.reason = reason_from(out.solution);
      f.rung = rung;
      f.detail = out.solution.note != nullptr ? out.solution.note : "";
      out.failure = f;
      return f.reason == FailureReason::kDeadlineExpired;
    } catch (const lp::LpError& e) {
      const std::string what = e.what();
      const bool invariant = what.find("invariant") != std::string::npos;
      step.threw = true;
      step.status = lp::LpStatus::kNumericalFailure;
      out.steps.push_back(step);
      out.solution = lp::LpSolution{};
      out.solution.status = lp::LpStatus::kNumericalFailure;
      out.failure = SolveFailure{invariant ? FailureReason::kInvariantViolation
                                           : FailureReason::kBadModel,
                                 rung, what};
      return !invariant;  // malformed input never heals; invariants escalate
    } catch (const linalg::LinalgError& e) {
      const std::string what = e.what();
      step.threw = true;
      step.status = lp::LpStatus::kNumericalFailure;
      out.steps.push_back(step);
      out.solution = lp::LpSolution{};
      out.solution.status = lp::LpStatus::kNumericalFailure;
      const FailureReason reason =
          what.find("nonfinite") != std::string::npos
              ? FailureReason::kNonFinite
              : FailureReason::kSingularBasis;
      out.failure = SolveFailure{reason, rung, what};
      return false;
    } catch (const std::exception& e) {
      step.threw = true;
      step.status = lp::LpStatus::kNumericalFailure;
      out.steps.push_back(step);
      out.solution = lp::LpSolution{};
      out.solution.status = lp::LpStatus::kNumericalFailure;
      out.failure =
          SolveFailure{FailureReason::kInvariantViolation, rung, e.what()};
      return false;
    }
  };

  const auto done = [&]() -> SolveOutcome& {
    if (out.determined()) {
      if (out.steps.size() <= 1) {
        g_first_try.fetch_add(1, std::memory_order_relaxed);
      } else {
        g_recovered.fetch_add(1, std::memory_order_relaxed);
      }
    } else {
      g_unrecovered.fetch_add(1, std::memory_order_relaxed);
    }
    return out;
  };

  // The kPlain configuration, reused verbatim by the retry rung.
  const auto plain = [&] {
    if (options_.backend == lp::Backend::kSimplex) {
      return lp::solve_simplex(problem);
    }
    return lp::solve_revised_simplex(problem, options_.lp, warm, basis_out);
  };

  // Rung 1: as requested.  A tableau failure lands on the revised-
  // simplex rungs below.
  if (attempt(RecoveryRung::kPlain, plain)) {
    return done();
  }

  // Rung 2: the same configuration again, every factorization rebuilt.
  // Transient trouble (a consumed single-shot fault, a cosmic-ray NaN)
  // re-solves along the identical pivot trajectory, so the recovered
  // answer — objective, vertex, iteration count — matches the
  // fault-free run bit-for-bit.
  if (attempt(RecoveryRung::kRetryRefactorize, plain)) {
    return done();
  }

  // Rung 3: the exact same problem, cold — no warm basis AND no crash
  // seed, so persistent hand-off trouble (stale, corrupted, or
  // unfactorable seeds of either kind) clears with a bit-identical
  // objective on success.
  const auto cold_opts = [&] {
    lp::RevisedSimplexOptions opts = options_.lp;
    opts.crash_columns = nullptr;
    return opts;
  };
  if (attempt(RecoveryRung::kColdRestart, [&] {
        return lp::solve_revised_simplex(problem, cold_opts(), nullptr,
                                         basis_out);
      })) {
    return done();
  }

  // Rung 4: presolve off — isolates presolve/postsolve trouble and
  // changes the pivot trajectory from the first iteration.
  if (attempt(RecoveryRung::kNoPresolve, [&] {
        lp::RevisedSimplexOptions opts = cold_opts();
        opts.presolve = false;
        return lp::solve_revised_simplex(problem, opts, nullptr, basis_out);
      })) {
    return done();
  }

  // Rung 5: the dense tableau answers instead, where it is affordable.
  if (problem.num_variables() <= kCrossCheckColumnLimit) {
    attempt(RecoveryRung::kCrossCheck,
            [&] { return lp::solve_simplex(problem); });
  }
  return done();
}

}  // namespace dpm::robust
