// Supervised solve pipeline: runs the declared escalation ladder over
// the LP backends and guarantees a structured outcome — a determination
// or a typed SolveFailure, never an escaping exception or an abort.
//
// Ladder (see RecoveryRung in outcome.h):
//   1. kPlain             — as requested: warm basis if provided,
//                           presolve on.
//   2. kRetryRefactorize  — the same configuration again with every
//                           factorization rebuilt; a transient fault
//                           (consumed single-shot injection) re-solves
//                           along the identical pivot trajectory, so
//                           the recovered answer matches the fault-free
//                           run bit-for-bit.
//   3. kColdRestart       — drop the warm basis; fresh start.  Same
//                           exact problem, so a recovered solve matches
//                           the fault-free objective bit-for-bit.
//   4. kNoPresolve        — presolve off; isolates presolve/postsolve
//                           trouble.
//   5. kCrossCheck        — the dense tableau answers instead, up to
//                           kCrossCheckColumnLimit columns; above that
//                           the ladder ends at rung 4.
// kIterationLimit, kNumericalFailure, and converted exceptions escalate;
// kDeadline and kBadModel stop the ladder immediately (retrying cannot
// help within the same deadline, and malformed input never heals).
//
// Recovery counts are kept in process-wide telemetry (relaxed atomics,
// same contract as lp::pivots_executed) and printed by
// `bench_scenarios --telemetry`.
#pragma once

#include <cstdint>

#include "lp/revised_simplex.h"
#include "lp/solver.h"
#include "robust/outcome.h"

namespace dpm::robust {

/// Columns at or below which the kCrossCheck rung runs the dense
/// tableau (O(rows x cols) per pivot).  Above it the rung is not
/// attempted: a simplex run there would repeat kColdRestart.
inline constexpr std::size_t kCrossCheckColumnLimit = 4000;

struct SupervisorOptions {
  /// Base options applied to every revised-simplex rung (presolve is
  /// forced off on the kNoPresolve rung regardless of this value).
  lp::RevisedSimplexOptions lp;
  /// Backend for the kPlain and kRetryRefactorize rungs.  A kSimplex
  /// failure escalates onto the revised-simplex rungs below.
  lp::Backend backend = lp::Backend::kRevisedSimplex;
};

/// Process-wide recovery telemetry, aggregated across every supervised
/// solve since process start.
struct RecoveryTelemetry {
  std::uint64_t supervised = 0;    ///< supervised solves total
  std::uint64_t first_try = 0;     ///< determined on the kPlain rung
  std::uint64_t recovered = 0;     ///< determined after >= 1 escalation
  std::uint64_t unrecovered = 0;   ///< ladder exhausted or hard-stopped
  std::uint64_t rung_attempts[kNumRecoveryRungs] = {};
};
RecoveryTelemetry recovery_telemetry() noexcept;

class SolveSupervisor {
 public:
  explicit SolveSupervisor(SupervisorOptions options = {})
      : options_(options) {}

  /// Runs the ladder.  `warm`/`basis_out` follow the
  /// solve_revised_simplex contract; `basis_out` is only filled by
  /// revised-simplex rungs (a tableau determination leaves it
  /// untouched).
  /// Never throws on solver trouble; LpError from model validation
  /// surfaces as FailureReason::kBadModel.
  SolveOutcome solve(const lp::LpProblem& problem,
                     const lp::SimplexBasis* warm = nullptr,
                     lp::SimplexBasis* basis_out = nullptr) const;

  const SupervisorOptions& options() const noexcept { return options_; }

 private:
  SupervisorOptions options_;
};

}  // namespace dpm::robust
