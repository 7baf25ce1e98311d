// Fault-matrix suite for the robustness subsystem (src/robust/):
//
//  * FaultPlan derivation is deterministic and window-bounded; the CLI
//    spec parser round-trips every probe site name;
//  * probes fire exactly on the planned ordinals, consume their budget,
//    and FaultScope nesting saves/restores the enclosing plan;
//  * the SolveSupervisor fault matrix: under every single-fault plan the
//    supervised solve returns either a bitwise-correct determination or
//    a typed SolveFailure — never an escaping exception — and recovered
//    solves match the fault-free objective, vertex, and iteration count
//    exactly (the kRetryRefactorize rung replays the identical pivot
//    trajectory once the single-shot fault is consumed), the average-
//    cost optimizer's solves included; a fault on every LU
//    factorization ends on the tableau rung with the tableau's exact
//    answer;
//  * the scenario result cache's crash-safe flush: atomic rename leaves
//    no temp file, a stale temp file from a simulated crash is ignored,
//    and a poisoned line (kCacheLine injection) is dropped on load and
//    turns into a recompute instead of a wrong replay;
//  * the ExperimentRunner converts injected faults into structured
//    UnitFailure records (recovered via bounded retry, byte-identical
//    records) and keeps --jobs invariance under injection;
//  * the serving tier (src/serve/): a kDeadline fault inside a dpmd
//    worker degrades to a typed {"status":"failed"} response and the
//    worker's next answer is byte-identical to an uninjected run; a
//    request answered by the tableau rung leaves its session warm; a
//    kCacheLine-poisoned response cache recomputes instead of
//    replaying garbage.
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "cases/example_system.h"
#include "dpm/average_optimizer.h"
#include "lp/solver.h"
#include "robust/fault_injection.h"
#include "robust/outcome.h"
#include "robust/probe.h"
#include "robust/supervisor.h"
#include "scenario/cache.h"
#include "scenario/json.h"
#include "scenario/registry.h"
#include "scenario/runner.h"
#include "serve/engine.h"
#include "serve/fleet.h"
#include "serve/protocol.h"

namespace dpm {
namespace {

using robust::FaultPlan;
using robust::FaultScope;
using robust::FaultSite;
using robust::FaultSpec;
using robust::RecoveryRung;
using robust::SolveOutcome;
using robust::SolveSupervisor;
using robust::SupervisorOptions;

// Deterministic feasible bounded LP, big enough that one solve crosses
// every simplex probe site (refactorize, ftran, btran, FT updates):
// minimize sum c_j x_j over A x <= b (A >= 0, interior point strictly
// feasible) plus a >= floor row that bounds the optimum away from zero.
lp::LpProblem probe_rich_problem() {
  constexpr int n = 14;
  constexpr int m = 10;
  lp::LpProblem p;
  // Fixed pseudo-random data via a tiny LCG: no <random> needed and the
  // instance is identical on every platform.
  std::uint64_t s = 0x9E3779B97F4A7C15ull;
  const auto next = [&s]() {
    s = s * 6364136223846793005ull + 1442695040888963407ull;
    return 0.1 + 1.9 * static_cast<double>(s >> 11) /
                     static_cast<double>(1ull << 53);
  };
  for (int j = 0; j < n; ++j) p.add_variable(next());
  std::vector<double> x0(n);
  for (int j = 0; j < n; ++j) x0[j] = next();
  for (int i = 0; i < m; ++i) {
    lp::Constraint c;
    double rhs = 0.1;
    for (int j = 0; j < n; ++j) {
      const double a = next();
      c.terms.emplace_back(j, a);
      rhs += a * x0[j];
    }
    c.sense = lp::Sense::kLe;
    c.rhs = rhs;
    p.add_constraint(std::move(c));
  }
  lp::Constraint floor_row;
  double total = 0.0;
  for (int j = 0; j < n; ++j) {
    floor_row.terms.emplace_back(j, 1.0);
    total += x0[j];
  }
  floor_row.sense = lp::Sense::kGe;
  floor_row.rhs = 0.5 * total;
  p.add_constraint(std::move(floor_row));
  return p;
}

// Bitwise solution equality: status, objective, iteration count, and
// every primal coordinate must match exactly — recovery is only real
// if the recovered answer is indistinguishable from the fault-free one.
void expect_bitwise_equal(const lp::LpSolution& got,
                          const lp::LpSolution& want, const char* site) {
  EXPECT_EQ(got.status, want.status) << site;
  EXPECT_EQ(got.objective, want.objective) << site;
  EXPECT_EQ(got.iterations, want.iterations) << site;
  ASSERT_EQ(got.x.size(), want.x.size()) << site;
  for (std::size_t j = 0; j < got.x.size(); ++j) {
    EXPECT_EQ(got.x[j], want.x[j]) << site << " x[" << j << "]";
  }
}

TEST(FaultPlanDerive, DeterministicAndWindowBounded) {
  const FaultPlan a =
      FaultPlan::derive(FaultSite::kFtranSpike, "fig08_disk", 3, 16, 2);
  const FaultPlan b =
      FaultPlan::derive(FaultSite::kFtranSpike, "fig08_disk", 3, 16, 2);
  EXPECT_EQ(a.fire_at, b.fire_at);  // pure function of (site, scope, index)
  EXPECT_EQ(a.count, 2u);
  EXPECT_GE(a.fire_at, 1u);
  EXPECT_LE(a.fire_at, 16u);

  // Window 0 / 1 pin the fault to the very first probe.
  EXPECT_EQ(FaultPlan::derive(FaultSite::kLuFactorize, "x", 0, 0).fire_at, 1u);
  EXPECT_EQ(FaultPlan::derive(FaultSite::kLuFactorize, "x", 0, 1).fire_at, 1u);

  // The derived ordinals actually spread over the window (they are a
  // seeded hash, not a constant).
  std::set<std::uint64_t> seen;
  for (std::uint64_t u = 0; u < 64; ++u) {
    const FaultPlan p =
        FaultPlan::derive(FaultSite::kBtranSpike, "spread", u, 1024);
    EXPECT_GE(p.fire_at, 1u);
    EXPECT_LE(p.fire_at, 1024u);
    seen.insert(p.fire_at);
  }
  EXPECT_GT(seen.size(), 8u);
}

TEST(FaultSpecParse, RoundTripsEverySiteAndRejectsJunk) {
  for (std::size_t i = 0; i < robust::kNumFaultSites; ++i) {
    const auto site = static_cast<FaultSite>(i);
    const char* name = robust::to_string(site);
    ASSERT_NE(name, nullptr) << i;
    const auto spec = robust::parse_fault_spec(name);
    ASSERT_TRUE(spec.has_value()) << name;
    EXPECT_EQ(spec->site, site) << name;
    EXPECT_EQ(spec->window, 16u) << name;  // documented default
    EXPECT_EQ(spec->count, 1u) << name;
  }
  const auto full = robust::parse_fault_spec("ft-update:4:3");
  ASSERT_TRUE(full.has_value());
  EXPECT_EQ(full->site, FaultSite::kFtUpdate);
  EXPECT_EQ(full->window, 4u);
  EXPECT_EQ(full->count, 3u);

  EXPECT_FALSE(robust::parse_fault_spec("no-such-site").has_value());
  EXPECT_FALSE(robust::parse_fault_spec("ftran:abc").has_value());
  EXPECT_FALSE(robust::parse_fault_spec("ftran:1:xyz").has_value());
  EXPECT_FALSE(robust::parse_fault_spec("").has_value());
}

TEST(Probe, FiresOnPlannedOrdinalsAndConsumesBudget) {
  // No scope armed anywhere: probes are inert.
  EXPECT_FALSE(robust::probe(FaultSite::kLuFactorize));

  FaultPlan plan;
  plan.site = FaultSite::kLuFactorize;
  plan.fire_at = 2;
  plan.count = 2;
  FaultScope scope(plan);
  EXPECT_FALSE(robust::probe(FaultSite::kLuFactorize));  // ordinal 1
  EXPECT_TRUE(robust::probe(FaultSite::kLuFactorize));   // 2: fires
  EXPECT_TRUE(robust::probe(FaultSite::kLuFactorize));   // 3: storm
  EXPECT_FALSE(robust::probe(FaultSite::kLuFactorize));  // 4: spent
  EXPECT_EQ(scope.hits(), 4u);
  EXPECT_EQ(scope.fired(), 2u);
  // Other sites never fire off this plan.
  EXPECT_FALSE(robust::probe(FaultSite::kFtUpdate));
}

TEST(Probe, ScopesNestAndRestoreTheEnclosingPlan) {
  FaultPlan outer;
  outer.site = FaultSite::kFtranSpike;
  outer.fire_at = 3;
  FaultScope outer_scope(outer);
  EXPECT_FALSE(robust::probe(FaultSite::kFtranSpike));  // 1
  EXPECT_FALSE(robust::probe(FaultSite::kFtranSpike));  // 2
  {
    FaultPlan inner;
    inner.site = FaultSite::kFtranSpike;
    inner.fire_at = 1;
    FaultScope inner_scope(inner);
    EXPECT_TRUE(robust::probe(FaultSite::kFtranSpike));  // inner fires fresh
    EXPECT_EQ(inner_scope.fired(), 1u);
  }
  // The outer scope's counters survived the nested scope: its third
  // ordinal is next and fires.
  EXPECT_EQ(outer_scope.hits(), 2u);
  EXPECT_TRUE(robust::probe(FaultSite::kFtranSpike));
  EXPECT_EQ(outer_scope.fired(), 1u);
}

TEST(Probe, DeadlineFaultTripsTheCooperativeDeadline) {
  EXPECT_FALSE(robust::deadline_expired());  // nothing armed
  FaultPlan plan;
  plan.site = FaultSite::kDeadline;
  plan.fire_at = 1;
  FaultScope scope(plan);
  EXPECT_TRUE(robust::deadline_expired());   // injected expiry
  EXPECT_FALSE(robust::deadline_expired());  // single shot: consumed
}

// The tentpole acceptance test: every simplex-path fault site, injected
// at each of the first few probe ordinals, must end in a determination
// whose bytes match the fault-free solve.  The supervisor's
// kRetryRefactorize rung replays the identical configuration, so a
// consumed single-shot fault recovers pivot-for-pivot.
TEST(SupervisorFaultMatrix, SimplexSitesRecoverBitwise) {
  const lp::LpProblem problem = probe_rich_problem();
  const SolveSupervisor supervisor;
  const SolveOutcome clean = supervisor.solve(problem);
  ASSERT_TRUE(clean.determined());
  ASSERT_EQ(clean.solution.status, lp::LpStatus::kOptimal);
  ASSERT_EQ(clean.steps.size(), 1u);

  const FaultSite sites[] = {FaultSite::kLuFactorize, FaultSite::kFtUpdate,
                             FaultSite::kFtranSpike, FaultSite::kBtranSpike};
  for (const FaultSite site : sites) {
    for (std::uint64_t fire_at = 1; fire_at <= 4; ++fire_at) {
      FaultPlan plan;
      plan.site = site;
      plan.fire_at = fire_at;
      FaultScope scope(plan);
      const SolveOutcome out = supervisor.solve(problem);
      const char* name = robust::to_string(site);
      ASSERT_TRUE(out.determined())
          << name << " fire_at=" << fire_at << " reason="
          << (out.failure ? robust::to_string(out.failure->reason) : "none");
      expect_bitwise_equal(out.solution, clean.solution, name);
      if (scope.fired() > 0) {
        // The fault actually fired, so the answer came from a recovery
        // rung; the attempt history shows the typed first failure.
        EXPECT_TRUE(out.recovered()) << name << " fire_at=" << fire_at;
        ASSERT_GE(out.steps.size(), 2u);
        EXPECT_EQ(out.steps[0].status, lp::LpStatus::kNumericalFailure);
        EXPECT_EQ(out.steps[1].rung, RecoveryRung::kRetryRefactorize);
      }
    }
  }
}

// The average-cost optimizer (paper Eq. 7) solves through the same
// supervisor as PolicyOptimizer: a single-shot LU fault is healed by the
// kRetryRefactorize rung, so the answer matches a clean run bit for bit
// instead of reading as infeasible.
TEST(SupervisorFaultMatrix, AverageCostLuFaultRecoversBitwise) {
  const SystemModel model = cases::ExampleSystem::make_model();
  const AverageCostOptimizer optimizer(model);
  const OptimizationResult clean = optimizer.minimize_power(0.45, 0.25);
  ASSERT_TRUE(clean.feasible);

  FaultPlan plan;
  plan.site = FaultSite::kLuFactorize;
  plan.fire_at = 1;
  FaultScope scope(plan);
  const OptimizationResult out = optimizer.minimize_power(0.45, 0.25);
  ASSERT_EQ(scope.fired(), 1u);
  ASSERT_TRUE(out.feasible);
  EXPECT_EQ(out.objective_per_step, clean.objective_per_step);
  EXPECT_EQ(out.lp_iterations, clean.lp_iterations);
  ASSERT_EQ(out.frequencies.size(), clean.frequencies.size());
  for (std::size_t j = 0; j < out.frequencies.size(); ++j) {
    EXPECT_EQ(out.frequencies[j], clean.frequencies[j]) << "x[" << j << "]";
  }
}

TEST(SupervisorFaultMatrix, CorruptedWarmBasisRecoversBitwise) {
  const lp::LpProblem problem = probe_rich_problem();
  const SolveSupervisor supervisor;
  lp::SimplexBasis basis;
  ASSERT_TRUE(supervisor.solve(problem, nullptr, &basis).determined());
  ASSERT_FALSE(basis.basic.empty());

  const SolveOutcome clean = supervisor.solve(problem, &basis);
  ASSERT_TRUE(clean.determined());

  FaultPlan plan;
  plan.site = FaultSite::kWarmBasis;
  plan.fire_at = 1;
  FaultScope scope(plan);
  const SolveOutcome out = supervisor.solve(problem, &basis);
  ASSERT_TRUE(out.determined());
  expect_bitwise_equal(out.solution, clean.solution, "warm-basis");
  ASSERT_EQ(scope.fired(), 1u);
  EXPECT_TRUE(out.recovered());
  EXPECT_EQ(out.steps[0].status, lp::LpStatus::kNumericalFailure);
}

// An expired deadline is a hard stop: retrying inside the same deadline
// cannot help, so the ladder reports a typed failure immediately
// instead of burning the remaining budget on doomed rungs.
TEST(SupervisorFaultMatrix, DeadlineExpiryIsATypedHardStop) {
  const lp::LpProblem problem = probe_rich_problem();
  // The tableau polls the deadline once per pivot, like the revised
  // simplex's pivot loops.
  for (const lp::Backend backend :
       {lp::Backend::kRevisedSimplex, lp::Backend::kSimplex}) {
    SupervisorOptions options;
    options.backend = backend;
    const SolveSupervisor supervisor(options);
    FaultPlan plan;
    plan.site = FaultSite::kDeadline;
    plan.fire_at = 1;
    FaultScope scope(plan);
    const SolveOutcome out = supervisor.solve(problem);
    const int b = static_cast<int>(backend);
    EXPECT_FALSE(out.determined()) << "backend " << b;
    ASSERT_TRUE(out.failure.has_value()) << "backend " << b;
    EXPECT_EQ(out.failure->reason, robust::FailureReason::kDeadlineExpired)
        << "backend " << b;
    EXPECT_EQ(out.failure->detail, "deadline") << "backend " << b;
    // No escalation past the hard stop.
    EXPECT_EQ(out.steps.size(), 1u) << "backend " << b;
    EXPECT_EQ(out.solution.status, lp::LpStatus::kDeadline) << "backend " << b;
  }
}

// A fault that fires on every LU factorization defeats all four
// revised-simplex rungs; the dense tableau (no LU) is the last rung and
// answers exactly what it answers unsupervised, handing back no basis.
TEST(SupervisorFaultMatrix, PersistentLuFaultIsAnsweredByTheTableau) {
  const lp::LpProblem problem = probe_rich_problem();
  const lp::LpSolution tableau = lp::solve_simplex(problem);
  ASSERT_EQ(tableau.status, lp::LpStatus::kOptimal);

  FaultPlan plan;
  plan.site = FaultSite::kLuFactorize;
  plan.fire_at = 1;
  plan.count = 1000000;
  FaultScope scope(plan);
  lp::SimplexBasis basis_out;
  const SolveOutcome out = SolveSupervisor().solve(problem, nullptr, &basis_out);
  ASSERT_TRUE(out.determined());
  ASSERT_EQ(out.steps.size(), 5u);
  for (std::size_t i = 0; i + 1 < out.steps.size(); ++i) {
    EXPECT_EQ(out.steps[i].status, lp::LpStatus::kNumericalFailure) << i;
  }
  EXPECT_EQ(out.steps.back().rung, RecoveryRung::kCrossCheck);
  expect_bitwise_equal(out.solution, tableau, "lu-factorize");
  EXPECT_TRUE(basis_out.empty());
}

// A malformed model is typed kBadModel and never retried — escalation
// cannot heal bad input, and the caller gets the validation message.
TEST(SupervisorFaultMatrix, BadModelIsTypedAndNotRetried) {
  const lp::LpProblem empty;  // "problem has no variables" at solve time
  const SolveSupervisor supervisor;
  const SolveOutcome out = supervisor.solve(empty);
  EXPECT_FALSE(out.determined());
  ASSERT_TRUE(out.failure.has_value());
  EXPECT_EQ(out.failure->reason, robust::FailureReason::kBadModel);
  EXPECT_EQ(out.steps.size(), 1u);
  EXPECT_TRUE(out.steps[0].threw);
}

// ---------------------------------------------------------------------
// Crash-safe result cache.

class TempCacheDir {
 public:
  TempCacheDir() {
    dir_ = (std::filesystem::temp_directory_path() /
            ("dpm_fault_cache_" +
             std::to_string(::testing::UnitTest::GetInstance()
                                ->random_seed()) +
             "_" + ::testing::UnitTest::GetInstance()
                       ->current_test_info()
                       ->name()))
               .string();
    std::filesystem::remove_all(dir_);
  }
  ~TempCacheDir() { std::filesystem::remove_all(dir_); }
  const std::string& path() const { return dir_; }

 private:
  std::string dir_;
};

scenario::UnitOutput small_output() {
  scenario::UnitOutput out;
  out.lines.push_back("row one");
  out.values.emplace_back("objective", 42.5);
  return out;
}

TEST(CrashSafeCache, AtomicRenameFlushLeavesNoTempFile) {
  TempCacheDir tmp;
  scenario::ResultCache cache(tmp.path());
  cache.store(0xABCDEFull, "sc", "unit", small_output());
  ASSERT_TRUE(cache.flush());
  EXPECT_TRUE(std::filesystem::exists(cache.path()));
  EXPECT_FALSE(std::filesystem::exists(cache.path() + ".tmp"));

  scenario::ResultCache reload(tmp.path());
  reload.load();
  scenario::UnitOutput got;
  EXPECT_TRUE(reload.lookup(0xABCDEFull, got));
  EXPECT_EQ(got.lines, small_output().lines);
  EXPECT_EQ(reload.stats().rejected, 0u);
}

// A crash mid-flush leaves `<file>.tmp` behind and the previous store
// intact.  The loader must read the intact store and the next flush
// must replace the stale temp file.
TEST(CrashSafeCache, StaleTempFileFromACrashIsIgnored) {
  TempCacheDir tmp;
  {
    scenario::ResultCache cache(tmp.path());
    cache.store(1ull, "sc", "unit", small_output());
    ASSERT_TRUE(cache.flush());
  }
  {  // simulate a crash that died mid-write of the temp file
    std::ofstream half(std::filesystem::path(tmp.path()) / "cache.jsonl.tmp");
    half << "{\"truncated";
  }
  scenario::ResultCache cache(tmp.path());
  cache.load();
  scenario::UnitOutput got;
  EXPECT_TRUE(cache.lookup(1ull, got));  // intact store, not the wreck
  cache.store(2ull, "sc", "unit2", small_output());
  ASSERT_TRUE(cache.flush());
  EXPECT_FALSE(std::filesystem::exists(cache.path() + ".tmp"));
}

// kCacheLine injection poisons one byte of the serialized store on
// flush; the self-checksummed lines turn that into a dropped entry and
// a recompute, never a wrong replay.
TEST(CrashSafeCache, PoisonedLineIsDroppedOnLoad) {
  TempCacheDir tmp;
  {
    scenario::ResultCache cache(tmp.path());
    cache.store(99ull, "sc", "unit", small_output());
    FaultPlan plan;
    plan.site = FaultSite::kCacheLine;
    plan.fire_at = 1;
    FaultScope scope(plan);
    ASSERT_TRUE(cache.flush());
    EXPECT_EQ(scope.fired(), 1u);
  }
  scenario::ResultCache reload(tmp.path());
  reload.load();
  EXPECT_GE(reload.stats().rejected, 1u);
  scenario::UnitOutput got;
  EXPECT_FALSE(reload.lookup(99ull, got));  // poisoned -> miss -> recompute
}

// ---------------------------------------------------------------------
// ExperimentRunner: structured unit failures and retry recovery.

scenario::RunnerOptions quiet_smoke(std::size_t jobs) {
  scenario::RunnerOptions opts;
  opts.jobs = jobs;
  opts.smoke = true;
  opts.print = false;
  opts.write_json = false;
  return opts;
}

void expect_same_records(const scenario::ScenarioRunResult& got,
                         const scenario::ScenarioRunResult& want) {
  ASSERT_EQ(got.records.size(), want.records.size());
  for (std::size_t i = 0; i < got.records.size(); ++i) {
    EXPECT_EQ(got.records[i].name, want.records[i].name);
    EXPECT_EQ(got.records[i].iterations, want.records[i].iterations);
    EXPECT_EQ(got.records[i].objective, want.records[i].objective)
        << got.records[i].name;
  }
  EXPECT_EQ(got.values, want.values);
}

// A deadline fault is unrecoverable inside one attempt (the supervisor
// hard-stops on it), so it exercises the runner's bounded retry: the
// fault scope is armed once OUTSIDE the attempt loop, the consumed
// fault stays consumed, and the retry reproduces the fault-free records
// byte-for-byte — with a structured UnitFailure{recovered=true} record.
TEST(RunnerFaults, RetryRecoversAnInjectedDeadlineByteIdentically) {
  scenario::register_builtin();
  const scenario::Scenario* sc = scenario::find("example_a2");
  ASSERT_NE(sc, nullptr);
  const scenario::ScenarioRunResult clean =
      scenario::ExperimentRunner(quiet_smoke(1)).run_one(*sc);
  ASSERT_TRUE(clean.failures.empty());

  scenario::RunnerOptions opts = quiet_smoke(1);
  opts.fault = FaultSpec{FaultSite::kDeadline, /*window=*/1, /*count=*/1};
  opts.unit_retries = 2;
  const std::uint64_t fired_before = robust::faults_fired();
  const scenario::ScenarioRunResult out =
      scenario::ExperimentRunner(opts).run_one(*sc);

  EXPECT_TRUE(out.failures.empty());  // every unit ended clean
  expect_same_records(out, clean);
  if (robust::faults_fired() > fired_before) {
    ASSERT_FALSE(out.unit_failures.empty());
    for (const scenario::UnitFailure& uf : out.unit_failures) {
      EXPECT_TRUE(uf.recovered) << uf.unit;
      EXPECT_GE(uf.attempts, 2u) << uf.unit;
      EXPECT_FALSE(uf.detail.empty()) << uf.unit;
    }
  }
}

// --jobs N must reproduce --jobs 1 even under injection: plans are
// derived from the unit's identity, never from the worker thread.
TEST(RunnerFaults, JobsInvariantUnderInjection) {
  scenario::register_builtin();
  const scenario::Scenario* sc = scenario::find("fig09b_cpu");
  ASSERT_NE(sc, nullptr);
  scenario::RunnerOptions serial = quiet_smoke(1);
  serial.fault = FaultSpec{FaultSite::kFtranSpike, /*window=*/4, /*count=*/1};
  serial.unit_retries = 2;
  scenario::RunnerOptions parallel = serial;
  parallel.jobs = 4;
  const scenario::ScenarioRunResult a =
      scenario::ExperimentRunner(serial).run_one(*sc);
  const scenario::ScenarioRunResult b =
      scenario::ExperimentRunner(parallel).run_one(*sc);
  EXPECT_EQ(a.failures, b.failures);
  expect_same_records(a, b);
  ASSERT_EQ(a.unit_failures.size(), b.unit_failures.size());
  for (std::size_t i = 0; i < a.unit_failures.size(); ++i) {
    EXPECT_EQ(a.unit_failures[i].unit, b.unit_failures[i].unit);
    EXPECT_EQ(a.unit_failures[i].attempts, b.unit_failures[i].attempts);
    EXPECT_EQ(a.unit_failures[i].recovered, b.unit_failures[i].recovered);
  }
}

// An impossible per-unit wall-clock deadline with no retries must yield
// structured failures — a report, never a crashed pool.
TEST(RunnerFaults, ExpiredDeadlineYieldsStructuredUnitFailures) {
  scenario::register_builtin();
  const scenario::Scenario* sc = scenario::find("example_a2");
  ASSERT_NE(sc, nullptr);
  scenario::RunnerOptions opts = quiet_smoke(1);
  opts.unit_deadline_ms = 1e-6;  // expires at the first cooperative poll
  const scenario::ScenarioRunResult out =
      scenario::ExperimentRunner(opts).run_one(*sc);
  ASSERT_FALSE(out.unit_failures.empty());
  for (const scenario::UnitFailure& uf : out.unit_failures) {
    EXPECT_FALSE(uf.recovered) << uf.unit;
    EXPECT_EQ(uf.attempts, 1u) << uf.unit;
    EXPECT_NE(uf.detail.find("deadline"), std::string::npos) << uf.detail;
  }
}


// ---------------------------------------------------------------------
// Serving tier: faults fired inside a dpmd worker (ISSUE PR 9).

// One feasible fleet optimize request (variant 0, capacity 2, queue
// bound 0.45 — comfortably above the ~0.28 achievable minimum).
std::string fleet_optimize_line() {
  serve::Request r;
  r.id = "f0";
  r.op = serve::Op::kOptimize;
  r.model = serve::fleet_model_spec(0, /*queue_capacity=*/2);
  r.discount = 0.999;
  r.objective = "power";
  serve::ConstraintSpec queue;
  queue.metric = "queue_length";
  queue.bound = 0.45;
  r.constraints.push_back(queue);
  r.want_policy = true;
  return serve::format_request(r);
}

// A kDeadline fault fired inside a serve worker is a hard stop for that
// one request: the response is a typed "failed" body (never cached),
// the engine survives, and its next answer for the same line is
// byte-identical to an engine that never saw the fault.
TEST(ServeFaults, InjectedDeadlineIsATypedResponseAndTheWorkerSurvives) {
  const std::string line = fleet_optimize_line();
  serve::PolicyEngine clean{serve::EngineOptions{}};
  const std::string want = clean.handle_line(line);
  ASSERT_NE(want.find("\"status\":\"ok\""), std::string::npos) << want;

  serve::PolicyEngine engine{serve::EngineOptions{}};
  {
    FaultPlan plan;
    plan.site = FaultSite::kDeadline;
    plan.fire_at = 1;
    FaultScope scope(plan);
    const std::string failed = engine.handle_line(line);
    EXPECT_NE(failed.find("\"status\":\"failed\""), std::string::npos)
        << failed;
    EXPECT_NE(failed.find("deadline-expired"), std::string::npos) << failed;
    EXPECT_GE(scope.fired(), 1u);
  }
  EXPECT_EQ(engine.counters().failures, 1u);
  EXPECT_EQ(engine.counters().cold_solves, 0u);

  // Retry on the surviving engine: the failure was not cached, the
  // session basis was not corrupted, and the recomputed response is
  // indistinguishable from the uninjected engine's.
  EXPECT_EQ(engine.handle_line(line), want);
  EXPECT_EQ(engine.counters().failures, 1u);
  EXPECT_EQ(engine.counters().cold_solves, 1u);
}

// A request the tableau rung answers (every LU factorization faulted)
// gets no basis back.  Its session keeps the basis of its last
// revised-simplex answer, so the next request is still a warm near hit,
// and both answers match an engine that never saw the fault.
TEST(ServeFaults, TableauAnsweredRequestKeepsTheSessionWarm) {
  serve::Request r;
  r.op = serve::Op::kOptimize;
  r.model = serve::fleet_model_spec(0, /*queue_capacity=*/2);
  r.discount = 0.999;
  r.objective = "power";
  serve::ConstraintSpec queue;
  queue.metric = "queue_length";
  r.constraints.push_back(queue);
  const auto line_at = [&](double bound) {
    r.constraints[0].bound = bound;
    return serve::format_request(r);
  };
  const auto objective = [](const std::string& response) {
    const scenario::JsonValue doc = scenario::JsonValue::parse(response);
    EXPECT_EQ(doc.string_at("status"), "ok") << response;
    const scenario::JsonValue* v = doc.get("objective_per_step");
    return v != nullptr ? v->as_number() : 0.0;
  };

  serve::PolicyEngine clean{serve::EngineOptions{}};
  serve::PolicyEngine engine{serve::EngineOptions{}};
  EXPECT_EQ(engine.handle_line(line_at(0.45)), clean.handle_line(line_at(0.45)));
  {
    FaultPlan plan;
    plan.site = FaultSite::kLuFactorize;
    plan.fire_at = 1;
    plan.count = 1000000;
    FaultScope scope(plan);
    const double got = objective(engine.handle_line(line_at(0.5)));
    // One firing per revised-simplex rung: the tableau's answer is not
    // sent up the ladder a second time for a canonical finish.
    EXPECT_EQ(scope.fired(), 4u);
    const double want = objective(clean.handle_line(line_at(0.5)));
    EXPECT_NEAR(got, want, 1e-9 * std::abs(want));
  }
  const double got = objective(engine.handle_line(line_at(0.55)));
  const double want = objective(clean.handle_line(line_at(0.55)));
  EXPECT_NEAR(got, want, 1e-9 * std::abs(want));
  EXPECT_EQ(engine.counters().cold_solves, 1u);
  EXPECT_EQ(engine.counters().near_hits, 2u);
  EXPECT_EQ(engine.counters().failures, 0u);
}

// kCacheLine poisons the serialized response store on flush; on the
// next boot the checksummed loader drops the poisoned entry and the
// engine recomputes the response — byte-identical, never a wrong
// replay.
TEST(ServeFaults, PoisonedResponseCacheRecomputesByteIdentically) {
  TempCacheDir tmp;
  const std::string line = fleet_optimize_line();
  std::string first;
  {
    serve::EngineOptions opts;
    opts.cache_dir = tmp.path();
    serve::PolicyEngine engine(opts);
    first = engine.handle_line(line);
    ASSERT_NE(first.find("\"status\":\"ok\""), std::string::npos) << first;

    FaultPlan plan;
    plan.site = FaultSite::kCacheLine;
    plan.fire_at = 1;
    FaultScope scope(plan);
    ASSERT_TRUE(engine.flush_cache());
    EXPECT_EQ(scope.fired(), 1u);
  }

  serve::EngineOptions opts;
  opts.cache_dir = tmp.path();
  serve::PolicyEngine reload(opts);
  EXPECT_GE(reload.cache_stats().rejected, 1u);
  const std::string again = reload.handle_line(line);
  EXPECT_EQ(again, first);
  EXPECT_EQ(reload.counters().exact_hits, 0u);  // recomputed, not replayed
  EXPECT_EQ(reload.counters().cold_solves, 1u);
}

}  // namespace
}  // namespace dpm
