// google-benchmark microbenchmarks backing the paper's computational
// claims: "the solution of PO is computed in polynomial time by solving
// a linear optimization problem" and "its computation took less than
// 1 min" for the 66-state disk model (on a 1998 workstation; here it is
// milliseconds).
#include <benchmark/benchmark.h>

#include "cases/disk_drive.h"
#include "cases/example_system.h"
#include "cases/sensitivity.h"
#include "dpm/evaluation.h"
#include "dpm/optimizer.h"
#include "dpm/value_iteration.h"
#include "linalg/sparse_lu.h"
#include "lp/revised_simplex.h"
#include "serve/fleet.h"
#include "sim/simulator.h"
#include "trace/generators.h"
#include "trace/sr_extractor.h"

namespace {

using namespace dpm;

void BM_ComposeDiskModel(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(cases::DiskDrive::make_provider());
  }
}
BENCHMARK(BM_ComposeDiskModel);

void BM_BuildPolicyLp_Disk(benchmark::State& state) {
  const SystemModel m = cases::DiskDrive::make_model();
  const PolicyOptimizer opt(m, cases::DiskDrive::make_config(m, 0.999));
  for (auto _ : state) {
    benchmark::DoNotOptimize(opt.build_lp(
        metrics::power(m), {{metrics::queue_length(m), 0.5, "perf"}}));
  }
}
BENCHMARK(BM_BuildPolicyLp_Disk);

void BM_SolveDiskPolicy_Simplex(benchmark::State& state) {
  const SystemModel m = cases::DiskDrive::make_model();
  const PolicyOptimizer opt(m, cases::DiskDrive::make_config(m, 0.999));
  for (auto _ : state) {
    benchmark::DoNotOptimize(opt.minimize_power(0.5, 0.05));
  }
}
BENCHMARK(BM_SolveDiskPolicy_Simplex)->Unit(benchmark::kMillisecond);

// Polynomial scaling in the state count: SR memory k doubles the states.
void BM_SolvePolicy_ScalingInStates(benchmark::State& state) {
  const auto k = static_cast<std::size_t>(state.range(0));
  const std::vector<unsigned> stream =
      trace::gilbert_stream(100000, 0.05, 0.2, 3);
  const ServiceRequester sr =
      trace::extract_sr(stream, {.memory = k, .smoothing = 0.5});
  const SystemModel m = SystemModel::compose(
      cases::sensitivity::make_sp(cases::sensitivity::standard_sleep_states()),
      sr, 2);
  const PolicyOptimizer opt(m, cases::sensitivity::make_config(m, 1e3));
  for (auto _ : state) {
    benchmark::DoNotOptimize(opt.minimize_power(0.5));
  }
  state.counters["states"] = static_cast<double>(m.num_states());
}
BENCHMARK(BM_SolvePolicy_ScalingInStates)
    ->Arg(1)
    ->Arg(2)
    ->Arg(3)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond);

// Per-refactorization cost of a served-size basis: the optimal basis of
// the fleet LP dpmd solves for variant 2 at queue capacity 112 (453
// rows, gamma 0.999), refactorized from scratch in a loop.  A served
// cold solve refactorizes every 10-14 pivots, so this is the cost the
// simplex pays ~50 times per solve.
void BM_RefactorizeFleetBasis(benchmark::State& state) {
  const SystemModel m = serve::fleet_model_spec(2, 112).compose();
  OptimizerConfig config;
  config.discount = 0.999;
  const PolicyOptimizer opt(m, config);
  const lp::LpProblem problem = opt.build_lp(
      metrics::power(m), {{metrics::queue_length(m), 0.25 * 112.0, "queue"}});
  lp::SimplexBasis basis;
  if (lp::solve_revised_simplex(problem, {}, nullptr, &basis).status !=
      lp::LpStatus::kOptimal) {
    state.SkipWithError("fleet LP not optimal");
    return;
  }
  // The simplex's standard form: structural columns, one slack per
  // inequality row, one artificial per row (no row of this LP is a
  // singleton, so every row stays a basis row).
  const std::size_t rows = problem.num_constraints();
  const linalg::SparseMatrixCsc a = problem.constraint_csc();
  std::vector<linalg::SparseColumn> columns;
  for (std::size_t j = 0; j < problem.num_variables(); ++j) {
    linalg::SparseColumn& col = columns.emplace_back();
    for (std::size_t k = a.col_begin(j); k < a.col_end(j); ++k) {
      col.emplace_back(a.row_indices()[k], a.values()[k]);
    }
  }
  for (std::size_t i = 0; i < rows; ++i) {
    const lp::Sense sense = problem.constraints()[i].sense;
    if (sense != lp::Sense::kEq) {
      columns.push_back({{i, sense == lp::Sense::kLe ? 1.0 : -1.0}});
    }
  }
  for (std::size_t i = 0; i < rows; ++i) {
    columns.push_back({{i, problem.constraints()[i].rhs < 0.0 ? -1.0 : 1.0}});
  }
  linalg::BasisFactorization factor;
  for (auto _ : state) {
    benchmark::DoNotOptimize(factor.refactorize(rows, {columns, basis.basic}));
  }
  state.counters["rows"] = static_cast<double>(rows);
  state.counters["factor_nnz"] = static_cast<double>(factor.factor_nonzeros());
}
BENCHMARK(BM_RefactorizeFleetBasis)->Unit(benchmark::kMicrosecond);

void BM_ValueIteration_Example(benchmark::State& state) {
  const SystemModel m = cases::ExampleSystem::make_model();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        value_iteration(m, metrics::power(m), 0.99));
  }
}
BENCHMARK(BM_ValueIteration_Example);

void BM_ExactEvaluation_Disk(benchmark::State& state) {
  const SystemModel m = cases::DiskDrive::make_model();
  const Policy p = Policy::constant(m.num_states(), m.num_commands(),
                                    cases::DiskDrive::kGoActive);
  const linalg::Vector p0 = m.point_distribution({0, 0, 0});
  for (auto _ : state) {
    const PolicyEvaluation ev(m, p, 0.999, p0);
    benchmark::DoNotOptimize(ev.per_step(metrics::power(m)));
  }
}
BENCHMARK(BM_ExactEvaluation_Disk)->Unit(benchmark::kMillisecond);

void BM_Simulation_DiskSlices(benchmark::State& state) {
  const SystemModel m = cases::DiskDrive::make_model();
  sim::Simulator simulator(m);
  sim::GreedyController ctl(cases::DiskDrive::kGoStandby,
                            cases::DiskDrive::kGoActive);
  sim::SimulationConfig cfg;
  cfg.slices = 100000;
  for (auto _ : state) {
    benchmark::DoNotOptimize(simulator.run(ctl, cfg));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(cfg.slices));
}
BENCHMARK(BM_Simulation_DiskSlices)->Unit(benchmark::kMillisecond);

void BM_SrExtraction(benchmark::State& state) {
  const std::vector<unsigned> stream =
      trace::gilbert_stream(200000, 0.05, 0.2, 5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(trace::extract_sr(stream, {.memory = 2}));
  }
}
BENCHMARK(BM_SrExtraction);

}  // namespace

BENCHMARK_MAIN();
