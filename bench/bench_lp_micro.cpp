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
