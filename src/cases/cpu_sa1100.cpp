#include "cases/cpu_sa1100.h"

#include "trace/generators.h"
#include "trace/sr_extractor.h"

namespace dpm::cases {

ServiceProvider CpuSa1100::make_provider() {
  CommandSet commands({"run", "shutdown"});
  ServiceProvider::Builder b(kNumStates, std::move(commands));
  b.state_name(kActive, "active")
      .state_name(kSleep, "sleep")
      .state_name(kWaking, "waking");

  // Baseline (no-request) dynamics; the reactive override below replaces
  // these rows whenever requests are incoming.
  // run: stay put everywhere (a sleeping CPU wakes only on requests).
  b.transition(kRun, kActive, kActive, 1.0);
  b.transition(kRun, kSleep, kSleep, 1.0);
  // shutdown: geometric 2-slice shut-down from active; no effect asleep.
  b.transition(kShutdown, kActive, kSleep, kTransitionProb);
  b.transition(kShutdown, kActive, kActive, 1.0 - kTransitionProb);
  b.transition(kShutdown, kSleep, kSleep, 1.0);
  // The waking transient is uncontrollable and uninterruptible.
  for (std::size_t cmd = 0; cmd < kNumCommands; ++cmd) {
    b.transition(cmd, kWaking, kActive, kTransitionProb);
    b.transition(cmd, kWaking, kWaking, 1.0 - kTransitionProb);
  }

  // The CPU handles any request arriving while active (no queue).
  b.service_rate(kActive, kRun, 1.0);
  b.service_rate(kActive, kShutdown, 1.0);

  b.power(kActive, kRun, kActivePower);
  b.power(kActive, kShutdown, kShutdownPower);
  b.power(kSleep, kRun, kSleepPower);
  b.power(kSleep, kShutdown, kSleepPower);
  b.power(kWaking, kRun, kWakePower);
  b.power(kWaking, kShutdown, kWakePower);
  return std::move(b).build();
}

SpTransitionOverride CpuSa1100::make_override(const ServiceProvider& sp) {
  // Capture the baseline chain by value (matrices are small).
  const markov::SparseControlledChain chain = sp.chain();
  return [chain](std::size_t from, std::size_t to, std::size_t command,
                 std::size_t sr_to) -> double {
    const bool requests_incoming = sr_to == 1;  // two-state SR: state 1
    if (!requests_incoming) {
      return chain.transition(from, to, command);
    }
    // Requests incoming: the SP ignores PM commands.
    switch (from) {
      case kActive:  // keeps running regardless of shutdown commands
        return to == kActive ? 1.0 : 0.0;
      case kSleep:  // unconditional turn-on begins
        return to == kWaking ? 1.0 : 0.0;
      case kWaking:  // transition continues
        if (to == kActive) return kTransitionProb;
        if (to == kWaking) return 1.0 - kTransitionProb;
        return 0.0;
      default:
        return 0.0;
    }
  };
}

std::vector<unsigned> CpuSa1100::make_trace(std::size_t slices,
                                            std::uint64_t seed) {
  return trace::editing_stream(slices, seed);
}

ServiceRequester CpuSa1100::make_requester(std::uint64_t seed) {
  const std::vector<unsigned> stream = make_trace(200000, seed);
  return trace::extract_sr(stream, {.memory = 1, .smoothing = 0.0});
}

SystemModel CpuSa1100::make_model_from_stream(
    const std::vector<unsigned>& stream) {
  ServiceProvider sp = make_provider();
  SpTransitionOverride ov = make_override(sp);
  ServiceRequester sr = trace::extract_sr(stream, {.memory = 1});
  return SystemModel::compose(std::move(sp), std::move(sr),
                              /*queue_capacity=*/0, std::move(ov));
}

SystemModel CpuSa1100::make_model(std::uint64_t seed) {
  ServiceProvider sp = make_provider();
  SpTransitionOverride ov = make_override(sp);
  return SystemModel::compose(std::move(sp), make_requester(seed),
                              /*queue_capacity=*/0, std::move(ov));
}

OptimizerConfig CpuSa1100::make_config(const SystemModel& model,
                                       double gamma) {
  OptimizerConfig cfg;
  cfg.discount = gamma;
  cfg.initial_distribution =
      model.point_distribution({kActive, /*sr=*/0, /*q=*/0});
  return cfg;
}

StateActionMetric CpuSa1100::penalty(const SystemModel& model) {
  return metrics::active_request_while_sleeping(model);
}

}  // namespace dpm::cases
