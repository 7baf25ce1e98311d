// Structural tests for the case-study models (Sec. VI) and the
// Appendix B sensitivity builders.
#include <gtest/gtest.h>

#include <cmath>

#include "cases/cpu_sa1100.h"
#include "cases/disk_drive.h"
#include "cases/example_system.h"
#include "cases/heuristics.h"
#include "cases/sensitivity.h"
#include "cases/web_server.h"
#include "markov/markov_chain.h"

namespace dpm::cases {
namespace {

// ---------------------------------------------------------------------
// Disk drive (Sec. VI-A)
// ---------------------------------------------------------------------

TEST(DiskDrive, TableIReproduced) {
  const auto& rows = DiskDrive::table_i();
  ASSERT_EQ(rows.size(), 5u);
  EXPECT_STREQ(rows[0].name, "active");
  EXPECT_DOUBLE_EQ(rows[0].power_w, 2.5);
  EXPECT_DOUBLE_EQ(rows[2].wake_time_ms, 40.0);
  EXPECT_DOUBLE_EQ(rows[4].power_w, 0.1);
}

TEST(DiskDrive, ElevenSpStatesFiveCommands) {
  const ServiceProvider sp = DiskDrive::make_provider();
  EXPECT_EQ(sp.num_states(), 11u);
  EXPECT_EQ(sp.commands().size(), 5u);
}

TEST(DiskDrive, ComposedModelHas66States) {
  const SystemModel m = DiskDrive::make_model();
  EXPECT_EQ(m.num_states(), 66u);  // 11 x 2 x 3, as in the paper
  for (std::size_t a = 0; a < m.num_commands(); ++a) {
    EXPECT_NO_THROW(markov::validate_stochastic(
        m.chain().to_dense(a), "disk", 1e-9));
  }
}

TEST(DiskDrive, WakeTimesMatchTableI) {
  // Expected transition times (Eq. 2) through the wake transients must
  // equal Table I's datasheet numbers (in ms, tau = 1 ms).
  const ServiceProvider sp = DiskDrive::make_provider();
  EXPECT_NEAR(sp.expected_transition_time(DiskDrive::kIdle,
                                          DiskDrive::kActive,
                                          DiskDrive::kGoActive),
              1.0, 1e-12);
  EXPECT_NEAR(sp.expected_transition_time(DiskDrive::kWakeLpIdle,
                                          DiskDrive::kActive,
                                          DiskDrive::kGoActive),
              40.0, 1e-9);
  EXPECT_NEAR(sp.expected_transition_time(DiskDrive::kWakeStandby,
                                          DiskDrive::kActive,
                                          DiskDrive::kGoActive),
              2200.0, 1e-9);
  EXPECT_NEAR(sp.expected_transition_time(DiskDrive::kWakeSleep,
                                          DiskDrive::kActive,
                                          DiskDrive::kGoActive),
              6000.0, 1e-9);
}

TEST(DiskDrive, TransientStatesAreUncontrollable) {
  const ServiceProvider sp = DiskDrive::make_provider();
  for (std::size_t a = 1; a < DiskDrive::kNumCommands; ++a) {
    for (const auto s : {DiskDrive::kWakeSleep, DiskDrive::kDownSleep}) {
      EXPECT_DOUBLE_EQ(sp.chain().transition(s, s, a),
                       sp.chain().transition(s, s, 0))
          << "transient " << s << " reacted to command " << a;
    }
  }
}

TEST(DiskDrive, TransientsDissipateActivePower) {
  const ServiceProvider sp = DiskDrive::make_provider();
  for (std::size_t s = DiskDrive::kWakeLpIdle; s <= DiskDrive::kDownSleep;
       ++s) {
    EXPECT_DOUBLE_EQ(sp.power(s, DiskDrive::kGoActive), 2.5);
    EXPECT_TRUE(sp.is_sleep_state(s));  // zero service rate
  }
}

TEST(DiskDrive, OnlyActiveServes) {
  const ServiceProvider sp = DiskDrive::make_provider();
  for (std::size_t s = 0; s < sp.num_states(); ++s) {
    for (std::size_t a = 0; a < sp.commands().size(); ++a) {
      if (s == DiskDrive::kActive && a == DiskDrive::kGoActive) {
        EXPECT_GT(sp.service_rate(s, a), 0.0);
      } else {
        EXPECT_DOUBLE_EQ(sp.service_rate(s, a), 0.0);
      }
    }
  }
}

TEST(DiskDrive, RequesterIsBursty) {
  const ServiceRequester sr = DiskDrive::make_requester();
  // Burst persistence: staying in the request state is more likely than
  // entering it from idle.
  EXPECT_GT(sr.chain().transition(1, 1), sr.chain().transition(0, 1));
}

// ---------------------------------------------------------------------
// Web server (Sec. VI-B)
// ---------------------------------------------------------------------

TEST(WebServer, EightComposedStates) {
  const SystemModel m = WebServer::make_model();
  EXPECT_EQ(m.num_states(), 8u);  // 4 SP x 2 SR, no queue
  EXPECT_EQ(m.num_commands(), 4u);
}

TEST(WebServer, ThroughputTable) {
  EXPECT_DOUBLE_EQ(WebServer::throughput(WebServer::kBothOn), 1.0);
  EXPECT_DOUBLE_EQ(WebServer::throughput(WebServer::kCpu1Only), 0.4);
  EXPECT_DOUBLE_EQ(WebServer::throughput(WebServer::kCpu2Only), 0.6);
  EXPECT_DOUBLE_EQ(WebServer::throughput(WebServer::kBothOff), 0.0);
  EXPECT_THROW(WebServer::throughput(7), ModelError);
}

TEST(WebServer, PowerTable) {
  const ServiceProvider sp = WebServer::make_provider();
  // Both on, commanded to stay: 1 + 2 = 3 W.
  EXPECT_DOUBLE_EQ(sp.power(WebServer::kBothOn, WebServer::kBothOn), 3.0);
  // Both off, commanded both on: turn-on costs (1+0.5) + (2+0.5).
  EXPECT_DOUBLE_EQ(sp.power(WebServer::kBothOff, WebServer::kBothOn), 4.0);
  // Both on, commanded both off: shutdown costs (1-0.5) + (2-0.5).
  EXPECT_DOUBLE_EQ(sp.power(WebServer::kBothOn, WebServer::kBothOff), 2.0);
  EXPECT_DOUBLE_EQ(sp.power(WebServer::kBothOff, WebServer::kBothOff), 0.0);
}

TEST(WebServer, TurnOnTakesTwoSlices) {
  const ServiceProvider sp = WebServer::make_provider();
  // From both-off toward both-on, each CPU flips on with p=0.5.
  EXPECT_NEAR(sp.chain().transition(WebServer::kBothOff, WebServer::kBothOn,
                                    WebServer::kBothOn),
              0.25, 1e-12);
  // Shut-down is deterministic in one slice.
  EXPECT_NEAR(sp.chain().transition(WebServer::kBothOn, WebServer::kBothOff,
                                    WebServer::kBothOff),
              1.0, 1e-12);
}

TEST(WebServer, ThroughputConstraintForm) {
  const SystemModel m = WebServer::make_model();
  const OptimizationConstraint c =
      WebServer::min_throughput_constraint(m, 0.5);
  // metric(-throughput) at a both-on state = -1.
  const std::size_t s = m.index_of({WebServer::kBothOn, 0, 0});
  EXPECT_DOUBLE_EQ(c.metric(s, WebServer::kBothOn), -1.0);
  EXPECT_DOUBLE_EQ(c.per_step_bound, -0.5);
}

// ---------------------------------------------------------------------
// CPU (Sec. VI-C)
// ---------------------------------------------------------------------

TEST(Cpu, ComposedModelShape) {
  const SystemModel m = CpuSa1100::make_model();
  EXPECT_EQ(m.num_states(), 6u);  // 3 SP x 2 SR, no queue
  EXPECT_EQ(m.num_commands(), 2u);
  for (std::size_t a = 0; a < 2; ++a) {
    EXPECT_NO_THROW(markov::validate_stochastic(
        m.chain().to_dense(a), "cpu", 1e-9));
  }
}

TEST(Cpu, ReactiveWakeupOnArrival) {
  const SystemModel m = CpuSa1100::make_model();
  // From (sleep, idle): if the SR moves to "request", the SP must enter
  // the waking transient regardless of the command.
  const std::size_t from = m.index_of({CpuSa1100::kSleep, 0, 0});
  for (std::size_t a = 0; a < 2; ++a) {
    const double to_waking =
        m.chain().transition(from, m.index_of({CpuSa1100::kWaking, 1, 0}), a);
    const double sr_move = m.requester().chain().transition(0, 1);
    EXPECT_NEAR(to_waking, sr_move, 1e-12) << "command " << a;
    // It can NOT stay asleep while requests arrive.
    EXPECT_DOUBLE_EQ(
        m.chain().transition(from, m.index_of({CpuSa1100::kSleep, 1, 0}), a),
        0.0);
  }
}

TEST(Cpu, ActiveIgnoresShutdownUnderLoad) {
  const SystemModel m = CpuSa1100::make_model();
  const std::size_t from = m.index_of({CpuSa1100::kActive, 1, 0});
  // While the SR keeps issuing requests, shutdown has no effect.
  const double stay = m.chain().transition(
      from, m.index_of({CpuSa1100::kActive, 1, 0}), CpuSa1100::kShutdown);
  EXPECT_NEAR(stay, m.requester().chain().transition(1, 1), 1e-12);
}

TEST(Cpu, ShutdownWorksWhenIdle) {
  const SystemModel m = CpuSa1100::make_model();
  const std::size_t from = m.index_of({CpuSa1100::kActive, 0, 0});
  const double to_sleep = m.chain().transition(
      from, m.index_of({CpuSa1100::kSleep, 0, 0}), CpuSa1100::kShutdown);
  const double sr_stay = m.requester().chain().transition(0, 0);
  EXPECT_NEAR(to_sleep, sr_stay * CpuSa1100::kTransitionProb, 1e-12);
}

TEST(Cpu, PenaltyMetricCountsSleepingUnderLoad) {
  const SystemModel m = CpuSa1100::make_model();
  const StateActionMetric pen = CpuSa1100::penalty(m);
  EXPECT_DOUBLE_EQ(pen(m.index_of({CpuSa1100::kSleep, 1, 0}), 0), 1.0);
  EXPECT_DOUBLE_EQ(pen(m.index_of({CpuSa1100::kWaking, 1, 0}), 0), 1.0);
  EXPECT_DOUBLE_EQ(pen(m.index_of({CpuSa1100::kActive, 1, 0}), 0), 0.0);
  EXPECT_DOUBLE_EQ(pen(m.index_of({CpuSa1100::kSleep, 0, 0}), 0), 0.0);
}

TEST(Cpu, PowerNumbers) {
  const ServiceProvider sp = CpuSa1100::make_provider();
  EXPECT_DOUBLE_EQ(sp.power(CpuSa1100::kActive, CpuSa1100::kRun), 0.3);
  EXPECT_DOUBLE_EQ(sp.power(CpuSa1100::kSleep, CpuSa1100::kRun), 0.0);
  EXPECT_DOUBLE_EQ(sp.power(CpuSa1100::kWaking, CpuSa1100::kRun), 0.9);
}

// ---------------------------------------------------------------------
// Sensitivity builders (Appendix B)
// ---------------------------------------------------------------------

TEST(Sensitivity, StandardSleepStates) {
  const auto& specs = sensitivity::standard_sleep_states();
  ASSERT_EQ(specs.size(), 4u);
  EXPECT_DOUBLE_EQ(specs[0].power_w, 2.0);
  EXPECT_DOUBLE_EQ(specs[3].wake_prob, 0.001);
}

TEST(Sensitivity, SpShape) {
  const ServiceProvider sp =
      sensitivity::make_sp(sensitivity::standard_sleep_states());
  EXPECT_EQ(sp.num_states(), 5u);   // active + 4 sleeps
  EXPECT_EQ(sp.commands().size(), 5u);
  EXPECT_EQ(sp.state_name(0), "active");
  EXPECT_EQ(sp.state_name(4), "sleep4");
}

TEST(Sensitivity, WakeTimes) {
  const ServiceProvider sp =
      sensitivity::make_sp(sensitivity::standard_sleep_states());
  EXPECT_NEAR(sp.expected_transition_time(2, 0, 0), 10.0, 1e-9);
  EXPECT_NEAR(sp.expected_transition_time(4, 0, 0), 1000.0, 1e-9);
}

TEST(Sensitivity, TransitionPowerCharged) {
  const ServiceProvider sp =
      sensitivity::make_sp({{"sleep1", 2.0, 1.0}});
  EXPECT_DOUBLE_EQ(sp.power(0, 0), 3.0);  // active staying active
  EXPECT_DOUBLE_EQ(sp.power(0, 1), 4.0);  // commanded down
  EXPECT_DOUBLE_EQ(sp.power(1, 0), 4.0);  // waking
  EXPECT_DOUBLE_EQ(sp.power(1, 1), 2.0);  // sleeping
}

TEST(Sensitivity, ComposedBaseline) {
  const SystemModel m =
      sensitivity::make_model({{"sleep1", 2.0, 1.0}}, 0.01, 2);
  EXPECT_EQ(m.num_states(), 2u * 2u * 3u);
  const OptimizerConfig cfg = sensitivity::make_config(m, 1e5);
  EXPECT_NEAR(cfg.discount, 1.0 - 1e-5, 1e-12);
  EXPECT_THROW(sensitivity::make_config(m, 0.5), ModelError);
}

TEST(Sensitivity, RequiresASleepState) {
  EXPECT_THROW(sensitivity::make_sp({}), ModelError);
}

// ---------------------------------------------------------------------
// Heuristic Markov policies
// ---------------------------------------------------------------------

TEST(Heuristics, EagerPolicyStructure) {
  const SystemModel m = ExampleSystem::make_model();
  const Policy p = eager_policy(m, ExampleSystem::kCmdOff,
                                ExampleSystem::kCmdOn);
  // Idle state: sleep command; busy state: wake command.
  EXPECT_EQ(p.command_for(m.index_of({0, 0, 0})), ExampleSystem::kCmdOff);
  EXPECT_EQ(p.command_for(m.index_of({0, 1, 0})), ExampleSystem::kCmdOn);
  EXPECT_EQ(p.command_for(m.index_of({0, 0, 1})), ExampleSystem::kCmdOn);
}

TEST(Heuristics, RandomizedShutdownValidation) {
  const SystemModel m = ExampleSystem::make_model();
  EXPECT_THROW(
      randomized_shutdown_policy(m, 1, 0, 1.5), ModelError);
  const Policy p = randomized_shutdown_policy(m, 1, 0, 0.25);
  EXPECT_NEAR(p.probability(m.index_of({0, 0, 0}), 1), 0.25, 1e-12);
}

TEST(Heuristics, RandomizedShutdownDegenerateCases) {
  const SystemModel m = ExampleSystem::make_model();
  // p = 0 is always-on; p = 1 is eager.
  const Policy p0 = randomized_shutdown_policy(m, 1, 0, 0.0);
  const Policy p1 = randomized_shutdown_policy(m, 1, 0, 1.0);
  const Policy eager = eager_policy(m, 1, 0);
  const Policy on = always_on_policy(m, 0);
  EXPECT_EQ(linalg::Matrix::max_abs_diff(p0.matrix(), on.matrix()), 0.0);
  EXPECT_EQ(linalg::Matrix::max_abs_diff(p1.matrix(), eager.matrix()), 0.0);
}

}  // namespace
}  // namespace dpm::cases
