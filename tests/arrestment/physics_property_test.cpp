// Physical plausibility properties of the closed-loop arrestment, swept
// over the workload envelope.
#include <gtest/gtest.h>

#include <vector>

#include "arrestment/constants.hpp"
#include "arrestment/environment.hpp"
#include "arrestment/system.hpp"
#include "arrestment/twonode.hpp"
#include "common/rng.hpp"
#include "fi/batched_bus.hpp"

namespace propane::arr {
namespace {

class PhysicsSweep : public ::testing::TestWithParam<double> {};

TEST_P(PhysicsSweep, StopDistanceGrowsWithVelocity) {
  const double mass = 14000.0;
  const RunOutcome slower =
      run_arrestment(TestCase{mass, GetParam() - 10.0});
  const RunOutcome faster = run_arrestment(TestCase{mass, GetParam()});
  ASSERT_TRUE(slower.arrested);
  ASSERT_TRUE(faster.arrested);
  EXPECT_GT(faster.stop_distance_m, slower.stop_distance_m);
}

TEST_P(PhysicsSweep, PulseCountMatchesPayoutDistance) {
  const RunOutcome outcome = run_arrestment(TestCase{12000, GetParam()});
  ASSERT_TRUE(outcome.arrested);
  const double pulses = outcome.trace.value(
      outcome.trace.sample_count() - 1, 6 /* pulscnt */);
  EXPECT_NEAR(pulses * kMetersPerPulse, outcome.stop_distance_m,
              outcome.stop_distance_m * 0.01 + 1.0);
}

TEST_P(PhysicsSweep, DecelerationStaysWithinTheLoadEnvelope) {
  for (double mass : {8000.0, 14000.0, 20000.0}) {
    const RunOutcome outcome = run_arrestment(TestCase{mass, GetParam()});
    EXPECT_LE(outcome.peak_decel, kMaxDecel * 1.2)
        << mass << " kg @ " << GetParam();
  }
}

TEST_P(PhysicsSweep, TwoNodeStopsWithinTheSameEnvelope) {
  // Both configurations command the same SetValue; the two half-force
  // channels of the distributed variant must arrest comparably.
  const TestCase tc{14000, GetParam()};
  const RunOutcome one = run_arrestment(tc);
  const RunOutcome two = run_two_node_arrestment(tc);
  ASSERT_TRUE(one.arrested);
  ASSERT_TRUE(two.arrested);
  EXPECT_NEAR(two.stop_distance_m, one.stop_distance_m,
              0.15 * one.stop_distance_m + 10.0);
}

INSTANTIATE_TEST_SUITE_P(Velocities, PhysicsSweep,
                         ::testing::Values(50.0, 60.0, 70.0, 80.0));

// The premise of the batch kernel's standstill closure for PACNT and TIC1
// (batch_system.hpp, "Early exit"): an environment at rest stays at rest
// and never writes either register again, whatever the valve command.
TEST(Standstill, EnvironmentAtRestStaysAtRestAndNeverPulses) {
  Rng rng(0x57111);
  for (const TestCase test_case : {TestCase{8000, 40}, TestCase{20000, 80}}) {
    fi::SignalBus bus;
    const BusMap map = build_bus(bus);
    Environment env(test_case, map);
    bus.write(map.toc2, 65535);
    std::uint64_t ms = 0;
    while (!env.at_rest()) {
      env.step(bus, ms++ * sim::kMillisecond);
      ASSERT_LT(ms, 60000u);
    }
    ASSERT_EQ(env.velocity_mps(), 0.0);

    // TOC2 over the whole 16-bit range, the rails included, in random
    // order so the applied pressure rises and falls. TIC1 holds a value
    // the timer does not read this tick, so a latch would show.
    std::vector<std::uint16_t> commands = {0, 65535};
    for (int n = 0; n < 2000; ++n) {
      commands.push_back(static_cast<std::uint16_t>(rng.bounded(65536)));
    }
    for (const std::uint16_t toc2 : commands) {
      const std::uint16_t pacnt = bus.read(map.pacnt);
      const auto tic1 = static_cast<std::uint16_t>(bus.read(map.tcnt) + 0x8000);
      bus.write(map.tic1, tic1);
      bus.write(map.toc2, toc2);
      env.step(bus, ms++ * sim::kMillisecond);
      ASSERT_EQ(env.velocity_mps(), 0.0) << toc2;
      ASSERT_EQ(bus.read(map.pacnt), pacnt) << toc2;
      ASSERT_EQ(bus.read(map.tic1), tic1) << toc2;
    }

    // The batched sweep, 64 lanes each under its own command: every lane
    // stays in the at-rest mask and keeps its PACNT and TIC1.
    constexpr std::size_t kLanes = 64;
    BatchedEnvironment batched(env, ms * sim::kMillisecond, map, kLanes);
    fi::BatchedSignalBus lanes(bus, kLanes);
    for (int t = 0; t < 500; ++t) {
      for (std::size_t l = 0; l < kLanes; ++l) {
        const std::uint16_t tcnt = lanes.read(map.tcnt, l);
        lanes.poke(map.tic1, l, static_cast<std::uint16_t>(tcnt + 0x8000));
        lanes.poke(map.toc2, l,
                   l == 0 ? std::uint16_t{65535}
                          : static_cast<std::uint16_t>(rng.bounded(65536)));
      }
      const std::vector<std::uint16_t> tic1(lanes.lane_values(map.tic1).begin(),
                                            lanes.lane_values(map.tic1).end());
      batched.step_lanes(lanes);
      ASSERT_EQ(batched.at_rest_lanes(), ~std::uint64_t{0}) << t;
      for (std::size_t l = 0; l < kLanes; ++l) {
        ASSERT_EQ(lanes.read(map.pacnt, l), bus.read(map.pacnt)) << l;
        ASSERT_EQ(lanes.read(map.tic1, l), tic1[l]) << l;
      }
    }
  }
}

}  // namespace
}  // namespace propane::arr
