#include "arrestment/environment.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <utility>

#include "arrestment/constants.hpp"
#include "fi/batched_bus.hpp"

namespace propane::arr {
namespace {

class EnvironmentTest : public ::testing::Test {
 protected:
  EnvironmentTest() : map_(build_bus(bus_)) {}

  void run_ms(Environment& env, int ms, int start_ms = 0) {
    for (int t = 0; t < ms; ++t) {
      env.step(bus_, static_cast<sim::SimTime>(start_ms + t) *
                         sim::kMillisecond);
    }
  }

  fi::SignalBus bus_;
  BusMap map_;
};

TEST_F(EnvironmentTest, CoastsWithOnlyFrictionWhenBrakeIdle) {
  Environment env(TestCase{10000, 60}, map_);
  run_ms(env, 1000);
  // Friction 400 N*s/m at ~60 m/s over 1 s: dv ~ 2.4 m/s.
  EXPECT_LT(env.velocity_mps(), 60.0);
  EXPECT_GT(env.velocity_mps(), 56.0);
  EXPECT_NEAR(env.position_m(), 59.0, 2.0);
}

TEST_F(EnvironmentTest, FullBrakeDeceleratesHard) {
  Environment env(TestCase{10000, 60}, map_);
  bus_.write(map_.toc2, 65535);
  run_ms(env, 1000);
  // 400 kN on 10 t: ~40 m/s^2 once the pressure has built up.
  EXPECT_LT(env.velocity_mps(), 30.0);
  EXPECT_GT(env.peak_decel(), 30.0);
}

TEST_F(EnvironmentTest, PressureFollowsCommandWithLag) {
  Environment env(TestCase{10000, 60}, map_);
  bus_.write(map_.toc2, 65535);
  run_ms(env, 25);  // half a time constant
  const double half_tau = env.pressure_pa() / kMaxPressurePa;
  EXPECT_GT(half_tau, 0.25);
  EXPECT_LT(half_tau, 0.55);
  run_ms(env, 475, 25);  // ~10 time constants total
  EXPECT_GT(env.pressure_pa() / kMaxPressurePa, 0.98);
}

TEST_F(EnvironmentTest, PulsesMatchDistance) {
  Environment env(TestCase{10000, 60}, map_);
  run_ms(env, 2000);
  const double expected_pulses = env.position_m() / kMetersPerPulse;
  EXPECT_NEAR(bus_.read(map_.pacnt), expected_pulses, 2.0);
}

TEST_F(EnvironmentTest, PacntAccumulatesInPlace) {
  Environment env(TestCase{10000, 60}, map_);
  run_ms(env, 100);
  const std::uint16_t before = bus_.read(map_.pacnt);
  // Corrupt the register: subsequent counting continues from the corrupt
  // value instead of overwriting it.
  bus_.poke(map_.pacnt, static_cast<std::uint16_t>(before + 1000));
  run_ms(env, 100, 100);
  EXPECT_GT(bus_.read(map_.pacnt), before + 1000);
}

TEST_F(EnvironmentTest, TcntIsOverwrittenEveryTick) {
  Environment env(TestCase{10000, 60}, map_);
  env.step(bus_, 5 * sim::kMillisecond);
  EXPECT_EQ(bus_.read(map_.tcnt), 5000u);
  bus_.poke(map_.tcnt, 12345);
  env.step(bus_, 6 * sim::kMillisecond);
  EXPECT_EQ(bus_.read(map_.tcnt), 6000u);  // corruption erased
}

TEST_F(EnvironmentTest, Tic1LatchesTimerAtPulses) {
  Environment env(TestCase{10000, 80}, map_);  // fast: pulses every tick
  run_ms(env, 50);
  // With >1 pulse per millisecond, TIC1 tracks TCNT closely.
  const std::uint16_t delta = static_cast<std::uint16_t>(
      bus_.read(map_.tcnt) - bus_.read(map_.tic1));
  EXPECT_LT(delta, 2000u);
}

TEST_F(EnvironmentTest, AdcReflectsAppliedPressure) {
  Environment env(TestCase{10000, 60}, map_);
  bus_.write(map_.toc2, 32768);
  run_ms(env, 1000);
  const double expected =
      env.pressure_pa() / kMaxPressurePa * 65535.0;
  EXPECT_NEAR(bus_.read(map_.adc), expected, 2.0);
}

TEST_F(EnvironmentTest, AircraftStopsAndStaysStopped) {
  Environment env(TestCase{8000, 40}, map_);
  bus_.write(map_.toc2, 65535);
  run_ms(env, 5000);
  EXPECT_TRUE(env.at_rest());
  const double position = env.position_m();
  run_ms(env, 100, 5000);
  EXPECT_DOUBLE_EQ(env.position_m(), position);
}

TEST_F(EnvironmentTest, NoPulsesOnceStopped) {
  Environment env(TestCase{8000, 40}, map_);
  bus_.write(map_.toc2, 65535);
  run_ms(env, 5000);
  ASSERT_TRUE(env.at_rest());
  const std::uint16_t pacnt = bus_.read(map_.pacnt);
  run_ms(env, 500, 5000);
  EXPECT_EQ(bus_.read(map_.pacnt), pacnt);
}

TEST_F(EnvironmentTest, HeavierAircraftDeceleratesSlower) {
  Environment light(TestCase{8000, 60}, map_);
  fi::SignalBus bus2;
  const BusMap map2 = build_bus(bus2);
  Environment heavy(TestCase{20000, 60}, map2);
  bus_.write(map_.toc2, 40000);
  bus2.write(map2.toc2, 40000);
  for (int t = 0; t < 2000; ++t) {
    light.step(bus_, static_cast<sim::SimTime>(t) * sim::kMillisecond);
    heavy.step(bus2, static_cast<sim::SimTime>(t) * sim::kMillisecond);
  }
  EXPECT_LT(light.velocity_mps(), heavy.velocity_mps());
}

TEST_F(EnvironmentTest, BatchedCommandedPressureMatchesScalarForEveryToc2) {
  // Every TOC2 value, 64 lanes a sweep, from three states: the brake's
  // first command (no applied pressure yet, so the commanded pressure
  // reaches the new pressure unblended and a one-ulp error in it shows),
  // mid-arrestment, and standing still (the batched sweep has no
  // `velocity > 0` select, so a lane at +0 must brake to +0 again, not
  // to -0 or above). Each lane's pressure and velocity bits and its
  // PACNT, TIC1 and ADC must equal the scalar step's.
  Environment engaged(TestCase{14000, 60}, map_);
  Environment braking = engaged;
  bus_.write(map_.toc2, 30000);
  run_ms(braking, 700);
  ASSERT_GT(braking.velocity_mps(), 0.0);
  ASSERT_GT(braking.pressure_pa(), 0.0);
  Environment stopped = braking;
  bus_.write(map_.toc2, 65535);
  int stop_ms = 700;
  for (; !stopped.at_rest(); ++stop_ms) {
    ASSERT_LT(stop_ms, 10000) << "the aircraft never stopped";
    stopped.step(bus_, static_cast<sim::SimTime>(stop_ms) * sim::kMillisecond);
  }
  ASSERT_EQ(std::bit_cast<std::uint64_t>(stopped.velocity_mps()), 0u);
  const fi::SignalBus origin_bus = bus_;
  constexpr std::size_t kLanes = 64;
  for (const auto& [origin, now] :
       {std::pair<const Environment&, sim::SimTime>{engaged, 0},
        std::pair<const Environment&, sim::SimTime>{
            braking, 700 * sim::kMillisecond},
        std::pair<const Environment&, sim::SimTime>{
            stopped, static_cast<sim::SimTime>(stop_ms) * sim::kMillisecond}}) {
    BatchedEnvironment batched(origin, now, map_, kLanes);
    for (std::uint32_t base = 0; base < 65536; base += kLanes) {
      fi::BatchedSignalBus lanes(origin_bus, kLanes);
      for (std::size_t l = 0; l < kLanes; ++l) {
        batched.load_lane(l, origin, now);
        lanes.poke(map_.toc2, l, static_cast<std::uint16_t>(base + l));
      }
      batched.step_lanes(lanes);
      for (std::size_t l = 0; l < kLanes; ++l) {
        const auto toc2 = static_cast<std::uint16_t>(base + l);
        Environment scalar = origin;
        bus_ = origin_bus;
        bus_.write(map_.toc2, toc2);
        scalar.step(bus_, now);
        ASSERT_EQ(batched.pressure_pa(l), scalar.pressure_pa()) << toc2;
        ASSERT_EQ(std::bit_cast<std::uint64_t>(batched.velocity_mps(l)),
                  std::bit_cast<std::uint64_t>(scalar.velocity_mps()))
            << toc2;
        for (const fi::BusSignalId id : {map_.pacnt, map_.tic1, map_.adc}) {
          ASSERT_EQ(lanes.read(id, l), bus_.read(id)) << toc2;
        }
      }
    }
  }
}

TEST_F(EnvironmentTest, BatchedLockstepMatchesScalarToStandstillAndAdcEnds) {
  // Brake 8 lanes in lockstep with the scalar step until the aircraft
  // stands still and the ADC reads full scale, then release until the
  // ADC reads 0: the sweep's own clamp brings velocity to +0 and keeps it
  // there, and the ADC, which reuses the brake's pressure quotient, meets
  // both ends of its range. Every tick, each lane's pressure and velocity
  // bits and its sensor registers must equal the scalar step's.
  constexpr std::size_t kLanes = 8;
  Environment scalar(TestCase{8000, 40}, map_);
  BatchedEnvironment batched(scalar, 0, map_, kLanes);
  fi::BatchedSignalBus lanes(bus_, kLanes);
  int ms = 0;
  for (const std::uint16_t toc2 : {std::uint16_t{65535}, std::uint16_t{0}}) {
    for (bool reached = false; !reached; ++ms) {
      ASSERT_LT(ms, 20000) << "TOC2 " << toc2 << " never took effect";
      for (std::size_t l = 0; l < kLanes; ++l) lanes.poke(map_.toc2, l, toc2);
      batched.step_lanes(lanes);
      bus_.write(map_.toc2, toc2);
      scalar.step(bus_, static_cast<sim::SimTime>(ms) * sim::kMillisecond);
      for (std::size_t l = 0; l < kLanes; ++l) {
        ASSERT_EQ(batched.pressure_pa(l), scalar.pressure_pa()) << ms;
        ASSERT_EQ(std::bit_cast<std::uint64_t>(batched.velocity_mps(l)),
                  std::bit_cast<std::uint64_t>(scalar.velocity_mps()))
            << ms;
        for (const fi::BusSignalId id :
             {map_.pacnt, map_.tic1, map_.tcnt, map_.adc}) {
          ASSERT_EQ(lanes.read(id, l), bus_.read(id)) << ms;
        }
      }
      reached = bus_.read(map_.adc) == toc2 &&
                (toc2 == 0 || scalar.at_rest());
    }
  }
  EXPECT_EQ(std::bit_cast<std::uint64_t>(batched.velocity_mps(0)), 0u);
}

}  // namespace
}  // namespace propane::arr
