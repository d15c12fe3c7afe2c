// Unit tests for the six control modules, each driven directly on a bus.
#include <gtest/gtest.h>

#include <vector>

#include "arrestment/calc.hpp"
#include "arrestment/clock_module.hpp"
#include "arrestment/constants.hpp"
#include "arrestment/dist_s.hpp"
#include "arrestment/pres_a.hpp"
#include "arrestment/pres_s.hpp"
#include "arrestment/v_reg.hpp"
#include "common/rng.hpp"

namespace propane::arr {
namespace {

class ModulesTest : public ::testing::Test {
 protected:
  ModulesTest() : map_(build_bus(bus_)) {}

  fi::SignalBus bus_;
  BusMap map_;
};

// --- CLOCK -----------------------------------------------------------------

TEST_F(ModulesTest, ClockCountsMillisecondsAndSlots) {
  ClockModule clock(map_);
  for (int t = 1; t <= 15; ++t) {
    clock.step(bus_);
    EXPECT_EQ(bus_.read(map_.mscnt), t);
    EXPECT_EQ(bus_.read(map_.ms_slot_nbr), (t - 1) % kSlotCount);
  }
}

TEST_F(ModulesTest, ClockSlotErrorPersists) {
  ClockModule clock(map_);
  clock.step(bus_);  // slot 0
  bus_.poke(map_.ms_slot_nbr, 5);
  clock.step(bus_);
  EXPECT_EQ(bus_.read(map_.ms_slot_nbr), 6u);  // phase shifted for good
  clock.step(bus_);
  EXPECT_EQ(bus_.read(map_.ms_slot_nbr), 0u);
}

TEST_F(ModulesTest, ClockSlotRecoversModuloRangeEvenFromWildValues) {
  ClockModule clock(map_);
  bus_.poke(map_.ms_slot_nbr, 65000);
  clock.step(bus_);
  EXPECT_LT(bus_.read(map_.ms_slot_nbr), kSlotCount);
}

TEST_F(ModulesTest, BatchedClockMatchesScalarForEverySlotValue) {
  // Every 16-bit slot number and counter value, 64 lanes at a time,
  // corrupted values included: each lane must step exactly as the scalar
  // module does.
  ClockModule clock(map_);
  BatchedClock batched(map_);
  fi::BatchedSignalBus lanes(bus_, 64);
  for (std::uint32_t base = 0; base < 65536; base += 64) {
    for (std::size_t l = 0; l < 64; ++l) {
      const auto v = static_cast<std::uint16_t>(base + l);
      lanes.poke(map_.ms_slot_nbr, l, v);
      lanes.poke(map_.mscnt, l, v);
    }
    batched.step_lanes(lanes);
    for (std::size_t l = 0; l < 64; ++l) {
      const auto v = static_cast<std::uint16_t>(base + l);
      bus_.write(map_.ms_slot_nbr, v);
      bus_.write(map_.mscnt, v);
      clock.step(bus_);
      ASSERT_EQ(lanes.read(map_.ms_slot_nbr, l), bus_.read(map_.ms_slot_nbr))
          << v;
      ASSERT_EQ(lanes.read(map_.mscnt, l), bus_.read(map_.mscnt)) << v;
    }
  }
}

// --- DIST_S ----------------------------------------------------------------

TEST_F(ModulesTest, DistSAccumulatesPulseDeltas) {
  DistSModule dist(map_);
  bus_.write(map_.pacnt, 10);
  dist.step(bus_);
  EXPECT_EQ(bus_.read(map_.pulscnt), 10u);
  bus_.write(map_.pacnt, 17);
  dist.step(bus_);
  EXPECT_EQ(bus_.read(map_.pulscnt), 17u);
}

TEST_F(ModulesTest, DistSHandlesPacntWrap) {
  DistSModule dist(map_);
  bus_.write(map_.pacnt, 65530);
  dist.step(bus_);
  bus_.write(map_.pacnt, 4);  // +10 across the wrap
  dist.step(bus_);
  EXPECT_EQ(bus_.read(map_.pulscnt),
            static_cast<std::uint16_t>(65530 + 10));
}

TEST_F(ModulesTest, DistSPulscntErrorPersists) {
  DistSModule dist(map_);
  bus_.write(map_.pacnt, 5);
  dist.step(bus_);
  bus_.poke(map_.pulscnt, 1000);  // corrupt the shared accumulator
  bus_.write(map_.pacnt, 8);
  dist.step(bus_);
  EXPECT_EQ(bus_.read(map_.pulscnt), 1003u);  // error carried forward
}

TEST_F(ModulesTest, DistSSlowSpeedAfterPulseGap) {
  DistSModule dist(map_);
  bus_.write(map_.pacnt, 1);
  dist.step(bus_);
  EXPECT_EQ(bus_.read(map_.slow_speed), 0u);
  for (int t = 0; t < 12; ++t) dist.step(bus_);  // 12 quiet ticks
  EXPECT_EQ(bus_.read(map_.slow_speed), 0u);
  dist.step(bus_);  // 13th
  EXPECT_EQ(bus_.read(map_.slow_speed), 1u);
}

TEST_F(ModulesTest, DistSTimerPathFlagsSlowEarlier) {
  DistSModule dist(map_);
  bus_.write(map_.pacnt, 1);
  dist.step(bus_);
  // One quiet tick plus a large capture/timer distance.
  bus_.write(map_.tcnt, 30000);
  bus_.write(map_.tic1, 1000);
  dist.step(bus_);
  EXPECT_EQ(bus_.read(map_.slow_speed), 1u);
}

TEST_F(ModulesTest, DistSStoppedAfterLongGap) {
  DistSModule dist(map_);
  bus_.write(map_.pacnt, 1);
  dist.step(bus_);
  for (std::uint32_t t = 0; t < kStoppedGapMs - 1; ++t) dist.step(bus_);
  EXPECT_EQ(bus_.read(map_.stopped), 0u);
  dist.step(bus_);
  EXPECT_EQ(bus_.read(map_.stopped), 1u);
  // A new pulse clears both flags.
  bus_.write(map_.pacnt, 2);
  dist.step(bus_);
  EXPECT_EQ(bus_.read(map_.stopped), 0u);
  EXPECT_EQ(bus_.read(map_.slow_speed), 0u);
}

// The premises of the batch kernel's standstill closure (batch_system.hpp,
// "Early exit"): while PACNT holds, DIST_S keeps pulscnt and latches its
// flags, and its lane masks mark exactly the latched lanes.

TEST_F(ModulesTest, DistSAtConstantPacntKeepsPulscntAndLatchesItsFlags) {
  constexpr std::uint16_t kPacnts[] = {1, 4321, 65535};
  constexpr std::uint16_t kPulscnts[] = {0, 977, 65535};
  Rng rng(0xD157);
  for (const std::uint16_t pacnt : kPacnts) {
    for (const std::uint16_t pulscnt : kPulscnts) {
      DistSModule dist(map_);
      bus_.write(map_.pacnt, pacnt);
      dist.step(bus_);  // the last pulse
      bus_.write(map_.pulscnt, pulscnt);
      for (std::uint32_t quiet = 1; quiet <= kStoppedGapMs + 64; ++quiet) {
        // Any capture and timer values: only the pulse-free count may
        // latch the flags.
        bus_.write(map_.tic1, static_cast<std::uint16_t>(rng.bounded(65536)));
        bus_.write(map_.tcnt, static_cast<std::uint16_t>(rng.bounded(65536)));
        dist.step(bus_);
        ASSERT_EQ(bus_.read(map_.pulscnt), pulscnt) << quiet;
        if (quiet >= kSlowSpeedGapMs) {
          ASSERT_EQ(bus_.read(map_.slow_speed), 1u) << quiet;
        }
        ASSERT_EQ(bus_.read(map_.stopped), quiet >= kStoppedGapMs ? 1u : 0u)
            << quiet;
      }
    }
  }
}

TEST_F(ModulesTest, BatchedDistSStandstillMasksMarkTheLatchedLanes) {
  // 64 lanes, lane l taking its last pulse on tick 5 * l (lane 0 never
  // pulses).
  constexpr std::size_t kLanes = 64;
  DistSModule prototype(map_);
  BatchedDistS dist(map_, prototype, kLanes);
  fi::BatchedSignalBus lanes(bus_, kLanes);
  std::vector<std::uint32_t> quiet(kLanes, 0);
  for (std::uint32_t t = 1; t <= 5 * 63 + kStoppedGapMs + 8; ++t) {
    for (std::size_t l = 0; l < kLanes; ++l) {
      if (t <= 5 * l) {
        lanes.poke(map_.pacnt, l,
                   static_cast<std::uint16_t>(lanes.read(map_.pacnt, l) + 1));
      }
    }
    dist.step_lanes(lanes);
    std::uint64_t slow = 0;
    std::uint64_t stopped = 0;
    std::uint64_t stopped_flag = 0;
    for (std::size_t l = 0; l < kLanes; ++l) {
      quiet[l] = t <= 5 * l ? 0 : quiet[l] + 1;
      slow |= std::uint64_t{quiet[l] >= kSlowSpeedGapMs} << l;
      stopped |= std::uint64_t{quiet[l] >= kStoppedGapMs} << l;
      stopped_flag |= std::uint64_t{lanes.read(map_.stopped, l) != 0} << l;
    }
    ASSERT_EQ(dist.idle_lanes(lanes), ~std::uint64_t{0}) << t;
    ASSERT_EQ(dist.slow_latched_lanes(), slow) << t;
    ASSERT_EQ(dist.stopped_latched_lanes(), stopped) << t;
    ASSERT_EQ(stopped, stopped_flag) << t;
  }
  // A PACNT write after the sweep (an injection before the background
  // task) leaves its lane non-idle: the next sweep sees a pulse.
  for (const std::size_t l : {std::size_t{3}, std::size_t{40}}) {
    lanes.poke(map_.pacnt, l,
               static_cast<std::uint16_t>(lanes.read(map_.pacnt, l) + 1));
  }
  EXPECT_EQ(dist.idle_lanes(lanes),
            ~(std::uint64_t{1} << 3 | std::uint64_t{1} << 40));
}

// --- PRES_S ----------------------------------------------------------------

TEST_F(ModulesTest, PresSCopiesAdcToInValue) {
  PresSModule pres(map_);
  bus_.write(map_.adc, 12345);
  pres.step(bus_);
  EXPECT_EQ(bus_.read(map_.in_value), 12345u);
}

// --- CALC ------------------------------------------------------------------

TEST_F(ModulesTest, CalcIdlesBeforeFirstCheckpoint) {
  CalcModule calc(map_);
  bus_.write(map_.pulscnt,
             static_cast<std::uint16_t>(CalcModule::checkpoint_pulses(0) - 1));
  calc.step(bus_);
  EXPECT_EQ(bus_.read(map_.checkpoint_i), 0u);
  EXPECT_EQ(bus_.read(map_.set_value), 0u);
}

TEST_F(ModulesTest, CalcAdvancesCheckpointAndSetsPressure) {
  CalcModule calc(map_);
  bus_.write(map_.mscnt, 400);
  bus_.write(map_.pulscnt, CalcModule::checkpoint_pulses(0));
  calc.step(bus_);
  EXPECT_EQ(bus_.read(map_.checkpoint_i), 1u);
  EXPECT_GT(bus_.read(map_.set_value), 0u);
}

TEST_F(ModulesTest, CalcCheckpointThresholdsAreMonotone) {
  for (int i = 1; i < kCheckpointCount; ++i) {
    EXPECT_GT(CalcModule::checkpoint_pulses(i),
              CalcModule::checkpoint_pulses(i - 1));
  }
}

constexpr bool checkpoints_strictly_ascending() {
  for (int i = 1; i < kCheckpointCount; ++i) {
    if (!(kCheckpointM[i - 1] < kCheckpointM[i])) return false;
  }
  return true;
}
// CALC advances i one checkpoint at a time while pulscnt has reached the
// next one; with ascending checkpoints a held pulscnt stops it for good.
static_assert(checkpoints_strictly_ascending(),
              "checkpoint positions must be strictly ascending");

TEST_F(ModulesTest, CalcAtASettledCheckpointNeverChangesI) {
  // Settled: i >= kCheckpointCount (corrupted indices included) or
  // pulscnt below checkpoint i. With pulscnt held, no CALC step may move
  // i, whatever stopped, slow_speed and mscnt hold.
  Rng rng(0xCA1C);
  CalcModule calc(map_);
  const auto random16 = [&rng] {
    return static_cast<std::uint16_t>(rng.bounded(65536));
  };
  for (std::uint32_t i = 0; i < 65536; ++i) {
    const int samples = i < kCheckpointCount ? 512 : 1;
    for (int n = 0; n < samples; ++n) {
      std::uint16_t pulscnt = random16();
      if (i < kCheckpointCount) {
        const std::uint16_t threshold =
            CalcModule::checkpoint_pulses(static_cast<int>(i));
        pulscnt = n == 0 ? static_cast<std::uint16_t>(threshold - 1)
                         : static_cast<std::uint16_t>(
                               rng.bounded(threshold));
      }
      bus_.write(map_.checkpoint_i, static_cast<std::uint16_t>(i));
      bus_.write(map_.pulscnt, pulscnt);
      bus_.write(map_.stopped, rng.bounded(2) == 0 ? 0 : random16());
      bus_.write(map_.slow_speed, rng.bounded(2) == 0 ? 0 : random16());
      bus_.write(map_.mscnt, random16());
      calc.step(bus_);
      ASSERT_EQ(bus_.read(map_.checkpoint_i), i) << pulscnt;
    }
  }
}

TEST_F(ModulesTest, BatchedCalcSettledLanesAreTheScalarFixedPoints) {
  // Every 16-bit i against pulscnt values at each checkpoint edge: a lane
  // is settled exactly when a scalar CALC step with stopped clear leaves
  // its i as it is.
  std::vector<std::uint16_t> pulses = {0, 65535};
  for (int k = 0; k < kCheckpointCount; ++k) {
    const std::uint16_t threshold = CalcModule::checkpoint_pulses(k);
    for (const int d : {-1, 0, 1}) {
      pulses.push_back(static_cast<std::uint16_t>(threshold + d));
    }
  }
  constexpr std::size_t kLanes = 64;
  CalcModule calc(map_);
  BatchedCalc batched(map_, calc, kLanes);
  fi::BatchedSignalBus lanes(bus_, kLanes);
  for (const std::uint16_t pulscnt : pulses) {
    for (std::uint32_t base = 0; base < 65536; base += kLanes) {
      for (std::size_t l = 0; l < kLanes; ++l) {
        lanes.poke(map_.checkpoint_i, l, static_cast<std::uint16_t>(base + l));
        lanes.poke(map_.pulscnt, l, pulscnt);
      }
      const std::uint64_t settled = batched.settled_lanes(lanes);
      for (std::size_t l = 0; l < kLanes; ++l) {
        const auto i = static_cast<std::uint16_t>(base + l);
        bus_.write(map_.checkpoint_i, i);
        bus_.write(map_.pulscnt, pulscnt);
        bus_.write(map_.stopped, 0);
        calc.step(bus_);
        ASSERT_EQ((settled >> l & 1u) != 0, bus_.read(map_.checkpoint_i) == i)
            << "i=" << i << " pulscnt=" << pulscnt;
      }
    }
  }
}

TEST_F(ModulesTest, BatchedCalcStepMatchesScalarOnEveryEdge) {
  // Every 16-bit i, pulscnt at every checkpoint edge, stopped and
  // slow_speed at 0, 1 and a high bit, the set point at the creep cap's
  // edge, and random segment state: each lane's step must leave the set
  // point, i and the segment state exactly as the scalar module does.
  // Every combination meets every i below 64, where checkpoints are
  // reachable; above, the combinations rotate through the lanes.
  Rng rng(0xCA1D);
  const auto random16 = [&rng] {
    return static_cast<std::uint16_t>(rng.bounded(65536));
  };
  // Scalar modules carrying varied segment state: each passes a random
  // number of checkpoints at random pulse counts and clocks.
  std::vector<CalcModule> origins;
  for (int m = 0; m < 16; ++m) {
    CalcModule origin(map_);
    const int reached = static_cast<int>(rng.bounded(kCheckpointCount + 1));
    for (int k = 0; k < reached; ++k) {
      const std::uint16_t threshold = CalcModule::checkpoint_pulses(k);
      bus_.write(map_.checkpoint_i, static_cast<std::uint16_t>(k));
      bus_.write(map_.pulscnt, static_cast<std::uint16_t>(
                                   threshold + rng.bounded(200)));
      bus_.write(map_.mscnt, random16());
      bus_.write(map_.stopped, 0);
      origin.step(bus_);
    }
    origins.push_back(origin);
  }
  std::vector<std::uint16_t> pulses = {0, 65535};
  for (int k = 0; k < kCheckpointCount; ++k) {
    const std::uint16_t threshold = CalcModule::checkpoint_pulses(k);
    for (const int d : {-1, 0, 1}) {
      pulses.push_back(static_cast<std::uint16_t>(threshold + d));
    }
  }
  constexpr std::uint16_t kFlags[] = {0, 1, 0x8000};
  constexpr std::uint16_t kSetValues[] = {kSlowCreepSetValue - 1,
                                          kSlowCreepSetValue,
                                          kSlowCreepSetValue + 1};
  constexpr std::size_t kCombos = 27;  // stopped x slow_speed x set point

  // Half the lanes are under test on each sweep; after the sweep, the
  // other half holds the scalar module's stepped state for lane_equals.
  // The halves swap every sweep so both rows of lanes are exercised.
  constexpr std::size_t kLanes = 64;
  constexpr std::size_t kHalf = kLanes / 2;
  BatchedCalc batched(map_, origins.front(), kLanes);
  fi::BatchedSignalBus lanes(bus_, kLanes);
  std::vector<CalcModule> scalar(kHalf, origins.front());
  std::size_t sweep = 0;
  for (std::size_t p = 0; p < pulses.size(); ++p) {
    for (std::uint32_t base = 0; base < 65536; base += kHalf) {
      const std::size_t rounds = base < 64 ? kCombos : 1;
      for (std::size_t round = 0; round < rounds; ++round, ++sweep) {
        const std::size_t first = sweep % 2 == 0 ? 0 : kHalf;
        const std::size_t reference = kHalf - first;
        for (std::size_t j = 0; j < kHalf; ++j) {
          const std::size_t l = first + j;
          const std::size_t combo = (round + j + base / kHalf + p) % kCombos;
          const CalcModule& origin = origins[rng.bounded(origins.size())];
          scalar[j] = origin;
          batched.load_lane(l, origin);
          lanes.poke(map_.checkpoint_i, l,
                     static_cast<std::uint16_t>(base + j));
          lanes.poke(map_.pulscnt, l, pulses[p]);
          lanes.poke(map_.mscnt, l, random16());
          lanes.poke(map_.stopped, l, kFlags[combo % 3]);
          lanes.poke(map_.slow_speed, l, kFlags[combo / 3 % 3]);
          lanes.poke(map_.set_value, l, kSetValues[combo / 9]);
        }
        // The inputs, before the sweep overwrites i and the set point.
        const fi::BatchedSignalBus inputs = lanes;
        batched.step_lanes(lanes);
        for (std::size_t j = 0; j < kHalf; ++j) {
          const std::size_t l = first + j;
          for (const fi::BusSignalId id :
               {map_.checkpoint_i, map_.pulscnt, map_.mscnt, map_.stopped,
                map_.slow_speed, map_.set_value}) {
            bus_.write(id, inputs.read(id, l));
          }
          scalar[j].step(bus_);
          const std::size_t combo = (round + j + base / kHalf + p) % kCombos;
          const auto i = static_cast<std::uint16_t>(base + j);
          ASSERT_EQ(lanes.read(map_.set_value, l), bus_.read(map_.set_value))
              << "i=" << i << " pulscnt=" << pulses[p] << " combo=" << combo;
          ASSERT_EQ(lanes.read(map_.checkpoint_i, l),
                    bus_.read(map_.checkpoint_i))
              << "i=" << i << " pulscnt=" << pulses[p] << " combo=" << combo;
          batched.load_lane(reference + j, scalar[j]);
          ASSERT_TRUE(batched.lane_equals(l, reference + j))
              << "i=" << i << " pulscnt=" << pulses[p] << " combo=" << combo;
        }
      }
    }
  }
}

TEST_F(ModulesTest, CalcStoppedReleasesBrake) {
  CalcModule calc(map_);
  bus_.write(map_.set_value, 20000);
  bus_.write(map_.stopped, 1);
  calc.step(bus_);
  EXPECT_EQ(bus_.read(map_.set_value), 0u);
}

TEST_F(ModulesTest, CalcSlowSpeedCapsPressure) {
  CalcModule calc(map_);
  bus_.write(map_.set_value, 30000);
  bus_.write(map_.slow_speed, 1);
  calc.step(bus_);
  EXPECT_EQ(bus_.read(map_.set_value), kSlowCreepSetValue);
  // Already below the cap: untouched.
  bus_.write(map_.set_value, 100);
  calc.step(bus_);
  EXPECT_EQ(bus_.read(map_.set_value), 100u);
}

TEST_F(ModulesTest, CalcCorruptCheckpointIndexDisablesUpdates) {
  CalcModule calc(map_);
  bus_.write(map_.checkpoint_i, 6);  // all checkpoints done
  bus_.write(map_.pulscnt, 60000);
  calc.step(bus_);
  EXPECT_EQ(bus_.read(map_.checkpoint_i), 6u);
  EXPECT_EQ(bus_.read(map_.set_value), 0u);
  // A wildly corrupted index behaves like "done", not a crash.
  bus_.write(map_.checkpoint_i, 40000);
  calc.step(bus_);
  EXPECT_EQ(bus_.read(map_.checkpoint_i), 40000u);
}

TEST_F(ModulesTest, CalcFasterApproachCommandsMorePressure) {
  // Same checkpoint, shorter elapsed time => higher velocity estimate =>
  // higher pressure set point.
  fi::SignalBus bus2;
  const BusMap map2 = build_bus(bus2);
  CalcModule slow_calc(map_);
  CalcModule fast_calc(map2);

  bus_.write(map_.mscnt, 800);  // slower aircraft: longer time to cp 0
  bus_.write(map_.pulscnt, CalcModule::checkpoint_pulses(0));
  slow_calc.step(bus_);

  bus2.write(map2.mscnt, 200);
  bus2.write(map2.pulscnt, CalcModule::checkpoint_pulses(0));
  fast_calc.step(bus2);

  EXPECT_GT(bus2.read(map2.set_value), bus_.read(map_.set_value));
}

// --- V_REG -----------------------------------------------------------------

TEST_F(ModulesTest, VRegTracksSetValueAtEquilibrium) {
  VRegModule vreg(map_);
  bus_.write(map_.set_value, 20000);
  bus_.write(map_.in_value, 20000);
  vreg.step(bus_);
  EXPECT_EQ(bus_.read(map_.out_value), 20000u);
}

TEST_F(ModulesTest, VRegPushesHarderWhenPressureLow) {
  VRegModule vreg(map_);
  bus_.write(map_.set_value, 20000);
  bus_.write(map_.in_value, 10000);
  vreg.step(bus_);
  EXPECT_GT(bus_.read(map_.out_value), 20000u);
}

TEST_F(ModulesTest, VRegIntegratorAccumulates) {
  VRegModule vreg(map_);
  bus_.write(map_.set_value, 20000);
  bus_.write(map_.in_value, 19000);
  vreg.step(bus_);
  const std::uint16_t first = bus_.read(map_.out_value);
  vreg.step(bus_);
  EXPECT_GT(bus_.read(map_.out_value), first);  // integral action
}

TEST_F(ModulesTest, VRegOutputClampsToValidRange) {
  VRegModule vreg(map_);
  bus_.write(map_.set_value, 65535);
  bus_.write(map_.in_value, 0);
  for (int t = 0; t < 100; ++t) vreg.step(bus_);
  EXPECT_EQ(bus_.read(map_.out_value), 65535u);

  bus_.write(map_.set_value, 0);
  bus_.write(map_.in_value, 65535);
  for (int t = 0; t < 200; ++t) vreg.step(bus_);
  EXPECT_EQ(bus_.read(map_.out_value), 0u);
}

// --- PRES_A ----------------------------------------------------------------

TEST_F(ModulesTest, PresASlewsTowardsCommand) {
  PresAModule pres(map_);
  bus_.write(map_.out_value, 10000);
  pres.step(bus_);
  EXPECT_EQ(bus_.read(map_.toc2), kValveSlewPerMs);
  pres.step(bus_);
  EXPECT_EQ(bus_.read(map_.toc2), 2 * kValveSlewPerMs);
}

TEST_F(ModulesTest, PresAReachesTargetExactly) {
  PresAModule pres(map_);
  bus_.write(map_.out_value, 3000);
  pres.step(bus_);
  pres.step(bus_);
  EXPECT_EQ(bus_.read(map_.toc2), 3000u);
}

TEST_F(ModulesTest, PresADeadbandIgnoresSmallChanges) {
  PresAModule pres(map_);
  bus_.write(map_.out_value, 1000);
  pres.step(bus_);
  ASSERT_EQ(bus_.read(map_.toc2), 1000u);
  bus_.write(map_.out_value, 1000 + kValveDeadband);
  pres.step(bus_);
  EXPECT_EQ(bus_.read(map_.toc2), 1000u);  // within the deadband
  bus_.write(map_.out_value, 1000 + kValveDeadband + 1);
  pres.step(bus_);
  EXPECT_EQ(bus_.read(map_.toc2), 1000u + kValveDeadband + 1);
}

TEST_F(ModulesTest, PresASlewsDownward) {
  PresAModule pres(map_);
  bus_.write(map_.out_value, 10000);
  for (int t = 0; t < 4; ++t) pres.step(bus_);
  ASSERT_EQ(bus_.read(map_.toc2), 10000u);
  bus_.write(map_.out_value, 0);
  pres.step(bus_);
  EXPECT_EQ(bus_.read(map_.toc2), 10000u - kValveSlewPerMs);
}

}  // namespace
}  // namespace propane::arr
