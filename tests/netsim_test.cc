#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <vector>

#include "netsim/nat.h"
#include "netsim/packet.h"
#include "netsim/path.h"
#include "netsim/sim.h"

namespace painter::netsim {
namespace {

TEST(SimulatorTest, EventsRunInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.Schedule(2.0, [&] { order.push_back(2); });
  sim.Schedule(1.0, [&] { order.push_back(1); });
  sim.Schedule(3.0, [&] { order.push_back(3); });
  sim.Run(10.0);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.ExecutedEvents(), 3u);
}

TEST(SimulatorTest, FifoAmongEqualTimestamps) {
  Simulator sim;
  std::vector<int> order;
  sim.Schedule(1.0, [&] { order.push_back(1); });
  sim.Schedule(1.0, [&] { order.push_back(2); });
  sim.Schedule(1.0, [&] { order.push_back(3); });
  sim.Run(10.0);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(SimulatorTest, RunStopsAtDeadline) {
  Simulator sim;
  bool late = false;
  sim.Schedule(5.0, [&] { late = true; });
  sim.Run(4.0);
  EXPECT_FALSE(late);
  EXPECT_DOUBLE_EQ(sim.Now(), 4.0);
  sim.Run(6.0);
  EXPECT_TRUE(late);
}

TEST(SimulatorTest, NestedScheduling) {
  Simulator sim;
  int hits = 0;
  std::function<void()> tick = [&] {
    ++hits;
    if (hits < 5) sim.Schedule(1.0, tick);
  };
  sim.Schedule(0.0, tick);
  sim.Run(100.0);
  EXPECT_EQ(hits, 5);
  EXPECT_DOUBLE_EQ(sim.Now(), 100.0);
}

TEST(SimulatorTest, NegativeDelayThrows) {
  Simulator sim;
  EXPECT_THROW(sim.Schedule(-1.0, [] {}), std::invalid_argument);
}

TEST(SimulatorTest, PastAbsoluteTimeThrows) {
  Simulator sim;
  sim.Schedule(5.0, [] {});
  sim.Run(5.0);
  EXPECT_THROW(sim.ScheduleAt(4.0, [] {}), std::invalid_argument);
}

TEST(SimulatorTest, IntegerClockQuantizesToNearestMicrosecond) {
  Simulator sim;
  SimTime seen = 0;
  // 0.1 is not representable in binary; ten accumulated doubles sum to
  // 0.9999999999999999. The integer clock rounds each *delay* to the grid,
  // so ten relative 0.1 s steps land on exactly 1'000'000 µs.
  std::function<void()> step = [&] {
    seen = sim.NowUs();
    if (seen < 1'000'000) sim.Schedule(0.1, step);
  };
  sim.Schedule(0.1, step);
  sim.Run(10.0);
  EXPECT_EQ(seen, 1'000'000u);

  EXPECT_EQ(UsFromSeconds(0.1), 100'000u);
  EXPECT_EQ(UsFromSeconds(0.9999999999999999), 1'000'000u);  // round, not trunc
  EXPECT_THROW(UsFromSeconds(-0.5), std::invalid_argument);
}

TEST(SimulatorTest, ScheduleAtUsRunsOnExactGrid) {
  Simulator sim;
  std::vector<SimTime> fired;
  for (SimTime k = 1; k <= 5; ++k) {
    sim.ScheduleAtUs(k * 250'000, [&fired, &sim] { fired.push_back(sim.NowUs()); });
  }
  sim.RunUntilUs(2'000'000);
  EXPECT_EQ(fired, (std::vector<SimTime>{250'000, 500'000, 750'000,
                                         1'000'000, 1'250'000}));
  EXPECT_EQ(sim.NowUs(), 2'000'000u);
}

TEST(SimulatorTest, MoveOnlyHandlersRun) {
  Simulator sim;
  auto token = std::make_unique<int>(41);
  int result = 0;
  // A unique_ptr capture makes the lambda move-only; the old
  // std::function-based queue could not even compile this.
  sim.Schedule(1.0, [token = std::move(token), &result] { result = *token + 1; });
  sim.Run(2.0);
  EXPECT_EQ(result, 42);
}

// Counts live copies of itself, so a test can see every handler destroyed.
struct Tracked {
  explicit Tracked(int* live) : live(live) { ++*live; }
  Tracked(const Tracked& o) : live(o.live) { ++*live; }
  Tracked(Tracked&& o) noexcept : live(o.live) { ++*live; }
  Tracked& operator=(const Tracked&) = delete;
  ~Tracked() { --*live; }
  int* live;
};

TEST(SimulatorTest, HandlerLargerThanInlineStorageRuns) {
  Simulator sim;
  int live = 0;
  std::array<std::uint64_t, 16> payload{};
  static_assert(sizeof(payload) > Simulator::kInlineBytes);
  for (std::size_t k = 0; k < payload.size(); ++k) payload[k] = k * k;
  std::uint64_t sum = 0;
  sim.Schedule(1.0, [payload, &sum, t = Tracked{&live}] {
    for (const std::uint64_t v : payload) sum += v;
  });
  EXPECT_EQ(live, 1);
  sim.Run(2.0);
  EXPECT_EQ(sum, 1240u);  // sum of k^2 for k < 16
  EXPECT_EQ(live, 0);
  EXPECT_EQ(sim.ExecutedEvents(), 1u);
}

// A handler that schedules enough events to add slot chunks while it runs
// keeps running in place: its captured state is read after the growth.
TEST(SimulatorTest, HandlerGrowingSlotStorageWhileRunning) {
  Simulator sim;
  std::vector<int> order;
  const std::vector<int> own{7, 8, 9};
  sim.Schedule(1.0, [&sim, &order, own] {
    for (int k = 0; k < 1000; ++k) {
      sim.Schedule(1.0, [&order, k] { order.push_back(k); });
    }
    EXPECT_EQ(sim.PendingEvents(), 1000u);
    for (const int v : own) order.push_back(-v);
  });
  sim.Run(10.0);
  ASSERT_EQ(order.size(), 1003u);
  EXPECT_EQ(order[0], -7);
  EXPECT_EQ(order[2], -9);
  for (int k = 0; k < 1000; ++k) EXPECT_EQ(order[3 + k], k);
  EXPECT_EQ(sim.ExecutedEvents(), 1001u);
}

TEST(SimulatorTest, PendingHandlersAreDestroyedWithTheSimulator) {
  int live = 0;
  {
    Simulator sim;
    std::array<char, 200> big{};
    for (int k = 0; k < 100; ++k) {
      sim.Schedule(static_cast<double>(k), [t = Tracked{&live}] {});
      sim.Schedule(static_cast<double>(k), [big, t = Tracked{&live}] {});
    }
    EXPECT_EQ(live, 200);
    sim.Run(49.5);  // runs times 0..49: 100 handlers
    EXPECT_EQ(live, 100);
    EXPECT_EQ(sim.PendingEvents(), 100u);
  }
  EXPECT_EQ(live, 0);
}

TEST(SimulatorTest, ThrowingHandlerIsConsumedAndRunContinues) {
  Simulator sim;
  int live = 0;
  std::vector<int> order;
  sim.Schedule(1.0, [&order] { order.push_back(1); });
  sim.Schedule(2.0, [t = Tracked{&live}] { throw std::runtime_error{"boom"}; });
  sim.Schedule(3.0, [&order] { order.push_back(3); });
  EXPECT_THROW(sim.Run(10.0), std::runtime_error);
  EXPECT_EQ(live, 0);  // the throwing handler was destroyed
  EXPECT_EQ(sim.ExecutedEvents(), 2u);
  EXPECT_EQ(sim.PendingEvents(), 1u);
  EXPECT_EQ(sim.NowUs(), 2'000'000u);
  sim.Run(10.0);
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
  EXPECT_EQ(sim.ExecutedEvents(), 3u);
  // The freed slot is reused.
  sim.Schedule(1.0, [&order] { order.push_back(4); });
  sim.Run(20.0);
  EXPECT_EQ(order, (std::vector<int>{1, 3, 4}));
}

// Slots come back to the free list in run order, not insertion order; the
// order among equal timestamps is still insertion order.
TEST(SimulatorTest, FifoAmongEqualTimestampsAcrossReusedSlots) {
  Simulator sim;
  std::vector<int> order;
  for (int k = 0; k < 150; ++k) {
    sim.ScheduleAtUs(static_cast<SimTime>((k * 37) % 150 + 1), [] {});
  }
  sim.RunUntilUs(75);  // frees a scattered half of the slots
  for (int k = 0; k < 200; ++k) {
    sim.ScheduleAtUs(1'000, [&order, k] { order.push_back(k); });
  }
  sim.RunUntilUs(2'000);
  ASSERT_EQ(order.size(), 200u);
  for (int k = 0; k < 200; ++k) EXPECT_EQ(order[k], k);
}

TEST(PacketTest, EncapOverheadCounted) {
  Packet p;
  p.payload_bytes = 1400;
  EXPECT_EQ(p.WireBytes(), 1400u);
  p.outer = FlowKey{};
  EXPECT_EQ(p.WireBytes(), 1400u + Packet::kEncapOverheadBytes);
}

TEST(FlowKeyTest, HashAndEquality) {
  FlowKey a{.src_ip = 1, .dst_ip = 2, .src_port = 3, .dst_port = 4};
  FlowKey b = a;
  EXPECT_EQ(a, b);
  b.src_port = 5;
  EXPECT_NE(a, b);
  std::unordered_map<FlowKey, int> m;
  m[a] = 1;
  m[b] = 2;
  EXPECT_EQ(m.size(), 2u);
}

TEST(NatTest, BindIsStablePerFlow) {
  NatTable nat{{0xC0000201}};
  FlowKey f{.src_ip = 10, .dst_ip = 20, .src_port = 1000, .dst_port = 443};
  const auto b1 = nat.Bind(f);
  const auto b2 = nat.Bind(f);
  ASSERT_TRUE(b1.has_value());
  ASSERT_TRUE(b2.has_value());
  EXPECT_EQ(b1->nat_port, b2->nat_port);
  EXPECT_EQ(nat.ActiveBindings(), 1u);
}

TEST(NatTest, LookupReturnsClientFlow) {
  NatTable nat{{0xC0000201}};
  FlowKey f{.src_ip = 10, .dst_ip = 20, .src_port = 1000, .dst_port = 443};
  const auto b = nat.Bind(f);
  ASSERT_TRUE(b.has_value());
  const auto back = nat.Lookup(b->nat_ip, b->nat_port);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, f);
}

TEST(NatTest, DistinctFlowsDistinctPorts) {
  NatTable nat{{0xC0000201}};
  FlowKey f1{.src_ip = 10, .dst_ip = 20, .src_port = 1000, .dst_port = 443};
  FlowKey f2{.src_ip = 10, .dst_ip = 20, .src_port = 1001, .dst_port = 443};
  const auto b1 = nat.Bind(f1);
  const auto b2 = nat.Bind(f2);
  EXPECT_NE(std::make_pair(b1->nat_ip, b1->nat_port),
            std::make_pair(b2->nat_ip, b2->nat_port));
}

TEST(NatTest, ReleaseFreesSlot) {
  NatTable nat{{0xC0000201}};
  FlowKey f{.src_ip = 10, .dst_ip = 20, .src_port = 1000, .dst_port = 443};
  const auto b = nat.Bind(f);
  EXPECT_TRUE(nat.Release(f));
  EXPECT_FALSE(nat.Release(f));
  EXPECT_FALSE(nat.Lookup(b->nat_ip, b->nat_port).has_value());
  EXPECT_EQ(nat.ActiveBindings(), 0u);
}

TEST(NatTest, CapacityIs65kPerIp) {
  NatTable one{{1}};
  EXPECT_EQ(one.Capacity(), NatTable::kPortsPerIp);
  NatTable three{{1, 2, 3}};
  EXPECT_EQ(three.Capacity(), 3 * NatTable::kPortsPerIp);
}

TEST(NatTest, ExhaustionReturnsNullopt) {
  // Tiny capacity via a single IP: fill a few thousand and verify behavior
  // at the boundary using a reduced test through release/rebind cycling.
  NatTable nat{{1}};
  std::size_t bound = 0;
  for (std::uint32_t i = 0; i < NatTable::kPortsPerIp; ++i) {
    FlowKey f{.src_ip = i + 1, .dst_ip = 20, .src_port = 80, .dst_port = 443};
    if (nat.Bind(f).has_value()) ++bound;
  }
  EXPECT_EQ(bound, NatTable::kPortsPerIp);
  FlowKey extra{.src_ip = 999999, .dst_ip = 20, .src_port = 81,
                .dst_port = 443};
  EXPECT_FALSE(nat.Bind(extra).has_value());
  // Release one, the slot becomes available again.
  FlowKey f0{.src_ip = 1, .dst_ip = 20, .src_port = 80, .dst_port = 443};
  EXPECT_TRUE(nat.Release(f0));
  EXPECT_TRUE(nat.Bind(extra).has_value());
}

TEST(NatTest, NoExternalIpThrows) {
  EXPECT_THROW(NatTable{{}}, std::invalid_argument);
}

TEST(PathTest, FixedAlwaysUp) {
  const auto p = PathModel::Fixed(0.01);
  EXPECT_DOUBLE_EQ(p.OneWayDelay(0.0).value(), 0.01);
  EXPECT_DOUBLE_EQ(p.OneWayDelay(1e9).value(), 0.01);
}

TEST(PathTest, UpThenDownCutsOver) {
  const auto p = PathModel::UpThenDown(0.01, 60.0);
  EXPECT_TRUE(p.OneWayDelay(59.999).has_value());
  EXPECT_FALSE(p.OneWayDelay(60.0).has_value());
  EXPECT_FALSE(p.OneWayDelay(100.0).has_value());
}

TEST(PathTest, PiecewiseSegments) {
  const auto p = PathModel::Piecewise({
      {.start_s = 0.0, .delay_s = 0.015},
      {.start_s = 60.0, .delay_s = std::nullopt},
      {.start_s = 61.0, .delay_s = 0.032},
      {.start_s = 75.0, .delay_s = 0.024},
  });
  EXPECT_DOUBLE_EQ(p.OneWayDelay(10.0).value(), 0.015);
  EXPECT_FALSE(p.OneWayDelay(60.5).has_value());
  EXPECT_DOUBLE_EQ(p.OneWayDelay(61.0).value(), 0.032);
  EXPECT_DOUBLE_EQ(p.OneWayDelay(100.0).value(), 0.024);
}

TEST(PathTest, PiecewiseValidation) {
  EXPECT_THROW(PathModel::Piecewise({}), std::invalid_argument);
  EXPECT_THROW(PathModel::Piecewise({{.start_s = 5.0, .delay_s = 0.1},
                                     {.start_s = 1.0, .delay_s = 0.1}}),
               std::invalid_argument);
}

TEST(PathTest, DefaultPathIsDown) {
  PathModel p;
  EXPECT_FALSE(p.OneWayDelay(0.0).has_value());
}

}  // namespace
}  // namespace painter::netsim
