// ShardedEngine unit tests: conservative lookahead windows, cross-shard
// mailbox delivery, and refusal of posts that would break the lookahead
// contract. The engine's full-protocol workloads (cross-shard multicast
// floods with 2 and 4 shards) are exercised by test_scale's
// ScaleSharding suite.
#include <gtest/gtest.h>

#include <functional>
#include <thread>

#include "sim/sharded.hpp"
#include "util/check.hpp"

namespace cesrm {
namespace {

TEST(ShardedEngine, WindowsAdvanceAndMailboxesDeliver) {
  // Two locations on two shards exchanging ping-pong events at exactly the
  // lookahead spacing: every hop crosses shards through a mailbox.
  sim::ShardedEngine engine({0, 1}, 2, sim::SimTime::millis(20));
  int pings = 0;
  std::function<void(int, int)> hop = [&](int from, int count) {
    if (count == 0) return;
    ++pings;
    const int to = 1 - from;
    engine.schedule_from(
        from, to, engine.sim(from).now() + sim::SimTime::millis(20),
        [&hop, to, count] { hop(to, count - 1); });
  };
  engine.sim(0).schedule_at(sim::SimTime::millis(1), [&hop] { hop(0, 50); });
  engine.run_until(sim::SimTime::seconds(5));
  EXPECT_EQ(pings, 50);
  EXPECT_GT(engine.windows_run(), 0u);
  EXPECT_EQ(engine.cross_shard_posts(), 50u);
  EXPECT_EQ(engine.sim(0).now(), sim::SimTime::seconds(5));
  EXPECT_EQ(engine.sim(1).now(), sim::SimTime::seconds(5));
}

TEST(ShardedEngine, RejectsPastCrossShardPosts) {
  sim::ShardedEngine engine({0, 1}, 2, sim::SimTime::millis(20));
  engine.sim(0).schedule_at(sim::SimTime::millis(5), [&engine] {
    // A cross-shard event inside the current window would violate the
    // lookahead contract; the engine must refuse rather than misorder.
    EXPECT_THROW(engine.schedule_from(0, 1, engine.sim(0).now(),
                                      [] {}),
                 util::CheckError);
  });
  engine.run_until(sim::SimTime::millis(10));
}

TEST(ShardedEngine, MultiShardRefusesANonPositiveLookahead) {
  EXPECT_THROW(sim::ShardedEngine({0, 1}, 2, sim::SimTime::zero()),
               util::CheckError);
  EXPECT_THROW(sim::ShardedEngine({0, 1}, 2, sim::SimTime::millis(-1)),
               util::CheckError);
}

TEST(ShardedEngine, OneShardRunsInlineWithoutWindows) {
  // One shard has nothing to synchronize: no lookahead, no windows, and
  // the events run on the caller's thread.
  sim::ShardedEngine engine(2);
  EXPECT_EQ(engine.shards(), 1);
  std::thread::id ran_on;
  int fired = 0;
  for (int i = 0; i < 3; ++i)
    engine.schedule_from(i % 2, 1 - i % 2, sim::SimTime::millis(i), [&] {
      ran_on = std::this_thread::get_id();
      ++fired;
    });
  engine.run_until(sim::SimTime::seconds(1));
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(ran_on, std::this_thread::get_id());
  EXPECT_EQ(engine.windows_run(), 0u);
  EXPECT_EQ(engine.cross_shard_posts(), 0u);
  EXPECT_EQ(engine.sim(0).now(), sim::SimTime::seconds(1));
}

}  // namespace
}  // namespace cesrm
