// The unified run engine (sim/engine.hpp): serial fallback, parallel
// window execution, horizon enforcement, and the byte-identical
// serial-vs-parallel contract on a raw Simulator (no scenario layer —
// the executor alone is under test here).
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/engine.hpp"
#include "sim/simulator.hpp"

namespace d2dhb::sim {
namespace {

/// A deterministic multi-kernel workload: each shard ticks on its own
/// cadence and every tick posts a cross-shard event to the next shard
/// at a 60 ms latency (above the engine's 50 ms window). Every log
/// entry is appended by the kernel that owns its shard — single writer
/// per vector, serially and in parallel alike.
class RingWorkload {
 public:
  RingWorkload(Simulator& sim, int ticks)
      : sim_(sim), ticks_(ticks), logs_(sim.shard_count()) {
    for (std::uint32_t s = 0; s < sim_.shard_count(); ++s) {
      ShardGuard guard(sim_, s);
      schedule_tick(s, 0);
    }
  }

  const std::vector<std::vector<std::string>>& logs() const { return logs_; }

 private:
  void note(std::uint32_t shard, const std::string& what) {
    logs_[shard].push_back(
        what + " @us=" +
        std::to_string(to_microseconds(sim_.now() - TimePoint{})));
  }

  void schedule_tick(std::uint32_t shard, int i) {
    sim_.schedule_after(milliseconds(7 + shard), [this, shard, i] {
      note(shard, "tick " + std::to_string(i));
      const auto peer = static_cast<std::uint32_t>(
          (shard + 1) % sim_.shard_count());
      if (peer != shard) {
        sim_.post_after(peer, milliseconds(60), [this, peer, i] {
          note(peer, "mail " + std::to_string(i));
        });
      }
      if (i + 1 < ticks_) schedule_tick(shard, i + 1);
    });
  }

  static std::int64_t to_microseconds(Duration d) {
    return std::chrono::duration_cast<std::chrono::microseconds>(d).count();
  }

  Simulator& sim_;
  int ticks_;
  std::vector<std::vector<std::string>> logs_;
};

TEST(Engine, SerialFallbackMatchesRunUntil) {
  const TimePoint until = TimePoint{} + seconds(2);

  Simulator classic{4};
  RingWorkload classic_load{classic, 30};
  classic.run_until(until);

  Simulator engine{4};
  RingWorkload engine_load{engine, 30};
  const RunStats stats = run(engine, until);  // defaults: threads = 1

  EXPECT_EQ(stats.workers, 1u);
  EXPECT_EQ(stats.windows, 0u);
  EXPECT_EQ(engine.executed_events(), classic.executed_events());
  EXPECT_EQ(engine.now(), classic.now());
  EXPECT_EQ(engine_load.logs(), classic_load.logs());
}

TEST(Engine, ParallelRunIsByteIdenticalToSerial) {
  const TimePoint until = TimePoint{} + seconds(2);

  Simulator serial{4};
  RingWorkload serial_load{serial, 40};
  run(serial, until);

  Simulator parallel{4};
  RingWorkload parallel_load{parallel, 40};
  RunOptions options;
  options.threads = 4;
  const RunStats stats = run(parallel, until, options);

  EXPECT_EQ(stats.workers, 4u);
  EXPECT_GT(stats.windows, 0u);
  EXPECT_GT(stats.cross_posted, 0u);
  EXPECT_EQ(stats.cross_posted, stats.cross_delivered);
  EXPECT_EQ(parallel.executed_events(), serial.executed_events());
  EXPECT_EQ(parallel.now(), serial.now());
  EXPECT_EQ(parallel_load.logs(), serial_load.logs());
}

TEST(Engine, WorkerCountIsCappedByKernelCount) {
  // More threads than kernels: the pool holds one worker per kernel.
  Simulator sim{2};
  RingWorkload load{sim, 10};
  RunOptions options;
  options.threads = 8;
  const RunStats stats = run(sim, TimePoint{} + seconds(1), options);
  EXPECT_EQ(stats.workers, 2u);
  EXPECT_GT(stats.windows, 0u);
  EXPECT_EQ(stats.cross_posted, stats.cross_delivered);
}

// Satellite stress: a chain that posts cross-shard at EXACTLY the
// horizon boundary, from worker threads. Each hop executes at the head
// time M of its window; the engine's next target (and therefore the
// mailbox horizon) is M + window, and the hop posts its successor at
// precisely now + window == horizon. ShardMailbox must accept the
// boundary post (only strictly-below-horizon is a violation), deliver
// it in the NEXT window, and preserve order — for every one of the
// 200 hops. An audit interval of one event sweeps the invariants at
// every window barrier.
TEST(Engine, PostsAtExactHorizonBoundaryFromWorkers) {
  constexpr int kHops = 200;
  Simulator sim{4};
  std::vector<std::uint64_t> hops_per_shard(sim.shard_count(), 0);

  struct Chain {
    Simulator& sim;
    std::vector<std::uint64_t>& hops;
    Duration window;
    int remaining;

    void hop() {
      const std::uint32_t shard = sim.current_shard();
      ++hops[shard];
      if (remaining-- <= 0) return;
      const auto next =
          static_cast<std::uint32_t>((shard + 1) % sim.shard_count());
      // now + window is exactly the next window target == the horizon
      // the destination mailbox will hold after this round's drain.
      sim.post_after(next, window, [this] { hop(); });
    }
  };

  sim.set_audit_interval(1);
  RunOptions options;
  options.threads = 4;
  Chain chain{sim, hops_per_shard, options.window, kHops - 1};
  {
    ShardGuard guard(sim, 0);
    sim.schedule_at(TimePoint{} + seconds(1), [&chain] { chain.hop(); });
  }

  const TimePoint until =
      TimePoint{} + seconds(1) + (kHops + 2) * options.window;
  const RunStats stats = run(sim, until, options);

  std::uint64_t total = 0;
  for (std::uint64_t h : hops_per_shard) total += h;
  EXPECT_EQ(total, static_cast<std::uint64_t>(kHops));
  // Every hop after the first crossed a kernel border...
  EXPECT_EQ(stats.cross_posted, static_cast<std::uint64_t>(kHops - 1));
  EXPECT_EQ(stats.cross_posted, stats.cross_delivered);
  // ...with zero slack beyond the window itself.
  EXPECT_EQ(stats.min_slack_us, 50'000);
  EXPECT_GT(stats.windows, 0u);
}

// A window wider than the smallest cross-shard latency must fail
// loudly (the mailbox refuses below-horizon posts) instead of
// reordering the past — and the worker's exception must propagate to
// the caller.
TEST(Engine, TooWideWindowThrowsInsteadOfReordering) {
  Simulator sim{2};
  {
    ShardGuard guard(sim, 0);
    sim.schedule_at(TimePoint{} + seconds(1), [&sim] {
      sim.post_after(1, milliseconds(50), [] {});
    });
  }
  RunOptions options;
  options.threads = 2;
  options.window = seconds(1);  // >> the 50 ms post latency
  EXPECT_THROW(run(sim, TimePoint{} + seconds(5), options),
               std::logic_error);
}

TEST(Engine, RejectsBadArguments) {
  Simulator sim;
  sim.run_until(TimePoint{} + seconds(2));
  EXPECT_THROW(run(sim, TimePoint{} + seconds(1)), std::invalid_argument);
  RunOptions options;
  options.window = Duration::zero();
  EXPECT_THROW(run(sim, TimePoint{} + seconds(3), options),
               std::invalid_argument);
}

}  // namespace
}  // namespace d2dhb::sim
