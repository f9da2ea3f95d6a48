// Seeded-run equivalence across the parallel executor: the same crowd,
// run serially and on 2 and 4 worker threads, must produce
// byte-identical metrics exports. This is the contract that lets the
// parallel engine replace the monolithic simulator without perturbing
// any seeded result in the repo — each kernel replays its shard's
// events in (when, seq) order and mailbox drains are sorted, so the
// per-shard event sequence is provably independent of the worker
// count.
//
// The crowd spans a 480 m area, which the geometric partition cuts
// into four 120 m strips (one kernel each); every arm below therefore
// runs the SAME four-kernel world and only the executor varies.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>

#include "metrics/export.hpp"
#include "scenario/crowd.hpp"

namespace d2dhb::scenario {
namespace {

std::string metrics_json(const CrowdMetrics& m) {
  std::ostringstream os;
  metrics::export_json(m.metrics, os);
  return os.str();
}

// Four geometric strips (area 480 m / 120 m per strip), eight phone
// clusters spread across them: border clusters guarantee cross-kernel
// channel traffic in every run.
CrowdConfig striped_crowd(std::uint64_t seed) {
  CrowdConfig config;
  config.phones = 48;
  config.relay_fraction = 0.25;
  config.area_m = 480.0;
  config.clusters = 8;
  config.duration_s = 900.0;
  config.seed = seed;
  return config;
}

void expect_executor_invariance(const CrowdConfig& base, const char* what) {
  CrowdConfig serial = base;
  serial.threads = 1;
  const CrowdMetrics reference = run_d2d_crowd(serial);
  const std::string reference_json = metrics_json(reference);

  // 8 threads is more than the four kernels: the pool holds four.
  for (const std::size_t threads : {2u, 4u, 8u}) {
    CrowdConfig arm = base;
    arm.threads = threads;
    const CrowdMetrics parallel = run_d2d_crowd(arm);
    const std::string label =
        std::string(what) + " @ " + std::to_string(threads) + " threads";
    EXPECT_EQ(parallel.total_l3, reference.total_l3) << label;
    EXPECT_EQ(parallel.sim_events, reference.sim_events) << label;
    EXPECT_EQ(parallel.heartbeats_delivered, reference.heartbeats_delivered)
        << label;
    EXPECT_EQ(parallel.fallbacks, reference.fallbacks) << label;
    EXPECT_EQ(parallel.link_losses, reference.link_losses) << label;
    EXPECT_DOUBLE_EQ(parallel.total_radio_uah, reference.total_radio_uah)
        << label;
    // The full registry export — every counter, gauge, and histogram
    // the substrates registered — must serialize byte for byte the
    // same. Cross-shard mailbox counters deliberately live OUTSIDE the
    // registry so this comparison can hold exactly.
    EXPECT_EQ(metrics_json(parallel), reference_json) << label;
  }
}

TEST(ShardEquivalence, StaticCrowdIsByteIdentical) {
  expect_executor_invariance(striped_crowd(4242), "static crowd");
}

TEST(ShardEquivalence, MobileCrowdIsByteIdentical) {
  CrowdConfig config = striped_crowd(977);
  config.mobile = true;
  config.reassess_interval_s = 45.0;
  expect_executor_invariance(config, "mobile crowd");
}

TEST(ShardEquivalence, MulticellCrowdIsByteIdentical) {
  CrowdConfig config = striped_crowd(1313);
  config.cell_grid = 4;
  config.operator_policy = core::SelectionPolicy::coverage_greedy;
  expect_executor_invariance(config, "multicell crowd");
}

TEST(ShardEquivalence, OriginalSchemeIsByteIdentical) {
  CrowdConfig serial = striped_crowd(55);
  serial.threads = 1;
  CrowdConfig parallel = striped_crowd(55);
  parallel.threads = 4;
  const CrowdMetrics a = run_original_crowd(serial);
  const CrowdMetrics b = run_original_crowd(parallel);
  EXPECT_EQ(a.total_l3, b.total_l3);
  EXPECT_EQ(a.sim_events, b.sim_events);
  EXPECT_EQ(metrics_json(a), metrics_json(b));
}

// Arena-vs-heap: the SAME seeded crowd with per-object heap agent
// allocation (the ablation layout) must byte-match the pooled-arena
// reference — serially and at 2/4 worker threads, full registry
// export included. Memory layout must never leak into results.
TEST(ShardEquivalence, HeapAgentLayoutIsByteIdentical) {
  CrowdConfig pooled = striped_crowd(4242);
  pooled.threads = 1;
  const CrowdMetrics reference = run_d2d_crowd(pooled);
  const std::string reference_json = metrics_json(reference);

  for (const std::size_t threads : {1u, 2u, 4u}) {
    CrowdConfig heap = striped_crowd(4242);
    heap.heap_agents = true;
    heap.threads = threads;
    const CrowdMetrics arm = run_d2d_crowd(heap);
    const std::string label =
        "heap agents @ " + std::to_string(threads) + " threads";
    EXPECT_EQ(arm.total_l3, reference.total_l3) << label;
    EXPECT_EQ(arm.sim_events, reference.sim_events) << label;
    EXPECT_DOUBLE_EQ(arm.total_radio_uah, reference.total_radio_uah)
        << label;
    EXPECT_EQ(metrics_json(arm), reference_json) << label;
    // The layouts really differ: pooled reserves block-granular arena
    // memory, heap mode reserves exactly what it allocates.
    EXPECT_EQ(arm.arena_bytes_allocated, arm.arena_bytes_reserved) << label;
    EXPECT_GT(reference.arena_bytes_reserved,
              reference.arena_bytes_allocated)
        << "pooled reference";
  }
}

// The executor actually exercises the mailboxes: a crowd spanning four
// strips pushes every cellular delivery from strips 1..3 through the
// channel's home kernel, so cross-kernel traffic is guaranteed.
TEST(ShardEquivalence, CrossShardTrafficFlows) {
  CrowdConfig config = striped_crowd(4242);
  config.threads = 4;
  const CrowdMetrics m = run_d2d_crowd(config);
  EXPECT_GT(m.cross_shard_posted, 0u);
  EXPECT_EQ(m.cross_shard_posted, m.cross_shard_delivered);
  // Every cross-shard event is scheduled with a real latency ahead of
  // now, so the conservative lookahead is strictly positive.
  EXPECT_GT(m.cross_min_slack_us, 0);
  EXPECT_LT(m.cross_min_slack_us, INT64_MAX);
}

}  // namespace
}  // namespace d2dhb::scenario
