// The unified run engine: one entrypoint that executes a Simulator to a
// target time, serially or on a pool of worker threads, behind a single
// RunOptions knob. Every driver — d2dhb_sim, the benches, SweepRunner
// scenarios — goes through sim::run(); the old hand-assembled
// Simulator::run_until / world::ShardedWorld::run_until pairing is
// gone (the deprecated shim was removed once its callers ported).
//
// Threading model: `workers = min(threads, kernel count)`
// threads each own the kernels `k % workers == w`. Execution proceeds
// in windows: at each barrier the main thread finds the earliest
// pending event or envelope time M, picks the window target
// `min(until, M + window)`, and releases the pool in two
// barrier-separated phases: every worker first drains its kernels'
// mailboxes up to the target (sorted (when, seq) delivery, horizons
// advanced while no kernel executes), then — after all drains have
// finished — executes those kernels strictly before the target.
// Workers meet at the final barrier, the world clock advances, and the
// cycle repeats — skipping idle stretches in one hop because the next
// M is read off the kernel heads.
//
// Why determinism survives: each kernel executes its own events in
// (when, seq) order regardless of what other kernels do concurrently;
// cross-kernel work arrives only through mailbox envelopes stamped with
// the sender's lane sequence number and delivered in sorted order at a
// barrier at least one window before they fire. The "no post below the
// horizon" rule is enforced by ShardMailbox itself, so a window wider
// than the smallest cross-shard latency fails loudly instead of
// reordering the past. Events exactly at `until` run in a final serial
// merge-step, identical to the classic executor.
#pragma once

#include <cstdint>
#include <vector>

#include "common/units.hpp"
#include "sim/profiler.hpp"
#include "sim/simulator.hpp"

namespace d2dhb::sim {

/// Execution knobs for sim::run(). Defaults reproduce the classic
/// single-threaded executor exactly. Window-barrier audits follow
/// Simulator::set_audit_interval (any non-zero interval audits there).
struct RunOptions {
  /// Worker threads. 1 (the default) runs the classic serial executor;
  /// the effective pool size is min(threads, kernel count). Never
  /// changes results (the byte-identical contract); the kernel count
  /// itself is fixed by the Simulator.
  std::size_t threads{1};
  /// Window width of the parallel executor. Must not exceed the
  /// smallest cross-shard latency (the backhaul's 50 ms default) —
  /// ShardMailbox refuses posts below its horizon, so a too-wide
  /// window throws instead of corrupting order.
  Duration window{milliseconds(50)};
  /// Caller-owned span recorder. When set, the run records runtime
  /// spans (window/drain/execute/barrier-wait), fills
  /// RunStats::profile and the registry's `runtime/` namespace, and
  /// leaves the merged spans in the recorder (Chrome trace export,
  /// tools/trace_report). Purely observational: a profiled run's
  /// deterministic metrics export is byte-identical to an unprofiled
  /// one (the profile-equivalence gate holds the engine to that).
  Profiler* profiler{nullptr};
};

/// What one engine run did. Counters are cumulative over the
/// simulator's lifetime (matching the old ShardedWorld::Stats).
struct RunStats {
  /// Window barriers crossed (0 for a serial run).
  std::uint64_t windows{0};
  /// Worker threads actually used (1 = serial).
  std::size_t workers{1};
  std::uint64_t cross_posted{0};
  std::uint64_t cross_delivered{0};
  /// Smallest cross-shard post slack in microseconds; INT64_MAX when
  /// nothing crossed a kernel border.
  std::int64_t min_slack_us{INT64_MAX};
  /// Process peak RSS (getrusage) when the run returned, in bytes —
  /// monotone over the process lifetime, so it measures the largest
  /// world this process has driven, not this run in isolation.
  std::uint64_t peak_rss_bytes{0};
  /// Per-shard event/delivery counts (cumulative, like the counters
  /// above). Deterministic — byte-identical across thread counts — so
  /// load imbalance stays visible with profiling off.
  std::vector<std::uint64_t> shard_events_executed;
  std::vector<std::uint64_t> shard_mailbox_delivered;
  /// Runtime profile (host wall-clock; enabled=false unless a
  /// RunOptions::profiler was passed).
  ProfileSummary profile;
};

/// Runs `sim` to `until` (inclusive, like Simulator::run_until) under
/// `options`. With an effective pool of one worker this IS
/// Simulator::run_until; with more it is the windowed parallel executor
/// described above, byte-identical to the serial run.
RunStats run(Simulator& sim, TimePoint until, const RunOptions& options = {});

}  // namespace d2dhb::sim
