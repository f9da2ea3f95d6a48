// World context for the discrete-event core.
//
// The slot/generation/heap machinery lives in sim::EventKernel; the
// Simulator is the world wrapped around it — the global clock and time
// epoch, the unified metrics registry, the invariant-audit harness, and
// (new with the partition-ready split) the set of event kernels plus the
// ShardMailboxes that connect them.
//
// A default-constructed Simulator owns exactly one kernel and behaves
// byte-identically to the pre-split monolith. Constructed with N > 1
// shards, it runs N kernels on one thread by merge-stepping: each step
// drains every mailbox into its destination kernel, then executes the
// kernel whose head event has the globally smallest (when, seq). Each
// kernel draws sequence numbers from its own lane (kernel k of N draws
// k, k+N, k+2N, ...), so draws are globally unique without a shared
// counter — which is what lets the parallel executor (sim/engine.hpp)
// run the same kernels on worker threads. Cross-shard deliveries keep
// their original sequence number and mailbox drains deliver in sorted
// (when, seq) order, so each kernel executes its own events in the same
// order as the 1-shard run would have — and therefore every metric is
// identical for ANY partition of the nodes. That is the byte-identical
// contract the shard-equivalence CI gate enforces.
//
// Thread-awareness: while a worker thread executes a kernel's window
// (run_shard_before), a thread-local execution context routes now(),
// time_epoch(), current_shard(), schedule_* and post_* to that kernel,
// so substrate code is oblivious to whether it runs serially or on a
// worker. Outside any execution context the world-level members answer,
// exactly as before the parallel executor existed.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/units.hpp"
#include "sim/event_kernel.hpp"
#include "sim/shard_mailbox.hpp"

namespace d2dhb::metrics {
class MetricsRegistry;
}

namespace d2dhb::sim {

namespace detail {
/// Thread-local execution context: which simulator/kernel the current
/// thread is executing a window for. Installed by run_shard_before();
/// null outside the parallel executor (serial behaviour is unchanged).
struct ExecContext {
  const void* sim{nullptr};
  std::uint32_t shard{0};
};
inline thread_local constinit ExecContext exec_context{};
}  // namespace detail

class Simulator {
 public:
  using Callback = EventKernel::Callback;

  /// `shards` kernels share one clock, one sequence counter, and one
  /// metrics registry; shards > 1 adds one ShardMailbox per kernel.
  explicit Simulator(std::size_t shards = 1);
  ~Simulator();
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulated time. Starts at the epoch (t = 0). Serially this
  /// is the world clock — the time of the most recently executed event
  /// across all kernels. On a worker thread executing a kernel's window
  /// it is that kernel's clock, which during a callback equals the
  /// executing event's time — the same value the serial run would see.
  TimePoint now() const {
    if (in_exec_context()) {
      return kernels_[detail::exec_context.shard]->now();
    }
    return now_;
  }

  /// Monotone counter bumped whenever simulated time advances — the
  /// refresh key for time-lazy caches (the mobility::SpatialGrid world
  /// index checks its moving nodes' re-bin deadlines at most once per
  /// epoch, so every proximity query within one event instant shares a
  /// single refresh).
  /// On a worker thread this is the executing kernel's epoch; epochs
  /// only key caches together with the query time, so kernel-local and
  /// world-level epochs are interchangeable (time equality is what
  /// makes a cache hit valid).
  std::uint64_t time_epoch() const {
    if (in_exec_context()) {
      return kernels_[detail::exec_context.shard]->time_epoch();
    }
    return time_epoch_;
  }

  /// The world's unified metrics registry. Every substrate constructed
  /// against this simulator registers its counters/gauges here, keyed by
  /// (node, cell, component) labels — one queryable tree per run.
  metrics::MetricsRegistry& metrics() { return *metrics_; }
  const metrics::MetricsRegistry& metrics() const { return *metrics_; }

  // --- Sharding -----------------------------------------------------------

  std::size_t shard_count() const { return kernels_.size(); }

  /// The shard whose kernel is executing (or, outside of step(), the
  /// shard that schedule_at/schedule_after will target). Shard 0 hosts
  /// world-global machinery (server, cells) by convention. On a worker
  /// thread this is the kernel the thread is executing.
  std::uint32_t current_shard() const { return active_shard(); }

  /// Redirects subsequent schedule_* calls to `shard`'s kernel. Setup
  /// code (Scenario::add_phone) uses this — via ShardGuard — so each
  /// agent's timers are created on its home kernel; during event
  /// execution the executing kernel is selected automatically.
  void set_scheduling_shard(std::uint32_t shard);

  EventKernel& kernel(std::uint32_t shard);
  ShardMailbox& mailbox(std::uint32_t shard);

  /// Schedules `fn` onto `shard` at absolute time `when` (>= now()).
  /// Same-shard posts schedule directly; cross-shard posts go through
  /// the destination's mailbox under a freshly drawn global sequence
  /// number, so the event fires exactly where a direct schedule would
  /// have placed it. Fire-and-forget: cross-shard events have no kernel
  /// slot until delivery, so no EventId is returned — only events that
  /// are never cancelled (in-flight transfers, deliveries) may cross.
  void post_to(std::uint32_t shard, TimePoint when, Callback fn);
  void post_after(std::uint32_t shard, Duration delay, Callback fn);

  /// Smallest (when - now) over every cross-shard post so far, in
  /// microseconds — the conservative lookahead actually available to a
  /// windowed executor. INT64_MAX when nothing has crossed shards.
  std::int64_t cross_min_slack_us() const;

  // --- Parallel-executor hooks (see sim/engine.hpp) -----------------------

  /// Executes `shard`'s kernel strictly before `t` (then advances its
  /// clock to `t`) with this thread's execution context installed, so
  /// callbacks see the kernel-local now()/current_shard(). Safe to call
  /// concurrently for distinct shards; this is the per-window work unit
  /// of the parallel executor.
  void run_shard_before(std::uint32_t shard, TimePoint t);

  /// Advances the world clock (not the kernels) to `t` (>= now()); the
  /// executor calls this at each window barrier so audits and end-of-
  /// run accounting see a consistent world time.
  void advance_world_to(TimePoint t);

  // --- Scheduling (current shard) -----------------------------------------

  /// Schedules `fn` at absolute time `t` (must be >= now()).
  EventId schedule_at(TimePoint t, Callback fn);

  /// Schedules `fn` after `delay` (must be >= 0).
  EventId schedule_after(Duration delay, Callback fn);

  /// Cancels a pending event. Safe to call for already-fired or already-
  /// cancelled events; returns whether the event was still pending. The
  /// id's shard bits route it to the kernel that issued it.
  bool cancel(EventId id);

  /// Executes the globally next event (smallest (when, seq) across all
  /// kernels, after draining mailboxes), advancing the world clock.
  /// Returns false if every kernel and mailbox was empty.
  bool step();

  /// Runs until the queues drain or `max_events` have executed.
  void run(std::uint64_t max_events = UINT64_MAX);

  /// Runs events with time <= `t`, then advances the world clock and
  /// every kernel clock to exactly `t` (so idle intervals at the end of
  /// an experiment are accounted for).
  void run_until(TimePoint t);

  std::uint64_t executed_events() const;
  /// Number of live (scheduled, not yet fired or cancelled) events,
  /// including cross-shard events still waiting in mailboxes.
  std::size_t pending_events() const;

  // --- Invariant auditing -------------------------------------------------
  //
  // The audit layer re-derives the bookkeeping from scratch and throws
  // AuditError on any mismatch: each kernel's slot/heap cross-references
  // and ordering property, each mailbox's (when, seq) sort and horizon
  // invariants, kernel clocks never ahead of the world clock. Substrates
  // (WifiDirectMedium, NodeTable consumers) register their own auditors;
  // all auditors run together every `audit_interval` executed events.
  // Builds configured with -DD2DHB_AUDIT=ON enable the periodic sweep by
  // default; it is off in normal builds (audit() itself is always
  // available for tests).

  /// External invariant check, run after the kernel self-audits.
  using Auditor = std::function<void()>;

  /// Registers `fn`; returns a token for remove_auditor(). Auditors run
  /// in registration order.
  std::uint64_t add_auditor(Auditor fn);
  void remove_auditor(std::uint64_t token);

  /// Runs the kernel and mailbox self-audits plus every registered
  /// auditor once. Throws AuditError or whatever the auditor throws.
  void audit() const;

  /// Audits automatically every `every_n_events` executed events
  /// (0 disables). D2DHB_AUDIT builds default to kDefaultAuditInterval.
  void set_audit_interval(std::uint64_t every_n_events) {
    audit_interval_ = every_n_events;
  }
  std::uint64_t audit_interval() const { return audit_interval_; }

  static constexpr std::uint64_t kDefaultAuditInterval = 2048;

  /// Test-only: zeroes a kernel-0 slot's generation counter so audit()
  /// trips its "generation must be non-zero" invariant. Never call
  /// outside tests.
  void debug_corrupt_slot_generation(std::uint32_t slot);

 private:
  /// Delivers pending mailbox envelopes, picks the kernel with the
  /// globally smallest head, and executes it. `limit` (when given)
  /// stops before events later than it. Returns whether a step ran.
  bool step_head(const TimePoint* limit);
  void drain_mail();
  void maybe_audit();

  bool in_exec_context() const { return detail::exec_context.sim == this; }
  /// The shard scheduling targets right now: the executing kernel on a
  /// worker thread, otherwise the serially selected scheduling shard.
  std::uint32_t active_shard() const {
    return in_exec_context() ? detail::exec_context.shard : current_shard_;
  }

  std::unique_ptr<metrics::MetricsRegistry> metrics_;
  TimePoint now_{};
  std::uint64_t time_epoch_{0};
  std::uint32_t current_shard_{0};
  /// Per-shard minimum cross-post slack; each entry is only written by
  /// the thread executing that shard (or the main thread serially), so
  /// no synchronisation is needed. Aggregated by cross_min_slack_us().
  std::vector<std::int64_t> cross_min_slack_;
  std::vector<std::unique_ptr<EventKernel>> kernels_;
  std::vector<std::unique_ptr<ShardMailbox>> mailboxes_;
  std::uint64_t audit_interval_{0};
  std::uint64_t next_auditor_token_{1};
  std::vector<std::pair<std::uint64_t, Auditor>> auditors_;
};

/// RAII selector for the scheduling shard: setup code wraps per-agent
/// construction in a ShardGuard so the agent's timers land on its home
/// kernel, and the previous shard is restored on scope exit.
class ShardGuard {
 public:
  ShardGuard(Simulator& sim, std::uint32_t shard)
      : sim_(sim), previous_(sim.current_shard()) {
    sim_.set_scheduling_shard(shard);
  }
  ~ShardGuard() { sim_.set_scheduling_shard(previous_); }
  ShardGuard(const ShardGuard&) = delete;
  ShardGuard& operator=(const ShardGuard&) = delete;

 private:
  Simulator& sim_;
  std::uint32_t previous_;
};

/// Repeating timer built on the simulator. Survives cancellation and
/// restart; owner must outlive the simulator run or call stop().
class PeriodicTimer {
 public:
  PeriodicTimer(Simulator& sim, Duration period, Simulator::Callback on_tick);
  ~PeriodicTimer();
  PeriodicTimer(const PeriodicTimer&) = delete;
  PeriodicTimer& operator=(const PeriodicTimer&) = delete;

  /// Starts ticking; the first tick fires one period from now (or after
  /// `initial_delay` when given).
  void start();
  void start_after(Duration initial_delay);
  void stop();
  bool running() const { return running_; }
  Duration period() const { return period_; }

 private:
  void arm(Duration delay);

  Simulator& sim_;
  Duration period_;
  Simulator::Callback on_tick_;
  EventId pending_{};
  bool running_{false};
};

}  // namespace d2dhb::sim
