#include "sim/engine.hpp"

#include <algorithm>
#include <condition_variable>
#include <exception>
#include <optional>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/memory.hpp"
#include "common/thread_annotations.hpp"
#include "common/trace_span.hpp"

namespace d2dhb::sim {

namespace {

/// Persistent worker pool for the windowed executor. Workers block on a
/// condition variable between rounds (the host may have fewer cores
/// than workers; spinning would starve the very threads we wait for).
/// With a profiler armed, each worker records into its own SpanBuffer —
/// single-writer, no synchronization; the pool join publishes the
/// buffers to whoever merges them.
class WorkerPool {
 public:
  WorkerPool(Simulator& sim, std::size_t workers, Profiler* profiler)
      : sim_(sim), workers_(workers), profiler_(profiler) {
    threads_.reserve(workers_);
    for (std::size_t w = 0; w < workers_; ++w) {
      threads_.emplace_back([this, w] { worker_main(w); });
    }
  }

  ~WorkerPool() { shutdown(); }

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Runs one window in two barrier-separated phases: first every
  /// worker drains its kernels' mailboxes up to `target` (advancing
  /// every horizon while no kernel is executing), then every worker
  /// executes its kernels strictly before `target`. The drain barrier
  /// is what makes horizon enforcement deterministic: by the time any
  /// callback runs, every mailbox already refuses posts below the new
  /// horizon, so a too-wide window always fails loudly instead of
  /// racing a concurrent drain. Rethrows the first worker exception.
  void run_round(TimePoint target) {
    dispatch(Phase::drain, target);
    dispatch(Phase::execute, target);
  }

  void shutdown() D2DHB_EXCLUDES(mutex_) {
    {
      const MutexLock lock(mutex_);
      if (stop_) return;
      stop_ = true;
      cv_.notify_all();
    }
    for (std::thread& t : threads_) {
      if (t.joinable()) t.join();
    }
  }

 private:
  enum class Phase { drain, execute };

  void dispatch(Phase phase, TimePoint target) D2DHB_EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    phase_ = phase;
    target_ = target;
    done_ = 0;
    ++round_;
    cv_.notify_all();
    // Explicit wait loop (not the predicate overload): the lambda would
    // read `done_` from a context where the analysis cannot see the
    // lock, whereas here the wait re-establishes the capability on
    // every wakeup (condition_variable_any drops and reacquires via the
    // MutexLock's annotated unlock()/lock()).
    while (done_ != workers_) cv_.wait(lock);
    if (error_) {
      const std::exception_ptr error = error_;
      error_ = nullptr;
      lock.unlock();
      shutdown();
      std::rethrow_exception(error);
    }
  }

  void worker_main(std::size_t index) D2DHB_EXCLUDES(mutex_) {
    SpanBuffer* spans =
        profiler_ == nullptr ? nullptr : profiler_->buffer(index);
    std::uint64_t seen = 0;
    for (;;) {
      TimePoint target;
      Phase phase;
      // The wait interval is measured around the whole blocking stretch
      // (lock acquisition included) — that is the worker's idle time.
      const std::uint64_t wait_begin_ns =
          spans == nullptr ? 0 : trace_now_ns();
      {
        MutexLock lock(mutex_);
        while (!stop_ && round_ == seen) cv_.wait(lock);
        if (stop_) return;
        seen = round_;
        target = target_;
        phase = phase_;
      }
      if (spans != nullptr) {
        SpanRecord wait;
        wait.kind = SpanKind::barrier_wait;
        wait.begin_ns = wait_begin_ns;
        wait.end_ns = trace_now_ns();
        wait.payload = seen;
        spans->push(wait);
      }
      try {
        // Owned kernels: k % workers == index. The drain phase delivers
        // sorted (when, seq) envelopes below the new horizon; the
        // execute phase runs the window with the kernel context
        // installed on this thread.
        for (std::size_t s = index; s < sim_.shard_count(); s += workers_) {
          const auto shard = static_cast<std::uint32_t>(s);
          if (phase == Phase::drain) {
            ScopedSpan span(spans, SpanKind::drain, shard);
            span.set_payload(
                sim_.mailbox(shard).drain_window(sim_.kernel(shard), target));
          } else {
            ScopedSpan span(spans, SpanKind::execute, shard);
            const std::uint64_t before =
                spans == nullptr ? 0 : sim_.kernel(shard).executed_events();
            sim_.run_shard_before(shard, target);
            if (spans != nullptr) {
              span.set_payload(sim_.kernel(shard).executed_events() - before);
            }
          }
        }
      } catch (...) {
        const MutexLock lock(mutex_);
        if (!error_) error_ = std::current_exception();
      }
      {
        const MutexLock lock(mutex_);
        if (++done_ == workers_) cv_.notify_all();
      }
    }
  }

  Simulator& sim_;
  std::size_t workers_;
  Profiler* profiler_;
  std::vector<std::thread> threads_;
  Mutex mutex_;
  /// _any variant: it waits on any BasicLockable, which lets it take
  /// the annotated MutexLock instead of a bare std::unique_lock.
  std::condition_variable_any cv_;
  std::uint64_t round_ D2DHB_GUARDED_BY(mutex_){0};
  Phase phase_ D2DHB_GUARDED_BY(mutex_){Phase::drain};
  TimePoint target_ D2DHB_GUARDED_BY(mutex_){};
  std::size_t done_ D2DHB_GUARDED_BY(mutex_){0};
  bool stop_ D2DHB_GUARDED_BY(mutex_){false};
  std::exception_ptr error_ D2DHB_GUARDED_BY(mutex_);
};

/// The earliest pending activity — a kernel head or an undelivered
/// envelope — across the whole world, or nullopt when drained.
std::optional<TimePoint> earliest_pending(Simulator& sim) {
  std::optional<TimePoint> earliest;
  for (std::uint32_t s = 0; s < sim.shard_count(); ++s) {
    if (const auto head = sim.kernel(s).peek()) {
      if (!earliest || head->when < *earliest) earliest = head->when;
    }
    if (const auto when = sim.mailbox(s).next_when()) {
      if (!earliest || *when < *earliest) earliest = *when;
    }
  }
  return earliest;
}

void collect(Simulator& sim, RunStats& stats) {
  stats.shard_events_executed.reserve(sim.shard_count());
  stats.shard_mailbox_delivered.reserve(sim.shard_count());
  for (std::uint32_t s = 0; s < sim.shard_count(); ++s) {
    stats.cross_posted += sim.mailbox(s).posted();
    stats.cross_delivered += sim.mailbox(s).delivered();
    stats.shard_events_executed.push_back(sim.kernel(s).executed_events());
    stats.shard_mailbox_delivered.push_back(sim.mailbox(s).delivered());
  }
  stats.min_slack_us = sim.cross_min_slack_us();
  stats.peak_rss_bytes = peak_rss_bytes();
}

}  // namespace

RunStats run(Simulator& sim, TimePoint until, const RunOptions& options) {
  if (until < sim.now()) {
    throw std::invalid_argument("sim::run: target time in the past");
  }
  if (options.window <= Duration::zero()) {
    throw std::invalid_argument("sim::run: window must be positive");
  }
  RunStats stats;
  stats.workers =
      std::clamp<std::size_t>(options.threads, 1, sim.shard_count());
  // Arm the span recorder before the pool exists: workers grab their
  // buffers on their first round.
  Profiler* profiler = options.profiler;
  if (profiler != nullptr) {
    profiler->begin_run(stats.workers, sim.shard_count());
  }
  SpanBuffer* main_spans =
      profiler == nullptr ? nullptr : profiler->main_buffer();
  if (stats.workers > 1) {
    WorkerPool pool(sim, stats.workers, profiler);
    for (;;) {
      // Skip-ahead: jump straight to the earliest pending activity and
      // run one window from there. Events at exactly `until` (and the
      // idle tail) belong to the final serial step below.
      const auto earliest = earliest_pending(sim);
      if (!earliest || *earliest >= until) break;
      const TimePoint target = std::min(until, *earliest + options.window);
      ScopedSpan window_span(main_spans, SpanKind::window);
      window_span.set_payload(stats.windows);
      pool.run_round(target);
      sim.advance_world_to(target);
      window_span.close();
      ++stats.windows;
      if (sim.audit_interval() != 0) sim.audit();
    }
    pool.shutdown();
  }
  {
    // Serial tail: boundary events at `until`, leftover envelopes, and
    // the clock advance to exactly `until` — the classic executor.
    ScopedSpan tail(main_spans, SpanKind::serial_tail);
    const std::uint64_t before =
        profiler == nullptr ? 0 : sim.executed_events();
    sim.run_until(until);
    if (profiler != nullptr) {
      tail.set_payload(sim.executed_events() - before);
    }
  }
  if (profiler != nullptr) {
    profiler->end_run();
    stats.profile = profiler->summarize();
    profiler->publish(sim.metrics());
  }
  collect(sim, stats);
  return stats;
}

}  // namespace d2dhb::sim
