// perfbench workload program. Builds the seeded world of one named
// workload, times the public calls into the simulator from outside
// (scenario::build_city / run_city, scenario::run_d2d_crowd, sim::run)
// and prints one JSON record per line. It judges nothing: run.py turns
// the records into metrics and checks the outputs against the stored
// references.
//
//   perfbench_workload --workload city|crowd_medium|crowd_mobile
//       --world-seed S --size full|tiny --threads N --rounds R
//       --mode plain|traced|reference [--trace-out PATH]
//
// plain      set-up samples, R runs at 1 thread, then one run at N
//            threads (its outputs must equal the 1-thread ones).
// traced     R rounds of a run at 1 thread and a profiled and an
//            unprofiled run at N threads (interleaved, so the tracing
//            overhead is measured in matched pairs), plus the
//            per-layer counters. The benchmark's own spans are kept in
//            memory and written once, at the end, to PATH.
// reference  one run at 1 thread and one at N threads, reporting the
//            outputs at every point a check may happen.
//
// City runs: build_city, a warm-up to kWarmupS at N threads (the first
// heartbeats are staggered over 27-243 s and the links they set up
// settle by ~300 s, so earlier slices are not yet in the steady state),
// then kSliceS slices of sim::run at alternating thread counts;
// run_city closes the run.
// Crowd runs: run_d2d_crowd has no public build/run split, so set-up
// is a zero-duration call and run.py subtracts its median from every
// full call. One untimed full call warms the process up first.
//
// Records ("rec" key):
//   setup   one world build or zero-duration crowd call: "s".
//   warmup  the city warm-up: "s".
//   run     one untraced run or slice: "threads", "s",
//           "phone_h" simulated, "events" executed, "includes_setup".
//   check   protocol outputs of one world at simulated time "at_s".
//   spans   a traced run's span durations and its measured wall time.
//   layer   per-layer counters of the traced runs.
//   process the process's peak RSS and the world's phone count.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/memory.hpp"
#include "scenario/city.hpp"
#include "scenario/crowd.hpp"
#include "scenario/scenario.hpp"
#include "sim/engine.hpp"
#include "sim/profiler.hpp"

namespace {

using namespace d2dhb;
using namespace d2dhb::scenario;
using Clock = std::chrono::steady_clock;

// City schedule, in simulated seconds.
constexpr double kWarmupS = 300.0;
constexpr double kWarmupSliceS = 30.0;  ///< Traced warm-up span width.
constexpr double kSliceS = 5.0;
/// Slices after the warm-up that a run may reach; references hold the
/// outputs at every slice boundary up to here.
constexpr int kMaxSlices = 42;
/// Set-up samples per process (median reported).
constexpr int kSetupSamples = 3;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Args {
  std::string workload;
  std::string size{"full"};
  std::string mode{"plain"};
  std::string trace_out;
  std::uint64_t world_seed{1};
  std::size_t threads{1};
  int rounds{1};
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value: " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--size") {
      a.size = value;
    } else if (flag == "--mode") {
      a.mode = value;
    } else if (flag == "--trace-out") {
      a.trace_out = value;
    } else if (flag == "--world-seed") {
      a.world_seed = std::stoull(value);
    } else if (flag == "--threads") {
      a.threads = std::stoull(value);
    } else if (flag == "--rounds") {
      a.rounds = std::stoi(value);
    } else {
      throw std::invalid_argument("unknown flag: " + flag);
    }
  }
  if (a.workload != "city" && a.workload != "crowd_medium" &&
      a.workload != "crowd_mobile") {
    throw std::invalid_argument("unknown workload: " + a.workload);
  }
  if (a.size != "full" && a.size != "tiny") {
    throw std::invalid_argument("unknown size: " + a.size);
  }
  if (a.mode != "plain" && a.mode != "traced" && a.mode != "reference") {
    throw std::invalid_argument("unknown mode: " + a.mode);
  }
  if (a.threads == 0) throw std::invalid_argument("--threads must be >= 1");
  if (a.rounds < 1) throw std::invalid_argument("--rounds must be >= 1");
  if (a.workload == "city" && 3 * a.rounds > kMaxSlices) {
    throw std::invalid_argument("--rounds exceeds the city's reference "
                                "slices");
  }
  return a;
}

// ---- Workload worlds. Why each exists: perfbench/README.md. ----------

CityConfig city_config(const Args& a) {
  CityConfig c;  // the preset: 100k phones, 25 strips, 20 cells, static
  if (a.size == "tiny") {
    c.phones = 2000;
    c.phones_per_strip = 500;
    c.phones_per_cell = 1000;
  }
  c.seed = a.world_seed;
  return c;
}

CrowdConfig crowd_config(const Args& a) {
  const bool tiny = a.size == "tiny";
  CrowdConfig c;
  c.relay_fraction = 0.2;
  if (a.workload == "crowd_medium") {
    // bench_shard_scaling's medium arm: a (50 + phones) m square, one
    // cluster per 24 phones, one kernel per 120 m strip.
    c.phones = tiny ? 600 : 10000;
    c.area_m = 50.0 + static_cast<double>(c.phones);
    c.clusters = 1 + c.phones / 24;
    c.cluster_stddev_m = 7.0;
    c.duration_s = 600.0;
  } else {
    // Dense mobile crowd: every UE moves, relays stay put.
    c.phones = tiny ? 400 : 8000;
    c.area_m = tiny ? 480.0 : 960.0;
    c.clusters = tiny ? 8 : 32;
    c.mobile = true;
    c.reassess_interval_s = 60.0;
    c.duration_s = 600.0;
  }
  c.seed = a.world_seed;
  return c;
}

// ---- Records. ---------------------------------------------------------

/// The protocol outputs every run is checked on.
struct Outputs {
  std::uint64_t total_l3{0};
  std::uint64_t peak_l3_per_10s{0};
  std::uint64_t heartbeats_delivered{0};
  std::uint64_t forwarded_via_d2d{0};
  std::uint64_t fallbacks{0};
  bool has_radio{false};
  double radio_uah{0.0};
};

Outputs outputs_of(const CityMetrics& m) {
  return Outputs{m.total_l3,          m.peak_l3_per_10s, m.heartbeats_delivered,
                 m.forwarded_via_d2d, m.fallbacks,       false,
                 0.0};
}

Outputs outputs_of(const CrowdMetrics& m) {
  return Outputs{m.total_l3,          m.peak_l3_per_10s, m.heartbeats_delivered,
                 m.forwarded_via_d2d, m.fallbacks,       true,
                 m.total_radio_uah};
}

template <typename T>
std::string json_list(const std::vector<T>& values) {
  std::ostringstream os;
  os << std::setprecision(17) << '[';
  for (std::size_t i = 0; i < values.size(); ++i) {
    os << (i == 0 ? "" : ",") << values[i];
  }
  os << ']';
  return os.str();
}

void emit_timing(const char* rec, double s) {
  std::cout << std::setprecision(17) << "{\"rec\":\"" << rec
            << "\",\"s\":" << s << "}\n";
}

void emit_run(std::size_t threads, double s, double phone_h,
              std::uint64_t events, bool includes_setup) {
  std::cout << std::setprecision(17) << "{\"rec\":\"run\",\"threads\":"
            << threads << ",\"s\":" << s
            << ",\"phone_h\":" << phone_h << ",\"events\":" << events
            << ",\"includes_setup\":" << (includes_setup ? 1 : 0) << "}\n";
}

/// `threads` is 0 for a city world run at several thread counts.
void emit_check(std::size_t threads, bool traced, double at_s,
                const Outputs& o) {
  std::cout << std::setprecision(17) << "{\"rec\":\"check\",\"threads\":"
            << threads << ",\"traced\":" << (traced ? 1 : 0)
            << ",\"at_s\":" << at_s << ",\"out\":{\"total_l3\":" << o.total_l3
            << ",\"peak_l3_per_10s\":" << o.peak_l3_per_10s
            << ",\"heartbeats_delivered\":" << o.heartbeats_delivered
            << ",\"forwarded_via_d2d\":" << o.forwarded_via_d2d
            << ",\"fallbacks\":" << o.fallbacks;
  if (o.has_radio) std::cout << ",\"radio_uah\":" << o.radio_uah;
  std::cout << "}}\n";
}

// ---- Tracing: the benchmark's own spans, kept in memory. ---------------

struct Span {
  std::string name;
  Clock::time_point begin;
  Clock::time_point end;
  double seconds() const {
    return std::chrono::duration<double>(end - begin).count();
  }
};

class Tracer {
 public:
  /// Runs `fn` inside span `name`; returns the span's duration.
  template <typename Fn>
  double span(std::string name, Fn&& fn) {
    const auto t0 = Clock::now();
    fn();
    spans_.push_back(Span{std::move(name), t0, Clock::now()});
    return spans_.back().seconds();
  }

  /// Chrome trace-event JSON (Perfetto / chrome://tracing). Written
  /// once, after every run has finished.
  void write(const std::string& path) const {
    if (path.empty() || spans_.empty()) return;
    std::ofstream out(path);
    if (!out) {
      std::cerr << "warning: cannot write trace " << path << '\n';
      return;
    }
    const auto origin = spans_.front().begin;
    const auto us = [&](Clock::time_point t) {
      return std::chrono::duration<double, std::micro>(t - origin).count();
    };
    out << std::setprecision(15) << "{\"traceEvents\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << (i == 0 ? "" : ",") << "\n{\"name\":\"" << s.name
          << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":" << us(s.begin)
          << ",\"dur\":" << us(s.end) - us(s.begin) << '}';
    }
    out << "\n]}\n";
  }

  /// Reports every span and the wall time since `wall0` they should
  /// cover.
  void emit(Clock::time_point wall0) const {
    std::cout << std::setprecision(17) << "{\"rec\":\"spans\",\"wall_s\":"
              << seconds_since(wall0) << ",\"spans\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      std::cout << (i == 0 ? "" : ",") << "[\"" << spans_[i].name << "\","
                << spans_[i].seconds() << ']';
    }
    std::cout << "]}\n";
  }

 private:
  std::vector<Span> spans_;
};

/// Engine profile folded over the profiled sim::run calls of a traced
/// run.
struct EngineFold {
  std::uint64_t windows{0};
  std::uint64_t windowed_events{0};
  std::uint64_t windowed_ns{0};
  std::uint64_t drain_ns{0};
  std::uint64_t execute_ns{0};
  std::uint64_t barrier_wait_ns{0};
  std::size_t workers{0};
  std::vector<double> barrier_wait_us;
  std::vector<double> window_s;

  void add(const sim::Profiler& profiler) {
    const sim::ProfileSummary s = profiler.summarize();
    windows += s.windows;
    windowed_ns += s.windowed_ns;
    drain_ns += s.drain_ns;
    execute_ns += s.execute_ns;
    barrier_wait_ns += s.barrier_wait_ns;
    workers = std::max(workers, s.workers);
    for (const std::uint64_t e : s.shard_events) windowed_events += e;
    for (const SpanRecord& r : profiler.spans()) {
      if (r.kind == SpanKind::barrier_wait) {
        barrier_wait_us.push_back(static_cast<double>(r.duration_ns()) / 1e3);
      } else if (r.kind == SpanKind::window) {
        window_s.push_back(static_cast<double>(r.duration_ns()) * 1e-9);
      }
    }
  }
};

/// Per-layer readings of one traced process.
struct Layer {
  std::uint64_t events{0};  ///< Over the measured interval.
  double phone_h{0.0};      ///< Simulated over the measured interval.
  double t1_s{0.0};
  std::uint64_t t1_events{0};
  std::vector<double> slice_s;  ///< N-thread simulated-time slices.
  EngineFold engine;
  std::vector<std::uint64_t> shard_events;
  std::uint64_t cross_posted{0};
  std::uint64_t cross_delivered{0};
  std::int64_t min_slack_us{std::numeric_limits<std::int64_t>::max()};
  std::uint64_t arena_reserved{0};
  std::uint64_t arena_objects{0};
  std::uint64_t rss_before_snapshot{0};
  std::uint64_t series{0};
  std::uint64_t server_delivered{0};
  std::uint64_t server_late{0};
  std::map<std::string, std::uint64_t> counters;
  std::vector<double> traced_s;    ///< Profiled N-thread runs ...
  std::vector<double> untraced_s;  ///< ... and their unprofiled pairs.
  double sample_phone_h{0.0};      ///< Simulated by each of those runs.
  bool subtract_setup{false};      ///< Run times include the set-up.
};

std::map<std::string, std::uint64_t> counter_totals(
    const metrics::Snapshot& snap) {
  std::map<std::string, std::uint64_t> totals;
  for (const metrics::SnapshotEntry& e : snap.entries) {
    if (e.kind == metrics::Kind::counter) totals[e.name] += e.count;
  }
  return totals;
}

void emit_layer(const Layer& l) {
  std::cout << std::setprecision(17) << "{\"rec\":\"layer\""
            << ",\"events\":" << l.events << ",\"phone_h\":" << l.phone_h
            << ",\"t1_s\":" << l.t1_s << ",\"t1_events\":" << l.t1_events
            << ",\"shard_events\":" << json_list(l.shard_events)
            << ",\"windows\":" << l.engine.windows
            << ",\"windowed_events\":" << l.engine.windowed_events
            << ",\"windowed_ns\":" << l.engine.windowed_ns
            << ",\"drain_ns\":" << l.engine.drain_ns
            << ",\"execute_ns\":" << l.engine.execute_ns
            << ",\"barrier_wait_ns\":" << l.engine.barrier_wait_ns
            << ",\"workers\":" << l.engine.workers
            << ",\"barrier_wait_us\":" << json_list(l.engine.barrier_wait_us)
            << ",\"slice_s\":" << json_list(l.slice_s)
            << ",\"traced_s\":" << json_list(l.traced_s)
            << ",\"untraced_s\":" << json_list(l.untraced_s)
            << ",\"sample_phone_h\":" << l.sample_phone_h
            << ",\"subtract_setup\":" << (l.subtract_setup ? 1 : 0)
            << ",\"cross_posted\":" << l.cross_posted
            << ",\"cross_delivered\":" << l.cross_delivered
            << ",\"min_slack_us\":" << l.min_slack_us
            << ",\"arena_reserved_bytes\":" << l.arena_reserved
            << ",\"arena_objects\":" << l.arena_objects
            << ",\"rss_before_snapshot_bytes\":" << l.rss_before_snapshot
            << ",\"series\":" << l.series
            << ",\"server_delivered\":" << l.server_delivered
            << ",\"server_late\":" << l.server_late << ",\"counters\":{";
  bool first = true;
  for (const auto& [name, total] : l.counters) {
    std::cout << (first ? "" : ",") << '"' << name << "\":" << total;
    first = false;
  }
  std::cout << "}}\n";
}

// ---- City: build_city, sim::run slices, run_city. ----------------------

class CityBench {
 public:
  explicit CityBench(const Args& a) : args_(a), config_(city_config(a)) {}

  double phones() const { return static_cast<double>(config_.phones); }

  void plain() {
    auto world = setup();
    const auto w0 = Clock::now();
    run_to(*world, kWarmupS, args_.threads);
    emit_timing("warmup", seconds_since(w0));
    int slice = 0;
    while (slice < args_.rounds) timed_slice(*world, ++slice, 1);
    timed_slice(*world, ++slice, args_.threads);
    emit_check(0, false, slice_end(slice),
               outputs_of(run_city(*world, config_at(slice))));
  }

  void traced() {
    Tracer tracer;
    Layer layer;
    const auto wall0 = Clock::now();
    std::unique_ptr<Scenario> world;
    tracer.span("build_city", [&] { world = build_city(config_); });
    sim::Profiler profiler;
    for (double t = kWarmupSliceS; t <= kWarmupS; t += kWarmupSliceS) {
      tracer.span("warmup_slice", [&] { run_to(*world, t, args_.threads); });
    }
    const std::uint64_t events0 = world->sim().executed_events();
    int slice = 0;
    for (int cycle = 0; cycle < args_.rounds; ++cycle) {
      ++slice;
      const std::uint64_t before = world->sim().executed_events();
      layer.t1_s += tracer.span("slice_t1", [&] {
        run_to(*world, slice_end(slice), 1);
      });
      layer.t1_events += world->sim().executed_events() - before;
      // Profiled and unprofiled N-thread slices, alternating which
      // goes first: the tracing overhead, measured in matched pairs.
      for (int k = 0; k < 2; ++k) {
        const bool profiled = (k == 0) == (cycle % 2 == 0);
        ++slice;
        const double s = tracer.span(
            profiled ? "slice_tN_profiled" : "slice_tN", [&] {
              run_to(*world, slice_end(slice), args_.threads,
                     profiled ? &profiler : nullptr);
            });
        layer.slice_s.push_back(s);
        if (profiled) {
          layer.engine.add(profiler);
          layer.traced_s.push_back(s);
        } else {
          layer.untraced_s.push_back(s);
        }
      }
    }
    layer.events = world->sim().executed_events() - events0;
    layer.sample_phone_h = phones() * kSliceS / 3600.0;
    layer.phone_h = phones() * (slice * kSliceS) / 3600.0;
    CityMetrics m;
    tracer.span("run_city", [&] { m = run_city(*world, config_at(slice)); });
    layer.shard_events = m.shard_events_executed;
    layer.cross_posted = m.cross_shard_posted;
    layer.cross_delivered = m.cross_shard_delivered;
    layer.min_slack_us = world->sim().cross_min_slack_us();
    layer.arena_reserved = m.arena_bytes_reserved;
    layer.arena_objects = m.arena_objects;
    layer.rss_before_snapshot = peak_rss_bytes();
    layer.series = world->metrics().size();
    layer.server_delivered = world->server().totals().delivered;
    layer.server_late = world->server().totals().late;
    tracer.span("registry_snapshot", [&] {
      layer.counters = counter_totals(world->metrics_snapshot());
    });
    tracer.emit(wall0);
    emit_check(0, true, slice_end(slice), outputs_of(m));
    emit_layer(layer);
    tracer.write(args_.trace_out);
  }

  /// Outputs at every slice boundary, one world at 1 thread and one at
  /// N threads.
  void reference() {
    for (const std::size_t threads : {std::size_t{1}, args_.threads}) {
      auto world = build_city(config_);
      for (int slice = 1; slice <= kMaxSlices; ++slice) {
        run_to(*world, slice_end(slice), threads);
        const CityMetrics m = run_city(*world, config_at(slice));
        emit_check(threads, false, slice_end(slice), outputs_of(m));
      }
    }
  }

 private:
  static double slice_end(int slice) { return kWarmupS + slice * kSliceS; }

  CityConfig config_at(int slice) const {
    CityConfig c = config_;
    c.duration_s = slice_end(slice);
    c.threads = args_.threads;
    return c;
  }

  /// kSetupSamples timed builds; the last world is kept.
  std::unique_ptr<Scenario> setup() {
    std::unique_ptr<Scenario> world;
    for (int i = 0; i < kSetupSamples; ++i) {
      world.reset();
      const auto t0 = Clock::now();
      world = build_city(config_);
      emit_timing("setup", seconds_since(t0));
    }
    return world;
  }

  static void run_to(Scenario& world, double at_s, std::size_t threads,
                     sim::Profiler* profiler = nullptr) {
    sim::RunOptions options;
    options.threads = threads;
    options.profiler = profiler;
    sim::run(world.sim(), TimePoint{} + seconds(at_s), options);
  }

  void timed_slice(Scenario& world, int slice, std::size_t threads) {
    const std::uint64_t before = world.sim().executed_events();
    const auto t0 = Clock::now();
    run_to(world, slice_end(slice), threads);
    const double s = seconds_since(t0);
    emit_run(threads, s, phones() * kSliceS / 3600.0,
             world.sim().executed_events() - before, false);
  }

  Args args_;
  CityConfig config_;
};

// ---- Crowds: run_d2d_crowd only. ----------------------------------------

class CrowdBench {
 public:
  explicit CrowdBench(const Args& a) : args_(a), config_(crowd_config(a)) {}

  double phones() const { return static_cast<double>(config_.phones); }

  void plain() {
    warm_up();
    setup();
    for (int round = 0; round < args_.rounds; ++round) {
      setup();
      timed_call(1);
    }
    setup();
    timed_call(args_.threads);
  }

  void traced() {
    Tracer tracer;
    Layer layer;
    layer.subtract_setup = true;
    warm_up();
    const auto wall0 = Clock::now();
    tracer.span("setup_call", [&] { emit_timing("setup", zero_call()); });
    CrowdMetrics m;
    layer.t1_s = tracer.span("run_d2d_crowd_t1", [&] { m = call(1, nullptr); });
    layer.t1_events = m.sim_events;
    emit_check(1, false, config_.duration_s, outputs_of(m));
    sim::Profiler profiler;
    for (int pair = 0; pair < args_.rounds; ++pair) {
      for (int k = 0; k < 2; ++k) {
        const bool profiled = (k == 0) == (pair % 2 == 0);
        const double s = tracer.span(
            profiled ? "run_d2d_crowd_tN_profiled" : "run_d2d_crowd_tN", [&] {
              m = call(args_.threads, profiled ? &profiler : nullptr);
            });
        emit_check(args_.threads, profiled, config_.duration_s,
                   outputs_of(m));
        if (!profiled) {
          layer.untraced_s.push_back(s);
          continue;
        }
        layer.traced_s.push_back(s);
        if (pair > 0) continue;
        // The first profiled run gives the per-layer readings; the
        // engine's windows are its simulated-time slices.
        layer.engine.add(profiler);
        layer.slice_s = layer.engine.window_s;
        layer.events = m.sim_events;
        layer.phone_h = phones() * config_.duration_s / 3600.0;
        layer.sample_phone_h = layer.phone_h;
        layer.shard_events = m.shard_events_executed;
        layer.cross_posted = m.cross_shard_posted;
        layer.cross_delivered = m.cross_shard_delivered;
        layer.min_slack_us = m.cross_min_slack_us;
        layer.arena_reserved = m.arena_bytes_reserved;
        layer.arena_objects = m.arena_objects;
        layer.rss_before_snapshot = peak_rss_bytes();
        layer.series = m.metrics.entries.size();
        layer.server_delivered = m.server.delivered;
        layer.server_late = m.server.late;
        layer.counters = counter_totals(m.metrics);
      }
    }
    tracer.emit(wall0);
    emit_layer(layer);
    tracer.write(args_.trace_out);
  }

  void reference() {
    for (const std::size_t threads : {std::size_t{1}, args_.threads}) {
      emit_check(threads, false, config_.duration_s,
                 outputs_of(call(threads, nullptr)));
    }
  }

 private:
  CrowdMetrics call(std::size_t threads, sim::Profiler* profiler) const {
    CrowdConfig c = config_;
    c.threads = threads;
    c.profiler = profiler;
    return run_d2d_crowd(c);
  }

  /// Set-up = a zero-duration run_d2d_crowd call.
  double zero_call() const {
    CrowdConfig c = config_;
    c.duration_s = 0.0;
    const auto t0 = Clock::now();
    (void)run_d2d_crowd(c);
    return seconds_since(t0);
  }

  void setup() const { emit_timing("setup", zero_call()); }

  /// One untimed full call: the first calls of a process run slower
  /// (fresh pages, cold allocator), which no later call repeats.
  void warm_up() const { (void)call(1, nullptr); }

  void timed_call(std::size_t threads) const {
    const auto t0 = Clock::now();
    const CrowdMetrics m = call(threads, nullptr);
    const double s = seconds_since(t0);
    emit_run(threads, s, phones() * config_.duration_s / 3600.0,
             m.sim_events, true);
    emit_check(threads, false, config_.duration_s, outputs_of(m));
  }

  Args args_;
  CrowdConfig config_;
};

template <typename Bench>
void drive(Bench& bench, const Args& a) {
  if (a.mode == "plain") {
    bench.plain();
  } else if (a.mode == "traced") {
    bench.traced();
  } else {
    bench.reference();
  }
  std::cout << "{\"rec\":\"process\",\"peak_rss_bytes\":" << peak_rss_bytes()
            << ",\"phones\":" << bench.phones() << "}\n";
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  try {
    args = parse_args(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 2;
  }
  try {
    if (args.workload == "city") {
      CityBench bench{args};
      drive(bench, args);
    } else {
      CrowdBench bench{args};
      drive(bench, args);
    }
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
  return 0;
}
