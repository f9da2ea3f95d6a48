// Shared helpers for the reproduction benches: consistent headers,
// paper-vs-measured annotations, and the runner-backed seed/thread
// conventions every sweep bench follows.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "common/table.hpp"
#include "metrics/export.hpp"
#include "runner/experiment_runner.hpp"
#include "runner/parallel.hpp"
#include "runner/sweep_runner.hpp"

namespace d2dhb::bench {

inline void print_header(const std::string& experiment,
                         const std::string& paper_says) {
  std::cout << "\n=================================================="
               "==============\n"
            << experiment << '\n'
            << "Paper reports: " << paper_says << '\n'
            << "=================================================="
               "==============\n";
}

inline std::string pct(double fraction) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f%%", fraction * 100.0);
  return buf;
}

/// The bench's seed list: D2DHB_SEEDS when set ("101:5" or "1,2,9"),
/// otherwise {first .. first+count-1}. A malformed override is a usage
/// error, not a crash.
inline std::vector<std::uint64_t> bench_seeds(std::uint64_t first,
                                              std::size_t count) {
  try {
    return runner::seeds_from_env(runner::seed_range(first, count));
  } catch (const std::invalid_argument& e) {
    std::cerr << "error: D2DHB_SEEDS: " << e.what() << '\n';
    std::exit(2);
  }
}

/// Worker threads for this bench run (D2DHB_THREADS override, else
/// hardware concurrency) — announced so sweep logs record how they ran.
inline std::size_t announce_threads() {
  const std::size_t threads = runner::default_thread_count();
  std::cout << "(runner: " << threads << " worker thread"
            << (threads == 1 ? "" : "s") << ")\n";
  return threads;
}

/// Prints the table and, when the environment variable D2DHB_CSV_DIR is
/// set, also writes `<dir>/<name>.csv` so results can be post-processed
/// (plotting, regression tracking).
inline void emit(const Table& table, const std::string& name) {
  table.print(std::cout);
  const char* dir = std::getenv("D2DHB_CSV_DIR");
  if (dir == nullptr || *dir == '\0') return;
  const std::string path = std::string(dir) + "/" + name + ".csv";
  std::ofstream out(path);
  if (!out) {
    std::cerr << "warning: cannot write " << path << '\n';
    return;
  }
  table.write_csv(out);
  std::cout << "(csv written to " << path << ")\n";
}

/// The `--metrics-out PATH` flag shared by the benches that export
/// registry snapshots; empty when the flag is absent.
inline std::string metrics_out_path(int argc, char** argv) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--metrics-out") == 0) return argv[i + 1];
  }
  return {};
}

/// True when bare flag `name` is present.
inline bool has_flag(int argc, char** argv, const char* name) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) return true;
  }
  return false;
}

/// Writes the snapshot report when a --metrics-out path was given
/// (format by extension, like metrics::write_report).
inline void emit_metrics(const metrics::NamedSnapshots& sections,
                         const std::string& path) {
  if (path.empty()) return;
  if (metrics::write_report(sections, path)) {
    std::cout << "(metrics written to " << path << ")\n";
  }
}

}  // namespace d2dhb::bench
