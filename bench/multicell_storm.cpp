// Multi-cell storm relief: the control channel is a per-cell resource;
// this bench shows the framework relieving each cell's synchronized
// storm peak independently across a 2×2 cell grid. Both arms of every
// seed run as independent parallel jobs; per-cell rows come from the
// first seed, and the headline saving is aggregated across seeds.
#include <cstdint>
#include <iostream>

#include "bench_util.hpp"
#include "common/table.hpp"
#include "scenario/crowd.hpp"
#include "scenario/crowd_cli.hpp"

namespace {

using namespace d2dhb;
using namespace d2dhb::scenario;

struct StormCell {
  CrowdMetrics d2d;
  CrowdMetrics orig;
};

CrowdConfig storm_config() {
  CrowdConfig config;
  config.phones = 64;
  config.relay_fraction = 0.25;
  config.area_m = 160.0;
  config.clusters = 4;
  config.cluster_stddev_m = 10.0;
  config.duration_s = 1800.0;
  config.stagger_fraction = 0.02;  // near-synchronized heartbeats
  config.cell_grid = 4;
  config.operator_policy = core::SelectionPolicy::coverage_greedy;
  return config;
}

}  // namespace

int main(int argc, char** argv) {
  bench::print_header(
      "Multi-cell synchronized storm (2x2 cells, 64 phones, 30 min)",
      "signaling storm is per control channel — aggregation relieves "
      "every cell's peak");
  bench::announce_threads();

  // Shared crowd knobs (--threads, --phones, ...) overlay the canned
  // storm configuration.
  CrowdConfig base = storm_config();
  CliFlags flags{argc, argv};
  if (const std::string error = apply_crowd_flags(flags, base);
      !error.empty()) {
    std::cerr << argv[0] << ": " << error << '\n';
    return 2;
  }

  runner::SweepRunner<CrowdConfig, StormCell> sweep(
      [](const CrowdConfig& base, std::uint64_t seed) {
        CrowdConfig config = base;
        config.seed = seed;
        return StormCell{run_d2d_crowd(config), run_original_crowd(config)};
      });
  sweep.point("2x2 grid", base)
      .seeds(bench::bench_seeds(7, 3))
      .metric("signaling saved",
              [](const StormCell& c) {
                return 1.0 - static_cast<double>(c.d2d.total_l3) /
                                 static_cast<double>(c.orig.total_l3);
              })
      .metric("orig peak L3/10s",
              [](const StormCell& c) {
                return static_cast<double>(c.orig.peak_l3_per_10s);
              })
      .metric("d2d peak L3/10s",
              [](const StormCell& c) {
                return static_cast<double>(c.d2d.peak_l3_per_10s);
              })
      .metric("relay coverage",
              [](const StormCell& c) { return c.d2d.relay_coverage; })
      .snapshot([](const StormCell& c) { return c.d2d.metrics; });
  const auto result = sweep.run();

  const StormCell& first = result.cells.front().front();
  Table table{{"Cell", "Original L3", "D2D L3", "Saved"}};
  for (std::size_t c = 0; c < first.orig.l3_per_cell.size(); ++c) {
    const double saved =
        first.orig.l3_per_cell[c] == 0
            ? 0.0
            : 1.0 - static_cast<double>(first.d2d.l3_per_cell[c]) /
                        static_cast<double>(first.orig.l3_per_cell[c]);
    table.add_row({"cell " + std::to_string(c),
                   std::to_string(first.orig.l3_per_cell[c]),
                   std::to_string(first.d2d.l3_per_cell[c]),
                   bench::pct(saved)});
  }
  table.add_row({"TOTAL", std::to_string(first.orig.total_l3),
                 std::to_string(first.d2d.total_l3),
                 bench::pct(1.0 - static_cast<double>(first.d2d.total_l3) /
                                      static_cast<double>(first.orig.total_l3))});
  bench::emit(table, "multicell_storm");

  std::cout << "\nAcross seeds:\n";
  bench::emit(result.table(), "multicell_storm_seeds");
  // D2D-arm registry snapshot, merged across seeds per sweep point.
  bench::emit_metrics(result.labeled_snapshots(),
                      bench::metrics_out_path(argc, argv));

  std::cout << "\nWorst-cell storm peak (L3 per 10 s, first seed): original "
            << first.orig.peak_l3_per_10s << " vs D2D "
            << first.d2d.peak_l3_per_10s << "\nOperator relay coverage: "
            << bench::pct(first.d2d.relay_coverage) << "\n";
  return 0;
}
